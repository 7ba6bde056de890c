"""snnfault: bit-level stuck-at fault-injection campaigns for spiking
neural networks, with statistically sampled fault lists and silent-data-
corruption classification against a golden reference. The top level exports
the synth -> gen-fl -> inject -> report pipeline; the rest is in submodules."""

from .campaign import CampaignConfig, CampaignResult, read_golden, read_outcomes, run_campaign
from .classify import SdcClass, classify_pair
from .core import DTYPE, LayerKind, LayerSpec, Network
from .dataio import load_dataset, load_model, save_dataset, save_model, synth_dataset, synth_model
from .errors import SnnFaultError
from .faultlist import (
    SamplingSpec,
    generate_fault_list,
    read_fault_list,
    sample_size,
    write_fault_list,
)
from .faults import FaultDescriptor, FaultMode, ParameterKind, apply_bit_stuck, target_tensor
from .report import aggregate, render_report

__version__ = "0.1.0"
