"""Stuck-at fault descriptors and bit-exact injection.

A fault pins one bit of one binary32 value (bit 0 = least-significant mantissa
bit, bit 31 = sign) to 0 or 1. Static parameter kinds (weights, biases, beta,
threshold) are corrupted once, in place, before inference; dynamic kinds
(membrane potential, spike) are re-applied after every state write of every
timestep via a refresh hook, so the stuck value persists no matter how the
network rewrites the state. Spike faults additionally support a value-stuck
mode that pins the emitted spike to exactly 0.0 (dead neuron) or 1.0
(saturated neuron) instead of twiddling its encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import LifState, Network, StateHook
from .errors import AddressError, FaultKindError

_U32 = np.dtype("<u4") if np.little_endian else np.dtype(">u4")


class ParameterKind(str, Enum):
    WEIGHT = "weight"
    BIAS = "bias"
    FEEDBACK_WEIGHT = "feedback_weight"
    FEEDBACK_BIAS = "feedback_bias"
    BETA = "beta"
    THRESHOLD = "threshold"
    POTENTIAL = "potential"
    SPIKE = "spike"

    @property
    def is_dynamic(self) -> bool:
        return self in DYNAMIC_KINDS

    @property
    def is_static(self) -> bool:
        return self not in DYNAMIC_KINDS


DYNAMIC_KINDS = frozenset({ParameterKind.POTENTIAL, ParameterKind.SPIKE})


class FaultMode(str, Enum):
    BIT_STUCK = "bit"
    VALUE_STUCK = "value"


@dataclass(frozen=True)
class FaultDescriptor:
    """One injectable fault: a tensor element, a bit, and a stuck polarity."""

    fault_id: int
    layer: str
    parameter: ParameterKind
    coords: tuple[int, ...]
    bit: int
    stuck: int
    mode: FaultMode = FaultMode.BIT_STUCK

    def __post_init__(self):
        if not 0 <= self.bit <= 31:
            raise AddressError(f"fault {self.fault_id}: bit {self.bit} outside 0..31")
        if self.stuck not in (0, 1):
            raise AddressError(f"fault {self.fault_id}: stuck must be 0 or 1, got {self.stuck}")
        if not self.coords or any(c < 0 for c in self.coords):
            raise AddressError(f"fault {self.fault_id}: bad coords {self.coords}")
        if self.mode is FaultMode.VALUE_STUCK and self.parameter is not ParameterKind.SPIKE:
            raise FaultKindError(
                f"fault {self.fault_id}: value-stuck only applies to spikes, "
                f"not '{self.parameter.value}'"
            )


def apply_bit_stuck(value, bit: int, stuck: int) -> np.float32:
    """Pin one bit of a binary32 value. Total over all values, NaN/Inf included.

    np.float32 inputs pass through without a float64 hop, so arbitrary bit
    patterns (signaling NaNs included) survive exactly.
    """
    if not 0 <= bit <= 31:
        raise AddressError(f"bit {bit} outside 0..31")
    a = np.array(value, dtype=np.float32)
    set_bit_inplace(a, (), bit, stuck)
    return a[()]


def set_bit_inplace(tensor: np.ndarray, coords: tuple, bit: int, stuck: int) -> None:
    """Pin one bit of the elements ``coords`` indexes in a float32 array, in place."""
    u = tensor.view(_U32)
    if stuck:
        u[coords] |= np.uint32(1 << bit)
    else:
        u[coords] &= np.uint32(~(1 << bit) & 0xFFFFFFFF)


def target_tensor(net: Network, d: FaultDescriptor) -> np.ndarray:
    """Resolve the tensor a descriptor addresses, validating coords bounds.

    Dynamic coords are checked against the layer's per-inference state shape
    ``net.shapes``; the live state tensor may carry batch axes in front.
    """
    spec = net.layer(d.layer)
    if d.parameter.is_static:
        tensor = spec.params.get(d.parameter.value)
        if tensor is None:
            raise AddressError(
                f"layer '{d.layer}' has no parameter '{d.parameter.value}'"
            )
        shape = tensor.shape
    else:
        state: LifState | None = net.states.get(d.layer)
        if state is None:
            raise AddressError(f"layer '{d.layer}' holds no neuron state")
        tensor = state.potential if d.parameter is ParameterKind.POTENTIAL else state.spike
        shape = net.shapes[d.layer]
    if len(d.coords) != len(shape) or any(not 0 <= c < ext for c, ext in zip(d.coords, shape)):
        raise AddressError(
            f"coords {list(d.coords)} out of bounds for "
            f"{d.layer}.{d.parameter.value} shape {shape}"
        )
    return tensor


def inject_static(net: Network, d: FaultDescriptor) -> None:
    """Corrupt the addressed static parameter once, in place.

    The network should be a working copy: nothing records the original bits.
    """
    if d.parameter.is_dynamic:
        raise FaultKindError(
            f"'{d.parameter.value}' is rewritten every timestep; "
            "use make_refresh_hook, not inject_static"
        )
    set_bit_inplace(target_tensor(net, d), d.coords, d.bit, d.stuck)


def make_refresh_hook(d: FaultDescriptor) -> StateHook:
    """Bind a dynamic descriptor into a network_forward refresh hook.

    The hook mutates the matching state tensor in place each time it is
    written, before the value feeds anything downstream, at ``coords`` in
    every row of the tensor's leading batch axes.
    """
    if d.parameter.is_static:
        raise FaultKindError(f"'{d.parameter.value}' is static; use inject_static")
    wanted = d.parameter.value
    index = (Ellipsis, *d.coords)  # the same neuron in every batch row

    def hook(layer: str, kind: str, tensor: np.ndarray) -> None:
        if layer == d.layer and kind == wanted:
            if d.mode is FaultMode.VALUE_STUCK:
                tensor[index] = np.float32(d.stuck)
            else:
                set_bit_inplace(tensor, index, d.bit, d.stuck)

    return hook
