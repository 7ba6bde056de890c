"""Stuck-at fault descriptors and bit-exact injection.

A fault pins one bit of one binary32 value (bit 0 = least-significant mantissa
bit, bit 31 = sign) to 0 or 1. Static parameter kinds (weights, biases, beta,
threshold) are corrupted once, in place, before inference; dynamic kinds
(membrane potential, spike) are re-applied after every state write of every
timestep via a refresh hook, so the stuck value persists no matter how the
network rewrites the state. Spike faults additionally support a value-stuck
mode that pins the emitted spike to exactly 0.0 (dead neuron) or 1.0
(saturated neuron) instead of twiddling its encoding. Every injection goes
through ``pin_bits``, which applies a fault as a (keep, force) pair of masks
on binary32 patterns, so one call can pin a different fault in each column
of an array.
"""

from __future__ import annotations

from enum import Enum
from operator import ge
from typing import Iterable, NamedTuple

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


class _FaultFields(NamedTuple):
    fault_id: int
    layer: str
    parameter: ParameterKind
    coords: tuple[int, ...]
    bit: int
    stuck: int
    mode: FaultMode = FaultMode.BIT_STUCK


class FaultDescriptor(_FaultFields):
    """One injectable fault: a tensor element, a bit, and a stuck polarity.

    An immutable named tuple whose constructor checks the fields, as does
    ``_replace``: a fault list holds thousands, and a tuple builds in a third
    of a frozen dataclass's time.
    """

    __slots__ = ()

    def __new__(cls, fault_id: int, layer: str, parameter: ParameterKind,
                coords: tuple[int, ...], bit: int, stuck: int,
                mode: FaultMode = FaultMode.BIT_STUCK):
        if not 0 <= bit <= 31:
            raise AddressError(f"fault {fault_id}: bit {bit} outside 0..31")
        if stuck not in (0, 1):
            raise AddressError(f"fault {fault_id}: stuck must be 0 or 1, got {stuck}")
        if not coords or min(coords) < 0:
            raise AddressError(f"fault {fault_id}: bad coords {coords}")
        if mode is FaultMode.VALUE_STUCK and parameter is not ParameterKind.SPIKE:
            raise FaultKindError(
                f"fault {fault_id}: value-stuck only applies to spikes, "
                f"not '{parameter.value}'"
            )
        return tuple.__new__(cls, (fault_id, layer, parameter, coords, bit, stuck, mode))

    def _replace(self, **changes) -> FaultDescriptor:
        return type(self)(**{**self._asdict(), **changes})


def apply_bit_stuck(value, bit: int, stuck: int) -> np.float32:
    """Pin one bit of a binary32 value. Total over all values, NaN/Inf included.

    np.float32 inputs pass through without a float64 hop, so arbitrary bit
    patterns (signaling NaNs included) survive exactly.
    """
    if not 0 <= bit <= 31:
        raise AddressError(f"bit {bit} outside 0..31")
    a = np.array(value, dtype=np.float32)
    pin_bits(a, (), *_bit_masks(bit, stuck))
    return a[()]


def pin_bits(tensor: np.ndarray, index, keep, force) -> None:
    """Set the binary32 patterns of ``tensor[index]`` to ``(bits & keep) |
    force``, in place. ``keep`` and ``force`` are uint32 masks that broadcast
    against ``tensor[index]``, so each column can take its own fault."""
    u = tensor.view(_U32)
    u[index] = (u[index] & keep) | force


def _bit_masks(bit: int, stuck: int) -> tuple[np.uint32, np.uint32]:
    mask = np.uint32(1 << bit)
    return (~np.uint32(0), mask) if stuck else (~mask, np.uint32(0))


def fault_masks(d: FaultDescriptor) -> tuple[np.uint32, np.uint32]:
    """The (keep, force) masks of pin_bits that apply ``d``: its bit pinned,
    or for a value-stuck spike the whole pattern of 0.0 or 1.0."""
    if d.mode is FaultMode.VALUE_STUCK:
        return np.uint32(0), np.float32(d.stuck).view(np.uint32)
    return _bit_masks(d.bit, d.stuck)


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


def check_addresses(net: Network, faults: Iterable[FaultDescriptor]) -> None:
    """Raise an AddressError naming the fault for the first descriptor that
    ``net`` cannot address. Coords are checked against a shape per (layer,
    parameter), resolved once; a first sighting or a miss goes through
    target_tensor, which raises the error."""
    shapes: dict[tuple[str, ParameterKind], tuple[int, ...]] = {}
    for d in faults:
        shape = shapes.get((d.layer, d.parameter))
        # coords are never negative, so ge is the whole bounds check
        if shape is None or len(d.coords) != len(shape) or any(map(ge, d.coords, shape)):
            try:
                tensor = target_tensor(net, d)
            except AddressError as exc:
                raise AddressError(f"fault {d.fault_id}: {exc}") from None
            shapes[d.layer, d.parameter] = (
                net.shapes[d.layer] if d.parameter.is_dynamic else tensor.shape
            )


def inject_static(net: Network, d: FaultDescriptor) -> None:
    """Corrupt the addressed static parameter once, in place.

    The network should be a working copy: nothing records the original bits.
    """
    if d.parameter.is_dynamic:
        raise FaultKindError(
            f"'{d.parameter.value}' is rewritten every timestep; "
            "use make_refresh_hook, not inject_static"
        )
    pin_bits(target_tensor(net, d), d.coords, *fault_masks(d))


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
    keep, force = fault_masks(d)

    def hook(layer: str, kind: str, tensor: np.ndarray) -> None:
        if layer == d.layer and kind == wanted:
            pin_bits(tensor, index, keep, force)

    return hook
