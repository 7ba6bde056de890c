"""Stuck-at fault descriptors and bit-exact injection.

A fault pins one bit of one binary32 value (bit 0 = least-significant mantissa
bit, bit 31 = sign) to 0 or 1. Static parameter kinds (weights, biases, beta,
threshold) are corrupted once, in place, before inference; dynamic kinds
(membrane potential, spike) are re-applied after every state write of every
timestep via a refresh hook (a ``pin_hook``, which can pin a different fault
in each batch row), so the stuck value persists no matter how the network
rewrites the state. Spike faults additionally support a value-stuck mode
that pins the emitted spike to exactly 0.0 (dead neuron) or 1.0 (saturated
neuron) instead of twiddling its encoding. Every injection goes
through ``pin_bits``, which applies a fault as a (keep, force) pair of masks
on binary32 patterns, so one call can pin a different fault in each column
of an array.

Faults cross the pipeline as a ``FaultTable``: one array per field, a fault
a row. Its rows read as ``FaultDescriptor`` tuples, built only when read.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from operator import eq
from typing import NamedTuple

import numpy as np

from .core import LifState, Network, StateHook
from .errors import AddressError, FaultKindError


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


Site = tuple[str, ParameterKind]  # a (layer, parameter) that faults address
_MODES = (FaultMode.BIT_STUCK, FaultMode.VALUE_STUCK)  # by FaultTable.value


@dataclass(frozen=True, eq=False)
class FaultTable(Sequence[FaultDescriptor]):
    """Faults as columns, one row per fault: ``fault_id`` (uint64), ``site``
    (intp, an index into ``sites``), ``coords`` (uint64 [n, R], each row's
    ``rank`` leading values its coords, zeros after), ``bit``, ``stuck`` and
    ``value`` (uint8, uint8, bool: value-stuck mode). Every row holds a
    FaultDescriptor's invariants. As a sequence it yields FaultDescriptor
    rows, built as they are read; a slice is a table, and two sequences of
    equal rows are equal."""

    sites: tuple[Site, ...]
    fault_id: np.ndarray
    site: np.ndarray
    coords: np.ndarray
    rank: np.ndarray
    bit: np.ndarray
    stuck: np.ndarray
    value: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[FaultDescriptor], sites: Sequence[Site] = ()) -> FaultTable:
        """The columns of FaultDescriptor rows; ``sites`` gains each (layer,
        parameter) it lacks, in first-seen order."""
        rows = list(rows)
        code = {site: i for i, site in enumerate(sites)}
        at = [code.setdefault((d.layer, d.parameter), len(code)) for d in rows]
        ranks = [len(d.coords) for d in rows]
        coords = np.zeros((len(rows), max(ranks, default=1)), np.uint64)
        for i, d in enumerate(rows):
            coords[i, : ranks[i]] = d.coords
        return cls(tuple(code), np.array([d.fault_id for d in rows], np.uint64),
                   np.array(at, np.intp), coords, np.array(ranks, np.intp),
                   np.array([d.bit for d in rows], np.uint8),
                   np.array([d.stuck for d in rows], np.uint8),
                   np.array([d.mode is FaultMode.VALUE_STUCK for d in rows], bool))

    def take(self, at) -> FaultTable:
        """The rows at positions ``at`` (an index array or a slice), as a table."""
        return FaultTable(self.sites, *(column[at] for column in (
            self.fault_id, self.site, self.coords, self.rank, self.bit, self.stuck, self.value)))

    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's (keep, force) masks of pin_bits, as fault_masks gives them."""
        one = np.left_shift(np.uint32(1), self.bit, dtype=np.uint32)
        stuck = self.stuck.astype(bool)
        keep = np.where(self.value, np.uint32(0), np.where(stuck, ~np.uint32(0), ~one))
        force = np.where(self.value, np.float32(1).view(np.uint32), one) * stuck
        return keep.astype(np.uint32), force.astype(np.uint32)

    def __len__(self) -> int:
        return len(self.fault_id)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        return next(iter(self.take([i])))

    def __iter__(self) -> Iterator[FaultDescriptor]:
        # rows already hold the invariants: _make skips the constructor's checks
        sites, make = self.sites, FaultDescriptor._make
        for fid, s, coords, rank, bit, stuck, value in zip(
                self.fault_id.tolist(), self.site.tolist(), self.coords.tolist(),
                self.rank.tolist(), self.bit.tolist(), self.stuck.tolist(), self.value.tolist()):
            yield make((fid, *sites[s], tuple(coords[:rank]), bit, stuck, _MODES[value]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None


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
    u = tensor.view(np.uint32)
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


def check_addresses(net: Network, faults: FaultTable) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Raise an AddressError naming the fault for the first row that ``net``
    cannot address; else return, per site code in first-seen order, its
    rows' positions in ``faults`` and their coords, [n, ndim] intp.

    Each site's shape is resolved once, by target_tensor on its first row
    (the one row built), and every row's rank and coords are checked against
    its site's in one comparison. On a miss, the rows go through
    target_tensor in order, and the first one it refuses raises its error."""
    codes, first = np.unique(faults.site, return_index=True)
    bound = np.ones((len(codes), faults.coords.shape[1]), np.uint64)  # past a rank, coords are 0
    ranks = np.zeros(len(codes), np.intp)
    for i, at in enumerate(first.tolist()):
        try:
            d = faults[at]
            tensor = target_tensor(net, d)
        except AddressError:
            break
        shape = net.shapes[d.layer] if d.parameter.is_dynamic else tensor.shape
        ranks[i] = len(shape)
        bound[i, : len(shape)] = shape[: bound.shape[1]]  # a longer shape fails on rank
    else:
        which = np.searchsorted(codes, faults.site)
        if not ((faults.rank != ranks[which]).any() or (faults.coords >= bound[which]).any()):
            rows = np.argsort(which, kind="stable")  # each site's rows, in order
            ends = np.cumsum(np.bincount(which, minlength=len(codes)))
            groups = {}
            for i in np.argsort(first).tolist():
                at = rows[ends[i - 1] if i else 0 : ends[i]]
                groups[int(codes[i])] = at, faults.coords[at, : ranks[i]].astype(np.intp)
            return groups
    for d in faults:
        try:
            target_tensor(net, d)
        except AddressError as exc:
            raise AddressError(f"fault {d.fault_id}: {exc}") from None
    raise AssertionError("a site's faults missed its shape, yet every fault resolves")


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


def pin_hook(layer: str, cells, pins: dict[str, tuple[np.ndarray, np.ndarray]]) -> StateHook:
    """A network_forward refresh hook that pins LIF layer ``layer``'s state:
    each time a state of a kind in ``pins`` is written, before the value
    feeds anything downstream, its elements ``cells`` take that kind's
    (keep, force) masks of pin_bits, which broadcast against them."""

    def hook(name: str, kind: str, tensor: np.ndarray) -> None:
        if name == layer and kind in pins:
            pin_bits(tensor, cells, *pins[kind])

    return hook


def make_refresh_hook(d: FaultDescriptor) -> StateHook:
    """Bind a dynamic descriptor into a pin_hook: it pins the matching state
    tensor at ``coords`` in every row of the tensor's leading batch axes."""
    if d.parameter.is_static:
        raise FaultKindError(f"'{d.parameter.value}' is static; use inject_static")
    # the same neuron in every batch row
    return pin_hook(d.layer, (Ellipsis, *d.coords), {d.parameter.value: fault_masks(d)})
