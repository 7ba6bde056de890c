"""Fault universe enumeration and statistically sampled fault lists.

The universe is every (location, bit) pair over the selected parameter kinds:
locations in network layer order, kinds within a layer in declaration order
(weight, bias, feedback_weight, feedback_bias | beta, threshold, potential,
spike), elements row-major, then bits 0..31. Stuck polarity is a sampled
attribute, not a universe dimension.

The sample size for an error margin e, confidence quantile t and success
probability p over a universe of N faults is

    n = ceil( N / (1 + e^2 * (N - 1) / (t^2 * p * (1 - p))) ), clamped to <= N

t is the two-sided normal quantile (99% confidence -> 2.576), never the
confidence level itself. Sampling is without replacement via a seeded partial
Fisher-Yates over the universe indices (generator id recorded in the file
header, see RNG_ID), so a (network, spec) pair always yields the same list.

Fault-list CSV: `# seed=.. e=.. t=.. p=.. N=.. n=.. scope=.. rng=..` comment,
a second comment with polarity/spike-mode/exhaustive switches, one
`# universe <layer> <parameter> <dims>` comment per (layer, parameter) group,
then a `fault_id,layer,parameter,coords,bit,stuck,mode` header and one row per
fault with `;`-separated coords. UTF-8, LF line endings.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import zip_longest
from statistics import NormalDist

import numpy as np

from .core import PARAMETERIZED, LayerKind, Network
from .dataio import FLOAT, INT, UINT64_MAX, read_lines, write_atomic
from .errors import AddressError, CompatibilityError, FormatError, SnnFaultError
from .faults import FaultDescriptor, FaultMode, ParameterKind, check_addresses

RNG_ID = "np-pcg64-fy1"  # numpy PCG64 + the partial Fisher-Yates below
BITS_PER_ELEMENT = 32

# Canonical kind order per layer kind; drives universe index assignment. The
# parameters keep core's declaration order; a LIF's state follows them.
KIND_ORDER: dict[LayerKind, tuple[ParameterKind, ...]] = {
    kind: tuple(ParameterKind(name) for name in names)
    + ((ParameterKind.POTENTIAL, ParameterKind.SPIKE) if kind is LayerKind.LIF else ())
    for kind, names in PARAMETERIZED.items()
}

POLARITIES = ("random", "0", "1", "both")
SPIKE_MODES = ("bit", "value")


def quantile_for_confidence(level: float) -> float:
    """Two-sided normal quantile for a confidence level in (0,1), rounded to
    the conventional 3 decimals: 0.90->1.645, 0.95->1.96, 0.99->2.576."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0,1), got {level}")
    return round(NormalDist().inv_cdf((1.0 + level) / 2.0), 3)


@dataclass(frozen=True)
class SamplingSpec:
    error_margin: float
    quantile: float
    p: float = 0.5
    seed: int = 0
    scope: str = "network"  # "network" or "layer" (per-layer stratified)
    exhaustive: bool = False

    def __post_init__(self):
        if not 0.0 < self.error_margin < 1.0:
            raise ValueError(f"error margin must be in (0,1), got {self.error_margin}")
        if not self.quantile > 0.0:
            raise ValueError(f"quantile must be > 0, got {self.quantile}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0,1), got {self.p}")
        if self.scope not in ("network", "layer"):
            raise ValueError(f"scope must be 'network' or 'layer', got {self.scope!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class UniverseEntry:
    layer: str
    parameter: ParameterKind
    shape: tuple[int, ...]

    @property
    def element_count(self) -> int:
        return int(np.prod(self.shape))

    @property
    def bit_count(self) -> int:
        return self.element_count * BITS_PER_ELEMENT


class FaultUniverse:
    """Indexable set of all (location, bit) pairs over selected kinds."""

    def __init__(self, entries: list[UniverseEntry]):
        if not entries:
            raise CompatibilityError("fault universe is empty")
        self.entries = list(entries)
        self._bases: list[int] = []
        base = 0
        for e in self.entries:
            self._bases.append(base)
            base += e.bit_count
        self.N = base  # total (location, bit) pairs

    @property
    def total_elements(self) -> int:
        return sum(e.element_count for e in self.entries)

    def locate(self, index: int) -> tuple[UniverseEntry, tuple[int, ...], int]:
        """Map a global universe index to (entry, element coords, bit)."""
        if not 0 <= index < self.N:
            raise AddressError(f"universe index {index} outside 0..{self.N - 1}")
        (which,), (coords,), (bit,) = self.locate_all(np.array([index], dtype=np.int64))
        return self.entries[which], coords, bit

    def locate_all(self, indices: np.ndarray) -> tuple[list[int], list[tuple[int, ...]], list[int]]:
        """locate() for an int64 array of in-range universe indices, in one
        pass: each index's position in ``entries``, element coords and bit.
        The indices of one element share one coords tuple."""
        bases = np.array(self._bases, dtype=np.int64)
        which = np.searchsorted(bases, indices, side="right") - 1
        elems, bits = np.divmod(indices - bases[which], BITS_PER_ELEMENT)
        coords: list[tuple[int, ...]] = [()] * len(indices)
        for i, entry in enumerate(self.entries):
            at = np.flatnonzero(which == i)
            own = elems[at]
            found = zip(*(axis.tolist() for axis in np.unravel_index(own, entry.shape)))
            shared: dict[int, tuple[int, ...]] = {}
            for pos, elem, c in zip(at.tolist(), own.tolist(), found):
                coords[pos] = shared.setdefault(elem, c)
        return which.tolist(), coords, bits.tolist()

    def layer_spans(self) -> list[tuple[str, int, int]]:
        """(layer, base index, bit count) per layer, in layer order."""
        spans: list[tuple[str, int, int]] = []
        for e, base in zip(self.entries, self._bases):
            if spans and spans[-1][0] == e.layer:
                layer, lo, size = spans[-1]
                spans[-1] = (layer, lo, size + e.bit_count)
            else:
                spans.append((e.layer, base, e.bit_count))
        return spans

    def element_counts(self) -> dict[tuple[str, str], int]:
        return {(e.layer, e.parameter.value): e.element_count for e in self.entries}


def enumerate_universe(net: Network, points: set[ParameterKind]) -> FaultUniverse:
    """Count the injectable (location, bit) pairs for the requested kinds.

    Raises a compatibility error if the request is empty or names a kind no
    layer of this network carries.
    """
    points = {ParameterKind(p) for p in points}
    if not points:
        raise CompatibilityError("no parameter kinds requested")
    entries: list[UniverseEntry] = []
    seen: set[ParameterKind] = set()
    for spec in net.layers:
        for kind in KIND_ORDER[spec.kind]:
            if kind not in points:
                continue
            if kind.is_static:
                tensor = spec.params.get(kind.value)
                if tensor is None:  # optional parameter absent on this layer
                    continue
                shape = tensor.shape
            else:
                shape = net.shapes[spec.name]
            entries.append(UniverseEntry(spec.name, kind, tuple(shape)))
            seen.add(kind)
    missing = points - seen
    if missing:
        names = ", ".join(sorted(k.value for k in missing))
        raise CompatibilityError(f"network has no injectable '{names}' parameters")
    return FaultUniverse(entries)


def sample_size(N: int, spec: SamplingSpec) -> int:
    """Statistical sample size over a universe of N faults (see module doc)."""
    if N < 1:
        raise ValueError(f"universe size must be >= 1, got {N}")
    e, t, p = spec.error_margin, spec.quantile, spec.p
    n = N / (1.0 + e * e * (N - 1) / (t * t * p * (1.0 - p)))
    return min(math.ceil(n), N)


def _draw_distinct(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    # Partial Fisher-Yates with a sparse swap map: the first k entries of a
    # uniform permutation of range(n), without materializing the range. Draw
    # i is uniform over [i, n); one call takes all k of them from the stream
    # exactly as k scalar integers(i, n) calls would.
    swap: dict[int, int] = {}
    out: list[int] = []
    for i, j in enumerate(rng.integers(np.arange(k), n).tolist()):
        vi = swap.get(i, i)
        vj = swap.get(j, j)
        out.append(vj)
        swap[j] = vi
        swap[i] = vj
    return np.array(out, dtype=np.int64)


@dataclass
class FaultList:
    descriptors: list[FaultDescriptor]
    universe: FaultUniverse
    spec: SamplingSpec
    n: int
    polarity: str = "random"
    spike_mode: str = "bit"


def generate_fault_list(
    net: Network,
    spec: SamplingSpec,
    points: set[ParameterKind],
    polarity: str = "random",
    spike_mode: str = "bit",
) -> FaultList:
    """Draw a reproducible fault list.

    polarity: "random" draws stuck-at polarity per fault, "0"/"1" fix it, and
    "both" emits two descriptors (stuck-at-0 and stuck-at-1) per sampled
    location/bit. spike_mode "value" turns sampled spike faults into
    value-stuck faults (dead/saturated neurons) instead of bit faults.
    exhaustive specs enumerate every (location, bit) exactly once, ascending.
    """
    if polarity not in POLARITIES:
        raise ValueError(f"polarity must be one of {POLARITIES}, got {polarity!r}")
    if spike_mode not in SPIKE_MODES:
        raise ValueError(f"spike_mode must be one of {SPIKE_MODES}, got {spike_mode!r}")
    universe = enumerate_universe(net, points)
    rng = np.random.default_rng(spec.seed)

    if spec.exhaustive:
        indices = np.arange(universe.N, dtype=np.int64)
    elif spec.scope == "layer":
        indices = np.concatenate([
            base + _draw_distinct(rng, size, sample_size(size, spec))
            for _layer, base, size in universe.layer_spans()
        ])
    else:
        indices = _draw_distinct(rng, universe.N, sample_size(universe.N, spec))

    which, coords, bits = universe.locate_all(indices)
    if polarity == "both":  # stuck-at-0, then stuck-at-1, per location/bit
        which, coords, bits = ([x for x in xs for _ in (0, 1)] for xs in (which, coords, bits))
        stucks = [0, 1] * len(indices)
    elif polarity == "random":
        stucks = rng.integers(0, 2, size=len(indices)).tolist()
    else:
        stucks = [int(polarity)] * len(indices)
    entries = universe.entries
    modes = [
        FaultMode.VALUE_STUCK if spike_mode == "value" and e.parameter is ParameterKind.SPIKE
        else FaultMode.BIT_STUCK
        for e in entries
    ]
    descriptors = [
        FaultDescriptor(fid, entries[w].layer, entries[w].parameter, c, b, s, modes[w])
        for fid, (w, c, b, s) in enumerate(zip(which, coords, bits, stucks))
    ]

    return FaultList(
        descriptors=descriptors,
        universe=universe,
        spec=spec,
        n=len(descriptors),
        polarity=polarity,
        spike_mode=spike_mode,
    )


_HEADER_COLUMNS = "fault_id,layer,parameter,coords,bit,stuck,mode"
_META_RE = re.compile(
    rf"^# seed=({INT}) e=({FLOAT}) t=({FLOAT}) p=({FLOAT}) N=({INT}) n=({INT}) scope=(\S+) rng=(\S+)$"
)
_OPTS_RE = re.compile(r"^# polarity=(\S+) spike_mode=(\S+) exhaustive=([01])$")
_KINDS = "|".join(k.value for k in ParameterKind)
# The enum members by value, looked up once per row instead of called.
_KIND_BY_NAME = {k.value: k for k in ParameterKind}
_MODE_BY_NAME = {m.value: m for m in FaultMode}
# ... and back: a dict lookup is a fifth of an enum's .value property.
_NAME_OF = {m: name for name, m in (*_KIND_BY_NAME.items(), *_MODE_BY_NAME.items())}
_UNIVERSE_RE = re.compile(rf"^# universe (\S+) ({_KINDS}) ({INT}(?:x{INT})*)$")
_FAULT_ROW = re.compile(
    rf"({INT}),([^,]*),({_KINDS}),({INT}(?:;{INT})*),({INT}),({INT}),"
    rf"({'|'.join(m.value for m in FaultMode)})"
)


def _entry_text(e: UniverseEntry | None) -> str:
    """A universe entry as its ``# universe`` comment spells it."""
    return "(none)" if e is None else f"{e.layer} {e.parameter.value} {'x'.join(map(str, e.shape))}"


def write_fault_list(fl: FaultList, path) -> None:
    lines = [
        f"# seed={fl.spec.seed} e={fl.spec.error_margin!r} t={fl.spec.quantile!r}"
        f" p={fl.spec.p!r} N={fl.universe.N} n={fl.n} scope={fl.spec.scope} rng={RNG_ID}",
        f"# polarity={fl.polarity} spike_mode={fl.spike_mode}"
        f" exhaustive={int(fl.spec.exhaustive)}",
    ]
    lines += [f"# universe {_entry_text(e)}" for e in fl.universe.entries]
    lines.append(_HEADER_COLUMNS)
    name = _NAME_OF
    # faults share elements: spell each distinct coords tuple once
    spelled = {c: ";".join(map(str, c)) for c in {d.coords for d in fl.descriptors}}
    lines += [
        f"{fid},{layer},{name[parameter]},{spelled[coords]},{bit},{stuck},{name[mode]}"
        for fid, layer, parameter, coords, bit, stuck, mode in fl.descriptors
    ]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_fault_list(path, net: Network | None = None) -> FaultList:
    """Parse a fault-list CSV; with a network, also verify it was drawn from it.

    Malformed content raises a format error carrying the 1-based line number;
    a declared universe that is not the network's raises a compatibility
    error naming the first entry that differs; descriptors the network cannot
    address raise an address error naming the fault_id. Then a row whose
    (layer, parameter) no ``# universe`` comment declares, with or without a
    network, raises a format error with its line.
    """
    lines = read_lines(path, "fault list")
    meta = None
    polarity, spike_mode, exhaustive = "random", "bit", False
    entries: list[UniverseEntry] = []
    row_start = None
    for lineno, line in enumerate(lines, start=1):
        if not line.startswith("#"):
            if line != _HEADER_COLUMNS:
                raise FormatError(f"expected header '{_HEADER_COLUMNS}'", line=lineno)
            row_start = lineno + 1
            break
        if meta is None:
            m = _META_RE.match(line)
            if not m:
                raise FormatError(f"bad metadata comment {line!r}", line=lineno)
            meta = m.groups()
            continue
        m = _OPTS_RE.match(line)
        if m:
            polarity, spike_mode, exhaustive = m.group(1), m.group(2), m.group(3) == "1"
            if polarity not in POLARITIES or spike_mode not in SPIKE_MODES:
                raise FormatError("bad polarity/spike_mode", line=lineno)
            continue
        m = _UNIVERSE_RE.match(line)
        if m:
            layer, pname, dims = m.groups()
            shape = tuple(int(d) for d in dims.split("x"))
            if any(d < 1 for d in shape):
                raise FormatError(f"bad universe shape {dims}", line=lineno)
            entries.append(UniverseEntry(layer, ParameterKind(pname), shape))
            continue
        raise FormatError("unrecognized comment line", line=lineno)
    if meta is None or row_start is None:
        raise FormatError("missing metadata or column header")
    if not entries:
        raise FormatError("missing universe declaration comments")

    seed_s, e_s, t_s, p_s, n_univ_s, n_s, scope, _rng = meta
    try:
        spec = SamplingSpec(
            error_margin=float(e_s),
            quantile=float(t_s),
            p=float(p_s),
            seed=int(seed_s),
            scope=scope,
            exhaustive=exhaustive,
        )
    except ValueError as exc:
        raise FormatError(f"bad sampling metadata: {exc}") from None
    universe = FaultUniverse(entries)
    if universe.N != int(n_univ_s):
        raise FormatError(
            f"declared universe size {n_univ_s} != {universe.N} from universe comments"
        )

    descriptors: list[FaultDescriptor] = []
    seen_ids: set[int] = set()
    shared: dict[str, tuple[int, ...]] = {}  # one coords tuple per spelling
    for lineno, line in enumerate(lines[row_start - 1 :], start=row_start):
        m = _FAULT_ROW.fullmatch(line)
        if m is None:
            raise FormatError("malformed fault row", line=lineno)
        fid_s, layer, pname, coords_s, bit_s, stuck_s, mode_s = m.groups()
        fid = int(fid_s)
        if fid > UINT64_MAX:
            raise FormatError(f"fault_id {fid_s} is above 2**64 - 1", line=lineno)
        if fid in seen_ids:
            raise FormatError(f"duplicate fault_id {fid}", line=lineno)
        seen_ids.add(fid)
        coords = shared.get(coords_s)
        if coords is None:
            coords = shared[coords_s] = tuple(map(int, coords_s.split(";")))
        try:
            d = FaultDescriptor(fid, layer, _KIND_BY_NAME[pname], coords, int(bit_s),
                                int(stuck_s), _MODE_BY_NAME[mode_s])
        except SnnFaultError as exc:  # descriptor invariants (bit range, mode legality)
            raise FormatError(str(exc), line=lineno) from None
        descriptors.append(d)

    if len(descriptors) != int(n_s):
        raise FormatError(f"header says n={n_s} but file has {len(descriptors)} rows")

    if net is not None:
        # entry by entry, or a report's percentages would be over another universe
        own = enumerate_universe(net, {e.parameter for e in entries}).entries
        for declared, actual in zip_longest(entries, own):
            if declared != actual:
                raise CompatibilityError(f"fault list's universe {_entry_text(declared)} is not"
                                         f" the model's {_entry_text(actual)}")
        check_addresses(net, descriptors)
    declared = {(e.layer, e.parameter) for e in entries}
    for at, d in enumerate(descriptors):
        if (d.layer, d.parameter) not in declared:  # no report group would hold it
            raise FormatError(f"fault {d.fault_id}: {d.layer} {d.parameter.value} is not in the"
                              " list's universe", line=row_start + at)

    return FaultList(
        descriptors=descriptors,
        universe=universe,
        spec=spec,
        n=len(descriptors),
        polarity=polarity,
        spike_mode=spike_mode,
    )
