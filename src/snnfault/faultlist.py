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
fault with `;`-separated coords. UTF-8; an LF, CRLF or lone CR ends a
line. A (layer, parameter) is declared once.

A FaultList holds its faults as a ``faults.FaultTable``, one array per
field, whose site codes index ``universe.entries``: generate_fault_list
builds its columns from locate_all's arrays, and write_fault_list spells
each distinct (site, coords) once. read_fault_list parses the comments a
line at a time, then reads the rows through dataio's bulk row reader, a
block of whole lines at a time: split_rows cuts each row into its seven
fields, its ``layer,parameter`` bytes are compared with the declared
entries' spellings to give its site code, coords are split at ``;``, and
dataio.uint64s decodes the integers, leading zeros and 20-digit ids
through 2**64 - 1 included. A block holding anything else, or ids that
repeat, hands the rows to the per-line walk, which raises the first bad
line's error, so the errors, their texts, lines and order are the walk's.
"""

from __future__ import annotations

import io
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .core import PARAMETERIZED, LayerKind, Network
from .dataio import FLOAT, INT, UINT64_MAX, line_blocks, split_rows, text_lines, uint64s, write_atomic
from .errors import AddressError, CompatibilityError, FormatError, SnnFaultError
from .faults import FaultDescriptor, FaultMode, FaultTable, ParameterKind, Site, check_addresses

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
        return math.prod(self.shape)

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
        entry = self.entries[which]
        return entry, tuple(coords[: len(entry.shape)].tolist()), int(bit)

    def locate_all(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """locate() for an int64 array of in-range universe indices, in one
        pass: each index's position in ``entries``, its element coords as
        uint64 [n, R] (R the largest rank, zeros past the entry's) and bit."""
        bases = np.array(self._bases, dtype=np.int64)
        which = np.searchsorted(bases, indices, side="right") - 1
        elems, bits = np.divmod(indices - bases[which], BITS_PER_ELEMENT)
        coords = np.zeros((len(indices), max(len(e.shape) for e in self.entries)), np.uint64)
        for i, entry in enumerate(self.entries):
            at = np.flatnonzero(which == i)
            coords[at, : len(entry.shape)] = np.column_stack(np.unravel_index(elems[at], entry.shape))
        return which, coords, bits

    def sites(self) -> tuple[Site, ...]:
        """Each entry's (layer, parameter): a FaultTable's site codes index it."""
        return tuple((e.layer, e.parameter) for e in self.entries)

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


@dataclass(init=False)
class FaultList:
    """A fault list: its faults as a FaultTable whose site codes index
    ``universe.entries`` first, and the header it is written with."""

    faults: FaultTable
    universe: FaultUniverse
    spec: SamplingSpec
    n: int
    polarity: str
    spike_mode: str

    def __init__(self, descriptors: Sequence[FaultDescriptor], universe: FaultUniverse,
                 spec: SamplingSpec, n: int, polarity: str = "random", spike_mode: str = "bit"):
        sites = universe.sites()
        if isinstance(descriptors, FaultTable) and descriptors.sites[: len(sites)] == sites:
            self.faults = descriptors
        else:
            self.faults = FaultTable.from_rows(descriptors, sites)
        self.universe, self.spec, self.n = universe, spec, n
        self.polarity, self.spike_mode = polarity, spike_mode

    @property
    def descriptors(self) -> FaultTable:
        """The faults as a read-only sequence of FaultDescriptor rows."""
        return self.faults


def generate_fault_list(
    net: Network,
    spec: SamplingSpec,
    points: set[ParameterKind],
    polarity: str = "random",
    spike_mode: str = "bit",
) -> FaultList:
    """Draw a reproducible fault list.

    polarity: "random" draws stuck-at polarity per fault, "0"/"1" fix it, and
    "both" emits two faults (stuck-at-0 and stuck-at-1) per sampled
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
        which, coords, bits = (np.repeat(column, 2, axis=0) for column in (which, coords, bits))
        stucks = np.tile(np.array([0, 1], np.uint8), len(indices))
    elif polarity == "random":
        stucks = rng.integers(0, 2, size=len(indices))
    else:
        stucks = np.full(len(indices), int(polarity))
    entries = universe.entries
    ranks = np.array([len(e.shape) for e in entries], np.intp)
    value = np.array([spike_mode == "value" and e.parameter is ParameterKind.SPIKE
                      for e in entries])
    faults = FaultTable(universe.sites(), np.arange(len(which), dtype=np.uint64), which, coords,
                        ranks[which], bits.astype(np.uint8), stucks.astype(np.uint8), value[which])
    return FaultList(faults, universe, spec, len(faults), polarity, spike_mode)


_HEADER_COLUMNS = "fault_id,layer,parameter,coords,bit,stuck,mode"
_META_RE = re.compile(
    rf"^# seed=({INT}) e=({FLOAT}) t=({FLOAT}) p=({FLOAT}) N=({INT}) n=({INT}) scope=(\S+) rng=(\S+)$"
)
_OPTS_RE = re.compile(r"^# polarity=(\S+) spike_mode=(\S+) exhaustive=([01])$")
_KINDS = "|".join(k.value for k in ParameterKind)
# The enum members by value, looked up once per row instead of called.
_KIND_BY_NAME = {k.value: k for k in ParameterKind}
_MODE_BY_NAME = {m.value: m for m in FaultMode}
_MODE_NAMES = ("bit", "value")  # by FaultTable.value
_UNIVERSE_RE = re.compile(rf"^# universe (\S+) ({_KINDS}) ({INT}(?:x{INT})*)$")
_FAULT_ROW = re.compile(
    rf"({INT}),([^,]*),({_KINDS}),({INT}(?:;{INT})*),({INT}),({INT}),"
    rf"({'|'.join(m.value for m in FaultMode)})"
)


def _entry_text(e: UniverseEntry | None) -> str:
    """A universe entry as its ``# universe`` comment spells it."""
    return "(none)" if e is None else f"{e.layer} {e.parameter.value} {'x'.join(map(str, e.shape))}"


def write_fault_list(fl: FaultList, path) -> None:
    faults = fl.faults
    lines = [
        f"# seed={fl.spec.seed} e={fl.spec.error_margin!r} t={fl.spec.quantile!r}"
        f" p={fl.spec.p!r} N={fl.universe.N} n={fl.n} scope={fl.spec.scope} rng={RNG_ID}",
        f"# polarity={fl.polarity} spike_mode={fl.spike_mode}"
        f" exhaustive={int(fl.spec.exhaustive)}",
    ]
    lines += [f"# universe {_entry_text(e)}" for e in fl.universe.entries]
    lines.append(_HEADER_COLUMNS)
    # faults share elements: spell each distinct (site, coords) once, and
    # each (bit, stuck, mode) once
    keys = np.column_stack([faults.site, faults.rank, faults.coords]).astype(np.uint64)
    width = keys.shape[1]
    distinct, spelling = np.unique(keys.view(np.dtype((np.void, 8 * width))).ravel(),
                                   return_inverse=True)  # a row a key: one sort, not R
    sites = [f"{layer},{parameter.value}" for layer, parameter in faults.sites]
    spelled = [f"{sites[site]},{';'.join(map(str, coords[:rank]))}"
               for site, rank, *coords in distinct.view(np.uint64).reshape(-1, width).tolist()]
    tails = [f"{bit},{stuck},{mode}" for bit in range(32) for stuck in (0, 1) for mode in _MODE_NAMES]
    tail = (faults.bit.astype(np.intp) << 2) | (faults.stuck << 1) | faults.value
    lines += map("{},{},{}".format, faults.fault_id.tolist(),
                 map(spelled.__getitem__, spelling.ravel().tolist()),
                 map(tails.__getitem__, tail.tolist()))
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_fault_list(path, net: Network | None = None) -> FaultList:
    """Parse a fault-list CSV; with a network, also verify it was drawn from it.

    Malformed content raises a format error carrying the 1-based line number;
    a declared universe that is not the network's raises a compatibility
    error naming the first entry that differs; faults the network cannot
    address raise an address error naming the fault_id. Then a row whose
    (layer, parameter) no ``# universe`` comment declares, with or without a
    network, raises a format error with its line.

    The rows are read a block at a time by ``_read_rows``; the per-line
    walk ``_walk_rows`` reads them instead when a block is refused, so the
    errors and their order do not depend on blocks (see the module doc).
    """
    data = Path(path).read_bytes()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"fault list is not UTF-8: {exc}") from None
    data = text_lines(data)
    meta = None
    polarity, spike_mode, exhaustive = "random", "bit", False
    entries: list[UniverseEntry] = []
    row_start = None
    pos = lineno = 0
    while pos < len(data):
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        line, lineno, pos = data[pos:end].decode("utf-8"), lineno + 1, end + 1
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
            if any((e.layer, e.parameter.value) == (layer, pname) for e in entries):
                raise FormatError(f"universe {layer} {pname} is declared twice", line=lineno)
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

    faults = _read_rows(data, pos, universe)
    if faults is None:
        faults = _walk_rows(data[pos:], row_start, universe.sites())
    if len(faults) != int(n_s):
        raise FormatError(f"header says n={n_s} but file has {len(faults)} rows")

    if net is not None:
        # entry by entry, or a report's percentages would be over another universe
        own = enumerate_universe(net, {e.parameter for e in entries}).entries
        for declared, actual in zip_longest(entries, own):
            if declared != actual:
                raise CompatibilityError(f"fault list's universe {_entry_text(declared)} is not"
                                         f" the model's {_entry_text(actual)}")
        check_addresses(net, faults)
    outside = faults.site >= len(entries)
    if outside.any():  # no report group would hold it
        at = int(outside.argmax())
        d = faults[at]
        raise FormatError(f"fault {d.fault_id}: {d.layer} {d.parameter.value} is not in the"
                          " list's universe", line=row_start + at)
    return FaultList(faults, universe, spec, len(faults), polarity, spike_mode)


def _read_rows(data: bytes, pos: int, universe: FaultUniverse) -> FaultTable | None:
    """The fault rows of ``data[pos:]`` as a table, read by dataio.line_blocks,
    or None if a block holds a row that the walk would refuse or read as
    another site, or a fault_id repeats."""
    entries = universe.entries
    spellings = _spellings([f"{e.layer},{e.parameter.value}".encode() for e in entries])
    value_ok = np.array([e.parameter is ParameterKind.SPIKE for e in entries])
    rank = max(len(e.shape) for e in entries)
    rows = io.BytesIO(data)
    rows.seek(pos)
    blocks = []
    for block in line_blocks(rows):
        columns = _block_columns(block, spellings, value_ok, rank)
        if columns is None:
            return None
        blocks.append(columns)
    if not blocks:
        return FaultTable.from_rows((), universe.sites())
    columns = blocks[0]
    if len(blocks) > 1:
        width = max(block[2].shape[1] for block in blocks)  # past ``rank`` only without a network
        columns = [np.concatenate(parts) for parts in zip(*(
            (*block[:2], np.pad(block[2], ((0, 0), (0, width - block[2].shape[1]))), *block[3:])
            for block in blocks))]
    ids = np.sort(columns[0])
    if (ids[1:] == ids[:-1]).any():
        return None
    return FaultTable(universe.sites(), *columns)


_SEMICOLON = ord(";")


def _spellings(texts: list[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``texts`` as _codes compares them, each [width, k, 1]: the texts down
    columns, and where each has ended; and their lengths, [k, 1]."""
    width = max(map(len, texts))
    padded = np.frombuffer(b"".join(t.ljust(width) for t in texts), np.uint8)
    lengths = np.array([len(t) for t in texts])[:, None]
    ended = np.arange(width) >= lengths
    return padded.reshape(len(texts), width).T[:, :, None], ended.T[:, :, None], lengths


def _codes(p: np.ndarray, lo: np.ndarray, hi: np.ndarray, spellings) -> np.ndarray:
    """Each field ``p[lo:hi]``'s index in the texts of ``spellings``, -1 if none."""
    texts, ended, lengths = spellings
    # each field's first bytes, down a column; past the block's end the last byte
    heads = p[np.minimum(lo + np.arange(len(texts))[:, None], len(p) - 1)]
    match = ((heads[:, None] == texts) | ended).all(axis=0) & (hi - lo == lengths)
    return np.where(match.any(axis=0), match.argmax(axis=0), -1)


def _block_columns(block: bytes, spellings, value_ok: np.ndarray, rank: int) -> tuple | None:
    """A block of whole fault rows as FaultTable's columns from fault_id on,
    coords at least ``rank`` wide, or None if a row is not one the walk
    reads into a FaultDescriptor whose (layer, parameter) spelling is in
    ``spellings``. Its last row may lack its LF only where the file ends."""
    split = split_rows(block, 6)
    if split is None:
        return None
    p, start, nl, comma = split
    rows = len(nl)
    site = _codes(p, comma[0] + 1, comma[2], spellings)
    value = _codes(p, comma[5] + 1, nl, _MODE_SPELLINGS)
    if (np.minimum(site, value) < 0).any() or (value > value_ok[site]).any():
        return None
    semi = (p == _SEMICOLON).nonzero()[0]
    line = np.searchsorted(nl, semi)  # the line each ';' is on: it must split its coords
    if ((semi <= comma[2, line]) | (semi >= comma[3, line])).any():
        return None
    ranks = 1 + np.bincount(line, minlength=rows)
    # the integer fields: fault_id, bit and stuck of every row, then the coords in row order
    lo = np.concatenate([start, comma[3] + 1, comma[4] + 1,
                         np.sort(np.concatenate([comma[2] + 1, semi + 1]))])
    hi = np.concatenate([comma[0], comma[4], comma[5], np.sort(np.concatenate([semi, comma[3]]))])
    ints = uint64s(p, lo, hi)
    if ints is None:
        return None
    fault_id, bit, stuck = ints[:rows], ints[rows : 2 * rows], ints[2 * rows : 3 * rows]
    if ((bit > 31) | (stuck > 1)).any():
        return None
    owner = np.repeat(np.arange(rows), ranks)
    coords = np.zeros((rows, max(rank, int(ranks.max()))), np.uint64)
    coords[owner, np.arange(len(owner)) - (np.cumsum(ranks) - ranks)[owner]] = ints[3 * rows :]
    return fault_id, site, coords, ranks, bit.astype(np.uint8), stuck.astype(np.uint8), value == 1


_MODE_SPELLINGS = _spellings([name.encode() for name in _MODE_NAMES])


def _walk_rows(body: bytes, row_start: int, sites: tuple[Site, ...]) -> FaultTable:
    """The rows read a line at a time: the first bad line's FormatError, or
    the table, whose sites gain any (layer, parameter) the rows add."""
    lines = body.decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    descriptors: list[FaultDescriptor] = []
    seen_ids: set[int] = set()
    shared: dict[str, tuple[int, ...]] = {}  # one coords tuple per spelling
    for lineno, line in enumerate(lines, start=row_start):
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
        if max(coords) > UINT64_MAX:
            raise FormatError(f"coords {coords_s} hold a value above 2**64 - 1", line=lineno)
        try:
            d = FaultDescriptor(fid, layer, _KIND_BY_NAME[pname], coords, int(bit_s),
                                int(stuck_s), _MODE_BY_NAME[mode_s])
        except SnnFaultError as exc:  # descriptor invariants (bit range, mode legality)
            raise FormatError(str(exc), line=lineno) from None
        descriptors.append(d)
    return FaultTable.from_rows(descriptors, sites)
