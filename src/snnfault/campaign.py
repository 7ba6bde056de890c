"""Campaign orchestration: golden reference, faulty runs, checkpointed merge.

The golden run is one batched forward over the first K dataset inputs that
also records a golden trace: every LIF layer's spike train [K, T, *shape] as
bool (golden spikes are exactly 0.0 or 1.0), and, as float32, the output of
every other layer that feeds a weighted layer (an FC after a pool, say).
Faults then run in batches, and a fault's outcome never depends on which
faults share its batch. A static fault whose bit already holds its stuck
value changes nothing and keeps every golden prediction. A fault on a LIF
layer L or on the weighted layer feeding L is screened: the cone of L's
neurons its row, channel or neuron reaches is recomputed through those two
layers alone, for all K inputs and T steps, from golden inputs, through the
same kernels with the same chains. The faults of a batch that share L and a
cone form are screened together, stacked on a fault axis: one kernel call
computes their currents, and one LIF scan advances them, each with its own
parameters and state pins (parallel fault simulation, with the fault-free work
shared as in concurrent fault simulation). An input whose cone spikes match
the golden trace bit for bit (compared as binary32 patterns, so a -0.0 spike
counts as different) sees golden values in every later layer, so it keeps its
golden prediction exactly. A fault that reaches L only through further
layers is never screened, and all its inputs differ. The differing (fault,
input) pairs of a block are replayed together, each pair one row of a
stacked forward (``core.Rows``, which takes every fault's values once and a
fault index per row) that runs on the network's own parameters, never on a
copy or an injected one, by one of two routes: from the layer after L, on
L's golden spikes with the pair's screened cone written in, or, when that
layer is an average pool that feeds a weighted layer, from the weighted
layer, on the pool's golden output with the cone pooled in (each pooled
cell from its own window, golden spikes around the cone's); or, when L is fed
back through a recurrent layer or the fault lies beyond the feed, restarting
from the fed or faulted layer on its golden input, each row recomputing its
fault's row or channel of that layer, and L's beta, threshold and state pins
as the screen built them. A block's differing pairs run as one forward, of
at most F x K rows, F capped so that a step of it holds at most
``SCREEN_BLOCK_VALUES`` values (or one fault's). Rows are
independent and keep their chains, so each (fault, input) outcome is a pure
function of (model, descriptor, input), with the bits of a full forward of
an injected copy, whichever pairs share its forward. Results go into the
``outcomes.partial.csv`` log, their only record, a batch at a time; once a
batch's rows are fsynced, ``checkpoint.txt`` acknowledges the log's byte
length, bound to the sha256 of the model, dataset and fault list and to K.
Resume refuses changed inputs (a binding value of another type counts as
changed), cuts the log back to that length (a torn or unacknowledged tail is
re-run, never appended to) and parses it strictly. ``outcomes.csv`` holds
the log's rows sorted by (fault_id, input_id), kept in memory as they are
recorded or as resume read them, so its bytes are identical for any worker
count or interruption history. It, ``golden.csv``, ``campaign.json`` and the
checkpoint are each written by ``dataio.write_atomic`` (a temporary file,
fsynced and renamed into place), so a kill never leaves a truncated one. The
state checks and the log's cut come before the golden run, so a refused run
writes nothing; a run whose checks pass first deletes the temporary files a
killed writer left of those four.
Faults run in contiguous batches of at most ``checkpoint_every`` faults
(1000 by default). A batch's addresses are checked and
its no-ops dropped with one array operation per (layer, parameter), whose
screen site is planned once; each block's cone index is built once. A batch
returns its rows, which go to the log in one write, and its counts per site,
already summed. The rows are held in memory until the batch is recorded, so
a kill loses at most the batches in flight: at the default, serially on a
2-CPU x86-64 host, about 0.33 s of work per batch on the benchmark's conv
net, 0.06 s on its FC net and 0.017 s on its recurrent one. A pool of
workers starts only when it pays. The serial fault phase is estimated as
``FAULT_FORWARD_SHARE`` times the run's own golden forward seconds per
pending fault, and n workers (no more than the usable CPUs or the batches)
start only when the estimate times (1 - 1/n) exceeds ``POOL_COST_SECONDS``;
each worker's batches then hold at most an even share of the pending faults.
Otherwise the run stays in this process and cuts the batches that
``workers=1`` cuts. The decision is timed on the run's own golden forward,
so two runs of one campaign whose estimate lies near the threshold can
decide apart: ``campaign.json``'s ``workers_started``, ``batch_faults``,
``faults_per_worker`` and ``replay_forwards`` then differ between them,
while ``outcomes.csv`` and the fault and pair counts never do. A worker
that dies ends the run with ``WorkerError``; every batch recorded before it
is acknowledged, so ``--resume`` picks up from there.

Outcome CSV: ``fault_id,input_id,golden_class,faulty_class,golden_top_score,
faulty_top_score`` with scores as ``hex:decimal`` cells (raw binary32 pattern,
authoritative, plus a human-readable rendering). The golden cells are
rendered once per input, and only a replayed input's faulty score per row.
Golden CSV: one row per input with top class, top score, and the full score
vector as ``;``-joined hex patterns. Each row format is one compiled pattern
below, written in dataio's sub-patterns; the readers take their fields from
its match. ``read_outcomes`` returns an ``Outcomes`` table: ids and classes
as uint64 columns (an integer above ``UINT64_MAX`` is a format error) and
the top scores as uint32 bit patterns. It reads ``OUTCOME_BLOCK_ROWS`` rows
at a time, each block checked by one match of the whole block and split
into columns by one ``findall``, so it holds the columns and one block,
never an object per row. A block that fails is handed to the row-at-a-time
walk over the whole file, which names the first bad line.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import sys
import time
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import islice
from operator import is_not
from pathlib import Path
from typing import NoReturn

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The screen calls the kernels as core.<name>, looked up at call time, so a
# wrapper installed on the core module (bench/tracing.py) sees them too.
from . import core
from .core import (
    DTYPE,
    WEIGHTED,
    LayerKind,
    LayerSpec,
    LifState,
    Network,
    network_forward,
    reset_state,
)
from .dataio import (
    HEX,
    INT,
    SCORE,
    UINT64_MAX,
    SpikeDataset,
    f32_to_hex,
    file_sha256,
    load_dataset,
    load_model,
    parse_score,
    read_lines,
    render_score,
    temporary_of,
    write_atomic,
)
from .errors import FormatError, ResumeError, WorkerError
from .faults import FaultDescriptor, ParameterKind, check_addresses, fault_masks, pin_bits, pin_hook
# Not called here; bench/tracing.py patches all three by name (ROADMAP item 7).
from .faults import inject_static, make_refresh_hook, target_tensor  # noqa: F401
from .faultlist import read_fault_list

OUTCOME_HEADER = "fault_id,input_id,golden_class,faulty_class,golden_top_score,faulty_top_score"
GOLDEN_HEADER = "input_id,top_class,top_score,scores"
# The files of a campaign directory that write_atomic writes.
_ATOMIC_OUTPUTS = ("golden.csv", "checkpoint.txt", "outcomes.csv", "campaign.json")
# campaign.json's counts per layer.parameter site
_SITE_COUNTS = ("faults", "noop_faults", "screened_pairs", "replayed_pairs")
_OUTCOME_ROW = re.compile(rf"({INT}),({INT}),({INT}),({INT}),({SCORE}),({SCORE})")
# read_outcomes' block: whole rows, each with its LF, and the cells findall
# takes from it, the four integers and the hex halves of the two scores.
_OUTCOME_BLOCK = re.compile(rf"(?:{INT},{INT},{INT},{INT},{SCORE},{SCORE}\n)*")
_OUTCOME_CELLS = re.compile(rf"({INT}),({INT}),({INT}),({INT}),({HEX}):[^,\n]*,({HEX}):[^,\n]*\n")
# Rows read_outcomes reads, checks and converts at once: about 150 KiB of a
# benchmark outcomes.csv, and 2.4 MiB at most while findall's cells live.
OUTCOME_BLOCK_ROWS = 1 << 12
_GOLDEN_ROW = re.compile(rf"({INT}),({INT}),({SCORE}),({HEX}(?:;{HEX})*)")
# A screened group holds its current, its spikes and the golden spikes as
# [K, T, F, *cone] arrays, and single neurons of a conv-fed L their input
# windows as [K, T, F, ic, k, k]; a step of its replay, one forward of F x K
# rows at most, holds F x K times its widest layer's values. F, the faults of a
# block (screened or beyond the feed), is capped so that each holds at most
# this many values (512 KiB as binary32), or one fault's. One budget with
# core.FORWARD_BLOCK_VALUES cost the conv net speed at 2^15 or memory at 2^17.
SCREEN_BLOCK_VALUES = 1 << 17
# A serial fault phase takes about this share of one golden forward (run_golden
# over the same K inputs, timed on the same host) per fault: 0.009-0.035 over
# the benchmark's three nets, on their seed-0 first chunks (30-400 faults) and
# full lists (1,027-13,685 faults), serially on a 2-CPU x86-64 host.
FAULT_FORWARD_SHARE = 0.02
# What a pool adds to a fault phase beyond its share of the work: start-up
# and shutdown (6-12 ms bare for 2 forked workers), and each worker paying a
# batch's per-site and per-block costs again. On those first chunks a 2-worker
# fault phase took 13-21 ms more than half the serial one, same host.
POOL_COST_SECONDS = 0.015


@dataclass
class CampaignConfig:
    model: Path
    dataset: Path
    fault_list: Path
    out_dir: Path
    subset: int | None = None  # first K inputs; None = whole dataset
    workers: int = 1
    # most faults per batch: run, recorded and acknowledged at once, so a kill
    # loses at most a batch per process (about 0.33 s of the conv net's work)
    checkpoint_every: int = 1000
    resume: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.checkpoint_every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {self.checkpoint_every}")


@dataclass
class Prediction:
    """One inference: the score vector and its top class and score."""

    input_id: int
    scores: np.ndarray
    top_class: int
    top_score: np.float32


@dataclass
class GoldenReference:
    entries: list[Prediction]
    # [K, T, *shape] per layer name, as run_golden records it: every LIF
    # layer's spikes, and the output of every other layer that feeds a
    # weighted layer. Empty when read back from golden.csv.
    trace: dict[str, np.ndarray] = field(default_factory=dict)

    def by_id(self) -> dict[int, Prediction]:
        return {e.input_id: e for e in self.entries}


@dataclass(frozen=True)
class OutcomeRow:
    """One parsed outcomes.csv row."""

    fault_id: int
    input_id: int
    golden_class: int
    faulty_class: int
    golden_top: np.float32
    faulty_top: np.float32


@dataclass(eq=False)
class Outcomes(Sequence[OutcomeRow]):
    """Outcome rows as columns: the ids and classes as uint64, the top scores
    as uint32 binary32 bit patterns. As a sequence it yields OutcomeRow, with
    int ids and classes and np.float32 scores."""

    fault_id: np.ndarray
    input_id: np.ndarray
    golden_class: np.ndarray
    faulty_class: np.ndarray
    golden_top: np.ndarray
    faulty_top: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[OutcomeRow]) -> Outcomes:
        """The columns of any OutcomeRow iterable, e.g. a filtered list."""
        cells = [(r.fault_id, r.input_id, r.golden_class, r.faulty_class, r.golden_top, r.faulty_top)
                 for r in rows]
        columns = list(zip(*cells)) or [()] * 6
        return cls(*(np.array(c, np.uint64) for c in columns[:4]),
                   *(np.array(c, np.float32).view(np.uint32) for c in columns[4:]))

    def __len__(self) -> int:
        return len(self.fault_id)

    def __getitem__(self, i: int) -> OutcomeRow:
        return OutcomeRow(int(self.fault_id[i]), int(self.input_id[i]), int(self.golden_class[i]),
                          int(self.faulty_class[i]), self.golden_top.view(np.float32)[i],
                          self.faulty_top.view(np.float32)[i])

    def __iter__(self) -> Iterator[OutcomeRow]:
        return map(OutcomeRow, self.fault_id.tolist(), self.input_id.tolist(),
                   self.golden_class.tolist(), self.faulty_class.tolist(),
                   self.golden_top.view(np.float32), self.faulty_top.view(np.float32))


@dataclass
class CampaignResult:
    status: str  # "complete" | "partial"
    processed: int  # faults executed by this invocation
    total: int
    wall_seconds: float
    out_dir: Path
    golden_path: Path
    outcomes_path: Path | None


def _top(scores: np.ndarray) -> tuple[int, np.float32]:
    # argmax returns the first maximal index: ties break to the lowest class.
    idx = int(np.argmax(scores))
    return idx, np.float32(scores[idx])


def _subset_count(dataset: SpikeDataset, subset: int | None) -> int:
    if subset is None:
        return dataset.num_samples
    if not 1 <= int(subset) <= dataset.num_samples:
        raise ValueError(
            f"subset must be in 1..{dataset.num_samples} (dataset size), got {subset}"
        )
    return int(subset)


def run_golden(net: Network, dataset: SpikeDataset, subset: int | None = None) -> GoldenReference:
    """Fault-free reference over the first `subset` inputs of a fresh network,
    with the golden trace the fault screen compares against."""
    k = _subset_count(dataset, subset)
    trace = {}
    for i, spec in enumerate(net.layers):
        feeds_weighted = i + 1 < len(net.layers) and net.layers[i + 1].kind in WEIGHTED
        if spec.kind is LayerKind.LIF or feeds_weighted:
            dtype = bool if spec.kind is LayerKind.LIF else DTYPE  # golden spikes are 0.0 or 1.0
            trace[spec.name] = np.empty((k, net.timesteps, *net.shapes[spec.name]), dtype)
    reset_state(net)
    scores = network_forward(net, dataset.spikes[:k], record=trace)
    return GoldenReference([Prediction(i, row, *_top(row)) for i, row in enumerate(scores)], trace)


def _golden_input(net: Network, dataset: SpikeDataset, golden: GoldenReference, w: int):
    """Layer w's golden input, [K, T, *shape]: the dataset's spikes or a trace."""
    if w == 0:
        return dataset.spikes[: len(golden.entries)]
    return golden.trace[net.layers[w - 1].name]


def _screen_site(net: Network, layer: str, parameter: ParameterKind) -> tuple[int, int, int]:
    """(w, lif_at, cone) of the faults on ``layer``'s ``parameter``: the first
    layer whose output they change, the LIF layer L after it (screened only
    when w feeds L), and how many leading coords of a fault pick its cone,
    the block of L's neurons it reaches directly (trailing axes whole)."""
    i = [spec.name for spec in net.layers].index(layer)
    spec = net.layers[i]
    if spec.kind is not LayerKind.LIF:
        lif_at = i + 1 + [s.kind for s in net.layers[i + 1 :]].index(LayerKind.LIF)
        return i, lif_at, 1  # a row or channel
    if parameter.is_static and spec.params[parameter.value].shape == (1,):
        return i - 1, i, 0  # all of L
    return i - 1, i, len(net.shapes[layer])  # one neuron


@dataclass
class _Screened:
    """A block of F faults: what ``_screen`` builds to advance their cones,
    which their stacked replay reuses, and what it finds. A block beyond the
    feed is not screened: it holds only its rows or channels of the faulted
    layer, and every input differs."""

    cut: LayerSpec | None  # the feed's rows or channels under the cones, each fault's own
    columns: dict[str, np.ndarray]  # L's beta and threshold per fault, [F, *rest]; {} unscreened
    pins: dict[str, tuple[np.ndarray, np.ndarray]]  # state kind -> per-fault (keep, force)
    spikes: np.ndarray | None  # the cones' spikes, [K, T, F, *rest]; None unscreened
    differs: np.ndarray  # [K, F]: the input's cone spikes differ from golden in a bit


def _cut(spec: LayerSpec, faults: list[FaultDescriptor], touched: np.ndarray) -> LayerSpec:
    """Weighted layer ``spec``'s rows or channels ``touched``, one per fault,
    each with its fault's bit set in its own copy."""
    params = {key: value[touched] for key, value in spec.params.items()}
    for i, d in enumerate(faults):
        if d.layer == spec.name:
            pin_bits(params[d.parameter.value], (i, *d.coords[1:]), *fault_masks(d))
    return LayerSpec(spec.name, spec.kind, params, spec.hyper)


def _screen(net: Network, dataset: SpikeDataset, golden: GoldenReference, lif_at: int,
            index: tuple[np.ndarray, ...], faults: list[FaultDescriptor]) -> _Screened:
    """Screen F faults on L = ``net.layers[lif_at]`` or its feed, their cones
    at L's leading coords ``index`` (an array per axis; ``rest`` is L's shape
    past them): their cone spikes [K, T, F, *rest], and the mask [K, F] of the
    inputs whose cone spikes differ in any bit from the golden trace.

    Only the feed and L run. The current into the cones is computed for all
    K inputs, T steps and F faults at once from the feed's golden input,
    through the feed's rows or channels that the cones need, each fault's
    bit set in its own copy (the cut): on the whole input, or for single
    neurons of a conv-fed L on each one's input window, [K, T, F, ic, k, k],
    in one call with per-fault weights. For a ``(1,)`` beta or threshold
    fault it is all of L's golden current. Every output element keeps its
    own chain, so its bits are those of a full forward. A recurrent layer's
    feedback reads L's golden spikes of the previous step, which is exact
    until the cone first differs, and that is all the screen decides. L then
    advances step by step over [K, F, *rest] in ``core.lif_scan``, the scan
    network_forward runs, each fault with its own beta and threshold columns,
    [F, *rest] (L's elements at its cone, or for a ``(1,)`` fault a copy of
    all of L's, with its bit set), and its own state pins, applied by a
    ``faults.pin_hook``. A restart replay takes the columns and pins as built.
    """
    lif, feed = net.layers[lif_at], net.layers[lif_at - 1]
    k, f, steps = len(golden.entries), len(faults), net.timesteps
    shape = net.shapes[lif.name]
    rest = shape[len(index) :]
    x = _golden_input(net, dataset, golden, lif_at - 1)  # binary32 once cut to the cones
    prev = cut = None
    if feed.kind is LayerKind.RECURRENT:
        prev = np.zeros(golden.trace[lif.name].shape, DTYPE)
        prev[:, 1:] = golden.trace[lif.name][:, :-1]
    with np.errstate(all="ignore"):
        if not index:  # all of L: its golden current
            current = core.layer_forward(feed, x.astype(DTYPE, copy=False), 2, prev)
            current = np.broadcast_to(current[:, :, None], (k, steps, f, *rest))
        else:  # the feed's rows or channels, each fault's bit set in its own
            cut = _cut(feed, faults, index[0])
            if feed.kind is LayerKind.CONV2D and not rest:  # single neurons: their windows
                kernel = feed.hyper["kernel"]
                win = sliding_window_view(x, (kernel, kernel), axis=(-2, -1))
                # [K, T, F, ic, k, k]: the input window under each fault's neuron
                windows = np.moveaxis(win[:, :, :, index[1], index[2]], 3, 2).astype(DTYPE)
                own = {key: value[:, None] for key, value in cut.params.items()}  # [F, 1, ...]
                current = core.conv2d_forward(own["weight"], own.get("bias"), windows)
                current = current.reshape(k, steps, f)
            else:
                current = core.layer_forward(cut, x.astype(DTYPE, copy=False), 2, prev)
        columns = {  # [F, *rest]: the cones' elements, or a copy of all of L per fault
            key: np.broadcast_to(value, shape)[index] if index
            else np.broadcast_to(value, (f, *shape)).copy()
            for key, value in lif.params.items()
        }
        pins = {}  # state kind -> per-column (keep, force) masks
        for i, d in enumerate(faults):
            if d.layer != lif.name:
                continue
            if d.parameter.is_static:
                pin_bits(columns[d.parameter.value], i, *fault_masks(d))
            else:
                keep, force = pins.setdefault(
                    d.parameter.value,
                    (np.full(f, 0xFFFFFFFF, np.uint32), np.zeros(f, np.uint32)),
                )
                keep[i], force[i] = fault_masks(d)
        state = LifState(np.zeros((k, f, *rest), DTYPE), np.zeros((k, f, *rest), DTYPE))
        _, spikes = core.lif_scan(lif.name, state, current, columns["beta"], columns["threshold"],
                                  1, pin_hook(lif.name, ..., pins) if pins else None)
    trace = golden.trace[lif.name]
    want = trace[(slice(None), slice(None), *index)] if index else trace[:, :, None]
    differs = spikes.view(np.uint32) != want.astype(DTYPE).view(np.uint32)  # -0.0 differs
    differs = differs.reshape(k, steps, f, -1).any(axis=(1, 3))
    return _Screened(cut, columns, pins, spikes, differs)


def _pool_cone(pool: LayerSpec, trace: np.ndarray, index: tuple[np.ndarray, ...],
               values: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """A screened cone of L, ``(index, values)`` as ``core.Rows`` takes it,
    carried through the average pool after L (``trace`` is L's golden
    spikes): a single neuron's pooled cell, [K, T, F], from the p x p window
    of golden spikes with the neuron's own written in; a channel's or all of
    L's pooled planes. Both go through ``core.avgpool2d_forward``, so each
    pooled cell keeps its row-major window chain."""
    p = pool.hyper["pool"]
    if len(index) < 3:  # a channel or all of L: the cone's own planes
        return index, core.avgpool2d_forward(values, p)
    c, h, w = index
    taps = np.arange(p)
    window = trace[:, :, c[:, None, None], (h - h % p)[:, None, None] + taps[:, None],
                   (w - w % p)[:, None, None] + taps].astype(DTYPE)  # [K, T, F, p, p]
    window[:, :, np.arange(len(c)), h % p, w % p] = values
    return (c, h // p, w // p), core.avgpool2d_forward(window, p)[..., 0, 0]


def run_faulty(
    template: Network,
    faults: list[FaultDescriptor] | FaultDescriptor,
    dataset: SpikeDataset,
    golden: GoldenReference | None = None,
    tally: dict[str, int] | None = None,
):
    """Each fault of a batch on every input of ``golden`` (run_golden's result
    for this template and dataset; computed over the whole dataset when
    omitted): one Prediction list per fault, in the batch's order, or for a
    lone descriptor its list alone, as a batch of one. A fault's outcome does
    not depend on which faults share its batch.

    A static fault whose bit already holds its stuck value leaves the network
    bit-identical; its list is ``golden.entries`` itself, which the caller
    must not modify. The others run in blocks that share a site, planned once
    per (layer, parameter): the layer w they change first, their LIF layer L
    and their cone form. A site's blocks are its live faults in batch order,
    cut every F, and each block's cone index is built once. A block on L or
    its feed is screened (see ``_screen``); beyond the feed every input
    diverges. The diverging (fault, input) pairs of a block are replayed
    together, each pair one row of a single stacked forward on the template's
    own parameters, which is neither copied nor injected (its LIF state is
    reset around the forward). When w is a feed that is not recurrent, a row
    runs from the layer after L on L's golden spikes with its fault's screened
    cone written in; when that layer is an average pool that feeds a weighted
    layer, from the weighted layer on the pool's golden output with the cone
    pooled in (see ``_pool_cone``). Otherwise it restarts from w on w's golden
    input and recomputes only what its fault touches: a row or channel of w,
    and L's beta and threshold columns and state pins as the screen built
    them (``core.Rows.lif`` writes the columns into each row's copy of L's
    parameters; a ``faults.pin_hook`` pins each row's cone cell by its
    fault's masks). The other inputs keep their golden Prediction. ``tally``,
    when given, gains the number of stacked forwards, one per block with a
    diverging pair, under "replay_forwards", and the seconds spent screening
    and replaying under "screen_seconds" and "replay_seconds".
    """
    if golden is None:
        golden = run_golden(template.copy(), dataset)
    elif not golden.trace:
        raise ValueError("golden reference holds no trace; pass run_golden's, not read_golden's")
    if isinstance(faults, FaultDescriptor):
        return run_faulty(template, [faults], dataset, golden, tally)[0]
    k, outs = len(golden.entries), [golden.entries] * len(faults)
    sites: dict[tuple[int, int, int], list[np.ndarray]] = {}  # (w, L, cone) -> live positions
    for (layer, parameter), (at, coords) in check_addresses(template, faults).items():
        if parameter.is_static:  # one gather of the held bits drops the no-ops
            patterns = template.by_name[layer].params[parameter.value].view(np.uint32)
            bit, stuck = np.array([(faults[i].bit, faults[i].stuck) for i in at]).T
            at = at[(patterns[tuple(coords.T)] >> bit) & 1 != stuck]
        sites.setdefault(_screen_site(template, layer, parameter), []).append(at)
    forwards, screen_s, replay_s = 0, 0.0, 0.0
    for (w, lif_at, cone), groups in sites.items():
        live = sorted(np.concatenate(groups).tolist())  # batch order; np.sort: +0.3 MB worker RSS
        for pos in live:
            outs[pos] = list(golden.entries)  # a list of its own, though no input may diverge
        lif, feed = template.layers[lif_at], template.layers[lif_at - 1]
        past = w == lif_at - 1 and feed.kind is not LayerKind.RECURRENT  # replayed after L
        start = lif_at + 1 if past else w
        after = template.layers[start : start + 2] if past else ()  # a pool is never last
        pooled = bool(after) and after[0].kind is LayerKind.AVGPOOL2D and after[1].kind in WEIGHTED
        start += pooled
        rest = template.shapes[lif.name][cone:]
        if feed.kind is LayerKind.CONV2D and not rest:  # single neurons: their windows
            rest = feed.params["weight"].shape[1:]
        held = max(template.timesteps * math.prod(rest), core.widest(template, start))
        cap = max(1, SCREEN_BLOCK_VALUES // (k * held))
        for j in range(0, len(live), cap):
            block = live[j : j + cap]
            ds = [faults[pos] for pos in block]
            t0 = time.perf_counter()
            index = tuple(np.array([d.coords[:cone] for d in ds], np.intp).T)  # per axis of L
            if w < lif_at - 1:  # beyond the feed: no screen, every input diverges
                screened = _Screened(_cut(template.layers[w], ds, index[0]), {}, {}, None,
                                     np.ones((k, len(ds)), bool))
            else:
                screened = _screen(template, dataset, golden, lif_at, index, ds)
            source, fault = np.nonzero(screened.differs)
            t1 = time.perf_counter()
            screen_s += t1 - t0
            if not len(source):  # every input keeps its golden prediction
                continue
            hook = None
            if past:  # from the layer after L, on its golden spikes with the cones written in
                written = (index, screened.spikes)
                if pooled:  # past the pool, on its golden output with the cones pooled in
                    written = _pool_cone(after[0], golden.trace[lif.name], *written)
                rows = core.Rows(source, fault, cone=written)
            else:  # restart from w: its row or channel, L's columns and pins per fault
                cut = None if screened.cut is None else (index[0], screened.cut)
                own = (index, LayerSpec(lif.name, lif.kind, screened.columns))
                rows = core.Rows(source, fault, cut=cut, lif=own if screened.columns else None)
                if screened.pins:  # row p pins its fault's cone cell by its fault's masks
                    cells = (np.arange(len(fault)), *(i[fault] for i in index))
                    pins = {kind: (keep[fault], force[fault])
                            for kind, (keep, force) in screened.pins.items()}
                    hook = pin_hook(lif.name, cells, pins)
            x = _golden_input(template, dataset, golden, start)
            reset_state(template)  # the forward starts from zero state and leaves none behind
            scores = network_forward(template, x, hook, start=start, rows=rows)
            reset_state(template)
            for n, f, row in zip(source.tolist(), fault.tolist(), scores):
                outs[block[f]][n] = Prediction(n, row, *_top(row))
            forwards += 1
            replay_s += time.perf_counter() - t1
    if tally is not None:
        for key, value in (("replay_forwards", forwards), ("screen_seconds", screen_s),
                           ("replay_seconds", replay_s)):
            tally[key] = tally.get(key, 0) + value
    return outs


# -- golden reference persistence ----------------------------------------------


def _patterns(hexes: str) -> np.ndarray:
    """uint32 binary32 bit patterns from concatenated 8-digit hex, one conversion."""
    return np.frombuffer(bytes.fromhex(hexes), ">u4").astype(np.uint32)


def write_golden(ref: GoldenReference, path) -> None:
    lines = [
        f"# golden inputs={len(ref.entries)} classes={len(ref.entries[0].scores)}",
        GOLDEN_HEADER,
    ]
    for e in ref.entries:
        vector = ";".join(f32_to_hex(v) for v in e.scores)
        lines.append(f"{e.input_id},{e.top_class},{render_score(e.top_score)},{vector}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_golden(path) -> GoldenReference:
    lines = enumerate(read_lines(path, "golden file"), start=1)
    rows = [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]
    if not rows or rows[0][1] != GOLDEN_HEADER:
        raise FormatError(f"expected golden header '{GOLDEN_HEADER}'")
    entries: list[Prediction] = []
    for lineno, line in rows[1:]:
        m = _GOLDEN_ROW.fullmatch(line)
        if m is None:
            raise FormatError("malformed golden row", line=lineno)
        input_id, top_class, top_cell, vector = m.groups()
        if int(input_id) > UINT64_MAX:
            raise FormatError(f"input_id {input_id} is above 2**64 - 1", line=lineno)
        scores = _patterns(vector.replace(";", "")).view(DTYPE)
        if entries and len(scores) != len(entries[0].scores):
            raise FormatError("score vector length varies between rows", line=lineno)
        top_score = parse_score(top_cell)
        want_class, want_score = _top(scores)
        if int(top_class) != want_class or f32_to_hex(top_score) != f32_to_hex(want_score):
            raise FormatError("top class/score disagree with the score vector", line=lineno)
        entries.append(Prediction(int(input_id), scores, want_class, top_score))
    if not entries:
        raise FormatError("golden reference holds no inputs")
    return GoldenReference(entries)


# -- outcome rows ---------------------------------------------------------------


def _golden_cells(golden: list[Prediction]) -> list[tuple[str, str, str]]:
    """Per input, its outcome-row cells rendered once: all the cells after
    fault_id when the fault keeps the golden prediction, the input id and
    golden class that open a replayed row's cells, and the golden score."""
    cells = []
    for g in golden:
        score = render_score(g.top_score)
        cells.append(
            (f"{g.input_id},{g.top_class},{g.top_class},{score},{score}",
             f"{g.input_id},{g.top_class}", score)
        )
    return cells


def _render_rows(fid: int, cells, golden: list[Prediction], outs: list[Prediction]) -> str:
    """A fault's outcome rows, one per input; only a replayed input's faulty
    score is rendered here. When ``outs`` is ``golden`` itself, its rows are
    the kept cells joined under its id."""
    if outs is golden:
        return f"{fid}," + f"\n{fid},".join(kept for kept, _, _ in cells) + "\n"
    return "".join(
        f"{fid},{kept}\n" if o is g
        else f"{fid},{head},{o.top_class},{score},{render_score(o.top_score)}\n"
        for (kept, head, score), g, o in zip(cells, golden, outs)
    )


def read_outcomes(path) -> Outcomes:
    """outcomes.csv as columns, read OUTCOME_BLOCK_ROWS rows at a time; a
    malformed file raises the FormatError of its first bad line."""
    blocks = []
    with open(path, "rb") as f:
        good = f.readline().removesuffix(b"\n") == OUTCOME_HEADER.encode()
        while good and (block := b"".join(islice(f, OUTCOME_BLOCK_ROWS))):
            columns = _outcome_columns(block)
            good = columns is not None
            blocks.append(columns)
    if not good:
        _raise_first_bad_outcome_line(path)
    if not blocks:
        return Outcomes.from_rows(())
    return Outcomes(*(np.concatenate(column) for column in zip(*blocks)))


def _outcome_columns(block: bytes) -> tuple[np.ndarray, ...] | None:
    """A block of outcome rows as Outcomes' columns, or None if it is not
    UTF-8, a row breaks the grammar or an integer is above UINT64_MAX."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not text.endswith("\n"):  # the file's last row, without its LF
        text += "\n"
    if _OUTCOME_BLOCK.fullmatch(text) is None:
        return None
    *ints, golden_top, faulty_top = zip(*_OUTCOME_CELLS.findall(text))
    try:
        ints = [np.fromiter(map(int, cells), np.uint64, len(cells)) for cells in ints]
    except OverflowError:
        return None
    return (*ints, _patterns("".join(golden_top)), _patterns("".join(faulty_top)))


def _raise_first_bad_outcome_line(path) -> NoReturn:
    """Walk outcomes.csv a line at a time, after reading it whole, and raise
    the FormatError of its first bad line."""
    lines = read_lines(path, "outcome file")
    if not lines or lines[0] != OUTCOME_HEADER:
        raise FormatError(f"expected outcome header '{OUTCOME_HEADER}'", line=1)
    for lineno, line in enumerate(lines[1:], start=2):
        m = _OUTCOME_ROW.fullmatch(line)
        if m is None:
            raise FormatError("malformed outcome row", line=lineno)
        for name, cell in zip(OUTCOME_HEADER.split(",")[:4], m.groups()):
            if int(cell) > UINT64_MAX:
                raise FormatError(f"{name} {cell} is above 2**64 - 1", line=lineno)
    raise AssertionError(f"{path}: the block reader refused rows that the line walk accepts")


# -- checkpointing ---------------------------------------------------------------


def _input_binding(cfg: CampaignConfig, k: int) -> dict:
    return {
        "model_sha256": file_sha256(cfg.model),
        "dataset_sha256": file_sha256(cfg.dataset),
        "fault_list_sha256": file_sha256(cfg.fault_list),
        "inputs": k,
    }


def _read_checkpoint(path: Path, binding: dict) -> int:
    """The log length the checkpoint acknowledges, provided the inputs are unchanged."""
    try:
        record = json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:  # includes UnicodeDecodeError
        raise ResumeError(f"corrupt checkpoint: {exc}") from None
    if not isinstance(record, dict) or record.keys() != {"log_bytes", *binding}:
        raise ResumeError(f"corrupt checkpoint: want the fields log_bytes, {', '.join(binding)}")
    # by type too: json reads 20.0 and true, which equal the ints 20 and 1
    changed = [key for key in binding
               if type(record[key]) is not type(binding[key]) or record[key] != binding[key]]
    if changed:
        raise ResumeError(f"{', '.join(changed)} changed since the checkpoint was written")
    length = record["log_bytes"]
    if type(length) is not int or length < 0:
        raise ResumeError(f"corrupt checkpoint: log_bytes {length!r} is not a byte count")
    return length


def _read_log(path: Path, length: int, k: int, valid_ids: set[int]) -> dict[int, list[str]]:
    """Parse the log's first ``length`` bytes strictly: fault id -> its K rows."""
    with open(path, "rb") as f:
        data = f.read(length)
    if len(data) < length:
        raise ResumeError(f"checkpoint acknowledges {length} bytes, the log holds {len(data)}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ResumeError(f"corrupt acknowledged outcome row: {exc}") from None
    if text and not text.endswith("\n"):
        raise ResumeError("corrupt acknowledged outcome row: the acknowledged bytes end mid-row")
    groups: dict[int, list[str]] = {}
    inputs: dict[int, list[int]] = {}
    for lineno, line in enumerate(text.split("\n")[:-1], start=1):
        m = _OUTCOME_ROW.fullmatch(line)
        if m is None:
            raise ResumeError(f"corrupt acknowledged outcome row (line {lineno})")
        fid = int(m[1])
        if fid not in valid_ids:
            raise ResumeError(f"acknowledged row names unknown fault {fid}")
        groups.setdefault(fid, []).append(line)
        inputs.setdefault(fid, []).append(int(m[2]))
    for fid, iids in inputs.items():
        if iids != list(range(k)):
            raise ResumeError(f"fault {fid}: acknowledged inputs {iids}, need 0..{k - 1} once")
    return groups


# -- the campaign loop ------------------------------------------------------------

_WORKER: dict = {}


def _worker_init(net: Network, dataset: SpikeDataset, golden: GoldenReference) -> None:
    _WORKER["net"] = net
    _WORKER["dataset"] = dataset
    _WORKER["golden"] = golden
    _WORKER["cells"] = _golden_cells(golden.entries)


def _run_batch(net: Network, batch: list[FaultDescriptor], dataset: SpikeDataset,
               golden: GoldenReference, cells):
    # What run_campaign records for a batch: each fault's outcome rows, the
    # batch's counts per site, and run_faulty's tally. A screened input's
    # Prediction is the golden one itself, so a fault with no replayed input
    # renders its rows from the golden cells alone.
    rows, counts, tally, entries = [], {}, {}, golden.entries
    for d, outs in zip(batch, run_faulty(net, batch, dataset, golden, tally)):
        noop = outs is entries
        replayed = 0 if noop else sum(map(is_not, outs, entries))
        rows.append(_render_rows(d.fault_id, cells, entries, outs if replayed else entries))
        site = counts.setdefault(d[1:3], [0, 0, 0, 0])  # (layer, parameter)
        site[0] += 1
        site[1] += noop
        site[2] += len(entries) - replayed
        site[3] += replayed
    sites = {f"{layer}.{parameter.value}": dict(zip(_SITE_COUNTS, site))
             for (layer, parameter), site in counts.items()}
    return rows, sites, tally


def _worker_run(batch: list[FaultDescriptor]):
    w = _WORKER
    return os.getpid(), _run_batch(w["net"], batch, w["dataset"], w["golden"], w["cells"])


def run_campaign(cfg: CampaignConfig, limit: int | None = None) -> CampaignResult:
    """Execute (or resume) a campaign; see the module docstring for the files.

    ``limit`` caps how many pending faults this invocation processes, then
    checkpoints and returns with status "partial" -- the deterministic stand-in
    for a mid-campaign kill in tests.
    """
    from . import __version__

    t0 = time.monotonic()
    net = load_model(cfg.model)
    t_model = time.monotonic()
    dataset = load_dataset(cfg.dataset)
    t_dataset = time.monotonic()
    fl = read_fault_list(cfg.fault_list, net)
    t_fault_list = time.monotonic()
    k = _subset_count(dataset, cfg.subset)
    binding = _input_binding(cfg, k)
    t_hashes = time.monotonic()

    out_dir = Path(cfg.out_dir)  # checked before the golden run: a refused run writes nothing
    ckpt_path = out_dir / "checkpoint.txt"
    partial_path = out_dir / "outcomes.partial.csv"
    valid_ids = {d.fault_id for d in fl.descriptors}

    logged: dict[int, str] = {}  # fault id -> its K acknowledged rows
    if not cfg.resume:
        if ckpt_path.exists() or partial_path.exists():
            raise ResumeError(
                f"{out_dir} already holds campaign state; resume it or clean the directory"
            )
    elif ckpt_path.exists():
        acked = _read_checkpoint(ckpt_path, binding)  # log bytes the checkpoint vouches for
        if not partial_path.exists():
            raise ResumeError("checkpoint exists but the partial outcome file is missing")
        logged = {fid: "\n".join(rows) + "\n"
                  for fid, rows in _read_log(partial_path, acked, k, valid_ids).items()}
        os.truncate(partial_path, acked)  # unacknowledged rows are re-run, never appended to
    elif partial_path.exists() and partial_path.stat().st_size > 0:
        raise ResumeError(f"{partial_path} holds outcome rows but no checkpoint acknowledges them")
    for name in _ATOMIC_OUTPUTS:  # what a writer killed mid-write left of them
        temporary_of(out_dir / name).unlink(missing_ok=True)
    t_load = time.monotonic()

    out_dir.mkdir(parents=True, exist_ok=True)
    t_forward = time.perf_counter()
    golden = run_golden(net.copy(), dataset, k)
    golden_forward_s = time.perf_counter() - t_forward
    golden_path = out_dir / "golden.csv"
    write_golden(golden, golden_path)
    t_golden = time.monotonic()

    pending = [d for d in fl.descriptors if d.fault_id not in logged]
    if limit is not None:
        pending = pending[: max(0, int(limit))]

    # sched_getaffinity exists only where the platform has it (Linux, not macOS or Windows).
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parallel = min(cfg.workers, cpus or 1)
    estimate = len(pending) * golden_forward_s * FAULT_FORWARD_SHARE  # serial fault seconds
    # A batch, the unit that is screened together and acknowledged at once,
    # holds at most checkpoint_every faults and, in a pool, at most an even
    # share per worker.
    size = max(1, min(cfg.checkpoint_every, -(-len(pending) // parallel)))
    started = min(parallel, -(-len(pending) // size))  # worker processes, no more than batches
    if started < 2 or estimate * (1 - 1 / started) <= POOL_COST_SECONDS:
        # the pool would save less than it costs (a pool of one saves nothing)
        started, size = 0, max(1, min(cfg.checkpoint_every, len(pending)))
    batches = [pending[i : i + size] for i in range(0, len(pending), size)]
    tally = {"replay_forwards": 0, "screen_seconds": 0.0, "replay_seconds": 0.0}  # run_faulty's
    per_worker: dict[int, int] = {}  # process pid -> faults it ran, in order of first result
    sites: dict[str, dict[str, int]] = {}

    pool = None
    with open(partial_path, "a", encoding="utf-8", newline="\n") as pf:
        try:
            if started:
                pool = ProcessPoolExecutor(
                    started, initializer=_worker_init, initargs=(net, dataset, golden)
                )
                futures = {pool.submit(_worker_run, batch): batch for batch in batches}
                ran = ((futures[future], future.result()) for future in as_completed(futures))
            else:
                cells = _golden_cells(golden.entries) if batches else None
                ran = ((batch, (os.getpid(), _run_batch(net, batch, dataset, golden, cells)))
                       for batch in batches)
            for batch, (pid, (rows, batch_sites, batch_tally)) in ran:
                # write the batch's rows, fsync them and acknowledge the log
                per_worker[pid] = per_worker.get(pid, 0) + len(rows)
                for key, value in batch_tally.items():
                    tally[key] += value
                for site, counts in batch_sites.items():
                    total = sites.setdefault(site, dict.fromkeys(_SITE_COUNTS, 0))
                    for key, value in counts.items():
                        total[key] += value
                pf.write("".join(rows))
                logged.update(zip([d.fault_id for d in batch], rows))
                pf.flush()
                os.fsync(pf.fileno())
                acked = os.fstat(pf.fileno()).st_size
                write_atomic(ckpt_path, f"{json.dumps({'log_bytes': acked, **binding})}\n".encode())
        except BrokenProcessPool as exc:
            # every recorded batch is already acknowledged for --resume
            raise WorkerError(
                f"a campaign worker died ({exc}); rerun with --resume to finish"
            ) from None
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
    t_faults = time.monotonic()

    # the log holds exactly these rows, so outcomes.csv comes from memory
    status = "complete" if logged.keys() == valid_ids else "partial"
    outcomes_path = out_dir / "outcomes.csv" if status == "complete" else None
    if outcomes_path:
        text = "".join([OUTCOME_HEADER + "\n", *(logged[fid] for fid in sorted(logged))])
        write_atomic(outcomes_path, text.encode("utf-8"))

    t_merge = time.monotonic()
    wall = t_merge - t0
    screened = sum(c["screened_pairs"] for c in sites.values())
    replayed = sum(c["replayed_pairs"] for c in sites.values())
    summary = {
        "status": status,
        "faults_total": len(valid_ids),
        "faults_completed": len(logged),
        **binding,
        "workers": cfg.workers,
        "workers_started": started,
        "golden_forward_seconds": golden_forward_s,  # run_golden alone, the estimate's unit
        "fault_seconds_estimate": estimate,  # what the pool decision weighed
        "batch_faults": size,  # the most faults per batch this run cut
        # one entry per started worker, or for this process; one that drew no batch ran 0
        "faults_per_worker": [*per_worker.values()] + [0] * (max(1, started) - len(per_worker)),
        "wall_seconds": wall,
        "noop_faults": sum(c["noop_faults"] for c in sites.values()),
        "screened_pairs": screened,
        "replayed_pairs": replayed,
        "replay_forwards": tally["replay_forwards"],
        "sites": dict(sorted(sites.items())),
        "golden_trace_bytes": sum(a.nbytes for a in golden.trace.values()),
        "fault_pairs_per_s": (screened + replayed) / (t_faults - t_golden) if pending else 0.0,
        "phase_seconds": {
            "load": t_load - t0,
            "golden": t_golden - t_load,
            "faults": t_faults - t_golden,
            "merge": t_merge - t_faults,
        },
        # the load phase's parts; state checks and clean-up take the rest
        "load_seconds": {
            "model": t_model - t0,
            "dataset": t_dataset - t_model,
            "fault_list": t_fault_list - t_dataset,
            "hashes": t_hashes - t_fault_list,
        },
        # summed over batches in whichever process ran them
        "fault_seconds": {"screen": tally["screen_seconds"], "replay": tally["replay_seconds"]},
        "argv": sys.argv,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "snnfault": __version__,
        },
    }
    write_atomic(out_dir / "campaign.json", (json.dumps(summary, indent=2) + "\n").encode("utf-8"))
    return CampaignResult(
        status=status,
        processed=len(pending),
        total=len(valid_ids),
        wall_seconds=wall,
        out_dir=out_dir,
        golden_path=golden_path,
        outcomes_path=outcomes_path,
    )
