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
golden prediction exactly. Only a fault with differing inputs gets a copy of
the network; those inputs are replayed in one batched forward: from the layer
after L on L's golden spikes with the cone's screened spikes spliced in, or,
when L is fed back through a recurrent layer, from the faulted layer on its
golden input. A fault that reaches L only through further layers is never
screened; it is replayed on all K inputs from its own layer. Each (fault,
input) outcome is a pure function of (model, descriptor, input), with the bits
of a full forward of an injected copy. Results stream into the
``outcomes.partial.csv`` log, their only record; once rows are fsynced,
``checkpoint.txt`` acknowledges the log's byte length, bound to the sha256 of
the model, dataset and fault list and to K. Resume refuses changed inputs,
cuts the log back to that length (a torn or unacknowledged tail is re-run,
never appended to) and parses it strictly. ``outcomes.csv`` is the same strict
reading of the log sorted by (fault_id, input_id), so its bytes are identical
for any worker count or interruption history. It, ``golden.csv``,
``campaign.json`` and the checkpoint are each written to a temporary file,
fsynced and renamed into place, so a kill never leaves a truncated one behind.
The serial path and each pool worker run contiguous batches of faults; the
pool starts no more workers than there are usable CPUs or batches. A worker
that dies ends the run with ``WorkerError`` after acknowledging every fault
already recorded, so ``--resume`` picks up from there.

Outcome CSV: ``fault_id,input_id,golden_class,faulty_class,golden_top_score,
faulty_top_score`` with scores as ``hex:decimal`` cells (raw binary32 pattern,
authoritative, plus a human-readable rendering). The golden cells are
rendered once per input, and only a replayed input's faulty score per row.
Golden CSV: one row per input with top class, top score, and the full score
vector as ``;``-joined hex patterns. Each row format is one compiled pattern
below, written in dataio's sub-patterns; the readers take their fields from
its match.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable

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
    SpikeDataset,
    f32_to_hex,
    load_dataset,
    load_model,
    parse_score,
    read_lines,
    render_score,
)
from .errors import AddressError, FormatError, ResumeError, WorkerError
from .faults import (
    FaultDescriptor,
    fault_masks,
    inject_static,
    make_refresh_hook,
    pin_bits,
    target_tensor,
)
from .faultlist import read_fault_list

OUTCOME_HEADER = "fault_id,input_id,golden_class,faulty_class,golden_top_score,faulty_top_score"
GOLDEN_HEADER = "input_id,top_class,top_score,scores"
_OUTCOME_ROW = re.compile(rf"({INT}),({INT}),({INT}),({INT}),({SCORE}),({SCORE})")
_GOLDEN_ROW = re.compile(rf"({INT}),({INT}),({SCORE}),({HEX}(?:;{HEX})*)")
# A screened group holds its current, its spikes and the golden spikes as
# [K, T, F, *cone] arrays, and single neurons of a conv-fed L their input
# windows as [K, T, F, ic, k, k]; F, the faults screened at once, is capped so
# that one such array holds at most this many values (512 KiB as binary32).
SCREEN_BLOCK_VALUES = 1 << 17


@dataclass
class CampaignConfig:
    model: Path
    dataset: Path
    fault_list: Path
    out_dir: Path
    subset: int | None = None  # first K inputs; None = whole dataset
    workers: int = 1
    checkpoint_every: int = 100  # faults between checkpoint flushes
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


def _screen_site(net: Network, d: FaultDescriptor) -> tuple[int, int, tuple[int, ...]]:
    """(w, lif_at, index): the first layer whose output the fault changes,
    the LIF layer L after it (screened only when w feeds L), and the cone,
    the block of L's neurons the fault can reach directly: L's elements at
    the leading coords ``index``, with every trailing axis whole."""
    i = [spec.name for spec in net.layers].index(d.layer)
    spec = net.layers[i]
    if spec.kind is not LayerKind.LIF:
        lif_at = i + 1 + [s.kind for s in net.layers[i + 1 :]].index(LayerKind.LIF)
        return i, lif_at, d.coords[:1]  # a row or channel
    if d.parameter.is_static and spec.params[d.parameter.value].shape == (1,):
        return i - 1, i, ()
    return i - 1, i, d.coords  # one neuron


def _screen(
    net: Network,
    dataset: SpikeDataset,
    golden: GoldenReference,
    block: list[tuple[FaultDescriptor, tuple[int, int, tuple[int, ...]]]],
) -> tuple[np.ndarray, np.ndarray]:
    """The cone spikes [K, T, F, *rest] of F faults that share L, each on L
    or on the layer feeding it, and whose cones pin the same number of L's
    leading axes (``rest`` is L's shape past them), and the mask [K, F] of
    the inputs whose cone spikes differ in any bit from the golden trace.

    Only the feed and L run. The current into the cones is computed for all
    K inputs, T steps and F faults at once from the feed's golden input: the
    feed's rows or channels that the cones need, each fault's bit set in its
    own copy; a conv input's windows under single neurons; or all of L's
    golden current, for a ``(1,)`` beta or threshold fault. Every output
    element keeps its own chain, so its bits are those of a full forward. A
    recurrent layer's feedback reads L's golden spikes of the previous step,
    which is exact until the cone first differs, and that is all the screen
    decides. L then advances step by step over [K, F, *rest] in
    ``core.lif_scan``, the scan network_forward runs, each fault with its own
    beta and threshold column and its own state pins.
    """
    _, lif_at, first = block[0][1]
    lif, feed = net.layers[lif_at], net.layers[lif_at - 1]
    k, f, steps = len(golden.entries), len(block), net.timesteps
    rest = net.shapes[lif.name][len(first) :]
    index = tuple(np.array([site[2][a] for _, site in block]) for a in range(len(first)))
    x = _golden_input(net, dataset, golden, lif_at - 1)  # binary32 once cut to the cones
    prev = None
    if feed.kind is LayerKind.RECURRENT:
        prev = np.zeros(golden.trace[lif.name].shape, DTYPE)
        prev[:, 1:] = golden.trace[lif.name][:, :-1]
    with np.errstate(all="ignore"):
        if not index:  # all of L: its golden current
            current = core.layer_forward(feed, x.astype(DTYPE, copy=False), 2, prev)
            current = np.broadcast_to(current[:, :, None], (k, steps, f, *rest))
        elif feed.kind is LayerKind.CONV2D and not rest:  # single neurons: their windows
            kernel = feed.hyper["kernel"]
            win = sliding_window_view(x, (kernel, kernel), axis=(-2, -1))
            # [K, T, F, ic, k, k]: the input window under each fault's neuron
            windows = np.moveaxis(win[:, :, :, index[1], index[2]], 3, 2).astype(DTYPE)
            weight, bias = feed.params["weight"], feed.params.get("bias")
            current = np.empty((k, steps, f), DTYPE)
            for c in set(index[0].tolist()):  # np.unique imports numpy.ma: +1.5 MB per process
                sel = index[0] == c
                cut = None if bias is None else bias[c : c + 1]
                out = core.conv2d_forward(weight[c : c + 1], cut, windows[:, :, sel])
                current[:, :, sel] = out.reshape(k, steps, -1)
        else:  # the feed's rows or channels, each fault's bit set in its own
            params = {key: value[index[0]] for key, value in feed.params.items()}
            for i, (d, _) in enumerate(block):
                if d.layer == feed.name:
                    pin_bits(params[d.parameter.value], (i, *d.coords[1:]), *fault_masks(d))
            cut = LayerSpec(feed.name, feed.kind, params, feed.hyper)
            current = core.layer_forward(cut, x.astype(DTYPE, copy=False), 2, prev)
        columns = {}
        for key, value in lif.params.items():  # [F, *rest], or broadcastable to it
            if value.shape == (1,):
                columns[key] = np.repeat(value.reshape((1,) * (1 + len(rest))), f, axis=0)
            else:
                columns[key] = value[index] if index else value[None]
        pins = {}  # state kind -> per-column (keep, force) masks
        for i, (d, _) in enumerate(block):
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

        def pin(layer: str, kind: str, tensor: np.ndarray) -> None:
            if kind in pins:
                pin_bits(tensor, ..., *pins[kind])

        state = LifState(np.zeros((k, f, *rest), DTYPE), np.zeros((k, f, *rest), DTYPE))
        _, spikes = core.lif_scan(lif.name, state, current, columns["beta"],
                                  columns["threshold"], 1, pin if pins else None)
    trace = golden.trace[lif.name]
    want = trace[(slice(None), slice(None), *index)] if index else trace[:, :, None]
    differs = spikes.view(np.uint32) != want.astype(DTYPE).view(np.uint32)  # -0.0 differs
    return spikes, differs.reshape(k, steps, f, -1).any(axis=(1, 3))


def _replay(
    template: Network,
    d: FaultDescriptor,
    site: tuple[int, int, tuple[int, ...]],
    dataset: SpikeDataset,
    golden: GoldenReference,
    spikes: np.ndarray | None,
    diverging: np.ndarray,
) -> list[Prediction]:
    """The fault's Predictions: golden but on the ``diverging`` inputs, which
    run on an injected copy of the template, given the fault's screened cone
    spikes [K, T, *rest] (None for a fault the screen does not reach)."""
    outs = list(golden.entries)
    if not diverging.size:
        return outs
    w, lif_at, index = site
    net = template.copy()
    if d.parameter.is_static:
        inject_static(net, d)
    if w == lif_at - 1 and net.layers[w].kind is not LayerKind.RECURRENT:
        # Only the cone of L differs: splice it into L's golden spikes.
        lif = net.layers[lif_at].name
        scores = network_forward(net, golden.trace[lif][diverging], start=lif_at + 1,
                                 splice=(index, spikes[diverging]))
    else:
        hook = make_refresh_hook(d) if d.parameter.is_dynamic else None
        scores = network_forward(net, _golden_input(net, dataset, golden, w)[diverging], hook,
                                 start=w)
    for n, row in zip(diverging.tolist(), scores):
        outs[n] = Prediction(n, row, *_top(row))
    return outs


def run_faulty(
    template: Network,
    faults: list[FaultDescriptor] | FaultDescriptor,
    dataset: SpikeDataset,
    golden: GoldenReference | None = None,
):
    """Each fault of a batch on every input of ``golden`` (run_golden's result
    for this template and dataset; computed over the whole dataset when
    omitted): one Prediction list per fault, in the batch's order, or for a
    lone descriptor its list alone, as a batch of one. A fault's outcome does
    not depend on which faults share its batch.

    A static fault whose bit already holds its stuck value leaves the network
    bit-identical; its list is ``golden.entries`` itself, which the caller
    must not modify. The others are screened in groups that share their LIF
    layer L and cone form (see ``_screen``); a fault that reaches L through
    further layers is not screened, and all its inputs diverge. Only a fault
    with diverging inputs gets a private copy of the template, on which they
    are replayed in one batched forward from the first layer whose input
    changed; the other inputs keep their golden Prediction.
    """
    if golden is None:
        golden = run_golden(template.copy(), dataset)
    elif not golden.trace:
        raise ValueError("golden reference holds no trace; pass run_golden's, not read_golden's")
    if isinstance(faults, FaultDescriptor):
        return run_faulty(template, [faults], dataset, golden)[0]
    k, outs = len(golden.entries), [golden.entries] * len(faults)
    groups: dict[tuple, list[tuple[int, FaultDescriptor, tuple]]] = {}
    for pos, d in enumerate(faults):
        try:
            tensor = target_tensor(template, d)  # validate addressability up front
        except AddressError as exc:
            raise AddressError(f"fault {d.fault_id}: {exc}") from None
        if d.parameter.is_static:
            held = (int(tensor[d.coords].view(np.uint32)) >> d.bit) & 1
            if held == d.stuck:
                continue  # a no-op: the network stays bit-identical
        w, lif_at, index = site = _screen_site(template, d)
        if w < lif_at - 1:  # reaches L through further layers: replayed whole
            outs[pos] = _replay(template, d, site, dataset, golden, None, np.arange(k))
        else:
            groups.setdefault((lif_at, len(index)), []).append((pos, d, site))
    for members in groups.values():
        lif_at, index = members[0][2][1:]
        rest = template.shapes[template.layers[lif_at].name][len(index) :]
        feed = template.layers[lif_at - 1]
        if feed.kind is LayerKind.CONV2D and not rest:  # single neurons: their windows
            rest = feed.params["weight"].shape[1:]
        cap = max(1, SCREEN_BLOCK_VALUES // (k * template.timesteps * math.prod(rest)))
        for j in range(0, len(members), cap):
            block = members[j : j + cap]
            spikes, differs = _screen(template, dataset, golden, [(d, s) for _, d, s in block])
            for i, (pos, d, site) in enumerate(block):
                diverging = np.flatnonzero(differs[:, i])
                outs[pos] = _replay(template, d, site, dataset, golden, spikes[:, :, i], diverging)
    return outs


def write_atomic(path: Path, lines: Iterable[str]) -> None:
    # Readers see the old file or the whole new one, never a torn write.
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(line + "\n" for line in lines)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


# -- golden reference persistence ----------------------------------------------


def _f32s(hexes: str) -> np.ndarray:
    """binary32 values from concatenated 8-digit hex bit patterns, one conversion."""
    return np.frombuffer(bytes.fromhex(hexes), ">u4").astype(np.uint32).view(DTYPE)


def write_golden(ref: GoldenReference, path) -> None:
    lines = [
        f"# golden inputs={len(ref.entries)} classes={len(ref.entries[0].scores)}",
        GOLDEN_HEADER,
    ]
    for e in ref.entries:
        vector = ";".join(f32_to_hex(v) for v in e.scores)
        lines.append(f"{e.input_id},{e.top_class},{render_score(e.top_score)},{vector}")
    write_atomic(Path(path), lines)


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
        scores = _f32s(vector.replace(";", ""))
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
    score is rendered here."""
    return "".join(
        f"{fid},{kept}\n" if o is g
        else f"{fid},{head},{o.top_class},{score},{render_score(o.top_score)}\n"
        for (kept, head, score), g, o in zip(cells, golden, outs)
    )


def read_outcomes(path) -> list[OutcomeRow]:
    lines = read_lines(path, "outcome file")
    if not lines or lines[0] != OUTCOME_HEADER:
        raise FormatError(f"expected outcome header '{OUTCOME_HEADER}'", line=1)
    matches = []
    for lineno, line in enumerate(lines[1:], start=2):
        m = _OUTCOME_ROW.fullmatch(line)
        if m is None:
            raise FormatError("malformed outcome row", line=lineno)
        matches.append(m)
    tops = _f32s("".join(m[5][:8] + m[6][:8] for m in matches))
    return [OutcomeRow(int(m[1]), int(m[2]), int(m[3]), int(m[4]), g_top, f_top)
            for m, g_top, f_top in zip(matches, tops[0::2], tops[1::2])]


# -- checkpointing ---------------------------------------------------------------


def _input_binding(cfg: CampaignConfig, k: int) -> dict:
    def sha256(path: Path) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    return {
        "model_sha256": sha256(cfg.model),
        "dataset_sha256": sha256(cfg.dataset),
        "fault_list_sha256": sha256(cfg.fault_list),
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
    changed = [key for key in binding if record[key] != binding[key]]
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

# The pending faults run as this many contiguous batches per worker (the
# serial path counts as one worker): one future per fault makes
# inter-process traffic the bound once a screened fault costs about a
# millisecond, and a few batches per worker still let a worker that drew
# cheap faults take another batch. A batch is also what run_faulty screens
# together.
BATCHES_PER_WORKER = 8


def _worker_init(net: Network, dataset: SpikeDataset, golden: GoldenReference) -> None:
    _WORKER["net"] = net
    _WORKER["dataset"] = dataset
    _WORKER["golden"] = golden
    _WORKER["cells"] = _golden_cells(golden.entries)


def _run_batch(net: Network, batch: list[FaultDescriptor], dataset: SpikeDataset,
               golden: GoldenReference, cells):
    # Per fault, what record() takes after the descriptor: (no-op, screened
    # inputs, replayed inputs, the outcome rows). A screened input's
    # Prediction is the golden one itself.
    results = []
    for d, outs in zip(batch, run_faulty(net, batch, dataset, golden)):
        replayed = sum(o is not g for o, g in zip(outs, golden.entries))
        rows = _render_rows(d.fault_id, cells, golden.entries, outs)
        results.append((outs is golden.entries, len(outs) - replayed, replayed, rows))
    return results


def _worker_run(batch: list[FaultDescriptor]):
    w = _WORKER
    return _run_batch(w["net"], batch, w["dataset"], w["golden"], w["cells"])


def run_campaign(cfg: CampaignConfig, limit: int | None = None) -> CampaignResult:
    """Execute (or resume) a campaign; see the module docstring for the files.

    ``limit`` caps how many pending faults this invocation processes, then
    checkpoints and returns with status "partial" -- the deterministic stand-in
    for a mid-campaign kill in tests.
    """
    from . import __version__

    t0 = time.monotonic()
    net = load_model(cfg.model)
    dataset = load_dataset(cfg.dataset)
    fl = read_fault_list(cfg.fault_list, net)
    k = _subset_count(dataset, cfg.subset)
    binding = _input_binding(cfg, k)
    t_load = time.monotonic()

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    golden = run_golden(net.copy(), dataset, k)
    golden_path = out_dir / "golden.csv"
    write_golden(golden, golden_path)
    t_golden = time.monotonic()

    ckpt_path = out_dir / "checkpoint.txt"
    partial_path = out_dir / "outcomes.partial.csv"
    final_path = out_dir / "outcomes.csv"
    valid_ids = {d.fault_id for d in fl.descriptors}

    acked = 0  # bytes of the log the checkpoint vouches for
    done: set[int] = set()
    if not cfg.resume:
        if ckpt_path.exists() or partial_path.exists():
            raise ResumeError(
                f"{out_dir} already holds campaign state; resume it or clean the directory"
            )
    elif ckpt_path.exists():
        acked = _read_checkpoint(ckpt_path, binding)
        if not partial_path.exists():
            raise ResumeError("checkpoint exists but the partial outcome file is missing")
        done = set(_read_log(partial_path, acked, k, valid_ids))
        os.truncate(partial_path, acked)  # unacknowledged rows are re-run, never appended to
    elif partial_path.exists() and partial_path.stat().st_size > 0:
        raise ResumeError(f"{partial_path} holds outcome rows but no checkpoint acknowledges them")

    pending = [d for d in fl.descriptors if d.fault_id not in done]
    if limit is not None:
        pending = pending[: max(0, int(limit))]

    # sched_getaffinity exists only where the platform has it (Linux, not macOS or Windows).
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parallel = 1 if cfg.workers == 1 else min(cfg.workers, cpus or 1)
    size = max(1, -(-len(pending) // (parallel * BATCHES_PER_WORKER)))
    batches = [pending[i : i + size] for i in range(0, len(pending), size)]
    started = 0  # worker processes; the serial path starts none
    sites: dict[str, dict[str, int]] = {}

    with open(partial_path, "a", encoding="utf-8", newline="\n") as pf:
        unacknowledged = 0

        def checkpoint() -> None:
            nonlocal acked
            pf.flush()
            os.fsync(pf.fileno())
            acked = os.fstat(pf.fileno()).st_size
            write_atomic(ckpt_path, [json.dumps({"log_bytes": acked, **binding})])

        def record(d: FaultDescriptor, noop: bool, screened: int, replayed: int, rows: str):
            nonlocal unacknowledged
            counts = sites.setdefault(
                f"{d.layer}.{d.parameter.value}",
                {"faults": 0, "noop_faults": 0, "screened_pairs": 0, "replayed_pairs": 0},
            )
            counts["faults"] += 1
            counts["noop_faults"] += noop
            counts["screened_pairs"] += screened
            counts["replayed_pairs"] += replayed
            pf.write(rows)
            unacknowledged += 1
            if unacknowledged >= cfg.checkpoint_every:
                checkpoint()
                unacknowledged = 0

        if cfg.workers == 1:
            cells = _golden_cells(golden.entries)
            for batch in batches:
                for d, result in zip(batch, _run_batch(net, batch, dataset, golden, cells)):
                    record(d, *result)
        elif batches:
            started = min(parallel, len(batches))
            pool = ProcessPoolExecutor(
                started, initializer=_worker_init, initargs=(net, dataset, golden)
            )
            try:
                futures = {pool.submit(_worker_run, batch): batch for batch in batches}
                for future in as_completed(futures):
                    for d, result in zip(futures[future], future.result()):
                        record(d, *result)
            except BrokenProcessPool as exc:
                checkpoint()  # every recorded fault is whole; keep it for --resume
                raise WorkerError(
                    f"a campaign worker died ({exc}); rerun with --resume to finish"
                ) from None
            finally:
                pool.shutdown(cancel_futures=True)
        if unacknowledged:
            checkpoint()
    t_faults = time.monotonic()

    groups = _read_log(partial_path, acked, k, valid_ids)
    status = "complete" if groups.keys() == valid_ids else "partial"
    outcomes_path = None
    if status == "complete":
        rows = (line for fid in sorted(groups) for line in groups[fid])
        write_atomic(final_path, chain([OUTCOME_HEADER], rows))
        outcomes_path = final_path

    t_merge = time.monotonic()
    wall = t_merge - t0
    screened = sum(c["screened_pairs"] for c in sites.values())
    replayed = sum(c["replayed_pairs"] for c in sites.values())
    summary = {
        "status": status,
        "faults_total": len(valid_ids),
        "faults_completed": len(groups),
        **binding,
        "workers": cfg.workers,
        "workers_started": started,
        "wall_seconds": wall,
        "noop_faults": sum(c["noop_faults"] for c in sites.values()),
        "screened_pairs": screened,
        "replayed_pairs": replayed,
        "sites": dict(sorted(sites.items())),
        "golden_trace_bytes": sum(a.nbytes for a in golden.trace.values()),
        "fault_pairs_per_s": (screened + replayed) / (t_faults - t_golden) if pending else 0.0,
        "phase_seconds": {
            "load": t_load - t0,
            "golden": t_golden - t_load,
            "faults": t_faults - t_golden,
            "merge": t_merge - t_faults,
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "snnfault": __version__,
        },
    }
    write_atomic(out_dir / "campaign.json", [json.dumps(summary, indent=2)])
    return CampaignResult(
        status=status,
        processed=len(pending),
        total=len(valid_ids),
        wall_seconds=wall,
        out_dir=out_dir,
        golden_path=golden_path,
        outcomes_path=outcomes_path,
    )
