"""Campaign orchestration: golden reference, faulty runs, checkpointed merge.

The golden run is one batched forward over the first K dataset inputs that
also records a golden trace: every LIF layer's spike train [K, T, *shape] as
bool (golden spikes are exactly 0.0 or 1.0), and, as float32, the output of
every other layer that feeds a weighted layer (an FC after a pool, say).
Every fault then runs on a fresh copy of the template network in two steps.
The screen recomputes only what the fault can touch in its LIF layer L (the
faulted LIF, or the one the faulted weighted layer feeds): the cone of L's
neurons its row, channel or neuron reaches, for all K inputs and T steps,
from golden inputs, through the same kernels with the same chains. An input
whose cone spikes match the golden trace bit for bit (compared as binary32
patterns, so a -0.0 spike counts as different) sees golden values in every
later layer, so it keeps its golden prediction exactly. The inputs that
differ are replayed in one batched forward: from the layer after L on L's
golden spikes with the cone's screened spikes spliced in, or, when L is fed
back through a recurrent layer or reached through further layers, from the
faulted layer on its golden input. Either way each (fault, input) outcome is
a pure function of (model, descriptor, input), with the bits of a full
forward of an injected copy. Results stream into the
``outcomes.partial.csv`` log, their only record; once rows are fsynced,
``checkpoint.txt`` acknowledges the log's byte length, bound to the sha256 of
the model, dataset and fault list and to K. Resume refuses changed inputs,
cuts the log back to that length (a torn or unacknowledged tail is re-run,
never appended to) and parses it strictly. ``outcomes.csv`` is the same strict
reading of the log sorted by (fault_id, input_id), so its bytes are identical
for any worker count or interruption history. It, ``golden.csv``,
``campaign.json`` and the checkpoint are each written to a temporary file,
fsynced and renamed into place, so a kill never leaves a truncated one behind.
A pool worker runs contiguous batches of faults; one that dies ends the run
with ``WorkerError`` after acknowledging every fault already recorded, so
``--resume`` picks up from there.

Outcome CSV: ``fault_id,input_id,golden_class,faulty_class,golden_top_score,
faulty_top_score`` with scores as ``hex:decimal`` cells (raw binary32 pattern,
authoritative, plus a human-readable rendering). Golden CSV: one row per
input with top class, top score, and the full score vector as ``;``-joined
hex patterns.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

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
    StateHook,
    network_forward,
    reset_state,
)
from .dataio import (
    SpikeDataset,
    f32_to_hex,
    hex_to_f32,
    load_dataset,
    load_model,
    parse_score,
    render_score,
)
from .errors import AddressError, FormatError, ResumeError, WorkerError
from .faults import FaultDescriptor, inject_static, make_refresh_hook, target_tensor
from .faultlist import read_fault_list

OUTCOME_HEADER = "fault_id,input_id,golden_class,faulty_class,golden_top_score,faulty_top_score"
GOLDEN_HEADER = "input_id,top_class,top_score,scores"


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


def _screen_site(net: Network, d: FaultDescriptor) -> tuple[int, int, tuple[slice, ...]]:
    """(w, lif_at, cone): the index of the first layer whose output the fault
    changes, the index of the LIF layer L the screen compares, and the cone,
    the block of L's neurons the fault can reach directly, as one slice per
    axis of L's shape."""
    i = [spec.name for spec in net.layers].index(d.layer)
    spec = net.layers[i]
    if spec.kind is not LayerKind.LIF:
        lif_at = next(
            j for j in range(i + 1, len(net.layers)) if net.layers[j].kind is LayerKind.LIF
        )
        cone = tuple(slice(0, extent) for extent in net.shapes[net.layers[lif_at].name])
        if lif_at > i + 1:  # through further layers the fault reaches all of L
            return i, lif_at, cone
        return i, lif_at, (slice(d.coords[0], d.coords[0] + 1), *cone[1:])  # a row or channel
    if d.parameter.is_static and spec.params[d.parameter.value].shape == (1,):
        return i - 1, i, tuple(slice(0, extent) for extent in net.shapes[spec.name])
    return i - 1, i, tuple(slice(c, c + 1) for c in d.coords)  # one neuron


def _screen(
    net: Network,
    dataset: SpikeDataset,
    golden: GoldenReference,
    site: tuple[int, int, tuple[slice, ...]],
    hook: StateHook | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The cone's spikes [K, T, *cone] on the faulty network, and the inputs
    whose cone spikes differ in any bit from the golden trace.

    The current into the cone is computed for all K inputs and T steps at
    once from layer w's golden input, with the parameters of the layer
    feeding L cut to the cone's rows or channels (and a conv input to the
    cone's windows); every output element keeps its own chain, so its bits
    are those of a full forward. A recurrent layer's feedback reads L's golden
    spikes of the previous step, which is exact until the cone first differs,
    and that is all the screen decides. L then advances step by step, with
    a dynamic fault's ``hook`` addressed within the cone.
    """
    w, lif_at, cone = site
    lif, feed = net.layers[lif_at], net.layers[lif_at - 1]
    x = _golden_input(net, dataset, golden, w)
    prev = None
    if feed.kind is LayerKind.RECURRENT:
        prev = np.zeros(golden.trace[lif.name].shape, DTYPE)
        prev[:, 1:] = golden.trace[lif.name][:, :-1]
    with np.errstate(all="ignore"):
        for spec in net.layers[w:lif_at]:
            if spec is feed:
                if spec.kind is LayerKind.CONV2D:  # the input windows under the cone
                    k = spec.hyper["kernel"]
                    rows, cols = (slice(c.start, c.stop + k - 1) for c in cone[1:])
                    x = x[..., rows, cols]
                params = {key: value[cone[0]] for key, value in spec.params.items()}
                spec = LayerSpec(spec.name, spec.kind, params, spec.hyper)
            x = core.layer_forward(spec, x.astype(DTYPE, copy=False), 2, prev)
        beta, threshold = (
            p if p.shape == (1,) else p[cone]
            for p in (lif.params["beta"], lif.params["threshold"])
        )
        state = LifState(np.zeros_like(x[:, 0]), np.zeros_like(x[:, 0]))
        spikes = np.empty_like(x)
        for t in range(net.timesteps):
            state, spike = core.lif_step(state, x[:, t], beta, threshold)
            if hook is not None:
                hook(lif.name, "potential", state.potential)
                hook(lif.name, "spike", spike)
            spikes[:, t] = spike
    want = golden.trace[lif.name][(slice(None), slice(None), *cone)].astype(DTYPE)
    differs = spikes.view(np.uint32) != want.view(np.uint32)  # -0.0 differs from 0.0
    return spikes, np.flatnonzero(differs.reshape(len(differs), -1).any(axis=1))


def run_faulty(
    template: Network,
    d: FaultDescriptor,
    dataset: SpikeDataset,
    golden: GoldenReference | None = None,
) -> list[Prediction]:
    """One fault on every input of ``golden`` (run_golden's result for this
    template and dataset; computed over the whole dataset when omitted), on a
    private copy of the template network.

    The screen recomputes the fault's LIF layer where the fault can reach it;
    an input whose spikes there match the golden trace keeps its golden
    Prediction. The inputs that differ are replayed in one batched forward
    from the first layer whose input changed.
    """
    if golden is None:
        golden = run_golden(template.copy(), dataset)
    elif not golden.trace:
        raise ValueError("golden reference holds no trace; pass run_golden's, not read_golden's")
    net = template.copy()
    try:
        target_tensor(net, d)  # validate addressability up front
    except AddressError as exc:
        raise AddressError(f"fault {d.fault_id}: {exc}") from None
    local_hook = None
    if d.parameter.is_dynamic:  # a dynamic fault's cone is its neuron: coords 0 within it
        local_hook = make_refresh_hook(replace(d, coords=(0,) * len(d.coords)))
    else:
        inject_static(net, d)
    w, lif_at, cone = site = _screen_site(net, d)
    spikes, diverging = _screen(net, dataset, golden, site, local_hook)
    outs = list(golden.entries)
    if diverging.size:
        if w == lif_at - 1 and net.layers[w].kind is not LayerKind.RECURRENT:
            # Only the cone of L differs: splice it into L's golden spikes.
            lif_spikes = golden.trace[net.layers[lif_at].name][diverging]
            scores = network_forward(
                net, lif_spikes, start=lif_at + 1, splice=(cone, spikes[diverging])
            )
        else:
            hook = make_refresh_hook(d) if d.parameter.is_dynamic else None
            x = _golden_input(net, dataset, golden, w)[diverging]
            scores = network_forward(net, x, hook, start=w)
        for i, row in zip(diverging.tolist(), scores):
            outs[i] = Prediction(i, row, *_top(row))
    return outs


def _write_atomic(path: Path, lines: Iterable[str]) -> None:
    # Readers see the old file or the whole new one, never a torn write.
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(line + "\n" for line in lines)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


# -- golden reference persistence ----------------------------------------------


def write_golden(ref: GoldenReference, path) -> None:
    lines = [
        f"# golden inputs={len(ref.entries)} classes={len(ref.entries[0].scores)}",
        GOLDEN_HEADER,
    ]
    for e in ref.entries:
        vector = ";".join(f32_to_hex(v) for v in e.scores)
        lines.append(f"{e.input_id},{e.top_class},{render_score(e.top_score)},{vector}")
    _write_atomic(Path(path), lines)


def read_golden(path) -> GoldenReference:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"golden file is not UTF-8: {exc}") from None
    lines = [ln for ln in text.split("\n") if ln != ""]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body or body[0] != GOLDEN_HEADER:
        raise FormatError(f"expected golden header '{GOLDEN_HEADER}'")
    entries: list[Prediction] = []
    classes = None
    for lineno, line in enumerate(body[1:], start=2):
        fields = line.split(",")
        if len(fields) != 4:
            raise FormatError(f"expected 4 fields, got {len(fields)}", line=lineno)
        try:
            input_id = int(fields[0])
            top_class = int(fields[1])
        except ValueError as exc:
            raise FormatError(f"bad field: {exc}", line=lineno) from None
        top_score = parse_score(fields[2], line=lineno)
        cells = fields[3].split(";")
        scores = np.empty(len(cells), dtype=np.float32)
        for j, cell in enumerate(cells):
            try:
                scores[j] = hex_to_f32(cell)
            except FormatError as exc:
                raise FormatError(str(exc), line=lineno) from None
        if classes is None:
            classes = len(cells)
        elif len(cells) != classes:
            raise FormatError("score vector length varies between rows", line=lineno)
        want_class, want_score = _top(scores)
        if top_class != want_class or f32_to_hex(top_score) != f32_to_hex(want_score):
            raise FormatError("top class/score disagree with the score vector", line=lineno)
        entries.append(Prediction(input_id, scores, top_class, top_score))
    if not entries:
        raise FormatError("golden reference holds no inputs")
    return GoldenReference(entries)


# -- outcome rows ---------------------------------------------------------------


def _render_row(fid: int, iid: int, golden: Prediction, f_class: int, f_score) -> str:
    return (
        f"{fid},{iid},{golden.top_class},{f_class},"
        f"{render_score(golden.top_score)},{render_score(f_score)}"
    )


def _parse_outcome_line(line: str, lineno: int | None = None) -> OutcomeRow:
    fields = line.split(",")
    if len(fields) != 6:
        raise FormatError(f"expected 6 fields, got {len(fields)}", line=lineno)
    try:
        fid, iid, g_class, f_class = (int(v) for v in fields[:4])
    except ValueError as exc:
        raise FormatError(f"bad field: {exc}", line=lineno) from None
    g_top = parse_score(fields[4], line=lineno)
    f_top = parse_score(fields[5], line=lineno)
    return OutcomeRow(fid, iid, g_class, f_class, g_top, f_top)


def read_outcomes(path) -> list[OutcomeRow]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"outcome file is not UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != OUTCOME_HEADER:
        raise FormatError(f"expected outcome header '{OUTCOME_HEADER}'", line=1)
    return [_parse_outcome_line(line, lineno) for lineno, line in enumerate(lines[1:], start=2)]


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
        try:
            row = _parse_outcome_line(line, lineno)
        except FormatError as exc:
            raise ResumeError(f"corrupt acknowledged outcome row: {exc}") from None
        if row.fault_id not in valid_ids:
            raise ResumeError(f"acknowledged row names unknown fault {row.fault_id}")
        groups.setdefault(row.fault_id, []).append(line)
        inputs.setdefault(row.fault_id, []).append(row.input_id)
    for fid, iids in inputs.items():
        if iids != list(range(k)):
            raise ResumeError(f"fault {fid}: acknowledged inputs {iids}, need 0..{k - 1} once")
    return groups


# -- the campaign loop ------------------------------------------------------------

_WORKER: dict = {}

# The pool gets the pending faults as this many contiguous batches per worker:
# one future per fault makes inter-process traffic the bound once a screened
# fault costs about a millisecond, and a few batches per worker still let a
# worker that drew cheap faults take another batch.
BATCHES_PER_WORKER = 8


def _worker_init(net: Network, dataset: SpikeDataset, golden: GoldenReference) -> None:
    _WORKER["net"] = net
    _WORKER["dataset"] = dataset
    _WORKER["golden"] = golden


def _run_fault(net: Network, d: FaultDescriptor, dataset: SpikeDataset, golden: GoldenReference):
    # (fault_id, replayed inputs, [(input_id, faulty class, faulty top score)]):
    # what record() takes. A screened input's Prediction is the golden one itself.
    outs = run_faulty(net, d, dataset, golden)
    replayed = sum(o is not g for o, g in zip(outs, golden.entries))
    return d.fault_id, replayed, [(o.input_id, o.top_class, o.top_score) for o in outs]


def _worker_run(batch: list[FaultDescriptor]):
    return [_run_fault(_WORKER["net"], d, _WORKER["dataset"], _WORKER["golden"]) for d in batch]


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
    golden_by = golden.by_id()
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

    with open(partial_path, "a", encoding="utf-8", newline="\n") as pf:
        unacknowledged = screened = replayed = 0

        def checkpoint() -> None:
            nonlocal acked
            pf.flush()
            os.fsync(pf.fileno())
            acked = os.fstat(pf.fileno()).st_size
            _write_atomic(ckpt_path, [json.dumps({"log_bytes": acked, **binding})])

        def record(fid: int, n_replayed: int, triples) -> None:
            nonlocal unacknowledged, screened, replayed
            screened += len(triples) - n_replayed
            replayed += n_replayed
            for iid, f_class, f_score in triples:
                pf.write(_render_row(fid, iid, golden_by[iid], f_class, f_score) + "\n")
            unacknowledged += 1
            if unacknowledged >= cfg.checkpoint_every:
                checkpoint()
                unacknowledged = 0

        if cfg.workers == 1:
            for d in pending:
                record(*_run_fault(net, d, dataset, golden))
        elif pending:
            size = -(-len(pending) // (cfg.workers * BATCHES_PER_WORKER))
            batches = [pending[i : i + size] for i in range(0, len(pending), size)]
            pool = ProcessPoolExecutor(
                cfg.workers, initializer=_worker_init, initargs=(net, dataset, golden)
            )
            try:
                for future in as_completed([pool.submit(_worker_run, b) for b in batches]):
                    for result in future.result():
                        record(*result)
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
        _write_atomic(final_path, chain([OUTCOME_HEADER], rows))
        outcomes_path = final_path

    t_merge = time.monotonic()
    wall = t_merge - t0
    summary = {
        "status": status,
        "faults_total": len(valid_ids),
        "faults_completed": len(groups),
        **binding,
        "workers": cfg.workers,
        "wall_seconds": wall,
        "screened_pairs": screened,
        "replayed_pairs": replayed,
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
    _write_atomic(out_dir / "campaign.json", [json.dumps(summary, indent=2)])
    return CampaignResult(
        status=status,
        processed=len(pending),
        total=len(valid_ids),
        wall_seconds=wall,
        out_dir=out_dir,
        golden_path=golden_path,
        outcomes_path=outcomes_path,
    )
