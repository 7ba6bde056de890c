"""Campaign benchmark for snnfault: gen-fl -> inject -> report, end to end.

Run from the repository root:

    python3 bench/run.py --workload fc-static --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --criterion7      # full-size acceptance-criterion-7 hashes

The benchmark drives the public library from outside the package. From
``--seed`` it synthesises a model, a spike dataset and a fault list, then
times the pipeline the CLI runs: ``generate_fault_list``/``write_fault_list``,
``run_campaign``, and ``read_golden``/``read_fault_list``/``read_outcomes``/
``aggregate``/``render_report``. The campaign is measured as a closed loop of
fixed-size chunks of the fault list, one ``run_campaign`` per chunk, in
rounds that run each chunk at --workers 1 and at --workers nproc, for
``--seconds``. Every chunk passes
the correctness gate (see ``check_chunk``) and chunk 0 is recomputed by the
independent reference in ``oracle.py``. Every timing is scaled to a nominal
host speed, measured on a fixed reference loop right before and after the
timed call (see ``hostspeed.py``). The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` (in (fault, input) pairs)
and ``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``. See README.md beside this file for the workloads and
metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

TIMESTEPS = 25
CLASSES = 10
RATE = 0.3
QUANTILE = 2.576  # 99% confidence
DEFAULT_SEED = 0
REPORT_FORMAT = "table"
STEP_SAMPLE_S = 0.2  # gen-fl, set-up and report time sampled after each chunk
CHUNK_PROBES = 3  # reference-loop rounds after a timed chunk; one after any other timed call

# Criterion 7 of tests/test_acceptance.py: fc-static at DEFAULT_SEED uses these
# exact seeds, so its chunk 0 is a prefix of the criterion-7 campaign.
C7_MODEL_SEED, C7_DATA_SEED, C7_FL_SEED = 2026, 9, 77
C7_FAULT_LIST_SHA256 = "bb6a5191d9c63227d4de7315d123c1a30bb191b759031c05a285e409f8f621b2"
C7_OUTCOMES_SHA256 = "b0a06183616040d89144e1e933345f03d052cb661b64f707344e7f25c0f309a1"


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    shape: tuple[int, ...]
    points: tuple[str, ...]
    error_margin: float
    spike_mode: str
    inputs: int  # K: the first K dataset inputs run against every fault
    chunk: int  # faults per measured run_campaign
    min_rounds: int = 3  # rounds of one chunk per worker count


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fc-static", "FC(96->100)-LIF-FC(100->10)-LIF", (96,),
                 ("weight", "bias"), 0.04, "bit", 20, 40),
        Workload("conv-dynamic", "CONV(2x16x16->8,k3)-LIF-POOL(2)-FC(392->10)-LIF", (2, 16, 16),
                 ("potential", "spike"), 0.04, "value", 10, 30),
        Workload("rfc-many-faults", "RFC(32->32)-LIF-FC(32->10)-LIF", (32,),
                 ("weight", "bias", "feedback_weight", "feedback_bias"), 0.01, "bit", 2, 400),
    )
}

# sha256 of chunk 0's outcomes.csv at DEFAULT_SEED (full size, not --tiny).
REFERENCE_OUTCOMES_SHA256 = {
    "fc-static": "ee41703fcfff1e2d84b6c7ff2e5484f40c26d22405d15093574ce170c0ca6598",
    "conv-dynamic": "4821c1dc8cffaf401e668e3b9b24d1347d76b441456038083597f6bdc3b75943",
    "rfc-many-faults": "267730fbd5126418e5474424f67c21bb07eb47f6dc83c541f1cc2ed4c14b4dd2",
}


def _import_library():
    """Import snnfault from this checkout's src/, never from elsewhere."""
    if not (SRC / "snnfault" / "__init__.py").is_file():
        sys.exit(f"bench: error: {SRC}/snnfault not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import snnfault

    if Path(snnfault.__file__).resolve().parent != (SRC / "snnfault").resolve():
        sys.exit(f"bench: error: imported snnfault from {snnfault.__file__}, not {SRC}")


_import_library()

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from snnfault import (  # noqa: E402
    CampaignConfig,
    ParameterKind,
    SamplingSpec,
    SdcClass,
    aggregate,
    apply_bit_stuck,
    generate_fault_list,
    read_fault_list,
    read_golden,
    read_outcomes,
    render_report,
    run_campaign,
    target_tensor,
    write_fault_list,
)
from snnfault.core import network_forward, reset_state  # noqa: E402
from snnfault.dataio import (  # noqa: E402
    f32_to_hex,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    synth_dataset,
    synth_model,
)
from snnfault.faultlist import FaultList  # noqa: E402


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pool_workers() -> int:
    """--workers nproc, and at least 2 so that the pool path always runs."""
    return max(2, len(os.sched_getaffinity(0)))


def median(values) -> float:
    return float(statistics.median(values))


CLOCK = hostspeed.HostClock()


def repeat(fn, min_seconds: float, times: list[float]) -> None:
    """Append the nominal times of fn() calls to times until min_seconds (> 0)
    of wall time have passed. Each call starts from a collected heap, so
    garbage left by the previous call does not land a full collection in
    this one."""
    spent = 0.0
    while spent < min_seconds:
        gc.collect()
        _, wall, nominal = CLOCK.call(fn)
        times.append(nominal)
        spent += wall


# -- inputs ----------------------------------------------------------------------


@dataclass
class Inputs:
    wl: Workload
    dir: Path
    fl_seed: int
    model: Path
    dataset: Path
    fault_list: Path
    fl: FaultList | None = None
    chunks: list[tuple[Path, list]] = field(default_factory=list)
    chunk0_dir: Path | None = None  # outputs of the first run of chunk 0


def make_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    """Synthesise the model and dataset from the seed and derive the fault-list seed."""
    model, dataset = work / "model.sjm", work / "data.sjd"
    save_model(synth_model(C7_MODEL_SEED + seed, wl.arch, TIMESTEPS), model)
    save_dataset(
        synth_dataset(C7_DATA_SEED + seed, wl.inputs, TIMESTEPS, wl.shape, CLASSES, RATE), dataset
    )
    return Inputs(wl, work, C7_FL_SEED + seed, model, dataset, work / "faults.csv")


def gen_fault_list(inp: Inputs, net, gen=generate_fault_list, write=write_fault_list) -> FaultList:
    """`snnfault gen-fl`: sample the workload's fault list and write it."""
    spec = SamplingSpec(error_margin=inp.wl.error_margin, quantile=QUANTILE, seed=inp.fl_seed)
    points = {ParameterKind(p) for p in inp.wl.points}
    fl = gen(net, spec, points, spike_mode=inp.wl.spike_mode)
    write(fl, inp.fault_list)
    return fl


def write_chunks(inp: Inputs) -> None:
    """Chunk i holds faults [i*M, (i+1)*M) of the full list, a uniform sample."""
    fl, m = inp.fl, inp.wl.chunk
    for i in range(max(1, fl.n // m)):
        descriptors = fl.descriptors[i * m : (i + 1) * m]
        path = inp.dir / f"chunk{i}.csv"
        write_fault_list(
            FaultList(descriptors, fl.universe, fl.spec, len(descriptors), fl.polarity, fl.spike_mode),
            path,
        )
        inp.chunks.append((path, descriptors))


# -- correctness gate ----------------------------------------------------------------


@dataclass
class Gate:
    """Counts (fault, input) pairs attempted and failed over a whole run."""

    attempted: int = 0
    failed: int = 0
    golden_bytes: bytes | None = None
    chunk_sha: dict[int, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, pairs: int, why: str) -> None:
        if pairs:
            self.failed += pairs
            self.notes.append(why)


def check_chunk(gate: Gate, index: int, run_dir: Path, fl_path: Path, descriptors, k: int) -> None:
    """Check one chunk's campaign outputs; failing pairs count in gate.failed.

    - the outcome set is exactly |faults| x K unique pairs: missing,
      duplicated and unknown pairs fail;
    - every row's golden columns agree with golden.csv, and golden.csv is
      byte-identical to the first chunk's (which check_oracle verifies);
    - the report partition covers every remaining pair exactly once;
    - a chunk's outcomes.csv has the same bytes in every phase of the run
      (any worker count, traced or not).
    """
    expected = {(d.fault_id, i) for d in descriptors for i in range(k)}
    gate.attempted += len(expected)
    outcomes_path, golden_path = run_dir / "outcomes.csv", run_dir / "golden.csv"
    if not outcomes_path.is_file():
        gate.fail(len(expected), f"chunk {index}: no outcomes.csv")
        return
    golden_bytes = golden_path.read_bytes()
    if gate.golden_bytes is None:
        gate.golden_bytes = golden_bytes
    elif golden_bytes != gate.golden_bytes:
        gate.fail(len(expected), f"chunk {index}: golden.csv differs from the first chunk's")
        return

    golden = read_golden(golden_path)
    by_input = golden.by_id()
    rows = read_outcomes(outcomes_path)
    seen = Counter((r.fault_id, r.input_id) for r in rows)
    good = []
    for r in rows:
        g = by_input.get(r.input_id)
        if (
            seen[(r.fault_id, r.input_id)] == 1
            and (r.fault_id, r.input_id) in expected
            and g is not None
            and r.golden_class == g.top_class
            and f32_to_hex(r.golden_top) == f32_to_hex(g.top_score)
        ):
            good.append(r)
    gate.fail(len(rows) - len(good), f"chunk {index}: duplicated, unknown or golden-contradicting rows")
    gate.fail(len(expected - seen.keys()), f"chunk {index}: missing pairs")
    network = aggregate(good, golden, read_fault_list(fl_path)).network
    covered = sum(network.counts.values()) if network.pairs == len(good) else 0
    gate.fail(len(good) - covered, f"chunk {index}: report partition misses pairs")

    digest = sha256(outcomes_path)
    if index not in gate.chunk_sha:
        gate.chunk_sha[index] = digest
        print(f"chunk {index} outcomes.csv sha256 {digest}", flush=True)
    elif gate.chunk_sha[index] != digest:
        gate.fail(len(expected), f"chunk {index}: outcomes.csv bytes differ between runs")


def _finite_after(net, d) -> bool:
    value = target_tensor(net, d)[d.coords]
    return bool(np.isfinite(apply_bit_stuck(value, d.bit, d.stuck)))


def check_oracle(gate: Gate, inp: Inputs, net, dataset) -> None:
    """Recompute chunk 0, golden scores and every fault, with oracle.py."""
    k = inp.wl.inputs
    spikes = dataset.spikes[:k]
    want = oracle.reference_scores(net, spikes, [None])[0]
    for e in read_golden(inp.chunk0_dir / "golden.csv").entries:
        gate.attempted += 1
        if e.scores.tobytes() != want[e.input_id].tobytes():
            gate.fail(1, f"golden input {e.input_id} differs from the reference")

    rows = {(r.fault_id, r.input_id): r for r in read_outcomes(inp.chunk0_dir / "outcomes.csv")}
    descriptors = inp.chunks[0][1]
    for d, scores in zip(descriptors, oracle.reference_scores(net, spikes, descriptors)):
        for i in range(k):
            top = int(np.argmax(scores[i]))
            r = rows.get((d.fault_id, i))
            gate.attempted += 1
            if r is None or r.faulty_class != top or f32_to_hex(r.faulty_top) != f32_to_hex(
                scores[i][top]
            ):
                gate.fail(1, f"fault {d.fault_id} input {i} differs from the reference")


# -- the measured campaign loop ---------------------------------------------------------


@dataclass
class ChunkRun:
    index: int
    faults: int
    pairs: int
    wall_s: float
    nominal_s: float  # wall_s at the nominal host speed
    parent_cpu_s: float  # os.times() of the benchmark process
    child_cpu_s: float  # os.times() of reaped pool workers


def _cpu(t: os.times_result) -> tuple[float, float]:
    return t.user + t.system, t.children_user + t.children_system


def spanned(tracer: tracing.Tracer | None, name: str, fn):
    """fn itself, or fn recording a span per call when a tracer is given."""
    return fn if tracer is None else tracer.wrap(name, fn)


def run_chunk(inp: Inputs, gate: Gate, index: int, workers: int, campaign, label: str) -> ChunkRun:
    """One run_campaign over chunk `index`, timed, then checked."""
    fl_path, descriptors = inp.chunks[index]
    run_dir = inp.dir / "run"
    cfg = CampaignConfig(inp.model, inp.dataset, fl_path, run_dir, inp.wl.inputs, workers)
    cpu = []

    def timed():
        cpu.append(_cpu(os.times()))
        result = campaign(cfg)
        cpu.append(_cpu(os.times()))
        return result

    gc.collect()
    result, wall, nominal = CLOCK.call(timed, CHUNK_PROBES)
    (parent0, child0), (parent1, child1) = cpu
    if result.status != "complete":
        raise RuntimeError(f"chunk {index}: campaign ended {result.status}")
    check_chunk(gate, index, run_dir, fl_path, descriptors, inp.wl.inputs)
    if inp.chunk0_dir is None:
        inp.chunk0_dir = run_dir.rename(inp.dir / "chunk0-run")
    else:
        shutil.rmtree(run_dir)
    pairs = len(descriptors) * inp.wl.inputs
    print(f"chunk {index}: {pairs} pairs in {wall:.3f} s ({nominal:.3f} nominal) "
          f"at --workers {workers}{label}", flush=True)
    return ChunkRun(index, len(descriptors), pairs, wall, nominal, parent1 - parent0,
                    child1 - child0)


def run_rounds(inp: Inputs, gate: Gate, worker_counts: list[int], budget_s: float,
               min_rounds: int, tracer: tracing.Tracer | None = None,
               between=None) -> dict[int, list[ChunkRun]]:
    """Closed loop of rounds from chunk 0. Round i runs chunk i once at each
    worker count in turn, then ``between()``. Rounds go on until the next
    would overrun budget_s, and at least min_rounds. Interleaving the worker
    counts lets a slow stretch of the host hit all of them alike."""
    campaign = spanned(tracer, "campaign.run_campaign", run_campaign)
    label = " traced" if tracer else ""
    runs: dict[int, list[ChunkRun]] = {w: [] for w in worker_counts}
    round_s: list[float] = []
    t_begin = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        index = len(round_s) % len(inp.chunks)
        for w in worker_counts:
            runs[w].append(run_chunk(inp, gate, index, w, campaign, label))
        if between is not None:
            between()
        round_s.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - t_begin
        if len(round_s) >= min_rounds and elapsed + median(round_s) > budget_s:
            return runs


def pairs_per_s(runs: list[ChunkRun]) -> float:
    return median(r.pairs / r.nominal_s for r in runs)


def report_calls(inp: Inputs, tracer: tracing.Tracer | None = None):
    """The five calls `snnfault report` makes, on chunk 0's outputs."""
    golden = spanned(tracer, "campaign.read_golden", read_golden)(inp.chunk0_dir / "golden.csv")
    fl = spanned(tracer, "faultlist.read_fault_list", read_fault_list)(inp.chunks[0][0])
    outcomes = spanned(tracer, "campaign.read_outcomes", read_outcomes)(
        inp.chunk0_dir / "outcomes.csv"
    )
    rep = spanned(tracer, "report.aggregate", aggregate)(outcomes, golden, fl, fl.universe)
    spanned(tracer, "report.render_report", render_report)(rep, REPORT_FORMAT)
    return rep, outcomes


def setup_once(inp: Inputs, tracer: tracing.Tracer | None = None) -> None:
    """run_campaign(limit=0) on a fresh directory: load, golden run, golden.csv."""
    run_dir = inp.dir / "setup"
    campaign = spanned(tracer, "campaign.run_campaign", run_campaign)
    campaign(CampaignConfig(inp.model, inp.dataset, inp.fault_list, run_dir, inp.wl.inputs), limit=0)
    shutil.rmtree(run_dir)


# -- metrics ---------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def end_to_end(inp: Inputs, net, seconds: float, gate: Gate) -> dict:
    """Rounds of one chunk at --workers 1 and one at --workers nproc. Gen-fl,
    set-up and report samples are taken between rounds, so that every metric
    samples the whole run rather than one burst of it."""
    genfl: list[float] = []
    setup: list[float] = []
    report: list[float] = []

    def between_rounds():
        repeat(lambda: gen_fault_list(inp, net), STEP_SAMPLE_S, genfl)
        repeat(lambda: setup_once(inp), STEP_SAMPLE_S, setup)
        repeat(lambda: report_calls(inp), STEP_SAMPLE_S, report)

    pool = pool_workers()
    runs = run_rounds(inp, gate, [1, pool], seconds, inp.wl.min_rounds, between=between_rounds)
    return {
        "pairs_per_s": metric(pairs_per_s(runs[1]), "1/s"),
        "pool_pairs_per_s": metric(pairs_per_s(runs[pool]), "1/s"),
        "setup_s": metric(median(setup), "s"),
        "genfl_s": metric(median(genfl), "s"),
        "report_s": metric(median(report), "s"),
        "peak_rss_mb": metric(rss_mb(resource.RUSAGE_SELF), "MB"),
        "worker_rss_mb": metric(rss_mb(resource.RUSAGE_CHILDREN), "MB"),
    }


def spike_density(net, dataset, k: int) -> dict[str, float]:
    """Mean golden LIF spike output per layer, read through a refresh hook."""
    sums: Counter = Counter()
    sizes: Counter = Counter()

    def observe(layer, kind, tensor):
        if kind == "spike":
            sums[layer] += float(tensor.sum())
            sizes[layer] += tensor.size

    run = net.copy()
    for i in range(k):
        reset_state(run)
        network_forward(run, dataset.sample(i).spikes, refresh=observe)
    return {layer: sums[layer] / sizes[layer] for layer in sizes}


def per_layer(inp: Inputs, net, dataset, seconds: float, gate: Gate) -> dict:
    """One traced pass over every pipeline step, plus the untraced pool and
    serial runs the CPU and tracing-overhead figures compare against."""
    k = inp.wl.inputs
    t_gen = tracing.Tracer()
    gen_fault_list(inp, net, t_gen.wrap("faultlist.generate_fault_list", generate_fault_list),
                   t_gen.wrap("faultlist.write_fault_list", write_fault_list))
    t_setup = tracing.Tracer()
    with tracing.installed(t_setup):
        setup_once(inp, t_setup)

    untraced = run_rounds(inp, gate, [1, pool_workers()], seconds * 2 / 3, 1)
    serial, pool = untraced[1], untraced[pool_workers()]
    t_run = tracing.Tracer()
    with tracing.installed(t_run):
        traced = run_rounds(inp, gate, [1], seconds / 3, 1, t_run)[1]
    t_rep = tracing.Tracer()
    with tracing.installed(t_rep):
        rep, outcomes = report_calls(inp, t_rep)
    t_run.save(WORK / f"spans-{inp.wl.name}.npz")

    def span(spans, name):
        return spans.get(name, tracing.NO_SPANS)

    m: dict[str, dict] = {}
    s = t_run.spans()
    nf = span(s, "core.network_forward")
    campaign = span(s, "campaign.run_campaign")
    faults_run = sum(r.faults for r in traced)
    kernel_self_s = 0.0
    for kernel in tracing.KERNELS:
        ks = span(s, f"core.{kernel}")
        m[f"core.{kernel}.calls"] = metric(ks.calls / nf.calls, "1/inference")
        m[f"core.{kernel}.self_us"] = metric(ks.mean_us(self_time=True), "us")
        kernel_self_s += ks.total_s(self_time=True)
    m["core.network_forward.ms_p50"] = metric(nf.pct_ms(50), "ms")
    m["core.network_forward.ms_p99"] = metric(nf.pct_ms(99), "ms")
    m["core.network_forward.samples"] = metric(nf.calls, "count")
    m["core.kernel_share"] = metric(kernel_self_s / campaign.total_s(), "ratio")
    m["core.Network.copy.us"] = metric(span(s, "core.Network.copy").mean_us(), "us")
    m["core.reset_state.us"] = metric(span(s, "core.reset_state").mean_us(), "us")
    m["faults.inject_static.us"] = metric(span(s, "faults.inject_static").mean_us(), "us")
    m["faults.target_tensor.us"] = metric(span(s, "faults.target_tensor").mean_us(), "us")
    dynamic_inferences = k * sum(
        sum(d.parameter.is_dynamic for d in inp.chunks[r.index][1]) for r in traced
    )
    hook = span(s, "faults.refresh_hook")
    m["faults.refresh_hook.calls_per_inference"] = metric(
        hook.calls / dynamic_inferences if dynamic_inferences else 0.0, "1/inference"
    )
    m["faults.refresh_hook.self_us"] = metric(hook.mean_us(self_time=True), "us")
    rf = span(s, "campaign.run_faulty")
    m["campaign.run_faulty.ms_p50"] = metric(rf.pct_ms(50), "ms")
    m["campaign.run_faulty.ms_p99"] = metric(rf.pct_ms(99), "ms")
    m["campaign.run_faulty.samples"] = metric(rf.calls, "count")
    m["campaign.run_campaign.self_ms_per_fault"] = metric(
        campaign.total_s(self_time=True) * 1e3 / faults_run, "ms"
    )

    pool_faults = sum(r.faults for r in pool)
    parent_cpu = sum(r.parent_cpu_s for r in pool)
    child_cpu = sum(r.child_cpu_s for r in pool)
    m["campaign.parent_cpu_ms_per_fault"] = metric(parent_cpu * 1e3 / pool_faults, "ms")
    m["campaign.worker_cpu_ms_per_fault"] = metric(child_cpu * 1e3 / pool_faults, "ms")
    m["campaign.cpu_util"] = metric((parent_cpu + child_cpu) / sum(r.wall_s for r in pool), "cores")
    untraced, with_spans = pairs_per_s(serial), pairs_per_s(traced)
    m["campaign.pairs_per_s_untraced_serial"] = metric(untraced, "1/s")
    m["campaign.pairs_per_s_traced_serial"] = metric(with_spans, "1/s")
    m["campaign.trace_overhead"] = metric(untraced / with_spans, "ratio")

    su = t_setup.spans()
    m["campaign.run_golden.s"] = metric(span(su, "campaign.run_golden").total_s(), "s")
    m["dataio.load_model.ms"] = metric(span(su, "dataio.load_model").total_s() * 1e3, "ms")
    m["dataio.load_dataset.ms"] = metric(span(su, "dataio.load_dataset").total_s() * 1e3, "ms")
    m["faultlist.read_fault_list.s"] = metric(span(su, "faultlist.read_fault_list").total_s(), "s")
    sg = t_gen.spans()
    m["faultlist.generate_fault_list.s"] = metric(
        span(sg, "faultlist.generate_fault_list").total_s(), "s"
    )
    m["faultlist.write_fault_list.s"] = metric(span(sg, "faultlist.write_fault_list").total_s(), "s")
    sr = t_rep.spans()
    rows = len(outcomes)
    parse, classify = span(sr, "dataio.parse_score"), span(sr, "classify.classify_pair")
    m["campaign.read_outcomes.s"] = metric(span(sr, "campaign.read_outcomes").total_s(), "s")
    m["dataio.parse_score.calls"] = metric(parse.calls / rows, "1/row")
    m["dataio.parse_score.us"] = metric(parse.mean_us(), "us")
    m["classify.classify_pair.calls"] = metric(classify.calls / rows, "1/row")
    m["classify.classify_pair.us"] = metric(classify.mean_us(), "us")
    m["report.aggregate.self_s"] = metric(span(sr, "report.aggregate").total_s(self_time=True), "s")
    m["report.render_report.ms"] = metric(span(sr, "report.render_report").total_s() * 1e3, "ms")

    # Workload properties later optimisations depend on, each with its base.
    identical = sum(
        r.faulty_class == r.golden_class and f32_to_hex(r.faulty_top) == f32_to_hex(r.golden_top)
        for r in outcomes
    )
    m["campaign.property_pairs"] = metric(rows, "count")
    m["campaign.masked_share"] = metric(rep.network.counts.get(SdcClass.MASKED, 0) / rows, "ratio")
    m["campaign.bit_identical_share"] = metric(identical / rows, "ratio")
    for layer, density in spike_density(net, dataset, k).items():
        m[f"core.spike_density.{layer}"] = metric(density, "ratio")
    static = [d for d in inp.fl.descriptors if d.parameter.is_static]
    nonfinite = sum(not _finite_after(net, d) for d in static)
    m["faults.total_faults"] = metric(inp.fl.n, "count")
    m["faults.static_faults"] = metric(len(static), "count")
    m["faults.nonfinite_share"] = metric(nonfinite / len(static) if static else 0.0, "ratio")
    m["faults.dynamic_share"] = metric((inp.fl.n - len(static)) / inp.fl.n, "ratio")
    return m


# -- entry points ----------------------------------------------------------------------


def criterion7() -> int:
    """Full-size acceptance-criterion-7 campaign: both recorded hashes must match."""
    wl = WORKLOADS["fc-static"]
    work = Path(tempfile.mkdtemp(prefix="criterion7-", dir=WORK))
    try:
        inp = make_inputs(wl, DEFAULT_SEED, work)
        gen_fault_list(inp, load_model(inp.model))
        fl_sha = sha256(inp.fault_list)
        t0 = time.perf_counter()
        run_campaign(CampaignConfig(inp.model, inp.dataset, inp.fault_list, work / "run",
                                    wl.inputs, pool_workers()))
        wall = time.perf_counter() - t0
        outcomes = (work / "run" / "outcomes.csv").read_bytes()
        out_sha = hashlib.sha256(outcomes).hexdigest()
        # fc-static's chunk 0 is the first wl.chunk faults of this campaign.
        prefix = b"".join(outcomes.splitlines(keepends=True)[: 1 + wl.chunk * wl.inputs])
        prefix_sha = hashlib.sha256(prefix).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"fault list   sha256 {fl_sha} (want {C7_FAULT_LIST_SHA256})")
    print(f"outcomes.csv sha256 {out_sha} (want {C7_OUTCOMES_SHA256})")
    print(f"first {wl.chunk} faults sha256 {prefix_sha} "
          f"(fc-static chunk 0 reference {REFERENCE_OUTCOMES_SHA256[wl.name]})")
    print(f"campaign wall {wall:.1f} s at --workers {pool_workers()}")
    ok = (fl_sha, out_sha, prefix_sha) == (
        C7_FAULT_LIST_SHA256, C7_OUTCOMES_SHA256, REFERENCE_OUTCOMES_SHA256[wl.name]
    )
    print("criterion 7 hashes: " + ("match" if ok else "MISMATCH"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0, help="campaign measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: traced per-layer metrics")
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes; posts no reference hash")
    ap.add_argument("--criterion7", action="store_true",
                    help="run the full criterion-7 campaign and check its recorded hashes")
    args = ap.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    if args.criterion7:
        return criterion7()
    if args.workload is None:
        ap.error("--workload is required")
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = replace(wl, error_margin=0.3, inputs=2, chunk=4, min_rounds=1)

    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    gate = Gate()
    try:
        inp = make_inputs(wl, args.seed, work)
        net, dataset = load_model(inp.model), load_dataset(inp.dataset)
        inp.fl = gen_fault_list(inp, net)
        write_chunks(inp)
        if args.trace:
            metrics = per_layer(inp, net, dataset, args.seconds, gate)
        else:
            metrics = end_to_end(inp, net, args.seconds, gate)
        check_oracle(gate, inp, net, dataset)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in gate.notes:
        print(f"gate: {note}")
    print(CLOCK.summary())
    chunk0 = gate.chunk_sha[0]
    print(f"seed {args.seed}: chunk 0 outcomes.csv sha256 {chunk0}")
    if args.seed == DEFAULT_SEED and not args.tiny and chunk0 != REFERENCE_OUTCOMES_SHA256[wl.name]:
        print(f"bench: error: {wl.name} chunk 0 outcomes.csv sha256 {chunk0} != recorded "
              f"{REFERENCE_OUTCOMES_SHA256[wl.name]}; the engine computes something else",
              file=sys.stderr)
        return 1
    if not args.trace:
        metrics["pass_ratio"] = metric((gate.attempted - gate.failed) / gate.attempted, "ratio")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
