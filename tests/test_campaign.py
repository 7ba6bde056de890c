"""Campaign engine: golden reference, outcome files, checkpoint/resume."""

import ast
import json
import math
import os
from collections import Counter
from concurrent.futures import Future
import platform
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import snnfault
from helpers import (
    MALFORMED_INTEGERS,
    Killed,
    TornFile,
    bits_of,
    f32_from_bits,
    injected_forward,
    tear_writes,
    two_layer_net,
)
from snnfault import campaign, cli, core, dataio, faults as faults_module
from snnfault.campaign import (
    CampaignConfig,
    GOLDEN_HEADER,
    GoldenReference,
    OUTCOME_BLOCK_ROWS,
    OUTCOME_HEADER,
    Prediction,
    _top,
    read_golden,
    read_outcomes,
    run_campaign,
    run_faulty,
    run_golden,
    write_golden,
)
from snnfault.core import DTYPE, LayerKind, Network
from snnfault.dataio import f32_to_hex, save_dataset, save_model, synth_dataset, synth_model
from snnfault.errors import AddressError, FormatError, ResumeError
from snnfault.faultlist import (
    FaultList,
    SamplingSpec,
    enumerate_universe,
    generate_fault_list,
    read_fault_list,
    write_fault_list,
)
from snnfault.faults import FaultDescriptor, FaultMode, ParameterKind

ARCH = "FC(6->5)-LIF-FC(5->3)-LIF"
T = 6
K = 4  # dataset samples
POINTS = {ParameterKind.WEIGHT, ParameterKind.BIAS}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Model, dataset, and a ~40-fault list shared by the campaign tests."""
    d = tmp_path_factory.mktemp("campaign")
    net = synth_model(seed=31, arch=ARCH, timesteps=T)
    ds = synth_dataset(seed=32, samples=K, timesteps=T, shape=(6,), classes=3, firing_rate=0.5)
    save_model(net, d / "m.sjm")
    save_dataset(ds, d / "d.sjd")
    spec = SamplingSpec(error_margin=0.2, quantile=2.576, seed=33)
    fl = generate_fault_list(net, spec, POINTS)
    write_fault_list(fl, d / "fl.csv")
    return d, net, ds, fl


def cfg_for(workdir_tuple, out, **kw):
    d = workdir_tuple[0]
    base = dict(
        model=d / "m.sjm",
        dataset=d / "d.sjd",
        fault_list=d / "fl.csv",
        out_dir=d / out,
    )
    base.update(kw)
    return CampaignConfig(**base)


@pytest.fixture
def pool_always_pays(monkeypatch):
    """A pool costs nothing, so every run that can start two workers starts
    them: the tests' short lists would otherwise run in-process."""
    monkeypatch.setattr(campaign, "POOL_COST_SECONDS", 0.0)


# -- golden reference ---------------------------------------------------------


def test_top_breaks_ties_toward_lowest_class():
    assert _top(np.array([1.0, 3.0, 3.0], np.float32)) == (1, np.float32(3.0))
    assert _top(np.array([0.0, 0.0], np.float32)) == (0, np.float32(0.0))


def test_golden_is_deterministic_and_round_trips(workdir, tmp_path):
    _, net, ds, _ = workdir
    a = run_golden(net.copy(), ds)
    b = run_golden(net.copy(), ds)
    for ea, eb in zip(a.entries, b.entries):
        assert ea.scores.tobytes() == eb.scores.tobytes()
    p = tmp_path / "golden.csv"
    write_golden(a, p)
    back = read_golden(p)
    assert len(back.entries) == K
    for ea, eb in zip(a.entries, back.entries):
        assert ea.input_id == eb.input_id
        assert ea.top_class == eb.top_class
        assert bits_of(ea.top_score) == bits_of(eb.top_score)
        assert ea.scores.tobytes() == eb.scores.tobytes()


def test_golden_reader_rejects_inconsistent_rows(workdir, tmp_path):
    _, net, ds, _ = workdir
    ref = run_golden(net.copy(), ds)
    p = tmp_path / "golden.csv"
    write_golden(ref, p)
    lines = p.read_text().splitlines()
    # swap the recorded top_class to disagree with the stored vector
    body_i = next(i for i, ln in enumerate(lines) if ln and ln[0].isdigit())
    cells = lines[body_i].split(",")
    cells[1] = str((int(cells[1]) + 1) % 3)
    lines[body_i] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        read_golden(p)


def test_run_faulty_leaves_template_untouched(workdir):
    _, net, ds, fl = workdir
    before = {
        (s.name, k): v.tobytes() for s in net.layers for k, v in s.params.items()
    }
    d = FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0, 0), 30, 1)
    run_faulty(net, d, ds)
    after = {(s.name, k): v.tobytes() for s in net.layers for k, v in s.params.items()}
    assert before == after


# -- end-to-end campaign --------------------------------------------------------


def test_campaign_complete_row_coverage(workdir):
    _, _, _, fl = workdir
    cfg = cfg_for(workdir, "run_cov")
    res = run_campaign(cfg)
    assert res.status == "complete"
    rows = read_outcomes(res.outcomes_path)
    assert len(rows) == fl.n * K
    assert {(r.fault_id, r.input_id) for r in rows} == {
        (f, i) for f in range(fl.n) for i in range(K)
    }
    # sorted by (fault_id, input_id)
    assert [(r.fault_id, r.input_id) for r in rows] == sorted(
        (r.fault_id, r.input_id) for r in rows
    )


@pytest.mark.usefixtures("pool_always_pays")
def test_campaign_worker_pool_byte_identity(workdir):
    r1 = run_campaign(cfg_for(workdir, "run_w1", workers=1))
    r2 = run_campaign(cfg_for(workdir, "run_w2", workers=2))
    assert r1.outcomes_path.read_bytes() == r2.outcomes_path.read_bytes()
    assert r1.golden_path.read_bytes() == r2.golden_path.read_bytes()


def test_campaign_kill_and_resume_byte_identity(workdir):
    straight = run_campaign(cfg_for(workdir, "run_straight"))
    killed = run_campaign(cfg_for(workdir, "run_kill", checkpoint_every=7), limit=17)
    assert killed.status == "partial"
    resumed = run_campaign(cfg_for(workdir, "run_kill", checkpoint_every=7, resume=True))
    assert resumed.status == "complete"
    assert resumed.outcomes_path.read_bytes() == straight.outcomes_path.read_bytes()


def test_merge_reads_the_log_only_on_resume(workdir, monkeypatch):
    """outcomes.csv is the log's bytes, each fault's run copied in fault-id
    order without parsing: a fresh run never parses the log, and a resume
    parses it once, for the fault ids and byte lengths acknowledged before
    it. Both give an uninterrupted run's bytes."""
    reads, read_log = [], campaign._read_log
    monkeypatch.setattr(campaign, "_read_log", lambda *args: reads.append(1) or read_log(*args))
    straight = run_campaign(cfg_for(workdir, "merge_straight", checkpoint_every=7))
    assert straight.status == "complete" and reads == []
    run_campaign(cfg_for(workdir, "merge_kill", checkpoint_every=7), limit=17)
    assert reads == []
    resumed = run_campaign(cfg_for(workdir, "merge_kill", checkpoint_every=7, resume=True))
    assert resumed.status == "complete" and reads == [1]
    assert resumed.outcomes_path.read_bytes() == straight.outcomes_path.read_bytes()


def test_campaign_holds_one_copy_of_its_outcomes(workdir, tmp_path):
    """Over 34 batches, run_campaign's peak stays near one copy of
    outcomes.csv, the log it reads back to merge, plus a fixed allowance:
    no row is held as text while the faults run."""
    d, net, _, _ = workdir
    ds = synth_dataset(seed=32, samples=32, timesteps=T, shape=(6,), classes=3, firing_rate=0.5)
    save_dataset(ds, tmp_path / "d.sjd")
    spec = SamplingSpec(error_margin=0.2, quantile=2.576, seed=33, exhaustive=True)
    fl = generate_fault_list(net, spec, POINTS)
    write_fault_list(fl, tmp_path / "fl.csv")
    cfg = CampaignConfig(d / "m.sjm", tmp_path / "d.sjd", tmp_path / "fl.csv", tmp_path / "out",
                         checkpoint_every=50)
    tracemalloc.start()
    try:
        res = run_campaign(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fl.n == 1696 and res.status == "complete"
    size = res.outcomes_path.stat().st_size  # 2 MB, 54,272 rows
    assert peak < 1.25 * size + (1 << 20)


def test_resume_refuses_interleaved_fault_rows(workdir, capsys):
    """The merge copies each fault's rows as one run of the log, so a log
    whose acknowledged rows alternate between two faults is refused, though
    each fault's inputs are complete; the CLI exits 4."""
    out = _state_dir(workdir, "rs_interleaved")
    partial = out / "outcomes.partial.csv"
    lines = partial.read_text().splitlines()
    lines[: 2 * K] = [line for pair in zip(lines[:K], lines[K : 2 * K]) for line in pair]
    partial.write_text("".join(line + "\n" for line in lines))
    _acknowledge_whole_log(out)
    message = r"fault 0: acknowledged rows are not consecutive \(line 3\)"
    with pytest.raises(ResumeError, match=f"^{message}$"):
        run_campaign(cfg_for(workdir, "rs_interleaved", checkpoint_every=3, resume=True))
    d = workdir[0]
    assert cli.dispatch(["inject", "--model", str(d / "m.sjm"), "--dataset", str(d / "d.sjd"),
                         "--fl", str(d / "fl.csv"), "--out", str(out), "--resume"]) == 4
    assert "ResumeError: fault 0: acknowledged rows are not consecutive" in capsys.readouterr().err


def test_campaign_resume_with_nothing_done_runs_all(workdir):
    out = cfg_for(workdir, "run_resume_fresh", resume=True)
    res = run_campaign(out)
    assert res.status == "complete"


def test_golden_cells_are_rendered_only_when_a_batch_is_pending(workdir, monkeypatch):
    """A run with pending faults renders the golden outcome cells once; a
    run with none (limit=0, or a resume with every fault done) never."""
    calls, cells = [], campaign._golden_cells
    monkeypatch.setattr(campaign, "_golden_cells", lambda golden: calls.append(1) or cells(golden))
    assert run_campaign(cfg_for(workdir, "run_cells"), limit=0).status == "partial"
    assert calls == []
    assert run_campaign(cfg_for(workdir, "run_cells", resume=True)).status == "complete"
    assert calls == [1]
    assert run_campaign(cfg_for(workdir, "run_cells", resume=True)).status == "complete"
    assert calls == [1]


def test_campaign_dirty_dir_without_resume_rejected(workdir):
    cfg = cfg_for(workdir, "run_dirty")
    run_campaign(cfg, limit=3)
    with pytest.raises(ResumeError):
        run_campaign(cfg_for(workdir, "run_dirty"))


def test_campaign_subset_restricts_inputs(workdir):
    res = run_campaign(cfg_for(workdir, "run_subset", subset=2))
    rows = read_outcomes(res.outcomes_path)
    assert {r.input_id for r in rows} == {0, 1}
    golden = read_golden(res.golden_path)
    assert len(golden.entries) == 2


def test_torn_final_write_leaves_no_outcomes(workdir, monkeypatch):
    straight = run_campaign(cfg_for(workdir, "tw_straight"))
    reference = straight.outcomes_path.read_bytes()
    real_open = open

    def torn_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        if Path(file).name.startswith("outcomes.csv") and "w" in mode:
            return TornFile(f, len(reference) // 2)
        return f

    monkeypatch.setattr(dataio, "open", torn_open, raising=False)  # write_atomic's module
    with pytest.raises(Killed):
        run_campaign(cfg_for(workdir, "tw_killed"))
    monkeypatch.undo()
    out = cfg_for(workdir, "tw_killed").out_dir
    assert not (out / "outcomes.csv").exists()
    resumed = run_campaign(cfg_for(workdir, "tw_killed", resume=True))
    assert resumed.outcomes_path.read_bytes() == reference


def test_torn_write_leaves_no_temporary_file(workdir, monkeypatch):
    reference = run_campaign(cfg_for(workdir, "tmp_straight")).outcomes_path.read_bytes()
    tear_writes(monkeypatch, "outcomes.csv", len(reference) // 2)
    with pytest.raises(Killed):
        run_campaign(cfg_for(workdir, "tmp_torn"))
    monkeypatch.undo()
    out = cfg_for(workdir, "tmp_torn").out_dir
    assert not list(out.glob("*.tmp")) and not (out / "outcomes.csv").exists()


def test_resume_clears_stale_temporary_files_and_a_refused_run_keeps_them(workdir):
    """What a writer killed mid-write leaves goes once a run's state checks
    pass; a run they refuse deletes nothing."""
    cfg = cfg_for(workdir, "tmp_stale")
    run_campaign(cfg, limit=3)
    stale = [cfg.out_dir / f"{name}.tmp" for name in ("outcomes.csv", "campaign.json")]
    for path in stale:
        path.write_bytes(b"torn")
    with pytest.raises(ResumeError):  # campaign state, but no --resume
        run_campaign(cfg)
    assert all(path.read_bytes() == b"torn" for path in stale)
    # a resume that runs nothing writes no outcomes.csv: only the clean-up removes its .tmp
    assert run_campaign(replace(cfg, resume=True), limit=0).status == "partial"
    assert not list(cfg.out_dir.glob("*.tmp"))


# A CLI run whose pool worker dies outright (as under the OOM killer) when it
# reaches the batch that holds one fault; workers fork from this process, so
# they see the patch.
_DYING_WORKER = """
import os, sys
from snnfault import campaign, cli

run_batch = campaign._run_batch
os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs, so the pool starts on any host
campaign.POOL_COST_SECONDS = 0.0  # and it pays, though the list is short

def dying(net, batch, *args):
    if any(d.fault_id == int(sys.argv[1]) for d in batch):
        os._exit(9)
    return run_batch(net, batch, *args)

campaign._run_batch = dying
sys.exit(cli.dispatch(sys.argv[2:]))
"""


def test_dead_worker_raises_and_stays_resumable(workdir):
    d, _, _, fl = workdir
    out = d / "dead_worker"
    victim = fl.descriptors[len(fl.descriptors) // 2].fault_id
    args = ["inject", "--model", str(d / "m.sjm"), "--dataset", str(d / "d.sjd"),
            "--fl", str(d / "fl.csv"), "--workers", "2", "--checkpoint-every", "1",
            "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(campaign.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _DYING_WORKER, str(victim), *args],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("snnfault: error: WorkerError: a campaign worker died")
    assert not (out / "outcomes.csv").exists()
    resumed = run_campaign(cfg_for(workdir, "dead_worker", resume=True))
    straight = run_campaign(cfg_for(workdir, "dead_worker_straight"))
    assert resumed.outcomes_path.read_bytes() == straight.outcomes_path.read_bytes()


def test_campaign_json_explains_the_run(workdir):
    res = run_campaign(cfg_for(workdir, "explained", subset=3, checkpoint_every=5))
    summary = json.loads((res.out_dir / "campaign.json").read_text())
    checkpoint = json.loads((res.out_dir / "checkpoint.txt").read_text())
    del checkpoint["log_bytes"]
    assert checkpoint["inputs"] == 3
    assert {key: summary[key] for key in checkpoint} == checkpoint
    phases = summary["phase_seconds"]
    assert list(phases) == ["load", "golden", "faults", "merge"]
    assert all(v >= 0 for v in phases.values())
    assert sum(phases.values()) == pytest.approx(summary["wall_seconds"])
    pairs = summary["screened_pairs"] + summary["replayed_pairs"]
    assert pairs == summary["faults_completed"] * 3
    assert 0 < summary["replayed_pairs"] < pairs  # the screen settles some pairs, not all
    assert 0 < summary["noop_faults"] < summary["faults_completed"]
    sites = summary["sites"]
    assert set(sites) == {f"{d.layer}.{d.parameter.value}" for d in workdir[3].descriptors}
    totals = {"faults": summary["faults_completed"], "noop_faults": summary["noop_faults"],
              "screened_pairs": summary["screened_pairs"],
              "replayed_pairs": summary["replayed_pairs"]}
    assert {key: sum(c[key] for c in sites.values()) for key in totals} == totals
    assert summary["workers_started"] == 0  # the serial path runs in this process
    keys = list(summary)
    assert keys[keys.index("workers_started") + 1 :][:2] == ["golden_forward_seconds",
                                                             "fault_seconds_estimate"]
    assert 0 < summary["golden_forward_seconds"] <= phases["golden"]  # run_golden alone
    assert summary["fault_seconds_estimate"] == pytest.approx(
        summary["faults_completed"] * summary["golden_forward_seconds"] * campaign.FAULT_FORWARD_SHARE
    )
    assert summary["faults_per_worker"] == [summary["faults_completed"]]
    assert summary["golden_trace_bytes"] == 3 * T * (5 + 3)  # both LIF layers' spikes, as bool
    assert summary["fault_pairs_per_s"] == pytest.approx(pairs / phases["faults"])
    loads = summary["load_seconds"]  # within the load phase
    assert list(loads) == ["model", "dataset", "fault_list", "hashes"]
    assert all(v >= 0 for v in loads.values()) and sum(loads.values()) <= phases["load"]
    seconds = summary["fault_seconds"]  # within the serial fault phase
    assert list(seconds) == ["screen", "replay"]
    assert summary["replay_forwards"] > 0 and all(v > 0 for v in seconds.values())
    assert sum(seconds.values()) <= phases["faults"]
    assert summary["versions"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "snnfault": snnfault.__version__,
    }
    # a resume with every fault done runs no batch: no forward, no second spent
    res = run_campaign(cfg_for(workdir, "explained", subset=3, checkpoint_every=5, resume=True))
    summary = json.loads((res.out_dir / "campaign.json").read_text())
    assert summary["replay_forwards"] == 0
    assert summary["fault_seconds"] == {"screen": 0.0, "replay": 0.0}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.usefixtures("pool_always_pays")
def test_campaign_json_counts_faults_per_worker(workdir, workers):
    """faults_per_worker holds one count per started worker, one on the
    serial path, and sums to the faults the run processed, also on resume."""
    cfg = cfg_for(workdir, f"per_worker_{workers}", workers=workers)
    for run in (lambda: run_campaign(cfg, limit=7), lambda: run_campaign(replace(cfg, resume=True))):
        res = run()
        summary = json.loads((res.out_dir / "campaign.json").read_text())
        counts = summary["faults_per_worker"]
        assert len(counts) == max(1, summary["workers_started"])
        assert sum(counts) == res.processed > 0
    assert res.status == "complete" and res.processed == res.total - 7


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.usefixtures("pool_always_pays")
def test_campaign_json_counts_replay_forwards_and_argv(workdir, workers, monkeypatch):
    """campaign.json holds the command line that ran the campaign, and next
    to replayed_pairs the stacked forwards that replayed them: as many as
    run_faulty runs over the same batches, whichever process runs them."""
    _, net, ds, fl = workdir
    argv = ["snnfault", "run", "--workers", str(workers), "--checkpoint-every", "5"]
    monkeypatch.setattr(sys, "argv", argv)
    res = run_campaign(cfg_for(workdir, f"forwards_{workers}", workers=workers,
                               checkpoint_every=5))
    summary = json.loads((res.out_dir / "campaign.json").read_text())
    assert summary["argv"] == argv
    keys = list(summary)
    assert keys.index("replay_forwards") == keys.index("replayed_pairs") + 1
    golden, tally = run_golden(net.copy(), ds), {}
    for i in range(0, fl.n, 5):  # the batches of both worker counts: fl.n / 2 > 5
        run_faulty(net, fl.descriptors[i : i + 5], ds, golden, tally)
    assert 0 < summary["replay_forwards"] == tally["replay_forwards"] < summary["replayed_pairs"]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor and starts no process: records the
    worker count asked for and each batch's size, and runs each batch here."""

    started: list[int] = []
    batches: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def submit(self, fn, batch):
        self.batches.append(len(batch))
        future = Future()
        future.set_result(fn(batch))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def _record_pool(monkeypatch):
    """Runs pools as _RecordingPool, with three usable CPUs."""
    monkeypatch.setattr(campaign, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(_RecordingPool, "batches", [])


@pytest.mark.usefixtures("pool_always_pays")
def test_pool_starts_no_more_workers_than_cpus_or_batches(workdir, monkeypatch):
    serial = run_campaign(cfg_for(workdir, "pool_serial")).outcomes_path.read_bytes()
    _record_pool(monkeypatch)
    res = run_campaign(cfg_for(workdir, "pool_capped", workers=5000))
    assert res.outcomes_path.read_bytes() == serial
    summary = json.loads((res.out_dir / "campaign.json").read_text())
    assert (summary["workers"], summary["workers_started"]) == (5000, 3)
    run_campaign(cfg_for(workdir, "pool_two_faults", workers=5000), limit=2)  # two batches
    assert _RecordingPool.started == [3, 2]


@pytest.mark.usefixtures("pool_always_pays")
def test_a_pool_of_one_runs_in_process(workdir, monkeypatch):
    """A run that could start only one worker, for one usable CPU or one
    pending batch, builds no pool: it runs in this process, as --workers 1
    does, with the serial run's bytes, and says so in campaign.json."""
    serial = run_campaign(cfg_for(workdir, "one_serial")).outcomes_path.read_bytes()
    _record_pool(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    res = run_campaign(cfg_for(workdir, "one_cpu", workers=4))
    assert res.outcomes_path.read_bytes() == serial
    summary = json.loads((res.out_dir / "campaign.json").read_text())
    assert (summary["workers"], summary["workers_started"]) == (4, 0)
    assert summary["faults_per_worker"] == [res.total]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    res = run_campaign(cfg_for(workdir, "one_batch", workers=4), limit=1)
    summary = json.loads((res.out_dir / "campaign.json").read_text())
    assert (summary["workers_started"], summary["faults_per_worker"]) == (0, [1])
    assert _RecordingPool.started == []


@pytest.mark.usefixtures("pool_always_pays")
def test_pool_without_cpu_affinity_is_capped_by_cpu_count(workdir, monkeypatch):
    """Where os has no sched_getaffinity (macOS, Windows), the pool is capped
    by os.cpu_count() instead."""
    monkeypatch.setattr(campaign, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_RecordingPool, "started", [])
    res = run_campaign(cfg_for(workdir, "pool_no_affinity", workers=8))
    assert res.status == "complete"
    assert _RecordingPool.started == [3]


@pytest.mark.usefixtures("pool_always_pays")
def test_pool_gives_each_worker_one_batch_of_a_short_list(workdir, monkeypatch):
    """n <= workers x checkpoint_every: one batch per started worker, an even share each."""
    n = workdir[3].n
    _record_pool(monkeypatch)
    run_campaign(cfg_for(workdir, "pool_short", workers=3, checkpoint_every=100))
    share = -(-n // 3)
    assert _RecordingPool.started == [3]
    assert _RecordingPool.batches == [share, share, n - 2 * share]


@pytest.mark.usefixtures("pool_always_pays")
def test_pool_runs_a_long_list_in_batches_of_checkpoint_every(workdir, monkeypatch):
    n, every = workdir[3].n, 5
    assert n > 3 * every
    _record_pool(monkeypatch)
    run_campaign(cfg_for(workdir, "pool_long", workers=3, checkpoint_every=every))
    assert _RecordingPool.started == [3]
    assert _RecordingPool.batches == [min(every, n - i) for i in range(0, n, every)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.usefixtures("pool_always_pays")
def test_campaign_json_records_the_batch_size(workdir, monkeypatch, workers):
    """batch_faults is the most faults per batch the run cut: checkpoint_every,
    or, when smaller, an even share per worker of the faults this run
    processes, a limit included."""
    n = workdir[3].n
    _record_pool(monkeypatch)
    sizes, real = [], campaign.run_faulty
    monkeypatch.setattr(campaign, "run_faulty",
                        lambda net, batch, *args: sizes.append(len(batch)) or real(net, batch, *args))
    for name, every, limit, want in (("long", 5, None, 5), ("short", 100, None, -(-n // workers)),
                                     ("limited", 100, 7, -(-7 // workers))):
        sizes.clear()
        cfg = cfg_for(workdir, f"batch_{name}_{workers}", workers=workers, checkpoint_every=every)
        res = run_campaign(cfg, limit=limit)
        summary = json.loads((res.out_dir / "campaign.json").read_text())
        assert summary["batch_faults"] == want == max(sizes), name
    assert n > 2 * 5 and _RecordingPool.started == ([] if workers == 1 else [2, 2, 2])


_COUNTS = ("noop_faults", "screened_pairs", "replayed_pairs")


def _summary(res) -> dict:
    return json.loads((res.out_dir / "campaign.json").read_text())


def test_a_short_list_at_two_workers_runs_as_the_serial_run(workdir, monkeypatch):
    """With two usable CPUs, a list whose estimated fault phase would save
    less than a pool costs starts none: it cuts the batches --workers 1 cuts
    and writes the serial run's bytes and counts."""
    serial = run_campaign(cfg_for(workdir, "unpaid_serial"))
    _record_pool(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    res = run_campaign(cfg_for(workdir, "unpaid_pool", workers=2))
    want, got = _summary(serial), _summary(res)
    assert _RecordingPool.started == [] and got["workers_started"] == 0
    assert got["fault_seconds_estimate"] * (1 - 1 / 2) <= campaign.POOL_COST_SECONDS
    assert got["batch_faults"] == want["batch_faults"] == res.total
    assert got["faults_per_worker"] == want["faults_per_worker"] == [res.total]
    for key in (*_COUNTS, "replay_forwards", "sites"):
        assert got[key] == want[key], key
    assert res.outcomes_path.read_bytes() == serial.outcomes_path.read_bytes()
    assert res.golden_path.read_bytes() == serial.golden_path.read_bytes()


def test_a_costly_golden_forward_starts_the_pool(workdir, monkeypatch):
    """When the golden forward is slow enough that the estimated fault phase
    outweighs a pool's cost, the pool starts with as many workers as the
    CPUs and batches allow, each with an even share of the list."""
    serial = run_campaign(cfg_for(workdir, "paid_serial")).outcomes_path.read_bytes()
    _record_pool(monkeypatch)  # three usable CPUs
    golden = campaign.run_golden
    monkeypatch.setattr(campaign, "run_golden", lambda *args: time.sleep(0.25) or golden(*args))
    res = run_campaign(cfg_for(workdir, "paid_pool", workers=8))
    summary, n = _summary(res), res.total
    assert summary["golden_forward_seconds"] >= 0.25
    assert summary["fault_seconds_estimate"] * (1 - 1 / 3) > campaign.POOL_COST_SECONDS
    assert _RecordingPool.started == [3] and summary["workers_started"] == 3
    share = -(-n // 3)
    assert _RecordingPool.batches == [share, share, n - 2 * share] and summary["batch_faults"] == share
    assert res.outcomes_path.read_bytes() == serial


def test_a_resume_estimates_from_the_remaining_faults(workdir):
    """The estimate counts the faults this run processes: a limit's on the
    first run, and only those not yet acknowledged on the resume."""
    cfg = cfg_for(workdir, "estimate_resume", checkpoint_every=5)
    first = run_campaign(cfg, limit=7)
    first_summary = _summary(first)  # before the resume rewrites campaign.json
    resumed = run_campaign(replace(cfg, resume=True))
    for res, summary, faults in ((first, first_summary, 7),
                                 (resumed, _summary(resumed), resumed.total - 7)):
        assert res.processed == faults
        assert summary["fault_seconds_estimate"] == pytest.approx(
            faults * summary["golden_forward_seconds"] * campaign.FAULT_FORWARD_SHARE
        )


def _log_state(out: Path) -> tuple[int | None, int, int]:
    """(the bytes checkpoint.txt acknowledges or None, the log's size, its rows)."""
    ckpt, log = out / "checkpoint.txt", out / "outcomes.partial.csv"
    acked = json.loads(ckpt.read_text())["log_bytes"] if ckpt.exists() else None
    data = log.read_bytes() if log.exists() else b""
    return acked, len(data), data.count(b"\n")


def test_serial_batch_holds_checkpoint_every_faults_and_is_acknowledged(workdir, monkeypatch):
    """Serial run_faulty sees ceil(n/c) batches of at most c faults, and each
    batch's rows are acknowledged before the next batch starts."""
    n, every = workdir[3].n, 3
    cfg = cfg_for(workdir, "serial_batches", checkpoint_every=every)
    seen = []
    real = campaign.run_faulty

    def watching(net, batch, *args):
        seen.append((len(batch), _log_state(cfg.out_dir)))
        return real(net, batch, *args)

    monkeypatch.setattr(campaign, "run_faulty", watching)
    run_campaign(cfg)
    sizes = [size for size, _ in seen]
    assert sizes == [min(every, n - i) for i in range(0, n, every)]  # ceil(n/every) batches
    states = [state for _, state in seen[1:]] + [_log_state(cfg.out_dir)]
    for done, (acked, size, rows) in zip(np.cumsum(sizes), states):
        assert acked == size and rows == done * K


def test_run_killed_in_a_batch_resumes_after_the_batches_before_it(workdir, monkeypatch):
    """A run that dies inside its k-th serial batch leaves exactly the first
    k-1 batches done."""
    every, k = 3, 3
    cfg = cfg_for(workdir, "killed_in_batch", checkpoint_every=every)
    calls = []
    real = campaign.run_faulty

    def dying(net, batch, *args):
        calls.append(batch)
        if len(calls) == k:
            raise Killed
        return real(net, batch, *args)

    monkeypatch.setattr(campaign, "run_faulty", dying)
    with pytest.raises(Killed):
        run_campaign(cfg)
    monkeypatch.undo()
    first = workdir[3].descriptors[: (k - 1) * every]
    assert [d for batch in calls[: k - 1] for d in batch] == first
    acked, size, rows = _log_state(cfg.out_dir)
    assert acked == size and rows == len(first) * K
    resumed = run_campaign(replace(cfg, resume=True))
    assert resumed.processed == workdir[3].n - len(first)
    straight = run_campaign(cfg_for(workdir, "killed_in_batch_straight"))
    assert resumed.outcomes_path.read_bytes() == straight.outcomes_path.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.usefixtures("pool_always_pays")
def test_batching_changes_no_result(workdir, workers):
    """A run stopped after batches of 7 faults and resumed at the default
    batch size writes a straight run's outcomes.csv bytes, and its two
    campaign.json files add up to the straight run's counts, per site too."""
    assert CampaignConfig.checkpoint_every > workdir[3].n > 7 * workers
    cfg = cfg_for(workdir, f"rebatched_{workers}", workers=workers, checkpoint_every=7)
    first = run_campaign(cfg, limit=7 * workers + 3)
    assert first.status == "partial"
    before = json.loads((cfg.out_dir / "campaign.json").read_text())
    resumed = run_campaign(replace(cfg, resume=True, checkpoint_every=CampaignConfig.checkpoint_every))
    after = json.loads((cfg.out_dir / "campaign.json").read_text())
    straight = run_campaign(cfg_for(workdir, f"rebatched_straight_{workers}", workers=workers))
    want = json.loads((straight.out_dir / "campaign.json").read_text())
    assert resumed.outcomes_path.read_bytes() == straight.outcomes_path.read_bytes()
    assert before["batch_faults"] <= 7 and after["batch_faults"] > 7
    for key in _COUNTS:
        assert before[key] + after[key] == want[key], key
    sites = {site: Counter(counts) for site, counts in before["sites"].items()}
    for site, counts in after["sites"].items():
        sites.setdefault(site, Counter()).update(counts)
    assert sites == want["sites"]


# -- resume-state validation ------------------------------------------------------


def _state_dir(workdir, name, limit=9, checkpoint_every=3):
    cfg = cfg_for(workdir, name, checkpoint_every=checkpoint_every)
    run_campaign(cfg, limit=limit)
    return cfg.out_dir


def test_resume_rejects_partial_without_checkpoint(workdir):
    out = _state_dir(workdir, "rs_nockpt")
    (out / "checkpoint.txt").unlink()
    with pytest.raises(ResumeError):
        run_campaign(cfg_for(workdir, "rs_nockpt", resume=True))


def test_resume_rejects_checkpoint_without_partial(workdir):
    out = _state_dir(workdir, "rs_nopartial")
    (out / "outcomes.partial.csv").unlink()
    with pytest.raises(ResumeError):
        run_campaign(cfg_for(workdir, "rs_nopartial", resume=True))


def _set_checkpoint(out, **fields):
    record = json.loads((out / "checkpoint.txt").read_text())
    record.update(fields)
    (out / "checkpoint.txt").write_text(json.dumps(record) + "\n")


def _acknowledge_whole_log(out):
    _set_checkpoint(out, log_bytes=(out / "outcomes.partial.csv").stat().st_size)


def test_resume_rejects_unknown_fault_ids(workdir):
    out = _state_dir(workdir, "rs_unknown")
    partial = out / "outcomes.partial.csv"
    # fault 0's complete group, re-labelled with an id the fault list lacks
    group = [ln for ln in partial.read_text().splitlines() if ln.startswith("0,")]
    with open(partial, "a") as f:
        f.writelines("99999" + ln[ln.index(","):] + "\n" for ln in group)
    _acknowledge_whole_log(out)
    with pytest.raises(ResumeError, match="names unknown fault 99999"):
        run_campaign(cfg_for(workdir, "rs_unknown", resume=True))


def test_resume_rejects_malformed_ranges(workdir):
    # the checkpoint's range is now a byte length of the log: an integer that
    # must not run past the file
    out = _state_dir(workdir, "rs_badrange")
    size = (out / "outcomes.partial.csv").stat().st_size
    for garbage in ("abc", "12", 1.5, -3, None, True):
        _set_checkpoint(out, log_bytes=garbage)
        with pytest.raises(ResumeError, match="is not a byte count"):
            run_campaign(cfg_for(workdir, "rs_badrange", resume=True))
    _set_checkpoint(out, log_bytes=size + 1)
    with pytest.raises(ResumeError, match=f"acknowledges {size + 1} bytes"):
        run_campaign(cfg_for(workdir, "rs_badrange", resume=True))


def test_resume_rejects_checkpointed_fault_with_missing_rows(workdir):
    out = _state_dir(workdir, "rs_torngroup")
    partial = out / "outcomes.partial.csv"
    lines = partial.read_text().splitlines()
    # drop one row belonging to a checkpointed fault
    victim = next(i for i, ln in enumerate(lines) if ln.startswith("2,"))
    del lines[victim]
    partial.write_text("\n".join(lines) + "\n")
    _acknowledge_whole_log(out)
    with pytest.raises(ResumeError, match=r"fault 2: acknowledged inputs \[1, 2, 3\]"):
        run_campaign(cfg_for(workdir, "rs_torngroup", resume=True))


def test_resume_rejects_corrupt_acknowledged_row(workdir):
    out = _state_dir(workdir, "rs_corrupt_row")
    partial = out / "outcomes.partial.csv"
    data = partial.read_bytes()
    cut = data.index(b":")  # inside the first row's golden score cell
    partial.write_bytes(data[:cut] + b"?" + data[cut + 1:])  # same length: still acknowledged
    with pytest.raises(ResumeError, match="corrupt acknowledged outcome row"):
        run_campaign(cfg_for(workdir, "rs_corrupt_row", resume=True))


def test_resume_discards_torn_tail_and_still_matches(workdir):
    straight = run_campaign(cfg_for(workdir, "rs_straight"))
    out = _state_dir(workdir, "rs_tail", limit=9, checkpoint_every=3)
    partial = out / "outcomes.partial.csv"
    with open(partial, "a") as f:
        f.write("11,0,1,1,3f800000:1.0,3f800000:1.0\n")  # flushed but never acknowledged
        f.write("12,0,1,1,3f800000:1.0,3f8000")  # torn mid-write
    resumed = run_campaign(cfg_for(workdir, "rs_tail", resume=True))
    assert resumed.status == "complete"
    assert resumed.outcomes_path.read_bytes() == straight.outcomes_path.read_bytes()


def test_resume_twice_after_torn_tail_completes(workdir):
    # A torn row with no newline, then two interrupted resumes: the first one
    # must not glue its rows onto the torn line.
    straight = run_campaign(cfg_for(workdir, "rs_twice_straight"))
    out = _state_dir(workdir, "rs_twice", limit=9, checkpoint_every=3)
    with open(out / "outcomes.partial.csv", "a") as f:
        f.write("9,0,1,1,3f800000:1.0,3f8000")
    assert run_campaign(cfg_for(workdir, "rs_twice", resume=True), limit=3).status == "partial"
    resumed = run_campaign(cfg_for(workdir, "rs_twice", resume=True))
    assert resumed.status == "complete"
    assert resumed.outcomes_path.read_bytes() == straight.outcomes_path.read_bytes()


def test_resume_tolerates_garbage_bytes_in_partial_tail(workdir):
    straight = run_campaign(cfg_for(workdir, "rs_bytes_straight"))
    out = _state_dir(workdir, "rs_bytes", limit=9, checkpoint_every=3)
    with open(out / "outcomes.partial.csv", "ab") as f:
        f.write(b"\xff\xfe\x00garbage\n")
    resumed = run_campaign(cfg_for(workdir, "rs_bytes", resume=True))
    assert resumed.outcomes_path.read_bytes() == straight.outcomes_path.read_bytes()


def test_resume_rejects_corrupt_checkpoint_bytes(workdir):
    out = _state_dir(workdir, "rs_ckpt_bytes")
    for garbage in (b"\xff\xfe0-3\n", b"0-8\n", b"[]\n", b'{"log_bytes": 10}\n'):
        (out / "checkpoint.txt").write_bytes(garbage)
        with pytest.raises(ResumeError, match="corrupt checkpoint"):
            run_campaign(cfg_for(workdir, "rs_ckpt_bytes", resume=True))


def _replace_model(d):
    save_model(synth_model(seed=99, arch=ARCH, timesteps=T), d / "m.sjm")


def _replace_dataset(d):
    ds = synth_dataset(seed=99, samples=K, timesteps=T, shape=(6,), classes=3, firing_rate=0.5)
    save_dataset(ds, d / "d.sjd")


def _replace_fault_list(d):
    net = synth_model(seed=31, arch=ARCH, timesteps=T)
    spec = SamplingSpec(error_margin=0.2, quantile=2.576, seed=99)
    write_fault_list(generate_fault_list(net, spec, POINTS), d / "fl.csv")


def _checkpoint_inputs(value):
    """Rewrites the checkpoint's K as ``value``, equal to the run's K = 1 but not an int."""
    return lambda d: _set_checkpoint(d / "out", inputs=value)


@pytest.mark.parametrize(
    "change, named",
    [
        (_replace_model, "model_sha256"),
        (_replace_dataset, "dataset_sha256"),
        (_replace_fault_list, "fault_list_sha256"),
        (None, "inputs"),
        (_checkpoint_inputs(1.0), "inputs"),
        (_checkpoint_inputs(True), "inputs"),
    ],
    ids=["model", "dataset", "fault_list", "subset", "inputs_float", "inputs_bool"],
)
def test_resume_rejects_changed_inputs(workdir, tmp_path, change, named):
    for name in ("m.sjm", "d.sjd", "fl.csv"):
        shutil.copy(workdir[0] / name, tmp_path / name)
    cfg = dict(model=tmp_path / "m.sjm", dataset=tmp_path / "d.sjd", subset=1,
               fault_list=tmp_path / "fl.csv", out_dir=tmp_path / "out", checkpoint_every=3)
    assert run_campaign(CampaignConfig(**cfg), limit=9).status == "partial"
    if change is None:
        cfg["subset"] = 2
    else:
        change(tmp_path)
    with pytest.raises(ResumeError, match=f"^{named} changed since the checkpoint"):
        run_campaign(CampaignConfig(**cfg, resume=True))


def _read_edited_golden(workdir, tmp_path, edit):
    _, net, ds, _ = workdir
    p = tmp_path / "golden.csv"
    write_golden(run_golden(net.copy(), ds), p)
    p.write_text("".join(line + "\n" for line in edit(p.read_text().splitlines())))
    return read_golden(p)


def _resume_edited_log(workdir, tmp_path, edit):
    cfg = cfg_for(workdir, "", out_dir=tmp_path / "out", checkpoint_every=3)
    run_campaign(cfg, limit=3)
    edit(cfg.out_dir, cfg.out_dir / "outcomes.partial.csv")
    return run_campaign(replace(cfg, resume=True))


def _log_starting_with_ff(out, partial):
    partial.write_bytes(b"\xff" + partial.read_bytes()[1:])
    _acknowledge_whole_log(out)


# One row per typed rejection: (error, message, action on (workdir, tmp_path)).
# golden.csv lines: the comment, the header, then one row per input from line 3.
CAMPAIGN_ERRORS = {
    "workers < 1": (
        ValueError, "^workers must be >= 1, got 0$",
        lambda w, tmp: cfg_for(w, "x", workers=0),
    ),
    "checkpoint interval < 1": (
        ValueError, "^checkpoint interval must be >= 1, got 0$",
        lambda w, tmp: cfg_for(w, "x", checkpoint_every=0),
    ),
    "subset out of range": (
        ValueError, rf"^subset must be in 1\.\.{K} \(dataset size\), got {K + 1}$",
        lambda w, tmp: run_golden(w[1].copy(), w[2], K + 1),
    ),
    "golden without header": (
        FormatError, f"^expected golden header '{GOLDEN_HEADER}'$",
        lambda w, tmp: _read_edited_golden(w, tmp, lambda lines: lines[:1]),
    ),
    "golden vector lengths vary": (
        FormatError, r"^score vector length varies between rows \(line 4\)$",
        lambda w, tmp: _read_edited_golden(
            w, tmp, lambda lines: [*lines[:3], lines[3].rpartition(";")[0], *lines[4:]]
        ),
    ),
    "golden without rows": (
        FormatError, "^golden reference holds no inputs$",
        lambda w, tmp: _read_edited_golden(w, tmp, lambda lines: lines[:2]),
    ),
    "golden repeats an input_id": (
        FormatError, rf"^repeated input_id {K - 1} \(line {K + 3}\)$",
        lambda w, tmp: _read_edited_golden(w, tmp, lambda lines: [*lines, lines[-1]]),
    ),
    "golden comment states other inputs": (
        FormatError, rf"^expected golden comment '# golden inputs={K} classes=3' \(line 1\)$",
        lambda w, tmp: _read_edited_golden(
            w, tmp, lambda lines: [f"# golden inputs={K + 1} classes=3", *lines[1:]]
        ),
    ),
    "golden comment states other classes": (
        FormatError, rf"^expected golden comment '# golden inputs={K} classes=3' \(line 1\)$",
        lambda w, tmp: _read_edited_golden(
            w, tmp, lambda lines: [f"# golden inputs={K} classes=2", *lines[1:]]
        ),
    ),
    "golden rows missing under the comment": (
        FormatError, rf"^expected golden comment '# golden inputs={K - 1} classes=3' \(line 1\)$",
        lambda w, tmp: _read_edited_golden(w, tmp, lambda lines: lines[:-1]),
    ),
    "golden without comment": (
        FormatError, rf"^expected golden comment '# golden inputs={K} classes=3' \(line 1\)$",
        lambda w, tmp: _read_edited_golden(w, tmp, lambda lines: lines[1:]),
    ),
    "resume: acknowledged bytes end mid-row": (
        ResumeError, "^corrupt acknowledged outcome row: the acknowledged bytes end mid-row$",
        lambda w, tmp: _resume_edited_log(
            w, tmp, lambda out, partial: _set_checkpoint(out, log_bytes=partial.stat().st_size - 1)
        ),
    ),
    "resume: acknowledged bytes not UTF-8": (
        ResumeError, "^corrupt acknowledged outcome row: 'utf-8' codec can't decode byte 0xff",
        lambda w, tmp: _resume_edited_log(w, tmp, _log_starting_with_ff),
    ),
}


@pytest.mark.parametrize("error, message, action", CAMPAIGN_ERRORS.values(), ids=CAMPAIGN_ERRORS)
def test_campaign_typed_errors(workdir, tmp_path, error, message, action):
    with pytest.raises(error, match=message):
        action(workdir, tmp_path)


# -- outcome reader ----------------------------------------------------------------


def test_outcomes_reader_rejects_bad_header(tmp_path):
    p = tmp_path / "o.csv"
    p.write_text("wrong,header\n")
    with pytest.raises(FormatError):
        read_outcomes(p)


def test_outcomes_reader_rejects_short_rows(tmp_path):
    p = tmp_path / "o.csv"
    p.write_text(OUTCOME_HEADER + "\n1,2,3\n")
    with pytest.raises(FormatError):
        read_outcomes(p)


# A well-formed outcome row; its four integers are fault_id, input_id,
# golden_class and faulty_class.
OUTCOME_ROW = ["3", "0", "1", "1", "40800000:4.0", "40800000:4.0"]
UINT64_MAX = 2**64 - 1


def _outcome_file(path, rows, ending="\n"):
    """outcomes.csv with these rows; a lone surrogate writes a non-UTF-8 byte."""
    text = "\n".join([OUTCOME_HEADER, *(",".join(r) for r in rows)]) + ending
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def test_outcome_integers_read_through_2_64_minus_1(tmp_path):
    """Leading zeros parse, and the largest uint64 reads back in every
    integer column, as a Python int."""
    p = _outcome_file(tmp_path / "o.csv", [["007", "0", "01", "2", *OUTCOME_ROW[4:]],
                                           [str(UINT64_MAX)] * 4 + OUTCOME_ROW[4:]])
    rows = [(r.fault_id, r.input_id, r.golden_class, r.faulty_class) for r in read_outcomes(p)]
    assert rows == [(7, 0, 1, 2), (UINT64_MAX,) * 4]
    assert all(type(v) is int for row in rows for v in row)


@pytest.mark.parametrize("value", [2**64, 10**20 - 1])
@pytest.mark.parametrize("column", range(4), ids=OUTCOME_HEADER.split(",")[:4])
def test_outcome_integers_above_2_64_minus_1_are_format_errors(tmp_path, column, value):
    bad = list(OUTCOME_ROW)
    bad[column] = str(value)
    p = _outcome_file(tmp_path / "o.csv", [OUTCOME_ROW, bad, OUTCOME_ROW])
    name = OUTCOME_HEADER.split(",")[column]
    with pytest.raises(FormatError, match=rf"^{name} {value} is above 2\*\*64 - 1 \(line 3\)$"):
        read_outcomes(p)


def test_golden_input_ids_above_2_64_minus_1_are_format_errors(workdir, tmp_path):
    _, net, ds, _ = workdir
    p = tmp_path / "golden.csv"
    write_golden(run_golden(net.copy(), ds), p)
    lineno = _mutate_last_row(p, lambda fields: [str(2**64), *fields[1:]])
    with pytest.raises(FormatError, match=rf"^input_id {2**64} is above 2\*\*64 - 1 \(line {lineno}\)$"):
        read_golden(p)


# Defects deep in a file of several read blocks (row i is on line i + 2), and
# the error the file must raise: its first bad line's, or, for a file that is
# not UTF-8 anywhere, that.
BLOCK_SPAN = 2 * OUTCOME_BLOCK_ROWS + 7
FAR_DEFECTS = {
    "malformed row in the second block": (
        {OUTCOME_BLOCK_ROWS + 9: ["3", "0", "1"], 2 * OUTCOME_BLOCK_ROWS + 3: ["x"]},
        rf"^malformed outcome row \(line {OUTCOME_BLOCK_ROWS + 11}\)$",
    ),
    "an integer above 2**64 - 1 before a malformed row": (
        {OUTCOME_BLOCK_ROWS: [str(2**64), *OUTCOME_ROW[1:]], OUTCOME_BLOCK_ROWS + 1: ["x"]},
        rf"^fault_id {2**64} is above 2\*\*64 - 1 \(line {OUTCOME_BLOCK_ROWS + 2}\)$",
    ),
    "the last row, past the final block": (
        {BLOCK_SPAN - 1: ["3", "0", "1", "1", "40800000", "40800000:4.0"]},
        rf"^malformed outcome row \(line {BLOCK_SPAN + 1}\)$",
    ),
    "bad UTF-8 in the last block after a malformed row": (
        {5: ["x"], 2 * OUTCOME_BLOCK_ROWS + 1: [*OUTCOME_ROW[:5], "40800000:\udcff"]},
        r"^outcome file is not UTF-8: ",
    ),
}


@pytest.mark.parametrize("defects, message", FAR_DEFECTS.values(), ids=FAR_DEFECTS)
def test_outcomes_reader_names_the_first_bad_line_in_any_block(tmp_path, defects, message):
    p = _outcome_file(tmp_path / "o.csv", [defects.get(i, OUTCOME_ROW) for i in range(BLOCK_SPAN)])
    with pytest.raises(FormatError, match=message):
        read_outcomes(p)


def test_outcomes_reader_joins_a_column_at_a_time(tmp_path):
    """Over 32 read blocks, read_outcomes peaks at its columns (40 bytes a
    row) plus one block's allowance: each block's part of a column is dropped
    as that column is joined, never all blocks beside all columns."""
    rows = 32 * OUTCOME_BLOCK_ROWS
    p = tmp_path / "o.csv"
    with open(p, "w") as f:
        f.write(OUTCOME_HEADER + "\n")
        f.writelines(f"{i // 4},{i % 4},1,{i % 3},40800000:4.0,{i:08x}:4.0\n" for i in range(rows))
    tracemalloc.start()
    try:
        back = read_outcomes(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back) == rows and int(back.faulty_top[-1]) == rows - 1
    assert peak < 40 * rows + (3 << 20)


@pytest.mark.parametrize("ending", ["\n", ""], ids=["LF", "no final LF"])
def test_outcomes_reader_reads_every_block(tmp_path, ending):
    """Rows on both sides of each block edge read back in file order."""
    rows = [[str(i), str(i % 5), "1", str(i % 3), "40800000:4.0", f"{i:08x}:x"]
            for i in range(2 * OUTCOME_BLOCK_ROWS + 1)]
    back = read_outcomes(_outcome_file(tmp_path / "o.csv", rows, ending))
    assert len(back) == len(rows)
    assert [(r.fault_id, r.input_id, r.faulty_class, bits_of(r.faulty_top)) for r in back] == [
        (i, i % 5, i % 3, i) for i in range(len(rows))
    ]
    last = back[-1]
    assert (last.fault_id, bits_of(last.golden_top)) == (len(rows) - 1, 0x40800000)


def test_campaign_compiles_one_pattern_per_row_format():
    """One grammar per CSV row format: the outcome reader's blocks, its line
    walk and the resume's log all match _OUTCOME_ROW, and golden rows
    _GOLDEN_ROW; campaign.py compiles or applies no other pattern."""
    tree = ast.parse(Path(campaign.__file__).read_text(encoding="utf-8"))
    calls = [ast.unparse(node.func) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("re.")]
    compiled = [node.targets[0].id for node in tree.body if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "re.compile"]
    assert calls == ["re.compile", "re.compile"]
    assert compiled == ["_OUTCOME_ROW", "_GOLDEN_ROW"]


def test_golden_header_shape():
    assert GOLDEN_HEADER.split(",")[:3] == ["input_id", "top_class", "top_score"]


def test_golden_reader_reports_file_line_numbers(workdir, tmp_path):
    _, net, ds, _ = workdir
    p = tmp_path / "golden.csv"
    write_golden(run_golden(net.copy(), ds), p)
    lines = p.read_text().splitlines()
    assert lines[0].startswith("#") and lines[1] == GOLDEN_HEADER
    lines[3] += ",0"  # the second row
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=r"\(line 4\)$"):
        read_golden(p)


# Per-reader rejection tables: malformed integers in an id field, a score
# cell without its decimal half, and an extra field. The outcome log is read
# by --resume, outcomes.csv by read_outcomes.
OUTCOME_ROW_DEFECTS = {
    **{
        name: lambda fields, form=form: [fields[0], form(fields[1]), *fields[2:]]
        for name, form in MALFORMED_INTEGERS.items()
    },
    "score cell without ':'": lambda fields: [*fields[:5], fields[5].partition(":")[0]],
    "extra field": lambda fields: [*fields, "0"],
}
GOLDEN_ROW_DEFECTS = {
    **{
        name: lambda fields, form=form: [form(fields[0]), *fields[1:]]
        for name, form in MALFORMED_INTEGERS.items()
    },
    "score cell without ':'": lambda fields: [*fields[:2], fields[2].partition(":")[0], fields[3]],
    "extra field": lambda fields: [*fields, "0"],
}


def _mutate_last_row(path, mutate):
    lines = path.read_text().splitlines()
    lines[-1] = ",".join(mutate(lines[-1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


@pytest.mark.parametrize("mutate", OUTCOME_ROW_DEFECTS.values(), ids=OUTCOME_ROW_DEFECTS)
def test_outcomes_reader_rejects_row_defects(workdir, tmp_path, mutate):
    res = run_campaign(cfg_for(workdir, "", out_dir=tmp_path / "out", subset=2))
    lineno = _mutate_last_row(res.outcomes_path, mutate)
    with pytest.raises(FormatError, match=rf"\(line {lineno}\)$"):
        read_outcomes(res.outcomes_path)


@pytest.mark.parametrize("mutate", OUTCOME_ROW_DEFECTS.values(), ids=OUTCOME_ROW_DEFECTS)
def test_resume_rejects_outcome_log_row_defects(workdir, tmp_path, mutate):
    cfg = cfg_for(workdir, "", out_dir=tmp_path / "out", checkpoint_every=3)
    run_campaign(cfg, limit=3)
    lineno = _mutate_last_row(cfg.out_dir / "outcomes.partial.csv", mutate)
    _acknowledge_whole_log(cfg.out_dir)
    with pytest.raises(ResumeError, match=rf"^corrupt acknowledged outcome row.*\(line {lineno}\)$"):
        run_campaign(replace(cfg, resume=True))


@pytest.mark.parametrize("mutate", GOLDEN_ROW_DEFECTS.values(), ids=GOLDEN_ROW_DEFECTS)
def test_golden_reader_rejects_row_defects(workdir, tmp_path, mutate):
    _, net, ds, _ = workdir
    p = tmp_path / "golden.csv"
    write_golden(run_golden(net.copy(), ds), p)
    lineno = _mutate_last_row(p, mutate)
    with pytest.raises(FormatError, match=rf"\(line {lineno}\)$"):
        read_golden(p)


# Every binary32 class the files must carry bit for bit, then any pattern.
FLOAT32_BITS = st.one_of(
    st.sampled_from([
        0x7F800001, 0xFFBFFFFF,  # signalling NaNs
        0x7FC00000, 0xFFC00123,  # quiet NaNs with and without payload
        0x00000000, 0x80000000, 0x00000001, 0x807FFFFF,  # +-0.0, subnormals
        0x7F800000, 0xFF800000,  # +-Inf
    ]),
    st.integers(0, 2**32 - 1),
)
IDS = st.integers(0, 2**64 - 1)


@given(
    faults=st.dictionaries(IDS, st.lists(st.tuples(IDS, IDS, FLOAT32_BITS, FLOAT32_BITS),
                                          min_size=2, max_size=2), max_size=4),
    vectors=st.integers(1, 5).flatmap(lambda classes: st.lists(
        st.tuples(IDS, st.lists(FLOAT32_BITS, min_size=classes, max_size=classes)),
        min_size=1, max_size=4, unique_by=lambda vector: vector[0])),
)
def test_rows_round_trip_bit_exact(tmp_path_factory, faults, vectors):
    """_render_rows' rows read back through read_outcomes, and write_golden's
    through read_golden, bit for bit; the outcome log reads back as each
    fault's id and the byte length of its rows. A screened row, from the
    golden cells rendered once, has the bytes of a replayed row with the
    same values."""
    d = tmp_path_factory.mktemp("round_trip")
    rows, lines = [], []
    for fid, pairs in faults.items():
        golden = [Prediction(i, None, g, f32_from_bits(b)) for i, (g, _, b, _) in enumerate(pairs)]
        faulty = [Prediction(i, None, f, f32_from_bits(b)) for i, (_, f, _, b) in enumerate(pairs)]
        cells = campaign._golden_cells(golden)
        kept = campaign._render_rows(fid, cells, golden, golden)
        assert kept == campaign._render_rows(fid, cells, golden, [replace(g) for g in golden])
        rows += [(fid, iid, *pair) for iid, pair in enumerate(pairs)]
        lines += campaign._render_rows(fid, cells, golden, faulty).splitlines()
    log = d / "outcomes.partial.csv"
    log.write_text("".join(line + "\n" for line in lines))
    ids, sizes = campaign._read_log(log, log.stat().st_size, 2, set(faults))
    runs = ["".join(line + "\n" for line in lines[2 * i : 2 * i + 2]) for i in range(len(faults))]
    assert (list(ids), list(sizes)) == (list(faults), [len(run.encode()) for run in runs])
    (d / "outcomes.csv").write_text("\n".join([OUTCOME_HEADER, *lines]) + "\n")
    back = [
        (r.fault_id, r.input_id, r.golden_class, r.faulty_class,
         bits_of(r.golden_top), bits_of(r.faulty_top))
        for r in read_outcomes(d / "outcomes.csv")
    ]
    assert back == rows

    entries = []
    for iid, bits in vectors:
        scores = np.array(bits, np.uint32).view(np.float32)
        entries.append(Prediction(iid, scores, *_top(scores)))
    write_golden(GoldenReference(entries), d / "golden.csv")
    for want, got in zip(entries, read_golden(d / "golden.csv").entries, strict=True):
        assert (got.input_id, got.top_class) == (want.input_id, want.top_class)
        assert bits_of(got.top_score) == bits_of(want.top_score)
        assert got.scores.tobytes() == want.scores.tobytes()


# -- fault semantics through the campaign -------------------------------------------


def test_masked_by_construction_faults_match_golden(workdir):
    d, net, ds, _ = workdir
    golden = run_golden(net.copy(), ds)
    weight = net.layer("fc1").params["weight"]
    descriptors = []
    for i in range(12):
        r, c = divmod(i, weight.shape[1])
        bit = 3 + i
        current = (bits_of(weight[r, c]) >> bit) & 1
        descriptors.append(
            FaultDescriptor(i, "fc1", ParameterKind.WEIGHT, (r, c), bit, current)
        )
    for outs in run_faulty(net, descriptors, ds):
        for out, g in zip(outs, golden.entries):
            assert out.scores.tobytes() == g.scores.tobytes()


def test_value_stuck_output_spike_scores_full_t(workdir):
    _, net, ds, _ = workdir
    sat = FaultDescriptor(
        0, "lif2", ParameterKind.SPIKE, (1,), 0, 1, FaultMode.VALUE_STUCK
    )
    for out in run_faulty(net, sat, ds):
        assert out.scores[1] == T


def test_nonfinite_faults_complete_and_classify(workdir):
    _, net, ds, _ = workdir
    # bit 30 stuck on a weight's exponent reliably explodes the activation
    d = FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0, 0), 30, 1)
    outs = run_faulty(net, d, ds)
    assert len(outs) == K
    for out in outs:
        assert out.scores.shape == (3,)  # finite or not, the run must finish


def test_empty_fault_list_campaign(workdir, tmp_path):
    d, net, _, fl = workdir
    empty = FaultList(
        descriptors=[], universe=fl.universe, spec=fl.spec, n=0, polarity=fl.polarity
    )
    p = tmp_path / "empty.csv"
    write_fault_list(empty, p)
    back = read_fault_list(p, net)
    assert back.n == 0 and back.descriptors == []
    cfg = CampaignConfig(
        model=d / "m.sjm", dataset=d / "d.sjd", fault_list=p, out_dir=tmp_path / "out"
    )
    res = run_campaign(cfg)
    assert res.status == "complete"
    assert len(read_outcomes(res.outcomes_path)) == 0


# -- the screen and the replay ---------------------------------------------------------

SCREEN_NETS = {
    "fc": "FC(6->5)-LIF-FC(5->3)-LIF",
    "rfc": "RFC(6->5)-LIF-FC(5->3)-LIF",
    "conv": "CONV(2x6x6->3,k3)-LIF-POOL(2)-FC(12->4)-LIF",
    "fc-fc": "FC(6->5)-FC(5->4)-LIF-FC(4->3)-LIF",
    "conv-pool-fc": "CONV(2x6x6->3,k3)-POOL(2)-FC(12->4)-LIF-FC(4->3)-LIF",
    "conv-pool-pool": "CONV(2x10x10->3,k3)-LIF-POOL(2)-POOL(2)-FC(12->4)-LIF",
    "conv-shared": "CONV(2x6x6->3,k3)-LIF-POOL(2)-FC(12->4)-LIF",
    "rfc-shared": "RFC(6->5)-LIF-FC(5->3)-LIF",
}

# SCREEN_NETS whose first LIF keeps synth_model's shared (1,) beta and threshold.
SHARED = ("conv-shared", "rfc-shared")


# SCREEN_NETS whose every bias and feedback_bias is dropped: the screen and
# the replay then compute cuts and windows with no bias term.
UNBIASED = ("rfc", "conv", "conv-pool-fc")


def _screen_net(name, bias=True):
    """SCREEN_NETS[name] as a firing net whose first weight is 1.0 (bit 30
    stuck at 1 makes it +Inf, and Inf * 0-spike = NaN enters the chain) and
    whose first LIF has per-neuron beta and threshold, unless ``name`` is in
    SHARED; the output LIF keeps shape (1,). Without ``bias``, no layer
    holds a bias or feedback_bias."""
    net = synth_model(41, SCREEN_NETS[name], 8, threshold=0.3)
    if not bias:
        for spec in net.layers:
            spec.params.pop("bias", None)
            spec.params.pop("feedback_bias", None)
    weighted = net.layers[0]
    weighted.params["weight"][(0,) * weighted.params["weight"].ndim] = 1.0
    lif = next(s for s in net.layers if s.kind is LayerKind.LIF)
    if name not in SHARED:
        shape = net.shapes[lif.name]
        rng = np.random.default_rng(42)
        lif.params["beta"] = rng.uniform(0.5, 1.0, shape).astype(DTYPE)
        lif.params["threshold"] = rng.uniform(0.1, 0.5, shape).astype(DTYPE)
    return Network(net.layers, net.timesteps, net.input_shape)


def _screen_faults(net, rng):
    """Every parameter kind of every layer at random coords, with a random bit,
    the exponent bit 30 and the sign bit 31, both polarities; spikes also
    value-stuck at 0 and 1."""
    faults = []

    def add(*args):
        faults.append(FaultDescriptor(len(faults), *args))

    for spec in net.layers:
        tensors = {key: value.shape for key, value in spec.params.items()}
        if spec.kind is LayerKind.LIF:
            tensors.update(potential=net.shapes[spec.name], spike=net.shapes[spec.name])
        for key, shape in tensors.items():
            kind = ParameterKind(key)
            coords = [(0,) * len(shape)] + [
                tuple(int(rng.integers(n)) for n in shape) for _ in range(3)
            ]
            for c in coords:
                for bit in (int(rng.integers(30)), 30, 31):
                    for stuck in (0, 1):
                        add(spec.name, kind, c, bit, stuck)
            if kind is ParameterKind.SPIKE:
                for c in coords:
                    for stuck in (0, 1):
                        add(spec.name, kind, c, 0, stuck, FaultMode.VALUE_STUCK)
    return faults


@pytest.mark.parametrize(
    "name, bias",
    [(name, True) for name in SCREEN_NETS] + [(name, False) for name in UNBIASED],
    ids=[*SCREEN_NETS, *(f"{name}-unbiased" for name in UNBIASED)],
)
def test_screened_run_faulty_equals_injected_full_forward(name, bias):
    """run_faulty's screen and replay give, bit for bit, the scores of a full
    forward of an injected copy, for every parameter kind, on inputs that
    diverge and on inputs that do not, whichever faults share a batch: one
    fault per batch, all in one batch, or shuffled into random splits. Nets
    with and without bias terms."""
    net = _screen_net(name, bias)
    assert bias == any("bias" in spec.params for spec in net.layers)
    ds = synth_dataset(43, 6, 8, net.input_shape, net.num_classes, 0.5)
    golden = run_golden(net.copy(), ds)
    faults = _screen_faults(net, np.random.default_rng(44))
    want = {d.fault_id: injected_forward(net, d, ds.spikes) for d in faults}
    rng = np.random.default_rng(45)
    shuffled = [faults[i] for i in rng.permutation(len(faults))]
    cuts = [0, *sorted(rng.choice(np.arange(1, len(faults)), 6, replace=False)), len(faults)]
    batchings = {
        "one per batch": [[d] for d in faults],
        "one batch": [faults],
        "shuffled splits": [shuffled[a:b] for a, b in zip(cuts, cuts[1:])],
    }
    for how, batches in batchings.items():
        replayed = Counter()
        for batch in batches:
            for d, outs in zip(batch, run_faulty(net, batch, ds, golden), strict=True):
                for out, row in zip(outs, want[d.fault_id], strict=True):
                    assert out.scores.tobytes() == row.tobytes(), (how, d)
                    assert (out.top_class, bits_of(out.top_score)) == (
                        _top(row)[0], bits_of(_top(row)[1])
                    ), (how, d)
                n = sum(o is not g for o, g in zip(outs, golden.entries))
                replayed["none" if n == 0 else "all" if n == len(outs) else "some"] += 1
        assert set(replayed) == {"none", "some", "all"}, (how, replayed)


def _spy_stacked_forwards(monkeypatch):
    """Records each stacked forward the campaign runs, as (start, rows)."""
    forwards, forward = [], campaign.network_forward

    def stacked(net, spikes, *args, rows=None, **kwargs):
        if rows is not None:
            forwards.append((kwargs["start"], len(rows.source)))
        return forward(net, spikes, *args, rows=rows, **kwargs)

    monkeypatch.setattr(campaign, "network_forward", stacked)
    return forwards


@pytest.mark.parametrize("name", SCREEN_NETS)
def test_stacked_replay_equals_injected_forward_at_any_row_count(name, monkeypatch):
    """Every diverging (fault, input) pair runs as one row of a stacked
    forward, and each block of faults with a diverging pair runs exactly one
    forward, of all its diverging pairs. With SCREEN_BLOCK_VALUES set so that
    blocks hold 1 fault, up to 3, or a whole group, every fault gets
    injected_forward's bytes, run alone or with the whole list as one batch."""
    net = _screen_net(name)
    ds = synth_dataset(43, 6, 8, net.input_shape, net.num_classes, 0.5)
    golden = run_golden(net.copy(), ds)
    faults = _screen_faults(net, np.random.default_rng(44))
    want = {d.fault_id: [row.tobytes() for row in injected_forward(net, d, ds.spikes)]
            for d in faults}
    forwards = _spy_stacked_forwards(monkeypatch)
    blocks, block = [], campaign._Screened  # every block, screened or beyond the feed
    monkeypatch.setattr(campaign, "_Screened", lambda *args: blocks.append(block(*args))
                        or blocks[-1])
    live = [d for d in faults if not _noop(net, d)]
    groups = {campaign._screen_site(net, d.layer, d.parameter) for d in live}
    neuron = len(golden.entries) * net.timesteps  # the values of a one-neuron cone's array
    for budget, most in ((1, 1), (3 * neuron, 3), (1 << 30, None)):
        monkeypatch.setattr(campaign, "SCREEN_BLOCK_VALUES", budget)
        for how, batches in (("alone", [[d] for d in faults]), ("one batch", [faults])):
            forwards.clear(), blocks.clear()
            outs = [out for batch in batches for out in run_faulty(net, batch, ds, golden)]
            for d, out in zip(faults, outs, strict=True):
                assert [o.scores.tobytes() for o in out] == want[d.fault_id], (budget, how, d)
            replayed = sum(o is not g for out in outs for o, g in zip(out, golden.entries))
            assert sum(rows for _, rows in forwards) == replayed > 0
            assert [rows for _, rows in forwards] == [
                int(b.differs.sum()) for b in blocks if b.differs.any()], (budget, how)
            sizes = [b.differs.shape[1] for b in blocks]  # faults per block
            assert sum(sizes) == len(live)
            if how == "alone":
                assert sizes == [1] * len(live)
            elif most is None:  # each group whole
                assert len(blocks) == len(groups)
            else:
                assert max(sizes) == most, budget


def _noop(net, d):
    """A static fault whose bit already holds its stuck value."""
    held = (bits_of(faults_module.target_tensor(net, d)[d.coords]) >> d.bit) & 1
    return d.parameter.is_static and held == d.stuck


def _flipped(net, fault_id, layer, coords, bit):
    """A weight fault that pins the bit at coords to the value it does not hold."""
    value = net.layer(layer).params["weight"][coords]
    return FaultDescriptor(fault_id, layer, ParameterKind.WEIGHT, coords, bit,
                           1 - ((bits_of(value) >> bit) & 1))


@pytest.mark.parametrize("arch", ["fc-fc", "conv-pool-fc"])
def test_fault_beyond_the_feed_is_replayed_whole_unscreened(arch, monkeypatch):
    """A first-layer fault reaches its LIF layer only through further layers:
    no screen, and one stacked forward from its own layer, a row per input,
    on the template's own parameters: no copy, no injection."""
    net = _screen_net(arch)
    ds = synth_dataset(43, 6, 8, net.input_shape, net.num_classes, 0.5)
    golden = run_golden(net.copy(), ds)
    first = net.layers[0]
    d = _flipped(net, 0, first.name, (0,) * first.params["weight"].ndim, 30)
    want = injected_forward(net, d, ds.spikes)
    forwards = _spy_stacked_forwards(monkeypatch)
    steps, copies, lif_step = [], [], core.lif_step
    monkeypatch.setattr(core, "lif_step",
                        lambda *args: steps.append(len(forwards)) or lif_step(*args))
    monkeypatch.setattr(Network, "copy", lambda self: copies.append(1))
    monkeypatch.setattr(campaign, "inject_static", None)
    outs = run_faulty(net, d, ds, golden)
    assert forwards == [(0, len(golden.entries))] and copies == []
    lifs = sum(spec.kind is LayerKind.LIF for spec in net.layers)
    assert steps == [1] * (net.timesteps * lifs)  # the forward's own steps, no screen's
    assert [o.scores.tobytes() for o in outs] == [row.tobytes() for row in want]


def _pool_window_faults(net, c, i, j):
    """Faults on conv-fed LIF layer L (net.layers[1]) whose cones reach L's
    p x p window under pooled cell (c, i, j): potential and spike bits,
    sign bit included, and value-stuck spikes at each of the window's
    neurons; channel c's conv weight and bias; and L's beta and threshold
    where they are shared (1,)."""
    conv, lif, pool = net.layers[:3]
    p, faults = pool.hyper["pool"], []

    def add(*args):
        faults.append(FaultDescriptor(len(faults), *args))

    state_bits = {ParameterKind.POTENTIAL: (22, 30, 31), ParameterKind.SPIKE: (30, 31)}
    for r, q in np.ndindex(p, p):
        coords = (c, p * i + r, p * j + q)
        for kind, bits in state_bits.items():
            for bit in bits:
                for stuck in (0, 1):
                    add(lif.name, kind, coords, bit, stuck)
        for stuck in (0, 1):
            add(lif.name, ParameterKind.SPIKE, coords, 0, stuck, FaultMode.VALUE_STUCK)
    for key in ("weight", "bias"):
        coords = (c,) + (0,) * (conv.params[key].ndim - 1)
        for bit in (30, 31):
            for stuck in (0, 1):
                add(conv.name, ParameterKind(key), coords, bit, stuck)
    for key in ("beta", "threshold"):
        if lif.params[key].shape == (1,):  # an all-of-L cone
            for bit in (22, 30, 31):
                for stuck in (0, 1):
                    add(lif.name, ParameterKind(key), (0,), bit, stuck)
    return faults


@pytest.mark.parametrize("name, start", [("conv", 3), ("conv-shared", 3), ("conv-pool-pool", 2)])
def test_conv_replay_starts_past_the_pool(name, start, monkeypatch):
    """A fault screened in a conv-fed LIF layer L that feeds POOL then FC is
    replayed from the FC, on the pool's golden output with its cone pooled
    in; behind POOL-POOL, whose first output is not traced, from the first
    pool. Single neurons at every offset of a pool window, channels and all
    of L get injected_forward's bytes. A -0.0 spike of a silent neuron
    pools to golden bits: its pairs are replayed and keep golden scores."""
    net = _screen_net(name)
    ds = synth_dataset(43, 6, 8, net.input_shape, net.num_classes, 0.5)
    golden = run_golden(net.copy(), ds)
    lif, pool = net.layers[1:3]
    p = pool.hyper["pool"]
    fires = golden.trace[lif.name].any(axis=1)  # [K, C, H, W]
    # a pooled cell whose window holds a neuron that fires and one silent on some input
    c, i, j = next(cell for cell in np.ndindex(*net.shapes[pool.name])
                   if 0 < fires[:, cell[0], p * cell[1] : p * cell[1] + p,
                                p * cell[2] : p * cell[2] + p].mean() < 1)
    faults = _pool_window_faults(net, c, i, j)
    want = {d.fault_id: [row.tobytes() for row in injected_forward(net, d, ds.spikes)]
            for d in faults}
    forwards = _spy_stacked_forwards(monkeypatch)
    tally, replayed, pooled_to_golden = {}, Counter(), 0
    for d, outs in zip(faults, run_faulty(net, faults, ds, golden, tally), strict=True):
        assert [o.scores.tobytes() for o in outs] == want[d.fault_id], d
        diverging = [o is not g for o, g in zip(outs, golden.entries)]
        replayed[campaign._screen_site(net, d.layer, d.parameter)[2]] += sum(diverging)
        sign = (ParameterKind.SPIKE, 31, 1, FaultMode.BIT_STUCK)
        if (d.parameter, d.bit, d.stuck, d.mode) == sign:
            for n in np.flatnonzero(~fires[(slice(None), *d.coords)]):  # silent: -0.0 throughout
                assert diverging[n] and want[d.fault_id][n] == golden.entries[n].scores.tobytes()
                pooled_to_golden += 1
    assert pooled_to_golden
    assert {cone for cone, n in replayed.items() if n} == ({0, 1, 3} if name in SHARED else {1, 3})
    assert {s for s, _ in forwards} == {start}
    assert tally["replay_forwards"] == len(forwards)
    assert sum(rows for _, rows in forwards) == sum(replayed.values())


def test_group_of_faults_is_screened_in_one_scan(workdir, monkeypatch):
    """F faults on the rows feeding one LIF layer advance that layer together:
    T lif_step calls in all, not F * T."""
    _, net, ds, _ = workdir
    golden = run_golden(net.copy(), ds)
    faults = [_flipped(net, i, "fc1", (i % 5, i % 6), 0) for i in range(8)]
    calls = []
    lif_step = core.lif_step
    monkeypatch.setattr(core, "lif_step", lambda *args: calls.append(1) or lif_step(*args))
    outs = run_faulty(net, faults, ds, golden)
    assert all(o is g for out in outs for o, g in zip(out, golden.entries))  # none replayed
    assert len(calls) == T


def test_screen_blocks_count_conv_windows_in_the_bound(monkeypatch):
    """Single neurons of a conv-fed LIF layer are screened through their
    [K, T, F, ic, k, k] input windows, so F is capped for those to hold at
    most SCREEN_BLOCK_VALUES values; the outcomes do not change."""
    net = _screen_net("conv")
    ds = synth_dataset(43, 6, 8, net.input_shape, net.num_classes, 0.5)
    golden = run_golden(net.copy(), ds)
    lif = net.layers[1]
    faults = [FaultDescriptor(i, lif.name, ParameterKind.POTENTIAL, coords, 30, 1)
              for i, coords in enumerate(np.ndindex(*net.shapes[lif.name]))]
    want = run_faulty(net, faults, ds, golden)
    window = net.layers[0].params["weight"][0].size  # ic * k * k
    bound = len(golden.entries) * net.timesteps * window * 10
    sizes, screen = [], campaign._screen
    monkeypatch.setattr(campaign, "SCREEN_BLOCK_VALUES", bound)
    monkeypatch.setattr(campaign, "_screen",
                        lambda *args: sizes.append(len(args[-1])) or screen(*args))
    got = run_faulty(net, faults, ds, golden)
    assert len(faults) == 48 and sizes == [10, 10, 10, 10, 8]
    for outs, expected in zip(got, want, strict=True):
        assert [o.scores.tobytes() for o in outs] == [e.scores.tobytes() for e in expected]


def test_blocks_keep_batch_order_within_a_site(monkeypatch):
    """The live faults that share a site (w, L and cone form), whichever
    (layer, parameter) each is on, are cut into blocks in batch order: a
    batch that interleaves no-ops with fc1 weight and bias and lif1
    potential and spike faults (one site) and fc2 faults (another), at a
    budget of three faults per block. Each block with a diverging pair runs
    one forward, and every fault gets injected_forward's bytes."""
    net = _screen_net("fc")
    ds = synth_dataset(43, 6, 8, net.input_shape, net.num_classes, 0.5)
    golden = run_golden(net.copy(), ds)
    rng = np.random.default_rng(46)
    cycle = [("fc1", "weight"), None, ("lif1", "potential"), ("fc2", "weight"), ("fc1", "bias"),
             ("lif1", "spike"), None, ("fc2", "bias")]  # None: a no-op
    faults = []
    for i in range(5 * len(cycle)):
        layer, key = cycle[i % len(cycle)] or [("fc1", "weight"), ("fc2", "bias")][i % 2]
        kind = ParameterKind(key)
        shape = net.shapes[layer] if kind.is_dynamic else net.layer(layer).params[key].shape
        coords = tuple(int(rng.integers(n)) for n in shape)
        bit, stuck = int(rng.choice([10, 22, 30, 31])), int(rng.integers(2))
        if kind.is_static:  # a no-op where the cycle says so, else live
            held = (bits_of(net.layer(layer).params[key][coords]) >> bit) & 1
            stuck = held if cycle[i % len(cycle)] is None else 1 - held
        faults.append(FaultDescriptor(i, layer, kind, coords, bit, stuck))
    want = {d.fault_id: [row.tobytes() for row in injected_forward(net, d, ds.spikes)]
            for d in faults}
    blocks, screen = [], campaign._screen  # (fault ids, whether a pair diverges) per block

    def spy(*args):
        screened = screen(*args)
        blocks.append(([d.fault_id for d in args[-1]], bool(screened.differs.any())))
        return screened

    monkeypatch.setattr(campaign, "_screen", spy)
    monkeypatch.setattr(campaign, "SCREEN_BLOCK_VALUES", 3 * len(golden.entries) * net.timesteps)
    forwards, tally = _spy_stacked_forwards(monkeypatch), {}
    outs = run_faulty(net, faults, ds, golden, tally)
    for d, out in zip(faults, outs, strict=True):
        assert [o.scores.tobytes() for o in out] == want[d.fault_id], d
    live = [d for d in faults if not _noop(net, d)]
    assert len(live) == 3 * len(faults) // 4
    for layers in (("fc1", "lif1"), ("fc2",)):
        site = [d.fault_id for d in live if d.layer in layers]  # in batch order
        got = [ids for ids, _ in blocks if faults[ids[0]].layer in layers]
        assert got == [site[j : j + 3] for j in range(0, len(site), 3)], layers
        assert len({faults[i][1:3] for i in got[0]}) > 1  # a block mixes (layer, parameter)s
    assert sum(len(ids) for ids, _ in blocks) == len(live)
    diverging = sum(any_ for _, any_ in blocks)
    assert 0 < diverging < len(blocks)
    assert tally["replay_forwards"] == len(forwards) == diverging


@pytest.mark.parametrize("name", ["wide", "beyond the feed"])
def test_replay_steps_keep_within_the_screen_budget(name, monkeypatch):
    """A block's replay is one forward of F x K rows, and F is capped so that
    one step of it, those rows of its widest layer, holds at most
    SCREEN_BLOCK_VALUES values: behind a 512-wide layer at K=64, where one
    batch's 40 x K rows would hold ten times the budget, and beyond the feed,
    where each row recomputes the faulted conv layer, at a budget of two
    faults' rows. No kernel of the screens or replays takes a larger input
    than that or FORWARD_BLOCK_VALUES values, and the outcomes are those of
    unbounded blocks."""
    if name == "wide":
        net = synth_model(41, "FC(256->512)-LIF-FC(512->10)-LIF", 4, threshold=0.3)
        k, n, budget = 64, 40, campaign.SCREEN_BLOCK_VALUES
    else:
        net = _screen_net("conv-pool-fc")
        k, n, budget = 6, 3, 2 * 6 * core.widest(net)
    ds = synth_dataset(43, k, net.timesteps, net.input_shape, net.num_classes, 0.5)
    golden = run_golden(net.copy(), ds)
    first = net.layers[0]
    faults = [_flipped(net, o, first.name, (o,) + (0,) * (first.params["weight"].ndim - 1), 30)
              for o in range(n)]
    monkeypatch.setattr(campaign, "SCREEN_BLOCK_VALUES", 1 << 30)
    want = run_faulty(net, faults, ds, golden)
    monkeypatch.setattr(campaign, "SCREEN_BLOCK_VALUES", budget)
    forwards, inputs = _spy_stacked_forwards(monkeypatch), []
    for kernel in ("linear_forward", "conv2d_forward"):
        real = getattr(core, kernel)
        monkeypatch.setattr(core, kernel, lambda w, b, x, real=real: inputs.append(x.size)
                            or real(w, b, x))
    got = run_faulty(net, faults, ds, golden)
    steps = [rows * core.widest(net, start) for start, rows in forwards]
    assert len(forwards) > 1 and max(steps) <= budget < n * k * core.widest(net, forwards[0][0])
    assert inputs and max(inputs) <= max(budget, core.FORWARD_BLOCK_VALUES)
    for outs, expected in zip(got, want, strict=True):
        assert [o.scores.tobytes() for o in outs] == [e.scores.tobytes() for e in expected]
    if name == "beyond the feed":
        assert forwards == [(0, 2 * k), (0, k)]


@pytest.mark.parametrize("name", SCREEN_NETS)
def test_forward_block_size_moves_no_bit(name, monkeypatch):
    """network_forward walks T in blocks of FORWARD_BLOCK_VALUES // (rows x
    widest layer) timesteps. One step, three, or all of T per block give
    the same bytes: scores, recorded layer outputs, golden run and trace,
    and every fault's run_faulty outcomes."""
    net = _screen_net(name)
    ds = synth_dataset(43, 6, 8, net.input_shape, net.num_classes, 0.5)
    faults = _screen_faults(net, np.random.default_rng(44))
    k, widest = ds.num_samples, max(map(math.prod, [net.input_shape, *net.shapes.values()]))
    lifs = sum(spec.kind is LayerKind.LIF for spec in net.layers)
    sizes, scan = [], core.lif_scan
    monkeypatch.setattr(core, "lif_scan", lambda *a: sizes.append(a[2].shape[a[5]]) or scan(*a))
    results = []
    for budget, blocks in ((1, [1] * 8), (3 * k * widest, [3, 3, 2]), (1 << 30, [8])):
        monkeypatch.setattr(core, "FORWARD_BLOCK_VALUES", budget)
        record = {s.name: np.empty((k, 8, *net.shapes[s.name]), DTYPE) for s in net.layers}
        run = net.copy()
        sizes.clear()
        scores = core.network_forward(run, ds.spikes, record=record)
        assert sizes == [b for b in blocks for _ in range(lifs)]
        golden = run_golden(net.copy(), ds)
        outs = run_faulty(net, faults, ds, golden)
        results.append((
            scores.tobytes(),
            {name: a.tobytes() for name, a in record.items()},
            [e.scores.tobytes() for e in golden.entries],
            {name: a.tobytes() for name, a in golden.trace.items()},
            [[o.scores.tobytes() for o in out] for out in outs],
        ))
    assert results[0] == results[1] == results[2]


def _forward_bytes(net, ds, faults):
    """The bytes a chain choice must not move: every layer's output recorded
    by a full forward, the golden scores and trace, and every fault's
    run_faulty scores."""
    record = {s.name: np.empty((ds.num_samples, net.timesteps, *net.shapes[s.name]), DTYPE)
              for s in net.layers}
    core.network_forward(net.copy(), ds.spikes, record=record)
    golden = run_golden(net.copy(), ds)
    outs = run_faulty(net, faults, ds, golden)
    return (
        {name: a.tobytes() for name, a in record.items()},
        [e.scores.tobytes() for e in golden.entries],
        {name: a.tobytes() for name, a in golden.trace.items()},
        [[o.scores.tobytes() for o in out] for out in outs],
    )


@pytest.mark.parametrize("name", SCREEN_NETS)
def test_chain_layout_moves_no_bit(name, monkeypatch):
    """linear_forward realizes each chain by np.cumsum, or by a column loop
    that accumulates [out, rows]. Forcing each one on every call gives the
    bytes of the default choice: golden run and trace, recorded layer
    outputs, and every fault's run_faulty outcomes."""
    net = _screen_net(name)
    ds = synth_dataset(43, 6, 8, net.input_shape, net.num_classes, 0.5)
    faults = _screen_faults(net, np.random.default_rng(44))
    results = []
    for width in (core.CUMSUM_MAX_WIDTH, 1 << 62, 0):
        monkeypatch.setattr(core, "CUMSUM_MAX_WIDTH", width)
        results.append(_forward_bytes(net, ds, faults))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("name", SCREEN_NETS)
def test_column_skip_moves_no_bit(name, monkeypatch):
    """linear_forward drops the columns that are +-0 in every row of a call
    when it holds at least SKIP_MIN_TERMS terms. Forcing the skip on every
    call, and off on every call, gives the bytes of the default gate: golden
    run and trace, recorded layer outputs, and every fault's run_faulty
    outcomes. Forced on, calls run on fewer columns than they have; forced
    off, none does."""
    net = _screen_net(name)
    ds = synth_dataset(43, 6, 8, net.input_shape, net.num_classes, 0.5)
    faults = _screen_faults(net, np.random.default_rng(44))
    linear, chains = core.linear_forward, core._chains
    calls = []  # per linear_forward call: its width, then each width its chains ran on
    monkeypatch.setattr(core, "linear_forward",
                        lambda w, b, x: calls.append([w.shape[-1]]) or linear(w, b, x))
    monkeypatch.setattr(core, "_chains",
                        lambda w, x, rows: calls[-1].append(w.shape[-1]) or chains(w, x, rows))
    results, reduced = [], []  # reduced: the calls whose chains ran on fewer columns
    for gate in (core.SKIP_MIN_TERMS, 0, 1 << 62):
        monkeypatch.setattr(core, "SKIP_MIN_TERMS", gate)
        calls.clear()
        results.append(_forward_bytes(net, ds, faults))
        reduced.append(sum(min(ran) < width for width, *ran in calls))
    assert results[0] == results[1] == results[2]
    assert reduced[1] >= reduced[0] >= reduced[2] == 0
    # in these two, every pooled column into FC(12->4) is nonzero in some row
    assert reduced[1] > 0 or name in ("conv", "conv-shared")


def test_noop_fault_is_neither_copied_nor_screened(workdir, monkeypatch):
    """A static fault whose bit already holds its stuck value keeps every
    golden prediction without a copy of the network or a screen."""
    _, net, ds, _ = workdir
    golden = run_golden(net.copy(), ds)
    flipped = _flipped(net, 0, "fc1", (1, 2), 7)
    noop = flipped._replace(fault_id=1, stuck=1 - flipped.stuck)
    copies, steps = [], []
    copy, lif_step = Network.copy, core.lif_step
    monkeypatch.setattr(Network, "copy", lambda self: copies.append(1) or copy(self))
    monkeypatch.setattr(core, "lif_step", lambda *args: steps.append(1) or lif_step(*args))
    (outs,) = run_faulty(net, [noop], ds, golden)
    assert outs is golden.entries
    assert copies == [] and steps == []


def test_sign_bit_spike_fault_is_replayed(workdir):
    """Stuck sign bit on a spike turns a silent step's 0.0 into -0.0, which
    is == 0.0 but not golden: the screen compares bits, so every input is
    replayed, also those on which the neuron never fires."""
    _, net, ds, _ = workdir
    golden = run_golden(net.copy(), ds)
    silent = ~golden.trace["lif1"][:, :, 0].any(axis=1)
    assert silent.any()  # inputs whose only difference is -0.0
    d = FaultDescriptor(0, "lif1", ParameterKind.SPIKE, (0,), 31, 1)
    cells = campaign._golden_cells(golden.entries)
    _, sites, _ = campaign._run_batch(net, [d], ds, golden, cells)
    assert sites == {"lif1.spike": {"faults": 1, "noop_faults": 0, "screened_pairs": 0,
                                    "replayed_pairs": len(golden.entries)}}


@pytest.mark.parametrize("bad", [
    FaultDescriptor(9, "fc9", ParameterKind.WEIGHT, (0, 0), 3, 1),
    FaultDescriptor(9, "fc1", ParameterKind.WEIGHT, (0, 6), 3, 1),
    FaultDescriptor(9, "fc1", ParameterKind.WEIGHT, (0,), 3, 1),
    FaultDescriptor(9, "lif1", ParameterKind.SPIKE, (5,), 3, 1),
    FaultDescriptor(9, "fc1", ParameterKind.FEEDBACK_WEIGHT, (0, 0), 3, 1),
], ids=["layer", "bounds", "rank", "state bounds", "parameter"])
def test_run_faulty_checks_each_address_once_and_names_a_bad_fault(workdir, monkeypatch, bad):
    """run_faulty resolves one shape per (layer, parameter), as read_fault_list
    does, so descriptors that did not come from a fault list are still
    checked; a bad one raises an AddressError naming its fault, after good
    ones of the same (layer, parameter)."""
    _, net, ds, _ = workdir
    golden = run_golden(net.copy(), ds)
    resolved, target_tensor = [], faults_module.target_tensor
    monkeypatch.setattr(faults_module, "target_tensor",
                        lambda net, d: resolved.append(d.fault_id) or target_tensor(net, d))
    good = [FaultDescriptor(i, "fc1", ParameterKind.WEIGHT, (i % 5, i % 6), 3, 1) for i in range(6)]
    good += [FaultDescriptor(6, "lif1", ParameterKind.SPIKE, (4,), 3, 1)]
    run_faulty(net, good, ds, golden)
    assert resolved == [0, 6]
    with pytest.raises(AddressError, match=r"^fault 9: "):
        run_faulty(net, [*good, bad], ds, golden)


# One bad address of each kind, and the exact error the walk over the faults
# in order words for it.
_BAD_ADDRESSES = {
    "rank": (("fc1", ParameterKind.WEIGHT, (0,)),
             "coords [0] out of bounds for fc1.weight shape (5, 6)"),
    "bounds": (("fc1", ParameterKind.WEIGHT, (0, 6)),
               "coords [0, 6] out of bounds for fc1.weight shape (5, 6)"),
    "layer": (("fc9", ParameterKind.WEIGHT, (0, 0)), "no layer named 'fc9'"),
    "parameter": (("fc1", ParameterKind.FEEDBACK_WEIGHT, (0, 0)),
                  "layer 'fc1' has no parameter 'feedback_weight'"),
    "state bounds": (("lif1", ParameterKind.SPIKE, (5,)),
                     "coords [5] out of bounds for lif1.spike shape (5,)"),
}


def _first_bad_address(net, faults):
    """The error the scalar walk raises: target_tensor on each fault in order."""
    for d in faults:
        try:
            faults_module.target_tensor(net, d)
        except AddressError as exc:
            return f"fault {d.fault_id}: {exc}"
    return None


@pytest.mark.parametrize("first", sorted(_BAD_ADDRESSES))
def test_array_address_check_names_the_first_bad_fault(workdir, tmp_path, first):
    """With good faults of several (layer, parameter) groups before it, the
    first bad fault in list order is named, by run_faulty and by
    read_fault_list with a network, with the scalar walk's exact text, even
    when a later bad fault sits in a group that is checked before its own."""
    _, net, ds, fl = workdir
    golden = run_golden(net.copy(), ds)
    good = [FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (1, 2), 3, 1),
            FaultDescriptor(1, "fc2", ParameterKind.WEIGHT, (2, 4), 3, 1),
            FaultDescriptor(2, "lif1", ParameterKind.SPIKE, (4,), 3, 1),
            FaultDescriptor(3, "fc1", ParameterKind.BIAS, (4,), 3, 1)]
    for second in sorted(_BAD_ADDRESSES):
        (address, text), (later, _) = _BAD_ADDRESSES[first], _BAD_ADDRESSES[second]
        faults = [*good[:2], FaultDescriptor(7, *address, 3, 1), *good[2:],
                  FaultDescriptor(8, *later, 3, 0)]
        want = f"fault 7: {text}"
        assert _first_bad_address(net, faults) == want
        with pytest.raises(AddressError) as caught:
            run_faulty(net, faults, ds, golden)
        assert str(caught.value) == want, second
        path = tmp_path / f"{first}_{second}.csv"
        write_fault_list(FaultList(faults, fl.universe, fl.spec, len(faults), fl.polarity,
                                   fl.spike_mode), path)
        with pytest.raises(AddressError) as caught:
            read_fault_list(path, net)
        assert str(caught.value) == want, second


# binary32 patterns a gathered bit test must read as they are
_SPECIAL_PATTERNS = [0x7FC00000, 0x7F800001, 0xFFC00001, 0x7F800000, 0xFF800000, 0x80000000,
                     0x00000001, 0x807FFFFF, 0x3F800000]


def test_gathered_noop_test_matches_the_scalar_one(workdir):
    """A static fault is a no-op, and gets golden.entries itself, exactly when
    the scalar test ``(value.view(uint32) >> bit) & 1 == stuck`` says so: on
    every bit 0-31 at both polarities of weights and biases holding NaNs
    (quiet and signalling), infinities, -0.0, subnormals and 1.0, in one
    batch with a dynamic fault."""
    _, net, ds, _ = workdir
    net = net.copy()
    weight, bias = net.layer("fc1").params["weight"], net.layer("fc1").params["bias"]
    cells = [("weight", (at // 6, at % 6)) for at in range(len(_SPECIAL_PATTERNS))]
    cells += [("bias", (at,)) for at in range(5)]
    for (name, coords), pattern in zip(cells, _SPECIAL_PATTERNS + _SPECIAL_PATTERNS[-5:]):
        (weight if name == "weight" else bias)[coords] = f32_from_bits(pattern)
    faults = [FaultDescriptor(len(cells) * 64, "lif1", ParameterKind.POTENTIAL, (2,), 30, 1)]
    faults += [FaultDescriptor(i, "fc1", ParameterKind(name), coords, bit, stuck)
               for i, ((name, coords), bit, stuck) in enumerate(
                   (cell, bit, stuck) for cell in cells for bit in range(32) for stuck in (0, 1))]
    golden = run_golden(net.copy(), ds)
    outs = run_faulty(net, faults, ds, golden)
    noops = 0
    assert outs[0] is not golden.entries  # dynamic: never a no-op
    for d, out in zip(faults[1:], outs[1:], strict=True):
        value = net.layer(d.layer).params[d.parameter.value][d.coords]
        scalar = (int(value.view(np.uint32)) >> d.bit) & 1 == d.stuck
        assert (out is golden.entries) == scalar, d
        noops += scalar
    assert noops == len(cells) * 32


def test_run_faulty_rejects_golden_without_trace(workdir, tmp_path):
    _, net, ds, _ = workdir
    p = tmp_path / "golden.csv"
    write_golden(run_golden(net.copy(), ds), p)
    d = FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0, 0), 30, 1)
    with pytest.raises(ValueError, match="holds no trace"):
        run_faulty(net, d, ds, read_golden(p))


def test_forward_runs_only_for_diverging_faults(workdir, monkeypatch):
    """A screened fault with no diverging input runs no forward. One whose
    inputs all diverge runs one stacked forward from the layer after its
    LIF layer, a row per input, and a batch of both runs that forward alone."""
    _, net, ds, _ = workdir
    golden = run_golden(net.copy(), ds)
    forwards = _spy_stacked_forwards(monkeypatch)
    steps, lif_step = [], core.lif_step
    monkeypatch.setattr(core, "lif_step", lambda *args: steps.append(1) or lif_step(*args))
    masked = _flipped(net, 0, "fc1", (0, 0), 5)  # changes a bit, yet no input diverges
    outs = run_faulty(net, masked, ds, golden)
    assert steps and forwards == []  # screened, not replayed
    assert all(o is g for o, g in zip(outs, golden.entries))
    saturated = FaultDescriptor(1, "lif1", ParameterKind.SPIKE, (0,), 0, 1, FaultMode.VALUE_STUCK)
    run_faulty(net, saturated, ds, golden)  # no neuron fires at t=0: every input diverges
    assert forwards == [(2, K)]  # one forward, from the layer after lif1
    tally = {}
    run_faulty(net, [masked, saturated], ds, golden, tally)
    assert forwards == [(2, K)] * 2 and tally["replay_forwards"] == 1
    assert tally.keys() == {"replay_forwards", "screen_seconds", "replay_seconds"}
    tally = {}
    run_faulty(net, [masked], ds, golden, tally)  # screened, and nothing to replay
    assert tally["replay_forwards"] == 0 == tally["replay_seconds"] < tally["screen_seconds"]
