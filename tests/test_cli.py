"""End-to-end command-line behavior: pipeline, exit codes, stderr contract."""

import json
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from snnfault import cli
from snnfault.cli import dispatch
from snnfault.faultlist import SamplingSpec, read_fault_list, sample_size

ARCH = "FC(6->4)-LIF-FC(4->3)-LIF"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Synth inputs once; individual tests run the later stages."""
    d = tmp_path_factory.mktemp("cli")
    model = d / "model.sjm"
    dataset = d / "data.sjd"
    assert dispatch(["synth", "model", "--arch", ARCH, "--seed", "7",
                     "--timesteps", "5", "--out", str(model)]) == 0
    assert dispatch(["synth", "dataset", "--samples", "6", "--timesteps", "5",
                     "--shape", "6", "--classes", "3", "--rate", "0.5",
                     "--seed", "8", "--out", str(dataset)]) == 0
    return d, model, dataset


def gen_fl(d, model, out="faults.csv", extra=()):
    args = ["gen-fl", "--model", str(model), "--points", "weight,bias",
            "--error-margin", "0.3", "--seed", "11", "--out", str(d / out)]
    assert dispatch(args + list(extra)) == 0
    return d / out


def test_full_pipeline(pipeline, capsys):
    d, model, dataset = pipeline
    fl_path = gen_fl(d, model)
    golden = d / "golden.csv"
    assert dispatch(["golden", "--model", str(model), "--dataset", str(dataset),
                     "--out", str(golden)]) == 0
    out_dir = d / "run"
    assert dispatch(["inject", "--model", str(model), "--dataset", str(dataset),
                     "--fl", str(fl_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "outcomes.csv").exists()
    report = d / "report.json"
    assert dispatch(["report", "--golden", str(golden), "--outcomes", str(out_dir),
                     "--fl", str(fl_path), "--format", "json", "--out", str(report)]) == 0
    blob = json.loads(report.read_text())
    fl = read_fault_list(fl_path)
    assert blob["network"]["pairs"] == fl.n * 6
    total_pct = sum(blob["network"]["classes"].values())
    assert total_pct == pytest.approx(100.0, abs=0.01)
    assert "campaign complete" in capsys.readouterr().out


def test_report_table_format(pipeline):
    d, model, dataset = pipeline
    table = d / "report.txt"
    assert dispatch(["report", "--golden", str(d / "golden.csv"), "--outcomes", str(d / "run"),
                     "--fl", str(d / "faults.csv"), "--format", "table",
                     "--out", str(table)]) == 0
    text = table.read_text()
    assert "network" in text and "Masked" in text


def test_gen_fl_byte_deterministic(pipeline):
    d, model, _ = pipeline
    a = gen_fl(d, model, "fl_a.csv")
    b = gen_fl(d, model, "fl_b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_gen_fl_n_matches_formula(pipeline):
    d, model, _ = pipeline
    fl = read_fault_list(gen_fl(d, model, "fl_n.csv"))
    # default --confidence 0.99 maps to t=2.576
    assert fl.n == sample_size(fl.universe.N, SamplingSpec(error_margin=0.3, quantile=2.576, seed=11))
    assert fl.universe.N == (6 * 4 + 4 + 4 * 3 + 3) * 32


def test_gen_fl_quantile_overrides_confidence(pipeline):
    d, model, _ = pipeline
    a = gen_fl(d, model, "fl_q.csv", extra=["--quantile", "1.96"])
    b = gen_fl(d, model, "fl_c.csv", extra=["--confidence", "0.95"])
    assert a.read_bytes() == b.read_bytes()


def test_gen_fl_exhaustive(pipeline):
    d, model, _ = pipeline
    fl = read_fault_list(gen_fl(d, model, "fl_x.csv", extra=["--exhaustive"]))
    assert fl.n == fl.universe.N


def test_usage_errors_exit_2(capsys):
    assert dispatch(["gen-fl"]) == 2  # missing required flags
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert dispatch(["--help"]) == 0
    assert "gen-fl" in capsys.readouterr().out


def test_missing_model_exits_3(pipeline, capsys):
    d, _, _ = pipeline
    code = dispatch(["gen-fl", "--model", str(d / "nope.sjm"), "--points", "weight",
                     "--seed", "1", "--out", str(d / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"snnfault: error: \w+: .+\n", err)


def test_bad_points_exits_3(pipeline, capsys):
    d, model, _ = pipeline
    code = dispatch(["gen-fl", "--model", str(model), "--points", "weight,gamma",
                     "--seed", "1", "--out", str(d / "x.csv")])
    assert code == 3
    assert "snnfault: error: ValueError: unknown parameter kind 'gamma'" in capsys.readouterr().err


def test_bad_arch_exits_3(tmp_path, capsys):
    code = dispatch(["synth", "model", "--arch", "FC(3->", "--seed", "1",
                     "--timesteps", "4", "--out", str(tmp_path / "m.sjm")])
    assert code == 3
    assert "FormatError" in capsys.readouterr().err


def test_dirty_out_dir_exits_4(pipeline, capsys):
    d, model, dataset = pipeline
    out_dir = d / "dirty"
    out_dir.mkdir()
    (out_dir / "checkpoint.txt").write_text("0-3\n")  # stale campaign state
    code = dispatch(["inject", "--model", str(model), "--dataset", str(dataset),
                     "--fl", str(d / "faults.csv"), "--out", str(out_dir)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("snnfault: error: ResumeError:")
    assert err.count("\n") == 1


def _inject_workers(monkeypatch, extra=()):
    """The worker count `inject` hands to run_campaign, without running it."""
    seen = []

    def fake_run_campaign(cfg):
        seen.append(cfg.workers)
        return SimpleNamespace(status="complete", processed=0, total=0, wall_seconds=0.0,
                               out_dir=cfg.out_dir)

    monkeypatch.setattr(cli, "run_campaign", fake_run_campaign)
    code = dispatch(["inject", "--model", "m", "--dataset", "d", "--fl", "f", "--out", "o",
                     *extra])
    return code, seen


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("SNNFAULT_WORKERS", "6")
    assert _inject_workers(monkeypatch) == (0, [6])
    assert _inject_workers(monkeypatch, ["--workers", "2"]) == (0, [2])
    monkeypatch.delenv("SNNFAULT_WORKERS")
    assert _inject_workers(monkeypatch) == (0, [1])


def test_bad_workers_env_exits_3_only_for_inject(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SNNFAULT_WORKERS", "abc")
    code, seen = _inject_workers(monkeypatch)
    assert code == 3 and seen == []
    err = capsys.readouterr().err
    assert err.startswith("snnfault: error: ValueError: SNNFAULT_WORKERS")
    assert err.count("\n") == 1
    # other subcommands never read the variable
    assert dispatch(["synth", "dataset", "--samples", "1", "--timesteps", "2", "--shape", "3",
                     "--classes", "2", "--rate", "0.5", "--seed", "1",
                     "--out", str(tmp_path / "d.sjd")]) == 0


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "snnfault", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: snnfault")
