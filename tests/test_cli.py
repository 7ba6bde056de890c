"""End-to-end command-line behavior: pipeline, exit codes, stderr contract."""

import hashlib
import json
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import MALFORMED_FLOATS, MALFORMED_INTEGERS, Killed, tear_writes
from snnfault import cli
from snnfault.cli import dispatch
from snnfault.campaign import CampaignConfig, read_golden, read_outcomes
from snnfault.faultlist import SamplingSpec, read_fault_list, sample_size
from snnfault.report import aggregate, render_report

ARCH = "FC(6->4)-LIF-FC(4->3)-LIF"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Synth inputs, ``faults.csv`` and the complete campaign ``run/`` once;
    individual tests run the later stages."""
    d = tmp_path_factory.mktemp("cli")
    model = d / "model.sjm"
    dataset = d / "data.sjd"
    assert dispatch(["synth", "model", "--arch", ARCH, "--seed", "7",
                     "--timesteps", "5", "--out", str(model)]) == 0
    assert dispatch(["synth", "dataset", "--samples", "6", "--timesteps", "5",
                     "--shape", "6", "--classes", "3", "--rate", "0.5",
                     "--seed", "8", "--out", str(dataset)]) == 0
    assert dispatch(["inject", "--model", str(model), "--dataset", str(dataset),
                     "--fl", str(gen_fl(d, model)), "--out", str(d / "run")]) == 0
    return d, model, dataset


def gen_fl(d, model, out="faults.csv", extra=()):
    args = ["gen-fl", "--model", str(model), "--points", "weight,bias",
            "--error-margin", "0.3", "--seed", "11", "--out", str(d / out)]
    assert dispatch(args + list(extra)) == 0
    return d / out


def test_inject_refuses_a_fault_list_of_another_model(tmp_path, capsys):
    """A fault list drawn from FC(8->6)-LIF-FC(6->3)-LIF, injected into
    FC(8->12)-LIF-FC(12->3)-LIF, whose every fault it can address: inject
    exits 3 naming the first universe entry that differs, and runs nothing,
    rather than report percentages over the other model's universe."""
    small, big, data = tmp_path / "small.sjm", tmp_path / "big.sjm", tmp_path / "d.sjd"
    for arch, path in (("FC(8->6)-LIF-FC(6->3)-LIF", small), ("FC(8->12)-LIF-FC(12->3)-LIF", big)):
        assert dispatch(["synth", "model", "--arch", arch, "--seed", "1",
                         "--timesteps", "5", "--out", str(path)]) == 0
    assert dispatch(["synth", "dataset", "--samples", "4", "--timesteps", "5", "--shape", "8",
                     "--classes", "3", "--rate", "0.5", "--seed", "2", "--out", str(data)]) == 0
    fl = tmp_path / "fl.csv"
    assert dispatch(["gen-fl", "--model", str(small), "--points", "weight",
                     "--error-margin", "0.2", "--seed", "3", "--out", str(fl)]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    assert dispatch(["inject", "--model", str(big), "--dataset", str(data), "--fl", str(fl),
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "snnfault: error: CompatibilityError: fault list's universe fc1 weight 6x8"
        " is not the model's fc1 weight 12x8\n"
    )
    assert not out.exists()


def test_inject_refuses_a_row_outside_the_lists_universe(tmp_path, capsys):
    """A weight-only list for FC(8->6)-LIF-FC(6->3)-LIF with a bias row added
    (and n bumped): inject exits 3 naming the row's line and writes no
    campaign state, rather than run a campaign that report then refuses."""
    model, data, fl = tmp_path / "m.sjm", tmp_path / "d.sjd", tmp_path / "fl.csv"
    assert dispatch(["synth", "model", "--arch", "FC(8->6)-LIF-FC(6->3)-LIF", "--seed", "1",
                     "--timesteps", "5", "--out", str(model)]) == 0
    assert dispatch(["synth", "dataset", "--samples", "4", "--timesteps", "5", "--shape", "8",
                     "--classes", "3", "--rate", "0.5", "--seed", "2", "--out", str(data)]) == 0
    assert dispatch(["gen-fl", "--model", str(model), "--points", "weight",
                     "--error-margin", "0.2", "--seed", "3", "--out", str(fl)]) == 0
    lines = fl.read_text(encoding="utf-8").splitlines()
    n = int(re.search(r" n=(\d+) ", lines[0])[1])
    lines[0] = lines[0].replace(f" n={n} ", f" n={n + 1} ")
    lines.append(f"{n},fc1,bias,3,1,1,bit")
    fl.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "run"
    assert dispatch(["inject", "--model", str(model), "--dataset", str(data), "--fl", str(fl),
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"snnfault: error: FormatError: fault {n}: fc1 bias is not in the list's universe"
        f" (line {len(lines)})\n"
    )
    assert not out.exists()


def test_full_pipeline(pipeline, tmp_path, capsys):
    _, model, dataset = pipeline
    fl_path = gen_fl(tmp_path, model)
    out_dir = tmp_path / "run"
    assert dispatch(["inject", "--model", str(model), "--dataset", str(dataset),
                     "--fl", str(fl_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "outcomes.csv").exists()
    report = tmp_path / "report.json"
    assert dispatch(["report", "--outcomes", str(out_dir),
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
    assert dispatch(["report", "--outcomes", str(d / "run"),
                     "--fl", str(d / "faults.csv"), "--format", "table",
                     "--out", str(table)]) == 0
    text = table.read_text()
    assert "network" in text and "Masked" in text


def test_torn_report_write_keeps_the_previous_report(pipeline, monkeypatch):
    """The report file holds render_report's bytes, and a kill halfway through
    writing it leaves the previous one whole, whichever open() the writer
    goes through."""
    d, _, _ = pipeline
    report = d / "torn_report.txt"
    args = ["report", "--outcomes", str(d / "run"), "--fl", str(d / "faults.csv"),
            "--out", str(report)]
    fl = read_fault_list(d / "faults.csv")
    rep = aggregate(read_outcomes(d / "run" / "outcomes.csv"),
                    read_golden(d / "run" / "golden.csv"), fl, fl.universe)
    for fmt in ("csv", "json", "table"):
        assert dispatch(args + ["--format", fmt]) == 0
        assert report.read_bytes() == render_report(rep, fmt)
    previous = report.read_bytes()
    tear_writes(monkeypatch, report.name, len(render_report(rep, "csv")) // 2)
    with pytest.raises(Killed):
        dispatch(args + ["--format", "csv"])
    monkeypatch.undo()
    assert report.read_bytes() == previous
    assert dispatch(args + ["--format", "table"]) == 0
    assert report.read_bytes() == previous


def test_golden_comes_only_from_the_campaign_directory(pipeline, capsys):
    """No command writes a second golden file, and report reads none but
    the campaign's own: `golden` and `report --golden` are usage errors."""
    d, model, dataset = pipeline
    assert dispatch(["golden", "--model", str(model), "--dataset", str(dataset),
                     "--out", str(d / "g.csv")]) == 2
    assert dispatch(["report", "--golden", str(d / "run" / "golden.csv"),
                     "--outcomes", str(d / "run"), "--fl", str(d / "faults.csv"),
                     "--out", str(d / "g.txt")]) == 2
    assert not (d / "g.csv").exists() and not (d / "g.txt").exists()
    capsys.readouterr()


def test_report_refuses_a_fault_list_the_campaign_did_not_run(tmp_path, capsys):
    """Lists sampled with other seeds share their size and fault ids, so the
    outcomes cover either; only the hash campaign.json records tells them
    apart, and a report against the wrong one exits 4 and writes nothing."""
    model, dataset, run = tmp_path / "m.sjm", tmp_path / "d.sjd", tmp_path / "run"
    assert dispatch(["synth", "model", "--arch", "FC(8->6)-LIF-FC(6->3)-LIF", "--seed", "5",
                     "--timesteps", "10", "--out", str(model)]) == 0
    assert dispatch(["synth", "dataset", "--samples", "12", "--timesteps", "10", "--shape", "8",
                     "--classes", "3", "--rate", "0.4", "--seed", "6", "--out", str(dataset)]) == 0
    lists = [tmp_path / "fl1.csv", tmp_path / "fl2.csv"]
    for seed, fl in enumerate(lists, 1):
        assert dispatch(["gen-fl", "--model", str(model), "--points", "weight,bias",
                         "--error-margin", "0.1", "--seed", str(seed), "--out", str(fl)]) == 0
        assert read_fault_list(fl).n == 156
    assert dispatch(["inject", "--model", str(model), "--dataset", str(dataset),
                     "--fl", str(lists[0]), "--out", str(run)]) == 0
    report = tmp_path / "report.txt"
    args = ["report", "--outcomes", str(run), "--out", str(report), "--fl"]
    assert dispatch(args + [str(lists[0])]) == 0
    previous = report.read_bytes()
    capsys.readouterr()
    assert dispatch(args + [str(lists[1])]) == 4
    err = capsys.readouterr().err
    assert err == (f"snnfault: error: ConsistencyError: {lists[1]} is not the fault list "
                   f"the campaign in {run} ran\n")
    assert report.read_bytes() == previous


CAMPAIGN_JSON_DEFECTS = {  # campaign.json's bytes, from the complete run's metadata
    "missing": (lambda meta: None, 3, "FileNotFoundError"),
    "not-json": (lambda meta: b"{", 3, "FormatError"),
    "not-utf8": (lambda meta: b"\xff\xfe\xfd", 3, "FormatError"),
    "not-an-object": (lambda meta: b"[]", 3, "FormatError"),
    "no-fault-list-hash": (
        lambda meta: json.dumps({"status": "complete"}).encode(), 3, "FormatError"),
    "partial": (lambda meta: json.dumps({**meta, "status": "partial"}).encode(),
                4, "ConsistencyError"),
}


@pytest.mark.parametrize("edit, code, error", CAMPAIGN_JSON_DEFECTS.values(),
                         ids=CAMPAIGN_JSON_DEFECTS)
def test_report_needs_a_complete_campaigns_metadata(pipeline, tmp_path, capsys, edit, code, error):
    d, model, dataset = pipeline
    fl_path, run = gen_fl(d, model), tmp_path / "run"
    assert dispatch(["inject", "--model", str(model), "--dataset", str(dataset),
                     "--fl", str(fl_path), "--out", str(run)]) == 0
    data = edit(json.loads((run / "campaign.json").read_text()))
    if data is None:
        (run / "campaign.json").unlink()
    else:
        (run / "campaign.json").write_bytes(data)
    capsys.readouterr()
    assert dispatch(["report", "--outcomes", str(run), "--fl", str(fl_path),
                     "--out", str(tmp_path / "report.txt")]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"snnfault: error: {error}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "report.txt").exists()


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
    for arch in ("FC(3->", "FC(" + "1" * 5000 + "->3)-LIF", "FC(٣->2)-LIF"):
        code = dispatch(["synth", "model", "--arch", arch, "--seed", "1",
                         "--timesteps", "4", "--out", str(tmp_path / "m.sjm")])
        assert code == 3
        assert capsys.readouterr().err.startswith("snnfault: error: FormatError: bad layer token")
    assert not (tmp_path / "m.sjm").exists()


# Their float64 draws need more than the 47-bit user address space, so the
# allocation fails at once without touching memory.
OVERSIZED = {
    "fc-fan-in": ["synth", "model", "--arch", "FC(140737488355328->3)-LIF"],
    "fc-past-int64": ["synth", "model", "--arch", "FC(99999999999999999999->3)-LIF"],
    "dataset-shape": ["synth", "dataset", "--shape", "140737488355328", "--samples", "1",
                      "--classes", "2", "--rate", "0.5"],
}


@pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED)
def test_oversized_synth_extents_exit_3(tmp_path, capsys, argv):
    out = tmp_path / "out.bin"
    code = dispatch([*argv, "--seed", "1", "--timesteps", "2", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("snnfault: error: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("form", MALFORMED_INTEGERS.values(), ids=MALFORMED_INTEGERS)
def test_malformed_shape_exits_3(tmp_path, capsys, form):
    code = dispatch(["synth", "dataset", "--samples", "1", "--timesteps", "2",
                     "--shape", form("3"), "--classes", "2", "--rate", "0.5",
                     "--seed", "1", "--out", str(tmp_path / "d.sjd")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("snnfault: error: ValueError: bad shape '")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["fc 1", "fc,1", ""])
def test_model_with_a_layer_name_no_fault_list_can_carry_exits_3(pipeline, tmp_path, capsys, name):
    """A model file whose layer fc1 is renamed so that a fault list could not
    spell it: gen-fl exits 3 naming the layer, and writes no list that inject
    would then refuse."""
    _, model, _ = pipeline
    raw = model.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    header["layers"][0]["name"] = name
    header["tensors"] = {t.replace("fc1.", f"{name}.", 1): entry
                         for t, entry in header["tensors"].items()}
    blob = json.dumps(header).encode()
    renamed = tmp_path / "renamed.sjm"
    renamed.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + hlen :])
    code = dispatch(["gen-fl", "--model", str(renamed), "--points", "weight,bias",
                     "--seed", "1", "--out", str(tmp_path / "faults.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        f"snnfault: error: DimensionError: layer name {name!r}: ")
    assert not (tmp_path / "faults.csv").exists()


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


def test_resume_with_changed_model_exits_4(pipeline, capsys):
    d, model, dataset = pipeline
    fl_path = gen_fl(d, model)
    out_dir = d / "rebound"
    inject = ["inject", "--dataset", str(dataset), "--fl", str(fl_path), "--out", str(out_dir)]
    assert dispatch(inject + ["--model", str(model)]) == 0
    other = d / "other_model.sjm"  # same architecture, other weights
    assert dispatch(["synth", "model", "--arch", ARCH, "--seed", "70",
                     "--timesteps", "5", "--out", str(other)]) == 0
    capsys.readouterr()
    assert dispatch(inject + ["--model", str(other), "--resume"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("snnfault: error: ResumeError: model_sha256 changed")
    assert err.count("\n") == 1


def test_refused_inject_leaves_the_campaign_untouched(tmp_path, capsys):
    """An inject refused for the directory's state, with or without
    --resume, writes nothing: a complete campaign keeps every file's bytes
    (golden.csv included) and still reports."""
    arch = "FC(8->6)-LIF-FC(6->3)-LIF"
    for seed in (1, 2):
        assert dispatch(["synth", "model", "--arch", arch, "--seed", str(seed),
                         "--timesteps", "5", "--out", str(tmp_path / f"m{seed}.sjm")]) == 0
    data = tmp_path / "d.sjd"
    assert dispatch(["synth", "dataset", "--samples", "4", "--timesteps", "5", "--shape", "8",
                     "--classes", "3", "--rate", "0.5", "--seed", "2", "--out", str(data)]) == 0
    fl = gen_fl(tmp_path, tmp_path / "m1.sjm")
    run = tmp_path / "run"
    inject = ["inject", "--dataset", str(data), "--fl", str(fl), "--out", str(run)]
    assert dispatch(inject + ["--model", str(tmp_path / "m1.sjm")]) == 0
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    for extra in ([], ["--resume"]):
        assert dispatch(inject + ["--model", str(tmp_path / "m2.sjm"), *extra]) == 4
        assert capsys.readouterr().err.startswith("snnfault: error: ResumeError:")
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    assert dispatch(["report", "--outcomes", str(run), "--fl", str(fl),
                     "--out", str(tmp_path / "report.csv")]) == 0


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


def test_checkpoint_every_defaults_to_the_campaign_configs(monkeypatch, capsys):
    """--checkpoint-every takes its default, and its help text, from
    CampaignConfig.checkpoint_every, so the two cannot drift apart."""
    default, seen = CampaignConfig.checkpoint_every, []
    monkeypatch.setattr(cli, "run_campaign", lambda cfg: seen.append(cfg.checkpoint_every)
                        or SimpleNamespace(status="complete", processed=0, total=0,
                                           wall_seconds=0.0, out_dir=cfg.out_dir))
    assert dispatch(["inject", "--model", "m", "--dataset", "d", "--fl", "f", "--out", "o"]) == 0
    assert seen == [default]
    assert dispatch(["inject", "--help"]) == 0
    assert f"(default {default})" in " ".join(capsys.readouterr().out.split())


def test_bad_workers_env_exits_3_only_for_inject(tmp_path, monkeypatch, capsys):
    for value in ("abc", "²", *(form("2") for form in MALFORMED_INTEGERS.values())):
        monkeypatch.setenv("SNNFAULT_WORKERS", value)
        code, seen = _inject_workers(monkeypatch)
        assert code == 3 and seen == []
        err = capsys.readouterr().err
        assert err.startswith("snnfault: error: ValueError: SNNFAULT_WORKERS must be a positive")
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


# Every option argparse converts to a number, in a command line that is
# otherwise valid up to parsing (the files need not exist: parsing fails first).
_NUMERIC_OPTIONS = {
    "int": [
        (["synth", "dataset", "--shape", "3", "--rate", "0.5", "--out", "d.sjd"],
         {"--samples": "1", "--timesteps": "2", "--classes": "2", "--seed": "1"}),
        (["synth", "model", "--arch", ARCH, "--out", "m.sjm"], {"--seed": "1", "--timesteps": "4"}),
        (["gen-fl", "--model", "m", "--points", "weight", "--out", "f"], {"--seed": "1"}),
        (["inject", "--model", "m", "--dataset", "d", "--fl", "f", "--out", "o"],
         {"--subset": "2", "--workers": "2", "--checkpoint-every": "5"}),
    ],
    "float": [
        (["synth", "dataset", "--samples", "1", "--timesteps", "2", "--shape", "3",
          "--classes", "2", "--seed", "1", "--out", "d.sjd"], {"--rate": "0.5"}),
        (["synth", "model", "--arch", ARCH, "--seed", "1", "--timesteps", "4", "--out", "m.sjm"],
         {"--beta": "0.9", "--threshold": "1.0"}),
        (["gen-fl", "--model", "m", "--points", "weight", "--seed", "1", "--out", "f"],
         {"--error-margin": "0.1", "--confidence": "0.9", "--quantile": "2.5", "--p": "0.5"}),
    ],
}


def _numeric_cases(kind, spellings):
    for base, options in _NUMERIC_OPTIONS[kind]:
        for option in options:
            for spelling in spellings:
                values = dict(options)
                values[option] = spelling(values[option]) if callable(spelling) else spelling
                yield [*base, *(x for pair in values.items() for x in pair)], option


@pytest.mark.parametrize("kind, spellings", [
    ("int", [*MALFORMED_INTEGERS.values(), "٢", " 2", "0_5", "2.0"]),
    ("float", [*MALFORMED_FLOATS.values(), "٢", " 2", "0_5", "1e"]),
])
def test_numeric_options_take_only_the_file_grammar(kind, spellings, capsys):
    """int() and float() accept spellings INT and FLOAT reject; each numeric
    option is a usage error (exit 2) for them, like --samples abc."""
    cases = list(_numeric_cases(kind, spellings))
    assert len(cases) > 20
    for argv, option in cases:
        assert dispatch(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"argument {option}: invalid {kind} value" in err, err


def test_numeric_options_still_take_plain_numbers(tmp_path):
    assert dispatch(["synth", "dataset", "--samples", "2", "--timesteps", "3", "--shape", "3",
                     "--classes", "2", "--rate", "0.25", "--seed", "1",
                     "--out", str(tmp_path / "d.sjd")]) == 0
    assert dispatch(["synth", "model", "--arch", ARCH, "--seed", "1", "--timesteps", "3",
                     "--beta", "-0.5", "--threshold", "1e-1",
                     "--out", str(tmp_path / "m.sjm")]) == 0


def _walkthrough_commands():
    """README's Pipeline walkthrough block, one argv per command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Pipeline walkthrough", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_walkthrough_reproduces_the_reference_hashes(tmp_path, monkeypatch):
    """README's five commands, run as written, give the criterion-7 fault list
    and outcomes, byte for byte."""
    monkeypatch.chdir(tmp_path)
    commands = _walkthrough_commands()
    assert [argv[:2] for argv in commands] == [
        ["snnfault", "synth"], ["snnfault", "synth"], ["snnfault", "gen-fl"],
        ["snnfault", "inject"], ["snnfault", "report"],
    ]
    for argv in commands:
        assert dispatch(argv[1:]) == 0, argv
    assert hashlib.sha256(Path("faults.csv").read_bytes()).hexdigest() == (
        "bb6a5191d9c63227d4de7315d123c1a30bb191b759031c05a285e409f8f621b2")
    assert hashlib.sha256(Path("run/outcomes.csv").read_bytes()).hexdigest() == (
        "b0a06183616040d89144e1e933345f03d052cb661b64f707344e7f25c0f309a1")
    assert Path("report.txt").read_text().startswith("Layer ")
