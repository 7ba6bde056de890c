"""Command-line pipeline: synth -> gen-fl -> inject -> report.

Exit codes: 0 success, 2 usage (bad flags), 3 configuration (missing or
malformed files, incompatible requests, bad values, extents too large to
allocate), 4 runtime (addressing, consistency, resume failures). Errors print
exactly one machine-parseable line on stderr: `snnfault: error: <Type>: <message>`.
The default worker count for `inject` comes from SNNFAULT_WORKERS.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from datetime import timedelta
from pathlib import Path

from .campaign import CampaignConfig, read_golden, read_outcomes, run_campaign
from .dataio import (FLOAT, INT, file_sha256, load_model, save_dataset, save_model,
                     synth_dataset, synth_model, write_atomic)
from .errors import (
    CompatibilityError,
    ConsistencyError,
    DimensionError,
    FormatError,
    SnnFaultError,
)
from .faultlist import (
    POLARITIES,
    SPIKE_MODES,
    SamplingSpec,
    generate_fault_list,
    quantile_for_confidence,
    read_fault_list,
    write_fault_list,
)
from .faults import ParameterKind
from .report import REPORT_FORMATS, aggregate, render_report

_CONFIG_ERRORS = (FormatError, CompatibilityError, DimensionError, ValueError, OSError, MemoryError)


def _strict(convert, pattern: str):
    """An argparse type that converts only what ``pattern`` matches whole:
    int() and float() alone would also take " 2", "0_5" and non-ASCII digits."""

    def parse(text: str):
        if re.fullmatch(pattern, text) is None:
            raise ValueError(text)  # argparse: "invalid int value", exit 2
        return convert(text)

    parse.__name__ = convert.__name__
    return parse


_INT_ARG, _FLOAT_ARG = _strict(int, INT), _strict(float, FLOAT)


def _parse_points(text: str) -> set[ParameterKind]:
    points = set()
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            points.add(ParameterKind(name))
        except ValueError:
            valid = ",".join(k.value for k in ParameterKind)
            raise ValueError(f"unknown parameter kind '{name}' (valid: {valid})") from None
    if not points:
        raise ValueError("--points selected nothing")
    return points


def _parse_shape(text: str) -> tuple[int, ...]:
    if not re.fullmatch(rf"{INT}(?:[xX]{INT})*", text):
        raise ValueError(f"bad shape '{text}' (want e.g. 96 or 2x16x16)")
    shape = tuple(int(d) for d in text.lower().split("x"))
    if any(d < 1 for d in shape):
        raise ValueError(f"bad shape '{text}' (dims must be >= 1)")
    return shape


def _wall(seconds: float) -> str:
    return str(timedelta(seconds=round(seconds)))


def _cmd_gen_fl(args) -> int:
    net = load_model(args.model)
    quantile = args.quantile if args.quantile is not None else quantile_for_confidence(args.confidence)
    spec = SamplingSpec(
        error_margin=args.error_margin,
        quantile=quantile,
        p=args.p,
        seed=args.seed,
        scope=args.scope,
        exhaustive=args.exhaustive,
    )
    fl = generate_fault_list(
        net, spec, _parse_points(args.points), polarity=args.polarity, spike_mode=args.spike_mode
    )
    write_fault_list(fl, args.out)
    print(f"wrote {args.out}: {fl.n} faults sampled from a universe of {fl.universe.N} "
          f"(t={quantile}, scope={spec.scope})")
    return 0


def _cmd_inject(args) -> int:
    env = os.environ.get("SNNFAULT_WORKERS", "1")
    if args.workers is None and not re.fullmatch(INT, env):
        raise ValueError(f"SNNFAULT_WORKERS must be a positive integer, got {env!r}")
    workers = args.workers if args.workers is not None else int(env)
    cfg = CampaignConfig(
        model=Path(args.model),
        dataset=Path(args.dataset),
        fault_list=Path(args.fl),
        out_dir=Path(args.out),
        subset=args.subset,
        workers=workers,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    result = run_campaign(cfg)
    print(
        f"campaign {result.status}: {result.processed} faults this run, "
        f"{result.total} total, wall {_wall(result.wall_seconds)}, outputs in {result.out_dir}"
    )
    return 0


def _cmd_report(args) -> int:
    run = Path(args.outcomes)
    meta_path = run / "campaign.json"
    try:
        meta = json.loads(meta_path.read_bytes())
        status, ran = meta["status"], meta["fault_list_sha256"]
    except (ValueError, TypeError, KeyError) as exc:
        raise FormatError(f"{meta_path} is not a campaign's metadata: {exc!r}") from None
    if status != "complete":
        raise ConsistencyError(f"the campaign in {run} is {status!r}, not complete")
    if ran != file_sha256(args.fl):
        raise ConsistencyError(f"{args.fl} is not the fault list the campaign in {run} ran")
    golden = read_golden(run / "golden.csv")
    fl = read_fault_list(args.fl)
    outcomes = read_outcomes(run / "outcomes.csv")
    rep = aggregate(outcomes, golden, fl, fl.universe)
    write_atomic(args.out, render_report(rep, args.format))
    print(f"wrote {args.out}: {len(rep.groups)} groups, {rep.network.pairs} outcome pairs")
    return 0


def _cmd_synth_model(args) -> int:
    net = synth_model(args.seed, args.arch, args.timesteps, beta=args.beta, threshold=args.threshold)
    save_model(net, args.out)
    params = sum(t.size for layer in net.layers for t in layer.params.values())
    print(f"wrote {args.out}: {len(net.layers)} layers, {params} parameters, T={net.timesteps}")
    return 0


def _cmd_synth_dataset(args) -> int:
    ds = synth_dataset(
        args.seed, args.samples, args.timesteps, _parse_shape(args.shape), args.classes, args.rate
    )
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.num_samples} samples, T={ds.timesteps}, shape {ds.shape}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snnfault",
        description="Bit-level stuck-at fault injection campaigns for spiking neural networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fl", help="sample a fault list from a model's fault universe")
    p.add_argument("--model", required=True)
    p.add_argument("--points", required=True,
                   help="comma list of parameter kinds (weight,bias,feedback_weight,"
                        "feedback_bias,beta,threshold,potential,spike)")
    p.add_argument("--error-margin", type=_FLOAT_ARG, default=0.01, dest="error_margin")
    p.add_argument("--confidence", type=_FLOAT_ARG, default=0.99,
                   help="confidence level in (0,1); mapped to the normal quantile")
    p.add_argument("--quantile", type=_FLOAT_ARG, default=None,
                   help="explicit quantile t, overriding --confidence")
    p.add_argument("--p", type=_FLOAT_ARG, default=0.5,
                   help="assumed failure probability in the sample-size formula")
    p.add_argument("--seed", type=_INT_ARG, required=True)
    p.add_argument("--scope", choices=("network", "layer"), default="network")
    p.add_argument("--polarity", choices=POLARITIES, default="random")
    p.add_argument("--spike-mode", choices=SPIKE_MODES, default="bit", dest="spike_mode",
                   help="bit: stuck bit in the spike encoding; value: dead/saturated neuron")
    p.add_argument("--exhaustive", action="store_true",
                   help="ignore sampling and enumerate the whole universe")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_fl)

    p = sub.add_parser("inject", help="execute a fault-injection campaign")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--fl", required=True)
    p.add_argument("--subset", type=_INT_ARG, default=None)
    p.add_argument("--workers", type=_INT_ARG, default=None,
                   help="worker processes (default: $SNNFAULT_WORKERS, else 1)")
    p.add_argument("--checkpoint-every", type=_INT_ARG, default=CampaignConfig.checkpoint_every,
                   dest="checkpoint_every",
                   help="faults per batch (default %(default)s); each batch is recorded and"
                   " acknowledged at once, so a kill loses at most the batches in flight")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("report", help="classify outcomes and render the layer-wise table")
    p.add_argument("--outcomes", required=True,
                   help="complete campaign output directory; its golden.csv is the reference")
    p.add_argument("--fl", required=True)
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("synth", help="deterministic synthetic models and datasets")
    synth_sub = p.add_subparsers(dest="what", required=True)

    m = synth_sub.add_parser("model")
    m.add_argument("--arch", required=True,
                   help="layers joined by '-': FC(INT->INT), RFC(INT->INT), "
                        "CONV(INTxINTxINT->INT,kINT), POOL(INT), LIF, LIF(FLOAT) or "
                        "LIF(FLOAT,FLOAT); e.g. FC(16->8)-LIF-FC(8->4)-LIF")
    m.add_argument("--seed", type=_INT_ARG, required=True)
    m.add_argument("--timesteps", type=_INT_ARG, required=True)
    m.add_argument("--beta", type=_FLOAT_ARG, default=0.9)
    m.add_argument("--threshold", type=_FLOAT_ARG, default=1.0)
    m.add_argument("--out", required=True)
    m.set_defaults(func=_cmd_synth_model)

    d = synth_sub.add_parser("dataset")
    d.add_argument("--samples", type=_INT_ARG, required=True)
    d.add_argument("--timesteps", type=_INT_ARG, required=True)
    d.add_argument("--shape", required=True,
                   help="per-timestep shape INT(xINT)*, e.g. 96 or 2x16x16")
    d.add_argument("--classes", type=_INT_ARG, required=True)
    d.add_argument("--rate", type=_FLOAT_ARG, required=True, help="Bernoulli firing rate in [0,1]")
    d.add_argument("--seed", type=_INT_ARG, required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_synth_dataset)

    return parser


def _fail(exc: Exception) -> None:
    message = " ".join(str(exc).split())  # one line, machine-parseable
    print(f"snnfault: error: {type(exc).__name__}: {message}", file=sys.stderr)


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        _fail(exc)
        return 3
    except SnnFaultError as exc:
        _fail(exc)
        return 4


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
