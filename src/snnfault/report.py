"""Aggregation of classified outcomes into layer-wise tables.

One row per (layer, parameter) group that produced outcomes, ordered by
network layer order then parameter name, plus a whole-network summary row.
Each row carries n% (faults injected into the group / injectable elements of
the group * 100) and the percentage of the group's (fault, input) pairs in
each class: SDC 1, SDC 0-5%, SDC 5-10%, SDC 10-20%, SDC 20%, Masked. The six
percentages of a row always sum to 100 (up to float rounding).

Renderers are deterministic: csv and json carry identical full-precision
numbers; the text table shows the same rows at two decimals.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .campaign import GoldenReference, OutcomeRow
from .classify import SdcClass, classify_pair
from .dataio import f32_to_hex
from .errors import ConsistencyError
from .faultlist import FaultList, FaultUniverse

COLUMN_ORDER = (
    SdcClass.SDC1,
    SdcClass.SDC_0_5,
    SdcClass.SDC_5_10,
    SdcClass.SDC_10_20,
    SdcClass.SDC_20,
    SdcClass.MASKED,
)
TABLE_LABELS = {
    SdcClass.SDC1: "SDC 1",
    SdcClass.SDC_0_5: "SDC 0-5%",
    SdcClass.SDC_5_10: "SDC 5-10%",
    SdcClass.SDC_10_20: "SDC 10-20%",
    SdcClass.SDC_20: "SDC 20%",
    SdcClass.MASKED: "Masked",
}
REPORT_FORMATS = ("csv", "json", "table")


@dataclass
class GroupStats:
    layer: str
    parameter: str
    injected: int  # faults the list aimed at this group
    injectable: int  # elements the group exposes
    pairs: int  # (fault, input) outcomes observed
    counts: dict[SdcClass, int]

    @property
    def n_pct(self) -> float:
        return 100.0 * self.injected / self.injectable

    def pct(self, cls: SdcClass) -> float:
        if self.pairs == 0:
            return 0.0
        return 100.0 * self.counts.get(cls, 0) / self.pairs


@dataclass
class Report:
    groups: list[GroupStats]
    network: GroupStats  # whole-network summary (layer="network", parameter="all")


def aggregate(
    outcomes: Iterable[OutcomeRow],
    golden: GoldenReference,
    fl: FaultList,
    universe: FaultUniverse | None = None,
) -> Report:
    """Classify every outcome and fold into per-(layer, parameter) rows.

    Each row's golden columns are cross-checked against the golden reference.
    Unknown fault or input ids, golden disagreements, and any (fault, input)
    pair of fault list x golden inputs that is missing or appears twice raise
    a consistency error.
    """
    universe = universe if universe is not None else fl.universe
    by_fault = fl.by_id()
    golden_by = golden.by_id()
    element_counts = universe.element_counts()

    counts: dict[tuple[str, str], Counter] = {}
    pairs: Counter = Counter()
    seen: Counter = Counter()  # rows per (fault_id, input_id)
    for o in outcomes:
        d = by_fault.get(o.fault_id)
        if d is None:
            raise ConsistencyError(f"outcome references unknown fault_id {o.fault_id}")
        ge = golden_by.get(o.input_id)
        if ge is None:
            raise ConsistencyError(f"outcome references unknown input_id {o.input_id}")
        if o.golden_class != ge.top_class or f32_to_hex(o.golden_top) != f32_to_hex(ge.top_score):
            raise ConsistencyError(
                f"outcome ({o.fault_id},{o.input_id}) disagrees with the golden reference"
            )
        seen[(o.fault_id, o.input_id)] += 1
        cls = classify_pair(
            (ge.top_class, float(ge.top_score)), (o.faulty_class, float(o.faulty_top))
        )
        key = (d.layer, d.parameter.value)
        counts.setdefault(key, Counter())[cls] += 1
        pairs[key] += 1

    duplicate = next((pair for pair, n in seen.items() if n > 1), None)
    if duplicate is not None:
        raise ConsistencyError(f"outcome {duplicate} appears more than once")
    if len(seen) != len(by_fault) * len(golden_by):
        fid, iid = next((f, i) for f in by_fault for i in golden_by if (f, i) not in seen)
        raise ConsistencyError(f"no outcome for fault_id {fid}, input_id {iid}")

    injected: Counter = Counter((d.layer, d.parameter.value) for d in fl.descriptors)
    for key in counts:
        if key not in element_counts:
            raise ConsistencyError(f"group {key} is absent from the fault universe")

    layer_rank = {}
    for e in universe.entries:
        layer_rank.setdefault(e.layer, len(layer_rank))
    ordered = sorted(counts, key=lambda key: (layer_rank[key[0]], key[1]))

    groups = [
        GroupStats(
            layer=layer,
            parameter=parameter,
            injected=injected[(layer, parameter)],
            injectable=element_counts[(layer, parameter)],
            pairs=pairs[(layer, parameter)],
            counts=dict(counts[(layer, parameter)]),
        )
        for layer, parameter in ordered
    ]
    total_counts: Counter = Counter()
    for g in groups:
        total_counts.update(g.counts)
    network = GroupStats(
        layer="network",
        parameter="all",
        injected=len(fl.descriptors),
        injectable=universe.total_elements,
        pairs=sum(pairs.values()),
        counts=dict(total_counts),
    )
    return Report(groups=groups, network=network)


def _row_dict(g: GroupStats) -> dict:
    return {
        "layer": g.layer,
        "parameter": g.parameter,
        "n_pct": g.n_pct,
        "pairs": g.pairs,
        "classes": {cls.value: g.pct(cls) for cls in COLUMN_ORDER},
    }


def render_report(report: Report, format: str) -> bytes:
    """Serialize a report. Formats: csv, json, table (two-decimal display)."""
    rows = report.groups + [report.network]
    if format == "csv":
        header = "layer,parameter,n_pct,pairs," + ",".join(c.value for c in COLUMN_ORDER)
        lines = [header]
        for g in rows:
            cells = [g.layer, g.parameter, repr(g.n_pct), str(g.pairs)]
            cells += [repr(g.pct(c)) for c in COLUMN_ORDER]
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        payload = {
            "groups": [_row_dict(g) for g in report.groups],
            "network": _row_dict(report.network),
        }
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    if format == "table":
        headers = ["Layer", "Parameter", "n%"] + [TABLE_LABELS[c] for c in COLUMN_ORDER] + ["Pairs"]
        body = []
        for g in rows:
            body.append(
                [g.layer, g.parameter, f"{g.n_pct:.2f}"]
                + [f"{g.pct(c):.2f}" for c in COLUMN_ORDER]
                + [str(g.pairs)]
            )
        widths = [max(len(h), *(len(r[i]) for r in body)) for i, h in enumerate(headers)]
        def fmt(cells):
            left = cells[:2]
            out = [c.ljust(w) for c, w in zip(left, widths[:2])]
            out += [c.rjust(w) for c, w in zip(cells[2:], widths[2:])]
            return "  ".join(out).rstrip()
        lines = [fmt(headers), fmt(["-" * w for w in widths])]
        lines += [fmt(r) for r in body[:-1]]
        lines.append(fmt(["-" * w for w in widths]))
        lines.append(fmt(body[-1]))
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
