"""Aggregation of classified outcomes into layer-wise tables.

One row per (layer, parameter) group that produced outcomes, ordered by
network layer order then parameter name, plus a whole-network summary row.
Each row carries n% (faults injected into the group / injectable elements of
the group * 100) and the percentage of the group's (fault, input) pairs in
each class: SDC 1, SDC 0-5%, SDC 5-10%, SDC 10-20%, SDC 20%, Masked. The six
percentages of a row always sum to 100 (up to float rounding).

Renderers are deterministic: csv and json carry identical full-precision
numbers; the text table shows the same rows at two decimals.

aggregate works on an outcome table's columns (campaign.Outcomes) with array
operations: ids become fault-list and golden positions by searchsorted,
golden columns are compared as bit patterns, coverage is one bincount over
the (fault, input) pairs, classes come from classify.classify_patterns, the
vectorized twin of the scalar oracle classify_pair, and the counts are one
bincount over (group, class).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .campaign import GoldenReference, OutcomeRow, Outcomes
from .classify import SDC_CLASSES, SdcClass, classify_patterns
# Not called here; bench/tracing.py patches it by name (ROADMAP item 7).
from .classify import classify_pair  # noqa: F401
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

    ``outcomes`` is an Outcomes table, or any OutcomeRow iterable, which is
    turned into one. Each row's golden columns are cross-checked against the
    golden reference. Unknown fault or input ids, golden disagreements, and
    any (fault, input) pair of fault list x golden inputs that is missing or
    appears twice raise a consistency error. The first error wins: the rows'
    own checks in row order (fault id, input id, golden columns), then the
    duplicate pair first seen earliest, then the first missing pair in fault
    list x golden order, then the first row's group that is absent from the
    universe.
    """
    universe = universe if universe is not None else fl.universe
    o = outcomes if isinstance(outcomes, Outcomes) else Outcomes.from_rows(outcomes)
    element_counts = universe.element_counts()

    # each descriptor's (layer, parameter) group, numbered in first-seen order
    group_of: dict = {}
    groups = np.fromiter((group_of.setdefault((d.layer, d.parameter), len(group_of))
                          for d in fl.descriptors), np.intp, len(fl.descriptors))
    # each fault id's position among the descriptors: first-seen order, a repeated id its last
    fault_at = {d.fault_id: at for at, d in enumerate(fl.descriptors)}
    fault_ids = np.fromiter(fault_at, np.uint64, len(fault_at))
    fault_group = groups[np.fromiter(fault_at.values(), np.intp, len(fault_at))]
    row_group = fault_group[_checked_fault_positions(o, fault_ids, golden.by_id())]

    names = [(layer, parameter.value) for layer, parameter in group_of]
    absent = [g for g, key in enumerate(names) if key not in element_counts]
    if absent:
        stray = row_group[np.isin(row_group, absent)]
        if len(stray):
            raise ConsistencyError(f"group {names[stray[0]]} is absent from the fault universe")

    code = classify_patterns(o.golden_class, o.golden_top, o.faulty_class, o.faulty_top)
    width = len(SDC_CLASSES)
    counts = np.bincount(row_group * width + code, minlength=len(names) * width)
    counts = counts.reshape(len(names), width)
    injected = np.bincount(groups, minlength=len(names))

    layer_rank = {}
    for e in universe.entries:
        layer_rank.setdefault(e.layer, len(layer_rank))
    present = [g for g in range(len(names)) if counts[g].any()]
    present.sort(key=lambda g: (layer_rank[names[g][0]], names[g][1]))
    return Report(
        groups=[
            GroupStats(
                layer=names[g][0],
                parameter=names[g][1],
                injected=int(injected[g]),
                injectable=element_counts[names[g]],
                pairs=int(counts[g].sum()),
                counts=_class_counts(counts[g]),
            )
            for g in present
        ],
        network=GroupStats(
            layer="network",
            parameter="all",
            injected=len(fl.descriptors),
            injectable=universe.total_elements,
            pairs=len(o),
            counts=_class_counts(counts.sum(axis=0)),
        ),
    )


def _checked_fault_positions(o: Outcomes, fault_ids: np.ndarray, golden_by: dict) -> np.ndarray:
    """Each row's position in ``fault_ids``, once every row names a known fault
    and input and agrees with the golden reference, and the rows hold each
    (fault, input) pair exactly once; the first broken rule raises."""
    input_ids = np.fromiter(golden_by, np.uint64, len(golden_by))
    fault_pos, fault_known = _positions(fault_ids, o.fault_id)
    input_pos, input_known = _positions(input_ids, o.input_id)
    bad = ~(fault_known & input_known)
    if golden_by:
        ge = golden_by.values()
        golden_class = np.fromiter((e.top_class for e in ge), np.uint64, len(ge))
        golden_top = np.array([e.top_score for e in ge], np.float32).view(np.uint32)
        bad |= o.golden_class != golden_class[input_pos]
        bad |= o.golden_top != golden_top[input_pos]
    if bad.any():
        r = int(bad.argmax())
        fid, iid = int(o.fault_id[r]), int(o.input_id[r])
        if not fault_known[r]:
            raise ConsistencyError(f"outcome references unknown fault_id {fid}")
        if not input_known[r]:
            raise ConsistencyError(f"outcome references unknown input_id {iid}")
        raise ConsistencyError(f"outcome ({fid},{iid}) disagrees with the golden reference")

    k = len(input_ids)
    pair = fault_pos * k + input_pos
    seen = np.bincount(pair, minlength=len(fault_ids) * k)
    if (seen > 1).any():
        r = int((seen[pair] > 1).argmax())
        duplicate = (int(o.fault_id[r]), int(o.input_id[r]))
        raise ConsistencyError(f"outcome {duplicate} appears more than once")
    if len(o) != len(seen):
        f, i = divmod(int(seen.argmin()), k)
        raise ConsistencyError(
            f"no outcome for fault_id {int(fault_ids[f])}, input_id {int(input_ids[i])}"
        )
    return fault_pos


def _positions(ids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's index in ``ids`` (distinct ids), and whether it is there;
    an absent value's index is any valid one, or 0 if ``ids`` is empty."""
    if not len(ids):
        return np.zeros(len(values), np.intp), np.zeros(len(values), bool)
    order = np.argsort(ids)
    pos = order[np.minimum(np.searchsorted(ids, values, sorter=order), len(ids) - 1)]
    return pos, ids[pos] == values


def _class_counts(row: np.ndarray) -> dict[SdcClass, int]:
    """The classes a row of counts holds, by SDC_CLASSES code."""
    return {cls: int(n) for cls, n in zip(SDC_CLASSES, row.tolist()) if n}


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
