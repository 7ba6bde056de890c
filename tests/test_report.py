"""Aggregation into per-(layer, parameter) SDC statistics and rendering."""

import csv
import io
import json

import numpy as np
import pytest

from helpers import two_layer_net
from snnfault.campaign import GoldenReference, OutcomeRow, Prediction
from snnfault.classify import SdcClass
from snnfault.errors import ConsistencyError
from snnfault.faultlist import FaultList, SamplingSpec, enumerate_universe
from snnfault.faults import FaultDescriptor, ParameterKind
from snnfault.report import COLUMN_ORDER, TABLE_LABELS, aggregate, render_report

F32 = np.float32
POINTS = {ParameterKind.WEIGHT, ParameterKind.BIAS}


def make_golden(k=2, top_class=1, top=4.0):
    entries = []
    for i in range(k):
        scores = np.zeros(3, F32)
        scores[top_class] = F32(top)
        entries.append(Prediction(i, scores, top_class, F32(top)))
    return GoldenReference(entries)


def make_fl(descriptors):
    net = two_layer_net()
    u = enumerate_universe(net, POINTS)
    spec = SamplingSpec(error_margin=0.2, quantile=2.576, seed=0)
    return FaultList(descriptors=descriptors, universe=u, spec=spec, n=len(descriptors))


def rows_for(fl, golden, faulty_by_fault):
    """One outcome row per (fault, input) with the given faulty (class, score)."""
    out = []
    for d in fl.descriptors:
        f_class, f_score = faulty_by_fault[d.fault_id]
        for e in golden.entries:
            out.append(
                OutcomeRow(d.fault_id, e.input_id, e.top_class, f_class, e.top_score, F32(f_score))
            )
    return out


def descriptors_two_groups():
    return [
        FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0, 0), 4, 1),
        FaultDescriptor(1, "fc1", ParameterKind.WEIGHT, (1, 2), 9, 0),
        FaultDescriptor(2, "fc2", ParameterKind.WEIGHT, (2, 1), 30, 1),
    ]


def test_all_masked_everywhere():
    fl = make_fl(descriptors_two_groups())
    golden = make_golden()
    rows = rows_for(fl, golden, {0: (1, 4.0), 1: (1, 4.0), 2: (1, 4.0)})
    rep = aggregate(rows, golden, fl)
    for g in list(rep.groups) + [rep.network]:
        assert g.pct(SdcClass.MASKED) == 100.0
        assert g.counts[SdcClass.MASKED] == g.pairs


def test_single_sdc1_lands_in_its_group():
    fl = make_fl(descriptors_two_groups())
    golden = make_golden()
    rows = rows_for(fl, golden, {0: (1, 4.0), 1: (1, 4.0), 2: (2, 9.0)})
    rep = aggregate(rows, golden, fl)
    by_group = {(g.layer, g.parameter): g for g in rep.groups}
    fc2 = by_group[("fc2", "weight")]
    assert fc2.counts[SdcClass.SDC1] == fc2.pairs == 2
    fc1 = by_group[("fc1", "weight")]
    assert fc1.counts.get(SdcClass.SDC1, 0) == 0  # absent classes are simply missing
    assert rep.network.counts[SdcClass.SDC1] == 2


def test_band_assignment_and_partition():
    fl = make_fl(descriptors_two_groups())
    golden = make_golden(top=100.0)
    rows = rows_for(
        fl, golden, {0: (1, 97.0), 1: (1, 85.0), 2: (1, float("nan"))}
    )  # 3% band, 15% band, non-finite
    rep = aggregate(rows, golden, fl)
    assert rep.network.counts[SdcClass.SDC_0_5] == 2
    assert rep.network.counts[SdcClass.SDC_10_20] == 2
    assert rep.network.counts[SdcClass.SDC_20] == 2
    for g in list(rep.groups) + [rep.network]:
        assert sum(g.counts.values()) == g.pairs
        assert sum(g.pct(c) for c in COLUMN_ORDER) == pytest.approx(100.0, abs=0.01)


def test_unknown_fault_id_rejected():
    fl = make_fl(descriptors_two_groups())
    golden = make_golden()
    rows = rows_for(fl, golden, {0: (1, 4.0), 1: (1, 4.0), 2: (1, 4.0)})
    rows.append(OutcomeRow(99, 0, 1, 1, F32(4.0), F32(4.0)))
    with pytest.raises(ConsistencyError, match="99"):
        aggregate(rows, golden, fl)


def test_group_absent_from_universe_rejected():
    bias_fault = FaultDescriptor(0, "fc1", ParameterKind.BIAS, (0,), 4, 1)
    fl = make_fl([bias_fault])
    golden = make_golden()
    rows = rows_for(fl, golden, {0: (1, 4.0)})
    weights_only = enumerate_universe(two_layer_net(), {ParameterKind.WEIGHT})
    with pytest.raises(ConsistencyError, match=r"^group \('fc1', 'bias'\) is absent from the"):
        aggregate(rows, golden, fl, weights_only)


def test_unknown_input_id_rejected():
    fl = make_fl(descriptors_two_groups())
    golden = make_golden()
    rows = rows_for(fl, golden, {0: (1, 4.0), 1: (1, 4.0), 2: (1, 4.0)})
    rows.append(OutcomeRow(0, 57, 1, 1, F32(4.0), F32(4.0)))
    with pytest.raises(ConsistencyError):
        aggregate(rows, golden, fl)


def test_missing_pair_rejected():
    fl = make_fl(descriptors_two_groups())
    golden = make_golden()
    rows = rows_for(fl, golden, {0: (1, 4.0), 1: (1, 4.0), 2: (1, 4.0)})
    del rows[3]  # fault 1, input 1
    with pytest.raises(ConsistencyError, match="fault_id 1, input_id 1"):
        aggregate(rows, golden, fl)


def test_duplicated_pair_rejected():
    fl = make_fl(descriptors_two_groups())
    golden = make_golden()
    rows = rows_for(fl, golden, {0: (1, 4.0), 1: (1, 4.0), 2: (1, 4.0)})
    rows.append(rows[2])
    with pytest.raises(ConsistencyError, match="more than once"):
        aggregate(rows, golden, fl)


def test_golden_cross_check_rejected_on_mismatch():
    fl = make_fl(descriptors_two_groups()[:1])
    golden = make_golden()
    rows = [OutcomeRow(0, 0, 1, 1, F32(3.875), F32(3.875)),
            OutcomeRow(0, 1, 1, 1, F32(4.0), F32(4.0))]
    with pytest.raises(ConsistencyError):
        aggregate(rows, golden, fl)  # row 0 claims a different golden score


def test_injected_vs_injectable_percentage():
    # 3 sampled faults over fc1.weight's 20 elements -> n% = 15.0
    descs = [
        FaultDescriptor(i, "fc1", ParameterKind.WEIGHT, (0, i), i, 1) for i in range(3)
    ]
    fl = make_fl(descs)
    golden = make_golden()
    rows = rows_for(fl, golden, {i: (1, 4.0) for i in range(3)})
    rep = aggregate(rows, golden, fl)
    g = {(x.layer, x.parameter): x for x in rep.groups}[("fc1", "weight")]
    assert g.injected == 3 and g.injectable == 20
    assert g.n_pct == pytest.approx(15.0)


def test_network_row_totals():
    fl = make_fl(descriptors_two_groups())
    golden = make_golden()
    rows = rows_for(fl, golden, {0: (1, 4.0), 1: (1, 4.0), 2: (0, 4.0)})
    rep = aggregate(rows, golden, fl)
    assert rep.network.layer == "network"
    assert rep.network.injected == 3
    assert rep.network.injectable == fl.universe.total_elements
    assert rep.network.pairs == 6


def test_groups_ordered_by_universe():
    descs = [
        FaultDescriptor(0, "fc2", ParameterKind.WEIGHT, (0, 0), 3, 1),
        FaultDescriptor(1, "fc1", ParameterKind.BIAS, (0,), 3, 1),
        FaultDescriptor(2, "fc1", ParameterKind.WEIGHT, (0, 0), 3, 1),
    ]
    fl = make_fl(descs)
    golden = make_golden()
    rows = rows_for(fl, golden, {i: (1, 4.0) for i in range(3)})
    rep = aggregate(rows, golden, fl)
    assert [(g.layer, g.parameter) for g in rep.groups] == [
        ("fc1", "bias"),
        ("fc1", "weight"),
        ("fc2", "weight"),
    ]


def _small_report():
    fl = make_fl(descriptors_two_groups())
    golden = make_golden(top=100.0)
    rows = rows_for(fl, golden, {0: (1, 100.0), 1: (1, 85.0), 2: (2, 50.0)})
    return aggregate(rows, golden, fl)


def test_render_csv_numbers_match_json():
    rep = _small_report()
    text = render_report(rep, "csv").decode()
    rows = list(csv.DictReader(io.StringIO(text)))
    blob = json.loads(render_report(rep, "json").decode())
    assert len(rows) == len(blob["groups"]) + 1  # + network row
    for row, jg in zip(rows, blob["groups"]):
        assert row["layer"] == jg["layer"] and row["parameter"] == jg["parameter"]
        for cls in COLUMN_ORDER:
            assert float(row[cls.value]) == jg["classes"][cls.value]


def test_render_table_layout():
    rep = _small_report()
    text = render_report(rep, "table").decode()
    lines = text.splitlines()
    for label in TABLE_LABELS.values():
        assert label in lines[0]
    assert lines[-1] != ""  # network row closes the table
    assert "network" in text
    widths = {len(ln) for ln in lines if ln}
    assert len(widths) == 1  # fixed-width block


def test_render_deterministic_and_rejects_unknown():
    rep = _small_report()
    assert render_report(rep, "csv") == render_report(rep, "csv")
    assert render_report(rep, "json") == render_report(rep, "json")
    with pytest.raises(ValueError):
        render_report(rep, "html")


def test_empty_outcomes_give_empty_report():
    fl = make_fl([])
    golden = make_golden()
    rep = aggregate([], golden, fl)
    assert rep.groups == []
    assert rep.network.pairs == 0
    assert rep.network.pct(SdcClass.MASKED) == 0.0
    render_report(rep, "table")  # must not blow up on zero pairs
