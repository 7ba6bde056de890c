"""Outcome taxonomy: class precedence, deviation bands, non-finite scores.

The straight-line oracle below reimplements the decision ladder directly
from the published rules: class change first, then bitwise-equal short
circuit, then the relative deviation r = |f-g| / max(|g|, 1e-12) * 100
against MASKED (< 1e-4), (0,5], (5,10], (10,20], (20, inf).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from snnfault.classify import SdcClass, classify_pair, relative_deviation_pct

F32 = np.float32

scores = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32)


def oracle(g_class, g_score, f_class, f_score, strict=False):
    if f_class != g_class:
        return SdcClass.SDC1
    g = float(F32(g_score))  # every score in the pipeline is binary32
    f = float(F32(f_score))
    if strict and f == g:
        return SdcClass.MASKED
    if not math.isfinite(f):
        return SdcClass.SDC_20
    r = abs(f - g) / max(abs(g), 1e-12) * 100.0
    if not math.isfinite(r):
        return SdcClass.SDC_20
    if not strict and r < 1e-4:
        return SdcClass.MASKED
    if r <= 5.0:
        return SdcClass.SDC_0_5
    if r <= 10.0:
        return SdcClass.SDC_5_10
    if r <= 20.0:
        return SdcClass.SDC_10_20
    return SdcClass.SDC_20


def test_class_change_is_sdc_1():
    assert classify_pair((2, 0.8), (1, 0.8)) is SdcClass.SDC1
    # precedence: even a wildly deviating score is still SDC-1 on class change
    assert classify_pair((0, 1.0), (3, float("nan"))) is SdcClass.SDC1


def test_ten_percent_example_lands_in_5_10_band():
    # r = |0.72 - 0.80| / 0.80 * 100 = 10, half-open upper bound inclusive
    assert classify_pair((2, 0.80), (2, 0.72)) is SdcClass.SDC_5_10


def test_exact_equality_is_masked():
    assert classify_pair((1, 0.5), (1, 0.5)) is SdcClass.MASKED
    assert classify_pair((1, 0.0), (1, 0.0)) is SdcClass.MASKED


def test_sub_threshold_deviation_is_masked_only_in_default_mode():
    g, f = 1.0, 1.0 + 5e-7  # r ~ 5e-5 %, below the 1e-4 masking threshold
    assert classify_pair((0, g), (0, f)) is SdcClass.MASKED
    assert classify_pair((0, g), (0, f), strict_masked=True) is SdcClass.SDC_0_5


def test_nonfinite_faulty_score_is_sdc_20():
    for bad in (float("nan"), float("inf"), float("-inf")):
        assert classify_pair((1, 0.75), (1, bad)) is SdcClass.SDC_20


def test_zero_golden_uses_floor():
    # golden 0: r = |f| / 1e-12 * 100, so any visible f blows past 20%
    assert classify_pair((1, 0.0), (1, 1e-9)) is SdcClass.SDC_20
    assert relative_deviation_pct(0.0, 1e-9) == pytest.approx(1e-9 / 1e-12 * 100)


def test_relative_deviation_arithmetic():
    assert relative_deviation_pct(0.8, 0.72) == pytest.approx(10.0)
    assert relative_deviation_pct(-2.0, -1.0) == pytest.approx(50.0)


@pytest.mark.parametrize(
    "r,expected",
    [
        (4.999, SdcClass.SDC_0_5),
        (5.0, SdcClass.SDC_0_5),
        (5.001, SdcClass.SDC_5_10),
        (10.0, SdcClass.SDC_5_10),
        (10.001, SdcClass.SDC_10_20),
        (20.0, SdcClass.SDC_10_20),
        (20.001, SdcClass.SDC_20),
    ],
)
def test_band_edges_half_open(r, expected):
    g = 100.0
    f = g - r  # r% of 100 is r
    assert classify_pair((0, g), (0, f)) is expected


def test_band_edges_one_ulp_each_side():
    """+-1 ulp around every band edge in the faulty score."""
    g = F32(100.0)
    for edge in (5.0, 10.0, 20.0):
        f_at = F32(g - F32(edge))
        below = np.nextafter(f_at, F32(np.inf), dtype=F32)  # smaller deviation
        above = np.nextafter(f_at, F32(-np.inf), dtype=F32)  # larger deviation
        got_at = classify_pair((0, float(g)), (0, float(f_at)))
        got_below = classify_pair((0, float(g)), (0, float(below)))
        got_above = classify_pair((0, float(g)), (0, float(above)))
        assert got_at == oracle(0, float(g), 0, float(f_at))
        assert got_below == oracle(0, float(g), 0, float(below))
        assert got_above == oracle(0, float(g), 0, float(above))


@given(st.integers(0, 9), st.integers(0, 9), scores, scores)
def test_matches_straight_line_oracle(gc, fc, gs, fs):
    assert classify_pair((gc, gs), (fc, fs)) is oracle(gc, gs, fc, fs)
    assert classify_pair((gc, gs), (fc, fs), strict_masked=True) is oracle(
        gc, gs, fc, fs, strict=True
    )


@given(st.integers(0, 9), scores, st.floats(0, 1e9, allow_nan=False))
def test_every_pair_gets_exactly_one_class(gc, gs, fs):
    got = classify_pair((gc, gs), (gc, fs))
    assert isinstance(got, SdcClass)
