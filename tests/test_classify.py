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

from snnfault.classify import (
    SDC_CLASSES,
    SdcClass,
    classify_pair,
    classify_patterns,
    relative_deviation_pct,
)

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


def _bits(value) -> int:
    return int(np.array(value, dtype=F32).view(np.uint32))


# binary32 patterns of every kind of score: quiet and signalling NaNs, +-Inf,
# +-0, subnormals, the docstring's 0.80 -> 0.72 example, and faulty scores
# one ulp either side of each band edge and of the masking threshold around a
# golden 100.
SPECIAL_BITS = [
    0x7FC00000, 0xFFC00123, 0x7F800001, 0xFFBFFFFF,
    0x7F800000, 0xFF800000,
    0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x00400000,
    _bits(0.80), _bits(0.72), _bits(100.0), _bits(1.0), _bits(-2.0),
    *(
        _bits(np.nextafter(F32(100.0 - pct), F32(side), dtype=F32))
        for pct in (1e-4, 5.0, 10.0, 20.0)
        for side in (-np.inf, np.inf)
    ),
    *(_bits(100.0 - pct) for pct in (1e-4, 5.0, 10.0, 20.0)),
]
PATTERNS = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**32 - 1))


def _vectorized_and_scalar(pairs):
    g_class, g_top, f_class, f_top = (
        np.array(column, dtype) for column, dtype in
        zip(zip(*pairs), (np.uint64, np.uint32, np.uint64, np.uint32))
    )
    got = [SDC_CLASSES[code] for code in classify_patterns(g_class, g_top, f_class, f_top)]
    scores = g_top.view(F32), f_top.view(F32)
    want = [classify_pair((int(gc), float(gs)), (int(fc), float(fs)))
            for gc, gs, fc, fs in zip(g_class, scores[0], f_class, scores[1])]
    return got, want


def test_classify_patterns_matches_classify_pair_on_every_special_pair():
    pairs = [(0, g, c, f) for g in SPECIAL_BITS for f in SPECIAL_BITS for c in (0, 1)]
    got, want = _vectorized_and_scalar(pairs)
    assert got == want
    assert got[pairs.index((0, _bits(0.80), 0, _bits(0.72)))] is SdcClass.SDC_5_10
    assert {*got} == {*SdcClass}


@given(st.lists(st.tuples(st.integers(0, 2), PATTERNS, st.integers(0, 2), PATTERNS),
                min_size=1, max_size=40))
def test_classify_patterns_matches_classify_pair(pairs):
    got, want = _vectorized_and_scalar(pairs)
    assert got == want

