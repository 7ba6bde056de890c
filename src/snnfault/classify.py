"""Outcome classification against the golden reference.

Each (fault, input) pair compares the faulty prediction to the golden one:

* different top class                      -> SDC-1 (takes precedence);
* same class, relative top-score deviation
  r = |faulty - golden| / max(|golden|, 1e-12) * 100
  r < 1e-4 %                               -> Masked;
  r in (0,5], (5,10], (10,20], (20,inf)    -> the matching SDC band
  (bands are half-open: a boundary value belongs to the lower band);
* same class, faulty score NaN or +/-Inf   -> SDC 20% (worst same-class band).

Total over every representable score pair. Masked tolerates sub-1e-4%
reordering noise by default; strict_masked=True instead requires the scores
to be exactly equal.

Scores are coerced to binary32 before comparison -- every score in this
toolkit IS a binary32 sum of spikes, and band membership is defined on
those values. (Evaluating the decimal literals 0.80/0.72 in float64 puts
r a hair above 10 and into the wrong band; on their binary32 values r is
9.9999977, inside the 5-10 band the worked example requires.)

classify_pair classifies one pair and is the oracle. classify_patterns is its
vectorized twin, which report.aggregate runs over a whole outcome table: the
same float64 operations, band edges and non-finite rules (strict_masked
False), on arrays of top classes and binary32 bit patterns.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

GOLDEN_FLOOR = 1e-12  # guards zero golden scores in the relative deviation
MASKED_MAX_PCT = 1e-4
BAND_EDGES_PCT = (5.0, 10.0, 20.0)


class SdcClass(Enum):
    SDC1 = "sdc_1"
    SDC_0_5 = "sdc_0_5"
    SDC_5_10 = "sdc_5_10"
    SDC_10_20 = "sdc_10_20"
    SDC_20 = "sdc_20"
    MASKED = "masked"


# classify_patterns' codes: each class is its index here.
SDC_CLASSES = tuple(SdcClass)


def relative_deviation_pct(golden_score: float, faulty_score: float) -> float:
    g = float(np.float32(golden_score))
    f = float(np.float32(faulty_score))
    return abs(f - g) / max(abs(g), GOLDEN_FLOOR) * 100.0


def classify_pair(
    golden: tuple[int, float],
    faulty: tuple[int, float],
    strict_masked: bool = False,
) -> SdcClass:
    """Classify one outcome. golden/faulty are (top_class, top_score) pairs;
    the golden score must be finite."""
    g_class, g_score = golden
    f_class, f_score = faulty
    if int(f_class) != int(g_class):
        return SdcClass.SDC1
    g = float(np.float32(g_score))
    f = float(np.float32(f_score))
    if strict_masked and f == g:
        return SdcClass.MASKED
    if not math.isfinite(f):
        return SdcClass.SDC_20
    r = relative_deviation_pct(g, f)
    if not math.isfinite(r):
        return SdcClass.SDC_20
    if not strict_masked and r < MASKED_MAX_PCT:
        return SdcClass.MASKED
    if r <= BAND_EDGES_PCT[0]:
        return SdcClass.SDC_0_5
    if r <= BAND_EDGES_PCT[1]:
        return SdcClass.SDC_5_10
    if r <= BAND_EDGES_PCT[2]:
        return SdcClass.SDC_10_20
    return SdcClass.SDC_20


def classify_patterns(
    golden_class: np.ndarray,
    golden_top: np.ndarray,
    faulty_class: np.ndarray,
    faulty_top: np.ndarray,
) -> np.ndarray:
    """classify_pair over arrays of pairs, top scores as uint32 bit patterns:
    each pair's class as its index in SDC_CLASSES."""
    with np.errstate(invalid="ignore"):  # a signalling NaN's cast; inf / inf
        g = golden_top.view(np.float32).astype(np.float64)
        f = faulty_top.view(np.float32).astype(np.float64)
        # abs(f - g) / max(abs(g), GOLDEN_FLOOR) * 100.0, in place
        r = np.abs(f - g, out=f)
        a = np.abs(g, out=g)
        r /= np.where(GOLDEN_FLOOR > a, GOLDEN_FLOOR, a)
        r *= 100.0
    # classify_pair's tests in its order; a non-finite f makes r non-finite
    rules = (
        (faulty_class != golden_class, SdcClass.SDC1),
        (~np.isfinite(r), SdcClass.SDC_20),
        (r < MASKED_MAX_PCT, SdcClass.MASKED),
        (r <= BAND_EDGES_PCT[0], SdcClass.SDC_0_5),
        (r <= BAND_EDGES_PCT[1], SdcClass.SDC_5_10),
        (r <= BAND_EDGES_PCT[2], SdcClass.SDC_10_20),
    )
    code = SDC_CLASSES.index
    return np.select([test for test, _ in rules], [np.int8(code(cls)) for _, cls in rules],
                     np.int8(code(SdcClass.SDC_20)))
