"""Universe enumeration, sample sizing, and the fault-list file format.

Sample-size anchors below were frozen from exact rational arithmetic
(fractions.Fraction) before the implementation existed:

    n(N) = ceil(N / (1 + e^2 (N-1) / (t^2 p (1-p)))), clamped to N
    e=0.01, t=2.576, p=0.5:
      N=100         -> 100     (exact value 99.4068)
      N=192         -> 190     (exact value 189.8146)
      N=10_000_000  -> 16_562  (exact value 16_561.9663)
      N=10^9        -> 16_590  (exact value 16_589.1648)
    asymptote ceil(t^2 p q / e^2) = 16_590
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fc_layer, lif_layer, two_layer_net
from snnfault.core import Network
from snnfault.errors import AddressError, CompatibilityError, FormatError
from snnfault.faultlist import (
    SamplingSpec,
    enumerate_universe,
    generate_fault_list,
    quantile_for_confidence,
    read_fault_list,
    sample_size,
    write_fault_list,
)
from snnfault.faults import FaultMode, ParameterKind

WEIGHTS_AND_BIAS = {ParameterKind.WEIGHT, ParameterKind.BIAS}
ALL_LIF = {
    ParameterKind.BETA,
    ParameterKind.THRESHOLD,
    ParameterKind.POTENTIAL,
    ParameterKind.SPIKE,
}


def spec_default(**kw):
    base = dict(error_margin=0.01, quantile=2.576, p=0.5, seed=0)
    base.update(kw)
    return SamplingSpec(**base)


def universe_oracle(universe):
    """Brute-force (entry, coords, bit) list in declaration order."""
    out = []
    for entry in universe.entries:
        for flat in range(entry.element_count):
            coords = np.unravel_index(flat, entry.shape)
            for bit in range(32):
                out.append((entry.layer, entry.parameter, tuple(int(c) for c in coords), bit))
    return out


# -- enumeration --------------------------------------------------------------


def test_universe_fc_weights_and_bias():
    net = Network(
        [fc_layer("fc1", np.ones((2, 2)), [0.0, 0.0]), lif_layer("lif1")],
        timesteps=2,
        input_shape=(2,),
    )
    u = enumerate_universe(net, WEIGHTS_AND_BIAS)
    assert u.N == (4 + 2) * 32 == 192


def test_universe_lif_all_four_kinds():
    net = two_layer_net(n_hidden=2)
    u = enumerate_universe(net, ALL_LIF)
    # scalar beta + scalar threshold + 2 potentials + 2 spikes, twice (two
    # lif layers); restrict to one layer via spans to check the 192 anchor
    spans = {layer: size for layer, base, size in u.layer_spans()}
    assert spans["lif1"] == (1 + 1 + 2 + 2) * 32 == 192


def test_universe_empty_points_rejected():
    with pytest.raises(CompatibilityError):
        enumerate_universe(two_layer_net(), set())


def test_universe_absent_kind_rejected():
    with pytest.raises(CompatibilityError):
        enumerate_universe(two_layer_net(), {ParameterKind.FEEDBACK_WEIGHT})


def test_universe_skips_absent_optional_bias():
    net = two_layer_net()  # fc2 has no bias
    u = enumerate_universe(net, WEIGHTS_AND_BIAS)
    named = {(e.layer, e.parameter.value) for e in u.entries}
    assert ("fc1", "bias") in named and ("fc2", "bias") not in named


def test_universe_locate_agrees_with_bruteforce():
    net = two_layer_net(n_in=3, n_hidden=2, n_out=2)
    u = enumerate_universe(net, WEIGHTS_AND_BIAS | ALL_LIF)
    oracle = universe_oracle(u)
    assert len(oracle) == u.N
    for idx in range(u.N):
        entry, coords, bit = u.locate(idx)
        assert (entry.layer, entry.parameter, coords, bit) == oracle[idx]
    with pytest.raises(AddressError):
        u.locate(u.N)


# -- sample size ---------------------------------------------------------------


@pytest.mark.parametrize(
    "N,expected",
    [(100, 100), (192, 190), (10_000_000, 16_562), (10**9, 16_590)],
)
def test_sample_size_frozen_anchors(N, expected):
    assert sample_size(N, spec_default()) == expected


def test_sample_size_asymptote():
    assert math.ceil(2.576**2 * 0.25 / 0.01**2) == 16_590
    assert sample_size(10**12, spec_default()) == 16_590


@given(st.integers(1, 10**12), st.integers(1, 10**12))
def test_sample_size_monotone_and_clamped(a, b):
    lo, hi = sorted((a, b))
    spec = spec_default()
    assert sample_size(lo, spec) <= sample_size(hi, spec)
    assert sample_size(hi, spec) <= hi


def test_sample_size_direction_of_e_and_t():
    N = 10**7
    assert sample_size(N, spec_default(error_margin=0.02)) < sample_size(N, spec_default())
    assert sample_size(N, spec_default(quantile=1.96)) < sample_size(N, spec_default())


def test_quantile_for_confidence():
    assert quantile_for_confidence(0.99) == 2.576
    assert quantile_for_confidence(0.95) == 1.96


def test_sampling_spec_validation():
    for kw in (
        dict(error_margin=0.0),
        dict(error_margin=1.0),
        dict(quantile=0.0),
        dict(p=0.0),
        dict(p=1.0),
        dict(scope="galaxy"),
    ):
        with pytest.raises(ValueError):
            spec_default(**kw)


# -- generation ----------------------------------------------------------------


def test_generation_is_seed_deterministic():
    net = two_layer_net()
    spec = spec_default(error_margin=0.05, seed=99)
    a = generate_fault_list(net, spec, WEIGHTS_AND_BIAS)
    b = generate_fault_list(net, spec, WEIGHTS_AND_BIAS)
    assert a.descriptors == b.descriptors
    c = generate_fault_list(net, spec_default(error_margin=0.05, seed=100), WEIGHTS_AND_BIAS)
    assert a.descriptors != c.descriptors


def test_generation_distinct_locations_and_count():
    net = two_layer_net(n_hidden=8)
    spec = spec_default(error_margin=0.03, seed=5)
    fl = generate_fault_list(net, spec, WEIGHTS_AND_BIAS)
    assert len(fl.descriptors) == fl.n == sample_size(fl.universe.N, spec)
    keys = {(d.layer, d.parameter, d.coords, d.bit) for d in fl.descriptors}
    assert len(keys) == len(fl.descriptors)
    assert [d.fault_id for d in fl.descriptors] == list(range(fl.n))


def test_generation_exhaustive_covers_universe_once():
    net = two_layer_net(n_in=2, n_hidden=2, n_out=2)
    spec = spec_default(exhaustive=True)
    fl = generate_fault_list(net, spec, WEIGHTS_AND_BIAS)
    u = fl.universe
    assert fl.n == u.N
    got = [(d.layer, d.parameter, d.coords, d.bit) for d in fl.descriptors]
    want = [(l, p, c, b) for l, p, c, b in universe_oracle(u)]
    assert got == want


def test_generation_polarity_modes():
    net = two_layer_net()
    spec = spec_default(error_margin=0.05, seed=1)
    zeros = generate_fault_list(net, spec, WEIGHTS_AND_BIAS, polarity="0")
    assert {d.stuck for d in zeros.descriptors} == {0}
    ones = generate_fault_list(net, spec, WEIGHTS_AND_BIAS, polarity="1")
    assert {d.stuck for d in ones.descriptors} == {1}

    both = generate_fault_list(net, spec, WEIGHTS_AND_BIAS, polarity="both")
    assert len(both.descriptors) == 2 * zeros.n
    pairs = list(zip(both.descriptors[::2], both.descriptors[1::2]))
    for a, b in pairs:
        assert (a.layer, a.parameter, a.coords, a.bit) == (b.layer, b.parameter, b.coords, b.bit)
        assert (a.stuck, b.stuck) == (0, 1)

    rand = generate_fault_list(net, spec, WEIGHTS_AND_BIAS, polarity="random")
    assert {d.stuck for d in rand.descriptors} == {0, 1}


def test_generation_layer_scope_stratifies():
    net = two_layer_net(n_in=16, n_hidden=16, n_out=4)
    spec = spec_default(error_margin=0.02, scope="layer")
    fl = generate_fault_list(net, spec, WEIGHTS_AND_BIAS)
    per_layer = {}
    for d in fl.descriptors:
        per_layer[d.layer] = per_layer.get(d.layer, 0) + 1
    for layer, base, size in fl.universe.layer_spans():
        assert per_layer[layer] == sample_size(size, spec)


def test_generation_spike_value_mode():
    net = two_layer_net()
    spec = spec_default(error_margin=0.2, seed=2)
    fl = generate_fault_list(net, spec, ALL_LIF, spike_mode="value")
    spikes = [d for d in fl.descriptors if d.parameter is ParameterKind.SPIKE]
    assert spikes and all(d.mode is FaultMode.VALUE_STUCK for d in spikes)
    others = [d for d in fl.descriptors if d.parameter is not ParameterKind.SPIKE]
    assert all(d.mode is FaultMode.BIT_STUCK for d in others)


def test_generation_draw_is_close_to_uniform():
    """Share of draws landing in fc1's span tracks its universe share, 3 sigma."""
    net = two_layer_net(n_in=12, n_hidden=10, n_out=4)
    u = enumerate_universe(net, WEIGHTS_AND_BIAS)
    spans = {layer: size for layer, base, size in u.layer_spans()}
    share = spans["fc1"] / u.N

    hits = total = 0
    for seed in range(40):
        fl = generate_fault_list(net, spec_default(error_margin=0.05, seed=seed), WEIGHTS_AND_BIAS)
        total += len(fl.descriptors)
        hits += sum(1 for d in fl.descriptors if d.layer == "fc1")
    # Without-replacement draws have smaller variance than binomial; the
    # binomial 3-sigma band is therefore a conservative envelope.
    sigma = math.sqrt(total * share * (1 - share))
    assert abs(hits - total * share) <= 3 * sigma


# -- file round trip -----------------------------------------------------------


def test_fault_list_roundtrip_and_byte_determinism(tmp_path):
    net = two_layer_net()
    fl = generate_fault_list(net, spec_default(error_margin=0.05, seed=8), WEIGHTS_AND_BIAS)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_fault_list(fl, p1)
    write_fault_list(fl, p2)
    assert p1.read_bytes() == p2.read_bytes()

    back = read_fault_list(p1, net)
    assert back.descriptors == fl.descriptors
    assert back.n == fl.n and back.universe.N == fl.universe.N
    assert back.spec.error_margin == fl.spec.error_margin
    assert back.spec.seed == fl.spec.seed
    assert back.polarity == fl.polarity and back.spike_mode == fl.spike_mode


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _valid_lines(tmp_path):
    net = two_layer_net()
    fl = generate_fault_list(net, spec_default(error_margin=0.2, seed=8), WEIGHTS_AND_BIAS)
    p = tmp_path / "fl.csv"
    write_fault_list(fl, p)
    return net, p.read_text(encoding="utf-8").splitlines()


def test_read_rejects_bit_32_with_line_number(tmp_path):
    net, lines = _valid_lines(tmp_path)
    row = lines[-1].split(",")
    row[4] = "32"
    lines[-1] = ",".join(row)
    p = tmp_path / "bad.csv"
    _write_lines(p, lines)
    with pytest.raises(FormatError, match=rf"line {len(lines)}"):
        read_fault_list(p)


def test_read_rejects_duplicate_fault_id(tmp_path):
    net, lines = _valid_lines(tmp_path)
    lines.append(lines[-1])
    p = tmp_path / "bad.csv"
    _write_lines(p, lines)
    with pytest.raises(FormatError, match="duplicate|fault_id"):
        read_fault_list(p)


def test_read_rejects_row_count_mismatch(tmp_path):
    net, lines = _valid_lines(tmp_path)
    del lines[-1]
    p = tmp_path / "bad.csv"
    _write_lines(p, lines)
    with pytest.raises(FormatError):
        read_fault_list(p)


def test_read_rejects_missing_header(tmp_path):
    net, lines = _valid_lines(tmp_path)
    lines = [ln for ln in lines if not ln.startswith("fault_id,")]
    p = tmp_path / "bad.csv"
    _write_lines(p, lines)
    with pytest.raises(FormatError):
        read_fault_list(p)


def test_read_oob_coords_names_fault_id(tmp_path):
    net, lines = _valid_lines(tmp_path)
    row = lines[-1].split(",")
    fid = row[0]
    row[1], row[2], row[3] = "fc1", "weight", "5;0"  # fc1 weight is 5x4, row 5 is past the end
    lines[-1] = ",".join(row)
    p = tmp_path / "bad.csv"
    _write_lines(p, lines)
    read_fault_list(p)  # without a network the row is structurally fine
    with pytest.raises(AddressError, match=rf"fault {fid}"):
        read_fault_list(p, net)


def test_read_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("not a fault list\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_fault_list(p)
