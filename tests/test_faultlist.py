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

import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import MALFORMED_FLOATS, MALFORMED_INTEGERS, fc_layer, lif_layer, two_layer_net
from snnfault.core import Network
from snnfault.dataio import synth_model
from snnfault.errors import AddressError, CompatibilityError, FormatError
from snnfault.faultlist import (
    SamplingSpec,
    _draw_distinct,
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


def _scalar_draws(rng, n, k):
    """The partial Fisher-Yates one scalar draw at a time: draw i is
    integers(i, n), swapped through a dict."""
    swap, out = {}, []
    for i in range(k):
        j = int(rng.integers(i, n))
        vi, vj = swap.get(i, i), swap.get(j, j)
        out.append(vj)
        swap[j], swap[i] = vi, vj
    return out


@pytest.mark.parametrize(
    "n, k",
    [(70, 70), (1000, 37), (2**32 - 5, 40), (2**32, 40), (2**32 + 3, 40), (5 * 10**9, 300)],
)
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_draws_take_the_stream_as_scalar_draws_do(n, k, seed):
    """k draws in one call give the k scalar draws' values and leave the
    generator where they leave it, for n below, at and above 2**32."""
    one, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _draw_distinct(one, n, k).tolist() == _scalar_draws(scalar, n, k)
    assert one.bit_generator.state == scalar.bit_generator.state
    assert one.integers(0, 2, size=9).tolist() == scalar.integers(0, 2, size=9).tolist()


FC_ARCH = "FC(16->8)-LIF-FC(8->4)-LIF"
CONV_ARCH = "CONV(2x6x6->3,k3)-LIF-POOL(2)-FC(12->4)-LIF"
RFC_ARCH = "RFC(8->6)-LIF-FC(6->3)-LIF"
# (arch, points, spec, polarity, spike_mode, n, sha256 of write_fault_list's
# bytes); the hashes were recorded from the scalar-draw, per-index generator.
PINNED_LISTS = {
    "fc": (FC_ARCH, "weight,bias", dict(error_margin=0.05, seed=3), "random", "bit", 593,
           "208b5521f2abe79fb53fc7fb7d42bb4b5e9601ba6d875128d6f68bffc7012f90"),
    "fc-layer": (FC_ARCH, "weight,bias", dict(error_margin=0.05, seed=4, scope="layer"),
                 "random", "bit", 998,
                 "8d95a9b4273542130340b9ec39d8989def442aa6bb0a9f04b7537a7eb9f1c056"),
    "fc-0": (FC_ARCH, "weight,bias", dict(error_margin=0.05, seed=5), "0", "bit", 593,
             "1572056b323ee699e1ecaed0ae9bcdc045f5ef5164ecd7ca4937482f991f4bba"),
    "fc-1": (FC_ARCH, "weight,bias", dict(error_margin=0.05, seed=5), "1", "bit", 593,
             "a6ee3e30aa78526bee21dc6a045aaaeba9cd5508ef49801c5b7a447297b032e6"),
    "fc-both": (FC_ARCH, "weight,bias", dict(error_margin=0.05, seed=6), "both", "bit", 1186,
                "4a8ffbe9ce6601315a991463e4eac0d36daf15ac196a8724227f8afe484b9b26"),
    "fc-lif-value": (FC_ARCH, "beta,threshold,potential,spike", dict(error_margin=0.1, seed=7),
                     "random", "value", 141,
                     "a43f4c487139993fc011aa1b257cda949aa68274e545bcd99dbe6dd1258693e8"),
    "fc-exhaustive": ("FC(3->2)-LIF", "weight,bias", dict(error_margin=0.05, exhaustive=True),
                      "random", "bit", 256,
                      "c43a9eb555601fc8f06917ae0881190dbfc76479a58100344a0002e3a22de4ab"),
    "conv": (CONV_ARCH, "weight,bias,potential,spike", dict(error_margin=0.03, seed=8),
             "random", "bit", 1452,
             "47329b66ca888ae14488d8e781361090596ecb1663fc5a8517991d8b00e50af3"),
    "conv-layer-both": (CONV_ARCH, "weight,potential",
                        dict(error_margin=0.1, seed=9, scope="layer"), "both", "bit", 1050,
                        "3c1cda423bda9cfedd396d76496e50708499610ec8f2a9e1a14212ca5f123cc9"),
    "rfc": (RFC_ARCH, "weight,bias,feedback_weight,feedback_bias",
            dict(error_margin=0.02, seed=10), "random", "bit", 1968,
            "541a9f2f2b7f32c90977aef7d797dbb75c6d859b7abf1314627a9a3eca57740d"),
    "rfc-layer-value": (RFC_ARCH, "feedback_weight,spike",
                        dict(error_margin=0.05, seed=11, scope="layer"), "random", "value", 656,
                        "a0435d2295d43e0af5eb56289b7f1000840f99eda6052aae4207fc4ec54b928c"),
}


def _pinned_list(name):
    arch, points, kw, polarity, spike_mode, *_ = PINNED_LISTS[name]
    spec = SamplingSpec(quantile=2.576, **kw)
    kinds = {ParameterKind(p) for p in points.split(",")}
    return spec, generate_fault_list(synth_model(1, arch, 4), spec, kinds, polarity, spike_mode)


@pytest.mark.parametrize("name", PINNED_LISTS)
def test_fault_list_bytes_are_pinned(tmp_path, name):
    _, fl = _pinned_list(name)
    write_fault_list(fl, tmp_path / "fl.csv")
    assert fl.n == PINNED_LISTS[name][5]
    assert hashlib.sha256((tmp_path / "fl.csv").read_bytes()).hexdigest() == PINNED_LISTS[name][6]


@pytest.mark.parametrize("name", PINNED_LISTS)
def test_every_descriptor_is_its_drawn_index_located(name):
    """Redraw each list with scalar draws and check every descriptor against
    universe.locate of its index, and its stuck against the polarity draws."""
    spec, fl = _pinned_list(name)
    u, polarity = fl.universe, fl.polarity
    rng = np.random.default_rng(spec.seed)
    if spec.exhaustive:
        indices = list(range(u.N))
    elif spec.scope == "layer":
        indices = [base + i for _, base, size in u.layer_spans()
                   for i in _scalar_draws(rng, size, sample_size(size, spec))]
    else:
        indices = _scalar_draws(rng, u.N, sample_size(u.N, spec))
    if polarity == "both":
        indices, stucks = [i for i in indices for _ in (0, 1)], [0, 1] * len(indices)
    elif polarity == "random":
        stucks = rng.integers(0, 2, size=len(indices)).tolist()
    else:
        stucks = [int(polarity)] * len(indices)
    assert len(fl.descriptors) == len(indices)
    for d, index, stuck in zip(fl.descriptors, indices, stucks):
        entry, coords, bit = u.locate(index)
        assert (d.layer, d.parameter, d.coords, d.bit, d.stuck) == (
            entry.layer, entry.parameter, coords, bit, stuck)
        value = fl.spike_mode == "value" and d.parameter is ParameterKind.SPIKE
        assert d.mode is (FaultMode.VALUE_STUCK if value else FaultMode.BIT_STUCK)


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


@pytest.mark.parametrize(
    "layer, parameter, coords, shape",
    [
        ("fc1", "weight", "5;0", (5, 4)),  # past the end of the first axis
        ("fc1", "weight", "0;4", (5, 4)),  # of the last axis
        ("fc1", "weight", "0", (5, 4)),  # too few coords
        ("fc1", "bias", "0;0", (5,)),  # too many
        ("lif1", "potential", "5", (5,)),  # a state, checked against the layer's shape
        ("fc9", "weight", "0;0", None),  # no such layer
    ],
)
def test_read_bad_coords_on_the_last_row_names_its_fault_id(tmp_path, layer, parameter,
                                                             coords, shape):
    """Each (layer, parameter) shape is resolved once; a last row that the
    rows before it did not prepare for still ends in target_tensor's
    address error, prefixed with its fault id."""
    net, lines = _valid_lines(tmp_path)
    assert sum(ln.split(",")[1:3] == ["fc1", "weight"] for ln in lines[:-1]) > 1
    row = lines[-1].split(",")
    row[1], row[2], row[3] = layer, parameter, coords
    lines[-1] = ",".join(row)
    p = tmp_path / "bad.csv"
    _write_lines(p, lines)
    with pytest.raises(AddressError) as caught:
        read_fault_list(p, net)
    if shape is None:
        want = f"fault {row[0]}: no layer named '{layer}'"
    else:
        listed = "[" + ", ".join(coords.split(";")) + "]"
        want = (f"fault {row[0]}: coords {listed} out of bounds for "
                f"{layer}.{parameter} shape {shape}")
    assert str(caught.value) == want


def _with_universe(lines, edit):
    """A fault list's lines with its ``# universe`` comments edited, and the
    declared N made to match them."""
    at = [i for i, ln in enumerate(lines) if ln.startswith("# universe ")]
    universe = edit(lines[at[0] : at[-1] + 1])
    n = sum(32 * math.prod(map(int, ln.split()[-1].split("x"))) for ln in universe)
    head = re.sub(r" N=\d+ ", f" N={n} ", lines[0])
    return [head, *lines[1 : at[0]], *universe, *lines[at[-1] + 1 :]]


@pytest.mark.parametrize(
    "edit, message, alone",
    [
        (lambda u: [u[0].replace("5x4", "6x4"), *u[1:]],
         "universe fc1 weight 6x4 is not the model's fc1 weight 5x4", None),
        (lambda u: [u[1], u[0], *u[2:]], "universe fc1 bias 5 is not the model's fc1 weight 5x4",
         None),
        (lambda u: u[:-1], "universe (none) is not the model's fc2 weight 3x5",
         "fc2 weight is not in the list's universe"),
        (lambda u: [*u, "# universe fc3 weight 2x2"], "universe fc3 weight 2x2 is not the model's",
         None),
    ],
    ids=["shape", "order", "missing", "extra"],
)
def test_read_rejects_a_universe_that_is_not_the_networks(tmp_path, edit, message, alone):
    """A fault list whose declared universe is not the network's over the
    same kinds was drawn from another network: its percentages would be
    taken over the wrong universe. With the network, the reader refuses it,
    naming the first entry that differs; every row still addresses it. On
    its own the list is well-formed, unless it drops the entry of some row."""
    net, lines = _valid_lines(tmp_path)
    assert lines[2:5] == ["# universe fc1 weight 5x4", "# universe fc1 bias 5",
                          "# universe fc2 weight 3x5"]
    p = tmp_path / "other.csv"
    _write_lines(p, _with_universe(lines, edit))
    if alone is None:
        read_fault_list(p)
    else:
        with pytest.raises(FormatError, match=re.escape(alone)):
            read_fault_list(p)
    with pytest.raises(CompatibilityError, match=re.escape(message)):
        read_fault_list(p, net)


@pytest.mark.parametrize("net_given", [False, True], ids=["alone", "with-network"])
def test_read_rejects_a_row_outside_the_lists_universe(tmp_path, net_given):
    """A row whose (layer, parameter) no ``# universe`` comment declares is
    a format error naming its line, with or without the network: a report
    would find no group to count it in. A valid address does not save it."""
    net, lines = _valid_lines(tmp_path)
    assert not any(ln.startswith("# universe lif1 ") for ln in lines)
    fid = 1 + max(int(ln.split(",")[0]) for ln in lines if ln[0].isdigit())
    lines.append(f"{fid},lif1,potential,3,1,1,bit")
    lines[0] = re.sub(r" n=(\d+) ", lambda m: f" n={int(m[1]) + 1} ", lines[0])
    p = tmp_path / "outside.csv"
    _write_lines(p, lines)
    with pytest.raises(FormatError, match=re.escape(
            f"fault {fid}: lif1 potential is not in the list's universe (line {len(lines)})")):
        read_fault_list(p, net if net_given else None)


def test_read_reports_format_errors_before_address_errors(tmp_path):
    """A bad address on the first row and a malformed last row: the format
    error, with its line, is the one raised."""
    net, lines = _valid_lines(tmp_path)
    first = next(i for i, ln in enumerate(lines) if ln.startswith("fault_id,")) + 1
    row = lines[first].split(",")
    row[1], row[2], row[3] = "fc1", "weight", "9;9"
    lines[first] = ",".join(row)
    lines[-1] = lines[-1].replace(",bit", ",nibble")
    p = tmp_path / "bad.csv"
    _write_lines(p, lines)
    with pytest.raises(FormatError, match=rf"line {len(lines)}"):
        read_fault_list(p, net)


def test_read_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("not a fault list\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_fault_list(p)


@pytest.mark.parametrize(
    "prefix, pattern",
    [("# seed=", r"N=(\d+)"), ("# seed=", r"n=(\d+)"), ("# universe ", r" (\d+)x")],
    ids=["N", "n", "universe dims"],
)
def test_read_rejects_oversized_header_integers_with_line_number(tmp_path, prefix, pattern):
    # int() refuses decimal strings past 4,300 digits with a bare ValueError.
    net, lines = _valid_lines(tmp_path)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines[i] = re.sub(pattern, lambda m: m[0].replace(m[1], "1" * 5000), lines[i], count=1)
    p = tmp_path / "bad.csv"
    _write_lines(p, lines)
    with pytest.raises(FormatError, match=rf"line {i + 1}\)$"):
        read_fault_list(p)


@pytest.mark.parametrize("text", MALFORMED_FLOATS.values(), ids=MALFORMED_FLOATS)
@pytest.mark.parametrize("field", ["e", "t", "p"])
def test_read_rejects_malformed_header_floats(tmp_path, field, text):
    net, lines = _valid_lines(tmp_path)
    lines[0] = re.sub(rf" {field}=\S+", f" {field}={text}", lines[0], count=1)
    p = tmp_path / "bad.csv"
    _write_lines(p, lines)
    token = re.escape(f" {field}={text} ")
    with pytest.raises(FormatError, match=f"^bad metadata comment .*{token}"):
        read_fault_list(p)


def _read_edited(tmp_path, edit):
    _, lines = _valid_lines(tmp_path)
    p = tmp_path / "bad.csv"
    _write_lines(p, edit(lines))
    return read_fault_list(p)


# One row per typed rejection: (error, message, action on tmp_path). Lines of
# a written fault list: the sampling comment, the switches comment, then the
# universe comments from line 3.
FAULT_LIST_ERRORS = {
    "generate: bad polarity": (
        ValueError, r"^polarity must be one of \(.*\), got 'sideways'$",
        lambda tmp: generate_fault_list(
            two_layer_net(), spec_default(), WEIGHTS_AND_BIAS, polarity="sideways"
        ),
    ),
    "generate: bad spike mode": (
        ValueError, r"^spike_mode must be one of \(.*\), got 'loud'$",
        lambda tmp: generate_fault_list(
            two_layer_net(), spec_default(), WEIGHTS_AND_BIAS, spike_mode="loud"
        ),
    ),
    "read: bad polarity": (
        FormatError, r"^bad polarity/spike_mode \(line 2\)$",
        lambda tmp: _read_edited(tmp, lambda lines: [
            lines[0], "# polarity=sideways spike_mode=bit exhaustive=0", *lines[2:]
        ]),
    ),
    "read: bad spike mode": (
        FormatError, r"^bad polarity/spike_mode \(line 2\)$",
        lambda tmp: _read_edited(tmp, lambda lines: [
            lines[0], "# polarity=random spike_mode=loud exhaustive=0", *lines[2:]
        ]),
    ),
    "read: zero universe dimension": (
        FormatError, r"^bad universe shape 0x4 \(line 3\)$",
        lambda tmp: _read_edited(tmp, lambda lines: [
            *lines[:2], re.sub(r"\S+$", "0x4", lines[2]), *lines[3:]
        ]),
    ),
    "read: no universe lines": (
        FormatError, "^missing universe declaration comments$",
        lambda tmp: _read_edited(
            tmp, lambda lines: [ln for ln in lines if not ln.startswith("# universe ")]
        ),
    ),
    "read: declared N differs": (
        FormatError, "^declared universe size 1281 != 1280 from universe comments$",
        lambda tmp: _read_edited(
            tmp, lambda lines: [lines[0].replace(" N=1280 ", " N=1281 "), *lines[1:]]
        ),
    ),
}


@pytest.mark.parametrize(
    "error, message, action", FAULT_LIST_ERRORS.values(), ids=FAULT_LIST_ERRORS
)
def test_fault_list_typed_errors(tmp_path, error, message, action):
    with pytest.raises(error, match=message):
        action(tmp_path)


FAULT_ROW_DEFECTS = {
    **{
        name: lambda fields, form=form: [form(fields[0]), *fields[1:]]
        for name, form in MALFORMED_INTEGERS.items()
    },
    "extra field": lambda fields: [*fields, "0"],
}


@pytest.mark.parametrize("mutate", FAULT_ROW_DEFECTS.values(), ids=FAULT_ROW_DEFECTS)
def test_read_rejects_row_defects_with_line_number(tmp_path, mutate):
    net, lines = _valid_lines(tmp_path)
    lines[-1] = ",".join(mutate(lines[-1].split(",")))
    p = tmp_path / "bad.csv"
    _write_lines(p, lines)
    with pytest.raises(FormatError, match=rf"line {len(lines)}\)$"):
        read_fault_list(p)


def _set_field(lines, i, field, value):
    fields = lines[i].split(",")
    fields[field] = value
    lines[i] = ",".join(fields)


ROW_FAULTS = {
    "bad bit": lambda lines, i: _set_field(lines, i, 4, "32"),
    "duplicate id": lambda lines, i: _set_field(lines, i, 0, lines[i - 1].split(",")[0]),
    "bad mode": lambda lines, i: _set_field(lines, i, 6, "value"),  # on a weight or bias
}


@pytest.mark.parametrize("first, second", itertools.product(ROW_FAULTS, repeat=2))
def test_read_names_the_first_of_two_bad_rows(tmp_path, first, second):
    net, lines = _valid_lines(tmp_path)
    i, j = len(lines) - 6, len(lines) - 2
    ROW_FAULTS[first](lines, i)
    ROW_FAULTS[second](lines, j)
    p = tmp_path / "bad.csv"
    _write_lines(p, lines)
    with pytest.raises(FormatError, match=rf"\(line {i + 1}\)$"):
        read_fault_list(p)
