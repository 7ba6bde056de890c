"""Forward-pass ops: worked examples, accumulation order, LIF semantics.

Expected values come from independent scalar float32 oracles (see helpers),
never from the functions under test.
"""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bits_of,
    fc_layer,
    lif_layer,
    reference_forward,
    seq_chain_f32,
    seq_conv_window_f32,
    seq_dot_f32,
    single_neuron_net,
    spike_train,
    two_layer_net,
)
from snnfault import core
from snnfault.core import (
    CUMSUM_MAX_WIDTH,
    DTYPE,
    LayerKind,
    LayerSpec,
    LifState,
    Network,
    avgpool2d_forward,
    conv2d_forward,
    lif_step,
    linear_forward,
    network_forward,
    recurrent_forward,
    reset_state,
)
from snnfault.dataio import synth_model
from snnfault.errors import DimensionError
from snnfault.faults import (
    FaultDescriptor,
    FaultMode,
    ParameterKind,
    inject_static,
    make_refresh_hook,
)

F32 = np.float32

finite_f32 = st.floats(
    allow_nan=False, allow_infinity=False, width=32, min_value=-1e6, max_value=1e6
)
special_f32 = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


def arr(x):
    return np.asarray(x, DTYPE)


# -- linear ---------------------------------------------------------------


def test_linear_integer_example():
    out = linear_forward(arr([[1, 2], [3, 4]]), None, arr([1, 1]))
    assert out.dtype == DTYPE
    np.testing.assert_array_equal(out, arr([3, 7]))


def test_linear_identity_passthrough():
    x = arr([0.25, -3.5])
    out = linear_forward(arr(np.eye(2)), arr([0, 0]), x)
    assert bits_of(out[0]) == bits_of(x[0]) and bits_of(out[1]) == bits_of(x[1])


def test_linear_fraction_example():
    out = linear_forward(arr([[0.5]]), arr([0.25]), arr([1]))
    np.testing.assert_array_equal(out, arr([0.75]))


def test_linear_shape_mismatch_names_layer():
    with pytest.raises(DimensionError, match="fc7"):
        Network([fc_layer("fc7", [[1, 2]]), lif_layer("lif1")], timesteps=1, input_shape=(3,))


@given(
    st.integers(1, 8),
    st.integers(1, 12),
    st.data(),
)
def test_linear_matches_sequential_scalar_sum(out_n, in_n, data):
    """Bitwise agreement with an ascending-index scalar f32 loop."""
    w = data.draw(
        st.lists(st.lists(finite_f32, min_size=in_n, max_size=in_n), min_size=out_n, max_size=out_n)
    )
    x = data.draw(st.lists(finite_f32, min_size=in_n, max_size=in_n))
    b = data.draw(st.none() | st.lists(finite_f32, min_size=out_n, max_size=out_n))
    out = linear_forward(arr(w), None if b is None else arr(b), arr(x))
    for i in range(out_n):
        want = seq_dot_f32(w[i], x, None if b is None else b[i])
        assert bits_of(out[i]) == bits_of(want)


def _realization(call):
    """Run call() and name the chain realization each linear_forward in it
    took: "cumsum", or the accumulator layout of the column loop."""
    seen = []
    chain = core._product_chain

    def spy(weights, values):
        # [in, out, 1] x [in, 1, rows] accumulates [out, rows]; the other way
        # round, [rows, out], would be a layout linear_forward does not take
        seen.append("out x rows" if weights.shape[2] == 1 and values.shape[1] == 1 else "rows x out")
        return chain(weights, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_product_chain", spy)
        out = call()
    return out, seen or ["cumsum"]


def _rows_for(out_n):
    """Batch heights just below and at linear_forward's threshold of
    CUMSUM_MAX_WIDTH sums, each with the realization it selects."""
    at_cumsum = -(-CUMSUM_MAX_WIDTH // out_n)
    heights = {max(1, h) for h in (at_cumsum - 1, at_cumsum)}
    return {h: "cumsum" if h * out_n < CUMSUM_MAX_WIDTH else "out x rows" for h in sorted(heights)}


def _same_f32(got, want) -> bool:
    # NaN payloads are not pinned: with two NaN operands numpy's scalar and
    # vector adds keep different ones. Every other result is pinned bitwise.
    return bool(np.isnan(got)) if np.isnan(want) else bits_of(got) == bits_of(want)


@given(st.integers(1, 40), st.integers(1, 6), st.data())
def test_linear_batched_matches_scalar_chain_both_sides_of_break_even(out_n, in_n, data):
    """Every row of a [rows, in] batch equals the scalar ascending chain just
    below and at CUMSUM_MAX_WIDTH, so in both realizations, with signed
    zeros, infinities and NaNs among the weights, inputs and bias."""
    values = finite_f32 | special_f32
    w = arr(data.draw(st.lists(st.lists(values, min_size=in_n, max_size=in_n),
                               min_size=out_n, max_size=out_n)))
    distinct = data.draw(st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0]) | values, min_size=in_n, max_size=in_n),
        min_size=1, max_size=3))
    b = data.draw(st.none() | st.lists(values, min_size=out_n, max_size=out_n))
    with np.errstate(all="ignore"):
        want = [[seq_dot_f32(w[i], row, None if b is None else b[i]) for i in range(out_n)]
                for row in distinct]
        for rows, realization in _rows_for(out_n).items():
            x = arr([distinct[r % len(distinct)] for r in range(rows)])
            out, seen = _realization(lambda: linear_forward(w, None if b is None else arr(b), x))
            assert seen == [realization]
            assert out.shape == (rows, out_n)
            for r in range(rows):
                assert all(map(_same_f32, out[r], want[r % len(distinct)]))


def test_linear_thresholds_leave_every_realization_reachable():
    """The heights test_linear_batched_matches_scalar_chain_both_sides_of_break_even
    draws from reach both realizations, and a column loop of fewer rows
    than outputs."""
    cases = [(h, out_n, r) for out_n in range(1, 41) for h, r in _rows_for(out_n).items()]
    assert {r for _, _, r in cases} == {"cumsum", "out x rows"}
    assert any(r == "out x rows" and h < out_n for h, out_n, r in cases)


REALIZATIONS = ["cumsum", "out x rows"]


@pytest.mark.parametrize("realization", REALIZATIONS)
def test_linear_chain_starts_at_first_term(realization):
    """A chain of -0.0 terms stays -0.0 (a +0.0 seed would flip it), and an
    Inf weight times a 0 spike still poisons the sum with NaN."""
    w = np.tile(arr([[-0.0, -0.0, -0.0], [np.inf, 1.0, 1.0], [1.0, 2.0, 3.0]]), (10, 1))
    rows = max(h for h, r in _rows_for(len(w)).items() if r == realization)
    x = np.tile(arr([0.0, 1.0, 1.0]), (rows, 1))  # Inf meets a 0 spike
    with np.errstate(all="ignore"):
        out, seen = _realization(lambda: linear_forward(w, None, x))
    assert set(seen) == {realization}
    assert all(bits_of(v) == bits_of(F32(-0.0)) for v in out[:, 0::3].flat)
    assert np.isnan(out[:, 1::3]).all()
    assert (out[:, 2::3] == 5.0).all()


@pytest.mark.parametrize("bias", [False, True], ids=["no bias", "bias"])
@pytest.mark.parametrize("realization", REALIZATIONS)
def test_linear_returns_owned_contiguous_result(realization, bias):
    """Whatever the realization, the result is C-contiguous and keeps no
    larger array alive: not the cumsum's [rows, out, in] terms, not a
    transposed [out, rows] accumulator."""
    out_n, in_n = 20, 392
    rows = max(h for h, r in _rows_for(out_n).items() if r == realization)
    x = np.ones((rows, 1, in_n), DTYPE)  # two batch axes
    b = np.ones(out_n, DTYPE) if bias else None
    out, seen = _realization(lambda: linear_forward(np.ones((out_n, in_n), DTYPE), b, x))
    assert set(seen) == {realization}
    assert out.shape == (rows, 1, out_n) and out.flags.c_contiguous
    assert out.base is None or out.base.nbytes <= out.nbytes
    assert (out == in_n + bias).all()


# a product of two of these underflows to +-0 although neither factor is zero
tiny_f32 = st.sampled_from([1e-30, -1e-30])
skip_weights = finite_f32 | special_f32 | tiny_f32 | st.sampled_from([1.0, -1.0])
skip_inputs = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | finite_f32 | special_f32 | tiny_f32


def _live(weights, x) -> np.ndarray:
    """The columns the skip must keep: an input that is not +-0 in some row,
    or a weight that is not finite."""
    in_n = x.shape[-1]
    return (x.reshape(-1, in_n) != 0).any(axis=0) | ~np.isfinite(weights.reshape(-1, in_n)).all(axis=0)


@given(st.integers(1, 40), st.integers(1, 8), st.booleans(), st.data())
def test_column_skip_matches_scalar_chain(out_n, in_n, per_row, data):
    """With the skip forced on every call, each result equals the scalar
    ascending chain over all columns, in both realizations and with
    per-row weights: columns that are +-0 in every row, dead columns holding
    an Inf or NaN weight (which must give NaN), reduced results of -0.0 that
    send the call back over all its columns, calls whose every column is
    dead, and live products that underflow to +-0. A spy on the realization
    shows the reduced width ran, and ran alone unless it gave a -0.0."""
    matrix = st.lists(st.lists(skip_weights, min_size=in_n, max_size=in_n),
                      min_size=out_n, max_size=out_n)
    mats = [arr(data.draw(matrix)) for _ in range(1 + per_row)]
    dead = data.draw(st.lists(st.booleans(), min_size=in_n, max_size=in_n))
    distinct = [[data.draw(st.sampled_from([0.0, -0.0]) if d else skip_inputs) for d in dead]
                for _ in range(data.draw(st.integers(1, 3)))]
    want = {}
    with np.errstate(all="ignore"):
        for m, w in enumerate(mats):
            for n, row in enumerate(distinct):
                want[m, n] = [seq_dot_f32(w[i], row, None) for i in range(out_n)]
    heights = _rows_for(out_n)
    if per_row:  # per-row weights always take the cumsum realization
        heights = {h: "cumsum" for h in list(heights)[-2:]}
    widths, chains = [], core._chains

    def spy(weight, input, rows):
        out = chains(weight, input, rows)
        widths.append((weight.shape[-1], bool((np.signbit(out) & (out == 0)).any())))
        return out

    for rows, realization in heights.items():
        x = arr([distinct[r % len(distinct)] for r in range(rows)])
        w = np.stack([mats[r % len(mats)] for r in range(rows)]) if per_row else mats[0]
        live = _live(w, x).sum()
        widths.clear()
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(core, "SKIP_MIN_TERMS", 0)
            mp.setattr(core, "_chains", spy)
            out, seen = _realization(lambda: linear_forward(w, None, x))
        assert set(seen) == {realization}
        if 0 < live < in_n:
            assert widths[0][0] == live
            assert [width for width, _ in widths[1:]] == ([in_n] if widths[0][1] else [])
        else:
            assert [width for width, _ in widths] == [in_n]
        for r in range(rows):
            assert all(map(_same_f32, out[r], want[r % len(mats), r % len(distinct)]))


def test_column_skip_scans_weights_only_where_the_input_is_dead(monkeypatch):
    """At its natural gate, the liveness test reads a column's weights only
    when the input is +-0 in it in every row: an all-live call makes no
    weight scan, and a call with dead columns scans just theirs. The skip
    moves no bit against the same call run dense."""
    rng = np.random.default_rng(0)
    w = rng.uniform(-1.0, 1.0, (32, 32)).astype(DTYPE)
    x = (rng.random((50, 32)) < 0.3).astype(DTYPE)
    x[0] = 1.0  # every column live
    assert x.size * w.shape[0] >= core.SKIP_MIN_TERMS
    scans, isfinite = [], np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: scans.append(a.shape) or isfinite(a))
    linear_forward(w, None, x)
    assert scans == []
    x[:, [3, 17, 30]] = 0.0
    out = linear_forward(w, None, x)
    assert scans == [(32, 3)]
    monkeypatch.setattr(core, "SKIP_MIN_TERMS", 1 << 62)
    assert out.tobytes() == linear_forward(w, None, x).tobytes()


def test_column_skip_recomputes_negative_zero_dense():
    """Worked case with the skip forced. Column 1 is +0 in every row, so it
    is dropped. In row 2 every term is a zero: for output 0 the live terms
    are -0.0 and the dropped one +0.0, so the reduced chain's -0.0 sends the
    call back over all columns, for the +0.0 of the full chain; for output 1
    every term is -0.0 and the result stays -0.0. An Inf weight keeps its
    column live and poisons every sum, and a call with no live column runs
    dense. Without row 2, no result is -0.0 and the reduced call stands."""
    w = arr([[-1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])
    x = arr([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    widths, chains = [], core._chains
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(core, "SKIP_MIN_TERMS", 0)
        mp.setattr(core, "_chains",
                   lambda weight, input, rows: widths.append(weight.shape[-1]) or chains(weight, input, rows))
        out = linear_forward(w, None, x)
        poisoned = linear_forward(arr([[1.0, np.inf, 1.0]]), None, x)
        silent = linear_forward(w, None, np.zeros_like(x))
        live = linear_forward(w, None, x[:2])
    assert widths == [2, 3, 3, 3, 2]
    assert live.tobytes() == out[:2].tobytes()
    assert bits_of(out[2, 0]) == bits_of(F32(0.0))
    assert bits_of(out[2, 1]) == bits_of(F32(-0.0))
    assert (out[:2] == -1.0).all()
    assert np.isnan(poisoned).all()
    assert [bits_of(v) for v in silent[0]] == [bits_of(F32(0.0)), bits_of(F32(-0.0))]


# -- recurrent ------------------------------------------------------------


def _rfc_spec(weight, fb_weight, bias=None, fb_bias=None):
    params = {"weight": arr(weight), "feedback_weight": arr(fb_weight)}
    if bias is not None:
        params["bias"] = arr(bias)
    if fb_bias is not None:
        params["feedback_bias"] = arr(fb_bias)
    return LayerSpec("rfc1", LayerKind.RECURRENT, params)


def test_recurrent_zero_spike_equals_linear():
    spec = _rfc_spec([[0.3, -0.7], [1.5, 0.2]], [[5, 5], [5, 5]], bias=[0.1, 0.2])
    x = arr([1, 1])
    out = recurrent_forward(spec, x, arr([0, 0]))
    ref = linear_forward(spec.params["weight"], spec.params["bias"], x)
    assert [bits_of(v) for v in out] == [bits_of(v) for v in ref]


def test_recurrent_feedback_example():
    spec = _rfc_spec([[1]], [[2]])
    np.testing.assert_array_equal(recurrent_forward(spec, arr([1]), arr([1])), arr([3]))


def test_recurrent_zero_matrix_leaves_fb_bias():
    spec = _rfc_spec([[0]], [[0]], fb_bias=[0.625])
    np.testing.assert_array_equal(recurrent_forward(spec, arr([1]), arr([1])), arr([0.625]))


# -- conv / pool ----------------------------------------------------------


def test_conv_1x1_kernel_scales():
    out = conv2d_forward(arr([[[[2]]]]), None, arr([[[1, 2], [3, 4]]]))
    np.testing.assert_array_equal(out, arr([[[2, 4], [6, 8]]]))


def test_conv_2x2_ones_sums_window():
    out = conv2d_forward(arr(np.ones((1, 1, 2, 2))), None, arr(np.ones((1, 2, 2))))
    np.testing.assert_array_equal(out, arr([[[4]]]))


def test_conv_zero_weight_gives_constant_bias_map():
    out = conv2d_forward(arr(np.zeros((1, 1, 2, 2))), arr([1.5]), arr(np.ones((1, 3, 3))))
    np.testing.assert_array_equal(out, np.full((1, 2, 2), 1.5, DTYPE))


def test_conv_kernel_larger_than_input_rejected():
    conv = LayerSpec("conv9", LayerKind.CONV2D, {"weight": np.ones((1, 1, 3, 3))})
    with pytest.raises(DimensionError, match="conv9"):
        Network([conv, lif_layer("lif1")], timesteps=1, input_shape=(1, 2, 2))


def _draw_f32(data, shape):
    n = int(np.prod(shape))
    return arr(data.draw(st.lists(finite_f32, min_size=n, max_size=n))).reshape(shape)


batch_shapes = st.sampled_from([(), (3,), (2, 2)])


@given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 3), st.integers(0, 2), batch_shapes,
       st.data())
def test_conv_matches_scalar_window_oracle(oc, ic, k, extra, batch, data):
    """Each output pixel of each batch row equals the ic-major, row, column
    scalar f32 chain."""
    h = w = k + extra
    weight = _draw_f32(data, (oc, ic, k, k))
    images = _draw_f32(data, (*batch, ic, h, w))
    bias = data.draw(st.none() | st.lists(finite_f32, min_size=oc, max_size=oc))
    out = conv2d_forward(weight, None if bias is None else arr(bias), images)
    assert out.shape == (*batch, oc, h - k + 1, w - k + 1)
    for idx in np.ndindex(*batch):
        for o in range(oc):
            for r in range(h - k + 1):
                for c in range(w - k + 1):
                    want = seq_conv_window_f32(weight[o], images[idx][:, r : r + k, c : c + k])
                    if bias is not None:
                        want = F32(want + F32(bias[o]))
                    assert bits_of(out[idx][o, r, c]) == bits_of(want)


def test_pool_identity_at_one():
    x = arr(np.arange(8).reshape(2, 2, 2))
    out = avgpool2d_forward(x, 1)
    assert out.tobytes() == x.tobytes()


def test_pool_window_mean_example():
    out = avgpool2d_forward(arr([[[1, 2], [3, 4]]]), 2)
    np.testing.assert_array_equal(out, arr([[[2.5]]]))


def test_pool_constant_stays_constant():
    out = avgpool2d_forward(np.full((3, 4, 4), 0.7, DTYPE), 2)
    np.testing.assert_array_equal(out, np.full((3, 2, 2), 0.7, DTYPE))


def test_pool_nondivisible_rejected():
    conv = LayerSpec("conv1", LayerKind.CONV2D, {"weight": np.ones((1, 1, 1, 1))})
    pool = LayerSpec("pool1", LayerKind.AVGPOOL2D, hyper={"pool": 2})
    with pytest.raises(DimensionError, match="pool1"):
        Network([conv, lif_layer("lif1"), pool], timesteps=1, input_shape=(1, 3, 3))


@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2), batch_shapes, st.data())
def test_pool_matches_scalar_oracle(c, p, tiles, batch, data):
    h = p * tiles
    images = _draw_f32(data, (*batch, c, h, h))
    out = avgpool2d_forward(images, p)
    assert out.shape == (*batch, c, tiles, tiles)
    for idx in np.ndindex(*batch):
        for ch in range(c):
            for r in range(tiles):
                for q in range(tiles):
                    acc = seq_chain_f32(
                        images[idx][ch, r * p + rr, q * p + qq]
                        for rr in range(p)
                        for qq in range(p)
                    )
                    want = F32(acc / F32(p * p))
                    assert bits_of(out[idx][ch, r, q]) == bits_of(want)


# -- lif_step -------------------------------------------------------------


def _step(v_prev, current, beta, v_th):
    state = LifState(potential=arr([v_prev]), spike=arr([0]))
    new_state, spike = lif_step(state, arr([current]), arr([beta]), arr([v_th]))
    return new_state.potential[0], spike[0]


def test_lif_subthreshold_example():
    # V_prev=0.8 <= V_th=1.0: decay branch, V = 0.5*0.8 + 0.3
    v, s = _step(0.8, 0.3, 0.5, 1.0)
    want = F32(F32(F32(0.5) * F32(0.8)) + F32(0.3))
    assert bits_of(v) == bits_of(want)
    assert v == pytest.approx(0.7, rel=1e-6)
    assert s == 0.0


def test_lif_reset_by_subtraction_example():
    # V_prev=1.2 > V_th=1.0: spike, V = (1.2 - 1.0) + 0
    v, s = _step(1.2, 0.0, 0.5, 1.0)
    want = F32(F32(F32(1.2) - F32(1.0)) + F32(0.0))
    assert bits_of(v) == bits_of(want)
    assert v == pytest.approx(0.2, rel=1e-5)
    assert s == 1.0


def test_lif_zero_fixed_point():
    for beta in (0.0, 0.5, 0.99):
        v, s = _step(0.0, 0.0, beta, 1.0)
        assert v == 0.0 and s == 0.0


def test_lif_tie_takes_decay_branch():
    # Strictly-greater firing: V_prev == V_th must NOT spike.
    v, s = _step(1.0, 0.0, 0.5, 1.0)
    assert s == 0.0
    assert bits_of(v) == bits_of(F32(0.5))


def test_lif_nan_potential_takes_decay_branch():
    v, s = _step(float("nan"), 1.0, 0.5, 1.0)
    assert s == 0.0
    assert np.isnan(v)


def test_lif_spike_is_binary_f32():
    state = LifState(potential=arr([0.0, 2.0, -1.0]), spike=arr([0, 0, 0]))
    new_state, spike = lif_step(state, arr([0, 0, 0]), arr([0.9]), arr([1.0]))
    assert spike.dtype == DTYPE
    assert set(spike.tolist()) <= {0.0, 1.0}
    np.testing.assert_array_equal(spike, arr([0, 1, 0]))


@given(finite_f32, finite_f32, st.floats(0.0, 1.0, width=32), finite_f32)
def test_lif_branches_match_two_step_scalar(v_prev, current, beta, v_th):
    """Each branch is the documented two-op f32 chain, bitwise."""
    v, s = _step(v_prev, current, beta, v_th)
    if F32(v_prev) > F32(v_th):
        want = F32(F32(F32(v_prev) - F32(v_th)) + F32(current))
        assert s == 1.0
    else:
        want = F32(F32(F32(beta) * F32(v_prev)) + F32(current))
        assert s == 0.0
    assert bits_of(v) == bits_of(want)


def test_lif_geometric_decay_bitwise():
    """Zero input: V[n] is the iterated f32 product beta^n * V0, 20 neurons x 30 steps."""
    rng = np.random.default_rng(42)
    v0 = rng.uniform(-0.9, 0.9, size=20).astype(DTYPE)
    beta = rng.uniform(0.1, 0.99, size=20).astype(DTYPE)
    state = LifState(potential=v0.copy(), spike=np.zeros(20, DTYPE))
    zero = np.zeros(20, DTYPE)
    expect = v0.copy()
    for _ in range(30):
        state, spike = lif_step(state, zero, beta, np.full(20, 10.0, DTYPE))
        np.testing.assert_array_equal(spike, zero)
        for i in range(20):
            expect[i] = F32(beta[i] * expect[i])
            expect[i] = F32(expect[i] + F32(0.0))
        assert state.potential.tobytes() == expect.tobytes()


# -- network_forward ------------------------------------------------------


def test_forward_zero_input_zero_scores():
    net = two_layer_net(seed=1)
    net.layer("fc1").params.pop("bias")
    net = Network([s.copy() for s in net.layers], net.timesteps, net.input_shape)
    scores = network_forward(net, np.zeros((net.timesteps, 4), DTYPE))
    np.testing.assert_array_equal(scores, np.zeros(3, DTYPE))


def test_forward_single_neuron_four_step_trace():
    """Constant drive, V_th=0.5, beta=0: the first spike lags one step."""
    net = single_neuron_net(weight=1.0, v_th=0.5, beta=0.0, timesteps=4)
    scores = network_forward(net, np.ones((4, 1), DTYPE))
    np.testing.assert_array_equal(scores, arr([3]))


def test_forward_spike_lag_step_by_step():
    net = single_neuron_net(weight=1.0, v_th=0.5, beta=0.0, timesteps=4)
    seen = []
    network_forward(net, np.ones((4, 1), DTYPE), refresh=lambda l, k, a: seen.append((k, a[0])))
    spikes = [v for k, v in seen if k == "spike"]
    assert spikes == [0.0, 1.0, 1.0, 1.0]


def test_forward_deterministic_bitwise():
    net = two_layer_net(seed=3)
    x = spike_train(7, net.timesteps, (4,))
    reset_state(net)
    a = network_forward(net, x)
    reset_state(net)
    b = network_forward(net, x)
    assert a.tobytes() == b.tobytes()
    assert a.max() > 0  # the net actually fires; determinism is not vacuous


def test_forward_rejects_wrong_sample_shape():
    net = two_layer_net()
    with pytest.raises(DimensionError):
        network_forward(net, np.zeros((net.timesteps, 5), DTYPE))


BATCH_NETS = {
    "fc": "FC(8->120)-LIF-FC(120->4)-LIF",
    "rfc": "RFC(8->120)-LIF-FC(120->4)-LIF",
    "conv": "CONV(2x6x6->3,k3)-LIF-POOL(2)-FC(12->4)-LIF",
}
# (parameter, bit, stuck, mode); "weight-inf" first sets the weight to 1.0, so
# stuck bit 30 makes it +Inf and Inf * 0-spike = NaN enters the chain.
BATCH_FAULTS = {
    "golden": None,
    "weight-inf": (ParameterKind.WEIGHT, 30, 1, FaultMode.BIT_STUCK),
    "weight": (ParameterKind.WEIGHT, 29, 1, FaultMode.BIT_STUCK),
    "potential-bit": (ParameterKind.POTENTIAL, 30, 1, FaultMode.BIT_STUCK),
    "spike-bit": (ParameterKind.SPIKE, 31, 1, FaultMode.BIT_STUCK),
    "spike-value": (ParameterKind.SPIKE, 0, 1, FaultMode.VALUE_STUCK),
}


def _batch_case(arch, fault):
    """A BATCH_NETS net with a BATCH_FAULTS fault, a static one injected and
    a dynamic one as the returned refresh hook, and five input trains."""
    net = synth_model(21, arch, 8, threshold=0.2)
    first, lif = net.layers[0], net.layers[1].name
    spikes = np.stack([spike_train(40 + i, 8, net.input_shape) for i in range(5)])
    hook = None
    if BATCH_FAULTS[fault] is not None:
        kind, bit, stuck, mode = BATCH_FAULTS[fault]
        if kind.is_static:
            coords = (0,) * first.params["weight"].ndim
            if fault == "weight-inf":
                first.params["weight"][coords] = 1.0
            inject_static(net, FaultDescriptor(0, first.name, kind, coords, bit, stuck))
        else:
            coords = tuple(n // 2 for n in net.shapes[lif])
            hook = make_refresh_hook(FaultDescriptor(0, lif, kind, coords, bit, stuck, mode))
    return net, spikes, hook


@pytest.mark.parametrize("fault", BATCH_FAULTS)
@pytest.mark.parametrize("arch", BATCH_NETS.values(), ids=BATCH_NETS)
def test_batched_forward_equals_stacked_unbatched(arch, fault):
    """A [K, T, ...] forward is bitwise K unbatched forwards, stacked. K=5
    puts the RFC's per-step feedback (120 outputs) on the column-loop side of
    CUMSUM_MAX_WIDTH while the unbatched calls stay on the cumsum side."""
    net, spikes, hook = _batch_case(arch, fault)
    reset_state(net)
    batched = network_forward(net, spikes, hook)
    stacked = []
    for x in spikes:
        reset_state(net)
        stacked.append(network_forward(net, x, hook))
    assert batched.shape == (5, net.num_classes)
    assert batched.tobytes() == np.stack(stacked).tobytes()
    assert batched.any()  # the net fires; the comparison is not vacuous


@pytest.mark.parametrize("batch", [(0,), (2, 0)], ids=["0", "2x0"])
@pytest.mark.parametrize(
    "arch", ["FC(4->3)-LIF-FC(3->2)-LIF", *BATCH_NETS.values()], ids=["tiny", *BATCH_NETS]
)
def test_empty_batch_forward_returns_zero_rows(arch, batch):
    net = synth_model(21, arch, 8)
    scores = network_forward(net, np.zeros((*batch, 8, *net.input_shape), np.uint8))
    assert scores.shape == (*batch, net.num_classes) and scores.dtype == DTYPE


def _rows_cases(net):
    """Per-row faults on a BATCH_NETS net for its five input trains: rows
    that gather inputs out of order and twice, under four faults given once
    each, which the rows use out of order, two rows to a fault, and one
    fault none of them uses (so a row that took its values by its own
    position, not its fault's, would read another fault's or none). Returns
    (start, Rows) pairs with cones written into the first LIF layer's
    spikes; with the first layer's touched rows or channels, and that LIF
    layer's beta and threshold per fault at the touched rows or channels;
    and with per-fault beta and threshold for all of that LIF layer."""
    first, lif = net.layers[0], net.layers[1]
    shape = net.shapes[lif.name]
    source, fault = np.array([3, 0, 0, 4, 1]), np.array([2, 0, 2, 1, 0])
    faults = np.arange(4)
    rng = np.random.default_rng(7)
    values = (rng.random((5, 8, 4, *shape[1:])) < 0.5).astype(DTYPE)
    values[0, :, 2] = -0.0  # a cone of negative zeros differs from golden in bits
    cone = core.Rows(source, fault, cone=(((faults * 2 + 1) % shape[0],), values))
    touched = (faults + 1) % shape[0]
    own = {key: value[(touched + 1) % shape[0]] for key, value in first.params.items()}
    own["weight"][2] = -own["weight"][2]
    cut = (touched, LayerSpec(first.name, first.kind, own, first.hyper))
    columns = {key: rng.uniform(0.1, 0.9, (4, *shape[1:])).astype(DTYPE)
               for key in ("beta", "threshold")}
    own = LayerSpec(lif.name, lif.kind, columns)
    restart = core.Rows(source, fault, cut=cut, lif=((touched,), own))
    params = {key: rng.uniform(0.1, 0.9, (4, *shape)).astype(DTYPE)
              for key in ("beta", "threshold")}
    whole = core.Rows(source, fault, lif=((), LayerSpec(lif.name, lif.kind, params)))
    return {"cone": (2, cone), "restart": (0, restart), "whole": (0, whole)}


@pytest.mark.parametrize("fault", BATCH_FAULTS)
@pytest.mark.parametrize("arch", BATCH_NETS.values(), ids=BATCH_NETS)
def test_forward_matches_timestep_major_reference(arch, fault):
    """network_forward equals reference_forward, which shares none of its
    code, batched and unbatched: the scores, every layer's recorded output,
    and every tensor the hook sees, per layer and state kind in timestep
    order. That holds from every start layer, on the inputs the full run
    recorded (whose scores it repeats), and with per-row faults (Rows):
    cones written in, or a layer's touched rows and a LIF layer's beta and
    threshold, each row taking its fault's values."""
    net, spikes, fault_hook = _batch_case(arch, fault)

    def run(forward, x, start=0, rows=None):
        in_shape = net.shapes[net.layers[start - 1].name] if start else net.input_shape
        batch = x.shape[: x.ndim - 1 - len(in_shape)] if rows is None else rows.source.shape
        record = {s.name: np.empty((*batch, 8, *net.shapes[s.name]), DTYPE)
                  for s in net.layers[start:]}
        seen = {}

        def hook(layer, kind, tensor):
            if fault_hook is not None:
                fault_hook(layer, kind, tensor)
            seen.setdefault((layer, kind), []).append(tensor.tobytes())

        reset_state(net)
        scores = forward(net, x, hook, start=start, record=record, rows=rows)
        return scores.tobytes(), {k: v.tobytes() for k, v in record.items()}, seen, record

    for rows in (0, slice(None)):
        full = run(network_forward, spikes[rows])
        assert full[:3] == run(reference_forward, spikes[rows])[:3]
        for start in range(1, len(net.layers) + 1):
            x = full[3][net.layers[start - 1].name]
            got = run(network_forward, x, start)
            assert got[:3] == run(reference_forward, x, start)[:3], start
            assert got[0] == full[0], start
    assert np.frombuffer(full[0], DTYPE).any()
    for how, (start, per_row) in _rows_cases(net).items():  # on the batched run's inputs
        x = full[3][net.layers[start - 1].name] if start else spikes
        got = run(network_forward, x, start, per_row)
        assert got[:3] == run(reference_forward, x, start, per_row)[:3], how
        gathered = run(network_forward, x[per_row.source], start)
        after = net.layers[2].name  # the rows' faults changed its input; the check is not vacuous
        assert got[1][after] != gathered[1][after], how


def test_recurrent_net_with_zero_feedback_matches_fc():
    rng = np.random.default_rng(5)
    w = rng.uniform(-1, 1, (4, 3)).astype(DTYPE)
    fc_net = Network(
        [fc_layer("fc1", w), lif_layer("lif1", 0.9, 0.5)], timesteps=6, input_shape=(3,)
    )
    rfc_net = Network(
        [
            LayerSpec(
                "rfc1",
                LayerKind.RECURRENT,
                {"weight": w.copy(), "feedback_weight": np.zeros((4, 4), DTYPE)},
            ),
            lif_layer("lif1", 0.9, 0.5),
        ],
        timesteps=6,
        input_shape=(3,),
    )
    x = spike_train(11, 6, (3,), rate=0.7)
    a = network_forward(fc_net, x)
    b = network_forward(rfc_net, x)
    assert a.tobytes() == b.tobytes()
    assert a.max() > 0


def test_recurrent_feedback_changes_behavior():
    # Inhibitory feedback must change the spike pattern vs zero feedback
    # (excitatory feedback can saturate both variants to the same ceiling).
    rng = np.random.default_rng(6)
    w = rng.uniform(0.5, 1.0, (4, 3)).astype(DTYPE)

    def build(fb_scale):
        return Network(
            [
                LayerSpec(
                    "rfc1",
                    LayerKind.RECURRENT,
                    {
                        "weight": w.copy(),
                        "feedback_weight": np.full((4, 4), fb_scale, DTYPE),
                    },
                ),
                lif_layer("lif1", 0.9, 0.5),
                fc_layer("fc2", np.eye(4, dtype=DTYPE)),
                lif_layer("lif2", 0.9, 0.5),
            ],
            timesteps=8,
            input_shape=(3,),
        )

    x = spike_train(12, 8, (3,), rate=0.8)
    assert network_forward(build(-5.0), x).tobytes() != network_forward(build(0.0), x).tobytes()


def test_reset_state_zeroes_and_is_idempotent():
    net = two_layer_net(seed=9)
    network_forward(net, spike_train(1, net.timesteps, (4,), rate=0.9))
    assert any(st.potential.any() for st in net.states.values())
    reset_state(net)
    reset_state(net)
    for st in net.states.values():
        assert not st.potential.any() and not st.spike.any()


# -- structural validation -------------------------------------------------


def test_network_rejects_lif_without_weighted_predecessor():
    with pytest.raises(DimensionError):
        Network([lif_layer("lif1")], timesteps=2, input_shape=(3,))


def test_network_rejects_duplicate_names():
    with pytest.raises(DimensionError, match="duplicate"):
        Network(
            [fc_layer("a", [[1.0]]), lif_layer("a")],
            timesteps=2,
            input_shape=(1,),
        )


@pytest.mark.parametrize("name", ["fc.1", "fc 1", "fc\t1", "fc,1", ""])
def test_network_rejects_names_the_file_formats_cannot_carry(name):
    """A model names its tensors layer.parameter, and a fault list's comments
    and rows split on spaces and commas: a layer name that is empty or holds
    whitespace, ',' or '.' is refused at construction, naming the layer."""
    with pytest.raises(DimensionError, match=re.escape(f"layer name {name!r}")):
        Network([fc_layer(name, [[1.0]]), lif_layer("lif1")], timesteps=2, input_shape=(1,))


def test_network_rejects_nonvector_final_lif():
    layers = [
        LayerSpec("conv1", LayerKind.CONV2D, {"weight": arr(np.ones((2, 1, 2, 2)))}),
        lif_layer("lif1"),
    ]
    with pytest.raises(DimensionError):
        Network(layers, timesteps=2, input_shape=(1, 4, 4))


def _zeros(kind, name, hyper=None, **shapes):
    """A layer whose parameters are zero tensors of the given shapes."""
    return LayerSpec(name, kind, {k: np.zeros(v, DTYPE) for k, v in shapes.items()}, hyper or {})


def _fc(name="fc1", **shapes):
    return _zeros(LayerKind.FULLY_CONNECTED, name, **{"weight": (3, 4), "bias": (3,), **shapes})


def _rfc(**shapes):
    shapes = {"weight": (3, 4), "feedback_weight": (3, 3), **shapes}
    return _zeros(LayerKind.RECURRENT, "rfc1", **shapes)


def _conv(hyper=None, **shapes):
    return _zeros(LayerKind.CONV2D, "conv1", hyper, **{"weight": (2, 1, 3, 3), **shapes})


def _lif(**shapes):
    return _zeros(LayerKind.LIF, "lif1", **{"beta": (1,), "threshold": (1,), **shapes})


def _pool(size):
    return LayerSpec("pool1", LayerKind.AVGPOOL2D, {}, {"pool": size})


# One row per construction check: (layers, timesteps, input shape, message).
NETWORK_ERRORS = {
    "no layers": (lambda: [], 2, (4,), "network has no layers"),
    "timesteps < 1": (lambda: [_fc(), _lif()], 0, (4,), "timesteps must be >= 1, got 0"),
    "bad input shape": (lambda: [_fc(), _lif()], 2, (4, 0), "bad input shape (4, 0)"),
    "recurrent not before lif": (
        lambda: [_rfc(), _fc("fc2", weight=(3, 3)), _lif()], 2, (4,),
        "layer 'rfc1': recurrent layer must feed a lif layer directly",
    ),
    "unknown parameter": (
        lambda: [_fc(gamma=(3,)), _lif()], 2, (4,),
        "layer 'fc1': fully_connected layer cannot hold 'gamma'",
    ),
    "missing parameter": (
        lambda: [_zeros(LayerKind.FULLY_CONNECTED, "fc1", bias=(3,)), _lif()], 2, (4,),
        "layer 'fc1': missing parameter 'weight'",
    ),
    "zero extent": (
        lambda: [_fc(weight=(0, 4)), _lif()], 2, (4,),
        "layer 'fc1': parameter 'weight' has a zero extent",
    ),
    "weight not 2-D": (
        lambda: [_fc(weight=(3, 4, 1)), _lif()], 2, (4,),
        "layer 'fc1': weight must be 2-D, got shape (3, 4, 1)",
    ),
    "bias shape": (lambda: [_fc(bias=(2,)), _lif()], 2, (4,), "layer 'fc1': bias shape (2,) != (3,)"),
    "feedback weight shape": (
        lambda: [_rfc(feedback_weight=(3, 2)), _lif()], 2, (4,),
        "layer 'rfc1': feedback weight shape (3, 2) != (3, 3)",
    ),
    "feedback bias shape": (
        lambda: [_rfc(feedback_bias=(2,)), _lif()], 2, (4,),
        "layer 'rfc1': feedback bias length mismatch",
    ),
    "conv weight shape": (
        lambda: [_conv(weight=(2, 1, 3, 2)), _lif()], 2, (1, 6, 6),
        "layer 'conv1': conv weight must be [oc,ic,k,k], got (2, 1, 3, 2)",
    ),
    "declared kernel": (
        lambda: [_conv({"kernel": 2}), _lif()], 2, (1, 6, 6),
        "layer 'conv1': declared kernel 2 != weight kernel 3",
    ),
    "conv input shape": (
        lambda: [_conv(), _lif()], 2, (2, 6, 6),
        "layer 'conv1': conv expects (1,H,W) input, upstream provides (2, 6, 6)",
    ),
    "conv bias shape": (
        lambda: [_conv(bias=(3,)), _lif()], 2, (1, 6, 6),
        "layer 'conv1': bias shape (3,) != (2,)",
    ),
    "pool size": (
        lambda: [_conv(), _lif(), _pool(0)], 2, (1, 6, 6),
        "layer 'pool1': pool size must be a positive integer",
    ),
    "pool input rank": (
        lambda: [_fc(), _lif(), _pool(2)], 2, (4,),
        "layer 'pool1': pooling expects a (c,H,W) input, got (3,)",
    ),
    "beta shape": (
        lambda: [_fc(), _lif(beta=(2,))], 2, (4,),
        "layer 'lif1': beta shape (2,) must be (1,) or the state shape (3,)",
    ),
    "threshold shape": (
        lambda: [_fc(), _lif(threshold=(2,))], 2, (4,),
        "layer 'lif1': threshold shape (2,) must be (1,) or the state shape (3,)",
    ),
}


@pytest.mark.parametrize(
    "layers, timesteps, input_shape, message", NETWORK_ERRORS.values(), ids=NETWORK_ERRORS
)
def test_network_construction_errors(layers, timesteps, input_shape, message):
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        Network(layers(), timesteps, input_shape)


def test_network_copy_is_independent():
    net = two_layer_net(seed=13)
    dup = net.copy()
    dup.layer("fc1").params["weight"][0, 0] = 99.0
    assert net.layer("fc1").params["weight"][0, 0] != 99.0


def test_network_copy_owns_params_and_zeroed_states():
    net = synth_model(5, "RFC(4->4)-LIF-FC(4->3)-LIF", 6)
    x = spike_train(2, 6, (4,), rate=0.7)
    network_forward(net, x)  # leave the template's state dirty
    assert any(st.potential.any() for st in net.states.values())
    bits = {(s.name, k): v.tobytes() for s in net.layers for k, v in s.params.items()}
    dup = net.copy()
    for spec, twin in zip(net.layers, dup.layers):
        assert dup.layer(spec.name) is twin and twin is not spec
        for key, tensor in spec.params.items():
            assert not np.shares_memory(tensor, twin.params[key])
    for name, st in net.states.items():
        for orig, fresh in ((st.potential, dup.states[name].potential),
                            (st.spike, dup.states[name].spike)):
            assert not np.shares_memory(orig, fresh)
            assert fresh.dtype == DTYPE and fresh.shape == orig.shape and not fresh.any()
    weight = dup.layer("rfc1").params["weight"]
    stuck = 1 - ((bits_of(weight[0, 0]) >> 30) & 1)
    inject_static(dup, FaultDescriptor(0, "rfc1", ParameterKind.WEIGHT, (0, 0), 30, stuck))
    assert weight.tobytes() != bits[("rfc1", "weight")]
    assert {(s.name, k): v.tobytes() for s in net.layers for k, v in s.params.items()} == bits
    fresh = Network([s.copy() for s in net.layers], net.timesteps, net.input_shape)
    assert network_forward(net.copy(), x).tobytes() == network_forward(fresh, x).tobytes()
