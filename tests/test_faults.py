"""Bit-stuck mechanics, static injection and dynamic refresh hooks.

The reference for every bit manipulation is the integer mask oracle:
(pattern | (1 << bit)) or (pattern & ~(1 << bit)) on the raw 32-bit view.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bits_of, f32_from_bits, single_neuron_net, spike_train, two_layer_net
from snnfault.core import DTYPE, network_forward, reset_state
from snnfault.dataio import synth_model
from snnfault.errors import AddressError, FaultKindError
from snnfault.faultlist import enumerate_universe
from snnfault.faults import (
    FaultDescriptor,
    FaultMode,
    ParameterKind,
    apply_bit_stuck,
    inject_static,
    make_refresh_hook,
    target_tensor,
)

patterns = st.integers(0, 2**32 - 1)
bits = st.integers(0, 31)
polarity = st.integers(0, 1)


def mask_oracle(pattern: int, bit: int, stuck: int) -> int:
    return (pattern | (1 << bit)) if stuck else (pattern & ~(1 << bit))


# -- apply_bit_stuck --------------------------------------------------------


def test_exponent_set_makes_infinity():
    out = apply_bit_stuck(np.float32(1.0), bit=30, stuck=1)
    assert bits_of(out) == 0x7F800000
    assert np.isinf(out) and out > 0


def test_exponent_clear_makes_tiny():
    out = apply_bit_stuck(np.float32(1.0), bit=29, stuck=0)
    assert bits_of(out) == 0x1F800000
    assert out == np.float32(2.0**-64)


def test_matching_bit_is_identity():
    # 1.0 already has bit 22 clear and bit 29 set
    assert bits_of(apply_bit_stuck(np.float32(1.0), 22, 0)) == 0x3F800000
    assert bits_of(apply_bit_stuck(np.float32(1.0), 29, 1)) == 0x3F800000


@given(patterns, bits, polarity)
def test_matches_integer_mask_oracle(pattern, bit, stuck):
    got = apply_bit_stuck(f32_from_bits(pattern), bit, stuck)
    assert bits_of(got) == mask_oracle(pattern, bit, stuck)


@given(patterns, bits, polarity)
def test_idempotent(pattern, bit, stuck):
    once = apply_bit_stuck(f32_from_bits(pattern), bit, stuck)
    twice = apply_bit_stuck(once, bit, stuck)
    assert bits_of(once) == bits_of(twice)


def test_signaling_nan_payload_survives():
    # 0x7F800001 is a signaling NaN; any float64 round trip would quiet it
    # to 0x7FC00001 and corrupt the campaign's bit-exactness story.
    snan = f32_from_bits(0x7F800001)
    out = apply_bit_stuck(snan, bit=1, stuck=1)
    assert bits_of(out) == 0x7F800003


def test_bit_out_of_range_rejected():
    with pytest.raises(AddressError):
        FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0, 0), bit=32, stuck=1)
    with pytest.raises(AddressError):
        FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0, 0), bit=-1, stuck=1)
    with pytest.raises(AddressError, match=r"^bit 32 outside 0\.\.31$"):
        apply_bit_stuck(np.float32(1.0), 32, 1)


def test_descriptor_validates_stuck_and_coords():
    with pytest.raises(AddressError):
        FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0, 0), bit=3, stuck=2)
    with pytest.raises(AddressError):
        FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (), bit=3, stuck=1)
    with pytest.raises(AddressError):
        FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (-1, 0), bit=3, stuck=1)


def test_value_stuck_reserved_for_spikes():
    with pytest.raises(FaultKindError):
        FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0, 0), 0, 1, FaultMode.VALUE_STUCK)
    d = FaultDescriptor(0, "lif1", ParameterKind.SPIKE, (0,), 0, 1, FaultMode.VALUE_STUCK)
    assert d.mode is FaultMode.VALUE_STUCK


def test_descriptor_is_an_immutable_checked_record():
    """Fields in order, positional or keyword construction, equal values
    hash alike, no attribute can be set, and a pickle or ``_replace`` copy
    passes through the same checks."""
    d = FaultDescriptor(4, "fc1", ParameterKind.WEIGHT, (1, 2), 7, 1)
    assert d == FaultDescriptor(fault_id=4, layer="fc1", parameter=ParameterKind.WEIGHT,
                                coords=(1, 2), bit=7, stuck=1, mode=FaultMode.BIT_STUCK)
    assert d._fields == ("fault_id", "layer", "parameter", "coords", "bit", "stuck", "mode")
    assert hash(d) == hash(FaultDescriptor(4, "fc1", ParameterKind.WEIGHT, (1, 2), 7, 1))
    assert len({d, d._replace(stuck=0)}) == 2
    with pytest.raises(AttributeError):
        d.bit = 3
    assert pickle.loads(pickle.dumps(d)) == d
    with pytest.raises(AddressError, match=r"^fault 4: bit 32 outside 0\.\.31$"):
        d._replace(bit=32)
    with pytest.raises(FaultKindError, match="value-stuck only applies to spikes"):
        d._replace(mode=FaultMode.VALUE_STUCK)


# -- addressing -------------------------------------------------------------


def test_target_tensor_resolves_parameters_and_state():
    net = two_layer_net()
    d = FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (1, 2), 5, 1)
    assert target_tensor(net, d) is net.layer("fc1").params["weight"]
    d = FaultDescriptor(0, "lif1", ParameterKind.POTENTIAL, (3,), 5, 1)
    assert target_tensor(net, d) is net.states["lif1"].potential


def test_target_tensor_address_errors():
    net = two_layer_net()
    cases = [
        FaultDescriptor(0, "nope", ParameterKind.WEIGHT, (0, 0), 0, 1),
        FaultDescriptor(0, "fc1", ParameterKind.FEEDBACK_WEIGHT, (0, 0), 0, 1),
        FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0, 99), 0, 1),
        FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0,), 0, 1),
        FaultDescriptor(0, "fc1", ParameterKind.POTENTIAL, (0,), 0, 1),
    ]
    for d in cases:
        with pytest.raises(AddressError):
            target_tensor(net, d)


def test_dynamic_addressing_ignores_batched_live_state():
    """After a [K, T, ...] forward the live LIF states carry a batch axis; the
    fault universe and the dynamic coordinate checks still follow net.shapes."""
    net = synth_model(3, "CONV(1x4x4->2,k3)-LIF-POOL(2)-FC(2->3)-LIF", 4)
    points = {ParameterKind.POTENTIAL, ParameterKind.SPIKE}
    before = enumerate_universe(net, points).entries
    network_forward(net, np.ones((3, 4, 1, 4, 4), DTYPE))
    assert net.states["lif1"].potential.shape == (3, 2, 2, 2)
    assert enumerate_universe(net, points).entries == before
    target_tensor(net, FaultDescriptor(0, "lif1", ParameterKind.SPIKE, (1, 1, 1), 0, 1))
    for coords in [(2, 1, 1, 1), (0, 2, 0), (1, 1)]:
        with pytest.raises(AddressError):
            target_tensor(net, FaultDescriptor(0, "lif1", ParameterKind.POTENTIAL, coords, 0, 1))


# -- static injection --------------------------------------------------------


def test_inject_static_single_element_discipline():
    net = two_layer_net(seed=21)
    golden = net.copy()
    d = FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (2, 3), 30, 1)
    inject_static(net, d)

    diffs = 0
    for name in ("fc1", "fc2"):
        for pname, tensor in net.layer(name).params.items():
            ref = golden.layer(name).params[pname]
            diffs += int(np.sum(tensor.view(np.uint32) != ref.view(np.uint32)))
    assert diffs == 1
    got = net.layer("fc1").params["weight"][2, 3]
    want = apply_bit_stuck(golden.layer("fc1").params["weight"][2, 3], 30, 1)
    assert bits_of(got) == bits_of(want)


def test_inject_static_masked_when_bit_matches():
    net = two_layer_net(seed=22)
    golden = net.copy()
    w = net.layer("fc1").params["weight"]
    current = (bits_of(w[0, 0]) >> 7) & 1
    inject_static(net, FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0, 0), 7, current))
    assert w.tobytes() == golden.layer("fc1").params["weight"].tobytes()


def test_inject_static_scalar_beta_addressable():
    net = two_layer_net(seed=23)
    before = bits_of(net.layer("lif1").params["beta"][0])
    d = FaultDescriptor(0, "lif1", ParameterKind.BETA, (0,), 30, 1)
    inject_static(net, d)
    assert bits_of(net.layer("lif1").params["beta"][0]) == mask_oracle(before, 30, 1)


def test_inject_static_rejects_dynamic_kinds():
    net = two_layer_net()
    for kind in (ParameterKind.POTENTIAL, ParameterKind.SPIKE):
        with pytest.raises(FaultKindError):
            inject_static(net, FaultDescriptor(0, "lif1", kind, (0,), 0, 1))


def test_faulty_then_fresh_copy_gives_original_golden():
    template = two_layer_net(seed=25)
    x = spike_train(31, template.timesteps, (4,), rate=0.7)

    def run(net):
        reset_state(net)
        return network_forward(net, x).tobytes()

    before = run(template.copy())
    work = template.copy()
    inject_static(work, FaultDescriptor(0, "fc2", ParameterKind.WEIGHT, (0, 0), 30, 1))
    run(work)
    assert run(template.copy()) == before


# -- dynamic refresh ----------------------------------------------------------


def _refresh_one(state_value, d):
    """Apply a dynamic descriptor's hook to a one-element state tensor."""
    tensor = np.array([state_value], np.float32)
    make_refresh_hook(d)(d.layer, d.parameter.value, tensor)
    return tensor[0]


def test_refresh_hook_value_stuck_levels():
    dead = FaultDescriptor(0, "lif1", ParameterKind.SPIKE, (0,), 0, 0, FaultMode.VALUE_STUCK)
    sat = FaultDescriptor(0, "lif1", ParameterKind.SPIKE, (0,), 0, 1, FaultMode.VALUE_STUCK)
    assert _refresh_one(np.float32(1.0), dead) == np.float32(0.0)
    assert _refresh_one(np.float32(0.0), sat) == np.float32(1.0)


def test_refresh_hook_sign_bit_negates():
    d = FaultDescriptor(0, "lif1", ParameterKind.POTENTIAL, (0,), 31, 1)
    out = _refresh_one(np.float32(0.7), d)
    assert bits_of(out) == bits_of(np.float32(-0.7))


def test_refresh_hook_rejects_static_kinds():
    with pytest.raises(FaultKindError):
        make_refresh_hook(FaultDescriptor(0, "fc1", ParameterKind.WEIGHT, (0, 0), 0, 1))


def test_dynamic_persistence_all_timesteps():
    """The stuck bit must read back stuck at every refresh point, all T steps."""
    net = two_layer_net(seed=26, timesteps=10)
    d = FaultDescriptor(0, "lif1", ParameterKind.POTENTIAL, (2,), 31, 1)
    fault_hook = make_refresh_hook(d)
    observed = []

    def hook(layer, kind, tensor):
        fault_hook(layer, kind, tensor)
        if layer == "lif1" and kind == "potential":
            observed.append(bits_of(tensor[2]) >> 31)

    reset_state(net)
    network_forward(net, spike_train(5, 10, (4,), rate=0.8), refresh=hook)
    assert observed == [1] * 10


def test_dead_and_saturated_neuron_counts():
    net = two_layer_net(seed=27, timesteps=9)
    x = spike_train(6, 9, (4,), rate=0.9)

    def spike_count(descriptor):
        counts = np.zeros(5)
        hook = make_refresh_hook(descriptor) if descriptor else None

        def composed(layer, kind, tensor):
            if hook:
                hook(layer, kind, tensor)
            if layer == "lif1" and kind == "spike":
                counts[:] += tensor

        reset_state(net)
        network_forward(net, x, refresh=composed)
        return counts

    baseline = spike_count(None)
    target = int(baseline.argmax())
    assert baseline[target] > 0  # must kill a neuron that actually fires

    coords = (target,)
    dead = FaultDescriptor(0, "lif1", ParameterKind.SPIKE, coords, 0, 0, FaultMode.VALUE_STUCK)
    sat = FaultDescriptor(0, "lif1", ParameterKind.SPIKE, coords, 0, 1, FaultMode.VALUE_STUCK)
    assert spike_count(dead)[target] == 0
    assert spike_count(sat)[target] == 9


def test_spike_bit_mode_can_produce_nonbinary_spikes():
    # BitStuck on the binary32 spike encoding deliberately may leave the
    # {0,1} alphabet; the score then reflects the corrupted encoding.
    net = single_neuron_net(weight=1.0, v_th=0.5, beta=0.0, timesteps=4)
    d = FaultDescriptor(0, "lif1", ParameterKind.SPIKE, (0,), 30, 1)
    reset_state(net)
    scores = network_forward(net, np.ones((4, 1), np.float32), refresh=make_refresh_hook(d))
    assert np.isinf(scores[0])
