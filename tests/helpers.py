"""Builders and independent oracles shared across the test modules.

Everything here is deliberately primitive: scalar loops, integer masks,
fractions. The point is to check the library against code that shares none
of its implementation.
"""

import numpy as np

from snnfault import DTYPE, LayerKind, LayerSpec, Network
from snnfault.core import network_forward, reset_state
from snnfault.faults import inject_static, make_refresh_hook

F32 = np.float32


def f32_from_bits(pattern: int) -> np.float32:
    # View, not convert: a float64 hop would quiet signaling NaNs.
    return np.array(pattern & 0xFFFFFFFF, dtype="<u4").view("<f4")[()]


def bits_of(value) -> int:
    return int(np.array(value, dtype="<f4").view("<u4")[()])


def seq_chain_f32(terms) -> np.float32:
    """Strict ascending chain: acc starts at the FIRST term, no zero seed.

    Seeding with +0.0 would flip a leading -0.0 term to +0.0 and diverge
    from the contract chain on that one bit.
    """
    it = iter(terms)
    acc = F32(next(it))
    for t in it:
        acc = F32(acc + F32(t))
    return acc


def seq_dot_f32(weights_row, inputs, bias=None) -> np.float32:
    """Ascending-index scalar float32 accumulation, the documented sum order."""
    acc = seq_chain_f32(F32(F32(w) * F32(x)) for w, x in zip(weights_row, inputs))
    if bias is not None:
        acc = F32(acc + F32(bias))
    return acc


def seq_conv_window_f32(weight_oc, patch) -> np.float32:
    """One output pixel: ic-major, then kernel row, then column, scalar f32."""
    ic, k, _ = weight_oc.shape
    return seq_chain_f32(
        F32(F32(weight_oc[c, r, q]) * F32(patch[c, r, q]))
        for c in range(ic)
        for r in range(k)
        for q in range(k)
    )


# Spellings of an integer field that no writer emits. Each maps the field's
# digits to a string int() reads as the same value (all but the last), so a
# reader that converts with int() accepts them; the CSV readers must not.
MALFORMED_INTEGERS = {
    "leading space": lambda v: " " + v,
    "plus sign": lambda v: "+" + v,
    "underscore": lambda v: "0_" + v,
    "arabic-indic digits": lambda v: v.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    "5000 digits": lambda v: "1" * 5000,
}

# Spellings of a float field that no writer emits and float() reads anyway.
MALFORMED_FLOATS = {
    "underscore": "1_0",
    "arabic-indic digits": "٠.5",
    "leading space": " 0.5",
}


def fc_layer(name, weight, bias=None):
    params = {"weight": np.asarray(weight, DTYPE)}
    if bias is not None:
        params["bias"] = np.asarray(bias, DTYPE)
    return LayerSpec(name, LayerKind.FULLY_CONNECTED, params)


def lif_layer(name, beta=0.9, threshold=1.0):
    return LayerSpec(
        name,
        LayerKind.LIF,
        {"beta": np.asarray([beta], DTYPE), "threshold": np.asarray([threshold], DTYPE)},
    )


def single_neuron_net(weight=1.0, v_th=0.5, beta=0.0, timesteps=4) -> Network:
    return Network(
        [fc_layer("fc1", [[weight]]), lif_layer("lif1", beta, v_th)],
        timesteps=timesteps,
        input_shape=(1,),
    )


def two_layer_net(seed=0, n_in=4, n_hidden=5, n_out=3, timesteps=8) -> Network:
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-1, 1, size=(n_hidden, n_in)).astype(DTYPE)
    b1 = rng.uniform(-0.2, 0.2, size=n_hidden).astype(DTYPE)
    w2 = rng.uniform(-1, 1, size=(n_out, n_hidden)).astype(DTYPE)
    return Network(
        [
            fc_layer("fc1", w1, b1),
            lif_layer("lif1", 0.9, 0.6),
            fc_layer("fc2", w2),
            lif_layer("lif2", 0.9, 0.6),
        ],
        timesteps=timesteps,
        input_shape=(n_in,),
    )


def spike_train(seed, timesteps, shape, rate=0.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((timesteps, *shape)) < rate).astype(DTYPE)


def injected_forward(net, d, spikes) -> np.ndarray:
    """Scores [K, classes] of a full forward, every layer from the first, of
    a copy of ``net`` with fault ``d`` injected: what the campaign's screen
    and replay must reproduce bit for bit."""
    run = net.copy()
    hook = None
    if d.parameter.is_dynamic:
        hook = make_refresh_hook(d)
    else:
        inject_static(run, d)
    reset_state(run)
    return network_forward(run, spikes, hook)
