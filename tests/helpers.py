"""Builders, independent oracles and stand-ins shared across the test modules.

Everything here is deliberately primitive: scalar loops, integer masks,
fractions. The point is to check the library against code that shares none
of its implementation.
"""

import builtins
import io
from pathlib import Path

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


def _ref_linear(weight, bias, x):
    """[..., in] -> [..., out]: one elementwise binary32 step per input index."""
    acc = weight[:, 0] * x[..., 0, None]
    for j in range(1, weight.shape[1]):
        acc = acc + weight[:, j] * x[..., j, None]
    return acc if bias is None else acc + bias


def _ref_conv(weight, bias, x):
    """[..., ic, H, W] -> [..., oc, Ho, Wo]: one step per tap, ic-major, row, column."""
    oc, ic, k, _ = weight.shape
    ho, wo = x.shape[-2] - k + 1, x.shape[-1] - k + 1
    acc = None
    for c in range(ic):
        for r in range(k):
            for q in range(k):
                term = weight[:, c, r, q, None, None] * x[..., None, c, r : r + ho, q : q + wo]
                acc = term if acc is None else acc + term
    return acc if bias is None else acc + bias[:, None, None]


def _ref_pool(x, pool):
    acc = None
    for r in range(pool):
        for q in range(pool):
            acc = x[..., r::pool, q::pool] if acc is None else acc + x[..., r::pool, q::pool]
    return acc / F32(pool * pool)


def reference_forward(net, spikes, refresh=None, start=0, record=None, rows=None):
    """What network_forward documents, computed timestep-major: every layer
    from ``start`` runs once per timestep, each as elementwise binary32 steps
    in the documented order, on zero state. Calls ``refresh`` after each LIF
    write (potential, then spikes), records as network_forward does, and
    returns the scores [..., classes]. With ``rows`` (a core.Rows), batch
    row p runs on ``spikes[source[p]]`` under fault f = ``fault[p]``: with
    fault f's cone written in, the cut layer's touched row or channel
    recomputed, one row at a time, from fault f's own parameters, and fault
    f's beta and threshold from rows.lif."""
    layers = net.layers[start:]
    in_shape = net.input_shape if start == 0 else net.shapes[net.layers[start - 1].name]
    if rows is not None:
        spikes = spikes[rows.source]
    lead = spikes.ndim - 1 - len(in_shape)
    batch = spikes.shape[:lead]
    potential = {n: np.zeros(batch + net.shapes[n], F32) for n in net.states}
    spike = {n: np.zeros(batch + net.shapes[n], F32) for n in net.states}
    scores = np.zeros(batch + (net.num_classes,), F32)
    cone = cut = lif = None
    if rows is not None:  # each row's own values, taken from its fault's
        at = rows.fault
        if rows.cone is not None:
            cone = (tuple(i[at] for i in rows.cone[0]), rows.cone[1])
        if rows.cut is not None:
            touched, spec = rows.cut
            cut = (touched[at], {key: v[at] for key, v in spec.params.items()}, spec.name)
        if rows.lif is not None:
            lif = LayerSpec(rows.lif.name, rows.lif.kind,
                            {key: v[at] for key, v in rows.lif.params.items()})
    with np.errstate(all="ignore"):
        for t in range(net.timesteps):
            x = np.take(spikes, t, axis=lead).astype(F32)
            if cone is not None:
                index, values = cone
                for r, (n, f) in enumerate(zip(rows.source, rows.fault)):
                    x[(r, *(i[r] for i in index))] = values[n, t, f]
            for i, spec in enumerate(layers):
                p = spec.params
                own = cut[1] if cut is not None and cut[2] == spec.name else None
                if spec.kind is LayerKind.FULLY_CONNECTED:
                    flat = x.reshape(*batch, -1)
                    x = _ref_linear(p["weight"], p.get("bias"), flat)
                    for r in _rows_of(own, x):
                        row = _ref_linear(own["weight"][r : r + 1], _row(own, "bias", r), flat[r])
                        x[r, cut[0][r]] = row[0]
                elif spec.kind is LayerKind.RECURRENT:
                    flat, prev = x.reshape(*batch, -1), spike[layers[i + 1].name]  # its LIF
                    fwd = _ref_linear(p["weight"], p.get("bias"), flat)
                    x = fwd + _ref_linear(p["feedback_weight"], p.get("feedback_bias"), prev)
                    for r in _rows_of(own, x):
                        fwd = _ref_linear(own["weight"][r : r + 1], _row(own, "bias", r), flat[r])
                        rec = _ref_linear(own["feedback_weight"][r : r + 1],
                                          _row(own, "feedback_bias", r), prev[r])
                        x[r, cut[0][r]] = (fwd + rec)[0]
                elif spec.kind is LayerKind.CONV2D:
                    inp = x
                    x = _ref_conv(p["weight"], p.get("bias"), inp)
                    for r in _rows_of(own, x):
                        x[r, cut[0][r]] = _ref_conv(own["weight"][r : r + 1], _row(own, "bias", r),
                                                    inp[r])[0]
                elif spec.kind is LayerKind.AVGPOOL2D:
                    x = _ref_pool(x, spec.hyper["pool"])
                else:
                    if lif is not None and lif.name == spec.name:
                        p = lif.params
                    v = potential[spec.name]
                    fired = v > p["threshold"]
                    v = np.where(fired, v - p["threshold"], p["beta"] * v) + x
                    s = fired.astype(F32)
                    if refresh is not None:
                        refresh(spec.name, "potential", v)
                        refresh(spec.name, "spike", s)
                    potential[spec.name], spike[spec.name], x = v, s, s
                if record is not None and spec.name in record:
                    record[spec.name][(slice(None),) * lead + (t,)] = x
            scores = scores + x
    return scores


def _rows_of(own, x):
    """The batch rows whose cut to recompute: all of x's, or none without a cut."""
    return range(len(x)) if own is not None else ()


def _row(params, key, r):
    """Row r of an optional per-row parameter, as a length-1 array, or None."""
    return None if key not in params else params[key][r : r + 1]


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


class Killed(Exception):
    """Stands for a process killed mid-write."""


class TornFile:
    """Passes writes through until `budget` characters (or bytes), then dies
    mid-write."""

    def __init__(self, f, budget):
        self._f, self._budget = f, budget

    def write(self, text):
        if len(text) > self._budget:
            self._f.write(text[: self._budget])
            self._f.flush()
            raise Killed()
        self._budget -= len(text)
        return self._f.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def tear_writes(monkeypatch, name: str, budget: int) -> None:
    """Every open() for writing of a file whose name starts with ``name``
    dies after ``budget`` characters (or bytes), whichever open() the writer
    goes through."""
    real_open = io.open

    def torn_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        if Path(file).name.startswith(name) and "w" in mode:
            return TornFile(f, budget)
        return f

    monkeypatch.setattr(builtins, "open", torn_open)
    monkeypatch.setattr(io, "open", torn_open)
