"""Independent reference inference for checking campaign outputs.

It follows the evaluation order documented in ``snnfault.core`` with explicit
loops instead of the engine's ``np.cumsum`` chains: dot products accumulate
input index ascending, convolution windows in-channel, then kernel row, then
kernel column, pooling windows row-major then divide by the window size, and
each chain starts at its first term. Every step is an elementwise binary32
operation with the engine's operand order, so F faults x K inputs run as one
[F, K, ...] batch and still match the engine bit for bit. Faults are applied
with plain integer masks: static ones once to that fault's copy of the
parameter, dynamic ones after every LIF state write (potential, then spike),
as the refresh hook does.
"""

from __future__ import annotations

import numpy as np

from snnfault.core import LayerKind

F32 = np.float32


def _stick(tensor: np.ndarray, index, bit: int, stuck: int) -> None:
    u = tensor.view(np.uint32)
    mask = np.uint32(1 << bit)
    u[index] = (u[index] | mask) if stuck else (u[index] & ~mask)


def _linear(w: np.ndarray, b, x: np.ndarray) -> np.ndarray:
    # w: [F|1, 1, out, in], x: [F|1, K, in] -> [F, K, out]
    acc = w[..., :, 0] * x[..., 0, None]
    for j in range(1, w.shape[-1]):
        acc = acc + w[..., :, j] * x[..., j, None]
    return acc if b is None else acc + b


def _conv(w: np.ndarray, b, x: np.ndarray) -> np.ndarray:
    # w: [F|1, 1, oc, ic, k, k], x: [F|1, K, ic, H, W] -> [F, K, oc, H-k+1, W-k+1]
    ic, k = w.shape[3], w.shape[4]
    ho, wo = x.shape[3] - k + 1, x.shape[4] - k + 1
    acc = None
    for c in range(ic):
        for r in range(k):
            for q in range(k):
                term = w[:, :, :, c, r, q, None, None] * x[:, :, None, c, r : r + ho, q : q + wo]
                acc = term if acc is None else acc + term
    return acc if b is None else acc + b[..., None, None]


def _pool(x: np.ndarray, p: int) -> np.ndarray:
    acc = None
    for r in range(p):
        for q in range(p):
            term = x[..., r::p, q::p]
            acc = term if acc is None else acc + term
    return acc / F32(p * p)


def reference_scores(net, spikes: np.ndarray, faults: list) -> np.ndarray:
    """Score vectors [F, K, classes] for K spike trains [K, T, *shape] under
    each of F faults; a fault of None is the golden run."""
    n_faults, k = len(faults), spikes.shape[0]
    params = {s.name: {p: t[None, None] for p, t in s.params.items()} for s in net.layers}
    dynamic: dict[str, list] = {}
    stacked: set[tuple[str, str]] = set()
    for f, d in enumerate(faults):
        if d is None:
            continue
        if d.parameter.is_dynamic:
            dynamic.setdefault(d.layer, []).append((f, d))
            continue
        key = (d.layer, d.parameter.value)
        if key not in stacked:  # one private copy per fault; np.repeat copies
            params[d.layer][key[1]] = np.repeat(params[d.layer][key[1]], n_faults, axis=0)
            stacked.add(key)
        _stick(params[d.layer][key[1]], (f, 0, *d.coords), d.bit, d.stuck)

    shape = (n_faults, k)
    potential = {n: np.zeros(shape + s.potential.shape, F32) for n, s in net.states.items()}
    spike = {n: np.zeros(shape + s.spike.shape, F32) for n, s in net.states.items()}
    seq = spikes.astype(F32)[None]
    scores = np.zeros(shape + (net.num_classes,), F32)
    with np.errstate(all="ignore"):
        for n in range(net.timesteps):
            x = seq[:, :, n]
            for spec in net.layers:
                p = params[spec.name]
                if spec.kind is LayerKind.FULLY_CONNECTED:
                    x = _linear(p["weight"], p.get("bias"), x.reshape(*x.shape[:2], -1))
                elif spec.kind is LayerKind.RECURRENT:
                    prev = spike[net.paired_lif[spec.name]]
                    fwd = _linear(p["weight"], p.get("bias"), x.reshape(*x.shape[:2], -1))
                    x = fwd + _linear(p["feedback_weight"], p.get("feedback_bias"), prev)
                elif spec.kind is LayerKind.CONV2D:
                    x = _conv(p["weight"], p.get("bias"), x)
                elif spec.kind is LayerKind.AVGPOOL2D:
                    x = _pool(x, spec.hyper["pool"])
                else:
                    v = potential[spec.name]
                    fired = v > p["threshold"]
                    new_v = np.where(fired, v - p["threshold"], p["beta"] * v) + x
                    new_s = fired.astype(F32)
                    for f, d in dynamic.get(spec.name, ()):
                        target = new_v if d.parameter.value == "potential" else new_s
                        index = (f, slice(None), *d.coords)
                        if d.mode.value == "value":
                            target[index] = F32(d.stuck)
                        else:
                            _stick(target, index, d.bit, d.stuck)
                    potential[spec.name], spike[spec.name] = new_v, new_s
                    x = new_s
            scores = scores + x
    return scores
