"""LIF spiking-network execution engine.

Every tensor is a numpy float32 array and every arithmetic step is an explicit
binary32 operation (separate multiply and add, never a fused one), so a given
network and input always produce bit-identical scores. Reductions follow fixed,
documented orders:

* dot products sum over the input index ascending;
* convolution windows sum in-channel-major, then kernel row, then kernel
  column, ascending;
* pooling windows sum row-major within the window, then divide by the exact
  window size;
* output scores accumulate output-layer spikes in timestep order.

Ascending-order chains are realized with ``np.cumsum`` (a strict sequential
left-to-right binary32 chain; the test suite pins this against a scalar loop).

Membrane dynamics, per neuron and per timestep, with ``V_prev`` the potential
stored from the previous step:

* ``V_prev >  threshold``: potential becomes ``(V_prev - threshold) + current``
  and the neuron emits a spike (1.0);
* ``V_prev <= threshold``: potential becomes ``beta * V_prev + current`` and no
  spike is emitted (0.0).

Both branches condition on the *previous* potential, so a spike is emitted on
the step after the crossing and reset-by-subtraction happens on that same
step. Ties take the sub-threshold branch. NaN potentials compare false and
therefore decay; non-finite values propagate per IEEE-754 and never trap.

The kernels trust their operands: ``Network`` validates every shape once, at
construction, and ``network_forward`` runs all of them under a single
``np.errstate(all="ignore")``, so faults that drive arithmetic to Inf/NaN
propagate silently. Callers outside ``network_forward`` own both duties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AddressError, DimensionError

DTYPE = np.dtype(np.float32)


# Hook protocol: called as hook(layer_name, state_kind, tensor) after every
# write of a LIF state tensor ("potential" or "spike"), before the value feeds
# any downstream read. The hook may mutate the tensor in place.
StateHook = Callable[[str, str, np.ndarray], None]


class LayerKind(str, Enum):
    FULLY_CONNECTED = "fully_connected"
    RECURRENT = "recurrent_fully_connected"
    CONV2D = "conv2d"
    AVGPOOL2D = "avgpool2d"
    LIF = "lif"


# Parameter tensors each layer kind may carry; order here is the canonical
# enumeration order used by fault-space indexing.
PARAMETERIZED = {
    LayerKind.FULLY_CONNECTED: ("weight", "bias"),
    LayerKind.RECURRENT: ("weight", "bias", "feedback_weight", "feedback_bias"),
    LayerKind.CONV2D: ("weight", "bias"),
    LayerKind.AVGPOOL2D: (),
    LayerKind.LIF: ("beta", "threshold"),
}
OPTIONAL_PARAMS = frozenset({"bias", "feedback_bias"})


@dataclass
class LayerSpec:
    """One layer: a name, a kind, parameter tensors, and hyperparameters.

    hyper holds "kernel" for conv layers and "pool" for pooling layers.
    """

    name: str
    kind: LayerKind
    params: dict[str, np.ndarray] = field(default_factory=dict)
    hyper: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "LayerSpec":
        return LayerSpec(
            name=self.name,
            kind=self.kind,
            params={k: v.copy() for k, v in self.params.items()},
            hyper=dict(self.hyper),
        )


@dataclass
class LifState:
    """Mutable per-layer neuron state."""

    potential: np.ndarray
    spike: np.ndarray


def _dim_error(layer: str, msg: str) -> DimensionError:
    return DimensionError(f"layer '{layer}': {msg}")


class Network:
    """An ordered feed-forward stack of layers plus per-LIF state.

    Construction validates the whole chain: unique names, parameter presence
    and shapes per kind, adjacent shapes composing, every LIF directly after a
    weighted layer (its current source), every recurrent layer directly before
    its LIF, and a 1-D final LIF whose length is the class count. Parameter
    tensors are coerced to owned contiguous float32 so in-place bit surgery is
    well-defined.

    Instances are single-threaded (mutable state); copies are independent.
    """

    def __init__(self, layers: list[LayerSpec], timesteps: int, input_shape: tuple[int, ...]):
        if not layers:
            raise DimensionError("network has no layers")
        if int(timesteps) < 1:
            raise DimensionError(f"timesteps must be >= 1, got {timesteps}")
        self.layers = list(layers)
        self.timesteps = int(timesteps)
        self.input_shape = tuple(int(d) for d in input_shape)
        if not self.input_shape or any(d < 1 for d in self.input_shape):
            raise DimensionError(f"bad input shape {self.input_shape}")

        self.by_name: dict[str, LayerSpec] = {}
        self.shapes: dict[str, tuple[int, ...]] = {}
        self.states: dict[str, LifState] = {}
        self.paired_lif: dict[str, str] = {}  # recurrent layer -> its LIF

        for spec in self.layers:
            if spec.name in self.by_name:
                raise DimensionError(f"duplicate layer name '{spec.name}'")
            self.by_name[spec.name] = spec

        shape = self.input_shape
        prev_kind: LayerKind | None = None
        prev_name = ""
        for spec in self.layers:
            self._coerce_params(spec)
            shape = self._propagate(spec, shape, prev_kind, prev_name)
            if prev_kind is LayerKind.RECURRENT and spec.kind is not LayerKind.LIF:
                raise _dim_error(prev_name, "recurrent layer must feed a lif layer directly")
            self.shapes[spec.name] = shape
            prev_kind, prev_name = spec.kind, spec.name
        last = self.layers[-1]
        if last.kind is not LayerKind.LIF:
            raise _dim_error(last.name, "last layer must be lif (it defines the score vector)")
        if len(self.shapes[last.name]) != 1:
            raise _dim_error(last.name, "output lif state must be 1-D (one score per class)")

    # -- construction helpers -------------------------------------------------

    def _coerce_params(self, spec: LayerSpec) -> None:
        allowed = PARAMETERIZED[spec.kind]
        for key in spec.params:
            if key not in allowed:
                raise _dim_error(spec.name, f"{spec.kind.value} layer cannot hold '{key}'")
        for key in allowed:
            if key in OPTIONAL_PARAMS and key not in spec.params:
                continue
            if key not in spec.params:
                raise _dim_error(spec.name, f"missing parameter '{key}'")
            arr = np.ascontiguousarray(spec.params[key], dtype=DTYPE)
            if arr.size == 0 or any(d < 1 for d in arr.shape):
                raise _dim_error(spec.name, f"parameter '{key}' has a zero extent")
            spec.params[key] = arr

    def _propagate(
        self,
        spec: LayerSpec,
        shape: tuple[int, ...],
        prev_kind: LayerKind | None,
        prev_name: str,
    ) -> tuple[int, ...]:
        p = spec.params
        if spec.kind in (LayerKind.FULLY_CONNECTED, LayerKind.RECURRENT):
            w = p["weight"]
            if w.ndim != 2:
                raise _dim_error(spec.name, f"weight must be 2-D, got shape {w.shape}")
            out_n, in_n = w.shape
            flat = int(np.prod(shape))
            if in_n != flat:
                raise _dim_error(spec.name, f"weight expects {in_n} inputs, upstream provides {flat}")
            if "bias" in p and p["bias"].shape != (out_n,):
                raise _dim_error(spec.name, f"bias shape {p['bias'].shape} != ({out_n},)")
            if spec.kind is LayerKind.RECURRENT:
                fw = p["feedback_weight"]
                if fw.shape != (out_n, out_n):
                    raise _dim_error(spec.name, f"feedback weight shape {fw.shape} != ({out_n}, {out_n})")
                if "feedback_bias" in p and p["feedback_bias"].shape != (out_n,):
                    raise _dim_error(spec.name, "feedback bias length mismatch")
            return (out_n,)

        if spec.kind is LayerKind.CONV2D:
            w = p["weight"]
            if w.ndim != 4 or w.shape[2] != w.shape[3]:
                raise _dim_error(spec.name, f"conv weight must be [oc,ic,k,k], got {w.shape}")
            oc, ic, k, _ = w.shape
            declared = int(spec.hyper.get("kernel", k))
            if declared != k:
                raise _dim_error(spec.name, f"declared kernel {declared} != weight kernel {k}")
            spec.hyper["kernel"] = k
            if len(shape) != 3 or shape[0] != ic:
                raise _dim_error(spec.name, f"conv expects ({ic},H,W) input, upstream provides {shape}")
            h, wd = shape[1], shape[2]
            if h < k or wd < k:
                raise _dim_error(spec.name, f"kernel {k} larger than input {h}x{wd}")
            if "bias" in p and p["bias"].shape != (oc,):
                raise _dim_error(spec.name, f"bias shape {p['bias'].shape} != ({oc},)")
            return (oc, h - k + 1, wd - k + 1)

        if spec.kind is LayerKind.AVGPOOL2D:
            pool = int(spec.hyper.get("pool", 0))
            if pool < 1:
                raise _dim_error(spec.name, "pool size must be a positive integer")
            spec.hyper["pool"] = pool
            if len(shape) != 3:
                raise _dim_error(spec.name, f"pooling expects a (c,H,W) input, got {shape}")
            c, h, wd = shape
            if h % pool or wd % pool:
                raise _dim_error(spec.name, f"input {h}x{wd} not divisible by pool {pool}")
            return (c, h // pool, wd // pool)

        # LIF: state shape mirrors the incoming current.
        if prev_kind not in (LayerKind.FULLY_CONNECTED, LayerKind.RECURRENT, LayerKind.CONV2D):
            raise _dim_error(spec.name, "lif layer must directly follow a weighted layer")
        for key in ("beta", "threshold"):
            t = p[key]
            if t.shape != (1,) and t.shape != shape:
                raise _dim_error(
                    spec.name, f"{key} shape {t.shape} must be (1,) or the state shape {shape}"
                )
        self.states[spec.name] = LifState(
            potential=np.zeros(shape, DTYPE), spike=np.zeros(shape, DTYPE)
        )
        if prev_kind is LayerKind.RECURRENT:
            self.paired_lif[prev_name] = spec.name
        return shape

    # -- public surface -------------------------------------------------------

    def layer(self, name: str) -> LayerSpec:
        try:
            return self.by_name[name]
        except KeyError:
            raise AddressError(f"no layer named '{name}'") from None

    @property
    def num_classes(self) -> int:
        return self.shapes[self.layers[-1].name][0]

    def copy(self) -> "Network":
        """Independent copy with zeroed state, not re-validated: parameter tensors
        are cloned, the read-only shape tables shared."""
        dup = Network.__new__(Network)
        dup.layers = [s.copy() for s in self.layers]
        dup.timesteps, dup.input_shape = self.timesteps, self.input_shape
        dup.by_name = {s.name: s for s in dup.layers}
        dup.shapes, dup.paired_lif = self.shapes, self.paired_lif
        dup.states = {
            name: LifState(np.zeros(self.shapes[name], DTYPE), np.zeros(self.shapes[name], DTYPE))
            for name in self.states
        }
        return dup


def _ordered_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    # cumsum is a strict left-to-right binary32 chain; its last slice is the
    # ascending-index sum the determinism contract requires.
    return np.take(np.cumsum(terms, axis=axis, dtype=DTYPE), -1, axis=axis)


def linear_forward(weight: np.ndarray, bias: np.ndarray | None, input: np.ndarray) -> np.ndarray:
    """out[i] = sum_j weight[i,j]*input[j] (+ bias[i]), j ascending, binary32."""
    out = _ordered_sum(weight * input[None, :], axis=1)
    if bias is not None:
        out = out + bias
    return out


def recurrent_forward(spec: LayerSpec, input: np.ndarray, prev_spike: np.ndarray) -> np.ndarray:
    """Forward dot product plus feedback dot product over the layer's own
    previous-timestep spikes (all-zero on the first step), summed elementwise."""
    fwd = linear_forward(spec.params["weight"], spec.params.get("bias"), input)
    rec = linear_forward(
        spec.params["feedback_weight"], spec.params.get("feedback_bias"), prev_spike
    )
    return fwd + rec


def conv2d_forward(weight: np.ndarray, bias: np.ndarray | None, input: np.ndarray) -> np.ndarray:
    """Valid (no padding) stride-1 cross-correlation plus per-channel bias.

    Window terms accumulate in-channel-major, then kernel row, then column.
    """
    oc, ic, k, _ = weight.shape
    win = sliding_window_view(input, (k, k), axis=(1, 2))  # (ic, Ho, Wo, k, k)
    ho, wo = win.shape[1], win.shape[2]
    patches = win.transpose(0, 3, 4, 1, 2).reshape(ic * k * k, ho, wo)
    terms = weight.reshape(oc, ic * k * k)[:, :, None, None] * patches[None, :, :, :]
    out = _ordered_sum(terms, axis=1)
    if bias is not None:
        out = out + bias[:, None, None]
    return out


def avgpool2d_forward(input: np.ndarray, pool: int) -> np.ndarray:
    """Non-overlapping window means: row-major window sum / float32(pool*pool)."""
    c, h, w = input.shape
    windows = (
        input.reshape(c, h // pool, pool, w // pool, pool)
        .transpose(0, 1, 3, 2, 4)
        .reshape(c, h // pool, w // pool, pool * pool)
    )
    return _ordered_sum(windows, axis=3) / DTYPE.type(pool * pool)


def lif_step(
    state: LifState, current: np.ndarray, beta: np.ndarray, threshold: np.ndarray
) -> tuple[LifState, np.ndarray]:
    """One membrane update (see module docstring for the branch semantics).

    Returns the new state and the emitted spikes; new_state.spike is the same
    array as the returned spikes.
    """
    v_prev = state.potential
    fired = v_prev > threshold  # NaN compares false: sub-threshold branch
    decayed = beta * v_prev
    after_reset = v_prev - threshold
    potential = np.where(fired, after_reset, decayed) + current
    spike = fired.astype(DTYPE)
    return LifState(potential=potential, spike=spike), spike


def reset_state(net: Network) -> None:
    """Zero all potentials and spikes in place. Idempotent."""
    for st in net.states.values():
        st.potential[...] = 0.0
        st.spike[...] = 0.0


def network_forward(net: Network, spikes, refresh: StateHook | None = None) -> np.ndarray:
    """Run a full T-step inference and return the class score vector.

    ``spikes`` is a [T, *input_shape] spike array. Scores are the per-class
    sums of output-layer spikes over all T steps, accumulated in timestep
    order. State is NOT reset here; call reset_state first for a fresh run.
    The optional ``refresh`` hook is invoked after every LIF state write,
    before that value feeds anything downstream (see StateHook).
    """
    expected = (net.timesteps, *net.input_shape)
    if spikes.shape != expected:
        raise _dim_error(net.layers[0].name, f"sample shape {spikes.shape} != {expected}")
    seq = spikes.astype(DTYPE, copy=False)

    scores = np.zeros(net.num_classes, DTYPE)
    with np.errstate(all="ignore"):
        for n in range(net.timesteps):
            x = seq[n]
            for spec in net.layers:
                kind, p = spec.kind, spec.params
                if kind is LayerKind.FULLY_CONNECTED:
                    x = linear_forward(p["weight"], p.get("bias"), x.reshape(-1))
                elif kind is LayerKind.RECURRENT:
                    prev = net.states[net.paired_lif[spec.name]].spike
                    x = recurrent_forward(spec, x.reshape(-1), prev)
                elif kind is LayerKind.CONV2D:
                    x = conv2d_forward(p["weight"], p.get("bias"), x)
                elif kind is LayerKind.AVGPOOL2D:
                    x = avgpool2d_forward(x, spec.hyper["pool"])
                else:
                    st = net.states[spec.name]
                    new_state, spike = lif_step(st, x, p["beta"], p["threshold"])
                    st.potential = new_state.potential
                    st.spike = spike
                    if refresh is not None:
                        refresh(spec.name, "potential", st.potential)
                        refresh(spec.name, "spike", st.spike)
                    x = st.spike
            scores = scores + x
    return scores
