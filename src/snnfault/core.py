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

Each chain starts at its first term, with no zero seed (``0.0 + -0.0`` would
flip a leading negative zero). The kernels and ``network_forward`` take
optional leading batch axes ``[..., *shape]``; a row of a batch follows the
same chains as an unbatched call and gets the same bits. A chain is realized
one of two ways, both strict left-to-right binary32 sums: ``np.cumsum`` along
the term axis, or a loop over terms whose every step is one elementwise add
vectorized over all other axes. Convolution and pooling loop over window
taps. ``linear_forward`` picks one of three realizations per call, from its
rows (every batch row, a block's steps included) and outputs:

* ``np.cumsum`` while the call is narrow (fewer than ``CUMSUM_MAX_WIDTH``
  sums in flight), where a loop step costs more in call overhead than it
  saves;
* otherwise the loop over input columns, with an ``[out, rows]``
  accumulator when the call has at least ``ROWS_PER_OUTPUT`` rows per
  output, so each add sweeps the batch rows;
* and with a ``[rows, out]`` accumulator when it has fewer, so each add
  sweeps the outputs.

The chains are independent, so the axis a step vectorizes over moves no bit.
The test suite pins all three against scalar loops.

Spike inputs are mostly silent, so a call of at least ``SKIP_MIN_TERMS``
terms (rows x out x in, a property of the call alone) skips its dead columns:
those whose input is +-0 in every row and whose weights are all finite. It
runs its realization on the live columns only, and that moves no bit:

* every dropped term is +-0, and adding +-0 leaves a nonzero, infinite or
  NaN accumulator unchanged (NaN payload included);
* so the reduced chain and the dense one hold the same bits from their first
  nonzero term on, and while neither has met one, both hold a zero;
* a binary32 sum is -0.0 only if both its operands are -0.0, so a chain ends
  in -0.0 only if every one of its terms is -0.0. A reduced result of +0.0
  is therefore the dense one too, but a reduced -0.0 is the dense result
  only if every dropped term is -0.0 as well. A call with a -0.0 result
  runs again over all its columns, and one with no live column (or no dead
  one) runs over all of them at once;
* a column holding an infinite or NaN weight stays live, so Inf x 0 = NaN
  still poisons its sums.

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

``network_forward`` walks T in blocks of consecutive timesteps, carrying the
LIF state from one block to the next. Within a block each layer runs once, in
network order: a weighted or pooling layer over all the block's steps at once
(the steps are one more batch axis, [..., tb, *shape]), a LIF layer as a scan,
one ``lif_step`` per step in timestep order. A recurrent layer's input term
(weight x input + bias) is computed for the whole block; its feedback term
needs the previous step's spikes, so the LIF scan adds it step by step. No
element changes its chain, so the block size moves no bit; ``tb`` is the most
steps whose widest layer, over all batch rows, fits in
``FORWARD_BLOCK_VALUES``, and at least one. The refresh hook therefore runs
layer by layer within a block: every step of one LIF layer's block, each
step's potential then spikes, before the next layer runs, and each call still
comes after that state's write and before any read of it.

``network_forward`` can start at any layer, given that layer's input for every
timestep, and can record chosen layers' outputs for every timestep into
preallocated arrays. A run from layer ``i`` on inputs recorded by a full run
repeats the full run's arithmetic from layer ``i`` on, so its scores have the
same bits; the fault campaign replays a fault from the layer it first changes
this way.

Given ``Rows``, a forward stacks independent (fault, input) pairs, one per
batch row, on the network's own parameters. Row p runs on its own row of the
input, gathered a block of timesteps at a time, under fault ``fault[p]``,
whose per-fault values the forward gathers once: a cone of the input
overwritten at every step (the screened spikes of a fault's LIF layer), a row
or channel of one weighted layer recomputed from the fault's own copy of its
parameters (its feedback term too, each step, for a recurrent layer), or one
LIF layer's beta and threshold. The kernels take such per-row parameters as
leading axes that broadcast against the batch, and each recomputed element
keeps the chain it has in a forward of an injected copy, so a row's bits are
that forward's.
"""

from __future__ import annotations

import math
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
# Layers with weights; each LIF layer directly follows one, its current source.
WEIGHTED = (LayerKind.FULLY_CONNECTED, LayerKind.RECURRENT, LayerKind.CONV2D)


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
        self.paired_lif: dict[str, str] = {}  # recurrent layer -> its LIF (bench/oracle.py)

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
        if prev_kind not in WEIGHTED:
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


# Below CUMSUM_MAX_WIDTH sums per call (batch rows x outputs, a block's steps
# counted as rows), one in-place np.cumsum over the whole [..., out, in] term
# array beats a loop over the in columns: a loop step costs ~1 us of call
# overhead, cumsum ~4.5 ns per term. Above it, a call with at least
# ROWS_PER_OUTPUT rows per output loops over an [out, rows] accumulator, any
# other over [rows, out], so each add runs along the longer axis. Measured at
# the benchmark workloads' block shapes (2-CPU x86-64, numpy 2.4): cumsum and
# the faster loop cross at 180-260 sums on 392->10, 100->10, 96->2 and 32->32
# layers, and the two layouts at about one row per output on 96->100 (60-320
# rows) and 32->32 (25-50 rows) ones.
CUMSUM_MAX_WIDTH = 256
ROWS_PER_OUTPUT = 1
# linear_forward drops dead columns from calls of at least this many terms
# (rows x out x in). Below it, the liveness test costs about what it saves:
# ungated, the recurrent benchmark net's many small cumsum calls ran slower.
SKIP_MIN_TERMS = 1 << 14
# network_forward runs each layer once per block of timesteps, as many as keep
# the block's widest layer input or output, over all batch rows, within this
# many values (128 KiB as binary32), one step at least; a loop forms its
# products a block of terms per multiply, as many as keep the block within it,
# one term at least. A block's slice, a linear_forward loop's copy of its input
# and a product block thus hold this many values or one step's or term's.
FORWARD_BLOCK_VALUES = 32768


def _product_chain(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * values[j], j ascending, as a strict left-to-right
    binary32 chain from the first term; each step is one vectorized add."""
    step = math.prod(np.broadcast_shapes(weights.shape[1:], values.shape[1:]))
    block = max(1, FORWARD_BLOCK_VALUES // step)
    out = None
    for j in range(0, len(weights), block):
        for term in weights[j : j + block] * values[j : j + block]:
            if out is None:
                out = term.copy()
            else:
                out += term  # out + term, in place
    return out


def _chains(weight: np.ndarray, input: np.ndarray, rows: int) -> np.ndarray:
    """linear_forward's dot products without bias, in the realization that
    the call's ``rows`` and outputs select."""
    out_n, in_n = weight.shape[-2:]
    if weight.ndim > 2 or rows * out_n < CUMSUM_MAX_WIDTH:
        terms = weight * input[..., None, :]
        return np.cumsum(terms, axis=-1, out=terms)[..., -1]
    columns = np.ascontiguousarray(weight.T)  # [in, out]
    values = np.ascontiguousarray(input.reshape(rows, in_n).T)  # [in, rows]
    if rows >= ROWS_PER_OUTPUT * out_n:  # accumulate [out, rows]
        out = _product_chain(columns[:, :, None], values[:, None, :]).T
    else:  # accumulate [rows, out]
        out = _product_chain(columns[:, None, :], values[:, :, None])
    return out.reshape(*input.shape[:-1], out_n)


def linear_forward(weight: np.ndarray, bias: np.ndarray | None, input: np.ndarray) -> np.ndarray:
    """out[..., i] = sum_j weight[i,j]*input[..., j] (+ bias[i]), j ascending, binary32.

    Per-row parameters, ``weight`` [..., out, in] and ``bias`` [..., out]
    whose leading axes broadcast against the input's batch axes, take the
    cumsum realization. A call of at least ``SKIP_MIN_TERMS`` terms runs its
    chains on its live columns only, and again on all of them if a result
    comes out -0.0 (see the module docstring). The result is an owned,
    C-contiguous array: it keeps no term array or transposed accumulator
    alive."""
    out_n, in_n = weight.shape[-2:]
    rows = input.size // in_n
    out = None
    if rows * out_n * in_n >= SKIP_MIN_TERMS:
        # a column is live if any row's input in it is nonzero (NaN included)
        # or, where none is, any weight in it is not finite
        live = input.reshape(rows, in_n).any(axis=0)
        if not live.all():
            dead = np.flatnonzero(~live)
            live[dead] = ~np.isfinite(weight[..., dead]).reshape(-1, len(dead)).all(axis=0)
        cols = np.flatnonzero(live)
        if 0 < len(cols) < in_n:
            out = _chains(weight[..., cols], input[..., cols], rows)
            if ((out == 0) & np.signbit(out)).any():  # may be +0.0 over all columns
                out = None
    if out is None:
        out = _chains(weight, input, rows)
    if bias is not None:
        return np.add(out, bias, order="C")
    return np.ascontiguousarray(out)


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

    Window taps accumulate in-channel-major, then kernel row, then column;
    each tap is one step over every batch row, out channel and output pixel.
    Per-row parameters, ``weight`` [..., oc, ic, k, k] and ``bias`` [..., oc]
    whose leading axes broadcast against the input's batch axes, keep the
    same chains.
    """
    oc, ic, k, _ = weight.shape[-4:]
    own = weight.shape[:-4]  # per-row weights' leading axes
    batch = np.broadcast_shapes(input.shape[:-3], own)
    win = sliding_window_view(input, (k, k), axis=(-2, -1))  # [..., ic, Ho, Wo, k, k]
    ho, wo = win.shape[-4], win.shape[-3]
    # taps[(c*k + r)*k + q]: the input under kernel tap (c, r, q), as [..., 1, Ho*Wo]
    taps = np.moveaxis(win, (-5, -2, -1), (0, 1, 2))
    taps = taps.reshape(ic * k * k, *input.shape[:-3], 1, ho * wo)
    tap_weights = np.moveaxis(weight.reshape(*own, oc, ic * k * k), -1, 0)
    tap_weights = tap_weights.reshape(ic * k * k, *(1,) * (len(batch) - len(own)), *own, oc, 1)
    out = _product_chain(tap_weights, taps).reshape(*batch, oc, ho, wo)
    if bias is not None:
        out = out + bias[..., None, None]
    return out


def avgpool2d_forward(input: np.ndarray, pool: int) -> np.ndarray:
    """Non-overlapping window means: row-major window sum / float32(pool*pool)."""
    out = None
    for r in range(pool):
        for q in range(pool):
            tap = input[..., r::pool, q::pool]
            out = tap if out is None else out + tap
    return out / DTYPE.type(pool * pool)


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


def lif_scan(
    name: str,
    state: LifState,
    current: np.ndarray,
    beta: np.ndarray,
    threshold: np.ndarray,
    axis: int,
    refresh: StateHook | None = None,
    feedback: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[LifState, np.ndarray]:
    """Advance LIF layer ``name`` from ``state`` over the timesteps of
    ``current``, which lie along ``axis``: one lif_step per step, in order.
    ``refresh`` sees each step's new potential, then its spikes, before
    either feeds anything. With ``feedback``, which maps the previous step's
    spikes to the feedback term of the recurrent layer feeding this one,
    ``current`` is that layer's input term; each step adds the feedback term
    and writes the sum back, so ``current`` ends as the layer's output.
    Returns the final state and the spikes, shaped like ``current``."""
    spikes = np.empty(current.shape, DTYPE)
    rows = (slice(None),) * axis
    for t in range(current.shape[axis]):
        step = current[rows + (t,)]
        if feedback is not None:
            step = step + feedback(state.spike)
            current[rows + (t,)] = step
        state, spike = lif_step(state, step, beta, threshold)
        if refresh is not None:
            refresh(name, "potential", state.potential)
            refresh(name, "spike", spike)
        spikes[rows + (t,)] = spike
    return state, spikes


def reset_state(net: Network) -> None:
    """Return every potential and spike to unbatched zeros. Idempotent."""
    for name, st in net.states.items():
        st.potential = np.zeros(net.shapes[name], DTYPE)
        st.spike = np.zeros(net.shapes[name], DTYPE)


def layer_forward(
    spec: LayerSpec, x: np.ndarray, lead: int, prev_spike: np.ndarray | None = None
) -> np.ndarray:
    """One weighted or pooling layer on ``x``, which has ``lead`` leading batch
    axes. ``prev_spike`` is a recurrent layer's LIF spikes from the previous
    timestep; without it, a recurrent layer gives its input term alone."""
    p = spec.params
    if spec.kind is LayerKind.CONV2D:
        return conv2d_forward(p["weight"], p.get("bias"), x)
    if spec.kind is LayerKind.AVGPOOL2D:
        return avgpool2d_forward(x, spec.hyper["pool"])
    flat = x.reshape(*x.shape[:lead], -1)
    if spec.kind is LayerKind.RECURRENT and prev_spike is not None:
        return recurrent_forward(spec, flat, prev_spike)
    return linear_forward(p["weight"], p.get("bias"), flat)


@dataclass
class Rows:
    """The rows of a stacked forward (see network_forward): row p runs on row
    ``source[p]`` of the forward's input under fault ``fault[p]``, each of F
    faults given once by per-fault values in any of

    * ``cone``, ``(index, values)``: at every step, the input's elements at
      fault f's leading coords ``index[0][f], index[1][f], ...`` are
      ``values[n, :, f]`` on input row n, where ``values`` is [N, T, F, *rest]
      and ``rest`` the input's shape past the index;
    * ``cut``, ``(touched, spec)``: weighted layer ``spec.name`` computes
      fault f's output row or channel ``touched[f]``, and a recurrent layer
      also its feedback term, from ``spec.params``, fault f's own copy of
      that row or channel, [F, ...];
    * ``lif``: a LIF layer whose beta and threshold, [F, *shape], replace
      that layer's, fault f taking its own.
    """

    source: np.ndarray
    fault: np.ndarray
    cone: tuple[tuple[np.ndarray, ...], np.ndarray] | None = None
    cut: tuple[np.ndarray, LayerSpec] | None = None
    lif: LayerSpec | None = None


def _rowwise(spec: LayerSpec, fault: np.ndarray, axes: int) -> LayerSpec:
    """Per-fault parameters [F, ...] gathered for rows under ``fault`` as
    kernel parameters for ``axes`` batch axes: [P, 1, ..., 1, ...]."""
    params = {key: v[fault].reshape(len(fault), *(1,) * axes, *v.shape[1:])
              for key, v in spec.params.items()}
    return LayerSpec(spec.name, spec.kind, params, spec.hyper)


def widest(net: Network, start: int = 0) -> int:
    """The most values one batch row holds at one step of a forward from
    layer ``start``: the largest of its input and its layers' outputs."""
    in_shape = net.input_shape if start == 0 else net.shapes[net.layers[start - 1].name]
    shapes = [in_shape, *(net.shapes[s.name] for s in net.layers[start:])]
    return max(math.prod(shape) for shape in shapes)


def network_forward(
    net: Network,
    spikes,
    refresh: StateHook | None = None,
    start: int = 0,
    record: dict[str, np.ndarray] | None = None,
    rows: Rows | None = None,
) -> np.ndarray:
    """Run a T-step inference from layer ``start`` and return the class scores.

    ``spikes`` is the input of layer ``start`` for every timestep,
    [..., T, *shape] in any dtype: the network's input spikes when ``start``
    is 0, otherwise the output of layer ``start - 1``. Each row of the
    optional leading batch axes is an independent inference, and the scores
    have shape [..., classes]. Scores are the per-class sums of output-layer
    spikes over all T steps, accumulated in timestep order from a zero seed;
    with ``start`` past the last layer they are that sum over ``spikes``.
    State is NOT reset here (call reset_state first for a fresh run); it is
    broadcast to the batch shape, and layers before ``start`` do not run. The
    optional ``refresh`` hook is invoked after every LIF state write, before
    that value feeds anything downstream (see StateHook); the tensor it gets
    carries the batch axes.

    T is walked in blocks of timesteps (see the module docstring). Each
    block's input is converted to a fresh binary32 array. With ``rows``,
    ``spikes`` is [N, T, *shape] and the batch is rows' P rows, each with
    its own input row and fault (see Rows): a block gathers its rows' input
    and writes their cones in, and the layers that rows override compute
    those rows' own values, on the network's own parameters otherwise.
    ``record`` maps layer names to preallocated [..., T, *shape] arrays; each
    block writes that layer's output into its rows, cast to the array's dtype.
    """
    in_shape = net.input_shape if start == 0 else net.shapes[net.layers[start - 1].name]
    lead = spikes.ndim - 1 - len(in_shape)
    expected = (net.timesteps, *in_shape)
    if lead < 0 or spikes.shape[lead:] != expected:
        where = net.layers[start].name if start < len(net.layers) else "scores"
        raise _dim_error(where, f"spike shape {spikes.shape} does not end in {expected}")
    batch = spikes.shape[:lead] if rows is None else rows.source.shape
    for name, st in net.states.items():
        st.potential = np.broadcast_to(st.potential, batch + net.shapes[name])
        st.spike = np.broadcast_to(st.spike, batch + net.shapes[name])

    scores = np.zeros((*batch, net.num_classes), DTYPE)
    if not scores.size:  # an empty batch: no row to run
        return scores
    block = max(1, FORWARD_BLOCK_VALUES // (math.prod(batch) * widest(net, start)))
    axes = (slice(None),) * lead
    lif = every = cone = touched = cut_name = block_cut = step_cut = None
    if rows is not None:  # each row's values, gathered by its fault
        every, at = np.arange(len(rows.source)), rows.fault
        cone = None if rows.cone is None else tuple(i[at, None] for i in rows.cone[0])
        lif = None if rows.lif is None else _rowwise(rows.lif, at, 0)
        if rows.cut is not None:  # kernel parameters for a block's rows, and for a step's
            touched, own = rows.cut[0][at], rows.cut[1]
            cut_name = own.name
            block_cut, step_cut = _rowwise(own, at, lead + 1), _rowwise(own, at, lead)

    def keep(name: str, out: np.ndarray) -> None:
        if record is not None and name in record:
            record[name][steps] = out

    def feedback_term(spec: LayerSpec) -> Callable[[np.ndarray], np.ndarray]:
        p = spec.params

        def term(spike: np.ndarray) -> np.ndarray:
            out = linear_forward(p["feedback_weight"], p.get("feedback_bias"), spike)
            if spec.name == cut_name:
                q = step_cut.params
                own = linear_forward(q["feedback_weight"], q.get("feedback_bias"), spike)
                out[every, touched] = own[:, 0]
            return out

        return term

    with np.errstate(all="ignore"):
        for t in range(0, net.timesteps, block):
            steps = axes + (slice(t, t + block),)
            if rows is None:
                x = spikes[steps].astype(DTYPE)
            else:
                x = spikes[rows.source, t : t + block].astype(DTYPE, copy=False)
                if cone is not None:
                    cells = (every[:, None], np.arange(x.shape[1]), *cone)
                    x[cells] = rows.cone[1][rows.source, t : t + block, rows.fault]
            feedback = None
            for spec in net.layers[start:]:
                if spec.kind is LayerKind.LIF:
                    st = net.states[spec.name]
                    p = (lif if lif is not None and lif.name == spec.name else spec).params
                    term = None if feedback is None else feedback_term(feedback)
                    state, spikes_out = lif_scan(spec.name, st, x, p["beta"], p["threshold"],
                                                 lead, refresh, term)
                    st.potential, st.spike = state.potential, state.spike
                    if feedback is not None:  # the scan completed x to its output
                        keep(feedback.name, x)
                    x, feedback = spikes_out, None
                else:
                    out = layer_forward(spec, x, lead + 1)
                    if spec.name == cut_name:
                        out[every, :, touched] = layer_forward(block_cut, x, lead + 1)[:, :, 0]
                    x = out
                    if spec.kind is LayerKind.RECURRENT:
                        feedback = spec
                        continue
                keep(spec.name, x)
            for spike in np.moveaxis(x, lead, 0):
                scores = scores + spike
    return scores
