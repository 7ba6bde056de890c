"""Model and spike-dataset file formats, plus deterministic synthesis.

Model files ("SJM1"): 4-byte magic, little-endian u32 header length, UTF-8
JSON header, raw payload. The header carries format version, timesteps, input
shape, the ordered layer list (name/kind/hyperparams) and a tensor directory
mapping "layer.parameter" to byte offset/length plus shape; the payload is
little-endian binary32, row-major, tensors packed in layer order then
parameter declaration order. Loaders validate magic, bounds, overlap and
kinds, and reject anything malformed with a typed error.

Dataset files ("SJD1"): same framing; header carries num_samples, timesteps,
per-timestep shape and class count; payload is one byte per spike (0 or 1),
sample-major then time-major, followed by one little-endian u16 label per
sample. Payload length must be exactly samples*T*prod(shape) + 2*samples.

Score cells elsewhere in the toolkit serialize binary32 values as 8 hex
digits of the raw bit pattern (authoritative) plus a decimal rendering;
f32_to_hex/hex_to_f32 implement that exactly. The sub-patterns below are
what every CSV row grammar, the architecture grammar and every other number
read from text in the toolkit are written in. write_atomic is the toolkit's
one file writer, and file_sha256 its one way to identify a file.

Every CSV reader ends a line at an LF, a CRLF or a lone CR (text_lines).
The bulk row reader below reads the fault list's rows, outcomes.csv and
the resume log a block of whole lines at a time with array operations; a
refused block goes to the reader's per-line walk, which names the bad line.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .core import DTYPE, LayerKind, LayerSpec, Network, PARAMETERIZED
from .errors import FormatError

MODEL_MAGIC = b"SJM1"
DATASET_MAGIC = b"SJD1"
_F32LE = np.dtype("<f4")
_U16LE = np.dtype("<u2")


# Sub-patterns of every grammar. An integer field is 1 to 20 ASCII digits: int()
# alone would also take " 5", "+5", "5_0" and non-ASCII digits, and fails with
# a bare ValueError past 4,300 digits. Twenty digits reach 10**20 - 1, so a
# reader that keeps ids or classes as uint64 also refuses any above UINT64_MAX.
INT = "[0-9]{1,20}"
UINT64_MAX = 2**64 - 1
# A float as repr() writes one: ASCII decimal with optional sign, fraction and
# exponent, or inf/nan. float() alone would also take "1_0", " 0.5",
# "infinity" and non-ASCII digits.
FLOAT = r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)"
HEX = "[0-9a-fA-F]{8}"  # binary32 bit pattern
# hex:decimal; the decimal half is for people, never read. It holds no line
# end (LF or CR), as no line does.
SCORE = HEX + ":[^,\r\n]*"
_HEX = re.compile(HEX)
_SCORE = re.compile(SCORE)


def f32_to_hex(value) -> str:
    """8 lowercase hex digits of the binary32 bit pattern."""
    return f"{int(np.array(value, dtype=np.float32).view(np.uint32)[()]):08x}"


def hex_to_f32(text: str) -> np.float32:
    """Inverse of f32_to_hex; rejects anything but exactly 8 hex digits."""
    if not _HEX.fullmatch(text):
        raise FormatError(f"bad binary32 hex pattern {text!r}")
    return np.array(int(text, 16), dtype=np.uint32).view(np.float32)[()]


def render_score(value) -> str:
    """hex:decimal score cell; the hex half is authoritative on parse."""
    return f"{f32_to_hex(value)}:{float(np.float32(value))!r}"


def parse_score(cell: str) -> np.float32:
    if not _SCORE.fullmatch(cell):
        raise FormatError(f"bad hex:decimal score cell {cell!r}")
    return hex_to_f32(cell[:8])


def read_lines(path, what: str) -> list[str]:
    """A CSV file's lines by text_lines' rule, without the final line end;
    not UTF-8 is a FormatError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


# -- bulk row reading -----------------------------------------------------------

# Bytes of whole lines that the bulk row reader splits, checks and converts
# at once: 1,600 to 1,900 rows of the benchmark's files, and under 1 MiB of
# temporary arrays.
BLOCK_BYTES = 1 << 16
DIGITS = 20  # the most an INT field may have: UINT64_MAX has 20
_LF, _COMMA, _ZERO = b"\n,0"
_HEX_VALUE = np.full(256, 16, np.uint8)  # each byte's value as a hex digit; 16 if none
_HEX_VALUE[np.frombuffer(b"0123456789abcdefABCDEF", np.uint8)] = [*range(16), *range(10, 16)]


def text_lines(data: bytes) -> bytes:
    """``data`` with each CRLF and each lone CR read as an LF, as Python reads text."""
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def line_blocks(f: BinaryIO, limit: float = math.inf, verbatim: bool = False) -> Iterator[bytes]:
    """The whole lines of ``f`` from its position on, up to ``limit`` bytes,
    about BLOCK_BYTES at a time (a longer line alone) and read by text_lines
    unless ``verbatim``. Only the last block may lack a final line end."""
    rest = b""
    while chunk := f.read(min(BLOCK_BYTES, limit)):
        limit -= len(chunk)
        data = rest + chunk
        end = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1  # a CR last may open a CRLF
        if end:
            yield data[:end] if verbatim else text_lines(data[:end])
        rest = data[end:]
    if rest:
        yield rest if verbatim else text_lines(rest)


def split_rows(block: bytes, commas: int) -> tuple[np.ndarray, ...] | None:
    """A block of whole lines split at LF and comma: the block as uint8 with
    DIGITS zero bytes after it (a decoder may read past a field, or wrap
    round into them from before the block), each row's start and end, and
    its commas as [commas, rows]; None if a row has another comma count."""
    p = np.zeros(len(block) + DIGITS, np.uint8)
    b = p[: len(block)]
    b[:] = np.frombuffer(block, np.uint8)
    end = (b == _LF).nonzero()[0]
    if not len(end) or end[-1] != len(b) - 1:  # a last row without its LF
        end = np.append(end, len(b))
    comma = (b == _COMMA).nonzero()[0]
    if len(comma) != commas * len(end):
        return None
    comma = comma.reshape(len(end), commas).T
    start = np.concatenate(([0], end[:-1] + 1))
    if ((comma[0] < start) | (comma[-1] > end)).any():  # ``commas`` on every line
        return None
    return p, start, end, comma


def uint64s(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """The INT fields ``p[lo:hi]`` as uint64, or None if one is empty, longer
    than 20 characters, not all ASCII digits, or above UINT64_MAX."""
    n = hi - lo
    width = int(n.max())
    if n.min() < 1 or width > DIGITS:
        return None
    j = np.arange(width)[:, None]
    digits = p[hi + (j - width)] - np.uint8(_ZERO)  # right-aligned, a column per field
    digits *= j >= width - n  # the bytes before a field are its leading zeros
    if (digits > 9).any():
        return None
    value = np.zeros(len(n), np.uint64)
    for row in digits[-19:]:  # Horner's rule below 10**19: no overflow
        value *= np.uint64(10)
        value += row
    if width < DIGITS:
        return value
    high = digits[0]  # the digit of 10**19
    if (high > 1).any() or (value[high == 1] > UINT64_MAX - 10**19).any():
        return None
    return value + high * np.uint64(10**19)


def hex32s(p: np.ndarray, lo: np.ndarray) -> np.ndarray | None:
    """The HEX fields ``p[lo:lo + 8]`` as uint32, or None if one is not HEX."""
    digits = _HEX_VALUE[p[lo + np.arange(8)[:, None]]]
    if (digits > 15).any():
        return None
    value = np.zeros(len(lo), np.uint32)
    for row in digits:
        value <<= np.uint32(4)
        value |= row
    return value


def temporary_of(path) -> Path:
    """Where write_atomic stages ``path``: beside it, with ``.tmp`` appended."""
    return Path(f"{path}.tmp")


def write_atomic(path, *chunks: bytes | memoryview) -> None:
    """The one file writer: ``path`` becomes the chunks joined, and readers see
    the old file or the whole new one. A write or rename that raises removes
    its temporary file; one that the process dies in leaves it behind."""
    tmp = temporary_of(path)
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # keep the write's own error
            tmp.unlink()
        raise


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- low-level framing --------------------------------------------------------


def _read_framed(path, magic: bytes) -> tuple[dict, bytes]:
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise FormatError(f"file shorter than the {magic.decode()} framing")
    if data[:4] != magic:
        raise FormatError(f"bad magic {data[:4]!r}, expected {magic!r}")
    (hlen,) = struct.unpack("<I", data[4:8])
    if 8 + hlen > len(data):
        raise FormatError(f"declared header length {hlen} exceeds the file")
    try:
        header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer past int()'s digit limit
        raise FormatError(f"header is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object")
    return header, data[8 + hlen :]


def _framed(magic: bytes, header: dict, payload: bytes) -> bytes:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join((magic, struct.pack("<I", len(blob)), blob, payload))


def _want_int(header: dict, key: str, minimum: int) -> int:
    v = header.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise FormatError(f"header field '{key}' must be an integer >= {minimum}, got {v!r}")
    return v


def _want_shape(value, what: str) -> tuple[int, ...]:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in value)
    ):
        raise FormatError(f"{what} must be a list of positive integers, got {value!r}")
    return tuple(value)


# -- model format -------------------------------------------------------------


def save_model(net: Network, path) -> None:
    layers = []
    tensors: dict[str, dict] = {}
    payload = bytearray()
    for spec in net.layers:
        layers.append({"name": spec.name, "kind": spec.kind.value, "hyper": dict(spec.hyper)})
        for key in PARAMETERIZED[spec.kind]:
            if key not in spec.params:
                continue
            arr = np.ascontiguousarray(spec.params[key], dtype=_F32LE)
            tensors[f"{spec.name}.{key}"] = {
                "offset": len(payload),
                "length": arr.nbytes,
                "shape": list(arr.shape),
            }
            payload += arr.tobytes()
    header = {
        "format": 1,
        "timesteps": net.timesteps,
        "input_shape": list(net.input_shape),
        "layers": layers,
        "tensors": tensors,
    }
    write_atomic(path, _framed(MODEL_MAGIC, header, payload))


def load_model(path) -> Network:
    header, payload = _read_framed(path, MODEL_MAGIC)
    if header.get("format") != 1:
        raise FormatError(f"unsupported model format version {header.get('format')!r}")
    timesteps = _want_int(header, "timesteps", 1)
    input_shape = _want_shape(header.get("input_shape"), "input_shape")

    raw_layers = header.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise FormatError("header field 'layers' must be a non-empty list")
    raw_tensors = header.get("tensors")
    if not isinstance(raw_tensors, dict):
        raise FormatError("header field 'tensors' must be an object")

    names: list[str] = []
    kinds: dict[str, LayerKind] = {}
    hypers: dict[str, dict] = {}
    for item in raw_layers:
        if not isinstance(item, dict) or not isinstance(item.get("name"), str):
            raise FormatError(f"bad layer entry {item!r}")
        name = item["name"]
        try:
            kind = LayerKind(item.get("kind"))
        except ValueError:
            raise FormatError(f"unknown layer kind {item.get('kind')!r}") from None
        hyper = item.get("hyper", {})
        if not isinstance(hyper, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
            for k, v in hyper.items()
        ):
            raise FormatError(f"layer '{name}': hyperparams must map strings to integers")
        names.append(name)
        kinds[name] = kind
        hypers[name] = dict(hyper)

    params: dict[str, dict[str, np.ndarray]] = {name: {} for name in names}
    spans: list[tuple[int, int, str]] = []
    for tname, entry in raw_tensors.items():
        if not isinstance(tname, str) or "." not in tname:
            raise FormatError(f"bad tensor name {tname!r}")
        lname, _, pname = tname.partition(".")
        if lname not in kinds:
            raise FormatError(f"tensor '{tname}' references unknown layer '{lname}'")
        if pname not in PARAMETERIZED[kinds[lname]]:
            raise FormatError(f"tensor '{tname}' is not a {kinds[lname].value} parameter")
        if not isinstance(entry, dict):
            raise FormatError(f"tensor '{tname}': directory entry must be an object")
        offset = _want_int(entry, "offset", 0)
        length = _want_int(entry, "length", 4)
        shape = _want_shape(entry.get("shape"), f"tensor '{tname}' shape")
        count = int(np.prod(shape))
        if length != count * 4:
            raise FormatError(f"tensor '{tname}': length {length} != 4*prod{shape}")
        if offset + length > len(payload):
            raise FormatError(f"tensor '{tname}': offset {offset}+{length} past payload end")
        spans.append((offset, offset + length, tname))
        arr = np.frombuffer(payload, dtype=_F32LE, count=count, offset=offset)
        params[lname][pname] = arr.reshape(shape).astype(DTYPE)  # owned, writeable

    spans.sort()
    for (_, prev_end, prev_name), (start, _, name) in zip(spans, spans[1:]):
        if start < prev_end:
            raise FormatError(f"tensors '{prev_name}' and '{name}' overlap in the payload")

    specs = [LayerSpec(name, kinds[name], params[name], hypers[name]) for name in names]
    return Network(specs, timesteps, input_shape)


# -- dataset format -----------------------------------------------------------


@dataclass
class SpikeSample:
    """One input: a [T, *shape] binary spike train and its label."""

    spikes: np.ndarray
    label: int


@dataclass
class SpikeDataset:
    spikes: np.ndarray  # uint8 [samples, T, *shape], values 0/1
    labels: np.ndarray  # uint16 [samples]
    classes: int

    @property
    def num_samples(self) -> int:
        return int(self.spikes.shape[0])

    @property
    def timesteps(self) -> int:
        return int(self.spikes.shape[1])

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.spikes.shape[2:])

    def sample(self, i: int) -> SpikeSample:
        return SpikeSample(spikes=self.spikes[i], label=int(self.labels[i]))


def save_dataset(ds: SpikeDataset, path) -> None:
    header = {
        "format": 1,
        "num_samples": ds.num_samples,
        "timesteps": ds.timesteps,
        "shape": list(ds.shape),
        "classes": ds.classes,
    }
    payload = ds.spikes.astype(np.uint8).tobytes() + ds.labels.astype(_U16LE).tobytes()
    write_atomic(path, _framed(DATASET_MAGIC, header, payload))


def load_dataset(path) -> SpikeDataset:
    header, payload = _read_framed(path, DATASET_MAGIC)
    if header.get("format") != 1:
        raise FormatError(f"unsupported dataset format version {header.get('format')!r}")
    samples = _want_int(header, "num_samples", 1)
    timesteps = _want_int(header, "timesteps", 1)
    classes = _want_int(header, "classes", 1)
    if classes > 65536:
        raise FormatError(f"class count {classes} exceeds the u16 label range")
    shape = _want_shape(header.get("shape"), "shape")
    per_sample = timesteps * int(np.prod(shape))
    expected = samples * per_sample + 2 * samples
    if len(payload) != expected:
        raise FormatError(f"payload is {len(payload)} bytes, format requires {expected}")
    spikes = np.frombuffer(payload, dtype=np.uint8, count=samples * per_sample)
    if spikes.size and int(spikes.max()) > 1:
        raise FormatError("spike bytes must be 0 or 1")
    labels = np.frombuffer(payload, dtype=_U16LE, count=samples, offset=samples * per_sample)
    if int(labels.max()) >= classes:
        raise FormatError(f"label {int(labels.max())} out of range for {classes} classes")
    return SpikeDataset(
        spikes=spikes.reshape(samples, timesteps, *shape).copy(),
        labels=labels.astype(np.uint16),
        classes=classes,
    )


def synth_dataset(
    seed: int,
    samples: int,
    timesteps: int,
    shape: tuple[int, ...],
    classes: int,
    firing_rate: float,
) -> SpikeDataset:
    """Bernoulli(firing_rate) spike trains with uniform labels, seed-pure."""
    if not 0.0 <= firing_rate <= 1.0:
        raise ValueError(f"firing rate must be in [0,1], got {firing_rate}")
    if samples < 1 or timesteps < 1 or classes < 1 or classes > 65536:
        raise ValueError("samples, timesteps >= 1 and 1 <= classes <= 65536 required")
    shape = tuple(int(d) for d in shape)
    if not shape or any(d < 1 for d in shape):
        raise ValueError(f"bad sample shape {shape}")
    rng = np.random.default_rng(seed)
    spikes = (rng.random((samples, timesteps, *shape)) < firing_rate).astype(np.uint8)
    labels = rng.integers(0, classes, size=samples, dtype=np.uint16)
    return SpikeDataset(spikes=spikes, labels=labels, classes=classes)


# -- model synthesis ----------------------------------------------------------

# One layer of an architecture string. ASCII case folding only: a Unicode one
# would read the Kelvin sign as the k of CONV's kernel.
_LAYER = re.compile(
    rf"""(?P<rfc>R?)FC \( (?P<fan_in>{INT}) -> (?P<fan_out>{INT}) \)
      | CONV \( (?P<ic>{INT}) x (?P<h>{INT}) x (?P<w>{INT}) -> (?P<oc>{INT}) ,k (?P<k>{INT}) \)
      | POOL \( (?P<pool>{INT}) \)
      | LIF (?: \( (?P<beta>{FLOAT}) (?: , (?P<vth>{FLOAT}) )? \) )?""",
    re.IGNORECASE | re.ASCII | re.VERBOSE,
)
# A '-' outside parentheses: the next parenthesis after it, if any, opens.
_LAYER_SEP = re.compile(r"-(?![^()]*\))")


def synth_model(
    seed: int,
    arch: str,
    timesteps: int,
    beta: float = 0.9,
    threshold: float = 1.0,
) -> Network:
    """Build a seeded random network from a compact architecture string.

    Layers join with `-`: `FC(INT->INT)`, `RFC(INT->INT)` (adds feedback
    weight and bias), `CONV(INTxINTxINT->INT,kINT)` (in channels x height x
    width -> out channels, kernel), `POOL(INT)`, and `LIF` / `LIF(FLOAT)` /
    `LIF(FLOAT,FLOAT)` (beta, then threshold). Kinds, `x` and `k` are
    case-insensitive, `->` may be written `→`, and spaces around a layer and
    empty layers are ignored. INT and FLOAT are this module's sub-patterns;
    every extent must be >= 1. The first layer declares the input shape.
    Weights and biases draw uniform over ±1/sqrt(fan_in), layer by layer,
    weight before bias (then feedback weight, feedback bias), so a seed fully
    determines the model bytes. Example: `FC(16->8)-LIF-FC(8->4)-LIF`.
    """
    rng = np.random.default_rng(seed)
    counters: dict[str, int] = {}

    def name(prefix: str) -> str:
        counters[prefix] = counters.get(prefix, 0) + 1
        return f"{prefix}{counters[prefix]}"

    def uniform(bound: float, shape: tuple[int, ...]) -> np.ndarray:
        return rng.uniform(-bound, bound, size=shape).astype(DTYPE)

    def pos(text: str, what: str, token: str) -> int:
        if (value := int(text)) < 1:
            raise FormatError(f"{what} must be >= 1 in {token!r}")
        return value

    layers: list[LayerSpec] = []
    input_shape: tuple[int, ...] | None = None
    for token in _LAYER_SEP.split(arch.replace("→", "->")):
        token = token.strip()
        if not token:
            continue
        m = _LAYER.fullmatch(token)
        if m is None:
            raise FormatError(f"bad layer token {token!r}")
        if m["fan_in"]:
            in_n = pos(m["fan_in"], "fan-in", token)
            out_n = pos(m["fan_out"], "fan-out", token)
            if input_shape is None:
                input_shape = (in_n,)
            bound = 1.0 / math.sqrt(in_n)
            params = {"weight": uniform(bound, (out_n, in_n)), "bias": uniform(bound, (out_n,))}
            if m["rfc"]:
                fb_bound = 1.0 / math.sqrt(out_n)
                params["feedback_weight"] = uniform(fb_bound, (out_n, out_n))
                params["feedback_bias"] = uniform(fb_bound, (out_n,))
                layers.append(LayerSpec(name("rfc"), LayerKind.RECURRENT, params))
            else:
                layers.append(LayerSpec(name("fc"), LayerKind.FULLY_CONNECTED, params))
        elif m["k"]:
            ic, h, w, oc, k = (pos(m[g], "conv extent", token) for g in ("ic", "h", "w", "oc", "k"))
            if input_shape is None:
                input_shape = (ic, h, w)
            bound = 1.0 / math.sqrt(ic * k * k)
            params = {"weight": uniform(bound, (oc, ic, k, k)), "bias": uniform(bound, (oc,))}
            layers.append(LayerSpec(name("conv"), LayerKind.CONV2D, params, {"kernel": k}))
        elif input_shape is None:
            raise FormatError(f"first layer {token!r} does not declare the input shape")
        elif m["pool"]:
            p = pos(m["pool"], "pool size", token)
            layers.append(LayerSpec(name("pool"), LayerKind.AVGPOOL2D, {}, {"pool": p}))
        else:
            params = {
                "beta": np.array([float(m["beta"]) if m["beta"] else beta], dtype=DTYPE),
                "threshold": np.array([float(m["vth"]) if m["vth"] else threshold], dtype=DTYPE),
            }
            layers.append(LayerSpec(name("lif"), LayerKind.LIF, params))
    if input_shape is None:
        raise FormatError("empty architecture")
    return Network(layers, timesteps, input_shape)
