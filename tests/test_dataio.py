"""Model/dataset serialization, synthesis, and the architecture grammar."""

import ast
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snnfault
from helpers import (
    MALFORMED_FLOATS,
    MALFORMED_INTEGERS,
    Killed,
    bits_of,
    f32_from_bits,
    tear_writes,
    two_layer_net,
)
from snnfault.core import DTYPE, LayerKind
from snnfault.dataio import (
    SpikeDataset,
    f32_to_hex,
    hex_to_f32,
    load_dataset,
    load_model,
    parse_score,
    render_score,
    save_dataset,
    save_model,
    synth_dataset,
    synth_model,
    write_atomic,
)
from snnfault.errors import DimensionError, FormatError, SnnFaultError
from snnfault.faultlist import SamplingSpec, generate_fault_list, write_fault_list
from snnfault.faults import ParameterKind


# -- hex score cells -----------------------------------------------------------


def test_hex_roundtrip_preserves_bits():
    for pattern in (0x00000000, 0x80000000, 0x3F800000, 0x7F800001, 0xFFC00123, 0x00000001):
        h = f32_to_hex(f32_from_bits(pattern))
        assert h == f"{pattern:08x}"
        assert bits_of(hex_to_f32(h)) == pattern


def test_hex_rejects_malformed():
    for bad in ("", "xyz", "3f80", "3f8000000", "0x3f800000", "3F80000G"):
        with pytest.raises(FormatError):
            hex_to_f32(bad)


def test_score_cell_hex_is_authoritative():
    cell = render_score(np.float32(0.75))
    assert cell.startswith("3f400000:")
    # a lying decimal half must not matter
    assert bits_of(parse_score("3f400000:999.0")) == 0x3F400000


def test_score_cell_without_decimal_rejected():
    with pytest.raises(FormatError):
        parse_score("3f400000")


# -- model round trip -----------------------------------------------------------


def test_model_roundtrip_bitwise(tmp_path):
    net = synth_model(seed=3, arch="RFC(4->6)-LIF(0.8,1.2)-FC(6->3)-LIF", timesteps=7)
    p = tmp_path / "m.sjm"
    save_model(net, p)
    back = load_model(p)
    assert back.timesteps == net.timesteps and back.input_shape == net.input_shape
    assert [(s.name, s.kind) for s in back.layers] == [(s.name, s.kind) for s in net.layers]
    for a, b in zip(net.layers, back.layers):
        assert set(a.params) == set(b.params)
        for k in a.params:
            assert a.params[k].tobytes() == b.params[k].tobytes()


def test_model_save_is_byte_deterministic(tmp_path):
    net = synth_model(seed=5, arch="FC(3->2)-LIF", timesteps=4)
    a, b = tmp_path / "a.sjm", tmp_path / "b.sjm"
    save_model(net, a)
    save_model(net, b)
    assert a.read_bytes() == b.read_bytes()


def _model_bytes(tmp_path):
    net = synth_model(seed=1, arch="FC(3->2)-LIF", timesteps=4)
    p = tmp_path / "m.sjm"
    save_model(net, p)
    return p, bytearray(p.read_bytes())


def test_model_bad_magic(tmp_path):
    p, raw = _model_bytes(tmp_path)
    raw[:4] = b"XXXX"
    p.write_bytes(raw)
    with pytest.raises(FormatError, match="magic"):
        load_model(p)


def test_model_truncated(tmp_path):
    p, raw = _model_bytes(tmp_path)
    p.write_bytes(raw[:6])
    with pytest.raises(FormatError):
        load_model(p)
    p.write_bytes(raw[: len(raw) - 5])  # payload shorter than directory claims
    with pytest.raises(FormatError):
        load_model(p)


def test_model_header_len_overflow(tmp_path):
    p, raw = _model_bytes(tmp_path)
    raw[4:8] = struct.pack("<I", 2**31)
    p.write_bytes(raw)
    with pytest.raises(FormatError):
        load_model(p)


def _rewrite_header(p, raw, mutate):
    """Rewrite the header of a framed file in place; a mutate that returns a
    value replaces the header with it."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen].decode())
    payload = raw[8 + hlen :]
    replaced = mutate(header)
    blob = json.dumps(header if replaced is None else replaced, sort_keys=True,
                      separators=(",", ":")).encode()
    p.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + payload)


def test_model_overlapping_tensors(tmp_path):
    p, raw = _model_bytes(tmp_path)

    def mutate(h):
        # park the small bias inside the big weight span; both stay in bounds
        h["tensors"]["fc1.bias"]["offset"] = h["tensors"]["fc1.weight"]["offset"]

    _rewrite_header(p, raw, mutate)
    with pytest.raises(FormatError, match="overlap"):
        load_model(p)


def test_model_offset_past_end(tmp_path):
    p, raw = _model_bytes(tmp_path)

    def mutate(h):
        name = sorted(h["tensors"])[0]
        h["tensors"][name]["offset"] = 10**9

    _rewrite_header(p, raw, mutate)
    with pytest.raises(FormatError):
        load_model(p)


def test_model_unknown_layer_kind(tmp_path):
    p, raw = _model_bytes(tmp_path)

    def mutate(h):
        h["layers"][0]["kind"] = "transformer"

    _rewrite_header(p, raw, mutate)
    with pytest.raises(FormatError):
        load_model(p)


def test_model_shape_length_mismatch(tmp_path):
    p, raw = _model_bytes(tmp_path)

    def mutate(h):
        name = sorted(h["tensors"])[0]
        h["tensors"][name]["shape"] = [1, 1]

    _rewrite_header(p, raw, mutate)
    with pytest.raises(FormatError):
        load_model(p)


def test_model_bad_json(tmp_path):
    p, raw = _model_bytes(tmp_path)
    (hlen,) = struct.unpack("<I", raw[4:8])
    raw[8 : 8 + 2] = b"{["
    p.write_bytes(raw)
    with pytest.raises(FormatError):
        load_model(p)


def _with_first_layer(h, **fields):
    return {**h, "layers": [{**h["layers"][0], **fields}, *h["layers"][1:]]}


# One row per header rejection: (loader, header edit, message).
HEADER_ERRORS = {
    "not an object": (load_model, lambda h: [h], "header must be a JSON object"),
    "format version": (
        load_model, lambda h: {**h, "format": 2}, "unsupported model format version 2"
    ),
    "tensors not an object": (
        load_model, lambda h: {**h, "tensors": []}, "header field 'tensors' must be an object"
    ),
    "layer entry": (load_model, lambda h: {**h, "layers": [7]}, "bad layer entry 7"),
    "hyperparameter map": (
        load_model, lambda h: _with_first_layer(h, hyper={"kernel": "3"}),
        "layer 'fc1': hyperparams must map strings to integers",
    ),
    "tensor name": (load_model, lambda h: {**h, "tensors": {"fc1": {}}}, "bad tensor name 'fc1'"),
    "tensor of another kind": (
        load_model, lambda h: {**h, "tensors": {"lif1.weight": {}}},
        "tensor 'lif1.weight' is not a lif parameter",
    ),
    "directory entry": (
        load_model, lambda h: {**h, "tensors": {"fc1.weight": 7}},
        "tensor 'fc1.weight': directory entry must be an object",
    ),
    "class count": (
        load_dataset, lambda h: {**h, "classes": 65537},
        "class count 65537 exceeds the u16 label range",
    ),
}


@pytest.mark.parametrize("load, edit, message", HEADER_ERRORS.values(), ids=HEADER_ERRORS)
def test_header_errors(tmp_path, load, edit, message):
    p = tmp_path / "f.bin"
    if load is load_model:
        save_model(synth_model(seed=1, arch="FC(3->2)-LIF", timesteps=4), p)
    else:
        save_dataset(synth_dataset(1, 2, 2, (3,), 2, 0.5), p)
    _rewrite_header(p, bytearray(p.read_bytes()), edit)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load(p)


# -- dataset round trip ----------------------------------------------------------


def test_dataset_roundtrip_bitwise(tmp_path):
    ds = synth_dataset(seed=9, samples=5, timesteps=6, shape=(2, 4, 4), classes=3, firing_rate=0.4)
    p = tmp_path / "d.sjd"
    save_dataset(ds, p)
    back = load_dataset(p)
    assert back.spikes.tobytes() == ds.spikes.tobytes()
    assert back.labels.tolist() == ds.labels.tolist()
    assert back.classes == ds.classes
    s = back.sample(2)
    assert s.spikes.shape == (6, 2, 4, 4) and s.label == int(ds.labels[2])


def test_dataset_rejects_nonbinary_spike_byte(tmp_path):
    ds = synth_dataset(seed=1, samples=2, timesteps=2, shape=(3,), classes=2, firing_rate=0.5)
    p = tmp_path / "d.sjd"
    save_dataset(ds, p)
    raw = bytearray(p.read_bytes())
    (hlen,) = struct.unpack("<I", raw[4:8])
    raw[8 + hlen] = 2  # first spike byte
    p.write_bytes(raw)
    with pytest.raises(FormatError, match="spike"):
        load_dataset(p)


def test_dataset_rejects_label_out_of_range(tmp_path):
    ds = synth_dataset(seed=1, samples=2, timesteps=2, shape=(3,), classes=2, firing_rate=0.5)
    p = tmp_path / "d.sjd"
    save_dataset(ds, p)
    raw = bytearray(p.read_bytes())
    raw[-2:] = struct.pack("<H", 7)  # last label; classes == 2
    p.write_bytes(raw)
    with pytest.raises(FormatError, match="label"):
        load_dataset(p)


def test_dataset_rejects_payload_length_mismatch(tmp_path):
    ds = synth_dataset(seed=1, samples=2, timesteps=2, shape=(3,), classes=2, firing_rate=0.5)
    p = tmp_path / "d.sjd"
    save_dataset(ds, p)
    raw = p.read_bytes()
    p.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError):
        load_dataset(p)


def test_oversized_header_integer_is_a_format_error(tmp_path):
    # json.loads refuses integers past 4,300 digits with a bare ValueError.
    net = synth_model(seed=1, arch="FC(3->2)-LIF", timesteps=4)
    ds = synth_dataset(seed=1, samples=2, timesteps=4, shape=(3,), classes=2, firing_rate=0.5)
    for save, load, obj in ((save_model, load_model, net), (save_dataset, load_dataset, ds)):
        p = tmp_path / "f.bin"
        save(obj, p)
        raw = p.read_bytes()
        (hlen,) = struct.unpack("<I", raw[4:8])
        blob = raw[8 : 8 + hlen].replace(b'"timesteps":4', b'"timesteps":' + b"1" * 5000)
        p.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + hlen :])
        with pytest.raises(FormatError, match="header is not valid UTF-8 JSON"):
            load(p)


def test_dataset_magic_mismatch_with_model_loader(tmp_path):
    ds = synth_dataset(seed=1, samples=2, timesteps=2, shape=(3,), classes=2, firing_rate=0.5)
    p = tmp_path / "d.sjd"
    save_dataset(ds, p)
    with pytest.raises(FormatError, match="magic"):
        load_model(p)


# -- the one writer ---------------------------------------------------------------


def _fault_list(seed: int):
    spec = SamplingSpec(error_margin=0.05, quantile=2.576, seed=seed)
    return generate_fault_list(two_layer_net(), spec, {ParameterKind.WEIGHT, ParameterKind.BIAS})


@pytest.mark.parametrize(
    "save, old, new",
    [
        (save_model, synth_model(1, "FC(6->4)-LIF", 3), synth_model(2, "FC(6->4)-LIF", 3)),
        (save_dataset, synth_dataset(1, 4, 3, (6,), 2, 0.5), synth_dataset(2, 4, 3, (6,), 2, 0.5)),
        (write_fault_list, _fault_list(8), _fault_list(9)),
    ],
    ids=["model", "dataset", "fault-list"],
)
def test_torn_rewrite_keeps_the_previous_file(tmp_path, monkeypatch, save, old, new):
    """A kill halfway through rewriting a model, dataset or fault-list file
    leaves the previous file whole, and the next write replaces it."""
    path, fresh = tmp_path / "target", tmp_path / "fresh"
    save(old, path)
    save(new, fresh)
    previous, wanted = path.read_bytes(), fresh.read_bytes()
    tear_writes(monkeypatch, path.name, len(wanted) // 2)
    with pytest.raises(Killed):
        save(new, path)
    monkeypatch.undo()
    assert path.read_bytes() == previous
    save(new, path)
    assert path.read_bytes() == wanted


def test_failed_write_removes_its_temporary_file(tmp_path, monkeypatch):
    """A write torn mid-file or a rename that fails leaves neither a
    temporary file nor a changed target."""
    path = tmp_path / "target"
    write_atomic(path, b"old\n")
    tear_writes(monkeypatch, path.name, 3)
    with pytest.raises(Killed):
        write_atomic(path, b"new contents\n")
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]
    assert path.read_bytes() == b"old\n"
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "inside").write_bytes(b"")
    with pytest.raises(OSError):  # os.replace cannot put a file over a directory
        write_atomic(tmp_path / "dir", b"new contents\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "target"]


def _file_writes(source: str) -> list[tuple[str, str]]:
    """(enclosing function, mode or method) of every call in a module that
    may open a file for writing: an open() or .open() whose mode holds w, a,
    x or + or is not a literal, and every .write_text() and .write_bytes()."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            f = child.func if isinstance(child, ast.Call) else None
            if isinstance(f, ast.Attribute) and f.attr in ("write_text", "write_bytes"):
                found.append((func, f.attr))
            elif isinstance(f, ast.Name) and f.id == "open" or getattr(f, "attr", None) == "open":
                # open(file, mode), io.open(file, mode), os.open(file, flags); path.open(mode)
                module = isinstance(f, ast.Name) or (
                    isinstance(f.value, ast.Name) and f.value.id in ("builtins", "io", "os"))
                args = child.args[1:] if module else child.args
                mode = next((k.value for k in child.keywords if k.arg in ("mode", "flags")),
                            args[0] if args else ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or (
                        set("wax+") & set(mode.value)):
                    found.append((func, ast.unparse(mode)))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(ast.parse(source), "<module>")
    return found


def test_write_atomic_is_the_only_writer():
    """Every file the library writes goes through dataio.write_atomic; the
    one other write is run_campaign's append-only outcome log."""
    probe = """
def writes(p, m, s):
    open(p, "w"); open(p, mode="a"); io.open(p, "xb"); os.open(p, os.O_WRONLY)
    p.open("w"); p.open(mode="r+b"); open(p, m); p.write_text(s); p.write_bytes(s)
def reads(p):
    open(p); open(p, "rb"); io.open(p, mode="r"); p.open(); p.open("rb"); p.read_text()
"""
    assert [how for func, how in _file_writes(probe) if func == "writes"] == [
        "'w'", "'a'", "'xb'", "os.O_WRONLY", "'w'", "'r+b'", "m", "write_text", "write_bytes"]
    assert [how for func, how in _file_writes(probe) if func == "reads"] == []
    package = Path(snnfault.__file__).parent
    found = sorted((path.name, func, how) for path in package.glob("*.py")
                   for func, how in _file_writes(path.read_text(encoding="utf-8")))
    assert found == [("campaign.py", "run_campaign", "'a'"), ("dataio.py", "write_atomic", "'wb'")]


# -- synthesis --------------------------------------------------------------------


def test_synth_model_deterministic_and_isolated():
    a = synth_model(seed=11, arch="FC(4->3)-LIF", timesteps=5)
    np.random.seed(0)  # global RNG state must not leak into synthesis
    b = synth_model(seed=11, arch="FC(4->3)-LIF", timesteps=5)
    for la, lb in zip(a.layers, b.layers):
        for k in la.params:
            assert la.params[k].tobytes() == lb.params[k].tobytes()


def test_synth_model_weight_scale():
    net = synth_model(seed=2, arch="FC(100->50)-LIF", timesteps=2)
    w = net.layer("fc1").params["weight"]
    assert float(np.abs(w).max()) <= 1.0 / np.sqrt(100) + 1e-6
    assert w.dtype == DTYPE


def test_synth_dataset_deterministic_rate_and_labels():
    ds = synth_dataset(seed=4, samples=50, timesteps=10, shape=(20,), classes=7, firing_rate=0.3)
    again = synth_dataset(seed=4, samples=50, timesteps=10, shape=(20,), classes=7, firing_rate=0.3)
    assert ds.spikes.tobytes() == again.spikes.tobytes()
    assert set(np.unique(ds.spikes)) <= {0, 1}
    assert ds.labels.max() < 7
    rate = ds.spikes.mean()
    assert abs(rate - 0.3) < 0.02  # 10k Bernoulli draws, loose envelope


# -- architecture grammar ----------------------------------------------------------


@pytest.mark.parametrize(
    "arch,kinds",
    [
        ("FC(4->3)-LIF", ["fully_connected", "lif"]),
        ("fc(4->3)-lif", ["fully_connected", "lif"]),
        ("FC(4→3)-LIF", ["fully_connected", "lif"]),
        ("RFC(4->4)-LIF(0.8,1.1)-FC(4->2)-LIF",
         ["recurrent_fully_connected", "lif", "fully_connected", "lif"]),
        ("CONV(1x8x8->2,K3)-LIF-POOL(2)-FC(18->2)-LIF",
         ["conv2d", "lif", "avgpool2d", "fully_connected", "lif"]),
        (" rfc(4->4) - Lif(INF,nan) -- fC(4->2)-lIf(-.5,+1E3)- ",
         ["recurrent_fully_connected", "lif", "fully_connected", "lif"]),
        ("conv(1X8X8->2,k3)-lif-pool(2)-fc(18->2)-lif(1e-05)",
         ["conv2d", "lif", "avgpool2d", "fully_connected", "lif"]),
    ],
)
def test_arch_grammar_accepts(arch, kinds):
    net = synth_model(seed=1, arch=arch, timesteps=3)
    assert [s.kind.value for s in net.layers] == kinds


def test_arch_lif_args_apply():
    net = synth_model(seed=1, arch="FC(4->3)-LIF(0.25,2.5)", timesteps=3)
    lif = net.layers[-1]
    assert lif.params["beta"][0] == np.float32(0.25)
    assert lif.params["threshold"][0] == np.float32(2.5)


@pytest.mark.parametrize(
    "arch",
    [
        "",
        "FC(4->3",
        "FC(4->3))-LIF",
        "MLP(4->3)-LIF",
        "FC(0->3)-LIF",
        "FC(4->3)-LIF-JUNK",
        "CONV(8x8->2,K3)-LIF",
        " - ",
        "LIF-FC(4->3)-LIF",
        "POOL(2)-FC(4->3)-LIF",
        "FC(4->3)-LIF(0.5, 1.0)",
        "FC(4->3)-LIF(infinity)",
        "FC(4->3)-lıf",
    ],
)
def test_arch_grammar_rejects(arch):
    with pytest.raises(FormatError):
        synth_model(seed=1, arch=arch, timesteps=3)


# (layer with one extent left open, a valid extent, the architecture around the layer)
ARCH_EXTENTS = {
    "FC fan-in": ("FC({}->3)", "4", "{}-LIF"),
    "RFC fan-out": ("RFC(4->{})", "4", "{}-LIF"),
    "CONV height": ("CONV(1x{}x8->2,k3)", "8", "{}-LIF-POOL(2)-FC(18->2)-LIF"),
    "POOL size": ("POOL({})", "2", "CONV(1x8x8->2,k3)-LIF-{}-FC(18->2)-LIF"),
}


@pytest.mark.parametrize("form", MALFORMED_INTEGERS.values(), ids=MALFORMED_INTEGERS)
@pytest.mark.parametrize("layer, valid, arch", ARCH_EXTENTS.values(), ids=ARCH_EXTENTS)
def test_arch_rejects_malformed_extents(layer, valid, arch, form):
    synth_model(seed=1, arch=arch.format(layer.format(valid)), timesteps=3)
    token = layer.format(form(valid))
    with pytest.raises(FormatError, match=re.escape(f"bad layer token {token!r}")):
        synth_model(seed=1, arch=arch.format(token), timesteps=3)


@pytest.mark.parametrize("text", MALFORMED_FLOATS.values(), ids=MALFORMED_FLOATS)
@pytest.mark.parametrize("lif", ["LIF({})", "LIF(0.9,{})"], ids=["beta", "threshold"])
def test_arch_rejects_malformed_lif_arguments(lif, text):
    token = lif.format(text)
    with pytest.raises(FormatError, match=re.escape(f"bad layer token {token!r}")):
        synth_model(seed=1, arch=f"FC(4->3)-{token}", timesteps=3)


# sha256 of save_model(synth_model(7, arch, 5)): the RNG draw order and every
# value read from the architecture string are part of the model bytes.
MODEL_SHA256 = {
    "FC(96->100)-LIF-FC(100->10)-LIF":
        "4dbc53b89c79719fde1480e3cdf2bc10d3fdac12ec9280d5f034f6518729b09b",
    "CONV(2x16x16->8,k3)-LIF-POOL(2)-FC(392->10)-LIF":
        "610c425f34b56e33038177a84710c42c520ad53c74ed676d6d2d36fd3fa854b7",
    "RFC(32->32)-LIF-FC(32->10)-LIF":
        "ef1b1bb93827e1f10130885ffc4219c4210c73e0e8cec801b396445588b6d8c2",
    "RFC(4->6)-LIF(0.8,1.2)-FC(6->3)-LIF":
        "ee498ef8e4f54e8ff5035b7d6ee0f406f77d5ba9b80bdf36c5500d803246af27",
}


@pytest.mark.parametrize("arch, digest", MODEL_SHA256.items(), ids=list(MODEL_SHA256))
def test_synth_model_bytes_are_pinned(tmp_path, arch, digest):
    save_model(synth_model(seed=7, arch=arch, timesteps=5), tmp_path / "m.sjm")
    assert hashlib.sha256((tmp_path / "m.sjm").read_bytes()).hexdigest() == digest


def test_arch_noncomposing_dims_rejected():
    with pytest.raises(DimensionError):
        synth_model(seed=1, arch="FC(4->3)-LIF-FC(5->2)-LIF", timesteps=3)


def test_arch_must_end_in_lif():
    with pytest.raises(DimensionError):
        synth_model(seed=1, arch="FC(4->3)-LIF-FC(3->2)", timesteps=3)


# -- loader fuzz smoke (the full 1000-mutation sweep lives in the acceptance suite)


@settings(max_examples=120)
@given(st.data())
def test_mutated_model_bytes_never_crash(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    net = synth_model(seed=1, arch="FC(3->2)-LIF", timesteps=3)
    p = tmp / "m.sjm"
    save_model(net, p)
    raw = bytearray(p.read_bytes())
    n_mut = data.draw(st.integers(1, 8))
    for _ in range(n_mut):
        pos = data.draw(st.integers(0, len(raw) - 1))
        raw[pos] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):
        raw = raw[: data.draw(st.integers(0, len(raw)))]
    p.write_bytes(bytes(raw))
    try:
        load_model(p)
    except SnnFaultError:
        pass  # typed rejection is the contract; anything else is a crash
