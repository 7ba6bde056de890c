"""Model/dataset serialization, synthesis, and the architecture grammar."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bits_of, f32_from_bits, two_layer_net
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
)
from snnfault.errors import DimensionError, FormatError, SnnFaultError


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
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen].decode())
    payload = raw[8 + hlen :]
    mutate(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
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


def test_dataset_magic_mismatch_with_model_loader(tmp_path):
    ds = synth_dataset(seed=1, samples=2, timesteps=2, shape=(3,), classes=2, firing_rate=0.5)
    p = tmp_path / "d.sjd"
    save_dataset(ds, p)
    with pytest.raises(FormatError, match="magic"):
        load_model(p)


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
    ],
)
def test_arch_grammar_rejects(arch):
    with pytest.raises(FormatError):
        synth_model(seed=1, arch=arch, timesteps=3)


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
