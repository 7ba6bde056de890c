"""The benchmark harness in bench/ reaches into the package; pin what it uses.

bench/ is run outside this suite, so a refactor that drops a name it imports,
or bypasses a module-global name its tracer patches, would otherwise only
show up as a broken benchmark or as per-layer metrics that silently read 0.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from snnfault import campaign, core
from snnfault.dataio import synth_dataset, synth_model
from snnfault.faults import FaultDescriptor, FaultMode, ParameterKind

ROOT = Path(__file__).resolve().parent.parent
CLIENTS = [ROOT / "bench" / "run.py", ROOT / "tests" / "test_acceptance.py"]


def _snnfault_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "snnfault":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", CLIENTS, ids=lambda p: p.name)
def test_client_imports_resolve(path):
    names = list(_snnfault_imports(path))
    assert names, f"{path.name} imports nothing from snnfault"
    missing = [f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(m), n)]
    assert missing == []


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unbatched_sample_forward_keeps_its_shapes():
    """bench's spike_density runs reset_state + network_forward on one
    [T, *shape] sample and sums the tensors its hook sees: the scores must
    stay [classes] and the hook tensors unbatched, equal to that row of a
    batched run."""
    net = synth_model(2, "CONV(1x4x4->2,k3)-LIF-POOL(2)-FC(2->3)-LIF", 3)
    ds = synth_dataset(3, 2, 3, net.input_shape, 3, 0.5)
    seen = set()
    run = net.copy()
    core.reset_state(run)
    scores = core.network_forward(
        run, ds.sample(1).spikes, refresh=lambda layer, kind, t: seen.add((layer, t.shape))
    )
    assert scores.shape == (net.num_classes,)
    assert seen == {(name, net.shapes[name]) for name in net.states}
    assert scores.tobytes() == core.network_forward(net.copy(), ds.spikes)[1].tobytes()


def test_tracer_installs_sees_every_layer_and_restores():
    """Golden runs one forward; a screened fault runs none when no input
    diverges and one when some do. The golden run still shows its reset,
    forward and run_golden spans, and the kernels, copy, injection,
    addressing, refresh hook and run_faulty are still seen through the names
    the tracer patches, on screened runs alone."""
    tracing = _load_tracing()
    originals = {k: getattr(core, k) for k in tracing.KERNELS}
    nets = {  # each with the kernel that feeds its first LIF
        "core.recurrent_forward": synth_model(1, "RFC(4->4)-LIF-FC(4->3)-LIF", 2),
        "core.conv2d_forward": synth_model(2, "CONV(1x4x4->2,k3)-LIF-POOL(2)-FC(2->3)-LIF", 2),
    }

    def spans(name, *args):
        with tracing.installed(tracing.Tracer()) as tracer:
            getattr(campaign, name)(*args)  # looked up inside, where the wrapper is
        return {name: s.calls for name, s in tracer.spans().items() if s.calls}

    golden_seen, faulty = Counter(), Counter()
    for feed, net in nets.items():
        ds = synth_dataset(3, 2, 2, net.input_shape, 3, 0.5)  # K=2: batched runs
        golden = campaign.run_golden(net.copy(), ds)
        seen = spans("run_golden", net.copy(), ds)
        assert seen["core.network_forward"] == 1
        golden_seen.update(seen)
        lif = net.layers[1].name
        beta_bit = (int(net.layer(lif).params["beta"].view("<u4")[0]) >> 3) & 1
        masked = FaultDescriptor(0, lif, ParameterKind.BETA, (0,), 3, beta_bit)
        seen = spans("run_faulty", net, masked, ds, golden)
        assert "core.network_forward" not in seen
        screen = {feed, "core.lif_step", "core.Network.copy", "faults.inject_static"}
        assert screen - seen.keys() == set()  # the screen alone, through the patched names
        faulty.update(seen)
        coords = (0,) * len(net.shapes[lif])
        # Stuck at 1 from t=0, when no neuron can fire yet: every input diverges.
        diverging = FaultDescriptor(
            1, lif, ParameterKind.SPIKE, coords, 0, 1, FaultMode.VALUE_STUCK
        )
        seen = spans("run_faulty", net, diverging, ds, golden)
        assert seen["core.network_forward"] == 1
        faulty.update(seen)
    want = {f"core.{k}" for k in tracing.KERNELS} | {
        "core.Network.copy",
        "faults.inject_static",
        "faults.target_tensor",
        "faults.refresh_hook",
        "campaign.run_faulty",
    }
    assert want - faulty.keys() == set()
    golden_want = {"core.reset_state", "core.network_forward", "campaign.run_golden"}
    assert golden_want - golden_seen.keys() == set()
    assert {k: getattr(core, k) for k in tracing.KERNELS} == originals
