"""The package surface the benchmark in perfbench/ relies on.

perfbench/probes.py replays the attention and mixer stages by name, and
the benchmark reports the size of one training step's tape. A rename or a
changed return shape would otherwise surface only in a benchmark run.
"""

import dataclasses
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tabnsa.autodiff
import tabnsa.data
import tabnsa.forking
import tabnsa.model
import tabnsa.nsa_attention
import tabnsa.tabmixer
import tabnsa.training
from tabnsa.model import ModelConfig, forward, init_model_params
from tabnsa.nsa_attention import NSAConfig
from tabnsa.training import weighted_cross_entropy

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"
COMPONENTS = (
    "qkv_proj", "compression_phi", "attention_compression", "selection_scoring",
    "attention_selection", "attention_window", "gated_combine", "tabmixer",
)
TAPE_NODE_BUDGET = 100


def default_config(**nsa_over) -> ModelConfig:
    """The benchmark's default geometry: 15 tokens, fusion o."""
    nsa = dict(dim=16, heads=2, head_dim=8, window=3, compress_block=4, compress_stride=2,
               select_block=2, num_selected=2)
    nsa.update(nsa_over)
    return ModelConfig(nsa=NSAConfig(**nsa), num_tokens=15)


# the probes replay the stages by name on both selection paths: the default
# gathers the selected blocks; all_selected selects both blocks of 8 tokens,
# so its selection branch is a shared-key product over all 15 tokens
PROBED_CONFIGS = {
    "default": {},
    "all_selected": dict(compress_block=8, select_block=8),
}


def load_probes():
    """Import perfbench/probes.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    previous, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


def tape_nodes(out) -> int:
    """Nodes reachable from `out` through parents that require grad, as the
    benchmark counts them."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen)


def test_component_probes_report_every_layer_metric():
    expected = set()
    for comp in COMPONENTS:
        prefix = comp if comp == "tabmixer" else f"nsa_attention.{comp}"
        kinds = ("fwd_ms", "gflops_per_s", "peak_alloc_mib")
        if comp != "selection_scoring":  # scores are detached: no backward
            kinds += ("bwd_ms",)
        expected |= {f"{prefix}.{kind}" for kind in kinds}
    assert len(expected) == 31
    probes = load_probes()
    for geometry, over in PROBED_CONFIGS.items():
        config = default_config(**over)
        params = init_model_params(config, 0)
        x = np.random.default_rng(0).normal(size=(2, config.num_tokens))
        metrics = probes.component_metrics(tabnsa, x, params, config)
        assert set(metrics) == expected, geometry
        assert all(np.isfinite(v) and v >= 0.0 for v in metrics.values()), geometry


def test_training_step_tape_fits_the_node_budget():
    config = default_config()
    params = init_model_params(config, 0)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(32, config.num_tokens)), rng.integers(0, 2, size=32)
    loss = weighted_cross_entropy(forward(x, params, config), y, np.array([0.9, 1.1]))
    assert tape_nodes(loss) <= TAPE_NODE_BUDGET


def test_tape_free_request_is_one_forward_call(monkeypatch):
    """The benchmark names its forward spans by the batch of each call
    through `model.forward` (which `training` imports): tiling must not add
    calls there."""
    config = default_config()
    params = init_model_params(config, 0)
    batches = []

    def counting(x, *args, _fn=forward, **kwargs):
        batches.append(np.shape(x)[0])
        return _fn(x, *args, **kwargs)

    monkeypatch.setattr(tabnsa.model, "forward", counting)
    monkeypatch.setattr(tabnsa.training, "forward", counting)
    x = np.random.default_rng(2).normal(size=(1024, config.num_tokens))
    assert tabnsa.training.predict_proba(params, config, x).shape == (1024, 2)
    assert batches == [1024]


def test_grad_mode_forward_is_one_untiled_pass():
    probes = load_probes()
    x = np.random.default_rng(3).normal(size=(300, 15))
    for geometry, over in PROBED_CONFIGS.items():
        config = default_config(**over)
        params = init_model_params(config, 0)
        calls = probes._capture(tabnsa, x, params, config)
        assert {name: len(c) for name, c in calls.items()} == {
            "project_qkv": 1, "compress_tokens": 2, "compression_scores": 1, "map_selection_scores": 1,
            "select_blocks": 1, "_per_query_attention": 2, "gated_combine": 1, "tabmixer_forward": 1,
        }, geometry
        assert calls["project_qkv"][0][0]["x"].shape[0] == 300
        assert tape_nodes(forward(x, params, config)) == tape_nodes(forward(x[:32], params, config)), geometry


def test_a_sharded_fit_steps_once_per_batch_on_the_calling_thread(monkeypatch):
    """perfbench counts steps and ends a timed repetition by wrapping
    `training.AdamW.step`: a step of two half-batch tapes is still one call
    there, made on the thread that called `fit`, and what that call raises
    ends the fit."""
    from test_training import make_split

    config = default_config()
    x, y = tabnsa.data.make_two_gaussians(120, config.num_tokens, seed=4)
    split = make_split(x, y)  # 84 training rows: batches of 32, 32 and 20
    steps = []
    step = tabnsa.training.AdamW.step

    def counting(opt):
        steps.append(threading.get_ident())
        step(opt)
        if len(steps) == 5:
            raise TimeoutError

    monkeypatch.setattr(tabnsa.training, "SHARD_FLOPS", 0)
    monkeypatch.setattr(tabnsa.forking, "usable_cores", lambda: 2)
    monkeypatch.setattr(tabnsa.model, "_TILE_POOL", None)
    monkeypatch.setattr(tabnsa.training.AdamW, "step", counting)
    params = init_model_params(config, 0)
    cfg = tabnsa.training.TrainConfig(max_epochs=1, patience=1)
    try:
        tabnsa.training.fit(params, config, split, cfg)
        assert steps == [threading.get_ident()] * 3
        with pytest.raises(TimeoutError):
            tabnsa.training.fit(params, config, split, dataclasses.replace(cfg, max_epochs=3, patience=3))
        assert steps == [threading.get_ident()] * 5
    finally:
        if tabnsa.model._TILE_POOL is not None:
            tabnsa.model._TILE_POOL.shutdown()
