"""Isolated forward and backward timings of the attention and mixer components.

One model forward on a real batch records the arguments of every call into
the `nsa_attention` stage functions and the mixer. Each component is then
replayed on its own: its tensor inputs become fresh leaves, so a backward
from the component's outputs runs only through that component. Component
names and their work come from `model.count_flops`; a breakdown key the map
below needs but `count_flops` lacks raises, so a rename cannot drop a layer.
"""

from __future__ import annotations

import inspect
import statistics
import time
import tracemalloc

import numpy as np

# component -> count_flops breakdown keys whose sum is its forward work;
# gated_combine does the gate MLP, the branch mix and the output projection
FLOP_KEYS = {
    "qkv_proj": ("qkv_proj",),
    "compression_phi": ("compression_phi",),
    "attention_compression": ("attention_compression",),
    "selection_scoring": ("selection_scoring",),
    "attention_selection": ("attention_selection",),
    "attention_window": ("attention_window",),
    "gated_combine": ("gate_mlp", "branch_combine", "output_proj"),
    "tabmixer": ("tabmixer",),
}
# selection indices come from detached scores, so scoring has no backward
NO_BACKWARD = ("selection_scoring",)
CAPTURED = (
    "project_qkv", "compress_tokens", "compression_scores", "map_selection_scores",
    "select_blocks", "_per_query_attention", "gated_combine",
)
MIN_REPS = 3
MAX_REPS = 200
MIN_PROBE_S = 0.25
MIB = 1024.0 * 1024.0


def component_flops(model, config, batch: int) -> dict[str, int]:
    _, breakdown = model.count_flops(config, batch)
    missing = sorted({k for keys in FLOP_KEYS.values() for k in keys} - set(breakdown))
    if missing:
        raise KeyError(f"count_flops breakdown lacks {missing}; update perfbench/probes.py FLOP_KEYS")
    return {c: sum(breakdown[k] for k in keys) for c, keys in FLOP_KEYS.items()}


def _capture(tabnsa, x, params, config) -> dict[str, list[tuple[dict, object]]]:
    """Run one forward and return, per stage function, its bound arguments
    and result for every call, in call order."""
    nsa, model = tabnsa.nsa_attention, tabnsa.model
    calls: dict[str, list[tuple[dict, object]]] = {}
    patched = [(nsa, name) for name in CAPTURED] + [(model, "tabmixer_forward")]
    originals = []
    for owner, name in patched:
        fn = getattr(owner, name)
        sig = inspect.signature(fn)

        def recording(*args, _fn=fn, _sig=sig, _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            calls.setdefault(_name, []).append((dict(_sig.bind(*args, **kwargs).arguments), result))
            return result

        originals.append((owner, name, fn))
        setattr(owner, name, recording)
    try:
        model.forward(x, params, config)
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    return calls


def _replays(tabnsa, calls) -> dict[str, tuple[dict, object]]:
    """component -> (tensor inputs, function of those inputs returning outputs)."""
    nsa, ad = tabnsa.nsa_attention, tabnsa.autodiff
    (qkv, (q, k, v)), = calls["project_qkv"]
    (cmp_k, _), (cmp_v, v_cmp) = calls["compress_tokens"]
    (scores, _), = calls["compression_scores"]
    (mapping, _), = calls["map_selection_scores"]
    (select, _), = calls["select_blocks"]
    (slc_att, _), (win_att, _) = calls["_per_query_attention"]
    (gated, _), = calls["gated_combine"]
    (mixer, _), = calls["tabmixer_forward"]
    cfg = qkv["cfg"]

    def attention_window(t):
        idx, _ = nsa.window_indices(k.shape[2], cfg.window, cfg.causal)
        out, _ = nsa._per_query_attention(
            t["q"], ad.gather_blocks(t["k"], idx), ad.gather_blocks(t["v"], idx), win_att["valid"]
        )
        return (out,)

    def attention_selection(t):
        _, k_slc, v_slc, _, _ = nsa.select_blocks(select["p_slc"], t["k"], t["v"], cfg, select["block_visible"])
        out, _ = nsa._per_query_attention(t["q"], k_slc, v_slc, slc_att["valid"])
        return (out,)

    return {
        "qkv_proj": ({"x": qkv["x"]}, lambda t: nsa.project_qkv(t["x"], qkv["params"], cfg)),
        "compression_phi": (
            {"k": cmp_k["kv"], "v": cmp_v["kv"]},
            lambda t: (nsa.compress_tokens(t["k"], cfg, cmp_k["phi"]), nsa.compress_tokens(t["v"], cfg, cmp_v["phi"])),
        ),
        "attention_compression": (
            {"q": scores["q"], "k_cmp": scores["k_cmp"], "v_cmp": v_cmp},
            lambda t: (nsa.compression_scores(t["q"], t["k_cmp"], scores["valid"]) @ t["v_cmp"],),
        ),
        "selection_scoring": ({}, lambda t: (nsa.map_selection_scores(**mapping),)),
        "attention_selection": ({"q": q, "k": k, "v": v}, attention_selection),
        "attention_window": ({"q": q, "k": k, "v": v}, attention_window),
        "gated_combine": (
            {"b0": gated["branches"][0], "b1": gated["branches"][1], "b2": gated["branches"][2],
             "x": gated["x"]},
            lambda t: nsa.gated_combine((t["b0"], t["b1"], t["b2"]), gated["params"], t["x"])[:1],
        ),
        "tabmixer": ({"x": mixer["x"]}, lambda t: (tabnsa.tabmixer.tabmixer_forward(t["x"], mixer["params"]),)),
    }


def _run_once(fn, leaves, params, cotangents, backward: bool):
    for p in params.values():
        p.grad = None
    for leaf in leaves.values():
        leaf.grad = None
    t0 = time.perf_counter()
    outs = fn(leaves)
    t1 = time.perf_counter()
    if backward:
        for out, g in zip(outs, cotangents):
            out.backward(g)
    t2 = time.perf_counter()
    return outs, t1 - t0, t2 - t1


def component_metrics(tabnsa, x, params, config) -> dict[str, float]:
    """fwd_ms, bwd_ms, gflops_per_s and peak_alloc_mib per component at
    the batch `x`, keyed as in BENCHMARK.json's per_layer list."""
    Tensor = tabnsa.autodiff.Tensor
    flops = component_flops(tabnsa.model, config, x.shape[0])
    replays = _replays(tabnsa, _capture(tabnsa, x, params, config))
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    for comp, (inputs, fn) in replays.items():
        backward = comp not in NO_BACKWARD
        leaves = {name: Tensor(np.array(t.data, copy=True), requires_grad=True) for name, t in inputs.items()}
        outs, _, _ = _run_once(fn, leaves, params, (), False)
        cotangents = [rng.standard_normal(o.shape) for o in outs] if backward else []
        fwd, bwd = [], []
        start = time.perf_counter()
        while len(fwd) < MIN_REPS or (time.perf_counter() - start < MIN_PROBE_S and len(fwd) < MAX_REPS):
            _, f, b = _run_once(fn, leaves, params, cotangents, backward)
            fwd.append(f)
            bwd.append(b)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            outs = _run_once(fn, leaves, params, cotangents, backward)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        del outs
        prefix = comp if comp == "tabmixer" else f"nsa_attention.{comp}"
        fwd_s = statistics.median(fwd)
        out[f"{prefix}.fwd_ms"] = fwd_s * 1e3
        if backward:
            out[f"{prefix}.bwd_ms"] = statistics.median(bwd) * 1e3
        out[f"{prefix}.gflops_per_s"] = flops[comp] / fwd_s / 1e9
        out[f"{prefix}.peak_alloc_mib"] = peak / MIB
    return out
