"""Model assembly: feature embedding, stacked attention/mixer blocks with a
choice of fusion, mean pooling, and a small MLP head.

Every trainable tensor lives in one flat dict keyed by a stable dotted path
("blocks.0.nsa.w_q", "head.b2", ...) so gradient checks, optimizers, and
serialization address parameters uniformly. `param_specs` states each
path's shape and initializer once; initialization, the `param_shapes`
manifest, parameter counts and checkpoint loading all read it.

FLOPs accounting conventions (forward pass only):
  - multiply-accumulate = 2 FLOPs; a matmul costs 2 * output elements *
    contraction length
  - element-wise add / multiply / divide = 1 FLOP per output element
  - activations (GELU, SiLU, sigmoid) = 1 FLOP per element
  - softmax = 5 FLOPs per logit element, masked or unmasked alike; the
    additive-mask arithmetic is folded into that flat rate
  - layer norm = 5 FLOPs per normalized element
  - mean over an axis of length k = k FLOPs per output element
  - index gathers, sorts, comparisons, and mask construction are free
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from itertools import zip_longest

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nsa_attention import NSAConfig, nsa_forward, nsa_param_specs
from .tabmixer import tabmixer_forward, tabmixer_param_specs

FUSION_VARIANTS = ("o", "m", "c", "r")
CHECKPOINT_VERSION = 1

MAC_FLOPS = 2
SOFTMAX_FLOPS_PER_ELEMENT = 5
NORM_FLOPS_PER_ELEMENT = 5
ACT_FLOPS_PER_ELEMENT = 1

# rows per pass of a tape-free forward
TILE_ROWS = 128

# threads that run the tiles of a tape-free forward, built on first use and
# dropped in a forked child, whose copy of the pool has no threads
_TILE_POOL: ThreadPoolExecutor | None = None
_TILE_POOL_LOCK = threading.Lock()


def _drop_tile_pool() -> None:
    global _TILE_POOL, _TILE_POOL_LOCK
    _TILE_POOL, _TILE_POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_tile_pool)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _tile_pool() -> ThreadPoolExecutor | None:
    """The shared tile pool, one thread per usable core; None on one core.
    A tile task never submits work to it, so concurrent callers cannot
    deadlock on it."""
    global _TILE_POOL
    with _TILE_POOL_LOCK:
        if _TILE_POOL is None and (cores := _usable_cores()) > 1:
            _TILE_POOL = ThreadPoolExecutor(cores, thread_name_prefix="tabnsa-tile")
        return _TILE_POOL


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description. `num_classes` is ignored when `regression`
    is set; the head then emits a single linear output."""

    nsa: NSAConfig
    num_tokens: int
    num_classes: int = 2
    regression: bool = False
    hidden_head: int = 64
    num_blocks: int = 1
    fusion: str = "o"
    feature_id_embedding: bool = True

    def __post_init__(self):
        if self.num_tokens < 1:
            raise ValueError("num_tokens must be >= 1")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.hidden_head < 1:
            raise ValueError("hidden_head must be >= 1")
        if self.fusion not in FUSION_VARIANTS:
            raise ValueError(f"unknown fusion variant {self.fusion!r}; expected one of {FUSION_VARIANTS}")
        if not self.regression and self.num_classes < 2:
            raise ValueError("classification needs num_classes >= 2")
        n_eff = self.nsa.effective_selected(self.num_tokens)
        if n_eff < self.nsa.num_selected:
            warnings.warn(f"num_selected {self.nsa.num_selected} > {n_eff} selection blocks; clamping", stacklevel=3)

    @property
    def output_dim(self) -> int:
        return 1 if self.regression else self.num_classes

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        nsa = NSAConfig(**d["nsa"])
        rest = {k: v for k, v in d.items() if k != "nsa"}
        return ModelConfig(nsa=nsa, **rest)


def _subview(params: dict, prefix: str) -> dict:
    # shares the underlying Tensors, so gradients land in the parent dict
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


def param_specs(config: ModelConfig) -> dict[str, tuple]:
    """The parameter layout: path -> (shape, init) in serialization order,
    with init as in `nsa_attention.nsa_param_specs`.

    The feature-identity table is treated as a linear map from a one-hot
    feature index, so its fan-in is num_tokens.
    """
    d, n = config.nsa.dim, config.num_tokens
    hid, out = config.hidden_head, config.output_dim
    specs = {"embed.weight": ((d,), 1), "embed.bias": ((d,), 0.0)}
    if config.feature_id_embedding:
        specs["feature_id"] = ((n, d), n)
    block = {"nsa." + k: v for k, v in nsa_param_specs(config.nsa).items()}
    block.update({"mixer." + k: v for k, v in tabmixer_param_specs(n, d).items()})
    if config.fusion == "m":
        block["fuse.w1"] = ((d, d), d)
        block["fuse.b1"] = ((d,), 0.0)
        block["fuse.w2"] = ((d, d), d)
        block["fuse.b2"] = ((d,), 0.0)
    elif config.fusion == "c":
        block["fuse.w"] = ((2 * d, d), 2 * d)
        block["fuse.b"] = ((d,), 0.0)
    for i in range(config.num_blocks):
        specs.update({f"blocks.{i}.{k}": v for k, v in block.items()})
    specs["head.w1"] = ((d, hid), d)
    specs["head.b1"] = ((hid,), 0.0)
    specs["head.w2"] = ((hid, out), hid)
    specs["head.b2"] = ((out,), 0.0)
    return specs


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Path -> shape manifest, in serialization order."""
    return {path: shape for path, (shape, _) in param_specs(config).items()}


def init_model_params(config: ModelConfig, rng: np.random.Generator | int) -> dict[str, Tensor]:
    """Fresh trainable leaves for `param_specs(config)`."""
    return ad.make_leaves(param_specs(config), rng)


def embed_features(x: np.ndarray, params: dict) -> Tensor:
    """(B, N) feature matrix -> (B, N, D) tokens: x_i * W_e + b_e, plus the
    per-feature identity vector when the table is present."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (batch, features) matrix, got shape {x.shape}")
    _check_finite(x)
    tokens = Tensor(x[:, :, None]) * params["embed.weight"] + params["embed.bias"]
    if "feature_id" in params:
        fid = params["feature_id"]
        if fid.shape[0] != x.shape[1]:
            raise ValueError(f"feature_id table has {fid.shape[0]} rows, input has {x.shape[1]} features")
        tokens = tokens + fid
    return tokens


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("feature matrix contains non-finite values")


def fuse(y: Tensor, z: Tensor | None, variant: str, params: dict) -> Tensor:
    """Combine attention output y with mixer output z.

    o: y + z. m: two-layer GELU MLP on y + z. c: linear on concat(y, z).
    r: the mixer runs on y itself (z is ignored and may be None); the
    mixer's internal skip connection supplies the +y residual, so zeroed
    mixer MLPs make this variant return y exactly.
    """
    if variant == "o":
        return y + z
    if variant == "m":
        s = y + z
        hidden = ad.gelu(ad.linear(s, params["fuse.w1"], params["fuse.b1"]))
        return ad.linear(hidden, params["fuse.w2"], params["fuse.b2"])
    if variant == "c":
        cat = ad.concatenate([y, z], axis=-1)
        return ad.linear(cat, params["fuse.w"], params["fuse.b"])
    if variant == "r":
        return tabmixer_forward(y, _subview(params, "mixer."))
    raise ValueError(f"unknown fusion variant {variant!r}; expected one of {FUSION_VARIANTS}")


def mean_pool(t: Tensor) -> Tensor:
    """(B, N, D) -> (B, D) arithmetic mean over the token axis."""
    return t.mean(axis=1)


def forward(x: np.ndarray, params: dict, config: ModelConfig) -> Tensor:
    """Logits (B, C), or (B, 1) for regression.

    With no tape recorded, the rows run in tiles of `TILE_ROWS`, one tile
    per usable core at a time, so the peak memory of a forward is set by
    the config and the core count, not by B. Tile edges do not depend on
    the core count, so neither do the logits.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.num_tokens:
        raise ValueError(f"expected input shape (batch, {config.num_tokens}), got {x.shape}")
    if ("feature_id" in params) != config.feature_id_embedding:
        raise ValueError("feature_id table presence does not match config.feature_id_embedding")
    if ad._grad_enabled() or x.shape[0] <= TILE_ROWS:
        return _forward(x, params, config)
    _check_finite(x)  # before any tile runs, so a bad last row fails at once
    tiles = [x[i:i + TILE_ROWS] for i in range(0, x.shape[0], TILE_ROWS)]
    pool = _tile_pool()
    logits = (pool.map if pool else map)(partial(_forward_tile, params=params, config=config), tiles)
    return Tensor(np.concatenate(list(logits)))


def _forward_tile(x: np.ndarray, params: dict, config: ModelConfig) -> np.ndarray:
    with ad.no_grad():  # the tape switch is per thread
        return _forward(x, params, config).data


def _forward(x: np.ndarray, params: dict, config: ModelConfig) -> Tensor:
    t = embed_features(x, params)
    for i in range(config.num_blocks):
        block = _subview(params, f"blocks.{i}.")
        y = nsa_forward(t, _subview(block, "nsa."), config.nsa)
        if config.fusion == "r":
            t = fuse(y, None, "r", block)
        else:
            z = tabmixer_forward(t, _subview(block, "mixer."))
            t = fuse(y, z, config.fusion, block)
    pooled = mean_pool(t)
    hidden = ad.gelu(ad.linear(pooled, params["head.w1"], params["head.b1"]))
    return ad.linear(hidden, params["head.w2"], params["head.b2"])


def count_params(config: ModelConfig) -> int:
    """Exact trainable-scalar count; itemization available via param_shapes."""
    return sum(int(np.prod(s)) for s in param_shapes(config).values())


def _softmax_attention_flops(b: int, h: int, n: int, s: int, dh: int) -> int:
    """Logits + scale + softmax + weighted value sum: b·h·n queries of width
    dh, each over s visible keys."""
    return (
        MAC_FLOPS * b * h * n * s * dh
        + b * h * n * s
        + SOFTMAX_FLOPS_PER_ELEMENT * b * h * n * s
        + MAC_FLOPS * b * h * n * dh * s
    )


def count_flops(config: ModelConfig, batch_size: int) -> tuple[int, dict[str, int]]:
    """Forward-pass FLOPs under the module's documented conventions.

    Returns (total, breakdown): the total is the sum of the breakdown's
    per-site components, each summed over all blocks.
    """
    nsa = config.nsa
    b = int(batch_size)
    n = config.num_tokens
    d, h, dh = nsa.dim, nsa.heads, nsa.head_dim
    hd = h * dh
    l = nsa.compress_block
    kk = l * dh
    m = nsa.n_compressed(n)
    n_slc = nsa.n_select_blocks(n)
    s_sel = nsa.effective_selected(n) * nsa.select_block
    w_eff = min(nsa.window, n)
    blocks = config.num_blocks
    mac = MAC_FLOPS
    act = ACT_FLOPS_PER_ELEMENT

    comp: dict[str, int] = {}
    comp["embedding"] = 2 * b * n * d + (b * n * d if config.feature_id_embedding else 0)
    comp["qkv_proj"] = blocks * 3 * mac * b * n * d * hd

    phi = 0
    if n < l:
        phi += b * h * 1 * l * dh  # zero-pad keep-mask multiply
    phi += b * h * m * l * dh  # position add
    phi += mac * b * h * m * kk * kk + b * h * m * kk + act * b * h * m * kk
    phi += mac * b * h * m * dh * kk + b * h * m * dh
    comp["compression_phi"] = blocks * 2 * phi  # key and value compressors

    comp["attention_compression"] = blocks * _softmax_attention_flops(b, h, n, m, dh)
    comp["selection_scoring"] = blocks * (mac * b * h * n * m * n_slc + b * n * n_slc * h)
    comp["attention_selection"] = blocks * _softmax_attention_flops(b, h, n, s_sel, dh)
    comp["attention_window"] = blocks * _softmax_attention_flops(b, h, n, w_eff, dh)
    comp["gate_mlp"] = blocks * (mac * b * n * d * 3 + b * n * 3 + act * b * n * 3)
    comp["branch_combine"] = blocks * 5 * b * n * hd
    comp["output_proj"] = blocks * (mac * b * n * hd * d + b * n * d)

    norm = NORM_FLOPS_PER_ELEMENT
    mixer = (
        norm * b * d * n + mac * b * d * n * n + b * d * n + act * b * d * n  # token path
        + norm * b * n * d + mac * b * n * d * d + b * n * d  # channel path
        + b * n * d + act * b * n * d + b * n * d  # multiply, SiLU, skip
    )
    comp["tabmixer"] = blocks * mixer

    if config.fusion == "o":
        fus = b * n * d
    elif config.fusion == "m":
        fus = b * n * d + mac * b * n * d * d + b * n * d + act * b * n * d + mac * b * n * d * d + b * n * d
    elif config.fusion == "c":
        fus = mac * b * n * (2 * d) * d + b * n * d
    else:  # r: the mixer pass on y is already charged under tabmixer
        fus = 0
    comp["fusion"] = blocks * fus

    comp["pool"] = b * d * n
    hid, c_out = config.hidden_head, config.output_dim
    comp["head"] = mac * b * d * hid + b * hid + act * b * hid + mac * b * hid * c_out + b * c_out

    return sum(comp.values()), comp


def dense_attention_flops(config: ModelConfig, batch_size: int) -> int:
    """Cost of full attention over all N keys per query, same conventions,
    summed over blocks: the baseline for the sparse branches' components of
    `count_flops`, compression (phi included), selection (scoring included)
    and window."""
    nsa, n = config.nsa, config.num_tokens
    return config.num_blocks * _softmax_attention_flops(int(batch_size), nsa.heads, n, n, nsa.head_dim)


def save_checkpoint(path: str, params: dict[str, Tensor], config: ModelConfig) -> None:
    """One JSON header line (version, config, parameter manifest) followed by
    the flat parameter vector as little-endian float64, in manifest order."""
    manifest = [{"path": key, "shape": list(t.shape)} for key, t in params.items()]
    header = {"version": CHECKPOINT_VERSION, "config": config.to_dict(), "params": manifest}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(ad.flatten(t.data for t in params.values()).astype("<f8").tobytes())


def load_checkpoint(path: str) -> tuple[dict[str, Tensor], ModelConfig]:
    """Read a `save_checkpoint` file; its parameter manifest must be exactly
    `param_shapes` of its own config."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    config = ModelConfig.from_dict(header["config"])
    expected = list(param_shapes(config).items())
    stated = [(entry["path"], tuple(int(s) for s in entry["shape"])) for entry in header["params"]]
    for got, want in zip_longest(stated, expected, fillvalue=(None, None)):
        if got != want:
            message = f"checkpoint parameter {got[0]!r} {got[1]} disagrees with its config"
            raise ValueError(f"{message}, which expects {want[0]!r} {want[1]}")
    nbytes = 8 * sum(int(np.prod(shape)) for _, shape in expected)
    if len(blob) < nbytes:
        raise ValueError("checkpoint payload truncated")
    if len(blob) > nbytes:
        raise ValueError("checkpoint payload has trailing bytes")
    params = {name: Tensor(np.empty(shape), requires_grad=True) for name, shape in expected}
    ad.unflatten(params, np.frombuffer(blob, dtype="<f8"))
    return params, config
