"""Scene-agnostic coordinate regressor conditioned on per-scene map codes.

A patch embedding is projected to model width and passed through a stack of
cross-attention blocks that attend over the map-code tokens (an unordered
set: no positional encodings, so predictions are invariant to token
permutation). A 2-layer MLP head without normalization outputs the 3D
coordinate and a log-scale that is clamped and exponentiated into the
Laplace scale sigma.

`init_regressor` returns a plain name -> Tensor dict: `in_proj/{w,b}`, each
block's tensors under `block{i}/`, then `head/{w1,b1,w2,b2}`. That order fixes
the checkpoint records and the AdamW moment names m{i}/v{i}; keep it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import binio
from .autodiff import Tensor
from .geometry import Z_MIN

MAP_MAGIC = b"ACEGMAP4"
SIGMA_CLAMP = 6.0
E_MAX_PX = 1000.0  # reprojection error beyond this marks a prediction invalid


@dataclass
class RegressorConfig:
    d_feat: int = 32
    d_model: int = 64
    n_blocks: int = 2
    n_heads: int = 2
    d_map: int = 64
    head_hidden: int = 64
    ffn_mult: int = 4

    def __post_init__(self):
        for name in ("d_feat", "d_model", "n_blocks", "n_heads", "d_map", "head_hidden",
                     "ffn_mult"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads:
            raise ValueError("n_heads must divide d_model")


@dataclass
class MapCode:
    """Learnable token set representing one scene."""

    tokens: Tensor                # (n_tokens, d_map)
    scene_id: str = ""


def init_map_code(n_tokens: int, d_map: int, seed: int, scene_id: str = "") -> MapCode:
    """Fresh code with i.i.d. N(0, 0.01^2) entries, deterministic per seed."""
    if n_tokens < 1 or d_map < 1:
        raise ValueError("map code dims must be >= 1")
    rng = np.random.default_rng(seed)
    tokens = rng.normal(0.0, 0.01, size=(n_tokens, d_map)).astype(np.float32)
    return MapCode(Tensor(tokens, requires_grad=True), scene_id=scene_id)


def init_regressor(cfg: RegressorConfig, seed: int, dtype=np.float32) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    ad.init_linear(params, "in_proj", "", cfg.d_model, cfg.d_feat, rng, dtype)
    for i in range(cfg.n_blocks):
        ad.init_attention_block(params, f"block{i}", cfg.d_model, cfg.d_map, cfg.ffn_mult,
                                rng, dtype)
    ad.init_linear(params, "head", "1", cfg.head_hidden, cfg.d_model, rng, dtype)
    ad.init_linear(params, "head", "2", 4, cfg.head_hidden, rng, dtype)
    return params


def regress_batch(params: dict[str, Tensor], cfg: RegressorConfig, emb: Tensor,
                  codes: Tensor) -> tuple[Tensor, Tensor]:
    """Forward pass over batched embeddings.

    emb is (..., d_feat) and codes (..., m, d_map) with aligned leading
    dims; returns (y (..., 3), sigma (...)).
    """
    if emb.shape[-1] != cfg.d_feat:
        raise ValueError(f"embedding dim {emb.shape[-1]} != configured {cfg.d_feat}")
    if codes.shape[-1] != cfg.d_map:
        raise ValueError(f"map token dim {codes.shape[-1]} != configured {cfg.d_map}")
    x = ad.linear(emb, params["in_proj/w"], params["in_proj/b"])
    for i in range(cfg.n_blocks):
        x = ad.cross_attention(x, codes, params, f"block{i}", cfg.n_heads)
    hidden = ad.gelu(ad.linear(x, params["head/w1"], params["head/b1"]))
    out = ad.linear(hidden, params["head/w2"], params["head/b2"])
    y = out[..., :3]
    s = ad.clamp(out[..., 3], -SIGMA_CLAMP, SIGMA_CLAMP)
    return y, ad.exp(s)


# -- Laplace negative log-likelihoods --------------------------------------

SQRT2 = math.sqrt(2.0)


def laplace_nll_batch(y: Tensor, sigma: Tensor, y_gt: Tensor) -> Tensor:
    """Differentiable per-record 3D NLL over the last coordinate axis:
    log sigma + sqrt(2) * ||y - y_gt|| / sigma."""
    r = ad.vecnorm(y - y_gt)
    return ad.log(sigma) + (SQRT2 * r) / sigma


def reprojection_nll_batch(y: Tensor, sigma: Tensor, rot: np.ndarray, trans: np.ndarray,
                           kvec: np.ndarray, pixel_gt: np.ndarray, d0: float,
                           z_min: float = Z_MIN,
                           e_max: float = E_MAX_PX) -> tuple[Tensor, np.ndarray]:
    """Differentiable mapping objective for a batch of supervised pixels.

    Each prediction (y, sigma) is pushed through its pinhole with
    first-order sigma propagation, sigma_x = sigma * f_avg / max(z, z_min).
    A record is valid when z > z_min and its reprojection error is within
    e_max; it then contributes the 2D Laplace NLL of the projected
    prediction. Any other record falls back to the 3D NLL against the
    depth-prior target: the point at distance d0 along the pixel's ray.
    Returns (per-record loss vector, validity mask).
    """
    n = y.shape[0]
    rot = np.asarray(rot, dtype=y.dtype)           # (n, 3, 3) world-from-camera
    trans = np.asarray(trans, dtype=y.dtype)       # (n, 3)
    kvec = np.asarray(kvec, dtype=y.dtype)         # (n, 4) fx fy cx cy
    pixel_gt = np.asarray(pixel_gt, dtype=y.dtype)

    rot_t = np.ascontiguousarray(np.swapaxes(rot, 1, 2))
    y_cam = ad.reshape(ad.matmul(Tensor(rot_t), ad.reshape(y - Tensor(trans), (n, 3, 1))), (n, 3))
    z = y_cam[:, 2]
    zc = ad.clamp(z, z_min, None)
    fx, fy, cx, cy = kvec[:, 0], kvec[:, 1], kvec[:, 2], kvec[:, 3]
    px = Tensor(fx) * y_cam[:, 0] / zc + Tensor(cx)
    py = Tensor(fy) * y_cam[:, 1] / zc + Tensor(cy)
    pix = ad.stack([px, py], axis=-1)
    favg = 0.5 * (fx + fy)
    sigma_x = sigma * Tensor(favg) / zc
    nll_2d = ad.log(sigma_x) + (SQRT2 * ad.vecnorm(pix - Tensor(pixel_gt))) / sigma_x

    reproj_err = np.linalg.norm(pix.data - pixel_gt, axis=1)
    valid = (z.data > z_min) & (reproj_err <= e_max)

    rays = np.stack([(pixel_gt[:, 0] - cx) / fx,
                     (pixel_gt[:, 1] - cy) / fy,
                     np.ones(n, dtype=y.dtype)], axis=1)
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    targets = np.einsum("nij,nj->ni", rot, d0 * rays) + trans
    nll_prior = laplace_nll_batch(y, sigma, Tensor(targets.astype(y.dtype)))

    mask = valid.astype(y.dtype)
    loss = Tensor(mask) * nll_2d + Tensor(1.0 - mask) * nll_prior
    return loss, valid


# -- map code file format ---------------------------------------------------

def save_map_code(path, code: MapCode) -> None:
    """The text record `scene`, then the tokens as one float32 record."""
    binio.save_records(path, MAP_MAGIC, {"scene": code.scene_id,
                                         "tokens": np.asarray(code.tokens.data, np.float32)})


def load_map_code(path) -> MapCode:
    """Read a map code; raises binio.FormatError on a corrupt file, or on tokens
    that are not a finite, non-empty float32 matrix, as `init_map_code` makes."""
    named = binio.load_records(path, MAP_MAGIC)
    scene_id = binio.text(named, "scene")
    dims = binio.check_records(named, [("tokens", np.float32, ("n", "d"), None, None)])
    if not (dims["n"] and dims["d"]):
        raise binio.FormatError(f"record 'tokens' is empty: {dims['n']} by {dims['d']}")
    return MapCode(Tensor(named["tokens"], requires_grad=True), scene_id=scene_id)
