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
from .geometry import Intrinsics, PoseSE3, Z_MIN

MAP_MAGIC = b"ACEGMAP2"
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


@dataclass
class MapCode:
    """Learnable token set representing one scene."""

    tokens: Tensor                # (n_tokens, d_map)
    scene_id: str = ""
    scale: float = 1.0            # scene units per meter, carried in the file header


@dataclass
class CoordPrediction:
    y: np.ndarray
    sigma: float


def init_map_code(n_tokens: int, d_map: int, seed: int, scene_id: str = "",
                  dtype=np.float32) -> MapCode:
    """Fresh code with i.i.d. N(0, 0.01^2) entries, deterministic per seed."""
    if n_tokens < 1 or d_map < 1:
        raise ValueError("map code dims must be >= 1")
    rng = np.random.default_rng(seed)
    tokens = rng.normal(0.0, 0.01, size=(n_tokens, d_map)).astype(dtype)
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


def laplace_nll_3d(pred: CoordPrediction, y_gt: np.ndarray) -> float:
    """log sigma + sqrt(2) * ||y - y_gt|| / sigma."""
    if pred.sigma <= 0:
        raise ValueError("sigma must be positive")
    r = float(np.linalg.norm(pred.y - np.asarray(y_gt)))
    return math.log(pred.sigma) + SQRT2 * r / pred.sigma


def laplace_nll_batch(y: Tensor, sigma: Tensor, y_gt: Tensor) -> Tensor:
    """Differentiable per-record NLL over the last coordinate axis."""
    r = ad.vecnorm(y - y_gt)
    return ad.log(sigma) + (SQRT2 * r) / sigma


def project_prediction(pred: CoordPrediction, K: Intrinsics, pose: PoseSE3,
                       pixel_gt: np.ndarray | None = None,
                       z_min: float = Z_MIN,
                       e_max: float = E_MAX_PX) -> tuple[np.ndarray, float, bool]:
    """Push (y, sigma_y) through the pinhole; first-order sigma propagation.

    sigma_x = sigma_y * f_avg / max(z, z_min). Validity requires the point
    in front of the camera and, when the supervising pixel is given, a
    reprojection error within e_max.
    """
    y_cam = pose.rotation.T @ (pred.y - pose.translation)
    z = float(y_cam[2])
    zc = max(z, z_min)
    x = np.array([K.fx * y_cam[0] / zc + K.cx, K.fy * y_cam[1] / zc + K.cy])
    sigma_x = pred.sigma * 0.5 * (K.fx + K.fy) / zc
    valid = z > z_min
    if valid and pixel_gt is not None:
        valid = bool(np.linalg.norm(x - np.asarray(pixel_gt)) <= e_max)
    return x, sigma_x, valid


def depth_prior_loss(pred: CoordPrediction, ray: np.ndarray, pose: PoseSE3,
                     d0: float) -> float:
    """NLL against a constant-distance target along the pixel ray."""
    if d0 <= 0:
        raise ValueError("d0 must be positive")
    target = pose.rotation @ (d0 * np.asarray(ray)) + pose.translation
    return laplace_nll_3d(pred, target)


def reprojection_nll_batch(y: Tensor, sigma: Tensor, rot: np.ndarray, trans: np.ndarray,
                           kvec: np.ndarray, pixel_gt: np.ndarray, d0: float,
                           z_min: float = Z_MIN,
                           e_max: float = E_MAX_PX) -> tuple[Tensor, np.ndarray]:
    """Differentiable mapping objective for a batch of supervised pixels.

    Valid records contribute the 2D Laplace NLL of the projected
    prediction; records behind the camera or with huge reprojection error
    fall back to the 3D NLL against the constant-distance prior target.
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
    """magic, scene id, scale, then the tokens as one float32 array."""
    with open(path, "wb") as fh:
        binio.write_magic(fh, MAP_MAGIC)
        binio.write_str(fh, code.scene_id)
        binio.write_f64(fh, code.scale)
        binio.write_array(fh, np.asarray(code.tokens.data, dtype=np.float32))


def load_map_code(path) -> MapCode:
    """Read a map code; raises binio.FormatError on a corrupt file."""
    with open(path, "rb") as fh:
        binio.read_magic(fh, MAP_MAGIC)
        scene_id = binio.read_str(fh)
        scale = binio.read_f64(fh)
        tokens = binio.read_array(fh)
    if tokens.dtype != np.float32 or tokens.ndim != 2:
        raise binio.FormatError(f"map tokens of {tokens.dtype} {tokens.shape}, expected float32 (n, d)")
    return MapCode(Tensor(tokens, requires_grad=True), scene_id=scene_id, scale=scale)
