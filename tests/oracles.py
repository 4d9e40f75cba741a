"""Reference implementations the tests compare the package against.

`GRADCHECK_CASES` lists one small random configuration per differentiable
op; `check_config` compares the engine's gradients for one of them with
central finite differences (`numeric_grad`) in float64. `project` is the
one-point pinhole that `geometry.project_many` vectorizes. `trajectory` and
`render_view` are the frame-by-frame and view-by-view forms of
`synthworld.gen_trajectory` and `synthworld.render_view`, which must match
them bit for bit. `make_observations` is the row table that
`synthworld.ViewRender.observations` builds from a view's columns.
`refine_pose` is the damped Levenberg-Marquardt form of
`geometry.refine_pose`, the reference for the cost its Gauss-Newton ends at.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from screloc import autodiff as ad
from screloc import regressor as rg
from screloc import synthworld as sw
from screloc.autodiff import Tensor
from screloc.geometry import (_RIDGE6, Z_MIN, Intrinsics, Matches, PoseSE3, _pixels, look_at,
                              project_many, rodrigues)


def numeric_grad(fn: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
    return float(np.max(np.abs(a - n) / denom))


def project(K: Intrinsics, pose: PoseSE3, y_world: np.ndarray) -> tuple[np.ndarray, float]:
    """Project one world point; returns (pixel, z_cam). Caller checks z_cam."""
    y_cam = pose.rotation.T @ (np.asarray(y_world, dtype=np.float64) - pose.translation)
    z = float(y_cam[2])
    zsafe = z if abs(z) > 1e-12 else 1e-12
    px = K.fx * y_cam[0] / zsafe + K.cx
    py = K.fy * y_cam[1] / zsafe + K.cy
    return np.array([px, py]), z


def _visible(scene: sw.Scene, pose: PoseSE3, K: Intrinsics, image_size):
    w, h = image_size
    (pix,), (cam,) = project_many(K, [pose], scene.points)
    ok = ((cam[:, 2] > Z_MIN) & (pix[:, 0] >= 0) & (pix[:, 0] < w)
          & (pix[:, 1] >= 0) & (pix[:, 1] < h))
    return pix, cam, ok


def trajectory(scene: sw.Scene, cfg: sw.WorldConfig, seed: int, n_frames: int) -> list[PoseSE3]:
    """The jittered orbit drawn and checked one frame at a time: an attempt
    stops drawing at its first frame that sees fewer than cfg.min_visible points."""
    rng = np.random.default_rng(seed)
    K = cfg.intrinsics()
    center = scene.centroid
    base_radius = 1.1 * float(np.linalg.norm(np.array(scene.box)))
    for _ in range(32):
        phase = rng.uniform(0, 2 * np.pi)
        step = rng.uniform(0.03, 0.05)
        radius = base_radius * rng.uniform(0.9, 1.15)
        height = rng.uniform(0.1, 0.5) * scene.box[2]
        frames = []
        for i in range(n_frames):
            ang = phase + step * i
            jitter = 0.01 * radius * rng.uniform(-1.0, 1.0, size=3)
            cam = center + np.array([radius * np.cos(ang), radius * np.sin(ang), height]) + jitter
            target = center + 0.08 * np.array(scene.box) * rng.uniform(-1.0, 1.0, size=3)
            pose = look_at(cam, target)
            if np.count_nonzero(_visible(scene, pose, K, cfg.image_size)[2]) < cfg.min_visible:
                break
            frames.append(pose)
        else:
            return frames
    raise RuntimeError("could not satisfy the visibility constraint")


def render_view(scene: sw.Scene, pose: PoseSE3, cfg: sw.WorldConfig, oracle: sw.FeatureOracle,
                condition: float, noise_seed: int):
    """(point indices, pixels, float32 embeddings) of one view: the visible
    points' F(a) + alpha * condition * G(a) + beta * B(view direction) plus
    normal(0, sigma_noise) noise from default_rng(noise_seed)."""
    pix, cam, ok = _visible(scene, pose, cfg.intrinsics(), cfg.image_size)
    idx = np.flatnonzero(ok)
    f = np.tanh(scene.latents @ oracle.w_f.T + oracle.b_f)
    g = np.tanh(scene.latents @ oracle.w_g.T + oracle.b_g)
    dirs = cam[idx] / np.linalg.norm(scene.points[idx] - pose.translation, axis=1, keepdims=True)
    e = f[idx] + oracle.alpha * condition * g[idx]
    e = e + oracle.beta * np.tanh(dirs @ oracle.w_b.T)
    e = e + np.random.default_rng(noise_seed).normal(0, oracle.sigma_noise, size=e.shape)
    return idx, pix[idx], e.astype(np.float32)


def make_observations(points: np.ndarray, point_index: np.ndarray, pixels: np.ndarray,
                      embeddings: np.ndarray) -> np.ndarray:
    """The read-only structured table of one record per patch (pixel (2,) f8,
    embedding (d,) f4, point_index u4, y_world (3,) f8), y_world = points[point_index],
    of patches of the given scene points, pixels (n, 2) and embeddings (n, d). Its
    `np.record` dtype gives a row its fields as attributes."""
    table = np.empty(len(point_index), dtype=(np.record, [
        ("pixel", "<f8", (2,)), ("embedding", "<f4", (embeddings.shape[1],)),
        ("point_index", "<u4"), ("y_world", "<f8", (3,))]))
    table["point_index"] = point_index
    np.take(points, point_index, axis=0, out=table["y_world"])
    table["pixel"] = pixels
    table["embedding"] = embeddings
    table.flags.writeable = False
    return table


def check_config(build: Callable[[dict[str, Tensor]], Tensor],
                 inputs: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between analytic and numeric grads over all inputs."""
    tensors = {k: Tensor(v.astype(np.float64), requires_grad=True) for k, v in inputs.items()}
    loss = build(tensors)
    ad.backward(loss)
    worst = 0.0
    for key, base in inputs.items():

        def scalar_fn(x, key=key):
            ts = {k: Tensor(v.astype(np.float64)) for k, v in inputs.items()}
            ts[key] = Tensor(x)
            return float(build(ts).data)

        num = numeric_grad(scalar_fn, base.astype(np.float64), eps=eps)
        analytic = tensors[key].grad
        if analytic is None:
            analytic = np.zeros_like(base, dtype=np.float64)
        worst = max(worst, max_rel_error(analytic, num))
    return worst


def _weighted_sum(out: Tensor, w: np.ndarray) -> Tensor:
    return ad.tsum(out * Tensor(w))


def _elementwise_case(op, positive=False, bounded=False):
    def make(rng: np.random.Generator):
        x = rng.normal(size=(3, 4))
        if positive:
            x = np.abs(x) + 0.5
        if bounded:
            x = np.clip(x, -2.5, 2.5)
        w = rng.normal(size=(3, 4))
        return lambda t: _weighted_sum(op(t["x"]), w), {"x": x}

    return make


def _binary_case(op, safe_denominator=False):
    def make(rng: np.random.Generator):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))  # exercises broadcasting
        if safe_denominator:
            b = np.sign(b) * (np.abs(b) + 0.5)
        w = rng.normal(size=(3, 4))
        return lambda t: _weighted_sum(op(t["a"], t["b"]), w), {"a": a, "b": b}

    return make


def _matmul_case(rng: np.random.Generator):
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(4, 5))
    w = rng.normal(size=(2, 3, 5))
    return lambda t: _weighted_sum(ad.matmul(t["a"], t["b"]), w), {"a": a, "b": b}


def _linear_case(x_shape: tuple[int, ...], x_requires_grad: bool = True, bias: bool = True):
    def make(rng: np.random.Generator):
        x = rng.normal(size=x_shape)
        w = rng.normal(size=(3, x_shape[-1]))
        b = rng.normal(size=(3,))
        ws = rng.normal(size=x_shape[:-1] + (3,))
        if not bias:
            return lambda t: _weighted_sum(ad.linear(t["x"], t["w"]), ws), {"x": x, "w": w}
        if x_requires_grad:
            return (lambda t: _weighted_sum(ad.linear(t["x"], t["w"], t["b"]), ws),
                    {"x": x, "w": w, "b": b})
        # a constant x: the vjp skips its gradient
        return lambda t: _weighted_sum(ad.linear(Tensor(x), t["w"], t["b"]), ws), {"w": w, "b": b}

    return make


def _attention_core_case(rng: np.random.Generator):
    s, n, m, d = 2, 3, 4, 4
    q = rng.normal(size=(s, n, d))
    k = rng.normal(size=(s, m, d))
    v = rng.normal(size=(s, m, d))
    ws = rng.normal(size=(s, n, d))
    return (lambda t: _weighted_sum(ad.attention(t["q"], t["k"], t["v"], n_heads=2), ws),
            {"q": q, "k": k, "v": v})


def _fused_residual_case(rng: np.random.Generator):
    # each fused op feeds a residual `add`, which hands the same gradient array
    # to both parents: a vjp that wrote into its incoming gradient would
    # corrupt the other branch's
    x = rng.normal(size=(2, 3, 4))
    kv = rng.normal(size=(2, 5, 4))
    g = rng.normal(size=(4,)) + 1.5
    bn = rng.normal(size=(4,))
    w = rng.normal(size=(4, 4))
    b = rng.normal(size=(4,))
    ws = rng.normal(size=(2, 3, 4))

    def build(t):
        h = t["x"] + ad.attention(t["x"], t["kv"], t["kv"], n_heads=2)
        h = h + ad.linear(h, t["w"], t["b"])
        h = h + ad.gelu(h)
        h = h + ad.layer_norm(h, t["g"], t["bn"])
        return _weighted_sum(h, ws)

    return build, {"x": x, "kv": kv, "g": g, "bn": bn, "w": w, "b": b}


def _layer_norm_case(rng: np.random.Generator):
    x = rng.normal(size=(4, 8))
    g = rng.normal(size=(8,)) + 1.5
    b = rng.normal(size=(8,))
    w = rng.normal(size=(4, 8))
    return lambda t: _weighted_sum(ad.layer_norm(t["x"], t["g"], t["b"]), w), {"x": x, "g": g, "b": b}


def _clamp_case(rng: np.random.Generator):
    # keep samples away from the clamp kinks so FD stays valid
    x = rng.normal(size=(3, 4)) * 0.4
    w = rng.normal(size=(3, 4))
    return lambda t: _weighted_sum(ad.clamp(t["x"], -2.0, 2.0), w), {"x": x}


def _reductions_case(rng: np.random.Generator):
    x = rng.normal(size=(3, 4))
    w = rng.normal()
    return lambda t: _weighted_sum(ad.tmean(t["x"]), w), {"x": x}


def _vecnorm_case(rng: np.random.Generator):
    x = rng.normal(size=(4, 3)) + 0.1
    w = rng.normal(size=(4,))
    return lambda t: _weighted_sum(ad.vecnorm(t["x"]), w), {"x": x}


def _gather_case(rng: np.random.Generator):
    # 8 rows drawn from 6, so some rows are picked more than once
    x = rng.normal(size=(6, 3))
    idx = rng.integers(0, 6, size=8)
    w = rng.normal(size=(8, 3))
    return lambda t: _weighted_sum(t["x"][idx], w), {"x": x}


def _stack_slice_case(rng: np.random.Generator):
    a = rng.normal(size=(4,))
    b = rng.normal(size=(4,))
    w = rng.normal(size=(4,))

    def build(t):
        s = ad.stack([t["a"], t["b"]], axis=-1)       # (4, 2)
        return _weighted_sum(s[:, 0] * s[:, 1], w)

    return build, {"a": a, "b": b}


def _attention_case(rng: np.random.Generator):
    d_model, d_kv, m, bsz = 4, 3, 3, 2
    params: dict[str, Tensor] = {}
    ad.init_attention_block(params, "blk", d_model, d_kv, ffn_mult=2, rng=rng, dtype=np.float64)
    q = rng.normal(size=(bsz, d_model))
    kv = rng.normal(size=(m, d_kv))
    ws = rng.normal(size=(bsz, d_model))
    # check grads through the inputs plus a representative parameter subset
    wq = params["blk/wq"].data.copy()
    g1 = params["blk/ln_kv_g"].data.copy()

    def build(t):
        params["blk/wq"] = t["wq"]
        params["blk/ln_kv_g"] = t["g1"]
        return _weighted_sum(ad.cross_attention(t["q"], t["kv"], params, "blk", n_heads=2), ws)

    return build, {"q": q, "kv": kv, "wq": wq, "g1": g1}


def _end_to_end_case(rng: np.random.Generator):
    # regressor + 3D Laplace NLL, gradients w.r.t. both weights and map code
    cfg = rg.RegressorConfig(d_feat=4, d_model=4, n_blocks=1, n_heads=2,
                             d_map=4, head_hidden=6, ffn_mult=2)
    params = rg.init_regressor(cfg, seed=int(rng.integers(0, 2**31)), dtype=np.float64)
    emb = rng.normal(size=(2, cfg.d_feat))
    code = rng.normal(size=(3, cfg.d_map)) * 0.5
    y_gt = rng.normal(size=(2, 3))
    win = params["in_proj/w"].data.copy()
    wh = params["head/w2"].data.copy()

    def build(t):
        params["in_proj/w"] = t["win"]
        params["head/w2"] = t["wh"]
        y, sigma = rg.regress_batch(params, cfg, Tensor(emb), t["code"])
        nll = rg.laplace_nll_batch(y, sigma, Tensor(y_gt))
        return ad.tmean(nll)

    return build, {"code": code, "win": win, "wh": wh}


GRADCHECK_CASES: list[tuple[str, Callable]] = [
    ("add", _binary_case(ad.add)),
    ("sub", _binary_case(ad.sub)),
    ("mul", _binary_case(ad.mul)),
    ("div", _binary_case(ad.div, safe_denominator=True)),
    ("exp", _elementwise_case(ad.exp, bounded=True)),
    ("log", _elementwise_case(ad.log, positive=True)),
    ("gelu", _elementwise_case(ad.gelu)),
    ("clamp", _clamp_case),
    ("matmul", _matmul_case),
    ("linear", _linear_case((5, 4))),
    ("linear_3d", _linear_case((2, 3, 4))),
    ("linear_const_x", _linear_case((2, 3, 4), x_requires_grad=False)),
    ("attention", _attention_core_case),
    ("fused_residual", _fused_residual_case),
    ("layer_norm", _layer_norm_case),
    ("sum_mean", _reductions_case),
    ("vecnorm", _vecnorm_case),
    ("getitem", _gather_case),
    ("stack_slice", _stack_slice_case),
    ("cross_attention", _attention_case),
    ("linear_no_bias", _linear_case((2, 3, 4), bias=False)),
    ("regress_nll3d", _end_to_end_case),
]


def refine_pose(pose0: PoseSE3, matches: Matches, K: Intrinsics, iters: int = 20) -> PoseSE3:
    """Levenberg-Marquardt on summed squared reprojection error.

    The pose increment is a 6-vector (axis-angle, translation) applied on
    the camera-from-world side; accepted steps never increase the cost.
    """
    pts, pix = matches.points, matches.pixels
    r_cw = pose0.rotation.T.copy()
    t_cw = -r_cw @ pose0.translation

    def residuals(rc, tc):
        cam = pts @ rc.T + tc
        u, v, zs = _pixels(K, cam)
        return (np.stack([u, v], axis=1) - pix).reshape(-1), cam, zs

    res, cam, zs = residuals(r_cw, t_cw)
    cost = float(res @ res)
    if not np.isfinite(cost):
        raise FloatingPointError("non-finite initial reprojection cost")

    lam = 1e-3
    n = len(pts)
    for _ in range(iters):
        # d(pixel)/d(cam point) is [[ax, 0, bx], [0, ay, by]]
        ax = K.fx / zs
        bx = -K.fx * cam[:, 0] / zs**2
        ay = K.fy / zs
        by = -K.fy * cam[:, 1] / zs**2
        # d(cam point)/d(omega, dt) is [-[u]x | I]: rotation perturbs about the
        # camera origin. The Jacobian is their product, written out term by term.
        u = pts @ r_cw.T
        jac = np.zeros((n, 2, 6))
        jac[:, 0, 0] = bx * u[:, 1]
        jac[:, 0, 1] = ax * u[:, 2] - bx * u[:, 0]
        jac[:, 0, 2] = -ax * u[:, 1]
        jac[:, 0, 3] = ax
        jac[:, 0, 5] = bx
        jac[:, 1, 0] = by * u[:, 1] - ay * u[:, 2]
        jac[:, 1, 1] = -by * u[:, 0]
        jac[:, 1, 2] = ay * u[:, 0]
        jac[:, 1, 4] = ay
        jac[:, 1, 5] = by
        jac = jac.reshape(-1, 6)

        jtj = jac.T @ jac
        jtr = jac.T @ res
        damping = np.diag(np.diag(jtj))
        improved = False
        for _ in range(8):
            try:
                delta = np.linalg.solve(jtj + lam * damping + _RIDGE6, -jtr)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            r_new = rodrigues(delta[:3]) @ r_cw
            t_new = t_cw + delta[3:]
            res_new, cam_new, zs_new = residuals(r_new, t_new)
            cost_new = float(res_new @ res_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                r_cw, t_cw, res, cam, zs, cost = r_new, t_new, res_new, cam_new, zs_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                improved = True
                break
            lam *= 4.0
        if not improved or cost < 1e-20:
            break

    return PoseSE3(r_cw.T, -r_cw.T @ t_cw)
