"""Finite-difference gradient checks for every differentiable op.

Each entry builds a random small configuration, computes a scalar loss,
and compares the engine's gradients against central finite differences in
float64. The test suite checks every entry; `run_gradcheck` sweeps them all
over many random configurations (no command-line entry point calls it yet).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def _check_config(build: Callable[[dict[str, Tensor]], Tensor],
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

        num = ad.numeric_grad(scalar_fn, base.astype(np.float64), eps=eps)
        analytic = tensors[key].grad
        if analytic is None:
            analytic = np.zeros_like(base, dtype=np.float64)
        worst = max(worst, ad.max_rel_error(analytic, num))
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


def _linear_case(rng: np.random.Generator):
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=(3,))
    ws = rng.normal(size=(5, 3))
    return lambda t: _weighted_sum(ad.linear(t["x"], t["w"], t["b"]), ws), {"x": x, "w": w, "b": b}


def _softmax_case(rng: np.random.Generator):
    x = rng.normal(size=(3, 5)) * 2.0
    w = rng.normal(size=(3, 5))
    return lambda t: _weighted_sum(ad.softmax(t["x"]), w), {"x": x}


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
    w = rng.normal(size=(3,))
    return lambda t: _weighted_sum(ad.tmean(t["x"], axis=1), w), {"x": x}


def _vecnorm_case(rng: np.random.Generator):
    x = rng.normal(size=(4, 3)) + 0.1
    w = rng.normal(size=(4,))
    return lambda t: _weighted_sum(ad.vecnorm(t["x"]), w), {"x": x}


def _gather_case(rng: np.random.Generator):
    x = rng.normal(size=(6, 3))
    idx = rng.integers(0, 6, size=8)
    w = rng.normal(size=(8, 3))
    return lambda t: _weighted_sum(ad.take(t["x"], idx), w), {"x": x}


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
    from . import regressor as rg

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
    ("linear", _linear_case),
    ("softmax", _softmax_case),
    ("layer_norm", _layer_norm_case),
    ("sum_mean", _reductions_case),
    ("vecnorm", _vecnorm_case),
    ("take", _gather_case),
    ("stack_slice", _stack_slice_case),
    ("cross_attention", _attention_case),
    ("regress_nll3d", _end_to_end_case),
]


def run_gradcheck(n_configs: int = 20, seed: int = 0,
                  eps: float = 1e-5) -> list[tuple[str, float]]:
    """Return (op name, max relative error over n_configs random configs)."""
    results = []
    for case_idx, (name, case) in enumerate(GRADCHECK_CASES):
        rng = np.random.default_rng([seed, case_idx])
        worst = 0.0
        for _ in range(n_configs):
            build, inputs = case(rng)
            worst = max(worst, _check_config(build, inputs, eps=eps))
        results.append((name, worst))
    return results
