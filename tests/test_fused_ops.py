"""The one-node ops against the composition of primitives they replaced.

The reference here is the unfused graph: `linear` as matmul, transpose and
add nodes; the attention core as reshapes, transposes, a scalar mul and a
softmax node; `gelu` and `layer_norm` allocating a new array at every step.
It is kept only as the oracle the fused ops are compared to.
"""

import math

import numpy as np
import pytest

from screloc import autodiff as ad
from screloc import regressor as rg
from screloc.autodiff import Tensor

GELU_C = math.sqrt(2.0 / math.pi)


def ref_transpose(a: Tensor, axes) -> Tensor:
    inv = tuple(np.argsort(axes))
    return ad._make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def ref_softmax(x: Tensor) -> Tensor:
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    return ad._make(out, (x,), lambda g: ((g - (g * out).sum(axis=-1, keepdims=True)) * out,))


def ref_linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    y = ad.matmul(x, ref_transpose(w, (1, 0)))
    return y if b is None else y + b


def ref_gelu(a: Tensor) -> Tensor:
    x = a.data
    x2 = x * x
    t = np.tanh(GELU_C * (x + 0.044715 * x2 * x))
    dfac = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3 * 0.044715 * x2)
    return ad._make(0.5 * x * (1.0 + t), (a,), lambda g: (g * dfac,))


def ref_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv

    def vjp(g):
        dxhat = g * gain.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return (dx, ad._unbroadcast(g * xhat, gain.shape), ad._unbroadcast(g, bias.shape))

    return ad._make(xhat * gain.data + bias.data, (x, gain, bias), vjp)


def ref_cross_attention(query_tok, kv_toks, params, prefix, n_heads):
    def p(name):
        return params[f"{prefix}/{name}"]

    d_model = p("wq").shape[0]
    dh = d_model // n_heads
    lead = query_tok.shape[:-1]
    m = kv_toks.shape[-2]
    s = math.prod(kv_toks.shape[:-2])
    bs = math.prod(lead) // s

    x = ad.reshape(query_tok, (s, bs, query_tok.shape[-1]))
    kv = ad.reshape(kv_toks, (s, m, kv_toks.shape[-1]))
    xn = ref_layer_norm(x, p("ln_q_g"), p("ln_q_b"))
    kvn = ref_layer_norm(kv, p("ln_kv_g"), p("ln_kv_b"))
    q = ref_linear(xn, p("wq"), p("bq"))
    k = ref_linear(kvn, p("wk"))
    v = ref_linear(kvn, p("wv"), p("bv"))
    qh = ref_transpose(ad.reshape(q, (s, bs, n_heads, dh)), (0, 2, 1, 3))
    kh = ref_transpose(ad.reshape(k, (s, m, n_heads, dh)), (0, 2, 3, 1))
    vh = ref_transpose(ad.reshape(v, (s, m, n_heads, dh)), (0, 2, 1, 3))
    attn = ref_softmax(ad.matmul(qh, kh) * (1.0 / math.sqrt(dh)))
    ctx = ad.reshape(ref_transpose(ad.matmul(attn, vh), (0, 2, 1, 3)), (s, bs, d_model))
    x = x + ref_linear(ctx, p("wo"), p("bo"))
    hidden = ref_gelu(ref_linear(ref_layer_norm(x, p("ln_f_g"), p("ln_f_b")), p("w1"), p("b1")))
    x = x + ref_linear(hidden, p("w2"), p("b2"))
    return ad.reshape(x, lead + (d_model,))


def assert_matches(got: dict, want: dict, rtol: float) -> None:
    """Each array within rtol of its reference's max-abs."""
    assert got.keys() == want.keys()
    for name, ref in want.items():
        scale = np.max(np.abs(ref))
        err = np.max(np.abs(got[name].astype(np.float64) - ref))
        assert err <= rtol * scale, f"{name}: {err} against {rtol} * {scale}"


def forward_backward(fn, leaves: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Outputs of fn(), then the gradient of a fixed weighted sum of them
    with respect to every leaf."""
    for t in leaves.values():
        t.grad = None
    outs = fn()
    rng = np.random.default_rng(99)
    loss = ad.tsum(outs[0] * Tensor(rng.normal(size=outs[0].shape).astype(outs[0].dtype)))
    for out in outs[1:]:
        loss = loss + ad.tsum(out * Tensor(rng.normal(size=out.shape).astype(out.dtype)))
    ad.backward(loss)
    result = {f"out{i}": out.data for i, out in enumerate(outs)}
    result.update({name: t.grad for name, t in leaves.items()})
    return result


def test_cross_attention_matches_unfused_reference():
    rng = np.random.default_rng(41)
    params = {}
    ad.init_attention_block(params, "blk", 8, 6, ffn_mult=2, rng=rng, dtype=np.float64)
    for t in params.values():
        t.data = t.data + rng.normal(scale=0.3, size=t.shape)
    q = Tensor(rng.normal(size=(3, 5, 8)), requires_grad=True)
    kv = Tensor(rng.normal(size=(3, 7, 6)), requires_grad=True)
    leaves = {"q": q, "kv": kv, **params}
    got = forward_backward(lambda: [ad.cross_attention(q, kv, params, "blk", 2)], leaves)
    want = forward_backward(lambda: [ref_cross_attention(q, kv, params, "blk", 2)], leaves)
    assert_matches(got, want, 1e-12)


@pytest.mark.parametrize("dtype, cfg, shape, rtol", [
    (np.float64, rg.RegressorConfig(d_feat=8, d_model=16, n_blocks=2, n_heads=2, d_map=12,
                                    head_hidden=16, ffn_mult=2), (3, 10, 6), 1e-12),
    # a benchmark-sized batch: 8 scenes of 128 patches, 64 code tokens
    (np.float32, rg.RegressorConfig(), (8, 128, 64), 1e-5),
], ids=["float64", "float32-benchmark-batch"])
def test_regress_batch_matches_unfused_reference(monkeypatch, dtype, cfg, shape, rtol):
    s, n, m = shape
    params = rg.init_regressor(cfg, seed=6, dtype=dtype)
    rng = np.random.default_rng(42)
    emb = Tensor(rng.normal(size=(s, n, cfg.d_feat)).astype(dtype))
    codes = Tensor((rng.normal(size=(s, m, cfg.d_map)) * 0.5).astype(dtype), requires_grad=True)
    leaves = {"codes": codes, **params}

    def run():
        return list(rg.regress_batch(params, cfg, emb, codes))

    got = forward_backward(run, leaves)
    for name, ref in (("linear", ref_linear), ("gelu", ref_gelu), ("layer_norm", ref_layer_norm),
                      ("cross_attention", ref_cross_attention)):
        monkeypatch.setattr(ad, name, ref)
    want = forward_backward(run, leaves)
    assert_matches(got, want, rtol)
