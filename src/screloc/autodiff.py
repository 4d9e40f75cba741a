"""Reverse-mode automatic differentiation on numpy arrays.

Small tape-style engine: each op returns a new Tensor that remembers its
parents and a vector-Jacobian closure. `backward()` walks the graph in
reverse topological order and accumulates gradients into the requires-grad
leaves. Covers exactly what the coordinate regressor needs: dense linear
maps, layer norm, softmax attention, GELU, exp/log, clamping, reductions,
plus Adam (`AdamW`), which its caller steps only on finite gradients.

The regressor's hot ops are single graph nodes with hand-written vjps:
`linear` is one 2-D GEMM over the flattened rows, and `attention` covers
the scores, scale, softmax and context of all heads. `gelu` and
`layer_norm` reuse their temporaries in place. A vjp never writes into the
gradient it receives, since `add` hands the same array to both parents.

A model's trainable state is a plain `dict[str, Tensor]` in checkpoint order;
`init_linear` and `init_attention_block` add tensors to it under a name prefix.

`getitem` (`t[idx]`) is the one gather, for any index numpy takes; its vjp
sums the gradients of an element picked more than once.

Training runs in float32; ops keep the dtype of their inputs, so the same
graph also runs in float64. An operator's non-Tensor operand, scalar or
array, takes the dtype of the Tensor on the other side.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_LN_EPS = 1e-5  # added to the variance in layer_norm
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # AdamW's moment decays and eps, fixed


class Tensor:
    """Numpy-backed node of the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self))

    def __getitem__(self, idx):
        return getitem(self, idx)


def _as_tensor(x, like: Tensor) -> Tensor:
    """Wrap x, a scalar or an array, in the dtype of `like`, the Tensor on the other
    side; NumPy would promote float32 with a Python float or a float64 array to float64."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.dtype))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise ops -----------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape) if need_a else None,
                _unbroadcast(g * a.data, b.shape) if need_b else None)

    return _make(out, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    return _make(out, (a, b), lambda g: (_unbroadcast(g / b.data, a.shape),
                                         _unbroadcast(-g * out / b.data, b.shape)))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def clamp(a: Tensor, lo: float | None, hi: float | None) -> Tensor:
    out = np.clip(a.data, lo, hi)
    mask = np.ones_like(a.data)
    if lo is not None:
        mask = mask * (a.data >= lo)
    if hi is not None:
        mask = mask * (a.data <= hi)
    return _make(out, (a,), lambda g: (g * mask,))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    # tanh approximation 0.5 x (1 + tanh(C (x + 0.044715 x^3))), smooth everywhere;
    # temporaries are reused in place (x*x*x: np.power is slow here)
    x = a.data
    t = x * x
    t *= 0.044715 * _GELU_C
    t += _GELU_C
    t *= x
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5

    def vjp(g):
        # d/dx = 0.5 (1 + t) + (1 - t^2) x (0.5 C + 1.5 * 0.044715 C x^2)
        d = t * t
        np.subtract(1.0, d, out=d)
        p = x * x
        p *= 1.5 * 0.044715 * _GELU_C
        p += 0.5 * _GELU_C
        p *= x
        d *= p
        np.multiply(t, 0.5, out=p)
        d += p
        d += 0.5
        d *= g
        return (d,)

    return _make(out, (a,), vjp)


# -- shape ops -----------------------------------------------------------

def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def getitem(a: Tensor, idx) -> Tensor:
    """a.data[idx] for any index numpy takes; an element picked twice gets both gradients."""
    out = a.data[idx]

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(out, (a,), vjp)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return _make(out, tuple(tensors), vjp)


# -- reductions ----------------------------------------------------------

def tsum(a: Tensor) -> Tensor:
    """Sum of every element."""
    return _make(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def tmean(a: Tensor) -> Tensor:
    """Mean of every element."""
    return tsum(a) * (1.0 / a.data.size)


def vecnorm(a: Tensor) -> Tensor:
    """Euclidean norm along the last axis; subgradient 0 at the origin."""
    out = np.sqrt((a.data * a.data).sum(axis=-1))

    def vjp(g):
        safe = np.where(out == 0.0, 1.0, out)
        scale = np.expand_dims(g / safe, -1)
        return (scale * a.data,)

    return _make(out, (a,), vjp)


# -- matmul & friends ----------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul expects operands with ndim >= 2")
    out = a.data @ b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if need_a else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if need_b else None
        return (ga, gb)

    return _make(out, (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ W^T (+ b) with W of shape (n_out, n_in), as one node.

    x (..., n_in) is flattened to rows for a single GEMM; the vjp computes
    only the gradients of the parents that require them.
    """
    if w.ndim != 2 or (b is not None and b.shape != (w.shape[0],)):
        raise ValueError(f"bad linear params: W{w.shape} b{None if b is None else b.shape}")
    if x.ndim < 2 or x.shape[-1] != w.shape[1]:
        raise ValueError(f"linear shape mismatch: x{x.shape} W{w.shape}")
    n_out, n_in = w.shape
    x2, wd = x.data.reshape(-1, n_in), w.data
    out = x2 @ wd.T
    parents = (x, w)
    if b is not None:
        out += b.data
        parents += (b,)
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b is not None and b.requires_grad

    def vjp(g):
        g2 = g.reshape(-1, n_out)
        return ((g2 @ wd).reshape(x.shape) if need_x else None,
                g2.T @ x2 if need_w else None,
                g2.sum(axis=0) if need_b else None)

    return _make(out.reshape(x.shape[:-1] + (n_out,)), parents, vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention core, as one node.

    q (s, n, d), k (s, m, d) and v (s, m, d_v) are split into `n_heads`
    heads along the last axis. Each query's weights are the softmax over the
    m keys of q.k / sqrt(d / n_heads), shifted by the row max so that large
    scores cannot overflow; the output (s, n, d_v) is the weighted sum of the
    values, heads concatenated.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ValueError("attention expects (s, n, d) queries, keys and values")
    s, n, d = q.shape
    m, d_v = k.shape[1], v.shape[2]
    if m == 0:
        raise ValueError("attention over an empty key set")
    if k.shape != (s, m, d) or v.shape[:2] != (s, m):
        raise ValueError(f"attention shape mismatch: q{q.shape} k{k.shape} v{v.shape}")
    if d % n_heads or d_v % n_heads:
        raise ValueError("n_heads must divide the query and value widths")
    h, dh, dvh = n_heads, d // n_heads, d_v // n_heads
    scale = 1.0 / math.sqrt(dh)
    qh = q.data.reshape(s, n, h, dh).transpose(0, 2, 1, 3)     # (s, h, n, dh)
    kh = k.data.reshape(s, m, h, dh).transpose(0, 2, 3, 1)     # (s, h, dh, m)
    vh = v.data.reshape(s, m, h, dvh).transpose(0, 2, 1, 3)    # (s, h, m, dvh)
    attn = qh @ kh                                             # (s, h, n, m)
    attn *= scale
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    out = (attn @ vh).transpose(0, 2, 1, 3).reshape(s, n, d_v)
    need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad

    def vjp(g):
        gh = g.reshape(s, n, h, dvh).transpose(0, 2, 1, 3)     # (s, h, n, dvh)
        gq = gk = gv = None
        if need_v:
            gv = (np.swapaxes(attn, -1, -2) @ gh).transpose(0, 2, 1, 3).reshape(s, m, d_v)
        if need_q or need_k:
            gs = gh @ np.swapaxes(vh, -1, -2)                  # d loss / d attn
            dot = gs * attn
            gs -= dot.sum(axis=-1, keepdims=True)
            gs *= attn
            gs *= scale                                        # d loss / d (q.k)
            if need_q:
                gq = (gs @ np.swapaxes(kh, -1, -2)).transpose(0, 2, 1, 3).reshape(s, n, d)
            if need_k:
                gk = (np.swapaxes(gs, -1, -2) @ qh).transpose(0, 2, 1, 3).reshape(s, m, d)
        return (gq, gk, gv)

    return _make(out, (q, k, v), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine by the
    (d,) gain and bias."""
    d = x.shape[-1]
    if d < 2:
        raise ValueError("layer_norm needs at least 2 features")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"layer_norm of {d} features with gain{gain.shape} bias{bias.shape}")
    gd = gain.data
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    var += _LN_EPS
    inv = 1.0 / np.sqrt(var)
    xhat *= inv
    out = xhat * gd
    out += bias.data
    need_x, need_g, need_b = x.requires_grad, gain.requires_grad, bias.requires_grad

    def vjp(g):
        gx = g * xhat
        dg = gx.reshape(-1, d).sum(axis=0) if need_g else None
        db = g.reshape(-1, d).sum(axis=0) if need_b else None
        dx = None
        if need_x:
            # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gain
            gx *= gd
            m2 = gx.mean(axis=-1, keepdims=True)
            dx = g * gd
            dx -= dx.mean(axis=-1, keepdims=True)
            np.multiply(xhat, m2, out=gx)
            dx -= gx
            dx *= inv
        return (dx, dg, db)

    return _make(out, (x, gain, bias), vjp)


# -- cross-attention transformer block -----------------------------------

def init_linear(params: dict[str, Tensor], prefix: str, suffix: str, n_out: int, n_in: int,
                rng: np.random.Generator, dtype=np.float32, bias: bool = True) -> None:
    """Add `{prefix}/w{suffix}` (n_out, n_in), uniform in +-1/sqrt(n_in), and, if `bias`,
    a zero `{prefix}/b{suffix}` (n_out,) to params, all requiring gradients."""
    scale = 1.0 / math.sqrt(n_in)
    params[f"{prefix}/w{suffix}"] = Tensor(rng.uniform(-scale, scale, (n_out, n_in)).astype(dtype),
                                           requires_grad=True)
    if bias:
        params[f"{prefix}/b{suffix}"] = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)


def init_attention_block(params: dict[str, Tensor], prefix: str, d_model: int, d_kv: int,
                         ffn_mult: int, rng: np.random.Generator, dtype=np.float32) -> None:
    """Add the 17 tensors `cross_attention` reads to params, in the order it lists
    them, as `{prefix}/{name}`; the weights are drawn in the order wq, wk, wv, wo, w1, w2.
    The key projection has no bias: the softmax over keys ignores a per-query shift."""
    def norm(name, n):
        params[f"{prefix}/{name}_g"] = Tensor(np.ones(n, dtype=dtype), requires_grad=True)
        params[f"{prefix}/{name}_b"] = Tensor(np.zeros(n, dtype=dtype), requires_grad=True)

    norm("ln_q", d_model)
    norm("ln_kv", d_kv)
    for suffix, n_in in (("q", d_model), ("k", d_kv), ("v", d_kv), ("o", d_model)):
        init_linear(params, prefix, suffix, d_model, n_in, rng, dtype, bias=suffix != "k")
    norm("ln_f", d_model)
    init_linear(params, prefix, "1", ffn_mult * d_model, d_model, rng, dtype)
    init_linear(params, prefix, "2", d_model, ffn_mult * d_model, rng, dtype)


def cross_attention(query_tok: Tensor, kv_toks: Tensor, params: dict[str, Tensor],
                    prefix: str, n_heads: int) -> Tensor:
    """Pre-norm cross-attention block over an unordered kv token set.

    `query_tok` has shape (..., d_model) and `kv_toks` (..., m, d_kv) with
    matching leading dims. No positional encoding is applied to the kv
    tokens, so the output is invariant to their permutation.

    Reads the tensors `init_attention_block` adds, each as `{prefix}/{name}`:
    ln_q_g, ln_q_b, ln_kv_g, ln_kv_b, wq, bq, wk, wv, bv, wo, bo,
    ln_f_g, ln_f_b, w1, b1, w2 and b2.
    """
    def p(name):
        return params[f"{prefix}/{name}"]

    d_model = p("wq").shape[0]
    if kv_toks.ndim < 2 or kv_toks.shape[-2] == 0:
        raise ValueError("kv_toks must hold at least one token")
    if query_tok.shape[-1] != p("wq").shape[1] or kv_toks.shape[-1] != p("wk").shape[1]:
        raise ValueError("cross_attention dim mismatch")

    lead = query_tok.shape[:-1]
    b = math.prod(lead)
    m = kv_toks.shape[-2]
    s = math.prod(kv_toks.shape[:-2])
    if b % s != 0:
        raise ValueError("query/kv leading dims do not align")
    bs = b // s

    x = reshape(query_tok, (s, bs, query_tok.shape[-1]))
    kv = reshape(kv_toks, (s, m, kv_toks.shape[-1]))

    xn = layer_norm(x, p("ln_q_g"), p("ln_q_b"))
    kvn = layer_norm(kv, p("ln_kv_g"), p("ln_kv_b"))
    ctx = attention(linear(xn, p("wq"), p("bq")), linear(kvn, p("wk")),
                    linear(kvn, p("wv"), p("bv")), n_heads)

    x = x + linear(ctx, p("wo"), p("bo"))
    hidden = gelu(linear(layer_norm(x, p("ln_f_g"), p("ln_f_b")), p("w1"), p("b1")))
    x = x + linear(hidden, p("w2"), p("b2"))
    return reshape(x, lead + (d_model,))


# -- backward pass -------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every requires-grad leaf.

    Intermediate gradients are freed as soon as they have been propagated.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    work: list[tuple[Tensor, bool]] = [(loss, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        work.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                work.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node._vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


# -- AdamW ----------------------------------------------------------------

class AdamW:
    """Adam, no weight decay, fixed `ADAM_*` betas and eps; the caller checks gradients finite."""

    def __init__(self, tensors: Sequence[Tensor], lr: float):
        if not 0.0 < lr < math.inf:
            raise ValueError(f"lr {lr}, expected a finite positive value")
        self.tensors = list(tensors)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]

    def step(self) -> None:
        """Update every tensor that has a gradient: the moments in place, and a new
        `data` array, since a detached Tensor or a recorded graph may share the old one."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        for p, m, v in zip(self.tensors, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The step count and copies of the moments, which `step` updates in place."""
        out: dict[str, np.ndarray] = {"step": np.array([self.step_count], dtype=np.int64)}
        for i in range(len(self.tensors)):
            out[f"m{i}"] = self.m[i].copy()
            out[f"v{i}"] = self.v[i].copy()
        return out

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        self.step_count = int(state["step"][0])
        for i, p in enumerate(self.tensors):
            self.m[i] = np.asarray(state[f"m{i}"], dtype=p.data.dtype).reshape(p.data.shape).copy()
            self.v[i] = np.asarray(state[f"v{i}"], dtype=p.data.dtype).reshape(p.data.shape).copy()
