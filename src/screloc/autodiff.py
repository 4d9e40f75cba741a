"""Reverse-mode automatic differentiation on numpy arrays.

Small tape-style engine: each op returns a new Tensor that remembers its
parents and a vector-Jacobian closure. `backward()` walks the graph in
reverse topological order and accumulates gradients into the requires-grad
leaves. Covers exactly what the coordinate regressor needs: dense linear
maps, layer norm, softmax attention, GELU, exp/log, clamping, reductions,
plus AdamW with decoupled weight decay and a named-array checkpoint codec.

Float64 is used for gradient checking, float32 for training; ops keep the
dtype of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import binio

PARAM_MAGIC = b"ACEGPRM2"

# When enabled (tests), every op output is checked for NaN/Inf.
_CHECK_FINITE = False


def set_finite_checks(enabled: bool) -> None:
    global _CHECK_FINITE
    _CHECK_FINITE = enabled


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

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self))

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other, self))

    def __getitem__(self, idx):
        return getitem(self, idx)


def _as_tensor(x, like: Tensor) -> Tensor:
    """Wrap x; a 0-d x takes the dtype of `like`, the Tensor on the other side.

    A Python float would otherwise become a float64 array, and NumPy
    promotes float32 with a float64 array to float64.
    """
    if isinstance(x, Tensor):
        return x
    if np.ndim(x) == 0:
        return Tensor(np.asarray(x, dtype=like.dtype))
    return Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    if _CHECK_FINITE and not np.all(np.isfinite(data)):
        raise FloatingPointError("op produced non-finite values")
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


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


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
    # tanh approximation; smooth everywhere (x*x*x: np.power is slow here)
    x = a.data
    x2 = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * x2 * x))
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        # d/dx [0.5 x (1+t)] = 0.5(1+t) + 0.5 x (1-t^2) C (1 + 3*0.044715 x^2)
        dfac = (1.0 - t * t) * (0.5 * _GELU_C + (1.5 * 0.044715 * _GELU_C) * x2)
        dfac *= x
        dfac += 0.5 * (1.0 + t)
        dfac *= g
        return (dfac,)

    return _make(out, (a,), vjp)


# -- shape ops -----------------------------------------------------------

def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def getitem(a: Tensor, idx) -> Tensor:
    out = a.data[idx]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make(out, (a,), vjp)


def take(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows along axis 0 (indices may repeat)."""
    indices = np.asarray(indices)
    out = a.data[indices]

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, indices, g)
        return (full,)

    return _make(out, (a,), vjp)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return _make(out, tuple(tensors), vjp)


# -- reductions ----------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.shape).copy(),)

    return _make(out, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        n = a.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def vecnorm(a: Tensor, axis: int = -1) -> Tensor:
    """Euclidean norm along one axis; subgradient 0 at the origin."""
    out = np.sqrt((a.data * a.data).sum(axis=axis))

    def vjp(g):
        safe = np.where(out == 0.0, 1.0, out)
        scale = np.expand_dims(g / safe, axis)
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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ W^T + b with W of shape (n_out, n_in)."""
    if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
        raise ValueError(f"bad linear params: W{w.shape} b{b.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ValueError(f"linear shape mismatch: x{x.shape} W{w.shape}")
    squeeze = x.ndim == 1
    if squeeze:
        x = reshape(x, (1, x.shape[0]))
    y = matmul(x, transpose(w, (1, 0))) + b
    if squeeze:
        y = reshape(y, (y.shape[-1],))
    return y


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.data.size == 0:
        raise ValueError("softmax of empty input")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _make(out, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if d < 2:
        raise ValueError("layer_norm needs at least 2 features")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        dg = _unbroadcast(g * xhat, gain.shape)
        db = _unbroadcast(g, bias.shape)
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return (dx, dg, db)

    return _make(out, (x, gain, bias), vjp)


# -- cross-attention transformer block -----------------------------------

@dataclass
class AttentionBlockParams:
    """Parameters of one pre-norm cross-attention block (attention + FFN)."""

    ln_q_g: Tensor
    ln_q_b: Tensor
    ln_kv_g: Tensor
    ln_kv_b: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln_f_g: Tensor
    ln_f_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    n_heads: int


def cross_attention(query_tok: Tensor, kv_toks: Tensor, block: AttentionBlockParams) -> Tensor:
    """Pre-norm cross-attention block over an unordered kv token set.

    `query_tok` has shape (..., d_model) and `kv_toks` (..., m, d_kv) with
    matching leading dims. No positional encoding is applied to the kv
    tokens, so the output is invariant to their permutation.
    """
    d_model = block.wq.shape[0]
    h = block.n_heads
    if d_model % h != 0:
        raise ValueError("n_heads must divide d_model")
    dh = d_model // h
    if kv_toks.ndim < 2 or kv_toks.shape[-2] == 0:
        raise ValueError("kv_toks must hold at least one token")
    if query_tok.shape[-1] != block.wq.shape[1] or kv_toks.shape[-1] != block.wk.shape[1]:
        raise ValueError("cross_attention dim mismatch")

    squeeze = query_tok.ndim == 1
    if squeeze:
        query_tok = reshape(query_tok, (1, query_tok.shape[-1]))
        kv_toks = reshape(kv_toks, (1,) + kv_toks.shape)
    lead = query_tok.shape[:-1]
    b = int(np.prod(lead)) if lead else 1
    m = kv_toks.shape[-2]
    kv_lead = kv_toks.shape[:-2]
    s = int(np.prod(kv_lead)) if kv_lead else 1
    if b % s != 0:
        raise ValueError("query/kv leading dims do not align")
    bs = b // s

    x = reshape(query_tok, (s, bs, query_tok.shape[-1]))
    kv = reshape(kv_toks, (s, m, kv_toks.shape[-1]))

    xn = layer_norm(x, block.ln_q_g, block.ln_q_b)
    kvn = layer_norm(kv, block.ln_kv_g, block.ln_kv_b)
    q = linear(xn, block.wq, block.bq)
    k = linear(kvn, block.wk, block.bk)
    v = linear(kvn, block.wv, block.bv)

    qh = transpose(reshape(q, (s, bs, h, dh)), (0, 2, 1, 3))   # (s, h, bs, dh)
    kh = transpose(reshape(k, (s, m, h, dh)), (0, 2, 3, 1))    # (s, h, dh, m)
    vh = transpose(reshape(v, (s, m, h, dh)), (0, 2, 1, 3))    # (s, h, m, dh)

    scores = matmul(qh, kh) * (1.0 / math.sqrt(dh))
    attn = softmax(scores, axis=-1)
    ctx = matmul(attn, vh)                                     # (s, h, bs, dh)
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (s, bs, d_model))

    x = x + linear(ctx, block.wo, block.bo)
    hidden = gelu(linear(layer_norm(x, block.ln_f_g, block.ln_f_b), block.w1, block.b1))
    x = x + linear(hidden, block.w2, block.b2)

    out = reshape(x, lead + (d_model,))
    if squeeze:
        out = reshape(out, (d_model,))
    return out


def init_attention_block(d_model: int, d_kv: int, n_heads: int, ffn_mult: int,
                         rng: np.random.Generator, dtype=np.float32) -> AttentionBlockParams:
    def w(n_out, n_in):
        scale = 1.0 / math.sqrt(n_in)
        return Tensor(rng.uniform(-scale, scale, (n_out, n_in)).astype(dtype), requires_grad=True)

    def zeros(n):
        return Tensor(np.zeros(n, dtype=dtype), requires_grad=True)

    def ones(n):
        return Tensor(np.ones(n, dtype=dtype), requires_grad=True)

    d_ffn = ffn_mult * d_model
    return AttentionBlockParams(
        ln_q_g=ones(d_model), ln_q_b=zeros(d_model),
        ln_kv_g=ones(d_kv), ln_kv_b=zeros(d_kv),
        wq=w(d_model, d_model), bq=zeros(d_model),
        wk=w(d_model, d_kv), bk=zeros(d_model),
        wv=w(d_model, d_kv), bv=zeros(d_model),
        wo=w(d_model, d_model), bo=zeros(d_model),
        ln_f_g=ones(d_model), ln_f_b=zeros(d_model),
        w1=w(d_ffn, d_model), b1=zeros(d_ffn),
        w2=w(d_model, d_ffn), b2=zeros(d_model),
        n_heads=n_heads,
    )


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


# -- parameter registry ---------------------------------------------------

class Parameters:
    """Named registry of the trainable leaf tensors of one model."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter {name!r}")
        tensor.requires_grad = True
        self._tensors[name] = tensor
        return tensor

    def replace(self, name: str, tensor: Tensor) -> Tensor:
        """Swap an existing entry (gradient-check plumbing)."""
        if name not in self._tensors:
            raise KeyError(name)
        self._tensors[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._tensors.items()

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for k, t in self._tensors.items():
            if k not in state:
                raise KeyError(f"missing parameter {k!r} in state")
            arr = np.asarray(state[k], dtype=t.data.dtype)
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {k!r}: {arr.shape} vs {t.data.shape}")
            t.data = arr.copy()
            t.grad = None


# -- AdamW ----------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay applied directly to the weights."""

    def __init__(self, tensors: Sequence[Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.tensors = list(tensors)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.tensors):
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient in AdamW step")
            if self.weight_decay:
                p.data = p.data * (1.0 - lr * self.weight_decay)
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            mhat = self.m[i] / bc1
            vhat = self.v[i] / bc2
            p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.tensors:
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {"step": np.array([self.step_count], dtype=np.int64)}
        for i in range(len(self.tensors)):
            out[f"m{i}"] = self.m[i]
            out[f"v{i}"] = self.v[i]
        return out

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        self.step_count = int(state["step"][0])
        for i, p in enumerate(self.tensors):
            self.m[i] = np.asarray(state[f"m{i}"], dtype=p.data.dtype).reshape(p.data.shape).copy()
            self.v[i] = np.asarray(state[f"v{i}"], dtype=p.data.dtype).reshape(p.data.shape).copy()


# -- parameter checkpoint format ------------------------------------------

def save_params(path, named: dict[str, np.ndarray]) -> None:
    """Write magic, record count, then (name, array) records, each array in its own dtype."""
    with open(path, "wb") as fh:
        binio.write_magic(fh, PARAM_MAGIC)
        binio.write_u32(fh, len(named))
        for name, arr in named.items():
            binio.write_str(fh, name)
            binio.write_array(fh, arr)


def load_params(path) -> dict[str, np.ndarray]:
    """Read a parameter checkpoint; raises binio.FormatError on a corrupt file."""
    with open(path, "rb") as fh:
        binio.read_magic(fh, PARAM_MAGIC)
        out: dict[str, np.ndarray] = {}
        for _ in range(binio.read_u32(fh)):
            name = binio.read_str(fh)
            out[name] = binio.read_array(fh)
    return out


# -- gradient checking -----------------------------------------------------

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
