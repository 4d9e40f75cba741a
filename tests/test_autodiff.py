import math

import numpy as np
import pytest

from screloc import autodiff as ad
from screloc.autodiff import Tensor

from oracles import GRADCHECK_CASES, check_config, max_rel_error, numeric_grad


def test_linear_identity():
    w = Tensor(np.eye(2))
    b = Tensor(np.zeros(2))
    y = ad.linear(Tensor(np.array([[3.0, 4.0]])), w, b)
    assert np.allclose(y.data, [[3.0, 4.0]])


def test_linear_sum_plus_bias():
    w = Tensor(np.array([[1.0, 1.0]]))
    b = Tensor(np.array([1.0]))
    y = ad.linear(Tensor(np.array([[2.0, 3.0]])), w, b)
    assert np.allclose(y.data, [[6.0]])


def test_linear_matches_triple_loop_matmul():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3,))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=(4,))
    # independent triple-loop oracle
    expected = np.zeros(4)
    for i in range(4):
        acc = 0.0
        for j in range(3):
            acc += w[i, j] * x[j]
        expected[i] = acc + b[i]
    y = ad.linear(Tensor(x[None]), Tensor(w), Tensor(b))
    assert np.allclose(y.data[0], expected, atol=1e-12)


def test_linear_shape_mismatch_raises():
    with pytest.raises(ValueError):
        ad.linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="bad linear params"):
        ad.linear(Tensor(np.zeros((1, 4))), Tensor(np.zeros((2, 4))), Tensor(np.zeros(3)))


def test_linear_without_bias_equals_a_zero_bias():
    rng = np.random.default_rng(8)
    x, w = Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(5, 4)))
    assert np.array_equal(ad.linear(x, w).data, ad.linear(x, w, Tensor(np.zeros(5))).data)


def attention_weights(scores) -> Tensor:
    """Softmax of 1-D scores via `ad.attention`, shape (1, 1, m): one query of
    width 1 set to 1, keys equal to the scores and one-hot value rows, so the
    output row is the attention weights. A (1, m, 1) Tensor is used as the keys."""
    k = scores if isinstance(scores, Tensor) else Tensor(np.reshape(scores, (1, -1, 1)))
    m = k.shape[1]
    return ad.attention(Tensor(np.ones((1, 1, 1))), k, Tensor(np.eye(m)[None]), n_heads=1)


def test_softmax_symmetry():
    out = attention_weights(np.array([0.0, 0.0]))
    assert np.allclose(out.data[0, 0], [0.5, 0.5], atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = attention_weights(np.array([1000.0, 1000.0, 1000.0]))
    assert np.all(np.isfinite(out.data))
    assert np.allclose(out.data[0, 0], [1 / 3] * 3, atol=1e-15)


def test_softmax_analytic_values():
    out = attention_weights(np.log(np.array([1.0, 2.0, 3.0])))
    assert np.allclose(out.data[0, 0], [1 / 6, 2 / 6, 3 / 6], atol=1e-14)


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 9)) * 10.0
        s = attention_weights(v).data[0, 0]
        assert abs(s.sum() - 1.0) < 1e-12
        shifted = attention_weights(v + rng.normal() * 100.0).data[0, 0]
        assert np.max(np.abs(s - shifted)) < 1e-12


def test_softmax_empty_raises():
    with pytest.raises(ValueError):
        attention_weights(np.zeros(0))


def test_layer_norm_already_normalized():
    x = Tensor(np.array([1.0, -1.0]))
    out = ad.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
    # mean 0, var 1 -> scaled by 1/sqrt(1 + eps)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-4)


def test_layer_norm_constant_input_collapses_to_zero():
    out = ad.layer_norm(Tensor(np.array([5.0, 5.0])), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(out.data, [0.0, 0.0])


def test_layer_norm_matches_direct_formula():
    rng = np.random.default_rng(3)
    x = rng.normal(size=8) * 3.0
    g = rng.normal(size=8)
    b = rng.normal(size=8)
    mu = x.mean()
    var = ((x - mu) ** 2).mean()
    expected = (x - mu) / np.sqrt(var + 1e-5) * g + b
    out = ad.layer_norm(Tensor(x), Tensor(g), Tensor(b))
    assert np.allclose(out.data, expected, atol=1e-12)


def test_layer_norm_rejects_single_feature():
    with pytest.raises(ValueError):
        ad.layer_norm(Tensor(np.ones(1)), Tensor(np.ones(1)), Tensor(np.zeros(1)))


def _random_block(rng, d_model=8, d_kv=6):
    params = {}
    ad.init_attention_block(params, "blk", d_model, d_kv, ffn_mult=2, rng=rng, dtype=np.float64)
    return params


def _attend(q, kv, params):
    return ad.cross_attention(q, kv, params, "blk", n_heads=2)


def test_cross_attention_single_token_weight_is_one():
    rng = np.random.default_rng(11)
    block = _random_block(rng)
    q = Tensor(rng.normal(size=(1, 8)))
    kv = rng.normal(size=(1, 6))
    out1 = _attend(q, Tensor(kv), block)
    # single-key softmax is exactly 1, so duplicating the token is a no-op
    out3 = _attend(q, Tensor(np.repeat(kv, 3, axis=0)), block)
    assert np.allclose(out1.data, out3.data, atol=1e-12)
    # attention output must equal the directly projected value of the token
    kvn = ad.layer_norm(Tensor(kv), block["blk/ln_kv_g"], block["blk/ln_kv_b"])
    v = ad.linear(kvn, block["blk/wv"], block["blk/bv"])
    attn_out = q + ad.linear(v, block["blk/wo"], block["blk/bo"])
    hidden = ad.gelu(ad.linear(ad.layer_norm(attn_out, block["blk/ln_f_g"], block["blk/ln_f_b"]),
                               block["blk/w1"], block["blk/b1"]))
    expected = attn_out.data + ad.linear(hidden, block["blk/w2"], block["blk/b2"]).data
    assert np.allclose(out1.data, expected, atol=1e-12)


def test_cross_attention_duplicate_tokens_invariant():
    rng = np.random.default_rng(12)
    block = _random_block(rng)
    q = Tensor(rng.normal(size=(4, 8)))
    kv = rng.normal(size=(5, 6))
    a = _attend(q, Tensor(kv), block).data
    b = _attend(q, Tensor(np.concatenate([kv, kv], axis=0)), block).data
    assert np.max(np.abs(a - b)) < 1e-10


def test_cross_attention_permutation_invariant():
    rng = np.random.default_rng(13)
    block = _random_block(rng)
    q = Tensor(rng.normal(size=(3, 8)))
    kv = rng.normal(size=(7, 6))
    ref = _attend(q, Tensor(kv), block).data
    for _ in range(20):
        perm = rng.permutation(7)
        out = _attend(q, Tensor(kv[perm]), block).data
        rel = np.max(np.abs(out - ref)) / max(np.max(np.abs(ref)), 1e-30)
        assert rel < 1e-10


def test_cross_attention_empty_kv_raises():
    rng = np.random.default_rng(14)
    block = _random_block(rng)
    with pytest.raises(ValueError):
        _attend(Tensor(np.zeros((1, 8))), Tensor(np.zeros((0, 6))), block)


def test_backward_square():
    x = Tensor(np.array(3.0), requires_grad=True)
    loss = x * x
    ad.backward(loss)
    assert np.allclose(x.grad, 6.0)


def test_backward_constant_loss_zero_grads():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = ad.tsum(x * 0.0)
    ad.backward(loss)
    assert np.allclose(x.grad, 0.0)


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(x * 2.0)


def test_backward_softmax_cross_pattern_vs_finite_differences():
    rng = np.random.default_rng(21)
    logits = rng.normal(size=6)
    target = rng.normal(size=6)

    def build(x: Tensor) -> Tensor:
        return ad.tsum(Tensor(-target) * ad.log(attention_weights(x)))

    x = Tensor(logits.reshape(1, 6, 1), requires_grad=True)
    ad.backward(build(x))
    num = numeric_grad(lambda v: float(build(Tensor(v.reshape(1, 6, 1))).data), logits, eps=1e-5)
    assert max_rel_error(x.grad.reshape(6), num) < 1e-4


def test_getitem_sums_the_gradients_of_a_row_picked_twice():
    x = Tensor(np.zeros((3, 3)), requires_grad=True)
    w = np.arange(1.0, 10.0).reshape(3, 3)
    ad.backward(ad.tsum(x[np.array([0, 2, 0])] * Tensor(w)))
    assert np.array_equal(x.grad, [[8.0, 10.0, 12.0], [0.0, 0.0, 0.0], [4.0, 5.0, 6.0]])


@pytest.mark.parametrize("idx", [
    (Ellipsis, slice(None, 3)), (Ellipsis, 3), (slice(1, None), 0), None, (None, 1),
    np.array([[True, False, True, True], [False, True, True, False]]),
    (np.array([1, 1, 0]), np.array([3, 3, 2])),
], ids=["ellipsis-slice", "ellipsis-int", "slice-int", "none", "none-int", "mask",
        "pairs-repeated"])
def test_getitem_gradient_vs_finite_differences_for_every_index_kind(idx):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 4))
    w = rng.normal(size=x[idx].shape)
    assert check_config(lambda t: ad.tsum(t["x"][idx] * Tensor(w)), {"x": x}) < 1e-6


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__", "__truediv__"])
@pytest.mark.parametrize("tensor_dtype, array_dtype", [(np.float32, np.float64),
                                                       (np.float64, np.float32)])
def test_an_array_operand_takes_the_dtype_of_the_tensor(op, tensor_dtype, array_dtype):
    x = Tensor(np.array([1.0, 2.0, 4.0], dtype=tensor_dtype), requires_grad=True)
    other = np.array([0.5, 3.0, 1e-3], dtype=array_dtype)
    out = getattr(x, op)(other)
    assert out.dtype == tensor_dtype
    ad.backward(ad.tsum(out))
    assert x.grad.dtype == tensor_dtype


def test_gradcheck_suite_primitives():
    rng = np.random.default_rng(5)
    for name, case in GRADCHECK_CASES:
        if name == "regress_nll3d":
            continue  # covered in test_regressor / acceptance
        build, inputs = case(rng)
        err = check_config(build, inputs)
        assert err < 1e-4, f"{name}: {err}"


def test_adamw_first_step_is_minus_lr():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = ad.AdamW([p], lr=0.01)
    p.grad = np.array([1.0])
    opt.step()
    assert abs((p.data[0] - 1.0) + 0.01) < 1e-8


def test_adamw_zero_grad_is_identity():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = ad.AdamW([p], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adamw_two_steps_match_scalar_oracle():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    g = 0.7
    # hand-rolled scalar Adam
    theta, m, v = 2.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)

    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = ad.AdamW([p], lr=lr)
    for _ in range(2):
        p.grad = np.array([g])
        opt.step()
    assert abs(p.data[0] - theta) < 1e-12


@pytest.mark.parametrize("lr", [0.0, -1.0, math.nan, math.inf])
def test_adamw_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="expected a finite positive value"):
        ad.AdamW([Tensor(np.array([1.0]), requires_grad=True)], lr=lr)


def test_adamw_updates_moments_in_place_and_replaces_data_bit_for_bit():
    # the out-of-place update, as a reference; a tensor without a gradient is skipped
    rng = np.random.default_rng(0)
    shapes = [(4, 3), (5,), (2,)]
    params = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for s in shapes]
    opt = ad.AdamW(params, lr=1e-3)
    moments = opt.m + opt.v
    data, m, v = ([p.data.copy() for p in params], [np.zeros(s, np.float32) for s in shapes],
                  [np.zeros(s, np.float32) for s in shapes])
    b1, b2 = ad.ADAM_BETA1, ad.ADAM_BETA2
    for t in range(1, 6):
        grads = [rng.normal(size=s).astype(np.float32) for s in shapes[:2]] + [None]
        detached = [(p.detach(), p.data.copy()) for p in params]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(grads[:2]):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            data[i] = data[i] - 1e-3 * (m[i] / (1.0 - b1**t)) / (
                np.sqrt(v[i] / (1.0 - b2**t)) + ad.ADAM_EPS)
        for p, d, (old, old_values) in zip(params, data, detached):
            assert p.data.dtype == np.float32 and np.array_equal(p.data, d)
            assert np.array_equal(old.data, old_values)  # data is replaced, not written into
        for got, want in zip(opt.m + opt.v, m + v):
            assert np.array_equal(got, want)
        assert all(a is b for a, b in zip(opt.m + opt.v, moments))
    assert opt.step_count == 5 and not opt.m[2].any() and not opt.v[2].any()


def test_no_nan_inf_on_bounded_inputs():
    rng = np.random.default_rng(33)
    for _ in range(20):
        x = Tensor(rng.uniform(-1e3, 1e3, size=(4, 6)))
        outs = [ad.attention(Tensor(np.ones((4, 1, 1))), Tensor(x.data[..., None]),
                             Tensor(np.broadcast_to(np.eye(6), (4, 6, 6))), n_heads=1),
                ad.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6))),
                ad.gelu(x),
                ad.vecnorm(x)]
        for out in outs:
            assert np.isfinite(out.data).all()


def test_gradient_accumulation_deterministic_across_subbatches():
    # summing gradients of disjoint sub-batches in a fixed order equals the
    # full-batch gradient
    rng = np.random.default_rng(17)
    w = rng.normal(size=(3, 5))
    x = rng.normal(size=(8, 5))

    def grad_of(batch):
        wt = Tensor(w, requires_grad=True)
        out = ad.linear(Tensor(batch), wt, Tensor(np.zeros(3)))
        ad.backward(ad.tsum(out * out))
        return wt.grad

    full = grad_of(x)
    parts = grad_of(x[:4]) + grad_of(x[4:])
    assert np.allclose(full, parts, atol=1e-10)
