import math

import numpy as np
import pytest

from screloc import autodiff as ad
from screloc import binio
from screloc.autodiff import Tensor


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


def test_softmax_symmetry():
    out = ad.softmax(Tensor(np.array([0.0, 0.0])))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = ad.softmax(Tensor(np.array([1000.0, 1000.0, 1000.0])))
    assert np.all(np.isfinite(out.data))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_analytic_values():
    out = ad.softmax(Tensor(np.log(np.array([1.0, 2.0, 3.0]))))
    assert np.allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-14)


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 9)) * 10.0
        s = ad.softmax(Tensor(v)).data
        assert abs(s.sum() - 1.0) < 1e-12
        shifted = ad.softmax(Tensor(v + rng.normal() * 100.0)).data
        assert np.max(np.abs(s - shifted)) < 1e-12


def test_softmax_empty_raises():
    with pytest.raises(ValueError):
        ad.softmax(Tensor(np.zeros(0)))


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
        return -ad.tsum(Tensor(target) * ad.log(ad.softmax(x)))

    x = Tensor(logits, requires_grad=True)
    ad.backward(build(x))
    num = ad.numeric_grad(lambda v: float(build(Tensor(v)).data), logits, eps=1e-5)
    assert ad.max_rel_error(x.grad, num) < 1e-4


def test_gradcheck_suite_primitives():
    from screloc.checks import GRADCHECK_CASES, _check_config

    rng = np.random.default_rng(5)
    for name, case in GRADCHECK_CASES:
        if name == "regress_nll3d":
            continue  # covered in test_regressor / acceptance
        build, inputs = case(rng)
        err = _check_config(build, inputs)
        assert err < 1e-4, f"{name}: {err}"


def test_adamw_first_step_is_minus_lr():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = ad.AdamW([p], lr=0.01, eps=1e-12)
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
    lr, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.01
    g = 0.7
    # hand-rolled scalar AdamW
    theta, m, v = 2.0, 0.0, 0.0
    for t in (1, 2):
        theta *= 1.0 - lr * wd
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)

    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = ad.AdamW([p], lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
    for _ in range(2):
        p.grad = np.array([g])
        opt.step()
    assert abs(p.data[0] - theta) < 1e-12


def test_adamw_rejects_nonfinite_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = ad.AdamW([p], lr=0.1)
    p.grad = np.array([np.nan])
    with pytest.raises(FloatingPointError):
        opt.step()


def test_adamw_nonfinite_grad_leaves_every_tensor_unstepped():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0]), requires_grad=True)
    opt = ad.AdamW([a, b], lr=0.1, weight_decay=0.01)
    a.grad, b.grad = np.array([0.5, -0.5]), np.array([0.25])
    opt.step()
    before = [t.data.copy() for t in (a, b)], [m.copy() for m in opt.m], [v.copy() for v in opt.v]
    a.grad, b.grad = np.array([0.5, -0.5]), np.array([np.nan])
    with pytest.raises(FloatingPointError):
        opt.step()
    assert opt.step_count == 1
    for got, want in zip(([t.data for t in (a, b)], opt.m, opt.v), before):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_no_nan_inf_on_bounded_inputs():
    rng = np.random.default_rng(33)
    ad.set_finite_checks(True)
    try:
        for _ in range(20):
            x = Tensor(rng.uniform(-1e3, 1e3, size=(4, 6)))
            ad.softmax(x)
            ad.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
            ad.gelu(x)
            ad.vecnorm(x)
    finally:
        ad.set_finite_checks(False)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    named = {
        "block0/wq": rng.normal(size=(8, 8)).astype(np.float32),
        "head/b": rng.normal(size=(4,)).astype(np.float32),
        "scalar": np.array(1.5, dtype=np.float32),
    }
    path = tmp_path / "params.prm"
    ad.save_params(path, named)
    loaded = ad.load_params(path)
    assert set(loaded) == set(named)
    for k in named:
        assert loaded[k].shape == named[k].shape
        assert np.array_equal(loaded[k], named[k])
    # file-level round trip: save(load(file)) reproduces identical bytes
    path2 = tmp_path / "params2.prm"
    ad.save_params(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_keeps_each_array_dtype(tmp_path):
    named = {"step": np.array([123456789012], dtype=np.int64),
             "w": np.linspace(0.0, 1.0, 6).reshape(2, 3),
             "tokens": np.ones((2, 2), dtype=np.float32)}
    path = tmp_path / "mixed.prm"
    ad.save_params(path, named)
    loaded = ad.load_params(path)
    assert list(loaded) == list(named)
    for k, arr in named.items():
        assert loaded[k].dtype == arr.dtype
        assert np.array_equal(loaded[k], arr)


def test_checkpoint_every_truncation_is_a_format_error(tmp_path):
    src = tmp_path / "small.prm"
    ad.save_params(src, {"a": np.arange(3, dtype=np.float32), "bb": np.zeros((1, 2))})
    data = src.read_bytes()
    path = tmp_path / "cut.prm"
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(binio.FormatError):
            ad.load_params(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.prm"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError):
        ad.load_params(path)


def test_gradient_accumulation_deterministic_across_subbatches():
    # summing gradients of disjoint sub-batches in a fixed order equals the
    # full-batch gradient
    rng = np.random.default_rng(17)
    w = rng.normal(size=(3, 5))
    x = rng.normal(size=(8, 5))

    def grad_of(batch):
        wt = Tensor(w, requires_grad=True)
        out = ad.matmul(Tensor(batch), ad.transpose(wt, (1, 0)))
        ad.backward(ad.tsum(out * out))
        return wt.grad

    full = grad_of(x)
    parts = grad_of(x[:4]) + grad_of(x[4:])
    assert np.allclose(full, parts, atol=1e-10)
