import math

import numpy as np
import pytest

from screloc import autodiff as ad
from screloc import binio
from screloc import regressor as rg
from screloc.autodiff import Tensor
from screloc.geometry import Intrinsics, PoseSE3, rotation_about_axis

CFG64 = rg.RegressorConfig(d_feat=8, d_model=16, n_blocks=2, n_heads=2,
                           d_map=12, head_hidden=16, ffn_mult=2)


def make_params(seed=0, dtype=np.float64, cfg=CFG64):
    return rg.init_regressor(cfg, seed=seed, dtype=dtype)


def test_init_regressor_names_in_checkpoint_order():
    # this order is the record order of a .prm checkpoint and fixes the names
    # m{i}/v{i} of the AdamW moments: changing it breaks loading older files
    block = ["ln_q_g", "ln_q_b", "ln_kv_g", "ln_kv_b", "wq", "bq", "wk", "bk", "wv", "bv",
             "wo", "bo", "ln_f_g", "ln_f_b", "w1", "b1", "w2", "b2"]
    expected = (["in_proj/w", "in_proj/b"] + [f"block0/{n}" for n in block]
                + [f"block1/{n}" for n in block] + ["head/w1", "head/b1", "head/w2", "head/b2"])
    assert list(rg.init_regressor(rg.RegressorConfig(), seed=0)) == expected


def test_init_map_code_sample_std_near_nominal():
    code = rg.init_map_code(200, 64, seed=1)
    std = float(np.std(code.tokens.data))
    assert 0.008 <= std <= 0.012


def test_init_map_code_seed_deterministic():
    a = rg.init_map_code(16, 8, seed=7)
    b = rg.init_map_code(16, 8, seed=7)
    assert np.array_equal(a.tokens.data, b.tokens.data)


def test_map_code_payload_size_full_scale(tmp_path):
    # full-precision tokens at paper scale: 4096 x 768 x 4 bytes = 12 MB
    code = rg.init_map_code(4096, 768, seed=0, scene_id="scene-x")
    path = tmp_path / "code.map"
    rg.save_map_code(path, code)
    data = path.read_bytes()
    payload = data[-12_582_912:]
    assert np.array_equal(np.frombuffer(payload, "<f4").reshape(4096, 768), code.tokens.data)
    assert len(data) - len(payload) < 64  # magic, scene id, scale, array header


def test_map_code_round_trip_bit_exact(tmp_path):
    code = rg.init_map_code(32, 16, seed=3, scene_id="tuple_0003")
    code.scale = 2.5
    path = tmp_path / "c.map"
    rg.save_map_code(path, code)
    loaded = rg.load_map_code(path)
    assert loaded.scene_id == "tuple_0003"
    assert loaded.scale == 2.5
    assert np.array_equal(loaded.tokens.data, code.tokens.data.astype(np.float32))
    rg.save_map_code(tmp_path / "c2.map", loaded)
    assert (tmp_path / "c.map").read_bytes() == (tmp_path / "c2.map").read_bytes()


def test_map_code_every_truncation_is_a_format_error(tmp_path):
    src = tmp_path / "small.map"
    rg.save_map_code(src, rg.init_map_code(2, 3, seed=1, scene_id="s"))
    data = src.read_bytes()
    path = tmp_path / "cut.map"
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(binio.FormatError):
            rg.load_map_code(path)


def test_map_code_rejects_tokens_that_are_not_a_float32_matrix(tmp_path):
    for tokens in (np.zeros((2, 3)), np.zeros(6, dtype=np.float32)):
        p = tmp_path / "bad.map"
        with open(p, "wb") as fh:
            binio.write_magic(fh, rg.MAP_MAGIC)
            binio.write_str(fh, "s")
            binio.write_f64(fh, 1.0)
            binio.write_array(fh, tokens)
        with pytest.raises(binio.FormatError, match="map tokens"):
            rg.load_map_code(p)


def test_map_code_bad_magic(tmp_path):
    p = tmp_path / "bad.map"
    p.write_bytes(b"WRONGMAG" + b"\x00" * 32)
    with pytest.raises(ValueError):
        rg.load_map_code(p)


def regress_one(params, e, tokens):
    """(y, sigma) of one embedding, from `regress_batch` on a batch of one."""
    y, sigma = rg.regress_batch(params, CFG64, Tensor(np.asarray(e).reshape(1, -1)), Tensor(tokens))
    return y.data[0], float(sigma.data[0])


def test_regress_permutation_invariant_across_sizes():
    params = make_params()
    rng = np.random.default_rng(5)
    for n_tokens in (1, 2, 7, 64):
        tokens = rng.normal(size=(n_tokens, CFG64.d_map))
        e = rng.normal(size=CFG64.d_feat)
        ref_y, ref_sigma = regress_one(params, e, tokens)
        for _ in range(5):
            perm = rng.permutation(n_tokens)
            y, sigma = regress_one(params, e, tokens[perm])
            rel = np.max(np.abs(y - ref_y)) / max(np.max(np.abs(ref_y)), 1e-30)
            assert rel < 1e-10
            assert abs(sigma - ref_sigma) <= 1e-10 * ref_sigma


def test_regress_duplication_invariant():
    params = make_params(seed=2)
    rng = np.random.default_rng(6)
    tokens = rng.normal(size=(9, CFG64.d_map))
    e = rng.normal(size=CFG64.d_feat)
    ref_y, _ = regress_one(params, e, tokens)
    # duplicating the whole token set renormalizes the softmax exactly, so
    # predictions depend on the code only through its token set
    dup_y, _ = regress_one(params, e, np.concatenate([tokens, tokens]))
    assert np.max(np.abs(dup_y - ref_y)) < 1e-9
    trip_y, _ = regress_one(params, e, np.tile(tokens, (3, 1)))
    assert np.max(np.abs(trip_y - ref_y)) < 1e-9


def test_regress_sigma_within_clamp_bounds():
    rng = np.random.default_rng(8)
    for seed in range(5):
        params = make_params(seed=seed)
        e = rng.normal(size=CFG64.d_feat) * 10.0
        _, sigma = regress_one(params, e, rng.normal(size=(4, CFG64.d_map)) * 10.0)
        assert math.exp(-rg.SIGMA_CLAMP) <= sigma <= math.exp(rg.SIGMA_CLAMP)


def test_regress_batched_matches_individual_calls():
    params = make_params(seed=4)
    rng = np.random.default_rng(9)
    tokens = rng.normal(size=(7, CFG64.d_map))
    embs = rng.normal(size=(8, CFG64.d_feat))
    y, sigma = rg.regress_batch(params, CFG64, Tensor(embs), Tensor(tokens))
    for i in range(8):
        single_y, single_sigma = regress_one(params, embs[i], tokens)
        assert np.max(np.abs(y.data[i] - single_y)) < 1e-12
        assert abs(float(sigma.data[i]) - single_sigma) < 1e-12


def test_regress_dim_mismatch():
    params = make_params()
    with pytest.raises(ValueError):
        regress_one(params, np.zeros(3), np.zeros((2, CFG64.d_map)))


def test_laplace_nll_3d_exact_values():
    pred = rg.CoordPrediction(np.zeros(3), 1.0)
    assert rg.laplace_nll_3d(pred, np.zeros(3)) == 0.0
    pred2 = rg.CoordPrediction(np.array([1.0, 0.0, 0.0]), 1.0)
    assert abs(rg.laplace_nll_3d(pred2, np.zeros(3)) - math.sqrt(2)) < 1e-12


def _golden_min(f, lo, hi, tol=1e-10):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    while b - a > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


@pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
def test_laplace_nll_minimizer_at_sqrt2_r(r):
    def loss(sigma):
        return math.log(sigma) + math.sqrt(2) * r / sigma

    sigma_star = _golden_min(loss, 1e-4, 1e3)
    assert abs(sigma_star - math.sqrt(2) * r) < 1e-6
    # strictly decreasing below, increasing above
    assert loss(0.5 * math.sqrt(2) * r) > loss(0.9 * math.sqrt(2) * r)
    assert loss(1.1 * math.sqrt(2) * r) < loss(2.0 * math.sqrt(2) * r)


def pixel_nll(pixel, sigma_x, pixel_gt):
    """2D Laplace NLL from `reprojection_nll_batch`.

    With f = 1, c = 0 and the point at depth 1 in front of an identity
    camera, the projection is the point's (x, y) and sigma_x is sigma.
    """
    y = Tensor(np.array([[pixel[0], pixel[1], 1.0]]))
    loss, valid = rg.reprojection_nll_batch(
        y, Tensor(np.array([sigma_x])), np.eye(3)[None], np.zeros((1, 3)),
        np.array([[1.0, 1.0, 0.0, 0.0]]), np.asarray(pixel_gt, dtype=np.float64).reshape(1, 2),
        d0=1.0)
    assert valid[0]
    return float(loss.data[0])


def test_reprojection_nll_pixel_space_exact_values():
    assert pixel_nll([0.0, 0.0], 1.0, [0.0, 0.0]) == 0.0
    assert abs(pixel_nll([1.0, 0.0], 1.0, [0.0, 0.0]) - math.sqrt(2)) < 1e-12
    def loss(sigma):
        return pixel_nll([3.0, 4.0], sigma, [0.0, 0.0])
    assert abs(_golden_min(loss, 1e-3, 1e3) - math.sqrt(2) * 5.0) < 1e-5


def test_project_prediction_sigma_propagation():
    K = Intrinsics(100.0, 100.0, 50.0, 50.0)
    pred = rg.CoordPrediction(np.array([0.0, 0.0, 2.0]), 0.02)
    x, sigma_x, valid = rg.project_prediction(pred, K, PoseSE3.identity())
    assert valid
    assert np.allclose(x, [50.0, 50.0])
    assert abs(sigma_x - 1.0) < 1e-12


def test_project_prediction_behind_camera_invalid():
    K = Intrinsics(100.0, 100.0, 50.0, 50.0)
    pred = rg.CoordPrediction(np.array([0.0, 0.0, -1.0]), 0.5)
    _, _, valid = rg.project_prediction(pred, K, PoseSE3.identity())
    assert not valid


def test_project_prediction_z_clamped_in_sigma():
    K = Intrinsics(100.0, 100.0, 50.0, 50.0)
    z = rg.Z_MIN / 2
    pred = rg.CoordPrediction(np.array([0.0, 0.0, z]), 0.02)
    _, sigma_x, valid = rg.project_prediction(pred, K, PoseSE3.identity())
    assert not valid
    assert abs(sigma_x - 0.02 * 100.0 / rg.Z_MIN) < 1e-12


def test_project_prediction_large_reproj_error_invalid():
    K = Intrinsics(100.0, 100.0, 50.0, 50.0)
    pred = rg.CoordPrediction(np.array([0.0, 0.0, 2.0]), 0.5)
    _, _, valid = rg.project_prediction(pred, K, PoseSE3.identity(),
                                        pixel_gt=np.array([5000.0, 50.0]))
    assert not valid


def test_depth_prior_zero_at_target():
    ray = np.array([0.0, 0.0, 1.0])
    pred = rg.CoordPrediction(np.array([0.0, 0.0, 2.0]), 1.0)
    assert rg.depth_prior_loss(pred, ray, PoseSE3.identity(), 2.0) == 0.0


def test_depth_prior_principal_ray_target():
    ray = np.array([0.0, 0.0, 1.0])
    pred = rg.CoordPrediction(np.array([1.0, 1.0, 1.0]), 1.0)
    expected = rg.laplace_nll_3d(pred, np.array([0.0, 0.0, 2.0]))
    assert abs(rg.depth_prior_loss(pred, ray, PoseSE3.identity(), 2.0) - expected) < 1e-15


def test_depth_prior_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    pose = PoseSE3(rotation_about_axis(np.array([0.3, 1.0, 0.2]), 25.0), np.array([0.5, -0.3, 0.2]))
    ray = rng.normal(size=3)
    ray /= np.linalg.norm(ray)
    d0 = 2.3
    sigma = 0.7
    y0 = rng.normal(size=3)

    target = pose.rotation @ (d0 * ray) + pose.translation
    y = Tensor(y0, requires_grad=True)
    loss = ad.tsum(rg.laplace_nll_batch(ad.reshape(y, (1, 3)), Tensor(np.array([sigma])),
                                        Tensor(target.reshape(1, 3))))
    ad.backward(loss)

    def f(v):
        return rg.depth_prior_loss(rg.CoordPrediction(v, sigma), ray, pose, d0)

    num = ad.numeric_grad(f, y0, eps=1e-6)
    assert ad.max_rel_error(y.grad, num) < 1e-4


def test_end_to_end_gradcheck_regress_nll():
    from screloc.checks import GRADCHECK_CASES, _check_config

    case = dict(GRADCHECK_CASES)["regress_nll3d"]
    rng = np.random.default_rng(3)
    for _ in range(3):
        build, inputs = case(rng)
        assert _check_config(build, inputs) < 1e-4


def test_reprojection_nll_batch_valid_and_prior_paths():
    K = Intrinsics(100.0, 100.0, 50.0, 50.0)
    n = 4
    rot = np.stack([np.eye(3)] * n)
    trans = np.zeros((n, 3))
    kvec = np.tile(K.as_array(), (n, 1))
    pixel_gt = np.tile([50.0, 50.0], (n, 1))
    # two predictions in front, one behind, one wildly off-image
    y = np.array([[0.0, 0.0, 2.0],
                  [0.2, 0.0, 4.0],
                  [0.0, 0.0, -3.0],
                  [80.0, 0.0, 2.0]])
    sigma = np.full(n, 0.5)
    loss, valid = rg.reprojection_nll_batch(Tensor(y), Tensor(sigma), rot, trans,
                                            kvec, pixel_gt, d0=2.0)
    assert valid.tolist() == [True, True, False, False]
    # first record projects exactly onto its pixel: pure log sigma_x
    sigma_x0 = 0.5 * 100.0 / 2.0
    assert abs(float(loss.data[0]) - math.log(sigma_x0)) < 1e-9
    # third record scored against the depth prior target (0, 0, 2)
    expected = rg.laplace_nll_3d(rg.CoordPrediction(y[2], 0.5), np.array([0.0, 0.0, 2.0]))
    assert abs(float(loss.data[2]) - expected) < 1e-9
