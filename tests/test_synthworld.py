import io

import numpy as np
import pytest

from screloc import binio
from screloc import synthworld as sw
from screloc.geometry import Z_MIN, project

CFG = sw.WorldConfig()


def small_cfg(**kw):
    base = dict(n_points=128, orbit_frames=10, min_visible=16)
    base.update(kw)
    return sw.WorldConfig(**base)


def make_oracle(cfg, seed=100):
    return sw.FeatureOracle(cfg.latent_dim, cfg.d_feat, cfg.alpha, cfg.beta,
                            cfg.sigma_noise, seed)


def test_gen_scene_deterministic():
    a = sw.gen_scene(CFG, seed=1)
    b = sw.gen_scene(CFG, seed=1)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.latents, b.latents)


def test_gen_scene_points_inside_box():
    scene = sw.gen_scene(CFG, seed=2)
    assert scene.points.shape == (512, 3)
    half = np.array(CFG.box) / 2
    assert np.all(scene.points >= -half) and np.all(scene.points <= half)
    assert np.allclose(np.linalg.norm(scene.latents, axis=1), 1.0)


def test_gen_scene_mean_near_center():
    cfg = sw.WorldConfig(n_points=10_000)
    scene = sw.gen_scene(cfg, seed=3)
    mean = scene.points.mean(axis=0)
    assert np.all(np.abs(mean) < 0.1 * np.array(cfg.box))


def test_trajectory_poses_orthonormal():
    scene = sw.gen_scene(CFG, seed=4)
    for pose in sw.gen_trajectory(scene, CFG, seed=5):
        r = pose.rotation
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9


def test_trajectory_smoothness():
    scene = sw.gen_scene(CFG, seed=6)
    frames = sw.gen_trajectory(scene, CFG, seed=7)
    centers = np.array([f.translation for f in frames])
    radius = np.median(np.linalg.norm(centers - scene.centroid, axis=1))
    steps = np.linalg.norm(np.diff(centers, axis=0), axis=1)
    assert np.max(steps) < 0.1 * radius


def test_trajectory_visibility():
    cfg = CFG
    scene = sw.gen_scene(cfg, seed=8)
    oracle = make_oracle(cfg)
    for pose in sw.gen_trajectory(scene, cfg, seed=9):
        view = sw.render_view(scene, pose, cfg, oracle, 0.0, sw.ROLE_MAPPING, noise_seed=0)
        assert len(view.observations) >= cfg.min_visible


def test_feature_oracle_deterministic_without_noise():
    cfg = small_cfg(sigma_noise=0.0)
    oracle = make_oracle(cfg)
    a = np.random.default_rng(0).normal(size=(5, cfg.latent_dim))
    v = np.tile([0.0, 0.0, 1.0], (5, 1))
    e1 = oracle.embed(a, v, 0.0)
    e2 = oracle.embed(a, v, 0.0)
    assert np.array_equal(e1, e2)


def test_feature_oracle_condition_changes_embedding():
    cfg = small_cfg(sigma_noise=0.0, alpha=0.5)
    oracle = make_oracle(cfg)
    rng = np.random.default_rng(1)
    a = rng.normal(size=(10, cfg.latent_dim))
    v = np.tile([0.0, 0.0, 1.0], (10, 1))
    d = np.linalg.norm(oracle.embed(a, v, 1.0) - oracle.embed(a, v, 0.0), axis=1)
    assert np.all(d > 0)


def test_feature_oracle_condition_bounds():
    oracle = make_oracle(small_cfg())
    with pytest.raises(ValueError):
        oracle.embed(np.zeros(16), np.array([0.0, 0.0, 1.0]), 1.5)


def test_feature_oracle_correlation_decreases_with_alpha():
    # Monte-Carlo over a fixed latent set: stronger alpha, lower correlation
    rng = np.random.default_rng(2)
    lat = rng.normal(size=(1000, 16))
    lat /= np.linalg.norm(lat, axis=1, keepdims=True)
    v = np.tile([0.0, 0.0, 1.0], (1000, 1))
    corrs = []
    for alpha in (0.0, 0.25, 0.5, 1.0):
        oracle = sw.FeatureOracle(16, 32, alpha, beta=0.1, sigma_noise=0.0, seed=3)
        e0 = oracle.embed(lat, v, 0.0).ravel()
        e1 = oracle.embed(lat, v, 1.0).ravel()
        corrs.append(np.corrcoef(e0, e1)[0, 1])
    assert all(corrs[i] > corrs[i + 1] for i in range(len(corrs) - 1))
    assert corrs[0] > 0.999  # alpha = 0 is the no-gap control


def test_render_view_excludes_behind_camera_and_bounds():
    cfg = small_cfg()
    scene = sw.gen_scene(cfg, seed=10)
    oracle = make_oracle(cfg)
    pose = sw.gen_trajectory(scene, cfg, seed=11)[0]
    view = sw.render_view(scene, pose, cfg, oracle, 0.0, sw.ROLE_MAPPING, noise_seed=1)
    w, h = cfg.image_size
    for obs in view.observations:
        assert 0 <= obs.pixel[0] < w and 0 <= obs.pixel[1] < h
        pixel, z = project(view.intrinsics, pose, obs.y_world)
        assert z > Z_MIN
        assert np.max(np.abs(pixel - obs.pixel)) < 1e-9


def test_render_bit_deterministic():
    cfg = small_cfg()
    scene = sw.gen_scene(cfg, seed=12)
    oracle = make_oracle(cfg)
    pose = sw.gen_trajectory(scene, cfg, seed=13)[0]
    v1 = sw.render_view(scene, pose, cfg, oracle, 0.3, sw.ROLE_QUERY, noise_seed=77)
    v2 = sw.render_view(scene, pose, cfg, oracle, 0.3, sw.ROLE_QUERY, noise_seed=77)
    assert np.array_equal(v1.embeddings(), v2.embeddings())
    assert np.array_equal(v1.pixels(), v2.pixels())


def test_sample_split_disjoint():
    cfg = sw.SplitConfig()
    for seed in range(20):
        mapping, query = sw.sample_split(24, cfg, seed)
        assert not set(mapping) & set(query)
        assert mapping and query
        assert set(mapping) | set(query) <= set(range(24))


def test_sample_split_query_mapping_query_pattern():
    cfg = sw.SplitConfig(scheme="query-mapping-query")
    mapping, query = sw.sample_split(10, cfg, seed=0)
    assert mapping == list(range(min(mapping), max(mapping) + 1))  # contiguous
    assert all(q < min(mapping) or q > max(mapping) for q in query)
    assert any(q < min(mapping) for q in query)
    assert any(q > max(mapping) for q in query)


def test_sample_split_interspersed_multiple_intervals():
    cfg = sw.SplitConfig()
    mapping, _ = sw.sample_split(100, cfg, seed=1)
    # count contiguous runs in the mapping set
    runs = 1 + sum(1 for a, b in zip(mapping, mapping[1:]) if b != a + 1)
    assert runs >= 2


def test_sample_split_rejects_tiny_sequences():
    with pytest.raises(ValueError):
        sw.sample_split(3, sw.SplitConfig(), seed=0)


def test_sample_split_deterministic():
    cfg = sw.SplitConfig()
    assert sw.sample_split(30, cfg, seed=5) == sw.sample_split(30, cfg, seed=5)


def _render_small_tuple(seed=20, query_condition=1.0):
    cfg = small_cfg()
    scene = sw.gen_scene(cfg, seed=seed)
    oracle = make_oracle(cfg)
    return cfg, sw.render_tuple(scene, cfg, oracle, sw.SplitConfig(),
                                seed=seed + 1, query_condition=query_condition)


def test_no_gap_control_world():
    # alpha = 0, sigma_noise = 0: same point, same view dir -> identical embedding
    cfg = small_cfg(alpha=0.0, sigma_noise=0.0)
    oracle = make_oracle(cfg)
    rng = np.random.default_rng(31)
    lat = rng.normal(size=(4, cfg.latent_dim))
    v = rng.normal(size=(4, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    e_map = oracle.embed(lat, v, 0.0)
    e_query = oracle.embed(lat, v, 1.0)
    assert np.array_equal(e_map, e_query)


def test_scene_tuple_round_trip(tmp_path):
    cfg, tup = _render_small_tuple(seed=40)
    path = tmp_path / "tuple.scn"
    sw.save_scene_tuple(path, tup, cfg)
    loaded, meta = sw.load_scene_tuple(path)
    assert loaded.tuple_id == tup.tuple_id
    assert meta["image_size"] == cfg.image_size
    assert np.array_equal(loaded.scene.points, tup.scene.points)
    assert len(loaded.mapping_views) == len(tup.mapping_views)
    assert len(loaded.query_views) == len(tup.query_views)
    v0, l0 = tup.mapping_views[0], loaded.mapping_views[0]
    assert np.array_equal(v0.pixels(), l0.pixels())
    assert np.array_equal(v0.embeddings(), l0.embeddings())
    assert np.array_equal(v0.pose.rotation, l0.pose.rotation)
    # second save is byte-identical
    sw.save_scene_tuple(tmp_path / "tuple2.scn", loaded, cfg)
    assert path.read_bytes() == (tmp_path / "tuple2.scn").read_bytes()


def test_scene_tuple_bad_magic(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_bytes(b"BADMAGIC" + b"\x00" * 64)
    with pytest.raises(Exception):
        sw.load_scene_tuple(p)


def _crafted_tuple(points=np.arange(12.0).reshape(4, 3),
                   role=sw.ROLE_MAPPING, point_index=np.array([0, 3], np.uint32),
                   pixels=np.array([[10.0, 20.0], [30.0, 40.0]]),
                   embeddings=np.zeros((2, 4), np.float32),
                   intrinsics=np.array([128.0, 128.0, 128.0, 128.0]), rotation=np.eye(3),
                   translation=np.zeros(3)):
    """Bytes of a one-view scene tuple over 4 points, written field by field."""
    fh = io.BytesIO()
    binio.write_magic(fh, sw.SCENE_MAGIC)
    binio.write_u32(fh, sw.SCENE_VERSION)
    binio.write_str(fh, "tuple")
    binio.write_str(fh, "scene")
    binio.write_u32(fh, 7)
    for value in (1.0, 4.0, 4.0, 3.0):  # scale, box
        binio.write_f64(fh, value)
    binio.write_u32(fh, 256)
    binio.write_u32(fh, 256)
    binio.write_array(fh, points)
    binio.write_array(fh, np.ones((4, 2)))  # latents
    binio.write_u32(fh, 1)
    binio.write_u8(fh, role)
    binio.write_f64(fh, 0.0)
    binio.write_array(fh, intrinsics)
    binio.write_array(fh, rotation)
    binio.write_array(fh, translation)
    binio.write_u32(fh, 2)
    binio.write_array(fh, point_index)
    binio.write_array(fh, pixels)
    binio.write_array(fh, embeddings)
    return fh.getvalue()


def test_crafted_scene_tuple_loads(tmp_path):
    path = tmp_path / "ok.scn"
    path.write_bytes(_crafted_tuple())
    tup, _ = sw.load_scene_tuple(path)
    (view,) = tup.mapping_views
    assert list(view.observations.point_index) == [0, 3]
    assert np.array_equal(view.points(), tup.scene.points[[0, 3]])
    assert np.array_equal(view.pixels(), [[10.0, 20.0], [30.0, 40.0]])


def test_scene_tuple_every_truncation_is_a_format_error(tmp_path):
    data = _crafted_tuple()
    path = tmp_path / "cut.scn"
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(binio.FormatError):
            sw.load_scene_tuple(path)


@pytest.mark.parametrize("fields, message", [
    (dict(points=np.arange(8.0).reshape(4, 2)), "points"),
    (dict(role=9), "role"),
    (dict(pixels=np.ones((3, 2))), "pixels"),
    (dict(pixels=np.ones((2, 3))), "pixels"),
    (dict(embeddings=np.zeros((3, 4), np.float32)), "embeddings"),
    (dict(point_index=np.array([0, 4], np.uint32)), "point index"),
    (dict(point_index=np.array([0, -1], np.int64)), "point indices"),
    (dict(points=np.array([[0.0, 0.0, np.nan]] + [[1.0, 2.0, 3.0]] * 3)), "non-finite scene points"),
    (dict(pixels=np.array([[10.0, 20.0], [np.inf, 40.0]])), "non-finite pixels"),
    (dict(embeddings=np.array([[0, 0, 0, np.nan], [0, 0, 0, 0]], np.float32)),
     "non-finite pixels or embeddings"),
    (dict(points=np.arange(15.0).reshape(5, 3)), "latents"),
    (dict(intrinsics=np.array([128.0, 128.0, 128.0])), "intrinsics"),
    (dict(intrinsics=np.array([128.0, 128.0, np.nan, 128.0])), "intrinsics"),
    (dict(intrinsics=np.array([np.nan, 128.0, 128.0, 128.0])), "intrinsics"),
    (dict(intrinsics=np.array([-1.0, 128.0, 128.0, 128.0])), "focal"),
    (dict(rotation=np.eye(4)), "rotation"),
    (dict(rotation=np.full((3, 3), np.nan)), "rotation"),
    (dict(rotation=np.diag([1.0, 1.0, -1.0])), "rotation"),
    (dict(translation=np.array([0.0, np.nan, 0.0])), "translation"),
    (dict(translation=np.zeros(4)), "translation"),
], ids=["point-columns", "role", "pixel-rows", "pixel-columns", "embedding-rows", "point-index",
        "signed-point-index", "nan-point", "inf-pixel", "nan-embedding", "latent-rows",
        "short-intrinsics", "nan-principal-point", "nan-focal", "negative-focal",
        "rotation-shape", "nan-rotation", "reflection", "nan-translation", "translation-shape"])
def test_scene_tuple_rejects_corrupt_view(tmp_path, fields, message):
    path = tmp_path / "bad.scn"
    path.write_bytes(_crafted_tuple(**fields))
    with pytest.raises(binio.FormatError, match=message):
        sw.load_scene_tuple(path)
