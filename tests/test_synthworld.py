import math

import numpy as np
import pytest

from screloc import binio
from screloc import synthworld as sw
from screloc.geometry import Z_MIN, look_at

import oracles
from oracles import project

CFG = sw.WorldConfig()


def embed(oracle, appearance, view_dir, condition, noise_rng=None):
    """The oracle's embeddings of appearances (n, k) or (k,) seen along view_dir."""
    terms = oracle.appearance_terms(np.atleast_2d(appearance), [condition])[condition]
    return oracle.combine(terms, view_dir, noise_rng)


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


@pytest.mark.parametrize("n_frames", [0, 1])
def test_gen_trajectory_rejects_fewer_than_two_frames(n_frames):
    scene = sw.gen_scene(CFG, seed=4)
    with pytest.raises(ValueError, match="need at least two frames"):
        sw.gen_trajectory(scene, CFG, seed=5, n_frames=n_frames)
    assert len(sw.gen_trajectory(scene, CFG, seed=5, n_frames=2)) == 2
    assert len(sw.gen_trajectory(scene, CFG, seed=5)) == CFG.orbit_frames


@pytest.mark.parametrize("min_visible", [8, 12])
def test_gen_trajectory_matches_the_frame_by_frame_draws(min_visible):
    """A narrow view (64 px at focal 512) fails many attempts part-way: each next
    attempt must draw on from where the frame-by-frame check stopped, and an
    orbit that no attempt completes must fail in both."""
    cfg = sw.WorldConfig(n_points=128, orbit_frames=10, min_visible=min_visible,
                         image_size=(64, 64), focal=512.0)
    outcomes = set()
    for seed in range(12):
        scene = sw.gen_scene(cfg, seed=seed)
        try:
            ref = oracles.trajectory(scene, cfg, seed + 100, cfg.orbit_frames)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="visibility constraint"):
                sw.gen_trajectory(scene, cfg, seed + 100)
            outcomes.add("failed")
            continue
        frames = sw.gen_trajectory(scene, cfg, seed + 100)
        assert len(frames) == len(ref)
        for pose, ref_pose in zip(frames, ref):
            assert np.array_equal(pose.rotation, ref_pose.rotation)
            assert np.array_equal(pose.translation, ref_pose.translation)
        outcomes.add("done")
    assert outcomes == ({"done"} if min_visible == 8 else {"done", "failed"})


def test_feature_oracle_deterministic_without_noise():
    cfg = small_cfg(sigma_noise=0.0)
    oracle = make_oracle(cfg)
    a = np.random.default_rng(0).normal(size=(5, cfg.latent_dim))
    v = np.tile([0.0, 0.0, 1.0], (5, 1))
    e1 = embed(oracle, a, v, 0.0)
    e2 = embed(oracle, a, v, 0.0)
    assert np.array_equal(e1, e2)


def test_feature_oracle_condition_changes_embedding():
    cfg = small_cfg(sigma_noise=0.0, alpha=0.5)
    oracle = make_oracle(cfg)
    rng = np.random.default_rng(1)
    a = rng.normal(size=(10, cfg.latent_dim))
    v = np.tile([0.0, 0.0, 1.0], (10, 1))
    d = np.linalg.norm(embed(oracle, a, v, 1.0) - embed(oracle, a, v, 0.0), axis=1)
    assert np.all(d > 0)


def test_feature_oracle_condition_bounds():
    oracle = make_oracle(small_cfg())
    with pytest.raises(ValueError):
        embed(oracle, np.zeros(16), np.array([0.0, 0.0, 1.0]), 1.5)


def test_feature_oracle_correlation_decreases_with_alpha():
    # Monte-Carlo over a fixed latent set: stronger alpha, lower correlation
    rng = np.random.default_rng(2)
    lat = rng.normal(size=(1000, 16))
    lat /= np.linalg.norm(lat, axis=1, keepdims=True)
    v = np.tile([0.0, 0.0, 1.0], (1000, 1))
    corrs = []
    for alpha in (0.0, 0.25, 0.5, 1.0):
        oracle = sw.FeatureOracle(16, 32, alpha, beta=0.1, sigma_noise=0.0, seed=3)
        e0 = embed(oracle, lat, v, 0.0).ravel()
        e1 = embed(oracle, lat, v, 1.0).ravel()
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


def test_render_view_matches_the_view_by_view_formula():
    cfg = small_cfg()
    for seed in (14, 15):
        scene = sw.gen_scene(cfg, seed=seed)
        oracle = make_oracle(cfg, seed=seed)
        for i, pose in enumerate(sw.gen_trajectory(scene, cfg, seed=seed + 1)[:4]):
            condition = (0.0, 0.4, 1.0, 0.0)[i]
            view = sw.render_view(scene, pose, cfg, oracle, condition, sw.ROLE_QUERY, 70 + i)
            idx, pixels, embeddings = oracles.render_view(scene, pose, cfg, oracle, condition,
                                                          70 + i)
            assert np.array_equal(view.point_index(), idx)
            assert np.array_equal(view.pixels(), pixels)
            assert np.array_equal(view.embeddings(), embeddings)
            assert np.array_equal(view.points(), scene.points[idx])


@pytest.mark.parametrize("role", [7, -1, 2])
def test_render_view_rejects_unknown_roles(role):
    cfg = small_cfg()
    scene = sw.gen_scene(cfg, seed=10)
    pose = sw.gen_trajectory(scene, cfg, seed=11)[0]
    with pytest.raises(ValueError, match="unknown view role"):
        sw.render_view(scene, pose, cfg, make_oracle(cfg), 0.0, role, noise_seed=1)


def test_a_pose_that_sees_no_point_renders_an_empty_view():
    cfg = small_cfg()
    scene = sw.gen_scene(cfg, seed=10)
    away = look_at(scene.centroid + np.array([10.0, 0.0, 0.0]), np.array([20.0, 0.0, 0.0]))
    view = sw.render_view(scene, away, cfg, make_oracle(cfg), 1.0, sw.ROLE_QUERY, noise_seed=1)
    assert len(view.observations) == 0 and not view.observations.flags.writeable
    assert view.embeddings().shape == (0, cfg.d_feat)


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


def test_query_mapping_query_split_is_one_mapping_run_between_query_frames():
    """Over every sequence length and interval range of the grid, the mapping frames
    form one nonempty run with query frames on both sides; some draws ask for more
    query frames than fit, and keep one mapping frame."""
    clamped = 0
    for lo in range(1, 12):
        for hi in range(lo, 12):
            cfg = sw.SplitConfig(scheme="query-mapping-query", min_interval=lo, max_interval=hi)
            for n_frames in range(4, 80):
                for seed in range(10):
                    mapping, query = sw.sample_split(n_frames, cfg, seed)
                    assert mapping == list(range(mapping[0], mapping[-1] + 1))
                    assert sorted(mapping + query) == list(range(n_frames))
                    assert query[0] < mapping[0] and query[-1] > mapping[-1]
                    if len(mapping) == 1:  # drawn so, or clamped from fewer
                        rng = np.random.default_rng(seed)
                        q1, q2 = (int(rng.integers(lo, hi + 1)) for _ in range(2))
                        clamped += min(q1, n_frames - 2) + q2 > n_frames - 1
    assert clamped > 0


def test_sample_split_interspersed_multiple_intervals():
    cfg = sw.SplitConfig()
    mapping, _ = sw.sample_split(100, cfg, seed=1)
    # count contiguous runs in the mapping set
    runs = 1 + sum(1 for a, b in zip(mapping, mapping[1:]) if b != a + 1)
    assert runs >= 2


def test_sample_split_rejects_tiny_sequences():
    with pytest.raises(ValueError):
        sw.sample_split(3, sw.SplitConfig(), seed=0)


@pytest.mark.parametrize("fields, message", [
    (dict(min_interval=0), "min_interval"),
    (dict(min_interval=3, max_interval=2), "max_interval"),
    (dict(scheme="random"), "scheme"),
])
def test_split_config_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        sw.SplitConfig(**fields)


@pytest.mark.parametrize("fields, message", [
    (dict(box=(4.0, 4.0, 0.0)), "box"),
    (dict(box=(4.0, -4.0, 3.0)), "box"),
    (dict(box=(4.0, math.inf, 3.0)), "box"),
    (dict(box=(4.0, 4.0)), "box"),
    (dict(n_points=0), "n_points"),
    (dict(latent_dim=0), "latent_dim"),
    (dict(d_feat=0), "d_feat"),
    (dict(sigma_noise=-0.05), "sigma_noise"),
    (dict(sigma_noise=math.nan), "sigma_noise"),
    (dict(alpha=math.nan), "alpha"),
    (dict(beta=math.inf), "beta"),
    (dict(image_size=(0, 256)), "image_size"),
    (dict(focal=0.0), "focal"),
    (dict(focal=math.inf), "focal"),
    (dict(orbit_frames=3), "orbit_frames"),
    (dict(n_points=16, min_visible=32), "min_visible 32"),
    (dict(min_visible=-1), "min_visible -1"),
    (dict(image_size=(200.7, 256)), "image_size"),
    (dict(image_size=(math.nan, 256)), "image_size"),
])
def test_world_config_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        sw.WorldConfig(**fields)


def test_sample_split_gives_up_when_one_interval_covers_every_frame():
    with pytest.raises(ValueError, match="no interspersed split of 24 frames"):
        sw.sample_split(24, sw.SplitConfig(min_interval=30, max_interval=30), seed=0)


def test_sample_split_retries_on_the_next_seeds():
    """A draw whose first interval covers every frame moves on to seed + 1, + 2, ..."""
    cfg = sw.SplitConfig(min_interval=2, max_interval=12)
    covering = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        rng.integers(0, 2)  # the role of the first interval
        if rng.integers(2, 13) >= 8:
            covering.append(seed)
    assert covering
    for seed in covering:
        assert sw.sample_split(8, cfg, seed) == sw.sample_split(8, cfg, seed + 1)


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
    e_map = embed(oracle, lat, v, 0.0)
    e_query = embed(oracle, lat, v, 1.0)
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


def test_scene_tuple_round_trip_with_an_empty_view(tmp_path):
    cfg, tup = _render_small_tuple(seed=41)
    first = tup.mapping_views[0]
    d = first.embeddings().shape[1]
    empty = sw.ViewRender(first.pose, first.intrinsics, 0.0, sw.ROLE_MAPPING, np.empty((0, 2)),
                          np.empty((0, d), np.float32), np.empty(0, np.uint32), np.empty((0, 3)))
    tup.mapping_views.insert(1, empty)
    path = tmp_path / "tuple.scn"
    sw.save_scene_tuple(path, tup, cfg)
    loaded, _ = sw.load_scene_tuple(path)
    written = tup.mapping_views + tup.query_views
    views = loaded.mapping_views + loaded.query_views
    _one_set_of_columns(views)
    assert [len(v.pixels()) for v in views] == [len(v.pixels()) for v in written]
    assert len(views[1].pixels()) == 0
    for view, ref in zip(views, written):
        for accessor in ACCESSORS:
            got, want = getattr(view, accessor)(), getattr(ref, accessor)()
            assert (got.dtype, got.shape) == (want.dtype, want.shape), accessor
            assert got.tobytes() == want.tobytes(), accessor
        assert (view.condition, view.role) == (ref.condition, ref.role)
    sw.save_scene_tuple(tmp_path / "tuple2.scn", loaded, cfg)
    assert path.read_bytes() == (tmp_path / "tuple2.scn").read_bytes()


ACCESSORS = ("pixels", "embeddings", "point_index", "points")


def _one_set_of_columns(views) -> list[np.ndarray]:
    """The read-only columns, one per accessor of `ACCESSORS`, whose consecutive row
    ranges, in order, are what the given views' accessors return. An empty slice's
    address is its array's, so only nonempty ones are placed by address."""
    def owner(array):
        while not array.flags.owndata:
            array = array.base
        return array

    columns = []
    for accessor in ACCESSORS:
        parts = [getattr(view, accessor)() for view in views]
        column = owner(parts[0])
        assert type(column) is np.ndarray and not column.flags.writeable
        start = column.__array_interface__["data"][0]
        for part in parts:
            assert type(part) is np.ndarray and owner(part) is column and not part.flags.writeable
            assert not part.size or part.__array_interface__["data"][0] == start
            start += part.nbytes
        assert start == column.__array_interface__["data"][0] + column.nbytes
        columns.append(column)
    return columns


def test_rendered_views_are_row_ranges_of_one_set_of_columns_that_a_round_trip_keeps(tmp_path):
    cfg, tup = _render_small_tuple(seed=42, query_condition=0.6)
    views = tup.mapping_views + tup.query_views
    assert [v.role for v in views] == ([sw.ROLE_MAPPING] * len(tup.mapping_views)
                                       + [sw.ROLE_QUERY] * len(tup.query_views))
    columns = _one_set_of_columns(views)
    assert {len(column) for column in columns} == {sum(len(v.pixels()) for v in views)} != {0}
    sw.save_scene_tuple(tmp_path / "t.scn", tup, cfg)
    loaded, _ = sw.load_scene_tuple(tmp_path / "t.scn")
    for column, got in zip(columns, _one_set_of_columns(loaded.mapping_views + loaded.query_views)):
        assert (got.dtype, got.shape) == (column.dtype, column.shape)
        assert got.tobytes() == column.tobytes()


def test_a_loaded_tuple_holds_the_arrays_it_read_with_no_copy(tmp_path, monkeypatch):
    """Each view's pixels, embeddings and point indices are row ranges of the arrays
    that `binio.load_records` returned; its points, of one gather of the scene's."""
    cfg, tup = _render_small_tuple(seed=47)
    sw.save_scene_tuple(tmp_path / "t.scn", tup, cfg)
    read = []
    load_records = binio.load_records

    def recorded(*args):
        read.append(load_records(*args))
        return read[-1]

    monkeypatch.setattr(binio, "load_records", recorded)
    loaded, _ = sw.load_scene_tuple(tmp_path / "t.scn")
    (named,) = read
    pixels, embeddings, point_index, points = _one_set_of_columns(loaded.mapping_views
                                                                  + loaded.query_views)
    assert pixels is named["pixels"] and embeddings is named["embeddings"]
    assert point_index is named["point_index"]
    assert not np.shares_memory(points, loaded.scene.points)
    assert np.array_equal(points, loaded.scene.points[point_index])


def test_observations_are_the_row_table_of_the_columns_built_once(tmp_path):
    """A rendered or loaded view's `observations`, empty views included, is the
    oracle's row table of its columns, byte for byte, and the same object on every
    read."""
    empty_cfg = small_cfg(min_visible=0, focal=1e9)
    empty = sw.render_tuple(sw.gen_scene(empty_cfg, seed=43), empty_cfg, make_oracle(empty_cfg),
                            sw.SplitConfig(), seed=44)
    seen = set()
    for i, (cfg, tup) in enumerate((_render_small_tuple(seed=48), (empty_cfg, empty))):
        sw.save_scene_tuple(tmp_path / f"t{i}.scn", tup, cfg)
        loaded, _ = sw.load_scene_tuple(tmp_path / f"t{i}.scn")
        for t in (tup, loaded):
            for view in t.mapping_views + t.query_views:
                ref = oracles.make_observations(t.scene.points, view.point_index(), view.pixels(),
                                                view.embeddings())
                obs = view.observations
                assert type(obs) is np.ndarray and not obs.flags.writeable
                assert obs.dtype == ref.dtype and obs.tobytes() == ref.tobytes()
                assert view.observations is obs
                seen.add(len(obs) > 0)
    assert seen == {True, False}


def test_a_tuple_whose_frames_see_no_point_has_empty_views(tmp_path):
    """At a focal length of 1e9 px no point falls inside the image."""
    cfg = small_cfg(min_visible=0, focal=1e9)
    scene = sw.gen_scene(cfg, seed=43)
    tup = sw.render_tuple(scene, cfg, make_oracle(cfg), sw.SplitConfig(), seed=44)
    views = tup.mapping_views + tup.query_views
    assert len(views) == cfg.orbit_frames
    assert all(len(v.observations) == 0 for v in views)
    assert [len(column) for column in _one_set_of_columns(views)] == [0] * 4
    sw.save_scene_tuple(tmp_path / "t.scn", tup, cfg)
    loaded, _ = sw.load_scene_tuple(tmp_path / "t.scn")
    views = loaded.mapping_views + loaded.query_views
    assert [len(v.observations) for v in views] == [0] * cfg.orbit_frames
    assert [len(column) for column in _one_set_of_columns(views)] == [0] * 4


@pytest.mark.parametrize("condition", [1.5, -0.1, float("nan")])
def test_render_tuple_checks_the_query_condition_before_rendering(condition):
    cfg = small_cfg()
    oracle = make_oracle(cfg)
    combined = []
    combine = oracle.combine
    oracle.combine = lambda *args: combined.append(1) or combine(*args)
    with pytest.raises(ValueError, match=r"condition must be in \[0, 1\]"):
        sw.render_tuple(sw.gen_scene(cfg, seed=45), cfg, oracle, sw.SplitConfig(), seed=46,
                        query_condition=condition)
    assert combined == []


def test_scene_tuple_bad_magic(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_bytes(b"BADMAGIC" + b"\x00" * 64)
    with pytest.raises(Exception):
        sw.load_scene_tuple(p)


def _crafted_tuple(path, points=np.arange(12.0).reshape(4, 3),
                   role=sw.ROLE_MAPPING, point_index=np.array([0, 3], np.uint32),
                   pixels=np.array([[10.0, 20.0], [30.0, 40.0]]),
                   embeddings=np.zeros((2, 4), np.float32),
                   intrinsics=np.array([128.0, 128.0, 128.0, 128.0]), rotation=np.eye(3),
                   translation=np.zeros(3), box=(4.0, 4.0, 3.0), condition=0.0,
                   magic=sw.SCENE_MAGIC, columns=None, latents=np.ones((4, 2))):
    """Write a one-view scene tuple over 4 points to `path`, record by record: each
    view field a length-1 stack, unless `columns` replaces a record by name."""
    records = {"tuple": "tuple", "scene": "scene", "box": np.array(box),
               "image_size": np.array([256, 256], np.uint32), "points": points,
               "latents": latents, "roles": np.array([role], np.uint8),
               "conditions": np.array([condition], np.float64),
               "intrinsics": intrinsics[None], "rotations": rotation[None],
               "translations": translation[None], "counts": np.array([2], np.uint32),
               "point_index": point_index, "pixels": pixels, "embeddings": embeddings}
    records.update(columns or {})
    binio.save_records(path, magic, records)
    return path.read_bytes()


def test_crafted_scene_tuple_loads(tmp_path):
    path = tmp_path / "ok.scn"
    _crafted_tuple(path)
    tup, meta = sw.load_scene_tuple(path)
    assert (tup.tuple_id, tup.scene.scene_id, tup.scene.box) == ("tuple", "scene", (4.0, 4.0, 3.0))
    assert meta == {"image_size": (256, 256)}
    (view,) = tup.mapping_views
    assert list(view.point_index()) == [0, 3]
    assert np.array_equal(view.points(), tup.scene.points[[0, 3]])
    assert np.array_equal(view.pixels(), [[10.0, 20.0], [30.0, 40.0]])


def test_scene_tuple_every_truncation_is_a_format_error(tmp_path):
    data = _crafted_tuple(tmp_path / "whole.scn")
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
    (dict(point_index=np.array([0, -1], np.int64)), "'point_index' is int64"),
    (dict(points=np.array([[0.0, 0.0, np.nan]] + [[1.0, 2.0, 3.0]] * 3)),
     "'points' holds non-finite values"),
    (dict(pixels=np.array([[10.0, 20.0], [np.inf, 40.0]])), "'pixels' holds non-finite values"),
    (dict(embeddings=np.array([[0, 0, 0, np.nan], [0, 0, 0, 0]], np.float32)),
     "'embeddings' holds non-finite values"),
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
    (dict(condition=np.nan), "condition"),
    (dict(condition=-0.5), "condition"),
    (dict(condition=1.5), "condition"),
    (dict(box=(4.0, np.nan, 3.0)), "box"),
    (dict(box=(4.0, 4.0, -3.0)), "box"),
    (dict(box=(np.inf, 4.0, 3.0)), "box"),
    (dict(columns={"counts": np.array([3], np.uint32)}), "counts sum to 3, expected 2 records"),
    (dict(columns={"counts": np.array([2], np.int64)}), "'counts' is int64"),
    (dict(columns={"counts": np.array([2, 0], np.uint32)}), r"'counts' is uint32 \(2,\)"),
    (dict(columns={"roles": np.array([0], np.int64)}), "'roles' is int64"),
    (dict(columns={"conditions": np.zeros(2)}), r"'conditions' is float64 \(2,\)"),
    (dict(embeddings=np.full((2, 4), 1e39)), "'embeddings' is float64"),
    (dict(magic=b"ACEGSCN1"), "bad magic"),
    (dict(magic=b"ACEGSCN3"), "bad magic"),
    (dict(latents=np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0], [1.0, 0.0]])),
     "'latents' holds non-finite values"),
    (dict(pixels=np.array([[10.0, 20.0], [30.0, 40.0]], np.float32)), "'pixels' is float32"),
    (dict(rotation=np.eye(3, dtype=np.float32)), "'rotations' is float32"),
    (dict(columns={"conditions": np.zeros(1, np.float32)}), "'conditions' is float32"),
    (dict(box=(4.0, 4.0)), r"'box' is float64 \(2,\)"),
    (dict(columns={"image_size": np.array([0, 256], np.uint32)}), "'image_size' holds values"),
    (dict(columns={"image_size": np.array([256, 256], np.int64)}), "'image_size' is int64"),
    (dict(columns={"tuple": np.zeros(5)}), "'tuple' is float64"),
    (dict(columns={"scene": np.frombuffer(b"\xc3", np.uint8)}), "'scene' is not UTF-8"),
], ids=["point-columns", "role", "pixel-rows", "pixel-columns", "embedding-rows", "point-index",
        "signed-point-index", "nan-point", "inf-pixel", "nan-embedding", "latent-rows",
        "short-intrinsics", "nan-principal-point", "nan-focal", "negative-focal",
        "rotation-shape", "nan-rotation", "reflection", "nan-translation", "translation-shape",
        "nan-condition", "negative-condition", "condition-above-one", "nan-box", "negative-box",
        "inf-box", "count-sum", "count-dtype", "count-length", "role-dtype", "condition-count",
        "embedding-dtype", "version-1", "version-3", "nan-latent", "float32-pixels",
        "float32-rotation", "float32-condition", "box-shape", "zero-image-side",
        "image-size-dtype", "f8-tuple-id", "non-utf-8-scene-id"])
def test_scene_tuple_rejects_corrupt_view(tmp_path, fields, message):
    path = tmp_path / "bad.scn"
    _crafted_tuple(path, **fields)
    with pytest.raises(binio.FormatError, match=message):
        sw.load_scene_tuple(path)


def test_render_tuple_views_equal_render_view():
    """render_tuple computes the appearance terms once per scene; each of its views
    must still be bit-identical to a render_view of that frame."""
    cfg = small_cfg()
    for seed in (50, 51, 52):
        scene = sw.gen_scene(cfg, seed=seed)
        oracle = make_oracle(cfg, seed=seed + 100)
        tup = sw.render_tuple(scene, cfg, oracle, sw.SplitConfig(), seed=seed + 1,
                              query_condition=0.7)
        seq = np.random.SeedSequence(seed + 1)
        traj_seed, split_seed, noise_seed = [int(s.generate_state(1)[0]) for s in seq.spawn(3)]
        frames = sw.gen_trajectory(scene, cfg, traj_seed)
        map_idx, query_idx = sw.sample_split(len(frames), sw.SplitConfig(), split_seed)
        expected = [(i, 0.0, sw.ROLE_MAPPING, noise_seed + 2 * i) for i in map_idx] + \
                   [(i, 0.7, sw.ROLE_QUERY, noise_seed + 2 * i + 1) for i in query_idx]
        views = tup.mapping_views + tup.query_views
        assert len(views) == len(expected)
        for view, (i, condition, role, noise) in zip(views, expected):
            ref = sw.render_view(scene, frames[i], cfg, oracle, condition, role, noise)
            assert (view.condition, view.role) == (ref.condition, ref.role) == (condition, role)
            assert np.array_equal(view.pose.rotation, ref.pose.rotation)
            assert view.observations.dtype == ref.observations.dtype
            assert view.observations.tobytes() == ref.observations.tobytes()


def _old_observations(pixels, embeddings, point_index, y_world):
    """The attribute-by-attribute recarray construction, as the reference."""
    obs = np.recarray(len(point_index), dtype=[
        ("pixel", "<f8", (2,)), ("embedding", "<f4", (embeddings.shape[1],)),
        ("point_index", "<u4"), ("y_world", "<f8", (3,))])
    obs.pixel = pixels
    obs.embedding = embeddings
    obs.point_index = point_index
    obs.y_world = y_world
    return obs


@pytest.mark.parametrize("n", [0, 1, 37])
def test_make_observations_matches_the_recarray_construction(n):
    """The oracle's row table and a view's `observations`, both of the same columns."""
    rng = np.random.default_rng(n)
    points = rng.normal(size=(50, 3))
    pixels, embeddings = rng.normal(size=(n, 2)), rng.normal(size=(n, 5)).astype(np.float32)
    point_index = rng.integers(0, len(points), size=n, dtype=np.int64)
    ref = _old_observations(pixels, embeddings, point_index, points[point_index])
    view = sw.ViewRender(look_at(np.zeros(3), np.ones(3)), CFG.intrinsics(), 0.0, sw.ROLE_MAPPING,
                         pixels, embeddings, point_index.astype(np.uint32), points[point_index])
    for obs in (oracles.make_observations(points, point_index, pixels, embeddings),
                view.observations):
        assert type(obs) is np.ndarray and not obs.flags.writeable
        assert obs.dtype == ref.dtype
        for field in ("pixel", "embedding", "point_index", "y_world"):
            assert np.array_equal(obs[field], ref[field]), field
        assert [o.point_index for o in obs] == [o.point_index for o in ref] == list(point_index)
        if n:
            assert obs[n - 1].point_index == point_index[-1]
            with pytest.raises(ValueError):
                obs["pixel"][0, 0] = 1.0
