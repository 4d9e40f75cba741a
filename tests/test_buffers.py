import numpy as np
import pytest

from screloc import buffers as bf
from screloc import synthworld as sw


@pytest.fixture(scope="module")
def rendered_tuple():
    cfg = sw.WorldConfig(n_points=128, orbit_frames=12, min_visible=16)
    scene = sw.gen_scene(cfg, seed=50)
    oracle = sw.FeatureOracle(cfg.latent_dim, cfg.d_feat, cfg.alpha, cfg.beta,
                              cfg.sigma_noise, seed=51)
    return sw.render_tuple(scene, cfg, oracle, sw.SplitConfig(), seed=52, tuple_id="t0")


def test_build_pretrain_buffers_counts(rendered_tuple):
    tup = rendered_tuple
    m, q = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0)
    total_m = sum(len(v.observations) for v in tup.mapping_views)
    total_q = sum(len(v.observations) for v in tup.query_views)
    assert len(m) == min(total_m, bf.PRETRAIN_CAP)
    assert len(q) == min(total_q, bf.PRETRAIN_CAP)
    assert m.role == "M" and q.role == "Q"


def test_build_pretrain_buffers_cap(rendered_tuple):
    tup = rendered_tuple
    m, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0, cap=100)
    assert len(m) == 100


def test_build_pretrain_buffers_deterministic(rendered_tuple):
    tup = rendered_tuple
    m1, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=4)
    m2, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=4)
    assert np.array_equal(m1.embeddings, m2.embeddings)
    assert np.array_equal(m1.coords, m2.coords)


def test_build_pretrain_buffers_rejects_empty(rendered_tuple):
    with pytest.raises(ValueError):
        bf.build_pretrain_buffers([], rendered_tuple.query_views, "t0", seed=0)


def test_capped_subsample_per_frame_uniform(rendered_tuple):
    # record fractions per source frame should match multinomial expectations
    tup = rendered_tuple
    counts_full = [len(v.observations) for v in tup.mapping_views]
    total = sum(counts_full)
    cap = total // 2
    buf = bf.build_novel_buffer(tup.mapping_views, "t0", seed=7, cap=cap)
    for f, n_f in enumerate(counts_full):
        got = int(np.sum(buf.frame_index == f))
        p = n_f / total
        expected = cap * p
        sigma = np.sqrt(cap * p * (1 - p))
        assert abs(got - expected) <= 3 * sigma + 1


def test_buffers_immutable(rendered_tuple):
    tup = rendered_tuple
    m, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0)
    with pytest.raises(ValueError):
        m.embeddings[0, 0] = 1.0


def test_novel_buffer_schema(rendered_tuple):
    tup = rendered_tuple
    buf = bf.build_novel_buffer(tup.mapping_views, "t0", seed=1)
    assert len(buf.rotations) == len(tup.mapping_views)
    rot, trans, kv = buf.record_poses(np.array([0, 1, 2]))
    assert rot.shape == (3, 3, 3) and trans.shape == (3, 3) and kv.shape == (3, 4)
    # every record's pose matches its frame's pose
    f = buf.frame_index[0]
    assert np.array_equal(rot[0], buf.rotations[f])


def test_sample_batch_shape_and_grouping(rendered_tuple):
    tup = rendered_tuple
    m, q = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0)
    active = [("s0", m), ("s1", q), ("s2", m)]
    spec = bf.BatchSpec(scenes_per_batch=2, patches_per_scene=16)
    rng = np.random.default_rng(0)
    groups = bf.sample_batch(active, spec, rng)
    assert len(groups) == 2
    keys = [g[0] for g in groups]
    assert len(set(keys)) == 2  # no scene repeats
    for _, emb, y in groups:
        assert emb.shape == (16, m.embeddings.shape[1])
        assert y.shape == (16, 3)


def test_sample_batch_insufficient_scenes(rendered_tuple):
    tup = rendered_tuple
    m, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0)
    with pytest.raises(ValueError):
        bf.sample_batch([("s0", m)], bf.BatchSpec(2, 4), np.random.default_rng(0))


def test_sample_batch_scene_frequency_uniform(rendered_tuple):
    tup = rendered_tuple
    m, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0)
    active = [(f"s{i}", m) for i in range(8)]
    spec = bf.BatchSpec(scenes_per_batch=2, patches_per_scene=1)
    rng = np.random.default_rng(123)
    counts = {f"s{i}": 0 for i in range(8)}
    n_batches = 10_000
    for _ in range(n_batches):
        for key, _, _ in bf.sample_batch(active, spec, rng):
            counts[key] += 1
    p = spec.scenes_per_batch / len(active)
    expected = n_batches * p
    sigma = np.sqrt(n_batches * p * (1 - p))
    for key, got in counts.items():
        assert abs(got - expected) <= 3 * sigma, key


def test_pretrain_buffer_round_trip(tmp_path, rendered_tuple):
    tup = rendered_tuple
    m, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "tup-7", seed=9)
    path = tmp_path / "m.buf"
    bf.save_buffer(path, m)
    loaded = bf.load_buffer(path)
    assert loaded.scene_id == "tup-7" and loaded.role == "M" and loaded.seed == 9
    assert np.array_equal(loaded.embeddings, m.embeddings)
    assert np.array_equal(loaded.coords, m.coords)
    bf.save_buffer(tmp_path / "m2.buf", loaded)
    assert path.read_bytes() == (tmp_path / "m2.buf").read_bytes()


def test_novel_buffer_round_trip(tmp_path, rendered_tuple):
    tup = rendered_tuple
    buf = bf.build_novel_buffer(tup.mapping_views, "tup-8", seed=10)
    path = tmp_path / "n.buf"
    bf.save_buffer(path, buf)
    loaded = bf.load_buffer(path)
    for attr in ("embeddings", "pixels", "frame_index", "rotations", "translations", "kvecs"):
        assert np.array_equal(getattr(loaded, attr), getattr(buf, attr)), attr
    bf.save_buffer(tmp_path / "n2.buf", loaded)
    assert path.read_bytes() == (tmp_path / "n2.buf").read_bytes()


def test_load_buffer_wrong_magic(tmp_path):
    p = tmp_path / "x.buf"
    p.write_bytes(b"XXXXXXXX" + b"\x00" * 32)
    with pytest.raises(bf.binio.FormatError):
        bf.load_buffer(p)


def test_load_buffer_truncated(tmp_path, rendered_tuple):
    tup = rendered_tuple
    m, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0)
    path = tmp_path / "m.buf"
    bf.save_buffer(path, m)
    data = path.read_bytes()
    (tmp_path / "trunc.buf").write_bytes(data[: len(data) // 2])
    with pytest.raises(bf.binio.FormatError):
        bf.load_buffer(tmp_path / "trunc.buf")




def _rewritten(tmp_path, buf, **arrays):
    """Path of `buf` saved with some of its arrays replaced, bypassing the constructor."""
    clone = object.__new__(type(buf))
    clone.__dict__.update(buf.__dict__, **arrays)
    path = tmp_path / "bad.buf"
    bf.save_buffer(path, clone)
    return path


def _with(arr, index, value):
    out = arr.copy()
    out[index] = value
    return out


@pytest.mark.parametrize("field", ["embeddings", "coords"])
def test_load_pretrain_buffer_rejects_nan(tmp_path, rendered_tuple, field):
    m, _ = bf.build_pretrain_buffers(rendered_tuple.mapping_views, rendered_tuple.query_views,
                                     "t0", seed=0)
    path = _rewritten(tmp_path, m, **{field: _with(getattr(m, field), (3, 1), np.nan)})
    with pytest.raises(bf.binio.FormatError, match="non-finite"):
        bf.load_buffer(path)


NOVEL_CORRUPTIONS = {
    "nan-embedding": (lambda b: dict(embeddings=_with(b.embeddings, (0, 0), np.nan)), "non-finite"),
    "nan-pixel": (lambda b: dict(pixels=_with(b.pixels, (2, 1), np.inf)), "non-finite"),
    "nan-translation": (lambda b: dict(translations=_with(b.translations, (1, 2), np.nan)),
                        "non-finite"),
    "nan-kvec": (lambda b: dict(kvecs=_with(b.kvecs, (0, 2), np.nan)), "non-finite"),
    "pixel-shape": (lambda b: dict(pixels=np.zeros((len(b), 3))), "records"),
    "frame-index-dtype": (lambda b: dict(frame_index=b.frame_index.astype(np.int64)), "records"),
    "translation-shape": (lambda b: dict(translations=np.zeros((len(b.rotations), 4))),
                          "frame table"),
    "kvec-shape": (lambda b: dict(kvecs=np.zeros((len(b.rotations), 3))), "frame table"),
    "frame-index-past-end": (lambda b: dict(frame_index=_with(b.frame_index, -1, len(b.rotations))),
                             "past"),
    "bad-pose": (lambda b: dict(rotations=_with(b.rotations, 0, 2.0 * np.eye(3))), "rotation"),
}


@pytest.mark.parametrize("case", list(NOVEL_CORRUPTIONS))
def test_load_novel_buffer_rejects_corrupt_arrays(tmp_path, rendered_tuple, case):
    buf = bf.build_novel_buffer(rendered_tuple.mapping_views, "t0", seed=1)
    corrupt, message = NOVEL_CORRUPTIONS[case]
    path = _rewritten(tmp_path, buf, **corrupt(buf))
    with pytest.raises(bf.binio.FormatError, match=message):
        bf.load_buffer(path)
