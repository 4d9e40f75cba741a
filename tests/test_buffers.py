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
    return sw.render_tuple(scene, cfg, oracle, sw.SplitConfig(), seed=52)


def test_build_pretrain_buffers_counts(rendered_tuple):
    tup = rendered_tuple
    m, q = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0)
    total_m = sum(len(v.observations) for v in tup.mapping_views)
    total_q = sum(len(v.observations) for v in tup.query_views)
    assert len(m) == total_m
    assert len(q) == total_q


def test_build_pretrain_buffers_deterministic(rendered_tuple):
    tup = rendered_tuple
    m1, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=4)
    m2, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=4)
    assert np.array_equal(m1.embeddings, m2.embeddings)
    assert np.array_equal(m1.coords, m2.coords)


def test_build_pretrain_buffers_rejects_empty(rendered_tuple):
    with pytest.raises(ValueError):
        bf.build_pretrain_buffers([], rendered_tuple.query_views, "t0", seed=0)


def test_buffers_immutable(rendered_tuple):
    tup = rendered_tuple
    m, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0)
    with pytest.raises(ValueError):
        m.embeddings[0, 0] = 1.0


def f32_zeros(shape):
    return np.zeros(shape, np.float32)


PRETRAIN_ARGS = dict(embeddings=f32_zeros((4, 32)), coords=f32_zeros((4, 3)))
NOVEL_ARGS = dict(embeddings=f32_zeros((4, 32)), pixels=np.zeros((4, 2)),
                  frame_index=np.array([0, 1, 2, 1], np.uint32),
                  rotations=np.stack([np.eye(3)] * 3), translations=np.zeros((3, 3)),
                  kvecs=np.tile([100.0, 100.0, 32.0, 32.0], (3, 1)))
BAD_BUFFERS = {
    "pretrain-fewer-coords": (bf.PretrainBuffer, dict(coords=f32_zeros((3, 3))), "'coords'"),
    "pretrain-more-coords": (bf.PretrainBuffer, dict(coords=f32_zeros((9, 3))), "'coords'"),
    "pretrain-2d-coords": (bf.PretrainBuffer, dict(coords=f32_zeros((4, 2))), "'coords'"),
    "pretrain-1d-embeddings": (bf.PretrainBuffer, dict(embeddings=f32_zeros(4)), "'embeddings'"),
    "pretrain-empty": (bf.PretrainBuffer, dict(embeddings=f32_zeros((0, 32)),
                                               coords=f32_zeros((0, 3))), "empty"),
    "pretrain-f64-embeddings": (bf.PretrainBuffer, dict(embeddings=np.zeros((4, 32))),
                                "'embeddings' is float64"),
    "pretrain-nan-coords": (bf.PretrainBuffer, dict(coords=np.full((4, 3), np.nan, np.float32)),
                            "'coords' holds non-finite"),
    "novel-3d-pixels": (bf.NovelSceneBuffer, dict(pixels=np.zeros((4, 3))), "'pixels'"),
    "novel-fewer-pixels": (bf.NovelSceneBuffer, dict(pixels=np.zeros((3, 2))), "'pixels'"),
    "novel-2d-frame-index": (bf.NovelSceneBuffer, dict(frame_index=np.zeros((4, 1), np.uint32)),
                             "'frame_index'"),
    "novel-frame-index-past-end": (bf.NovelSceneBuffer,
                                   dict(frame_index=np.array([0, 1, 3, 1], np.uint32)),
                                   "frame index 3 past 3 frames"),
    # the rotations bind F = 2 frames, so the first record that disagrees is the translations,
    # and the message names the rotations as the record that bound F
    "novel-fewer-rotations": (bf.NovelSceneBuffer, dict(rotations=np.stack([np.eye(3)] * 2)),
                              r"'translations' is float64 \(3, 3\), expected float64 \(2, 3\) "
                              r"\(F = 2 from 'rotations'\)$"),
    "novel-2d-rotations": (bf.NovelSceneBuffer, dict(rotations=np.zeros((3, 9))), "'rotations'"),
    "novel-4d-translations": (bf.NovelSceneBuffer, dict(translations=np.zeros((3, 4))),
                              "'translations'"),
    "novel-3d-kvecs": (bf.NovelSceneBuffer, dict(kvecs=np.zeros((3, 3))), "'kvecs'"),
}


@pytest.mark.parametrize("case", list(BAD_BUFFERS))
def test_buffer_constructors_reject_arrays_of_another_shape(case):
    cls, bad, message = BAD_BUFFERS[case]
    args = PRETRAIN_ARGS if cls is bf.PretrainBuffer else NOVEL_ARGS
    assert len(cls(**args, scene_id="s")) == 4
    with pytest.raises(ValueError, match=message):
        cls(**{**args, **bad}, scene_id="s")


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
    bufs = [m, q, m]
    rng = np.random.default_rng(0)
    chosen, emb, y = bf.sample_batch(bufs, 2, 16, rng)
    assert len(chosen) == 2
    assert len(set(chosen.tolist())) == 2  # no scene repeats
    assert emb.shape == (2, 16, m.embeddings.shape[1])
    assert y.shape == (2, 16, 3)
    # each group's records come from its own buffer, embedding and coordinate together
    for s, i in enumerate(chosen):
        pairs = {(e.tobytes(), c.tobytes()) for e, c in zip(bufs[i].embeddings, bufs[i].coords)}
        assert all((e.tobytes(), c.tobytes()) in pairs for e, c in zip(emb[s], y[s]))


def test_sample_batch_insufficient_scenes(rendered_tuple):
    tup = rendered_tuple
    m, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0)
    with pytest.raises(ValueError):
        bf.sample_batch([m], 2, 4, np.random.default_rng(0))


@pytest.mark.parametrize("n_scenes, n_patches", [(0, 4), (1, 0)])
def test_sample_batch_rejects_an_empty_batch(rendered_tuple, n_scenes, n_patches):
    tup = rendered_tuple
    m, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0)
    with pytest.raises(ValueError, match=">= 1"):
        bf.sample_batch([m, m], n_scenes, n_patches, np.random.default_rng(0))


def test_sample_batch_scene_frequency_uniform(rendered_tuple):
    tup = rendered_tuple
    m, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "t0", seed=0)
    bufs = [m] * 8
    n_scenes = 2
    rng = np.random.default_rng(123)
    counts = np.zeros(8, dtype=int)
    n_batches = 10_000
    for _ in range(n_batches):
        chosen, _, _ = bf.sample_batch(bufs, n_scenes, 1, rng)
        counts[chosen] += 1
    p = n_scenes / len(bufs)
    expected = n_batches * p
    sigma = np.sqrt(n_batches * p * (1 - p))
    for key, got in enumerate(counts):
        assert abs(got - expected) <= 3 * sigma, key


def test_pretrain_buffer_round_trip(tmp_path, rendered_tuple):
    tup = rendered_tuple
    m, _ = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "tup-7", seed=9)
    path = tmp_path / "m.buf"
    bf.save_buffer(path, m)
    loaded = bf.load_buffer(path)
    assert loaded.scene_id == "tup-7"
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


def test_load_buffer_refuses_a_pretrain_v2_file(tmp_path):
    """Schema pretrain-v2 carried the record count and width in its header."""
    path = tmp_path / "old.buf"
    header = {name: np.array(value, np.uint32) for name, value in (("seed", 0), ("n", 2), ("d", 3))}
    bf.binio.save_records(path, bf.BUFFER_MAGIC, {
        "schema": "pretrain-v2", "scene": "s", **header,
        "embeddings": np.zeros((2, 3), np.float32), "coords": np.zeros((2, 3), np.float32)})
    with pytest.raises(bf.binio.FormatError, match="unknown buffer schema 'pretrain-v2'"):
        bf.load_buffer(path)


@pytest.mark.parametrize("schema", ["pretrain-v3", "novel-v2"])
def test_load_buffer_refuses_a_schema_with_a_seed(tmp_path, schema):
    """Schemas pretrain-v3 and novel-v2 wrote a seed after the scene id."""
    path = tmp_path / "old.buf"
    bf.binio.save_records(path, bf.BUFFER_MAGIC, {"schema": schema, "scene": "s",
                                                  "seed": np.array(0, np.uint32),
                                                  "embeddings": np.zeros((2, 3), np.float32)})
    with pytest.raises(bf.binio.FormatError, match=f"unknown buffer schema '{schema}'"):
        bf.load_buffer(path)


@pytest.mark.parametrize("edit, message", [
    (dict(schema=np.zeros(11)), r"^record 'schema' is float64 \(11,\), expected uint8 text$"),
    (dict(scene=np.frombuffer(b"\xff", np.uint8)), "^record 'scene' is not UTF-8"),
    (dict(coords=None), r"^PretrainBuffer: record 'coords' is missing$"),
], ids=["f8-schema", "non-utf-8-scene", "missing-coords"])
def test_load_buffer_names_a_missing_or_non_text_record(tmp_path, edit, message):
    records = {"schema": "pretrain-v4", "scene": "s", "embeddings": np.zeros((2, 3), np.float32),
               "coords": np.zeros((2, 3), np.float32)}
    records.update(edit)
    path = tmp_path / "bad.buf"
    bf.binio.save_records(path, bf.BUFFER_MAGIC,
                          {name: value for name, value in records.items() if value is not None})
    with pytest.raises(bf.binio.FormatError, match=message):
        bf.load_buffer(path)


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
    "pixel-shape": (lambda b: dict(pixels=np.zeros((len(b), 3))), r"'pixels' is float64 \("),
    "frame-index-dtype": (lambda b: dict(frame_index=b.frame_index.astype(np.int64)),
                          "'frame_index' is int64"),
    "translation-shape": (lambda b: dict(translations=np.zeros((len(b.rotations), 4))),
                          r"'translations' is float64 \("),
    "kvec-shape": (lambda b: dict(kvecs=np.zeros((len(b.rotations), 3))), r"'kvecs' is float64 \("),
    "frame-index-past-end": (lambda b: dict(frame_index=_with(b.frame_index, -1, len(b.rotations))),
                             "past"),
    "bad-pose": (lambda b: dict(rotations=_with(b.rotations, 0, 2.0 * np.eye(3))), "rotation"),
    "bad-focal-lengths": (lambda b: dict(kvecs=_with(b.kvecs, 1, [-100.0, 0.0, 32.0, 32.0])),
                          "positive focal lengths"),
}


@pytest.mark.parametrize("case", list(NOVEL_CORRUPTIONS))
def test_load_novel_buffer_rejects_corrupt_arrays(tmp_path, rendered_tuple, case):
    buf = bf.build_novel_buffer(rendered_tuple.mapping_views, "t0", seed=1)
    corrupt, message = NOVEL_CORRUPTIONS[case]
    path = _rewritten(tmp_path, buf, **corrupt(buf))
    with pytest.raises(bf.binio.FormatError, match=message):
        bf.load_buffer(path)


@pytest.mark.parametrize("case", list(NOVEL_CORRUPTIONS))
def test_novel_buffer_constructor_rejects_corrupt_arrays(rendered_tuple, case):
    buf = bf.build_novel_buffer(rendered_tuple.mapping_views, "t0", seed=1)
    corrupt, message = NOVEL_CORRUPTIONS[case]
    arrays = {name: getattr(buf, name) for name, *_ in bf.NovelSceneBuffer.LAYOUT}
    with pytest.raises(ValueError, match=message):
        bf.NovelSceneBuffer(**{**arrays, **corrupt(buf)}, scene_id="t0")
