import ast
import io
import struct
from pathlib import Path

import numpy as np
import pytest

import screloc
from screloc import binio
from screloc import buffers as bf
from screloc import pretrain as pt
from screloc import regressor as rg
from screloc import synthworld as sw
from screloc.geometry import Intrinsics, PoseSE3, rotation_about_axis


def test_only_binio_imports_struct():
    """Byte packing lives in one module: every file format goes through binio."""
    offenders = []
    for path in sorted(Path(screloc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "struct" in names and path.name != "binio.py":
                offenders.append(path.name)
    assert offenders == []


TAGS = {"f4": "<f4", "f8": "<f8", "u1": "<u1", "u4": "<u4", "i8": "<i8"}


def _old_array_bytes(arr, tag):
    """The array record as the field-by-field writer laid it out."""
    arr = np.asarray(arr)
    head = tag.encode() + struct.pack("<I", arr.ndim) + b"".join(struct.pack("<I", d)
                                                                 for d in arr.shape)
    return head + arr.astype(TAGS[tag]).tobytes(order="C")


def _inputs(dtype, rank):
    """C-order, strided, big-endian, Fortran-order and zero-size inputs of one rank."""
    shape = (2, 3, 4)[:rank]
    values = (np.arange(1, 1 + 2 * int(np.prod(shape))) * 37 % 251).astype(dtype)
    plain = values[0] if rank == 0 else values.reshape(shape[:-1] + (2 * shape[-1],))[..., ::2]
    out = {"c-order": np.ascontiguousarray(plain), "strided": plain,
           "big-endian": np.ascontiguousarray(plain).astype(np.dtype(dtype).newbyteorder(">"))}
    if rank:
        out["zero-size"] = np.zeros((0,) + shape[1:], dtype)
        out["fortran"] = np.asfortranarray(plain)
    return out


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
@pytest.mark.parametrize("tag", sorted(TAGS))
def test_array_round_trip_every_tag_and_rank(tag, rank):
    for kind, arr in _inputs(TAGS[tag], rank).items():
        fh = io.BytesIO()
        binio.write_array(fh, arr)
        data = fh.getvalue()
        assert data == _old_array_bytes(arr, tag), kind
        reader = binio.Reader(io.BytesIO(data))
        got = binio.read_array(reader)
        assert reader.left == 0
        assert got.dtype == np.dtype(TAGS[tag]) and got.shape == arr.shape, kind
        assert np.array_equal(got, arr), kind
        assert got.flags.owndata and got.flags.writeable and got.flags.c_contiguous, kind


def _record(tag=b"f8", dims=(2,), payload=b""):
    return struct.pack(f"<2sI{len(dims)}I", tag, len(dims), *dims) + payload


@pytest.mark.parametrize("data, message", [
    (_record(dims=(2**31, 2**31, 2**31)), "truncated array payload"),
    (_record(dims=(0, 2**32 - 1, 2**32 - 1)), "array dims"),
    (_record(dims=(3,), payload=bytes(16)), "truncated array payload"),
    (_record(dims=(1,) * (binio.MAX_RANK + 1)), "rank"),
    (_record(tag=b"\x99f"), "dtype tag"),
    (_record()[:5], "truncated array header"),
    (_record(dims=(1, 2))[:9], "truncated array dims"),
])
def test_corrupt_array_record_is_a_format_error(data, message):
    with pytest.raises(binio.FormatError, match=message):
        binio.read_array(binio.Reader(io.BytesIO(data)))


@pytest.mark.parametrize("data, message", [
    (struct.pack("<I", 2**32 - 1) + b"abc", "truncated string"),
    (struct.pack("<I", 2) + b"\xff\xfe", "UTF-8"),
])
def test_corrupt_string_is_a_format_error(tmp_path, data, message):
    """A record name of the given bytes, after a magic and a count of one."""
    path = tmp_path / "bad.rec"
    path.write_bytes(b"ACEGTEST" + struct.pack("<I", 1) + data)
    with pytest.raises(binio.FormatError, match=message):
        binio.load_records(path, b"ACEGTEST")


def _saved(tmp_path, records, magic=b"ACEGTEST"):
    path = tmp_path / "records.rec"
    binio.save_records(path, magic, records)
    return path


def test_records_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    named = {
        "block0/wq": rng.normal(size=(8, 8)).astype(np.float32),
        "head/b": rng.normal(size=(4,)).astype(np.float32),
        "scalar": np.array(1.5, dtype=np.float32),
    }
    path = _saved(tmp_path, named)
    loaded = binio.load_records(path, b"ACEGTEST")
    assert set(loaded) == set(named)
    for k in named:
        assert loaded[k].shape == named[k].shape
        assert np.array_equal(loaded[k], named[k])
    # file-level round trip: save(load(file)) reproduces identical bytes
    path2 = tmp_path / "records2.rec"
    binio.save_records(path2, b"ACEGTEST", loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_records_keep_each_array_dtype_and_their_order(tmp_path):
    named = {"step": np.array([123456789012], dtype=np.int64),
             "w": np.linspace(0.0, 1.0, 6).reshape(2, 3),
             "tokens": np.ones((2, 2), dtype=np.float32)}
    loaded = binio.load_records(_saved(tmp_path, named), b"ACEGTEST")
    assert list(loaded) == list(named)
    for k, arr in named.items():
        assert loaded[k].dtype == arr.dtype
        assert np.array_equal(loaded[k], arr)


def test_records_every_truncation_is_a_format_error(tmp_path):
    data = _saved(tmp_path, {"a": np.arange(3, dtype=np.float32), "bb": np.zeros((1, 2)),
                             "id": "s\u00e9"}).read_bytes()
    path = tmp_path / "cut.rec"
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(binio.FormatError):
            binio.load_records(path, b"ACEGTEST")


def test_records_bad_magic(tmp_path):
    path = tmp_path / "bad.rec"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(binio.FormatError, match="bad magic"):
        binio.load_records(path, b"ACEGTEST")
    with pytest.raises(binio.FormatError, match="bad magic"):
        binio.load_records(_saved(tmp_path, {"a": np.zeros(2)}), b"ACEGTES2")


def test_records_refuse_a_repeated_name(tmp_path):
    one = struct.pack("<I", 1) + b"a" + _old_array_bytes(np.zeros(2), "f8")
    path = tmp_path / "twice.rec"
    path.write_bytes(b"ACEGTEST" + struct.pack("<I", 2) + one + one)
    with pytest.raises(binio.FormatError, match="^record 'a' is repeated$"):
        binio.load_records(path, b"ACEGTEST")


def test_text_records_round_trip(tmp_path):
    named = binio.load_records(_saved(tmp_path, {"empty": "", "id": "sc\u00e8ne-7"}), b"ACEGTEST")
    assert named["id"].dtype == np.uint8 and named["id"].shape == (len("sc\u00e8ne-7".encode()),)
    assert binio.text(named, "empty") == "" and binio.text(named, "id") == "sc\u00e8ne-7"


@pytest.mark.parametrize("value, message", [
    (None, r"^record 'id' is missing$"),
    (np.zeros(3), r"^record 'id' is float64 \(3,\), expected uint8 text$"),
    (np.zeros((2, 3), np.uint8), r"^record 'id' is uint8 \(2, 3\), expected uint8 text$"),
    (np.frombuffer(b"\xff\xfe", np.uint8), "^record 'id' is not UTF-8"),
], ids=["missing", "f8", "2-d", "not-utf-8"])
def test_text_refuses_a_record_that_is_not_text(tmp_path, value, message):
    records = {} if value is None else {"id": value}
    named = binio.load_records(_saved(tmp_path, records), b"ACEGTEST")
    with pytest.raises(binio.FormatError, match=message):
        binio.text(named, "id")


LAYOUT = [("points", np.float64, ("n", 3), None, None),
          ("labels", np.uint8, ("n",), 0, 1),
          ("weights", np.float32, ("n", "k"), 0.0, None),
          ("angles", np.float64, ("m",), -2.0, 2.0)]


def _good_records():
    return {"points": np.zeros((4, 3)), "labels": np.array([0, 1, 1, 0], np.uint8),
            "weights": np.ones((4, 2), np.float32), "angles": np.array([-2.0, 0.5, 2.0]),
            "unlisted": np.array(["ignored"])}


def test_check_records_binds_every_named_dim_and_ignores_other_records():
    assert binio.check_records(_good_records(), LAYOUT) == {"n": 4, "k": 2, "m": 3}
    empty = {"points": np.zeros((0, 3)), "labels": np.zeros(0, np.uint8),
             "weights": np.zeros((0, 5), np.float32), "angles": np.zeros(0)}
    assert binio.check_records(empty, LAYOUT) == {"n": 0, "k": 5, "m": 0}


def _edit(name, value):
    def edit(records):
        if value is None:
            del records[name]
        else:
            records[name] = value
    return edit


def _put(name, index, value):
    def edit(records):
        records[name][index] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_edit("weights", np.ones((5, 2), np.float32)),
     r"^record 'weights' is float32 \(5, 2\), expected float32 \(4, 2\) "
     r"\(n = 4 from 'points'\)$"),
    (_edit("labels", np.zeros(3, np.uint8)),
     r"^record 'labels' is uint8 \(3,\), expected uint8 \(4,\) \(n = 4 from 'points'\)$"),
    (_edit("points", np.zeros((4, 2))),
     r"^record 'points' is float64 \(4, 2\), expected float64 \(4, 3\)$"),
    (_edit("points", np.zeros(12)),
     r"^record 'points' is float64 \(12,\), expected float64 \('n', 3\)$"),
    (_edit("points", np.zeros((4, 3), np.float32)),
     r"^record 'points' is float32 \(4, 3\), expected float64 \(4, 3\)$"),
    (_edit("labels", np.zeros(4, np.int64)),
     r"^record 'labels' is int64 \(4,\), expected uint8 \(4,\) \(n = 4 from 'points'\)$"),
    (_put("points", (2, 1), np.nan), r"^record 'points' holds non-finite values$"),
    (_put("weights", (1, 1), np.inf), r"^record 'weights' holds non-finite values$"),
    (_put("angles", 1, np.nan), r"^record 'angles' holds values outside \[-2.0, 2.0\]$"),
    (_put("angles", 1, -np.inf), r"^record 'angles' holds values outside \[-2.0, 2.0\]$"),
    (_put("weights", (3, 0), -1e-30), r"^record 'weights' holds values outside \[0.0, inf\]$"),
    (_put("angles", 0, -2.0000001), r"^record 'angles' holds values outside \[-2.0, 2.0\]$"),
    (_put("labels", 2, 2), r"^record 'labels' holds values outside \[0, 1\]$"),
    (_put("angles", 2, 2.5), r"^record 'angles' holds values outside \[-2.0, 2.0\]$"),
    (_edit("angles", None), r"^record 'angles' is missing$"),
], ids=["disagreeing-dim", "disagreeing-first-dim", "wrong-int-dim", "wrong-rank",
        "wrong-float-dtype", "wrong-int-dtype", "nan", "inf", "nan-bounded", "inf-bounded",
        "below-lo", "below-lo-bounded", "above-hi-int", "above-hi", "missing"])
def test_check_records_names_the_failing_record(edit, message):
    records = _good_records()
    edit(records)
    with pytest.raises(binio.FormatError, match=message):
        binio.check_records(records, LAYOUT)


def test_reader_counts_from_the_current_position():
    record = _record(tag=b"u4", dims=(1,), payload=struct.pack("<I", 7))
    fh = io.BytesIO(b"skip" + record)
    fh.read(4)
    reader = binio.Reader(fh)
    assert reader.left == len(record) == 14
    assert binio.read_array(reader).tolist() == [7] and reader.left == 0
    with pytest.raises(binio.FormatError, match="truncated array header"):
        binio.read_array(reader)


def _small_files(tmp_path):
    """One small file of each format, with the loader that reads it."""
    points = np.arange(12.0).reshape(4, 3)
    scene = sw.Scene(points, np.ones((4, 2)), (4.0, 4.0, 3.0), "scene")
    idx = np.array([0, 3], np.uint32)
    views = [sw.ViewRender(PoseSE3(rotation_about_axis([1.0, 2.0, 3.0], 30.0), np.ones(3)),
                           Intrinsics(128.0, 120.0, 64.0, 60.0), cond, role,
                           sw.make_observations(points, idx, np.array([[10.0, 20.0], [30.0, 40.0]]),
                                                np.full((2, 3), 0.5, np.float32)))
             for cond, role in ((0.0, sw.ROLE_MAPPING), (1.0, sw.ROLE_QUERY))]
    files = [(tmp_path / "t.scn", sw.load_scene_tuple)]
    sw.save_scene_tuple(files[0][0], sw.SceneTuple(scene, views[:1], views[1:], "tuple"),
                        sw.WorldConfig())
    rng = np.random.default_rng(0)
    pretrain = bf.PretrainBuffer(rng.normal(size=(3, 4)).astype(np.float32),
                                 rng.normal(size=(3, 3)).astype(np.float32), "s")
    rots = np.stack([rotation_about_axis([0.0, 0.0, 1.0], a) for a in (10.0, 50.0)])
    novel = bf.NovelSceneBuffer(rng.normal(size=(3, 4)).astype(np.float32),
                                rng.uniform(0, 64, size=(3, 2)),
                                np.array([0, 1, 1], np.uint32), rots, rng.normal(size=(2, 3)),
                                np.tile([100.0, 100.0, 32.0, 32.0], (2, 1)), "s")
    for name, buf in (("p.buf", pretrain), ("n.buf", novel)):
        bf.save_buffer(tmp_path / name, buf)
        files.append((tmp_path / name, bf.load_buffer))
    binio.save_records(tmp_path / "s.prm", pt.STATE_MAGIC,
                       {"w": np.ones((2, 3), np.float32), "step": np.array(3, np.int64),
                        "b": np.zeros(2)})
    files.append((tmp_path / "s.prm", lambda path: binio.load_records(path, pt.STATE_MAGIC)))
    rg.save_map_code(tmp_path / "s.map", rg.init_map_code(3, 4, seed=1, scene_id="s"))
    files.append((tmp_path / "s.map", rg.load_map_code))
    return files


def _small_run_state(tmp_path):
    """A small run's saved state, and a run of the same config to load it into."""
    reg = rg.RegressorConfig(d_feat=4, d_model=8, n_blocks=1, n_heads=2, d_map=4,
                             head_hidden=8, ffn_mult=1)
    rng = np.random.default_rng(0)

    def buffer(scene_id):
        return bf.PretrainBuffer(rng.normal(size=(8, 4)).astype(np.float32),
                                 rng.normal(size=(8, 3)).astype(np.float32), scene_id)

    dataset = [pt.TupleData(f"t{i}", buffer(f"t{i}"), buffer(f"t{i}")) for i in range(3)]
    cfg = pt.PretrainConfig(n_active=2, scenes_per_batch=1, patches_per_scene=4, n_qstandby=0,
                            budget_lo=3, budget_hi=5, n_code_tokens=2, total_iterations=2)
    run = pt.PretrainRun(dataset, cfg, reg)
    run.run()
    return run.save_state(tmp_path, "s"), pt.PretrainRun(dataset, cfg, reg)


def _flipped(data, start=0):
    """`data` with one byte at or past `start` xor 0xFF or xor 0x80, each in turn."""
    for i in range(start, len(data)):
        for mask in (0xFF, 0x80):
            flipped = bytearray(data)
            flipped[i] ^= mask
            yield flipped


def test_every_flipped_byte_loads_or_is_a_format_error(tmp_path):
    """Each byte of a small file of every format, xor 0xFF and xor 0x80: the load
    succeeds or raises FormatError, never another error or a numpy warning. So
    does each byte of a run state's `.prm` from its iteration record on (the pool
    table), where `load_state` succeeds or raises ValueError."""
    bad = tmp_path / "flipped"
    for path, load in _small_files(tmp_path):
        data = path.read_bytes()
        load(path)
        for flipped in _flipped(data):
            bad.write_bytes(flipped)
            try:
                load(bad)
            except binio.FormatError:
                pass
    (prm, js), run = _small_run_state(tmp_path)
    data = prm.read_bytes()
    run.load_state(prm, js)
    for flipped in _flipped(data, data.index(b"iteration") - 4):  # from the name's length
        bad.write_bytes(flipped)
        try:
            run.load_state(bad, js)
        except ValueError:
            pass


def test_tuple_round_trip_makes_62_array_calls(tmp_path, monkeypatch):
    """A benchmark-sized tuple (24 views), saved and loaded with its three buffers,
    takes 15 array records in the .scn (two of them text) and 16 in the buffers (six
    of them text), each written and read once: the count does not grow with the
    number of views."""
    cfg = sw.WorldConfig()
    oracle = sw.FeatureOracle(cfg.latent_dim, cfg.d_feat, cfg.alpha, cfg.beta, cfg.sigma_noise, 5)
    tup = sw.render_tuple(sw.gen_scene(cfg, 21), cfg, oracle, sw.SplitConfig(), 22)
    assert len(tup.mapping_views) + len(tup.query_views) == cfg.orbit_frames == 24
    bufs = (*bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, tup.tuple_id, 23),
            bf.build_novel_buffer(tup.mapping_views, tup.tuple_id, 24))
    calls = []
    for name in ("write_array", "read_array"):
        real = getattr(binio, name)
        monkeypatch.setattr(binio, name, lambda *args, _real=real, _name=name:
                            calls.append(_name) or _real(*args))
    sw.save_scene_tuple(tmp_path / "t.scn", tup, cfg)
    for i, buf in enumerate(bufs):
        bf.save_buffer(tmp_path / f"{i}.buf", buf)
    sw.load_scene_tuple(tmp_path / "t.scn")
    for i in range(len(bufs)):
        bf.load_buffer(tmp_path / f"{i}.buf")
    assert calls.count("write_array") == calls.count("read_array") == 31
    assert len(calls) == 62


def _old_fields(*fields):
    """Fields packed as the formats before the record container laid them out: a str
    as its u32 length and UTF-8 bytes, an int as a u32, a float as an f64 and an
    array as its array record."""
    out = b""
    for field in fields:
        if isinstance(field, str):
            out += struct.pack("<I", len(field.encode())) + field.encode()
        elif isinstance(field, int):
            out += struct.pack("<I", field)
        elif isinstance(field, float):
            out += struct.pack("<d", field)
        else:
            tag = next(t for t, d in TAGS.items() if np.dtype(d) == field.dtype)
            out += _old_array_bytes(field, tag)
    return out


F32 = np.zeros((2, 3), np.float32)
OLD_LAYOUTS = {
    # version, tuple id, scene id, seed, box, image size, then the arrays by position
    "ACEGSCN1": (lambda path: sw.load_scene_tuple(path),
                 _old_fields(3, "tuple", "scene", 7, 4.0, 4.0, 3.0, 256, 256,
                             np.zeros((4, 3)), np.ones((4, 2)), np.zeros(1, np.uint8),
                             np.zeros(1), np.full((1, 4), 128.0), np.eye(3)[None],
                             np.zeros((1, 3)), np.zeros(1, np.uint32), np.zeros(0, np.uint32),
                             np.zeros((0, 2)), np.zeros((0, 4), np.float32))),
    # schema and scene id, then the arrays by position
    "ACEGBUF1": (lambda path: bf.load_buffer(path), _old_fields("pretrain-v4", "s", F32, F32)),
    # a count, then (name, array) pairs
    "ACEGPRM2": (lambda path: binio.load_records(path, pt.STATE_MAGIC),
                 _old_fields(1, "w", F32)),
    # the same, before the run state held its non-finite streak
    "ACEGPRM3": (lambda path: binio.load_records(path, pt.STATE_MAGIC),
                 _old_fields(1, "w", F32)),
    # the same, with each slot's counter as a record beside its optimizer's step count
    "ACEGPRM4": (lambda path: binio.load_records(path, pt.STATE_MAGIC),
                 _old_fields(1, "w", F32)),
    # scene id, then the tokens
    "ACEGMAP3": (lambda path: rg.load_map_code(path), _old_fields("s", F32)),
}


@pytest.mark.parametrize("magic", list(OLD_LAYOUTS))
def test_a_file_in_an_old_layout_is_refused_by_its_magic(tmp_path, magic):
    load, fields = OLD_LAYOUTS[magic]
    path = tmp_path / "old"
    path.write_bytes(magic.encode() + fields)
    with pytest.raises(binio.FormatError, match=f"^bad magic: expected .*, got b'{magic}'$"):
        load(path)
