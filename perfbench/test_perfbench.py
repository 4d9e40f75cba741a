"""Tests of the benchmark's own checks and of its determinism.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench import workload as wl  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from screloc import buffers as bf  # noqa: E402
from screloc import geometry as geo  # noqa: E402
from screloc import pretrain as pt  # noqa: E402
from screloc import synthworld as sw  # noqa: E402

ORACLE = sw.FeatureOracle(wl.WORLD.latent_dim, wl.WORLD.d_feat, wl.WORLD.alpha, wl.WORLD.beta,
                          wl.WORLD.sigma_noise, 5)


def _query(share=0.1):
    return wl.make_query(11, 12, 13, 14, 15, share, wl.QUERY_CORRS, ORACLE)


def test_query_check_passes_true_pose_and_fails_perturbed_pose():
    q = _query()
    tally = wl.Tally()
    wl.run_query(q, tally)
    assert tally.problems == [] and tally.failed == {}

    shifted = wl.Query(q.corrs, q.K, q.r_gt, q.t_gt + np.array([0.0, 0.0, 2.0]), q.outlier, q.seed)
    rotated = wl.Query(q.corrs, q.K, q.r_gt @ geo.rotation_about_axis([0, 1, 0], 20.0), q.t_gt,
                       q.outlier, q.seed)
    for wrong in (shifted, rotated):
        tally = wl.Tally()
        wl.run_query(wrong, tally)
        assert len(tally.problems) == 1 and "pose off" in tally.problems[0]


def test_probe_fails_every_time_with_the_division_fault():
    probe = wl.make_query(*wl.PROBE_SEEDS, wl.PROBE_RANSAC_SEED, 0.5, wl.WORLD.n_points, ORACLE)
    for _ in range(2):
        tally = wl.Tally()
        wl.run_query(probe, tally, kind="probe")
        assert dict(tally.failed) == {"probe": 1}
        assert dict(tally.reasons) == {"probe: ZeroDivisionError": 1}


def _written_tuple(tmp_path):
    scene = sw.gen_scene(wl.WORLD, 21, "t")
    tup = sw.render_tuple(scene, wl.WORLD, ORACLE, wl.SPLIT, 22)
    m, q = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, tup.tuple_id, 23)
    novel = bf.build_novel_buffer(tup.mapping_views, tup.tuple_id, 24)
    paths = [tmp_path / n for n in ("t.scn", "m.buf", "q.buf", "n.buf")]
    sw.save_scene_tuple(paths[0], tup, wl.WORLD)
    for path, buf in zip(paths[1:], (m, q, novel)):
        bf.save_buffer(path, buf)
    return tup, (m, q, novel), paths


def _reload(paths):
    return sw.load_scene_tuple(paths[0])[0], [bf.load_buffer(p) for p in paths[1:]]


@pytest.mark.parametrize("which", [0, 1, 3])
def test_tuple_check_fails_on_a_flipped_byte(tmp_path, which):
    tup, bufs, paths = _written_tuple(tmp_path)
    loaded, loaded_bufs = _reload(paths)
    assert wl.check_tuple(tup, loaded, bufs, loaded_bufs) == []

    raw = bytearray(paths[which].read_bytes())
    raw[-3] ^= 0x10  # inside the last array payload
    paths[which].write_bytes(bytes(raw))
    loaded, loaded_bufs = _reload(paths)
    problems = wl.check_tuple(tup, loaded, bufs, loaded_bufs)
    assert problems and "differs from written" in problems[0]


def test_projection_and_scene_point_checks_reject_wrong_data():
    scene = sw.gen_scene(wl.WORLD, 31)
    view = sw.render_tuple(scene, wl.WORLD, ORACLE, wl.SPLIT, 32).mapping_views[0]
    k, r, t = view.intrinsics.as_array(), view.pose.rotation, view.pose.translation
    assert checks.check_projections(k, r, t, view.points(), view.pixels()) == []
    pixels = view.pixels().copy()
    pixels[5, 0] += 0.01
    assert checks.check_projections(k, r, t, view.points(), pixels)

    coords = scene.points[:10].astype(np.float32)
    assert checks.check_points_of_scene(coords, scene.points) == []
    coords[3, 2] += np.float32(1e-3)
    assert checks.check_points_of_scene(coords, scene.points) == ["1 buffer coordinates are not points of the scene"]


def test_train_checks_reject_wrong_answers():
    assert checks.check_loss_fell([3.0] * 20 + [2.0] * 20, 20) == []
    assert checks.check_loss_fell([2.0] * 20 + [2.5] * 20, 20)
    assert checks.check_finite({"a": np.ones(3)}) == []
    assert checks.check_finite({"a": np.array([1.0, np.nan])})
    assert checks.check_nll_fell(2.0, 1.9) == []
    assert checks.check_nll_fell(2.0, 2.0)


def _fit_inputs():
    tup = sw.render_tuple(sw.gen_scene(wl.WORLD, 40), wl.WORLD, ORACLE, wl.SPLIT, 50)
    m, q = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views, "f", 60)
    cfg = wl.pretrain_config(3, n_active=1, scenes_per_batch=1)
    run = pt.PretrainRun([pt.TupleData("f", m, q)], cfg, wl.REG)
    return wl.Inputs(ORACLE, [], [m], [70], [], None, [], run)


def test_fit_check_fails_when_a_parameter_changes(monkeypatch):
    inp = _fit_inputs()
    tally = wl.Tally()
    wl.run_fit(inp, tally, 0, iterations=5)
    assert tally.problems == []

    real = pt.fit_map_code

    def altering(params, *args, **kwargs):
        code = real(params, *args, **kwargs)
        params["head/b2"].data = params["head/b2"].data + np.float32(1e-3)
        return code

    monkeypatch.setattr(pt, "fit_map_code", altering)
    tally = wl.Tally()
    wl.run_fit(inp, tally, 0, iterations=5)
    assert any("parameter head/b2" in p for p in tally.problems)


def test_state_mismatch_is_empty_only_for_the_same_state():
    inp = _fit_inputs()
    run = inp.run
    assert wl.state_mismatch(run, run) == []
    other = pt.PretrainRun(run.dataset, run.cfg, wl.REG)
    other.params["in_proj/w"].data = other.params["in_proj/w"].data + np.float32(1.0)
    assert any("param/in_proj/w" in p for p in wl.state_mismatch(run, other))


def _traced(monkeypatch, seed):
    monkeypatch.setitem(wl.MIX, "tiny", wl.Mix(chunks=4, fits=1, queries=4, tuples=1))
    tracer = Tracer()
    tracer.install(wl.MODULES)
    try:
        res = wl.run_workload("tiny", seed, 0.0, ROOT / ".perfbench_out" / "test-work", tracer, rounds=1)
    finally:
        tracer.uninstall()
        wl.clean(ROOT / ".perfbench_out" / "test-work")
    return res, wl.per_layer(tracer, res)


def test_two_traced_runs_with_one_seed_repeat_their_work_counts(monkeypatch):
    (res_a, layer_a), (res_b, layer_b) = _traced(monkeypatch, 4), _traced(monkeypatch, 4)
    for key in ("geometry.hypotheses_per_query", "pretrain.admissions",
                "pretrain.query_ran_ratio", "binio.calls_per_tuple", "binio.bytes_per_tuple"):
        assert layer_a[key] == layer_b[key], key
    assert layer_a["pretrain.admissions"] > 0
    assert res_a["tally"].attempted == res_b["tally"].attempted
    assert res_a["tally"].failed == res_b["tally"].failed
    assert res_a["tally"].problems == []
    assert res_a["metrics"]["t_err_med"] == res_b["metrics"]["t_err_med"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reloc", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_printed_names_and_units_match_the_manifest(monkeypatch):
    from perfbench.run import E2E_UNITS, layer_unit
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, layer = _traced(monkeypatch, 4)
    assert {k: layer_unit(k) for k in layer} == {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert E2E_UNITS == {m["name"]: m["unit"] for m in manifest["end_to_end"]}
