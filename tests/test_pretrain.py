import numpy as np
import pytest

from screloc import autodiff as ad
from screloc import buffers as bf
from screloc import pretrain as pt
from screloc import regressor as rg
from screloc.autodiff import Tensor
from screloc.geometry import random_rotation

REG = rg.RegressorConfig(d_feat=8, d_model=16, n_blocks=1, n_heads=2,
                         d_map=12, head_hidden=16, ffn_mult=2)


def make_buffer(rng, scene_id, role, n=64):
    return bf.PretrainBuffer(rng.normal(size=(n, REG.d_feat)), rng.uniform(-2, 2, size=(n, 3)),
                             scene_id, role, 0)


def make_dataset(n_tuples=4, seed=0):
    rng = np.random.default_rng(seed)
    return [pt.TupleData(f"t{i}", make_buffer(rng, f"t{i}", bf.ROLE_M),
                         make_buffer(rng, f"t{i}", bf.ROLE_Q)) for i in range(n_tuples)]


def make_config(**over):
    base = dict(n_active=4, scenes_per_batch=2, patches_per_scene=16, n_qstandby=0,
                budget_lo=100, budget_hi=100, n_code_tokens=8, total_iterations=0, seed=3)
    return pt.PretrainConfig(**{**base, **over})


def run_state(run: pt.PretrainRun) -> dict[str, np.ndarray]:
    """Every array a resumed run must reproduce: params, codes, AdamW moments."""
    out = {f"param/{k}": t.data for k, t in run.params.items()}
    out.update({f"opt_head/{k}": a for k, a in run.head_opt.state_arrays().items()})
    for s in run.pool:
        out[f"slot{s.slot}/code"] = s.code.tokens.data
        out.update({f"slot{s.slot}/opt_{k}": a for k, a in s.opt.state_arrays().items()})
    return out


def test_training_state_stays_float32():
    run = pt.PretrainRun(make_dataset(), make_config(), REG)
    run.mapping_iteration(update_head=True)
    assert run.query_iteration() is not None
    for name, arr in run_state(run).items():
        # the AdamW step counter is an integer; every other array is float32
        expected = np.int64 if name.endswith("step") else np.float32
        assert arr.dtype == expected, name


def test_save_load_state_round_trip_bit_exact(tmp_path):
    dataset = make_dataset()
    for mirror_augment in (False, True):
        cfg = make_config(total_iterations=20, head_update_period=5,
                          mirror_augment=mirror_augment)
        run = pt.PretrainRun(dataset, cfg, REG)
        run.run()
        prm, js = run.save_state(tmp_path, f"state-{mirror_augment}")
        loaded = pt.PretrainRun(dataset, cfg, REG)
        loaded.load_state(prm, js)
        got = run_state(loaded)
        for name, arr in run_state(run).items():
            assert got[name].dtype == arr.dtype, name
            assert np.array_equal(got[name], arr), name


def test_save_state_keeps_the_old_files_when_a_write_fails(tmp_path, monkeypatch):
    run = pt.PretrainRun(make_dataset(), make_config(), REG)
    prm, js = run.save_state(tmp_path, "s")
    old = prm.read_bytes(), js.read_bytes()

    def interrupted(path, named):
        path.write_bytes(pt.ad.PARAM_MAGIC)
        raise OSError("interrupted")

    monkeypatch.setattr(pt.ad, "save_params", interrupted)
    run.mapping_iteration(update_head=True)
    with pytest.raises(OSError):
        run.save_state(tmp_path, "s")
    assert (prm.read_bytes(), js.read_bytes()) == old


def test_load_state_rejects_a_dataset_in_another_order(tmp_path):
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(), REG)
    prm, js = run.save_state(tmp_path, "s")
    other = pt.PretrainRun(dataset[::-1], make_config(), REG)
    before = run_state(other)
    with pytest.raises(ValueError, match="slot"):
        other.load_state(prm, js)
    for name, arr in run_state(other).items():
        assert np.array_equal(arr, before[name]), name


def test_fit_map_code_restores_requires_grad():
    params = rg.init_regressor(REG, seed=0)
    buf = make_dataset(1)[0].mapping
    pt.fit_map_code(params, REG, buf, n_tokens=8, iterations=2, batch_size=16, lr=1e-3, seed=1)
    assert all(t.requires_grad for t in params.values())
    code = rg.init_map_code(8, REG.d_map, seed=2)
    y, sigma = rg.regress_batch(params, REG, Tensor(buf.embeddings), code.tokens)
    ad.backward(ad.tmean(rg.laplace_nll_batch(y, sigma, Tensor(buf.coords))))
    assert params["head/w2"].grad is not None


@pytest.mark.parametrize("phase", ["mapping", "query"])
@pytest.mark.parametrize("reason", ["loss", "gradient"])
def test_nonfinite_iteration_steps_nothing_and_counts_toward_the_streak(monkeypatch, phase, reason):
    run = pt.PretrainRun(make_dataset(), make_config(nonfinite_abort_streak=1), REG)
    if reason == "loss":
        run.params["head/b2"].data[3] = np.nan
    else:
        backward = ad.backward

        def plant_nan(loss):
            backward(loss)
            run.params["head/w2"].grad[0, 0] = np.nan

        monkeypatch.setattr(pt.ad, "backward", plant_nan)
    iterate = ((lambda: run.mapping_iteration(update_head=True)) if phase == "mapping"
               else run.query_iteration)
    before = run_state(run)
    assert not np.isfinite(iterate())
    for name, arr in run_state(run).items():
        assert np.array_equal(arr, before[name], equal_nan=True), name
    assert all(s.counter == 0 for s in run.pool)
    assert all(t.grad is None for t in run.params.values())
    record = run.log_records[-1]
    assert record["event"] == ("nonfinite" if phase == "mapping" else "nonfinite_query")
    assert record["reason"] == reason
    with pytest.raises(FloatingPointError, match=f"non-finite {reason} streak"):
        iterate()


def signed_volume(tet: np.ndarray) -> float:
    return float(np.linalg.det(tet[1:] - tet[0]))


@pytest.mark.parametrize("mirror", [False, True])
def test_augment_coords_is_rigid_about_center(mirror):
    rng = np.random.default_rng(4)
    coords = rng.uniform(-2, 2, size=(32, 3)).astype(np.float32)
    center = coords.astype(np.float64).mean(axis=0)
    out = pt._augment_coords(np.vstack([coords, center.astype(np.float32)]),
                             random_rotation(rng), mirror, center)
    assert out.dtype == np.float32
    assert np.allclose(out[-1], center, atol=1e-6)
    dist = np.linalg.norm(coords[:, None] - coords[None], axis=-1)
    got = np.linalg.norm(out[:-1, None] - out[None, :-1], axis=-1)
    assert np.allclose(got, dist, atol=1e-5)
    tet = coords[:4].astype(np.float64)
    assert np.sign(signed_volume(out[:4].astype(np.float64))) == \
        (-1 if mirror else 1) * np.sign(signed_volume(tet))
