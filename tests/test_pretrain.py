import copy
import dataclasses
import json
import re

import numpy as np
import pytest

from screloc import autodiff as ad
from screloc import buffers as bf
from screloc import pretrain as pt
from screloc import regressor as rg
from screloc import synthworld as sw
from screloc.autodiff import Tensor
from screloc.geometry import random_rotation

REG = rg.RegressorConfig(d_feat=8, d_model=16, n_blocks=1, n_heads=2,
                         d_map=12, head_hidden=16, ffn_mult=2)


def make_buffer(rng, scene_id, n=64):
    return bf.PretrainBuffer(rng.normal(size=(n, REG.d_feat)), rng.uniform(-2, 2, size=(n, 3)),
                             scene_id, 0)


def make_dataset(n_tuples=4, seed=0):
    rng = np.random.default_rng(seed)
    return [pt.TupleData(f"t{i}", make_buffer(rng, f"t{i}"), make_buffer(rng, f"t{i}"))
            for i in range(n_tuples)]


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


def run_snapshot(run: pt.PretrainRun) -> dict:
    """`run_state` plus the iteration, both RNG states and the pool's slots."""
    return {**{k: a.copy() for k, a in run_state(run).items()},
            "iteration": run.iteration,
            "rng_pool": json.dumps(run.pool_rng.bit_generator.state),
            "rng_batch": json.dumps(run.batch_rng.bit_generator.state),
            "pool": [(id(s), s.slot, s.tuple_id, s.counter, s.budget) for s in run.pool]}


def assert_same_snapshot(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype, name
            assert np.array_equal(got[name], value), name
        else:
            assert got[name] == value, name


def test_save_load_state_round_trip_bit_exact(tmp_path):
    dataset = make_dataset()
    cfg = make_config(total_iterations=20, head_update_period=5)
    run = pt.PretrainRun(dataset, cfg, REG)
    run.run()
    prm, js = run.save_state(tmp_path, "state")
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


def _drop_slot2_code(named, state):
    del named["slot2/code"]


def _misshape_head_moment(named, state):
    named["opt_head/m3"] = named["opt_head/m3"][:-1]


def _drop_last_slot(named, state):
    state["slots"].pop()


@pytest.mark.parametrize("corrupt, match", [
    (_drop_slot2_code, r"missing: \['slot2/code'\]; in another shape: \[\]$"),
    (_misshape_head_moment, r"missing: \[\]; in another shape: \['opt_head/m3'\]$"),
    (_drop_last_slot, r"slots \[0, 1, 2\], expected 0..3"),
], ids=["missing_code", "misshaped_moment", "fewer_slots"])
def test_load_state_rejects_a_bad_record_and_changes_nothing(tmp_path, corrupt, match):
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(), REG)
    run.mapping_iteration(update_head=True)
    prm, js = run.save_state(tmp_path, "s")
    named, state = ad.load_params(prm), json.loads(js.read_text())
    corrupt(named, state)
    ad.save_params(prm, named)
    js.write_text(json.dumps(state))
    other = pt.PretrainRun(dataset, make_config(seed=4), REG)
    other.iteration = 5
    before = run_snapshot(other)
    with pytest.raises(ValueError, match=match):
        other.load_state(prm, js)
    assert_same_snapshot(run_snapshot(other), before)


def test_load_state_needs_every_record_that_save_state_writes(tmp_path):
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(), REG)
    run.mapping_iteration(update_head=True)
    prm, js = run.save_state(tmp_path, "s")
    named = ad.load_params(prm)
    assert list(named) == list(run_state(run))
    other = pt.PretrainRun(dataset, make_config(seed=4), REG)
    other.iteration = 5
    before = run_snapshot(other)
    cut = tmp_path / "cut.prm"
    for name in named:
        ad.save_params(cut, {key: arr for key, arr in named.items() if key != name})
        with pytest.raises(ValueError, match=re.escape(f"missing: [{name!r}];")):
            other.load_state(cut, js)
        assert_same_snapshot(run_snapshot(other), before)


def test_load_state_rejects_another_training_config_and_changes_nothing(tmp_path):
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(), REG)
    run.mapping_iteration(update_head=True)
    prm, js = run.save_state(tmp_path, "s")
    without_regressor = tmp_path / "without_regressor.json"
    state = json.loads(js.read_text())
    del state["regressor"]
    without_regressor.write_text(json.dumps(state))
    for over, reg_over, state_path, match in [
        (dict(lr_head=2e-3, n_qstandby=3), {}, js,
         r"another config: n_qstandby 0 \(this run: 3\), lr_head 0.001 \(this run: 0.002\)$"),
        (dict(n_qstandby=3), dict(n_heads=4), js,
         r"another config: n_qstandby 0 \(this run: 3\), n_heads 2 \(this run: 4\)$"),
        ({}, {}, without_regressor,
         r"another config: d_feat None \(this run: 8\), d_model None \(this run: 16\), "),
    ]:
        other = pt.PretrainRun(dataset, make_config(**over), dataclasses.replace(REG, **reg_over))
        before = run_snapshot(other)
        with pytest.raises(ValueError, match=match):
            other.load_state(prm, state_path)
        assert_same_snapshot(run_snapshot(other), before)


def test_every_config_field_is_checked_on_resume_or_may_differ():
    """A new `PretrainConfig` field has to join `RESUME_FIELDS` or this list."""
    may_differ = ("seed", "total_iterations", "log_every", "checkpoint_every",
                  "nonfinite_abort_streak")
    assert sorted(pt.RESUME_FIELDS + may_differ) == sorted(
        f.name for f in dataclasses.fields(pt.PretrainConfig))


def test_load_state_accepts_another_length_seed_and_logging(tmp_path):
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(), REG)
    run.mapping_iteration(update_head=True)
    prm, js = run.save_state(tmp_path, "s")
    cfg = make_config(total_iterations=50, seed=9, log_every=7, checkpoint_every=2,
                      nonfinite_abort_streak=1)
    loaded = pt.PretrainRun(dataset, cfg, REG)
    loaded.load_state(prm, js)
    got = run_state(loaded)
    for name, arr in run_state(run).items():
        assert np.array_equal(got[name], arr), name


def test_fit_map_code_restores_requires_grad():
    params = rg.init_regressor(REG, seed=0)
    buf = make_dataset(1)[0].mapping
    pt.fit_map_code(params, REG, buf, n_tokens=8, iterations=2, batch_size=16, lr=1e-3, seed=1)
    assert all(t.requires_grad for t in params.values())
    code = rg.init_map_code(8, REG.d_map, seed=2)
    y, sigma = rg.regress_batch(params, REG, Tensor(buf.embeddings), code.tokens)
    ad.backward(ad.tmean(rg.laplace_nll_batch(y, sigma, Tensor(buf.coords))))
    assert params["head/w2"].grad is not None


@pytest.mark.parametrize("batch_size, trim_fraction, message", [
    (0, 0.3, "batch_size"), (16, 0.0, "trim_fraction"), (16, 1.5, "trim_fraction"),
    (16, float("nan"), "trim_fraction"),
])
def test_fit_map_code_rejects_bad_arguments_before_any_work(monkeypatch, batch_size,
                                                             trim_fraction, message):
    made = []
    monkeypatch.setattr(pt.rg, "init_map_code", lambda *args, **kwargs: made.append(args))
    with pytest.raises(ValueError, match=message):
        pt.fit_map_code(rg.init_regressor(REG, seed=0), REG, make_dataset(1)[0].mapping,
                        n_tokens=8, iterations=2, batch_size=batch_size, lr=1e-3, seed=1,
                        trim_fraction=trim_fraction)
    assert made == []


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


def test_fit_map_code_skips_a_nonfinite_code_gradient(monkeypatch):
    params = rg.init_regressor(REG, seed=0)
    params["head/w2"].requires_grad = False
    flags = {name: t.requires_grad for name, t in params.items()}
    made = []
    init, backward = rg.init_map_code, ad.backward

    def recording_init(*args, **kwargs):
        code = init(*args, **kwargs)
        made.append((code, code.tokens.data.copy()))
        return code

    def plant_nan(loss):
        backward(loss)
        made[0][0].tokens.grad[0, 0] = np.nan

    monkeypatch.setattr(pt.rg, "init_map_code", recording_init)
    monkeypatch.setattr(pt.ad, "backward", plant_nan)
    code = pt.fit_map_code(params, REG, make_dataset(1)[0].mapping, n_tokens=8, iterations=3,
                           batch_size=16, lr=1e-3, seed=1)
    [(made_code, initial)] = made
    assert code is made_code
    assert np.isfinite(code.tokens.data).all()
    assert np.array_equal(code.tokens.data, initial)
    assert code.tokens.grad is None
    assert {name: t.requires_grad for name, t in params.items()} == flags


@pytest.mark.parametrize("field, value", [("log_every", 0), ("checkpoint_every", -1),
                                          ("nonfinite_abort_streak", -1)])
def test_config_rejects_out_of_range_counts(field, value):
    with pytest.raises(ValueError, match=field):
        make_config(**{field: value})


def test_mapping_loss_is_the_mean_nll_of_the_batch_it_drew():
    run = pt.PretrainRun(make_dataset(), make_config(patches_per_scene=64), REG)
    chosen, emb, coords = bf.sample_batch([s.m_buf for s in run.pool], run.cfg.scenes_per_batch,
                                          run.cfg.patches_per_scene, copy.deepcopy(run.batch_rng))
    codes = ad.stack([run.pool[i].code.tokens for i in chosen])
    y, sigma = rg.regress_batch(run.params, REG, Tensor(emb), codes)
    nll = rg.laplace_nll_batch(y, sigma, Tensor(coords)).data
    loss = run.mapping_iteration(update_head=True)
    assert nll.size == run.cfg.scenes_per_batch * run.cfg.patches_per_scene
    assert np.isclose(loss, nll.astype(np.float64).mean(), rtol=1e-5, atol=0)


def test_load_state_accepts_a_state_with_code_seeds(tmp_path):
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(), REG)
    run.mapping_iteration(update_head=True)
    prm, js = run.save_state(tmp_path, "s")
    state = json.loads(js.read_text())
    for info in state["slots"]:
        info["code_seed"] = 7
        info["aug_mirror"] = False
    js.write_text(json.dumps(state))
    loaded = pt.PretrainRun(dataset, make_config(seed=4), REG)
    loaded.load_state(prm, js)
    got = run_state(loaded)
    for name, arr in run_state(run).items():
        assert np.array_equal(got[name], arr), name


def test_head_steps_once_per_period_plus_once_per_query_that_ran():
    run = pt.PretrainRun(make_dataset(), make_config(total_iterations=24, head_update_period=3,
                                                     n_qstandby=4), REG)
    run.run()
    skipped = sum(r.get("event") == "query_skipped" for r in run.log_records)
    assert 0 < skipped < 8
    assert run.head_opt.step_count == 24 // 3 + 8 - skipped


@pytest.mark.parametrize("update_head", [False, True])
def test_mapping_steps_only_the_sampled_codes(monkeypatch, update_head):
    run = pt.PretrainRun(make_dataset(), make_config(), REG)
    run.mapping_iteration(update_head=True)
    sampled = []
    sample = bf.sample_batch

    def recording_sample(*args):
        batch = sample(*args)
        sampled.extend(batch[0].tolist())
        return batch

    monkeypatch.setattr(pt.bf, "sample_batch", recording_sample)
    before = run_state(run)
    counters = [s.counter for s in run.pool]
    head_steps = run.head_opt.step_count
    assert np.isfinite(run.mapping_iteration(update_head))
    assert len(sampled) == 2
    after = run_state(run)
    for s, counter in zip(run.pool, counters):
        moved = s.slot in sampled
        assert s.counter == counter + moved
        assert s.opt.step_count == before[f"slot{s.slot}/opt_step"][0] + moved
        for name in [f"slot{s.slot}/code", f"slot{s.slot}/opt_m0", f"slot{s.slot}/opt_v0"]:
            assert np.array_equal(after[name], before[name]) != moved, name
    assert run.head_opt.step_count == head_steps + update_head


def test_query_iteration_leaves_every_code_and_code_moment_unchanged():
    run = pt.PretrainRun(make_dataset(), make_config(), REG)
    run.mapping_iteration(update_head=True)
    before = run_state(run)
    assert np.isfinite(run.query_iteration())
    after = run_state(run)
    slot_keys = [name for name in before if name.startswith("slot")]
    assert slot_keys
    for name in slot_keys:
        assert after[name].dtype == before[name].dtype, name
        assert np.array_equal(after[name], before[name]), name
    assert not np.array_equal(after["param/head/w2"], before["param/head/w2"])


@pytest.mark.parametrize("step", ["mapping", "mapping_head", "query", "fit", "streak_limit"])
def test_each_step_gives_every_shared_parameter_its_flag_back(step):
    run = pt.PretrainRun(make_dataset(), make_config(nonfinite_abort_streak=0), REG)
    for i, t in enumerate(run.params.values()):
        t.requires_grad = i % 3 != 0
    flags = {name: t.requires_grad for name, t in run.params.items()}
    before = {name: t.data.copy() for name, t in run.params.items()}
    if step == "mapping":
        run.mapping_iteration(update_head=False)
    elif step == "mapping_head":
        run.mapping_iteration(update_head=True)
    elif step == "query":
        assert run.query_iteration() is not None
    elif step == "fit":
        pt.fit_map_code(run.params, REG, run.dataset[0].mapping, n_tokens=8, iterations=2,
                        batch_size=16, lr=1e-3, seed=1)
    else:
        run.params["head/b2"].data[3] = before["head/b2"][3] = np.nan
        with pytest.raises(FloatingPointError):
            run.mapping_iteration(update_head=True)
    assert {name: t.requires_grad for name, t in run.params.items()} == flags
    # a head step trains exactly the parameters whose flag is set
    trained = {name for name, t in run.params.items()
               if not np.array_equal(t.data, before[name], equal_nan=True)}
    head_step = step in ("mapping_head", "query")
    assert trained == {name for name, flag in flags.items() if flag and head_step}


def signed_volume(tet: np.ndarray) -> float:
    return float(np.linalg.det(tet[1:] - tet[0]))


def test_augment_coords_is_rigid_about_center():
    rng = np.random.default_rng(4)
    coords = rng.uniform(-2, 2, size=(32, 3)).astype(np.float32)
    center = coords.astype(np.float64).mean(axis=0)
    out = pt._augment_coords(np.vstack([coords, center.astype(np.float32)]),
                             random_rotation(rng), center)
    assert out.dtype == np.float32
    assert np.allclose(out[-1], center, atol=1e-6)
    dist = np.linalg.norm(coords[:, None] - coords[None], axis=-1)
    got = np.linalg.norm(out[:-1, None] - out[None, :-1], axis=-1)
    assert np.allclose(got, dist, atol=1e-5)
    tet = coords[:4].astype(np.float64)
    assert np.sign(signed_volume(out[:4].astype(np.float64))) == np.sign(signed_volume(tet))


def test_rotate_pool_replaces_exactly_the_slots_that_used_their_budget():
    run = pt.PretrainRun(make_dataset(6), make_config(budget_lo=5, budget_hi=9), REG)
    for scene, over in zip(run.pool, (-1, 0, 3, None)):
        scene.counter = 0 if over is None else scene.budget + over
    old = list(run.pool)
    replaced = run.rotate_pool()
    assert replaced == [old[1].tuple_id, old[2].tuple_id]
    assert [new is prev for new, prev in zip(run.pool, old)] == [True, False, False, True]


def test_admitted_slot_starts_fresh():
    dataset = make_dataset(6)
    cfg = make_config(budget_lo=5, budget_hi=9)
    run = pt.PretrainRun(dataset, cfg, REG)
    budgets = set()
    for _ in range(30):
        run.mapping_iteration(update_head=True)
        old = run.pool[1]
        old.counter = old.budget
        run.rotate_pool()
        new = run.pool[1]
        assert new is not old and new.slot == 1
        assert new.counter == 0
        assert new.code.scene_id == new.tuple_id == dataset[new.tuple_index].tuple_id
        assert new.code.tokens is not old.code.tokens
        assert new.code.tokens.shape == (cfg.n_code_tokens, REG.d_map)
        assert np.abs(new.code.tokens.data).max() < 0.1      # N(0, 0.01^2) entries
        assert new.opt.tensors == [new.code.tokens] and new.opt.step_count == 0
        assert not new.opt.m[0].any() and not new.opt.v[0].any()
        assert cfg.budget_lo <= new.budget <= cfg.budget_hi
        budgets.add(new.budget)
        data = dataset[new.tuple_index]
        for buf, raw in ((new.m_buf, data.mapping), (new.q_buf, data.query)):
            assert buf.embeddings is raw.embeddings
            assert np.array_equal(buf.coords,
                                  pt._augment_coords(raw.coords, new.aug_rot, new.aug_center))
    assert len(budgets) > 1


def test_admit_never_picks_an_active_tuple_while_another_is_free():
    run = pt.PretrainRun(make_dataset(6), make_config(budget_lo=1, budget_hi=3), REG)
    seen = set()
    for _ in range(40):
        assert len({s.tuple_id for s in run.pool}) == len(run.pool)
        seen.update(s.tuple_id for s in run.pool)
        run.pool[0].counter = run.pool[0].budget
        run.rotate_pool()
    assert len(seen) == 6


def test_query_iteration_samples_only_scenes_past_standby(monkeypatch):
    run = pt.PretrainRun(make_dataset(), make_config(n_qstandby=5), REG)
    sampled = []
    sample = bf.sample_batch

    def recording_sample(bufs, n_scenes, n_patches, rng):
        sampled.append((list(bufs), n_scenes))
        return sample(bufs, n_scenes, n_patches, rng)

    monkeypatch.setattr(pt.bf, "sample_batch", recording_sample)
    for s, counter in zip(run.pool, (0, 4, 4, 0)):
        s.counter = counter
    head = run.params["head/w2"].data.copy()
    assert run.query_iteration() is None
    assert run.log_records[-1] == {"iteration": 0, "event": "query_skipped"}
    assert sampled == [] and np.array_equal(run.params["head/w2"].data, head)

    run.pool[2].counter = 5
    assert np.isfinite(run.query_iteration())
    assert run.log_records[-1] == {"iteration": 0, "event": "query_shrunk", "scenes_per_batch": 1}
    assert sampled[-1] == ([run.pool[2].q_buf], 1)

    run.pool[0].counter = 9
    n_records = len(run.log_records)
    assert np.isfinite(run.query_iteration())
    assert len(run.log_records) == n_records
    bufs, n_scenes = sampled[-1]
    assert n_scenes == 2
    assert len(bufs) == 2 and bufs[0] is run.pool[0].q_buf and bufs[1] is run.pool[2].q_buf


def test_admit_never_puts_one_tuple_in_two_slots():
    """With as many tuples as slots, the outgoing slot's own tuple is the only free one."""
    run = pt.PretrainRun(make_dataset(4), make_config(budget_lo=1, budget_hi=3), REG)
    for i in range(40):
        scene = run.pool[i % 4]
        scene.counter = scene.budget
        assert run.rotate_pool() == [scene.tuple_id]
        assert sorted(s.tuple_id for s in run.pool) == ["t0", "t1", "t2", "t3"]


class CountingList(list):
    """A dataset that records every index read from it and every iteration over it."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)

    def __iter__(self):
        self.reads.append("iter")
        return super().__iter__()


def test_admission_reads_only_the_admitted_tuple():
    dataset = CountingList(make_dataset(6))
    run = pt.PretrainRun(dataset, make_config(budget_lo=1, budget_hi=3), REG)
    assert dataset.reads == [s.tuple_index for s in run.pool]
    for _ in range(10):
        dataset.reads.clear()
        run.pool[0].counter = run.pool[0].budget
        run.rotate_pool()
        assert dataset.reads == [run.pool[0].tuple_index]


def test_load_state_reads_each_slot_tuple_once(tmp_path):
    dataset = CountingList(make_dataset(6))
    run = pt.PretrainRun(dataset, make_config(), REG)
    run.mapping_iteration(update_head=True)
    prm, js = run.save_state(tmp_path, "s")
    loaded = pt.PretrainRun(dataset, make_config(seed=4), REG)
    dataset.reads.clear()
    loaded.load_state(prm, js)
    assert dataset.reads == [s.tuple_index for s in run.pool]


@pytest.fixture(scope="module")
def benchmark_scene():
    """The mapping and query buffers of one scene rendered at the default world size."""
    world = sw.WorldConfig()
    oracle = sw.FeatureOracle(world.latent_dim, world.d_feat, world.alpha, world.beta,
                              world.sigma_noise, seed=0)
    tup = sw.render_tuple(sw.gen_scene(world, 1, "overfit"), world, oracle, sw.SplitConfig(), 2)
    mapping, query = bf.build_pretrain_buffers(tup.mapping_views, tup.query_views,
                                               tup.tuple_id, seed=3)
    return pt.TupleData(tup.tuple_id, mapping, query)


def test_pretraining_overfits_one_scene(benchmark_scene):
    """Head and code trained together on one scene for 300 steps predict its
    mapping records' coordinates to well within the scene's spread."""
    reg = rg.RegressorConfig()
    cfg = pt.PretrainConfig(n_active=1, scenes_per_batch=1, patches_per_scene=256,
                            head_update_period=1, enable_query=False, budget_lo=10**9,
                            budget_hi=10**9, total_iterations=300)
    run = pt.PretrainRun([benchmark_scene], cfg, reg)
    run.run()
    [scene] = run.pool
    y, _ = rg.regress_batch(run.params, reg, Tensor(scene.m_buf.embeddings), scene.code.tokens)
    coords = scene.m_buf.coords
    error = np.median(np.linalg.norm(y.data - coords, axis=1))
    spread = np.median(np.linalg.norm(coords - coords.mean(axis=0), axis=1))
    assert error < 0.5 * spread
