import copy
import dataclasses
import json
import re
from collections.abc import Sequence

import numpy as np
import pytest

from screloc import autodiff as ad
from screloc import binio
from screloc import buffers as bf
from screloc import pretrain as pt
from screloc import regressor as rg
from screloc import synthworld as sw
from screloc.autodiff import Tensor
from screloc.geometry import random_rotation

REG = rg.RegressorConfig(d_feat=8, d_model=16, n_blocks=1, n_heads=2,
                         d_map=12, head_hidden=16, ffn_mult=2)


def make_buffer(rng, scene_id, n=64):
    return bf.PretrainBuffer(rng.normal(size=(n, REG.d_feat)).astype(np.float32),
                             rng.uniform(-2, 2, size=(n, 3)).astype(np.float32), scene_id)


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
    """`run_state` plus the iteration, the non-finite streak, both RNG states and the
    pool's slots."""
    return {**{k: a.copy() for k, a in run_state(run).items()},
            "iteration": run.iteration, "nonfinite_streak": run._nonfinite_streak,
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

    def interrupted(path, magic, named):
        path.write_bytes(magic)
        raise OSError("interrupted")

    monkeypatch.setattr(pt.binio, "save_records", interrupted)
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


POOL_RECORDS = ["iteration", "pool/tuple_index", "pool/budget", "pool/aug_rot"]


def _drop(name):
    def corrupt(named, state):
        del named[name]
    return corrupt


def _set(name, index, value):
    def corrupt(named, state):
        named[name][index] = value
    return corrupt


def _as(name, dtype, change=lambda a: a):
    def corrupt(named, state):
        named[name] = change(named[name]).astype(dtype)
    return corrupt


def _as_text(name):
    """The record written as the bytes of its numbers' decimal text."""
    def corrupt(named, state):
        named[name] = np.frombuffer(" ".join(map(str, named[name].tolist())).encode(), np.uint8)
    return corrupt


def _misshape_head_moment(named, state):
    named["opt_head/m3"] = named["opt_head/m3"][:-1]


def _drop_last_slot(named, state):
    for name in [name for name in named if name.startswith("slot3/")]:
        del named[name]
    for name in POOL_RECORDS[1:]:
        named[name] = named[name][:-1]
    state["tuple_ids"].pop()


def _stretch_slot1_rotation(named, state):
    named["pool/aug_rot"][1] *= 2.0


def _one_tuple_in_two_slots(named, state):
    named["pool/tuple_index"][:2] = 3
    state["tuple_ids"][:2] = ["t3", "t3"]


def _drop_tuple_ids(named, state):
    del state["tuple_ids"]


def _state_in_a_list(named, state):
    return [state]


def _config_as_a_list(named, state):
    state["config"] = list(state["config"].items())


def _rng_pool_as_a_string(named, state):
    state["rng_pool"] = "PCG64"


def _rng_pool_without_state(named, state):
    del state["rng_pool"]["state"]


def _missing(name):
    return rf"^record '{name}' is missing$"


def _shape_or_dtype(name):
    return rf"^record '{name}' is \w+ \(.*\), expected \w+ \(.*\)$"


def _non_finite(name):
    return rf"^record '{name}' holds non-finite values$"


def _out_of_range(name, bounds):
    return rf"^record '{name}' holds values outside {re.escape(bounds)}$"


# each case edits the saved records and JSON in place, or returns the JSON to write instead
LOAD_STATE_CORRUPTIONS = {
    "missing_code": (_drop("slot2/code"), _missing("slot2/code")),
    "misshaped_moment": (_misshape_head_moment, _shape_or_dtype("opt_head/m3")),
    "fewer_slots": (_drop_last_slot, _missing("slot3/code")),
    "no_iteration": (_drop("iteration"), _missing("iteration")),
    "slot_without_counter": (_drop("slot1/opt_step"), _missing("slot1/opt_step")),
    "no_tuple_ids": (_drop_tuple_ids, r"lacks the field 'tuple_ids'$"),
    "string_iteration": (_as_text("iteration"), _shape_or_dtype("iteration")),
    "string_budget": (_as_text("pool/budget"), _shape_or_dtype("pool/budget")),
    "fractional_counter": (_as("slot1/opt_step", np.float64, lambda c: c + 1.5),
                           _shape_or_dtype("slot1/opt_step")),
    "float_tuple_index": (_as("pool/tuple_index", np.float64), _shape_or_dtype("pool/tuple_index")),
    "float64_weight": (_as("param/in_proj/w", np.float64), _shape_or_dtype("param/in_proj/w")),
    "negative_counter": (_set("slot1/opt_step", 0, -7),
                         _out_of_range("slot1/opt_step", "[0, inf]")),
    "zero_budget": (_set("pool/budget", 1, 0), _out_of_range("pool/budget", "[1, inf]")),
    "negative_step": (_set("opt_head/step", 0, -5), _out_of_range("opt_head/step", "[0, inf]")),
    "negative_streak": (_set("nonfinite_streak", 0, -1),
                        _out_of_range("nonfinite_streak", "[0, inf]")),
    "nan_parameter": (_set("param/in_proj/b", 3, np.nan), _non_finite("param/in_proj/b")),
    "inf_code": (_set("slot2/code", (0, 0), np.inf), _non_finite("slot2/code")),
    "huge_aug_rot": (_set("pool/aug_rot", (1, 0, 0), 1e200),
                     _out_of_range("pool/aug_rot", "[-2.0, 2.0]")),
    "negative_head_moment": (_set("opt_head/v0", ..., -1.0),
                             _out_of_range("opt_head/v0", "[0, inf]")),
    "negative_code_moment": (_set("slot1/opt_v0", (2, 3), -1e-12),
                             _out_of_range("slot1/opt_v0", "[0, inf]")),
    "nan_head_moment": (_set("opt_head/v2", ..., np.nan), _non_finite("opt_head/v2")),
    "stretched_aug_rot": (_stretch_slot1_rotation,
                          r"^slot 1: aug_rot: rotation is not a proper orthonormal matrix$"),
    "one_tuple_in_two_slots": (_one_tuple_in_two_slots, r"^tuple 't3' fills more than one slot: \[3, 3, "),
    "state_in_a_list": (_state_in_a_list, r"^state is not a JSON object"),
    "config_as_a_list": (_config_as_a_list, r"^state is not a JSON object"),
    "rng_pool_as_a_string": (_rng_pool_as_a_string, r"^state holds a bad generator state"),
    "rng_pool_without_state": (_rng_pool_without_state, r"^state holds a bad generator state"),
}


@pytest.mark.parametrize("case", list(LOAD_STATE_CORRUPTIONS))
def test_load_state_rejects_a_bad_record_and_changes_nothing(tmp_path, case):
    corrupt, match = LOAD_STATE_CORRUPTIONS[case]
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(), REG)
    run.mapping_iteration(update_head=True)
    prm, js = run.save_state(tmp_path, "s")
    named, state = binio.load_records(prm, pt.STATE_MAGIC), json.loads(js.read_text())
    edited = corrupt(named, state)
    binio.save_records(prm, pt.STATE_MAGIC, named)
    js.write_text(json.dumps(state if edited is None else edited))
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
    named = binio.load_records(prm, pt.STATE_MAGIC)
    assert list(named) == [*run_state(run), "iteration", "nonfinite_streak", *POOL_RECORDS[1:]]
    other = pt.PretrainRun(dataset, make_config(seed=4), REG)
    other.iteration = 5
    before = run_snapshot(other)
    cut = tmp_path / "cut.prm"
    for name in named:
        binio.save_records(cut, pt.STATE_MAGIC,
                           {key: arr for key, arr in named.items() if key != name})
        with pytest.raises(ValueError, match=_missing(re.escape(name))):
            other.load_state(cut, js)
        assert_same_snapshot(run_snapshot(other), before)


def test_load_state_rejects_another_training_config_and_changes_nothing(tmp_path):
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(), REG)
    run.mapping_iteration(update_head=True)
    prm, js = run.save_state(tmp_path, "s")
    without_regressor = tmp_path / "without_regressor.json"
    state = json.loads(js.read_text())
    for name in dataclasses.asdict(REG):
        del state["config"][name]
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
    may_differ = ("seed", "total_iterations", "log_every", "checkpoint_every")
    assert sorted(pt.RESUME_FIELDS + may_differ) == sorted(
        f.name for f in dataclasses.fields(pt.PretrainConfig))


def test_load_state_accepts_another_length_seed_and_logging(tmp_path):
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(), REG)
    run.mapping_iteration(update_head=True)
    prm, js = run.save_state(tmp_path, "s")
    cfg = make_config(total_iterations=50, seed=9, log_every=7, checkpoint_every=2)
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


@pytest.mark.parametrize("bad, message", [
    (dict(batch_size=0, trim_fraction=0.3), "batch_size"),
    (dict(trim_fraction=0.0), "trim_fraction"), (dict(trim_fraction=1.5), "trim_fraction"),
    (dict(trim_fraction=float("nan")), "trim_fraction"), (dict(iterations=-1), "iterations"),
], ids=["0-0.3-batch_size", "16-0.0-trim_fraction", "16-1.5-trim_fraction",
        "16-nan-trim_fraction", "iterations=-1"])
def test_fit_map_code_rejects_bad_arguments_before_any_work(monkeypatch, bad, message):
    made = []
    monkeypatch.setattr(pt.rg, "init_map_code", lambda *args, **kwargs: made.append(args))
    with pytest.raises(ValueError, match=message):
        pt.fit_map_code(rg.init_regressor(REG, seed=0), REG, make_dataset(1)[0].mapping,
                        **{**dict(n_tokens=8, iterations=2, batch_size=16, lr=1e-3, seed=1), **bad})
    assert made == []


@pytest.mark.parametrize("phase", ["mapping", "query"])
@pytest.mark.parametrize("reason", ["loss", "gradient"])
def test_nonfinite_iteration_steps_nothing_and_counts_toward_the_streak(monkeypatch, phase, reason):
    monkeypatch.setattr(pt, "NONFINITE_ABORT_STREAK", 1)
    run = pt.PretrainRun(make_dataset(), make_config(), REG)
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


def test_each_step_logs_under_its_own_iteration_and_each_record_only_what_it_did(monkeypatch):
    """A failed mapping step at iteration 5 logs its event there, and no record repeats
    a loss of an earlier step: `query_nll` appears only where a query step stepped."""
    calls = []
    step = pt._step

    def fail_fifth(*args):
        calls.append(len(calls) + 1)
        return (np.nan, "loss") if len(calls) == 5 else step(*args)

    monkeypatch.setattr(pt, "_step", fail_fifth)
    run = pt.PretrainRun(make_dataset(), make_config(total_iterations=10, log_every=1,
                                                     head_update_period=5), REG)
    run.run()
    events = [r for r in run.log_records if "event" in r]
    assert [(r["iteration"], r["event"]) for r in events] == [(5, "nonfinite")]
    records = {r["iteration"]: r for r in run.log_records if "event" not in r}
    assert sorted(records) == list(range(1, 11))
    assert [i for i, r in records.items() if "map_nll" not in r] == [5]
    assert [i for i, r in records.items() if "query_nll" in r] == [5, 10]
    assert all(np.isfinite(v) for r in records.values() for v in r.values())


def test_a_resumed_run_aborts_at_the_iteration_one_call_does(monkeypatch, tmp_path):
    """The non-finite streak is part of the run state: with every step failing, one
    call aborts at iteration 10, and so does a run stopped at 8 and resumed from its
    state, not 8 failed steps later."""
    monkeypatch.setattr(pt, "_step", lambda *args: (np.nan, "loss"))
    dataset = make_dataset()
    cfg = make_config(total_iterations=30, head_update_period=5)
    whole = pt.PretrainRun(dataset, cfg, REG)
    with pytest.raises(FloatingPointError, match="non-finite loss streak"):
        whole.run()
    assert whole.iteration == 10
    first = pt.PretrainRun(dataset, dataclasses.replace(cfg, total_iterations=8), REG)
    first.run()
    resumed = pt.PretrainRun(dataset, cfg, REG)
    resumed.load_state(*first.save_state(tmp_path, "s"))
    with pytest.raises(FloatingPointError, match="non-finite loss streak"):
        resumed.run()
    assert resumed.iteration == 10


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
                                          ("total_iterations", -1), ("n_active", 0),
                                          ("scenes_per_batch", 0), ("patches_per_scene", 0),
                                          ("n_code_tokens", 0), ("budget_lo", 0),
                                          ("budget_lo", -3), ("n_qstandby", -1)])
def test_config_rejects_out_of_range_counts(field, value):
    with pytest.raises(ValueError, match=field):
        make_config(**{field: value})


@pytest.mark.parametrize("n_qstandby, enable_query, refused", [
    (7, True, True), (6, True, False), (7, False, False), (50, False, False)])
def test_config_refuses_query_iterations_that_can_never_run(n_qstandby, enable_query, refused):
    """A scene leaves the pool when its counter reaches its budget, before the period's
    query iteration: at n_qstandby >= budget_hi no scene is ever eligible."""
    fields = dict(n_qstandby=n_qstandby, enable_query=enable_query, budget_lo=3, budget_hi=7)
    if refused:
        with pytest.raises(ValueError, match="n_qstandby 7 >= budget_hi 7"):
            make_config(**fields)
    else:
        make_config(**fields)


def test_mapping_loss_is_the_mean_nll_of_the_batch_it_drew():
    run = pt.PretrainRun(make_dataset(), make_config(patches_per_scene=64), REG)
    chosen, emb, raw = bf.sample_batch([s.data.mapping for s in run.pool],
                                       run.cfg.scenes_per_batch, run.cfg.patches_per_scene,
                                       copy.deepcopy(run.batch_rng))
    scenes = [run.pool[i] for i in chosen]
    coords = np.stack([pt._augment_coords(c, s.aug_rot, s.aug_center)
                       for c, s in zip(raw, scenes)])
    codes = ad.stack([s.code.tokens for s in scenes])
    y, sigma = rg.regress_batch(run.params, REG, Tensor(emb), codes)
    nll = rg.laplace_nll_batch(y, sigma, Tensor(coords)).data
    loss = run.mapping_iteration(update_head=True)
    assert nll.size == run.cfg.scenes_per_batch * run.cfg.patches_per_scene
    assert np.isclose(loss, nll.astype(np.float64).mean(), rtol=1e-5, atol=0)


def test_load_state_recomputes_each_augmentation_center_and_ignores_a_stored_one(tmp_path):
    """States once stored `pool/aug_center`; a slot's centre is now the mean of its
    tuple's mapping coordinates, as on admission, and such a record is ignored."""
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(), REG)
    run.mapping_iteration(update_head=True)
    prm, js = run.save_state(tmp_path, "s")
    named = binio.load_records(prm, pt.STATE_MAGIC)
    assert "pool/aug_center" not in named
    named["pool/aug_center"] = np.full((len(run.pool), 3), np.nan)
    binio.save_records(prm, pt.STATE_MAGIC, named)
    loaded = pt.PretrainRun(dataset, make_config(seed=4), REG)
    loaded.load_state(prm, js)
    for want, got in zip(run.pool, loaded.pool):
        mean = dataset[got.tuple_index].mapping.coords.astype(np.float64).mean(axis=0)
        assert got.aug_center.tobytes() == want.aug_center.tobytes() == mean.tobytes()


def test_a_slot_counter_is_its_code_step_count_and_a_stored_counter_is_ignored(tmp_path):
    """States once stored `pool/counter` beside each slot's `opt_step`, and a state could
    hold a counter its optimizer disagreed with; now a slot counts its code's steps."""
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(scenes_per_batch=4), REG)
    for _ in range(7):
        run.mapping_iteration(update_head=False)
    prm, js = run.save_state(tmp_path, "s")
    named = binio.load_records(prm, pt.STATE_MAGIC)
    assert [named[f"slot{i}/opt_step"][0] for i in range(4)] == [7, 7, 7, 7]
    named["pool/counter"] = np.array([11, 7, 7, 7], dtype=np.int64)
    binio.save_records(prm, pt.STATE_MAGIC, named)
    loaded = pt.PretrainRun(dataset, make_config(scenes_per_batch=4, seed=4), REG)
    loaded.load_state(prm, js)
    assert [s.counter for s in loaded.pool] == [s.opt.step_count for s in loaded.pool] == [7] * 4


def test_load_state_accepts_a_state_with_code_seeds(tmp_path):
    dataset = make_dataset()
    run = pt.PretrainRun(dataset, make_config(), REG)
    run.mapping_iteration(update_head=True)
    prm, js = run.save_state(tmp_path, "s")
    state = json.loads(js.read_text())
    state["code_seeds"] = [7] * len(run.pool)
    state["slots"] = [{"code_seed": 7, "aug_mirror": False} for _ in run.pool]
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
def test_each_step_gives_every_shared_parameter_its_flag_back(monkeypatch, step):
    monkeypatch.setattr(pt, "NONFINITE_ABORT_STREAK", 0)
    run = pt.PretrainRun(make_dataset(), make_config(), REG)
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
        scene.opt.step_count = 0 if over is None else scene.budget + over
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
        old.opt.step_count = old.budget
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
        assert new.data is dataset[new.tuple_index]
        for query, raw in ((False, new.data.mapping), (True, new.data.query)):
            _, raw_emb, raw_coords = bf.sample_batch([raw], 1, cfg.patches_per_scene,
                                                     copy.deepcopy(run.batch_rng))
            [drawn], emb, coords = run._sample([new], 1, query)
            assert drawn is new and np.array_equal(emb, raw_emb)
            assert np.array_equal(coords[0], pt._augment_coords(raw_coords[0], new.aug_rot,
                                                                new.aug_center))
    assert len(budgets) > 1


def test_admit_never_picks_an_active_tuple_while_another_is_free():
    run = pt.PretrainRun(make_dataset(6), make_config(budget_lo=1, budget_hi=3), REG)
    seen = set()
    for _ in range(40):
        assert len({s.tuple_id for s in run.pool}) == len(run.pool)
        seen.update(s.tuple_id for s in run.pool)
        run.pool[0].opt.step_count = run.pool[0].budget
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
        s.opt.step_count = counter
    head = run.params["head/w2"].data.copy()
    assert run.query_iteration() is None
    assert run.log_records[-1] == {"iteration": 0, "event": "query_skipped"}
    assert sampled == [] and np.array_equal(run.params["head/w2"].data, head)

    run.pool[2].opt.step_count = 5
    assert np.isfinite(run.query_iteration())
    assert run.log_records[-1] == {"iteration": 0, "event": "query_shrunk", "scenes_per_batch": 1}
    assert sampled[-1] == ([run.pool[2].data.query], 1)

    run.pool[0].opt.step_count = 9
    n_records = len(run.log_records)
    assert np.isfinite(run.query_iteration())
    assert len(run.log_records) == n_records
    bufs, n_scenes = sampled[-1]
    assert n_scenes == 2
    assert len(bufs) == 2 and bufs[0] is run.pool[0].data.query
    assert bufs[1] is run.pool[2].data.query


def test_admit_never_puts_one_tuple_in_two_slots():
    """With as many tuples as slots, the outgoing slot's own tuple is the only free one."""
    run = pt.PretrainRun(make_dataset(4), make_config(budget_lo=1, budget_hi=3), REG)
    for i in range(40):
        scene = run.pool[i % 4]
        scene.opt.step_count = scene.budget
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
        run.pool[0].opt.step_count = run.pool[0].budget
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


class RenderedTuples(Sequence):
    """Tuple i rendered from (seed, i) at every read, with no cache; logs each read
    as (i, the tuple it returned)."""

    def __init__(self, n_tuples, seed):
        self.n_tuples, self.seed = n_tuples, seed
        self.reads = []

    def __len__(self):
        return self.n_tuples

    def __getitem__(self, index):
        if not 0 <= index < self.n_tuples:
            raise IndexError(index)
        rng = np.random.default_rng([self.seed, index])
        data = pt.TupleData(f"t{index}", make_buffer(rng, f"t{index}"),
                            make_buffer(rng, f"t{index}"))
        self.reads.append((index, data))
        return data


def resumed_state(run: pt.PretrainRun) -> dict:
    """`run_snapshot` without object ids, plus each slot's tuple and augmentation."""
    snapshot = run_snapshot(run)
    snapshot["pool"] = [(s.slot, s.tuple_index, s.tuple_id, s.counter, s.budget,
                         s.aug_rot.tobytes(), s.aug_center.tobytes()) for s in run.pool]
    return snapshot


def test_a_rendered_dataset_is_read_once_per_admission_and_per_loaded_slot(tmp_path,
                                                                           monkeypatch):
    admitted = []
    admit = pt.PretrainRun._admit

    def recording_admit(self, slot):
        admitted.append(admit(self, slot))
        return admitted[-1]

    monkeypatch.setattr(pt.PretrainRun, "_admit", recording_admit)
    cfg = make_config(budget_lo=1, budget_hi=3, head_update_period=3, total_iterations=6)

    def two_cycles(dataset):
        run = pt.PretrainRun(dataset, cfg, REG)
        run.run()
        return run, run.save_state(tmp_path, "s")

    def resumed(dataset, state):
        loaded = pt.PretrainRun(dataset, dataclasses.replace(cfg, seed=4), REG)
        dataset.reads.clear()
        loaded.load_state(*state)
        return loaded

    rendered = RenderedTuples(8, seed=5)
    run, state = two_cycles(rendered)
    assert len(admitted) > cfg.n_active                  # the pool rotated
    assert [i for i, _ in rendered.reads] == [s.tuple_index for s in admitted]
    assert all(s.data is data for s, (_, data) in zip(admitted, rendered.reads))
    loaded = resumed(rendered, state)
    assert [i for i, _ in rendered.reads] == [s.tuple_index for s in run.pool]
    assert all(s.data is data for s, (_, data) in zip(loaded.pool, rendered.reads))

    fresh = RenderedTuples(8, seed=5)
    listed = CountingList(fresh[i] for i in range(len(fresh)))
    assert_same_snapshot(resumed_state(resumed(listed, two_cycles(listed)[1])),
                         resumed_state(loaded))


def test_a_run_split_over_calls_or_resumed_trains_as_one_call(tmp_path):
    """Periods are counted from the iteration: running to k and then on, in one run or
    in a fresh one resumed from a state saved at k, trains, checkpoints and logs past k
    as one call."""
    dataset = make_dataset(6)
    cfg = make_config(total_iterations=20, head_update_period=5, checkpoint_every=2,
                      budget_lo=3, budget_hi=6, log_every=5)

    def checkpoints(out_dir):
        return {path.name: path.read_bytes() for path in sorted(out_dir.glob("*.prm"))}

    def records_after(run, k):
        return [r for r in run.log_records if "event" not in r and r["iteration"] > k]

    whole = pt.PretrainRun(dataset, cfg, REG)
    whole.run(tmp_path / "whole")
    want = resumed_state(whole)
    assert sorted(checkpoints(tmp_path / "whole")) == ["state_00000010.prm",
                                                       "state_00000020.prm"]
    for k in (1, 7, 10, 13):
        split = pt.PretrainRun(dataset, dataclasses.replace(cfg, total_iterations=k), REG)
        split.run(tmp_path / f"split{k}")
        split.cfg = cfg
        split.run(tmp_path / f"split{k}")
        assert_same_snapshot(resumed_state(split), want)
        assert checkpoints(tmp_path / f"split{k}") == checkpoints(tmp_path / "whole")
        np.testing.assert_equal(records_after(split, k), records_after(whole, k))

        first = pt.PretrainRun(dataset, dataclasses.replace(cfg, total_iterations=k), REG)
        first.run(tmp_path / f"resumed{k}")
        state = first.save_state(tmp_path / f"saved{k}", "s")
        resumed = pt.PretrainRun(dataset, cfg, REG)
        resumed.load_state(*state)
        resumed.run(tmp_path / f"resumed{k}")
        assert_same_snapshot(resumed_state(resumed), want)
        assert checkpoints(tmp_path / f"resumed{k}") == checkpoints(tmp_path / "whole")
        np.testing.assert_equal(records_after(resumed, k), records_after(whole, k))


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
    mapping = scene.data.mapping
    y, _ = rg.regress_batch(run.params, reg, Tensor(mapping.embeddings), scene.code.tokens)
    coords = pt._augment_coords(mapping.coords, scene.aug_rot, scene.aug_center)
    error = np.median(np.linalg.norm(y.data - coords, axis=1))
    spread = np.median(np.linalg.norm(coords - coords.mean(axis=0), axis=1))
    assert error < 0.5 * spread
