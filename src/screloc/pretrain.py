"""Alternating mapping/query pre-training over a rotating scene pool.

Each period is `head_update_period` mapping iterations (map codes stepped
every time, regressor head only on the last one) followed by one query
iteration that updates only the regressor against held-out query buffers
of scenes whose codes have matured past the standby threshold. Periods are
counted from the iteration: a run, or a state, that ends mid-period finishes
that period on its next call. A scene's counter is its code's AdamW step
count; at its budget the scene is replaced by a fresh tuple with a new code,
a random budget and a random rigid rotation of its supervision.

Mapping and query iterations and `fit_map_code` make one step, `_step`: the
mean Laplace NLL of every record in one batch (a fit may be passed a trim
for the benchmark, see `fit_map_code`). It trains exactly the tensors its
optimizers own (a mapping step's codes, and the head on the last iteration
of a period; a query step's head; a fit's code), stepping all of those
optimizers or none. Every other tensor enters the graph detached, and no
step writes a `requires_grad` flag. A non-finite loss or a non-finite
gradient of an owned tensor steps nothing and logs an event; more than
`NONFINITE_ABORT_STREAK` in a row abort the run. Every event and record of
iteration i carries i, and a record holds only what iteration i did (see `run`),
so a run split over calls, or resumed from a state, logs what one call logs.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import binio
from . import buffers as bf
from . import regressor as rg
from .autodiff import AdamW, Tensor
from .geometry import ROTATION_BOUNDS, PoseSE3, random_rotation


@dataclass
class TupleData:
    """One mapping/query pre-training tuple: its id and its two patch buffers."""

    tuple_id: str
    mapping: bf.PretrainBuffer
    query: bf.PretrainBuffer


@dataclass
class PretrainConfig:
    n_active: int = 16
    scenes_per_batch: int = 8
    patches_per_scene: int = 128
    n_qstandby: int = 150
    budget_lo: int = 300
    budget_hi: int = 500
    head_update_period: int = 10
    total_iterations: int = 20_000
    n_code_tokens: int = 64
    lr_codes: float = 1e-3
    lr_head: float = 1e-3
    enable_query: bool = True
    seed: int = 0
    log_every: int = 250
    checkpoint_every: int = 0          # periods between state snapshots; 0 = none

    def __post_init__(self):
        for name, least in (("n_active", 1), ("scenes_per_batch", 1), ("patches_per_scene", 1),
                            ("n_qstandby", 0), ("budget_lo", 1), ("head_update_period", 1),
                            ("total_iterations", 0), ("n_code_tokens", 1), ("log_every", 1),
                            ("checkpoint_every", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if not self.budget_lo <= self.budget_hi:
            raise ValueError("budget_lo must be <= budget_hi")
        if self.enable_query and self.n_qstandby >= self.budget_hi:
            # rotate_pool replaces a scene at its budget, before any query iteration sees it
            raise ValueError(f"n_qstandby {self.n_qstandby} >= budget_hi {self.budget_hi}: "
                             "no scene would ever be eligible for a query iteration")


NONFINITE_ABORT_STREAK = 10  # non-finite steps in a row a run takes before it aborts

STATE_MAGIC = b"ACEGPRM5"  # a run state's `.prm`, one record per number of the run

# the config fields that steer training after a resume: a state loads only under equal values
RESUME_FIELDS = ("n_active", "scenes_per_batch", "patches_per_scene", "n_qstandby", "budget_lo",
                 "budget_hi", "head_update_period", "n_code_tokens", "lr_codes", "lr_head",
                 "enable_query")


@dataclass
class ActiveScene:
    slot: int
    tuple_index: int
    code: rg.MapCode
    opt: AdamW
    budget: int
    data: TupleData
    aug_rot: np.ndarray
    aug_center: np.ndarray

    @property
    def tuple_id(self) -> str:
        return self.data.tuple_id

    @property
    def counter(self) -> int:
        """Mapping steps this scene's code has taken: its AdamW step count."""
        return self.opt.step_count

    def eligible(self, n_qstandby: int) -> bool:
        return self.counter >= n_qstandby


def _augment_coords(coords: np.ndarray, rot: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Rotate coords (P, 3) by rot (3, 3) about center (3,), or stacked coords (S, P, 3)
    each by its own rot (S, 3, 3) about its center (S, 3); row by row the same bits."""
    center = center[..., None, :]
    return ((coords.astype(np.float64) - center) @ np.swapaxes(rot, -1, -2)
            + center).astype(np.float32)


_SECOND_MOMENT = re.compile(r"(opt_head/|slot\d+/opt_)v\d+")


def _bounds(name: str, arr: np.ndarray) -> tuple:
    """(lo, hi) of a run-state record for `PretrainRun.load_state`: `ROTATION_BOUNDS` for
    the augmentation rotations, budgets >= 1, integers and AdamW second moments >= 0."""
    if name == "pool/aug_rot":
        return ROTATION_BOUNDS
    if name == "pool/budget":
        return 1, None
    return (0 if arr.dtype.kind == "i" or _SECOND_MOMENT.fullmatch(name) else None), None


def _with_prefix(named: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {k[len(prefix):]: v for k, v in named.items() if k.startswith(prefix)}


def trimmed_mean(nll: Tensor, trim_fraction: float) -> Tensor:
    """Mean of the lowest trim_fraction of per-record losses; at 1.0 the mean of
    them all, which training minimizes. The fraction is an argument only
    because the benchmark's fits pass 0.3."""
    flat = ad.reshape(nll, (int(np.prod(nll.shape)),))
    k = max(1, int(trim_fraction * flat.shape[0]))
    keep = np.argsort(flat.data, kind="stable")[:k]
    return ad.tmean(flat[keep])


def _step(opts: list[AdamW], params: dict[str, Tensor], reg_cfg: rg.RegressorConfig,
          emb: np.ndarray, coords: np.ndarray, codes: list[Tensor],
          trim_fraction: float = 1.0) -> tuple[float, str | None]:
    """Descend the mean NLL (of the lowest `trim_fraction`, which only a fit
    passes) of a batch of S scenes, emb (S, P, d) and coords (S, P, 3) with
    codes[s] the code of scene s, training exactly the tensors the optimizers
    in `opts` own; every other parameter and code enters the graph through
    `.detach()`.

    Steps all of `opts` or none: returns (loss, None) after the step, or (loss,
    "loss" or "gradient") when a non-finite loss, or a non-finite gradient of
    an owned tensor, stepped nothing. Owned gradients are cleared either way.
    """
    owned = [t for opt in opts for t in opt.tensors]
    ids = {id(t) for t in owned}

    def tracked(t: Tensor) -> Tensor:
        return t if id(t) in ids else t.detach()

    y, sigma = rg.regress_batch({name: tracked(t) for name, t in params.items()}, reg_cfg,
                                Tensor(emb), ad.stack([tracked(c) for c in codes]))
    loss = trimmed_mean(rg.laplace_nll_batch(y, sigma, Tensor(coords)), trim_fraction)
    value = float(loss.data)
    for t in owned:
        t.grad = None
    if not np.isfinite(value):
        return value, "loss"
    ad.backward(loss)
    finite = all(t.grad is None or np.isfinite(t.grad).all() for t in owned)
    if finite:
        for opt in opts:
            opt.step()
    for t in owned:
        t.grad = None
    return value, None if finite else "gradient"


class PretrainRun:
    """Owns the regressor parameters, optimizer, and active scene pool."""

    def __init__(self, dataset: list[TupleData], cfg: PretrainConfig,
                 reg_cfg: rg.RegressorConfig):
        if len(dataset) < cfg.n_active:
            raise ValueError(f"dataset has {len(dataset)} tuples < n_active={cfg.n_active}")
        self.dataset = dataset
        self.cfg = cfg
        self.reg_cfg = reg_cfg
        ss = np.random.SeedSequence(cfg.seed)
        pool_ss, batch_ss, init_ss = ss.spawn(3)
        self.pool_rng = np.random.default_rng(pool_ss)
        self.batch_rng = np.random.default_rng(batch_ss)
        init_seed = int(init_ss.generate_state(1)[0])
        self.params = rg.init_regressor(reg_cfg, init_seed)
        self.head_opt = AdamW(self.params.values(), lr=cfg.lr_head)
        self.pool: list[ActiveScene] = []
        for slot in range(cfg.n_active):
            self.pool.append(self._admit(slot))
        self.iteration = 0
        self.log_records: list[dict] = []
        self._nonfinite_streak = 0

    # -- pool management ---------------------------------------------------

    def _admit(self, slot: int) -> ActiveScene:
        """A fresh entry for `slot`: a tuple no slot holds, or, when every tuple is
        held, the outgoing slot's own tuple, so no tuple ever fills two slots."""
        held = {s.tuple_index for s in self.pool}
        candidates = [i for i in range(len(self.dataset)) if i not in held]
        if not candidates:
            others = {s.tuple_index for s in self.pool if s.slot != slot}
            candidates = [i for i in range(len(self.dataset)) if i not in others]
        tuple_index = candidates[int(self.pool_rng.integers(0, len(candidates)))]
        data = self.dataset[tuple_index]
        rot = random_rotation(self.pool_rng)
        code_seed = int(self.pool_rng.integers(0, 2**31))
        budget = int(self.pool_rng.integers(self.cfg.budget_lo, self.cfg.budget_hi + 1))
        code = rg.init_map_code(self.cfg.n_code_tokens, self.reg_cfg.d_map, code_seed,
                                scene_id=data.tuple_id)
        return self._activate(slot, tuple_index, data, code, budget, rot)

    def _activate(self, slot: int, tuple_index: int, data: TupleData, code: rg.MapCode,
                  budget: int, rot: np.ndarray) -> ActiveScene:
        """Pool entry holding `data`, read from dataset[tuple_index], with a new code
        AdamW, rotated by `rot` about the mean of its mapping coordinates."""
        center = data.mapping.coords.astype(np.float64).mean(axis=0)
        return ActiveScene(
            slot=slot, tuple_index=tuple_index, code=code,
            opt=AdamW([code.tokens], lr=self.cfg.lr_codes), budget=budget,
            data=data, aug_rot=rot, aug_center=center)

    def rotate_pool(self) -> list[str]:
        """Replace every scene whose code consumed its iteration budget."""
        replaced = []
        for slot, scene in enumerate(self.pool):
            if scene.counter >= scene.budget:
                replaced.append(scene.tuple_id)
                self.pool[slot] = self._admit(slot)
        return replaced

    # -- iterations ----------------------------------------------------------

    def _sample(self, scenes: list[ActiveScene], n_scenes: int, query: bool):
        """(drawn scenes, emb, coords): `bf.sample_batch` over the scenes' mapping or query
        buffers, then each drawn scene's coords rotated by its own augmentation."""
        chosen, emb, coords = bf.sample_batch(
            [s.data.query if query else s.data.mapping for s in scenes], n_scenes,
            self.cfg.patches_per_scene, self.batch_rng)
        drawn = [scenes[i] for i in chosen]
        return drawn, emb, _augment_coords(coords, np.stack([s.aug_rot for s in drawn]),
                                           np.stack([s.aug_center for s in drawn]))

    def _iterate(self, scenes: list[ActiveScene], query: bool, update_head: bool) -> float:
        """Step the head if `update_head`, and for a mapping step the drawn codes, on a
        batch of `scenes`; a non-finite step logs an event."""
        drawn, emb, coords = self._sample(scenes, min(self.cfg.scenes_per_batch, len(scenes)),
                                          query)
        opts = ([] if query else [s.opt for s in drawn]) + ([self.head_opt] if update_head else [])
        loss, failed = _step(opts, self.params, self.reg_cfg, emb, coords,
                             [s.code.tokens for s in drawn])
        self._nonfinite_streak = self._nonfinite_streak + 1 if failed else 0
        if failed:
            ids = [s.tuple_id for s in drawn]
            self.log_records.append({"iteration": self.iteration, "reason": failed, "scenes": ids,
                                     "event": "nonfinite_query" if query else "nonfinite"})
            if self._nonfinite_streak > NONFINITE_ABORT_STREAK:
                raise FloatingPointError(f"non-finite {failed} streak; last scenes {ids}")
            return math.nan
        return loss

    def mapping_iteration(self, update_head: bool) -> float:
        """Step the sampled codes, and the head if `update_head`; returns the loss,
        or NaN when a non-finite loss or gradient stepped nothing."""
        return self._iterate(self.pool, False, update_head)

    def query_iteration(self) -> float | None:
        """Head-only step on the query buffers of scenes past standby; returns the loss, NaN
        when a non-finite loss or gradient stepped nothing, or None when no scene is past it."""
        eligible = [s for s in self.pool if s.eligible(self.cfg.n_qstandby)]
        if not eligible:
            self.log_records.append({"iteration": self.iteration, "event": "query_skipped"})
            return None
        if len(eligible) < self.cfg.scenes_per_batch:
            self.log_records.append({"iteration": self.iteration, "event": "query_shrunk",
                                     "scenes_per_batch": len(eligible)})
        return self._iterate(eligible, True, True)

    # -- main loop -------------------------------------------------------------

    def run(self, out_dir: Path | None = None) -> None:
        """Iterate up to `total_iterations`. Iteration i (from 1) steps the head and ends a
        period when `head_update_period` divides i; the period's query iteration follows, and
        every `checkpoint_every` periods a state in `out_dir`. A cut period ends next call.
        Every `log_every` iterations, and at the last, logs `{iteration, eligible, map_nll,
        query_nll}`, each loss there only when iteration i ran that step and it stepped."""
        cfg = self.cfg
        while self.iteration < cfg.total_iterations:
            self.iteration += 1
            period_ends = self.iteration % cfg.head_update_period == 0
            map_nll = self.mapping_iteration(period_ends)
            self.rotate_pool()
            query_nll = self.query_iteration() if period_ends and cfg.enable_query else None
            if self.iteration % cfg.log_every == 0 or self.iteration == cfg.total_iterations:
                record = {"iteration": self.iteration,
                          "eligible": sum(s.eligible(cfg.n_qstandby) for s in self.pool),
                          "map_nll": map_nll, "query_nll": query_nll}
                self.log_records.append({key: value for key, value in record.items()
                                         if value is not None and not math.isnan(value)})
            if period_ends and out_dir and cfg.checkpoint_every and (
                    self.iteration // cfg.head_update_period % cfg.checkpoint_every == 0):
                self.save_state(Path(out_dir), f"state_{self.iteration:08d}")

    # -- run-state checkpointing -------------------------------------------------

    def _records(self) -> dict[str, np.ndarray]:
        """Every number of the live run under its `.prm` record name, in file order:
        the parameters, the head optimizer, each slot's code and optimizer, the
        iteration, the non-finite streak, then the pool table with one row per slot."""
        named = {f"param/{name}": t.data for name, t in self.params.items()}
        named.update((f"opt_head/{key}", arr) for key, arr in self.head_opt.state_arrays().items())
        for scene in self.pool:
            prefix = f"slot{scene.slot}"
            named[f"{prefix}/code"] = scene.code.tokens.data
            named.update((f"{prefix}/opt_{key}", arr)
                         for key, arr in scene.opt.state_arrays().items())
        named["iteration"] = np.array([self.iteration], dtype=np.int64)
        named["nonfinite_streak"] = np.array([self._nonfinite_streak], dtype=np.int64)
        for field in ("tuple_index", "budget"):
            named[f"pool/{field}"] = np.array([getattr(s, field) for s in self.pool], np.int64)
        named["pool/aug_rot"] = np.stack([s.aug_rot for s in self.pool])
        return named

    def _config(self) -> dict:
        """A state's config, saved and compared on load: `RESUME_FIELDS` and the regressor's."""
        return {**{name: getattr(self.cfg, name) for name in RESUME_FIELDS}, **asdict(self.reg_cfg)}

    def save_state(self, out_dir: Path, tag: str) -> tuple[Path, Path]:
        """Write `{tag}.prm` and `{tag}.json`, each first under a temporary name
        and then moved into place, so neither is ever seen half written."""
        out_dir.mkdir(parents=True, exist_ok=True)
        state = {
            "config": self._config(),
            "tuple_ids": [s.tuple_id for s in self.pool],
            "rng_pool": self.pool_rng.bit_generator.state,
            "rng_batch": self.batch_rng.bit_generator.state,
        }
        prm_path, json_path, tmp = (out_dir / f"{tag}{ext}" for ext in (".prm", ".json", ".tmp"))
        binio.save_records(tmp, STATE_MAGIC, self._records())
        os.replace(tmp, prm_path)
        tmp.write_text(json.dumps(state, indent=1))
        os.replace(tmp, json_path)
        return prm_path, json_path

    def load_state(self, prm_path: Path, json_path: Path) -> None:
        """Restore a state written by `save_state`, all or nothing.

        Before anything changes, the state's one `config` object is compared
        with this run's `_config()`, and `binio.check_records` checks each
        `.prm` record against the live run's record of that name: its shape and
        dtype (so a pool of another size does not load), finite floats, and the
        bounds `_bounds` states; each augmentation rotation must also pass
        `PoseSE3`. Each slot's tuple must have the same id in this dataset as in
        the state's `tuple_ids`, and fill no other slot; its augmentation centre
        is recomputed from the tuple, as on admission. A JSON of another structure,
        a missing or differing field, or a failing record or tuple raises
        ValueError and leaves the run as it was; JSON keys and records it does not
        read are ignored.
        """
        named = binio.load_records(prm_path, STATE_MAGIC)
        state = json.loads(Path(json_path).read_text())
        saved = state.get("config", {}) if isinstance(state, dict) else None
        if not isinstance(saved, dict):
            raise ValueError("state is not a JSON object with an object config")
        differ = [f"{name} {saved.get(name)!r} (this run: {value!r})"
                  for name, value in self._config().items() if saved.get(name) != value]
        if differ:
            raise ValueError(f"state written under another config: {', '.join(differ)}")
        try:  # every field is read here, so a missing one changes nothing
            tuple_ids, rng_states = state["tuple_ids"], (state["rng_pool"], state["rng_batch"])
        except KeyError as exc:
            raise ValueError(f"state lacks the field {exc}") from None
        binio.check_records(named, [(name, arr.dtype, arr.shape, *_bounds(name, arr))
                                    for name, arr in self._records().items()])
        for slot, rot in enumerate(named["pool/aug_rot"]):
            try:
                PoseSE3(rot, np.zeros(3))
            except ValueError as exc:
                raise ValueError(f"slot {slot}: aug_rot: {exc}") from None
        indices = named["pool/tuple_index"].tolist()
        items = [self.dataset[i] for i in indices if i < len(self.dataset)]  # each read once
        found = [data.tuple_id for data in items]
        if found != tuple_ids:
            raise ValueError(f"slot tuples {indices} are {found} in this dataset, "
                             f"but {tuple_ids!r} in the state")
        twice = [slot for slot, index in enumerate(indices) if index in indices[:slot]]
        if twice:  # _admit never puts one tuple in two slots
            raise ValueError(f"tuple {found[twice[0]]!r} fills more than one slot: {indices}")

        rngs = [copy.deepcopy(rng) for rng in (self.pool_rng, self.batch_rng)]
        try:
            for rng, rng_state in zip(rngs, rng_states):
                rng.bit_generator.state = rng_state
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise ValueError(f"state holds a bad generator state: {exc!r}") from None
        head_opt = AdamW(self.params.values(), lr=self.cfg.lr_head)
        head_opt.load_state_arrays(_with_prefix(named, "opt_head/"))
        pool = []
        for slot, (index, data, budget, rot) in enumerate(zip(
                indices, items, named["pool/budget"].tolist(), named["pool/aug_rot"])):
            code = rg.MapCode(Tensor(named[f"slot{slot}/code"], requires_grad=True),
                              scene_id=data.tuple_id)
            scene = self._activate(slot, index, data, code, budget, rot)
            scene.opt.load_state_arrays(_with_prefix(named, f"slot{slot}/opt_"))
            pool.append(scene)

        for name, t in self.params.items():
            t.data = named[f"param/{name}"]
            t.grad = None
        self.head_opt, self.pool, self.iteration = head_opt, pool, int(named["iteration"][0])
        self._nonfinite_streak = int(named["nonfinite_streak"][0])
        self.pool_rng, self.batch_rng = rngs


def fit_map_code(params: dict[str, Tensor], reg_cfg: rg.RegressorConfig, buf: bf.PretrainBuffer,
                 n_tokens: int, iterations: int, batch_size: int, lr: float, seed: int,
                 trim_fraction: float = 1.0) -> rg.MapCode:
    """Fit a fresh map code to one scene's 3D-supervised buffer, regressor frozen.

    Used to evaluate held-out tuples with the same supervision pre-training
    uses; the package has no reprojection-supervised mapping yet. Each
    iteration is one `_step` of the code's AdamW, with the batch as one
    scene: an iteration whose loss or code gradient is non-finite steps
    nothing and the fit goes on. Like pre-training it minimizes the mean NLL;
    `trim_fraction` is kept for the benchmark's fits, which keep the lowest 0.3.
    """
    if batch_size < 1 or iterations < 0:
        raise ValueError(f"batch_size must be >= 1 and iterations >= 0, "
                         f"got {batch_size} and {iterations}")
    if not 0.0 < trim_fraction <= 1.0:
        raise ValueError("trim_fraction must be in (0, 1]")
    ss = np.random.SeedSequence(seed)
    init_ss, batch_ss = ss.spawn(2)
    code = rg.init_map_code(n_tokens, reg_cfg.d_map, int(init_ss.generate_state(1)[0]),
                            scene_id=buf.scene_id)
    opt = AdamW([code.tokens], lr=lr)
    rng = np.random.default_rng(batch_ss)
    for _ in range(iterations):
        _, emb, coords = bf.sample_batch([buf], 1, batch_size, rng)
        _step([opt], params, reg_cfg, emb, coords, [code.tokens], trim_fraction)
    return code
