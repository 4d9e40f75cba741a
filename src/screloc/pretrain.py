"""Alternating mapping/query pre-training over a rotating scene pool.

Each cycle runs `head_update_period` mapping iterations (map codes stepped
every time, regressor head only on the last one) followed by one query
iteration that updates only the regressor against held-out query buffers
of scenes whose codes have matured past the standby threshold. Exhausted
scenes are replaced by freshly sampled tuples with re-initialized codes,
randomized budgets, and a random rigid rotation of their supervision.

Mapping and query iterations and `fit_map_code` make one step, `_step`: the
mean Laplace NLL of every record in one batch (a fit may be passed a trim
for the benchmark, see `fit_map_code`). It trains exactly the tensors its
optimizers own (a mapping step's codes, and the head on the last iteration
of a period; a query step's head; a fit's code), stepping all of those
optimizers or none. Every other tensor enters the graph detached, and no
step writes a `requires_grad` flag. A non-finite loss or a non-finite
gradient of an owned tensor steps nothing.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import buffers as bf
from . import regressor as rg
from .autodiff import AdamW, Tensor
from .geometry import random_rotation


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
    checkpoint_every: int = 0          # cycles between state snapshots; 0 = none
    nonfinite_abort_streak: int = 10

    def __post_init__(self):
        if not self.budget_lo <= self.budget_hi:
            raise ValueError("budget_lo must be <= budget_hi")
        if self.head_update_period < 1:
            raise ValueError("head_update_period must be >= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.nonfinite_abort_streak < 0:
            raise ValueError("nonfinite_abort_streak must be >= 0")


# the config fields that steer training after a resume: a state loads only under equal values
RESUME_FIELDS = ("n_active", "scenes_per_batch", "patches_per_scene", "n_qstandby", "budget_lo",
                 "budget_hi", "head_update_period", "n_code_tokens", "lr_codes", "lr_head",
                 "enable_query")


@dataclass
class ActiveScene:
    slot: int
    tuple_index: int
    tuple_id: str
    code: rg.MapCode
    opt: AdamW
    counter: int
    budget: int
    m_buf: bf.PretrainBuffer
    q_buf: bf.PretrainBuffer
    aug_rot: np.ndarray
    aug_center: np.ndarray

    def eligible(self, n_qstandby: int) -> bool:
        return self.counter >= n_qstandby


def _augment_coords(coords: np.ndarray, rot: np.ndarray, center: np.ndarray) -> np.ndarray:
    return ((coords.astype(np.float64) - center) @ rot.T + center).astype(np.float32)


def _augmented_buffer(buf: bf.PretrainBuffer, rot, center) -> bf.PretrainBuffer:
    return bf.PretrainBuffer(buf.embeddings, _augment_coords(buf.coords, rot, center),
                             buf.scene_id, buf.seed)


def _with_prefix(named: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {k[len(prefix):]: v for k, v in named.items() if k.startswith(prefix)}


def trimmed_mean(nll: Tensor, trim_fraction: float) -> Tensor:
    """Mean of the lowest trim_fraction of per-record losses; at 1.0 the mean of
    them all, which training minimizes. The fraction is an argument only
    because the benchmark's fits pass 0.3."""
    flat = ad.reshape(nll, (int(np.prod(nll.shape)),))
    k = max(1, int(trim_fraction * flat.shape[0]))
    keep = np.argsort(flat.data, kind="stable")[:k]
    return ad.tmean(ad.take(flat, keep))


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
                 reg_cfg: rg.RegressorConfig, params: dict[str, Tensor] | None = None):
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
        self.params = params if params is not None else rg.init_regressor(reg_cfg, init_seed)
        self.head_opt = AdamW(self.params.values(), lr=cfg.lr_head)
        self.pool: list[ActiveScene] = []
        for slot in range(cfg.n_active):
            self.pool.append(self._admit(slot))
        self.iteration = 0
        self.log_records: list[dict] = []
        self._nonfinite_streak = 0
        self._last_map_nll = float("nan")
        self._last_query_nll = float("nan")

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
        center = data.mapping.coords.astype(np.float64).mean(axis=0)
        code = rg.init_map_code(self.cfg.n_code_tokens, self.reg_cfg.d_map, code_seed,
                                scene_id=data.tuple_id)
        return self._activate(slot, tuple_index, data, code, 0, budget, rot, center)

    def _activate(self, slot: int, tuple_index: int, data: TupleData, code: rg.MapCode,
                  counter: int, budget: int, rot: np.ndarray, center: np.ndarray) -> ActiveScene:
        """Pool entry for `data`, read from dataset[tuple_index]: new code AdamW,
        both buffers augmented."""
        return ActiveScene(
            slot=slot, tuple_index=tuple_index, tuple_id=data.tuple_id, code=code,
            opt=AdamW([code.tokens], lr=self.cfg.lr_codes), counter=counter, budget=budget,
            m_buf=_augmented_buffer(data.mapping, rot, center),
            q_buf=_augmented_buffer(data.query, rot, center),
            aug_rot=rot, aug_center=center)

    def rotate_pool(self) -> list[str]:
        """Replace every scene whose code consumed its iteration budget."""
        replaced = []
        for slot, scene in enumerate(self.pool):
            if scene.counter >= scene.budget:
                replaced.append(scene.tuple_id)
                self.pool[slot] = self._admit(slot)
        return replaced

    # -- iterations ----------------------------------------------------------

    def mapping_iteration(self, update_head: bool) -> float:
        """Step the sampled codes, and the head if `update_head`; returns the loss,
        or NaN when a non-finite loss or gradient stepped nothing."""
        chosen, emb, coords = bf.sample_batch(
            [scene.m_buf for scene in self.pool], min(self.cfg.scenes_per_batch, len(self.pool)),
            self.cfg.patches_per_scene, self.batch_rng)
        scenes = [self.pool[i] for i in chosen]
        opts = [scene.opt for scene in scenes] + ([self.head_opt] if update_head else [])
        loss, failed = _step(opts, self.params, self.reg_cfg, emb, coords,
                             [s.code.tokens for s in scenes])
        if failed:
            self._skip_nonfinite("nonfinite", failed, [s.tuple_id for s in scenes])
            return math.nan
        self._nonfinite_streak = 0
        for scene in scenes:
            scene.counter += 1
        self._last_map_nll = loss
        return self._last_map_nll

    def query_iteration(self) -> float | None:
        """Regressor-only update from query buffers of mature scenes; returns the
        loss, NaN when a non-finite loss or gradient stepped nothing, or None
        when no scene is eligible."""
        eligible = [s for s in self.pool if s.eligible(self.cfg.n_qstandby)]
        if not eligible:
            self.log_records.append({"iteration": self.iteration, "event": "query_skipped"})
            return None
        n_scenes = min(self.cfg.scenes_per_batch, len(eligible))
        if n_scenes < self.cfg.scenes_per_batch:
            self.log_records.append({"iteration": self.iteration, "event": "query_shrunk",
                                     "scenes_per_batch": n_scenes})
        chosen, emb, coords = bf.sample_batch([s.q_buf for s in eligible], n_scenes,
                                              self.cfg.patches_per_scene, self.batch_rng)
        scenes = [eligible[i] for i in chosen]
        loss, failed = _step([self.head_opt], self.params, self.reg_cfg, emb, coords,
                             [s.code.tokens for s in scenes])
        if failed:
            self._skip_nonfinite("nonfinite_query", failed, [s.tuple_id for s in scenes])
            return math.nan
        self._nonfinite_streak = 0
        self._last_query_nll = loss
        return self._last_query_nll

    def _skip_nonfinite(self, event: str, reason: str, scenes: list[str]) -> None:
        """Log an iteration whose non-finite loss or gradient stepped nothing; raise
        FloatingPointError once more than `nonfinite_abort_streak` come in a row."""
        self._nonfinite_streak += 1
        self.log_records.append({"iteration": self.iteration, "event": event,
                                 "reason": reason, "scenes": scenes})
        if self._nonfinite_streak > self.cfg.nonfinite_abort_streak:
            raise FloatingPointError(f"non-finite {reason} streak; last scenes {scenes}")

    # -- main loop -------------------------------------------------------------

    def run(self, out_dir: Path | None = None) -> dict[str, Tensor]:
        cfg = self.cfg
        cycle = 0
        while self.iteration < cfg.total_iterations:
            for j in range(cfg.head_update_period):
                if self.iteration >= cfg.total_iterations:
                    break
                update_head = j == cfg.head_update_period - 1
                self.mapping_iteration(update_head)
                self.iteration += 1
                self.rotate_pool()
                if self.iteration % cfg.log_every == 0 or self.iteration == cfg.total_iterations:
                    self._log()
            if cfg.enable_query:
                self.query_iteration()
            cycle += 1
            if out_dir and cfg.checkpoint_every and cycle % cfg.checkpoint_every == 0:
                self.save_state(Path(out_dir), f"state_{self.iteration:08d}")
        return self.params

    def _log(self) -> None:
        eligible = sum(1 for s in self.pool if s.eligible(self.cfg.n_qstandby))
        self.log_records.append({"iteration": self.iteration, "map_nll": self._last_map_nll,
                                 "query_nll": self._last_query_nll, "eligible": eligible,
                                 "lr": self.cfg.lr_head})

    # -- run-state checkpointing -------------------------------------------------

    def _records(self) -> dict[str, np.ndarray]:
        """Every array of the live run under its `.prm` record name, in file order:
        the parameters, the head optimizer, then each slot's code and optimizer."""
        named = {f"param/{name}": t.data for name, t in self.params.items()}
        named.update((f"opt_head/{key}", arr) for key, arr in self.head_opt.state_arrays().items())
        for scene in self.pool:
            prefix = f"slot{scene.slot}"
            named[f"{prefix}/code"] = scene.code.tokens.data
            named.update((f"{prefix}/opt_{key}", arr)
                         for key, arr in scene.opt.state_arrays().items())
        return named

    def save_state(self, out_dir: Path, tag: str) -> tuple[Path, Path]:
        """Write `{tag}.prm` and `{tag}.json`, each first under a temporary name
        and then moved into place, so neither is ever seen half written."""
        out_dir.mkdir(parents=True, exist_ok=True)
        slots = [{
            "slot": s.slot, "tuple_index": s.tuple_index, "tuple_id": s.tuple_id,
            "counter": s.counter, "budget": s.budget,
            "aug_rot": s.aug_rot.ravel().tolist(), "aug_center": s.aug_center.tolist(),
        } for s in self.pool]
        state = {
            "iteration": self.iteration,
            "config": {name: getattr(self.cfg, name) for name in RESUME_FIELDS},
            "regressor": asdict(self.reg_cfg),
            "slots": slots,
            "rng_pool": self.pool_rng.bit_generator.state,
            "rng_batch": self.batch_rng.bit_generator.state,
        }
        prm_path, json_path, tmp = (out_dir / f"{tag}{ext}" for ext in (".prm", ".json", ".tmp"))
        ad.save_params(tmp, self._records())
        os.replace(tmp, prm_path)
        tmp.write_text(json.dumps(state, indent=1))
        os.replace(tmp, json_path)
        return prm_path, json_path

    def load_state(self, prm_path: Path, json_path: Path) -> None:
        """Restore a state written by `save_state`, all or nothing.

        Before anything changes, the state's `RESUME_FIELDS` and regressor
        config are compared with this run's, and every record is checked
        against the live shapes: the parameters, the head optimizer's step and
        moments, and each slot's code and optimizer. A missing or differing
        field, a missing or mis-shaped record, a pool of another size, or a
        slot whose tuple differs in this dataset raises ValueError and leaves
        the run as it was. Slot keys it does not read are ignored.
        """
        named = ad.load_params(prm_path)
        state = json.loads(Path(json_path).read_text())
        live = {**{name: getattr(self.cfg, name) for name in RESUME_FIELDS}, **asdict(self.reg_cfg)}
        saved = {**state.get("config", {}), **state.get("regressor", {})}
        differ = [f"{name} {saved.get(name)!r} (this run: {value!r})"
                  for name, value in live.items() if saved.get(name) != value]
        if differ:
            raise ValueError(f"state written under another config: {', '.join(differ)}")
        slots = state["slots"]
        if [info["slot"] for info in slots] != list(range(self.cfg.n_active)):
            raise ValueError(f"state holds slots {[info['slot'] for info in slots]}, "
                             f"expected 0..{self.cfg.n_active - 1}")
        items = []  # each slot's tuple, read once for the check and the buffers
        for info in slots:
            index = info["tuple_index"]
            data = self.dataset[index] if 0 <= index < len(self.dataset) else None
            found = data.tuple_id if data else None
            if found != info["tuple_id"]:
                raise ValueError(f"slot {info['slot']}: tuple {index} is {found!r} "
                                 f"in this dataset, but {info['tuple_id']!r} in the state")
            items.append(data)
        expected = {name: arr.shape for name, arr in self._records().items()}
        missing = [name for name in expected if name not in named]
        misshaped = [name for name in expected
                     if name in named and named[name].shape != expected[name]]
        if missing or misshaped:
            raise ValueError(f"state records missing: {missing}; in another shape: {misshaped}")

        rngs = []
        for rng, key in ((self.pool_rng, "rng_pool"), (self.batch_rng, "rng_batch")):
            rngs.append(copy.deepcopy(rng))
            rngs[-1].bit_generator.state = state[key]
        head_opt = AdamW(self.params.values(), lr=self.cfg.lr_head)
        head_opt.load_state_arrays(_with_prefix(named, "opt_head/"))
        pool = []
        for info, data in zip(slots, items):
            prefix = f"slot{info['slot']}"
            code = rg.MapCode(Tensor(named[f"{prefix}/code"], requires_grad=True),
                              scene_id=info["tuple_id"])
            scene = self._activate(
                info["slot"], info["tuple_index"], data, code, info["counter"], info["budget"],
                np.array(info["aug_rot"], dtype=np.float64).reshape(3, 3),
                np.array(info["aug_center"], dtype=np.float64))
            scene.opt.load_state_arrays(_with_prefix(named, f"{prefix}/opt_"))
            pool.append(scene)

        for name, t in self.params.items():
            t.data = np.asarray(named[f"param/{name}"], dtype=t.dtype)
            t.grad = None
        self.head_opt, self.pool = head_opt, pool
        self.iteration = state["iteration"]
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
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0.0 < trim_fraction <= 1.0:
        raise ValueError("trim_fraction must be in (0, 1]")
    ss = np.random.SeedSequence(seed)
    init_ss, batch_ss = ss.spawn(2)
    code = rg.init_map_code(n_tokens, reg_cfg.d_map, int(init_ss.generate_state(1)[0]),
                            scene_id=buf.scene_id)
    opt = AdamW([code.tokens], lr=lr)
    rng = np.random.default_rng(batch_ss)
    for _ in range(iterations):
        idx = rng.integers(0, len(buf), size=batch_size)
        _step([opt], params, reg_cfg, buf.embeddings[idx][None], buf.coords[idx][None],
              [code.tokens], trim_fraction)
    return code
