"""Alternating mapping/query pre-training over a rotating scene pool.

Each cycle runs `head_update_period` mapping iterations (map codes stepped
every time, regressor head only on the last one) followed by one query
iteration that updates only the regressor against held-out query buffers
of scenes whose codes have matured past the standby threshold. Exhausted
scenes are replaced by freshly sampled tuples with re-initialized codes,
randomized budgets, and a random rigid rotation of their supervision.

Mapping and query iterations and `fit_map_code` make the same step: a
trimmed-mean Laplace NLL over one batch (`_batch_loss`), then `_descend`,
which steps every optimizer it is given or none of them. A non-finite
loss or a non-finite gradient of any tensor those optimizers own steps
nothing. The shared parameters' `requires_grad` flags are set only for
the step (`_shared_requires_grad`); each gets its own flag back after it.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
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
    trim_fraction: float = 0.3
    total_iterations: int = 20_000
    n_code_tokens: int = 64
    lr_codes: float = 1e-3
    lr_head: float = 1e-3
    enable_query: bool = True
    mirror_augment: bool = False
    seed: int = 0
    log_every: int = 250
    checkpoint_every: int = 0          # cycles between state snapshots; 0 = none
    nonfinite_abort_streak: int = 10

    def __post_init__(self):
        if not self.budget_lo <= self.budget_hi:
            raise ValueError("budget_lo must be <= budget_hi")
        if not 0.0 < self.trim_fraction <= 1.0:
            raise ValueError("trim_fraction must be in (0, 1]")
        if self.head_update_period < 1:
            raise ValueError("head_update_period must be >= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.nonfinite_abort_streak < 0:
            raise ValueError("nonfinite_abort_streak must be >= 0")


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
    aug_mirror: bool
    aug_center: np.ndarray

    def eligible(self, n_qstandby: int) -> bool:
        return self.counter >= n_qstandby


def _augment_coords(coords: np.ndarray, rot: np.ndarray, mirror: bool,
                    center: np.ndarray) -> np.ndarray:
    out = (coords.astype(np.float64) - center) @ rot.T + center
    if mirror:
        out[:, 0] = 2.0 * center[0] - out[:, 0]
    return out.astype(np.float32)


def _augmented_buffer(buf: bf.PretrainBuffer, rot, mirror, center) -> bf.PretrainBuffer:
    return bf.PretrainBuffer(buf.embeddings, _augment_coords(buf.coords, rot, mirror, center),
                             buf.scene_id, buf.role, buf.seed)


def _with_prefix(named: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {k[len(prefix):]: v for k, v in named.items() if k.startswith(prefix)}


def trimmed_mean(nll: Tensor, trim_fraction: float) -> Tensor:
    """Mean of the lowest trim_fraction of per-record losses."""
    flat = ad.reshape(nll, (int(np.prod(nll.shape)),))
    k = max(1, int(trim_fraction * flat.shape[0]))
    keep = np.argsort(flat.data, kind="stable")[:k]
    return ad.tmean(ad.take(flat, keep))


def _batch_loss(params: dict[str, Tensor], reg_cfg: rg.RegressorConfig, emb: np.ndarray,
                coords: np.ndarray, codes: Tensor, trim_fraction: float) -> Tensor:
    y, sigma = rg.regress_batch(params, reg_cfg, Tensor(emb), codes)
    return trimmed_mean(rg.laplace_nll_batch(y, sigma, Tensor(coords)), trim_fraction)


def _descend(loss: Tensor, opts: list[AdamW]) -> str | None:
    """Backpropagate `loss` and step every optimizer in `opts`, or none of them.

    Returns None after the step, or "loss" or "gradient" when a non-finite
    loss, or a non-finite gradient of any tensor the optimizers own,
    stepped nothing. Those tensors' gradients are cleared either way.
    """
    tensors = [t for opt in opts for t in opt.tensors]
    for t in tensors:
        t.grad = None
    if not np.isfinite(float(loss.data)):
        return "loss"
    ad.backward(loss)
    finite = all(t.grad is None or np.isfinite(t.grad).all() for t in tensors)
    if finite:
        for opt in opts:
            opt.step()
    for t in tensors:
        t.grad = None
    return None if finite else "gradient"


@contextmanager
def _shared_requires_grad(params: dict[str, Tensor], flag: bool):
    """Set every shared parameter's `requires_grad` to `flag` for one step; each
    gets its own flag back on exit, also when the step raises."""
    saved = [(t, t.requires_grad) for t in params.values()]
    for t, _ in saved:
        t.requires_grad = flag
    try:
        yield
    finally:
        for t, old in saved:
            t.requires_grad = old


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
        active_ids = {s.tuple_id for s in self.pool}
        candidates = [i for i, t in enumerate(self.dataset) if t.tuple_id not in active_ids]
        if not candidates:
            candidates = list(range(len(self.dataset)))
        tuple_index = candidates[int(self.pool_rng.integers(0, len(candidates)))]
        data = self.dataset[tuple_index]
        rot = random_rotation(self.pool_rng)
        mirror = bool(self.cfg.mirror_augment and self.pool_rng.integers(0, 2))
        code_seed = int(self.pool_rng.integers(0, 2**31))
        budget = int(self.pool_rng.integers(self.cfg.budget_lo, self.cfg.budget_hi + 1))
        center = data.mapping.coords.astype(np.float64).mean(axis=0)
        code = rg.init_map_code(self.cfg.n_code_tokens, self.reg_cfg.d_map, code_seed,
                                scene_id=data.tuple_id)
        return self._activate(slot, tuple_index, code, 0, budget, rot, mirror, center)

    def _activate(self, slot: int, tuple_index: int, code: rg.MapCode, counter: int,
                  budget: int, rot: np.ndarray, mirror: bool,
                  center: np.ndarray) -> ActiveScene:
        """Pool entry for dataset[tuple_index]: new code AdamW, both buffers augmented."""
        data = self.dataset[tuple_index]
        return ActiveScene(
            slot=slot, tuple_index=tuple_index, tuple_id=data.tuple_id, code=code,
            opt=AdamW([code.tokens], lr=self.cfg.lr_codes), counter=counter, budget=budget,
            m_buf=_augmented_buffer(data.mapping, rot, mirror, center),
            q_buf=_augmented_buffer(data.query, rot, mirror, center),
            aug_rot=rot, aug_mirror=mirror, aug_center=center)

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
        spec = bf.BatchSpec(min(self.cfg.scenes_per_batch, len(self.pool)),
                            self.cfg.patches_per_scene)
        active = [(scene.slot, scene.m_buf) for scene in self.pool]
        keys, embs, coords = zip(*bf.sample_batch(active, spec, self.batch_rng))
        scenes = [self.pool[key] for key in keys]
        opts = [scene.opt for scene in scenes] + ([self.head_opt] if update_head else [])
        with _shared_requires_grad(self.params, update_head):
            loss = _batch_loss(self.params, self.reg_cfg, np.stack(embs), np.stack(coords),
                               ad.stack([s.code.tokens for s in scenes]), self.cfg.trim_fraction)
            failed = _descend(loss, opts)
        if failed:
            self._skip_nonfinite("nonfinite", failed, [s.tuple_id for s in scenes])
            return math.nan
        self._nonfinite_streak = 0
        for scene in scenes:
            scene.counter += 1
        self._last_map_nll = float(loss.data)
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
        spec = bf.BatchSpec(n_scenes, self.cfg.patches_per_scene)
        active = [(i, s.q_buf) for i, s in enumerate(eligible)]
        keys, embs, coords = zip(*bf.sample_batch(active, spec, self.batch_rng))
        scenes = [eligible[key] for key in keys]
        with _shared_requires_grad(self.params, True):
            codes = ad.stack([s.code.tokens.detach() for s in scenes])
            loss = _batch_loss(self.params, self.reg_cfg, np.stack(embs), np.stack(coords),
                               codes, self.cfg.trim_fraction)
            failed = _descend(loss, [self.head_opt])
        if failed:
            self._skip_nonfinite("nonfinite_query", failed, [s.tuple_id for s in scenes])
            return math.nan
        self._nonfinite_streak = 0
        self._last_query_nll = float(loss.data)
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

    def save_state(self, out_dir: Path, tag: str) -> tuple[Path, Path]:
        """Write `{tag}.prm` and `{tag}.json`, each first under a temporary name
        and then moved into place, so neither is ever seen half written."""
        out_dir.mkdir(parents=True, exist_ok=True)
        named: dict[str, np.ndarray] = {}
        for name, tensor in self.params.items():
            named[f"param/{name}"] = tensor.data
        for key, arr in self.head_opt.state_arrays().items():
            named[f"opt_head/{key}"] = arr
        for scene in self.pool:
            prefix = f"slot{scene.slot}"
            named[f"{prefix}/code"] = scene.code.tokens.data
            for key, arr in scene.opt.state_arrays().items():
                named[f"{prefix}/opt_{key}"] = arr
        slots = [{
            "slot": s.slot, "tuple_index": s.tuple_index, "tuple_id": s.tuple_id,
            "counter": s.counter, "budget": s.budget,
            "aug_rot": s.aug_rot.ravel().tolist(), "aug_mirror": s.aug_mirror,
            "aug_center": s.aug_center.tolist(),
        } for s in self.pool]
        state = {
            "iteration": self.iteration,
            "slots": slots,
            "rng_pool": self.pool_rng.bit_generator.state,
            "rng_batch": self.batch_rng.bit_generator.state,
        }
        prm_path, json_path, tmp = (out_dir / f"{tag}{ext}" for ext in (".prm", ".json", ".tmp"))
        ad.save_params(tmp, named)
        os.replace(tmp, prm_path)
        tmp.write_text(json.dumps(state, indent=1))
        os.replace(tmp, json_path)
        return prm_path, json_path

    def load_state(self, prm_path: Path, json_path: Path) -> None:
        """Restore a state written by `save_state`. Raises ValueError, before anything
        changes, on a missing or mis-shaped parameter or a slot whose tuple differs."""
        named = ad.load_params(prm_path)
        state = json.loads(Path(json_path).read_text())
        for info in state["slots"]:
            found = self.dataset[info["tuple_index"]].tuple_id
            if found != info["tuple_id"]:
                raise ValueError(f"slot {info['slot']}: tuple {info['tuple_index']} is {found!r} "
                                 f"in this dataset, but {info['tuple_id']!r} in the state")
        bad = [n for n, t in self.params.items()
               if f"param/{n}" not in named or named[f"param/{n}"].shape != t.shape]
        if bad:
            raise ValueError(f"state lacks parameters {bad} or holds them in another shape")
        for name, t in self.params.items():
            t.data = np.asarray(named[f"param/{name}"], dtype=t.dtype)
            t.grad = None
        self.head_opt = AdamW(self.params.values(), lr=self.cfg.lr_head)
        self.head_opt.load_state_arrays(_with_prefix(named, "opt_head/"))
        self.iteration = state["iteration"]
        self.pool_rng.bit_generator.state = state["rng_pool"]
        self.batch_rng.bit_generator.state = state["rng_batch"]
        self.pool = []
        for info in state["slots"]:
            prefix = f"slot{info['slot']}"
            code = rg.MapCode(Tensor(named[f"{prefix}/code"], requires_grad=True),
                              scene_id=info["tuple_id"])
            scene = self._activate(
                info["slot"], info["tuple_index"], code, info["counter"], info["budget"],
                np.array(info["aug_rot"], dtype=np.float64).reshape(3, 3),
                bool(info["aug_mirror"]), np.array(info["aug_center"], dtype=np.float64))
            scene.opt.load_state_arrays(_with_prefix(named, f"{prefix}/opt_"))
            self.pool.append(scene)


def fit_map_code(params: dict[str, Tensor], reg_cfg: rg.RegressorConfig, buf: bf.PretrainBuffer,
                 n_tokens: int, iterations: int, batch_size: int, lr: float, seed: int,
                 trim_fraction: float = 0.3) -> rg.MapCode:
    """Fit a fresh map code to one scene's 3D-supervised buffer, regressor frozen.

    Used to evaluate held-out tuples with the same supervision pre-training
    uses; the package has no reprojection-supervised mapping yet. Each
    iteration is one `_descend` step of the code's AdamW: an iteration whose
    loss or code gradient is non-finite steps nothing and the fit goes on.
    The shared parameters are frozen only while the fit runs: each gets its
    `requires_grad` flag back on return, also when the fit raises.
    """
    ss = np.random.SeedSequence(seed)
    init_ss, batch_ss = ss.spawn(2)
    code = rg.init_map_code(n_tokens, reg_cfg.d_map, int(init_ss.generate_state(1)[0]),
                            scene_id=buf.scene_id)
    opt = AdamW([code.tokens], lr=lr)
    rng = np.random.default_rng(batch_ss)
    with _shared_requires_grad(params, False):
        for _ in range(iterations):
            idx = rng.integers(0, len(buf), size=batch_size)
            _descend(_batch_loss(params, reg_cfg, buf.embeddings[idx], buf.coords[idx],
                                 code.tokens, trim_fraction), [opt])
    return code
