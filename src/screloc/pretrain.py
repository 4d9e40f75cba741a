"""Alternating mapping/query pre-training over a rotating scene pool.

Each cycle runs `head_update_period` mapping iterations (map codes stepped
every time, regressor head only on the last one) followed by one query
iteration that updates only the regressor against held-out query buffers
of scenes whose codes have matured past the standby threshold. Exhausted
scenes are replaced by freshly sampled tuples with re-initialized codes,
randomized budgets, and a random rigid rotation of their supervision.
"""

from __future__ import annotations

import json
import os
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


@dataclass
class ActiveScene:
    slot: int
    tuple_index: int
    tuple_id: str
    code: rg.MapCode
    opt: AdamW
    counter: int
    budget: int
    code_seed: int
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


def trimmed_mean(nll: Tensor, trim_fraction: float) -> tuple[Tensor, np.ndarray]:
    """Mean of the lowest trim_fraction of per-record losses."""
    flat = ad.reshape(nll, (int(np.prod(nll.shape)),))
    k = max(1, int(trim_fraction * flat.shape[0]))
    keep = np.argsort(flat.data, kind="stable")[:k]
    return ad.tmean(ad.take(flat, keep)), keep


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
        return self._activate(slot, tuple_index, code, 0, budget, code_seed, rot, mirror, center)

    def _activate(self, slot: int, tuple_index: int, code: rg.MapCode, counter: int,
                  budget: int, code_seed: int, rot: np.ndarray, mirror: bool,
                  center: np.ndarray) -> ActiveScene:
        """Pool entry for dataset[tuple_index]: new code AdamW, both buffers augmented."""
        data = self.dataset[tuple_index]
        return ActiveScene(
            slot=slot, tuple_index=tuple_index, tuple_id=data.tuple_id, code=code,
            opt=AdamW([code.tokens], lr=self.cfg.lr_codes), counter=counter, budget=budget,
            code_seed=code_seed,
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

    def _batch_forward(self, groups, code_tokens: list[Tensor]):
        embs = np.stack([g[1] for g in groups])
        ys = np.stack([g[2] for g in groups])
        codes = ad.stack(code_tokens)
        y, sigma = rg.regress_batch(self.params, self.reg_cfg, Tensor(embs), codes)
        nll = rg.laplace_nll_batch(y, sigma, Tensor(ys))
        return trimmed_mean(nll, self.cfg.trim_fraction)

    def mapping_iteration(self, update_head: bool) -> float:
        spec = bf.BatchSpec(min(self.cfg.scenes_per_batch, len(self.pool)),
                            self.cfg.patches_per_scene)
        active = [(scene.slot, scene.m_buf) for scene in self.pool]
        groups = bf.sample_batch(active, spec, self.batch_rng)
        scenes = [self.pool[key] for key, _, _ in groups]

        for t in self.params.values():
            t.requires_grad = update_head
            t.grad = None
        tokens = []
        for scene in scenes:
            scene.code.tokens.grad = None
            scene.code.tokens.requires_grad = True
            tokens.append(scene.code.tokens)

        loss, _ = self._batch_forward(groups, tokens)
        value = float(loss.data)
        if not np.isfinite(value):
            self._nonfinite_streak += 1
            bad = [s.tuple_id for s in scenes]
            self.log_records.append({"iteration": self.iteration, "event": "nonfinite",
                                     "scenes": bad})
            if self._nonfinite_streak > self.cfg.nonfinite_abort_streak:
                raise FloatingPointError(f"non-finite loss streak; last scenes {bad}")
            return value
        self._nonfinite_streak = 0
        ad.backward(loss)
        for scene in scenes:
            scene.opt.step()
            scene.counter += 1
            scene.code.tokens.grad = None
        if update_head:
            self.head_opt.step()
        for t in self.params.values():
            t.grad = None
        self._last_map_nll = value
        return value

    def query_iteration(self) -> float | None:
        """Regressor-only update from query buffers of mature scenes."""
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
        groups = bf.sample_batch(active, spec, self.batch_rng)

        for t in self.params.values():
            t.requires_grad = True
            t.grad = None
        tokens = [eligible[key].code.tokens.detach() for key, _, _ in groups]

        loss, _ = self._batch_forward(groups, tokens)
        value = float(loss.data)
        if not np.isfinite(value):
            self.log_records.append({"iteration": self.iteration, "event": "nonfinite_query"})
            return value
        ad.backward(loss)
        self.head_opt.step()
        for t in self.params.values():
            t.grad = None
        self._last_query_nll = value
        return value

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
            "counter": s.counter, "budget": s.budget, "code_seed": s.code_seed,
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
        self.head_opt.load_state_arrays({k[len("opt_head/"):]: v for k, v in named.items()
                                         if k.startswith("opt_head/")})
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
                info["code_seed"], np.array(info["aug_rot"], dtype=np.float64).reshape(3, 3),
                bool(info["aug_mirror"]), np.array(info["aug_center"], dtype=np.float64))
            scene.opt.load_state_arrays({"step": named[f"{prefix}/opt_step"],
                                         "m0": named[f"{prefix}/opt_m0"],
                                         "v0": named[f"{prefix}/opt_v0"]})
            self.pool.append(scene)


def fit_map_code(params: dict[str, Tensor], reg_cfg: rg.RegressorConfig, buf: bf.PretrainBuffer,
                 n_tokens: int, iterations: int, batch_size: int, lr: float, seed: int,
                 trim_fraction: float = 0.3) -> rg.MapCode:
    """Fit a fresh map code to one scene's 3D-supervised buffer, regressor frozen.

    Used to evaluate held-out tuples with the same supervision pre-training
    uses; the package has no reprojection-supervised mapping yet. The
    shared parameters are frozen only while the fit runs: each gets its
    `requires_grad` flag back on return, also when the fit raises.
    """
    ss = np.random.SeedSequence(seed)
    init_ss, batch_ss = ss.spawn(2)
    code = rg.init_map_code(n_tokens, reg_cfg.d_map, int(init_ss.generate_state(1)[0]),
                            scene_id=buf.scene_id)
    opt = AdamW([code.tokens], lr=lr)
    rng = np.random.default_rng(batch_ss)
    shared = list(params.values())
    flags = [t.requires_grad for t in shared]
    for t in shared:
        t.requires_grad = False
    try:
        for _ in range(iterations):
            idx = rng.integers(0, len(buf), size=batch_size)
            emb = Tensor(buf.embeddings[idx])
            y_gt = Tensor(buf.coords[idx])
            code.tokens.grad = None
            y, sigma = rg.regress_batch(params, reg_cfg, emb, code.tokens)
            nll = rg.laplace_nll_batch(y, sigma, y_gt)
            loss, _ = trimmed_mean(nll, trim_fraction)
            if not np.isfinite(float(loss.data)):
                continue
            ad.backward(loss)
            opt.step()
    finally:
        for t, flag in zip(shared, flags):
            t.requires_grad = flag
    code.tokens.grad = None
    return code
