"""Shuffled patch buffers and batch sampling.

Rendered observations are flattened across views, globally shuffled (to
decorrelate gradients within batches) and capped by uniform subsampling.
Pre-training buffers store (embedding, ground-truth coordinate); novel-
scene buffers store (embedding, pixel, pose, intrinsics) because no 3D
supervision exists at mapping time. Buffers are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binio
from .geometry import PoseSE3

BUFFER_MAGIC = b"ACEGBUF1"
SCHEMA_PRETRAIN = "pretrain-v1"
SCHEMA_NOVEL = "novel-v1"

ROLE_M = "M"
ROLE_Q = "Q"

PRETRAIN_CAP = 50_000
NOVEL_CAP = 200_000


@dataclass
class BatchSpec:
    scenes_per_batch: int
    patches_per_scene: int

    def __post_init__(self):
        if self.scenes_per_batch < 1 or self.patches_per_scene < 1:
            raise ValueError("batch spec fields must be >= 1")


class PretrainBuffer:
    """Flat (embedding, ground-truth y) records for one mapping or query chunk."""

    def __init__(self, embeddings: np.ndarray, coords: np.ndarray, scene_id: str,
                 role: str, seed: int):
        if len(embeddings) == 0:
            raise ValueError("empty buffer")
        if role not in (ROLE_M, ROLE_Q):
            raise ValueError(f"bad role {role!r}")
        self.embeddings = np.ascontiguousarray(embeddings, dtype=np.float32)
        self.coords = np.ascontiguousarray(coords, dtype=np.float32)
        self.scene_id = scene_id
        self.role = role
        self.seed = seed
        self.embeddings.setflags(write=False)
        self.coords.setflags(write=False)

    def __len__(self) -> int:
        return len(self.embeddings)


class NovelSceneBuffer:
    """Records of (embedding, pixel, frame) plus a per-frame pose/intrinsics table."""

    def __init__(self, embeddings, pixels, frame_index, rotations, translations,
                 kvecs, scene_id: str, seed: int):
        if len(embeddings) == 0:
            raise ValueError("empty buffer")
        self.embeddings = np.ascontiguousarray(embeddings, dtype=np.float32)
        self.pixels = np.ascontiguousarray(pixels, dtype=np.float64)
        self.frame_index = np.ascontiguousarray(frame_index, dtype=np.uint32)
        self.rotations = np.ascontiguousarray(rotations, dtype=np.float64)
        self.translations = np.ascontiguousarray(translations, dtype=np.float64)
        self.kvecs = np.ascontiguousarray(kvecs, dtype=np.float64)
        self.scene_id = scene_id
        self.seed = seed
        for arr in (self.embeddings, self.pixels, self.frame_index, self.rotations,
                    self.translations, self.kvecs):
            arr.setflags(write=False)
        for i, pose_r in enumerate(self.rotations):
            PoseSE3(pose_r, self.translations[i])  # validates SE(3)

    def __len__(self) -> int:
        return len(self.embeddings)

    def record_poses(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rotations, translations, kvecs) aligned with the given record indices."""
        f = self.frame_index[idx]
        return self.rotations[f], self.translations[f], self.kvecs[f]


def _shuffle_cap(n: int, cap: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    return order[: min(n, cap)]


def build_pretrain_buffers(views_m, views_q, scene_id: str, seed: int,
                           cap: int = PRETRAIN_CAP) -> tuple[PretrainBuffer, PretrainBuffer]:
    """Flatten and shuffle both split halves of one scene tuple."""
    if not views_m or not views_q:
        raise ValueError("both split halves must be nonempty")

    def build(views, role, s):
        emb = np.concatenate([v.embeddings() for v in views], axis=0)
        y = np.concatenate([v.points() for v in views], axis=0)
        keep = _shuffle_cap(len(emb), cap, s)
        return PretrainBuffer(emb[keep], y[keep], scene_id, role, s)

    return build(views_m, ROLE_M, seed), build(views_q, ROLE_Q, seed + 1)


def build_novel_buffer(mapping_views, scene_id: str, seed: int,
                       cap: int = NOVEL_CAP) -> NovelSceneBuffer:
    """Per-record schema for reprojection-supervised mapping."""
    if not mapping_views:
        raise ValueError("no mapping views")
    embs, pixels, fidx = [], [], []
    rots, trans, kvecs = [], [], []
    for f, view in enumerate(mapping_views):
        embs.append(view.embeddings())
        pixels.append(view.pixels())
        fidx.append(np.full(len(view.observations), f, dtype=np.uint32))
        rots.append(view.pose.rotation)
        trans.append(view.pose.translation)
        kvecs.append(view.intrinsics.as_array())
    emb = np.concatenate(embs, axis=0)
    pix = np.concatenate(pixels, axis=0)
    fidx = np.concatenate(fidx)
    keep = _shuffle_cap(len(emb), cap, seed)
    return NovelSceneBuffer(emb[keep], pix[keep], fidx[keep], np.stack(rots),
                            np.stack(trans), np.stack(kvecs), scene_id, seed)


def sample_batch(active: list[tuple[str, PretrainBuffer]], spec: BatchSpec,
                 rng: np.random.Generator) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Pick scenes_per_batch distinct scenes, patches_per_scene records each
    (with replacement), keeping per-scene grouping intact."""
    if len(active) < spec.scenes_per_batch:
        raise ValueError(f"{len(active)} eligible scenes < {spec.scenes_per_batch} required")
    chosen = rng.choice(len(active), size=spec.scenes_per_batch, replace=False)
    groups = []
    for ci in chosen:
        key, buf = active[ci]
        idx = rng.integers(0, len(buf), size=spec.patches_per_scene)
        groups.append((key, buf.embeddings[idx], buf.coords[idx]))
    return groups


# -- serialization -----------------------------------------------------------

def save_buffer(path, buf) -> None:
    with open(path, "wb") as fh:
        binio.write_magic(fh, BUFFER_MAGIC)
        if isinstance(buf, PretrainBuffer):
            binio.write_str(fh, SCHEMA_PRETRAIN)
            binio.write_str(fh, buf.scene_id)
            binio.write_str(fh, buf.role)
            binio.write_u32(fh, buf.seed & 0xFFFFFFFF)
            binio.write_u32(fh, len(buf))
            binio.write_u32(fh, buf.embeddings.shape[1])
            binio.write_array(fh, buf.embeddings)
            binio.write_array(fh, buf.coords)
        elif isinstance(buf, NovelSceneBuffer):
            binio.write_str(fh, SCHEMA_NOVEL)
            binio.write_str(fh, buf.scene_id)
            binio.write_u32(fh, buf.seed & 0xFFFFFFFF)
            binio.write_u32(fh, len(buf))
            binio.write_u32(fh, buf.embeddings.shape[1])
            binio.write_u32(fh, len(buf.rotations))
            binio.write_array(fh, buf.embeddings)
            binio.write_array(fh, buf.pixels)
            binio.write_array(fh, buf.frame_index)
            binio.write_array(fh, buf.rotations)
            binio.write_array(fh, buf.translations)
            binio.write_array(fh, buf.kvecs)
        else:
            raise TypeError(f"cannot serialize {type(buf).__name__}")


def load_buffer(path):
    """Read a buffer; raises binio.FormatError on any corrupt file: truncated,
    mis-shaped or non-finite arrays, a frame index out of range, a bad pose."""
    with open(path, "rb") as fh:
        binio.read_magic(fh, BUFFER_MAGIC)
        schema = binio.read_str(fh)
        if schema == SCHEMA_PRETRAIN:
            scene_id = binio.read_str(fh)
            role = binio.read_str(fh)
            seed = binio.read_u32(fh)
            n = binio.read_u32(fh)
            d = binio.read_u32(fh)
            emb = binio.read_array(fh)
            coords = binio.read_array(fh)
            if emb.shape != (n, d) or coords.shape != (n, 3):
                raise binio.FormatError("pretrain buffer length mismatch")
            _check_finite(emb, coords)
            return _build(PretrainBuffer, emb, coords, scene_id, role, seed)
        if schema == SCHEMA_NOVEL:
            scene_id = binio.read_str(fh)
            seed = binio.read_u32(fh)
            n = binio.read_u32(fh)
            d = binio.read_u32(fh)
            n_frames = binio.read_u32(fh)
            emb = binio.read_array(fh)
            pixels = binio.read_array(fh)
            fidx = binio.read_array(fh)
            rots = binio.read_array(fh)
            trans = binio.read_array(fh)
            kvecs = binio.read_array(fh)
            if (emb.shape != (n, d) or pixels.shape != (n, 2) or fidx.shape != (n,)
                    or fidx.dtype != np.uint32):
                raise binio.FormatError("novel buffer records do not match their count")
            if rots.shape != (n_frames, 3, 3) or trans.shape != (n_frames, 3) \
                    or kvecs.shape != (n_frames, 4):
                raise binio.FormatError("novel buffer frame table does not match its count")
            if n and fidx.max() >= n_frames:
                raise binio.FormatError(f"frame index {fidx.max()} past {n_frames} frames")
            _check_finite(emb, pixels, rots, trans, kvecs)
            return _build(NovelSceneBuffer, emb, pixels, fidx, rots, trans, kvecs, scene_id, seed)
        raise binio.FormatError(f"unknown buffer schema {schema!r}")


def _check_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise binio.FormatError("non-finite values in buffer")


def _build(cls, *args):
    """cls(*args), with its ValueError (empty buffer, bad role or pose) as a FormatError."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise binio.FormatError(f"{cls.__name__}: {exc}") from exc
