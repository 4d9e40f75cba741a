"""Shuffled patch buffers and batch sampling.

Rendered observations are flattened across views, globally shuffled (to
decorrelate gradients within batches) and capped by uniform subsampling.
Pre-training buffers store (embedding, ground-truth coordinate); novel-
scene buffers store (embedding, pixel, pose, intrinsics) because no 3D
supervision exists at mapping time. Buffers are immutable once built.
"""

from __future__ import annotations

import numpy as np

from . import binio
from .geometry import PoseSE3

BUFFER_MAGIC = b"ACEGBUF1"

PRETRAIN_CAP = 50_000
NOVEL_CAP = 200_000


class PretrainBuffer:
    """Flat (embedding, ground-truth y) records for one mapping or query chunk;
    which of the two it is, is fixed by where it is held."""

    def __init__(self, embeddings: np.ndarray, coords: np.ndarray, scene_id: str, seed: int):
        self.embeddings = np.ascontiguousarray(embeddings, dtype=np.float32)
        self.coords = np.ascontiguousarray(coords, dtype=np.float32)
        if self.embeddings.ndim != 2 or self.coords.shape != (len(self.embeddings), 3):
            raise ValueError(f"embeddings (n, d) and coords (n, 3) expected, "
                             f"got {self.embeddings.shape} and {self.coords.shape}")
        if len(self.embeddings) == 0:
            raise ValueError("empty buffer")
        self.scene_id = scene_id
        self.seed = seed
        self.embeddings.setflags(write=False)
        self.coords.setflags(write=False)

    def __len__(self) -> int:
        return len(self.embeddings)


class NovelSceneBuffer:
    """Records of (embedding, pixel, frame) plus a per-frame pose/intrinsics table."""

    def __init__(self, embeddings, pixels, frame_index, rotations, translations,
                 kvecs, scene_id: str, seed: int):
        self.embeddings = np.ascontiguousarray(embeddings, dtype=np.float32)
        self.pixels = np.ascontiguousarray(pixels, dtype=np.float64)
        self.frame_index = np.ascontiguousarray(frame_index, dtype=np.uint32)
        self.rotations = np.ascontiguousarray(rotations, dtype=np.float64)
        self.translations = np.ascontiguousarray(translations, dtype=np.float64)
        self.kvecs = np.ascontiguousarray(kvecs, dtype=np.float64)
        n = len(self.embeddings) if self.embeddings.ndim == 2 else -1
        n_frames = len(self.rotations) if self.rotations.ndim == 3 else -1
        records = (self.pixels.shape, self.frame_index.shape)
        if records != ((n, 2), (n,)):
            raise ValueError(f"records do not match: embeddings {self.embeddings.shape}, "
                             f"pixels and frame index {records}, expected (n, d), (n, 2), (n,)")
        table = (self.rotations.shape, self.translations.shape, self.kvecs.shape)
        if table != ((n_frames, 3, 3), (n_frames, 3), (n_frames, 4)):
            raise ValueError(f"frame table does not match: {table}, "
                             "expected (F, 3, 3), (F, 3), (F, 4)")
        if n == 0:
            raise ValueError("empty buffer")
        if self.frame_index.max() >= n_frames:
            raise ValueError(f"frame index {self.frame_index.max()} past {n_frames} frames")
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

    def build(views, s):
        emb = np.concatenate([v.observations["embedding"] for v in views], axis=0)
        y = np.concatenate([v.observations["y_world"] for v in views], axis=0)
        keep = _shuffle_cap(len(emb), cap, s)  # take gathers rows faster than emb[keep]
        return PretrainBuffer(emb.take(keep, axis=0), y.take(keep, axis=0), scene_id, s)

    return build(views_m, seed), build(views_q, seed + 1)


def build_novel_buffer(mapping_views, scene_id: str, seed: int,
                       cap: int = NOVEL_CAP) -> NovelSceneBuffer:
    """Per-record schema for reprojection-supervised mapping."""
    if not mapping_views:
        raise ValueError("no mapping views")
    emb = np.concatenate([v.observations["embedding"] for v in mapping_views], axis=0)
    pix = np.concatenate([v.observations["pixel"] for v in mapping_views], axis=0)
    fidx = np.repeat(np.arange(len(mapping_views), dtype=np.uint32),
                     [len(v.observations) for v in mapping_views])
    keep = _shuffle_cap(len(emb), cap, seed)
    return NovelSceneBuffer(emb.take(keep, axis=0), pix.take(keep, axis=0), fidx.take(keep),
                            np.stack([v.pose.rotation for v in mapping_views]),
                            np.stack([v.pose.translation for v in mapping_views]),
                            np.stack([v.intrinsics.as_array() for v in mapping_views]),
                            scene_id, seed)


def sample_batch(bufs: list[PretrainBuffer], n_scenes: int, n_patches: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`n_patches` records, with replacement, of each of `n_scenes` distinct buffers:
    (chosen indices (S,), embeddings (S, P, d), coords (S, P, 3)), row s from bufs[chosen[s]]."""
    if n_scenes < 1 or n_patches < 1:
        raise ValueError(f"n_scenes and n_patches must be >= 1, got {n_scenes}, {n_patches}")
    if len(bufs) < n_scenes:
        raise ValueError(f"{len(bufs)} eligible scenes < {n_scenes} required")
    chosen = rng.choice(len(bufs), size=n_scenes, replace=False)
    rows = [(bufs[i], rng.integers(0, len(bufs[i]), size=n_patches)) for i in chosen]
    return (chosen, np.stack([buf.embeddings[idx] for buf, idx in rows]),
            np.stack([buf.coords[idx] for buf, idx in rows]))


# -- serialization -----------------------------------------------------------

# each schema's buffer class and its arrays, in file order, as `binio.check_records` rows;
# rotation entries past +-2 cannot be orthonormal, and could overflow PoseSE3's r.T @ r
_SCHEMAS = {
    "pretrain-v3": (PretrainBuffer, (("embeddings", np.float32, ("n", "d"), None, None),
                                     ("coords", np.float32, ("n", 3), None, None))),
    "novel-v2": (NovelSceneBuffer, (("embeddings", np.float32, ("n", "d"), None, None),
                                    ("pixels", np.float64, ("n", 2), None, None),
                                    ("frame_index", np.uint32, ("n",), None, None),
                                    ("rotations", np.float64, ("F", 3, 3), -2.0, 2.0),
                                    ("translations", np.float64, ("F", 3), None, None),
                                    ("kvecs", np.float64, ("F", 4), None, None))),
}


def save_buffer(path, buf) -> None:
    """Write the magic, the schema, scene id and seed, then the schema's arrays."""
    schema = next((name for name, (cls, _) in _SCHEMAS.items() if isinstance(buf, cls)), None)
    if schema is None:
        raise TypeError(f"cannot serialize {type(buf).__name__}")
    with open(path, "wb") as fh:
        binio.write_magic(fh, BUFFER_MAGIC)
        binio.write_str(fh, schema)
        binio.write_str(fh, buf.scene_id)
        binio.write_u32(fh, buf.seed & 0xFFFFFFFF)
        for attr, *_ in _SCHEMAS[schema][1]:
            binio.write_array(fh, getattr(buf, attr))


def load_buffer(path):
    """Read a buffer; raises binio.FormatError on any corrupt file: truncated,
    mis-shaped, mistyped or non-finite arrays, rotation entries outside [-2, 2],
    a frame index out of range, a bad pose."""
    with binio.open_reader(path) as fh:
        binio.read_magic(fh, BUFFER_MAGIC)
        schema = binio.read_str(fh)
        if schema not in _SCHEMAS:
            raise binio.FormatError(f"unknown buffer schema {schema!r}")
        cls, layout = _SCHEMAS[schema]
        scene_id, seed = binio.read_str(fh), binio.read_u32(fh)
        arrays = {attr: binio.read_array(fh) for attr, *_ in layout}
    binio.check_records(arrays, layout)
    try:
        return cls(**arrays, scene_id=scene_id, seed=seed)
    except ValueError as exc:  # an empty buffer, a frame index, a bad pose
        raise binio.FormatError(f"{cls.__name__}: {exc}") from exc
