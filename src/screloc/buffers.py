"""Shuffled patch buffers and batch sampling.

Rendered observations, read through the `ViewRender` accessors, are flattened
across views and globally shuffled (to decorrelate gradients within batches).
Pre-training buffers store (embedding, ground-truth coordinate); novel-scene
buffers store (embedding, pixel, pose, intrinsics), as no 3D supervision exists
at mapping time.
Each class states its arrays once, as a `binio.check_records` `LAYOUT` that
its constructor checks and its `.buf` file follows. Buffers are immutable.
"""

from __future__ import annotations

import numpy as np

from . import binio
from .geometry import ROTATION_BOUNDS, Intrinsics, PoseSE3

BUFFER_MAGIC = b"ACEGBUF2"


def _set_records(buf, arrays: dict[str, np.ndarray]) -> dict[str, int]:
    """Check `arrays` against `buf.LAYOUT` (ValueError naming the record) and refuse
    an empty buffer, then set them on `buf`, read-only; the dims the layout binds."""
    dims = binio.check_records(arrays, buf.LAYOUT)
    if dims["n"] == 0:
        raise ValueError("empty buffer")
    for name, arr in arrays.items():
        arr.setflags(write=False)
        setattr(buf, name, arr)
    return dims


class PretrainBuffer:
    """Flat (embedding, ground-truth y) records for one mapping or query chunk;
    which of the two it is, is fixed by where it is held."""

    LAYOUT = (("embeddings", np.float32, ("n", "d"), None, None),
              ("coords", np.float32, ("n", 3), None, None))

    def __init__(self, embeddings: np.ndarray, coords: np.ndarray, scene_id: str):
        _set_records(self, dict(embeddings=embeddings, coords=coords))
        self.scene_id = scene_id

    def __len__(self) -> int:
        return len(self.embeddings)


class NovelSceneBuffer:
    """Records of (embedding, pixel, frame) plus a per-frame pose/intrinsics table."""

    LAYOUT = (("embeddings", np.float32, ("n", "d"), None, None),
              ("pixels", np.float64, ("n", 2), None, None),
              ("frame_index", np.uint32, ("n",), None, None),
              ("rotations", np.float64, ("F", 3, 3), *ROTATION_BOUNDS),
              ("translations", np.float64, ("F", 3), None, None),
              ("kvecs", np.float64, ("F", 4), None, None))

    def __init__(self, embeddings, pixels, frame_index, rotations, translations, kvecs,
                 scene_id: str):
        n_frames = _set_records(self, dict(embeddings=embeddings, pixels=pixels,
                                           frame_index=frame_index, rotations=rotations,
                                           translations=translations, kvecs=kvecs))["F"]
        if self.frame_index.max() >= n_frames:
            raise ValueError(f"frame index {self.frame_index.max()} past {n_frames} frames")
        for pose_r, pose_t, kvec in zip(self.rotations, self.translations, self.kvecs.tolist()):
            PoseSE3(pose_r, pose_t)  # validates SE(3)
            Intrinsics(*kvec)  # validates positive focal lengths
        self.scene_id = scene_id

    def __len__(self) -> int:
        return len(self.embeddings)

    def record_poses(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rotations, translations, kvecs) aligned with the given record indices."""
        f = self.frame_index[idx]
        return self.rotations[f], self.translations[f], self.kvecs[f]


def build_pretrain_buffers(views_m, views_q, scene_id: str,
                           seed: int) -> tuple[PretrainBuffer, PretrainBuffer]:
    """Flatten and shuffle both split halves of one scene tuple."""
    if not views_m or not views_q:
        raise ValueError("both split halves must be nonempty")

    def build(views, s):
        emb = np.concatenate([v.embeddings() for v in views], axis=0)
        y = np.concatenate([v.points() for v in views], axis=0)
        order = np.random.default_rng(s).permutation(len(emb))  # take is faster than emb[order]
        return PretrainBuffer(emb.take(order, axis=0),
                              y.take(order, axis=0).astype(np.float32), scene_id)

    return build(views_m, seed), build(views_q, seed + 1)


def build_novel_buffer(mapping_views, scene_id: str, seed: int) -> NovelSceneBuffer:
    """Per-record schema for reprojection-supervised mapping."""
    if not mapping_views:
        raise ValueError("no mapping views")
    embs = [v.embeddings() for v in mapping_views]
    emb = np.concatenate(embs, axis=0)
    pix = np.concatenate([v.pixels() for v in mapping_views], axis=0)
    fidx = np.repeat(np.arange(len(mapping_views), dtype=np.uint32), [len(e) for e in embs])
    order = np.random.default_rng(seed).permutation(len(emb))
    return NovelSceneBuffer(emb.take(order, axis=0), pix.take(order, axis=0), fidx.take(order),
                            np.stack([v.pose.rotation for v in mapping_views]),
                            np.stack([v.pose.translation for v in mapping_views]),
                            np.stack([v.intrinsics.as_array() for v in mapping_views]),
                            scene_id)


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

_SCHEMAS = {"pretrain-v4": PretrainBuffer, "novel-v3": NovelSceneBuffer}


def save_buffer(path, buf) -> None:
    """Write the text records `schema` and `scene`, then the buffer's layout arrays."""
    schema = next((name for name, cls in _SCHEMAS.items() if isinstance(buf, cls)), None)
    if schema is None:
        raise TypeError(f"cannot serialize {type(buf).__name__}")
    arrays = {name: getattr(buf, name) for name, *_ in buf.LAYOUT}
    binio.save_records(path, BUFFER_MAGIC, {"schema": schema, "scene": buf.scene_id, **arrays})


def load_buffer(path):
    """Read a buffer; raises binio.FormatError on any corrupt file: truncated,
    or arrays its class's constructor refuses (missing, mis-shaped, mistyped,
    non-finite, rotation entries outside `geometry.ROTATION_BOUNDS`, a frame
    index out of range, a bad pose or intrinsics)."""
    named = binio.load_records(path, BUFFER_MAGIC)
    schema = binio.text(named, "schema")
    if schema not in _SCHEMAS:
        raise binio.FormatError(f"unknown buffer schema {schema!r}")
    cls = _SCHEMAS[schema]
    scene_id = binio.text(named, "scene")
    try:
        return cls(**{name: named.get(name) for name, *_ in cls.LAYOUT}, scene_id=scene_id)
    except ValueError as exc:
        raise binio.FormatError(f"{cls.__name__}: {exc}") from exc
