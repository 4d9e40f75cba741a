"""Synthetic scenes, trajectories, and a procedural patch-feature oracle.

Stands in for an image encoder plus real capture data: scenes are random
point sets with appearance latents, views are camera poses on a jittered
orbit, and the feature oracle turns (appearance, view direction, condition)
into patch embeddings. The `condition` scalar controls a reproducible
embedding drift between mapping (condition 0) and query views, which is
the knob that creates a mapping-to-query generalization gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import binio
from .geometry import Intrinsics, PoseSE3, Z_MIN, look_at, project_many

SCENE_MAGIC = b"ACEGSCN1"
SCENE_VERSION = 1

ROLE_MAPPING = 0
ROLE_QUERY = 1


@dataclass
class WorldConfig:
    n_points: int = 512
    box: tuple[float, float, float] = (4.0, 4.0, 3.0)   # centered on the origin
    latent_dim: int = 16
    d_feat: int = 32
    alpha: float = 0.5          # condition-shift strength
    beta: float = 0.1           # view-direction dependence
    sigma_noise: float = 0.05
    image_size: tuple[int, int] = (256, 256)            # (W, H)
    focal: float = 128.0
    orbit_frames: int = 24
    min_visible: int = 32

    def intrinsics(self) -> Intrinsics:
        w, h = self.image_size
        return Intrinsics(self.focal, self.focal, w / 2.0, h / 2.0)


@dataclass
class Scene:
    points: np.ndarray           # (n, 3) float64
    latents: np.ndarray          # (n, k) float64, unit norm rows
    box: tuple[float, float, float]
    scene_id: str
    seed: int

    @property
    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)


def make_observations(pixels: np.ndarray, embeddings: np.ndarray, point_index: np.ndarray,
                      y_world: np.ndarray) -> np.recarray:
    """One read-only record per patch: pixel (2,) f8, embedding (d,) f4,
    point_index u4 and y_world (3,) f8."""
    obs = np.recarray(len(point_index), dtype=[
        ("pixel", "<f8", (2,)), ("embedding", "<f4", (embeddings.shape[1],)),
        ("point_index", "<u4"), ("y_world", "<f8", (3,))])
    obs.pixel = pixels
    obs.embedding = embeddings
    obs.point_index = point_index
    obs.y_world = y_world
    obs.flags.writeable = False
    return obs


@dataclass
class ViewRender:
    pose: PoseSE3
    intrinsics: Intrinsics
    condition: float
    role: int                    # ROLE_MAPPING or ROLE_QUERY
    observations: np.recarray    # see make_observations

    def pixels(self) -> np.ndarray:
        return self.observations.pixel

    def embeddings(self) -> np.ndarray:
        return self.observations.embedding

    def points(self) -> np.ndarray:
        return self.observations.y_world


@dataclass
class SplitConfig:
    scheme: str = "interspersed"      # or "query-mapping-query"
    min_interval: int = 2
    max_interval: int = 6


class FeatureOracle:
    """Frozen random nonlinear maps from appearance/view to embeddings.

    e = F(a) + alpha * condition * G(a) + beta * B(v) + noise, with F, G, B
    fixed per experiment by the oracle seed and shared across scenes.
    """

    def __init__(self, latent_dim: int, d_feat: int, alpha: float, beta: float,
                 sigma_noise: float, seed: int):
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(latent_dim)
        self.w_f = rng.normal(0, scale, size=(d_feat, latent_dim))
        self.b_f = rng.normal(0, 0.3, size=d_feat)
        self.w_g = rng.normal(0, scale, size=(d_feat, latent_dim))
        self.b_g = rng.normal(0, 0.3, size=d_feat)
        self.w_b = rng.normal(0, 1.0 / np.sqrt(3.0), size=(d_feat, 3))
        self.alpha = alpha
        self.beta = beta
        self.sigma_noise = sigma_noise
        self.seed = seed

    def embed(self, appearance: np.ndarray, view_dir: np.ndarray, condition: float,
              noise_rng: np.random.Generator | None = None) -> np.ndarray:
        """Batched: appearance (n, k), view_dir (n, 3) unit rows -> (n, d_feat)."""
        if not 0.0 <= condition <= 1.0:
            raise ValueError("condition must be in [0, 1]")
        appearance = np.atleast_2d(appearance)
        view_dir = np.atleast_2d(view_dir)
        e = np.tanh(appearance @ self.w_f.T + self.b_f)
        e = e + self.alpha * condition * np.tanh(appearance @ self.w_g.T + self.b_g)
        e = e + self.beta * np.tanh(view_dir @ self.w_b.T)
        if noise_rng is not None and self.sigma_noise > 0:
            e = e + noise_rng.normal(0, self.sigma_noise, size=e.shape)
        return e


def gen_scene(cfg: WorldConfig, seed: int, scene_id: str = "") -> Scene:
    """Uniform points in the centered box, unit-norm appearance latents."""
    if cfg.n_points < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    half = np.array(cfg.box) / 2.0
    points = rng.uniform(-half, half, size=(cfg.n_points, 3))
    latents = rng.normal(size=(cfg.n_points, cfg.latent_dim))
    latents /= np.linalg.norm(latents, axis=1, keepdims=True)
    return Scene(points, latents, cfg.box, scene_id or f"scene-{seed}", seed)


def _visible(scene: Scene, pose: PoseSE3, K: Intrinsics, image_size):
    """Pixels of every scene point, and the mask of those in front of the camera
    and inside the image."""
    w, h = image_size
    pix, z = project_many(K, pose, scene.points)
    ok = (z > Z_MIN) & (pix[:, 0] >= 0) & (pix[:, 0] < w) & (pix[:, 1] >= 0) & (pix[:, 1] < h)
    return pix, ok


def gen_trajectory(scene: Scene, cfg: WorldConfig, seed: int,
                   n_frames: int | None = None) -> list[PoseSE3]:
    """Smooth jittered arc around the scene centroid; every frame must see
    at least cfg.min_visible points.

    Step angle and positional jitter are bounded so consecutive camera
    centers move by less than 10% of the orbit radius.
    """
    n_frames = n_frames or cfg.orbit_frames
    if n_frames < 2:
        raise ValueError("need at least two frames")
    rng = np.random.default_rng(seed)
    K = cfg.intrinsics()
    center = scene.centroid
    base_radius = 1.1 * float(np.linalg.norm(np.array(scene.box)))
    for _ in range(32):  # bounded retries for the visibility constraint
        phase = rng.uniform(0, 2 * np.pi)
        step = rng.uniform(0.03, 0.05)  # radians per frame
        radius = base_radius * rng.uniform(0.9, 1.15)
        height = rng.uniform(0.1, 0.5) * scene.box[2]
        frames = []
        ok = True
        for i in range(n_frames):
            ang = phase + step * i
            jitter = 0.01 * radius * rng.uniform(-1.0, 1.0, size=3)
            cam = center + np.array([radius * np.cos(ang), radius * np.sin(ang), height]) + jitter
            target = center + 0.08 * np.array(scene.box) * rng.uniform(-1.0, 1.0, size=3)
            pose = look_at(cam, target)
            if np.count_nonzero(_visible(scene, pose, K, cfg.image_size)[1]) < cfg.min_visible:
                ok = False
                break
            frames.append(pose)
        if ok:
            return frames
    raise RuntimeError("could not satisfy the visibility constraint")


def render_view(scene: Scene, pose: PoseSE3, cfg: WorldConfig, oracle: FeatureOracle,
                condition: float, role: int, noise_seed: int) -> ViewRender:
    """Project all visible points and attach oracle embeddings."""
    K = cfg.intrinsics()
    pix, ok = _visible(scene, pose, K, cfg.image_size)
    idx = np.flatnonzero(ok)
    dirs = scene.points[idx] - pose.translation
    dirs = (dirs @ pose.rotation) / np.linalg.norm(dirs, axis=1, keepdims=True)
    noise_rng = np.random.default_rng(noise_seed)
    embs = oracle.embed(scene.latents[idx], dirs, condition, noise_rng).astype(np.float32)
    return ViewRender(pose, K, condition, role,
                      make_observations(pix[idx], embs, idx, scene.points[idx]))


def sample_split(n_frames: int, cfg: SplitConfig, seed: int) -> tuple[list[int], list[int]]:
    """Disjoint mapping/query frame index sets under the configured scheme."""
    if n_frames < 4:
        raise ValueError("need at least 4 frames to split")
    rng = np.random.default_rng(seed)
    lo, hi = cfg.min_interval, cfg.max_interval
    if cfg.scheme == "interspersed":
        mapping, query = [], []
        pos = 0
        is_mapping = bool(rng.integers(0, 2))
        while pos < n_frames:
            length = int(rng.integers(lo, hi + 1))
            dest = mapping if is_mapping else query
            dest.extend(range(pos, min(pos + length, n_frames)))
            pos += length
            is_mapping = not is_mapping
        if not mapping or not query:
            return sample_split(n_frames, cfg, seed + 1)
        return mapping, query
    if cfg.scheme == "query-mapping-query":
        q1 = int(rng.integers(lo, hi + 1))
        q2 = int(rng.integers(lo, hi + 1))
        q1 = min(q1, n_frames - 2)
        map_len = n_frames - q1 - q2
        if map_len < 1:
            q2 = max(1, n_frames - q1 - 1)
            map_len = n_frames - q1 - q2
        mapping = list(range(q1, q1 + map_len))
        query = list(range(0, q1)) + list(range(q1 + map_len, n_frames))
        if not mapping or not query:
            raise ValueError("degenerate query-mapping-query split")
        return mapping, query
    raise ValueError(f"unknown split scheme {cfg.scheme!r}")


@dataclass
class SceneTuple:
    """One rendered mapping/query configuration of a scene."""

    scene: Scene
    mapping_views: list[ViewRender]
    query_views: list[ViewRender]
    tuple_id: str


def render_tuple(scene: Scene, cfg: WorldConfig, oracle: FeatureOracle,
                 split_cfg: SplitConfig, seed: int, tuple_id: str = "",
                 query_condition: float = 1.0) -> SceneTuple:
    """Trajectory + split + renders: mapping at condition 0, queries shifted."""
    seq = np.random.SeedSequence(seed)
    traj_seed, split_seed, noise_seed = [int(s.generate_state(1)[0]) for s in seq.spawn(3)]
    frames = gen_trajectory(scene, cfg, traj_seed)
    map_idx, query_idx = sample_split(len(frames), split_cfg, split_seed)
    mapping_views = [render_view(scene, frames[i], cfg, oracle, 0.0, ROLE_MAPPING,
                                 noise_seed + 2 * i) for i in map_idx]
    query_views = [render_view(scene, frames[i], cfg, oracle, query_condition, ROLE_QUERY,
                               noise_seed + 2 * i + 1) for i in query_idx]
    return SceneTuple(scene, mapping_views, query_views, tuple_id or scene.scene_id)


# -- scene tuple file format -------------------------------------------------

def save_scene_tuple(path, tup: SceneTuple, cfg: WorldConfig) -> None:
    views = [(v, ROLE_MAPPING) for v in tup.mapping_views] + \
            [(v, ROLE_QUERY) for v in tup.query_views]
    with open(path, "wb") as fh:
        binio.write_magic(fh, SCENE_MAGIC)
        binio.write_u32(fh, SCENE_VERSION)
        binio.write_str(fh, tup.tuple_id)
        binio.write_str(fh, tup.scene.scene_id)
        binio.write_u32(fh, tup.scene.seed & 0xFFFFFFFF)
        binio.write_f64(fh, 1.0)  # scene-units scale
        for extent in tup.scene.box:
            binio.write_f64(fh, extent)
        binio.write_u32(fh, cfg.image_size[0])
        binio.write_u32(fh, cfg.image_size[1])
        binio.write_array(fh, tup.scene.points)
        binio.write_array(fh, tup.scene.latents)
        binio.write_u32(fh, len(views))
        for view, role in views:
            binio.write_u8(fh, role)
            binio.write_f64(fh, view.condition)
            binio.write_array(fh, view.intrinsics.as_array())
            binio.write_array(fh, view.pose.rotation)
            binio.write_array(fh, view.pose.translation)
            binio.write_u32(fh, len(view.observations))
            binio.write_array(fh, view.observations.point_index)
            binio.write_array(fh, view.pixels())
            binio.write_array(fh, view.embeddings())


def load_scene_tuple(path) -> tuple[SceneTuple, dict]:
    with open(path, "rb") as fh:
        binio.read_magic(fh, SCENE_MAGIC)
        version = binio.read_u32(fh)
        if version != SCENE_VERSION:
            raise binio.FormatError(f"unsupported scene version {version}")
        tuple_id = binio.read_str(fh)
        scene_id = binio.read_str(fh)
        seed = binio.read_u32(fh)
        scale = binio.read_f64(fh)
        box = tuple(binio.read_f64(fh) for _ in range(3))
        if not 0.0 < scale < math.inf:
            raise binio.FormatError(f"scene scale {scale}, expected a finite positive value")
        if not all(0.0 < extent < math.inf for extent in box):
            raise binio.FormatError(f"scene box {box}, expected 3 finite positive extents")
        image_size = (binio.read_u32(fh), binio.read_u32(fh))
        points = binio.read_array(fh)
        if points.ndim != 2 or points.shape[1] != 3:
            raise binio.FormatError(f"scene points of shape {points.shape}, expected (n, 3)")
        if not np.isfinite(points).all():
            raise binio.FormatError("non-finite scene points")
        latents = binio.read_array(fh)
        if latents.ndim != 2 or len(latents) != len(points):
            raise binio.FormatError(f"scene latents of shape {latents.shape}, "
                                    f"expected {len(points)} rows")
        scene = Scene(points, latents, box, scene_id, seed)
        n_views = binio.read_u32(fh)
        mapping_views, query_views = [], []
        for _ in range(n_views):
            role = binio.read_u8(fh)
            if role not in (ROLE_MAPPING, ROLE_QUERY):
                raise binio.FormatError(f"unknown view role {role}")
            condition = binio.read_f64(fh)
            if not 0.0 <= condition <= 1.0:
                raise binio.FormatError(f"view condition {condition}, expected a value in [0, 1]")
            k = binio.read_array(fh)
            rot = binio.read_array(fh)
            trans = binio.read_array(fh)
            n_obs = binio.read_u32(fh)
            point_idx = binio.read_array(fh)
            pixels = binio.read_array(fh)
            embs = binio.read_array(fh)
            if point_idx.dtype != np.uint32 or point_idx.shape != (n_obs,):
                raise binio.FormatError(f"point indices of {point_idx.dtype} {point_idx.shape}, "
                                        f"expected uint32 ({n_obs},)")
            if pixels.shape != (n_obs, 2):
                raise binio.FormatError(f"pixels of shape {pixels.shape}, expected ({n_obs}, 2)")
            if embs.ndim != 2 or len(embs) != n_obs:
                raise binio.FormatError(f"embeddings of shape {embs.shape}, expected {n_obs} rows")
            if n_obs and point_idx.max() >= len(points):
                raise binio.FormatError(f"point index {point_idx.max()} past {len(points)} points")
            if not (np.isfinite(pixels).all() and np.isfinite(embs).all()):
                raise binio.FormatError("non-finite pixels or embeddings")
            if k.shape != (4,) or not np.isfinite(k).all():
                raise binio.FormatError(f"intrinsics of shape {k.shape}, expected 4 finite values")
            if rot.shape != (3, 3):
                raise binio.FormatError(f"rotation of shape {rot.shape}, expected (3, 3)")
            if trans.shape != (3,) or not np.isfinite(trans).all():
                raise binio.FormatError(f"translation of shape {trans.shape}, "
                                        "expected 3 finite values")
            try:
                pose, intrinsics = PoseSE3(rot, trans), Intrinsics(*k.tolist())
            except ValueError as exc:
                raise binio.FormatError(f"view camera: {exc}") from exc
            view = ViewRender(pose, intrinsics, condition, role,
                              make_observations(pixels, embs, point_idx, points[point_idx]))
            (mapping_views if role == ROLE_MAPPING else query_views).append(view)
    meta = {"scale": scale, "image_size": image_size}
    return SceneTuple(scene, mapping_views, query_views, tuple_id), meta
