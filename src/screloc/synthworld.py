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
from .geometry import ROTATION_BOUNDS, Intrinsics, PoseSE3, Z_MIN, look_at, project_many

SCENE_MAGIC = b"ACEGSCN2"

ROLE_MAPPING = 0
ROLE_QUERY = 1
SPLIT_ATTEMPTS = 1000  # seeds an interspersed split draws before it gives up


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

    def __post_init__(self):
        if len(self.box) != 3 or not all(0.0 < extent < math.inf for extent in self.box):
            raise ValueError(f"box {self.box}, expected 3 finite positive extents")
        for name in ("n_points", "latent_dim", "d_feat"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.sigma_noise < math.inf:
            raise ValueError(f"sigma_noise {self.sigma_noise}, expected a finite value >= 0")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha {self.alpha} and beta {self.beta}, expected finite values")
        if len(self.image_size) != 2 or min(self.image_size) < 1:
            raise ValueError(f"image_size {self.image_size}, expected a positive (W, H)")
        if not 0.0 < self.focal < math.inf:
            raise ValueError(f"focal {self.focal}, expected a finite positive value")
        if self.orbit_frames < 4:
            raise ValueError("orbit_frames must be >= 4, as the split needs")
        if not 0 <= self.min_visible <= self.n_points:
            raise ValueError(f"min_visible {self.min_visible}, expected a value in [0, n_points]")

    def intrinsics(self) -> Intrinsics:
        w, h = self.image_size
        return Intrinsics(self.focal, self.focal, w / 2.0, h / 2.0)


@dataclass
class Scene:
    points: np.ndarray           # (n, 3) float64
    latents: np.ndarray          # (n, k) float64, unit norm rows
    box: tuple[float, float, float]
    scene_id: str

    @property
    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)


def _observation_table(points: np.ndarray, point_index: np.ndarray, d_feat: int) -> np.ndarray:
    """A writable structured table of one record per patch (pixel (2,) f8,
    embedding (d_feat,) f4, point_index u4, y_world (3,) f8), with point_index and
    y_world = points[point_index] filled in; the caller writes the pixels and
    embeddings. Its `np.record` dtype gives a row its fields as attributes."""
    table = np.empty(len(point_index), dtype=(np.record, [
        ("pixel", "<f8", (2,)), ("embedding", "<f4", (d_feat,)),
        ("point_index", "<u4"), ("y_world", "<f8", (3,))]))
    table["point_index"] = point_index
    np.take(points, point_index, axis=0, out=table["y_world"])
    return table


def make_observations(points: np.ndarray, point_index: np.ndarray, pixels: np.ndarray,
                      embeddings: np.ndarray) -> np.ndarray:
    """The read-only `_observation_table` of patches of the given scene points,
    pixels (n, 2) and embeddings (n, d)."""
    table = _observation_table(points, point_index, embeddings.shape[1])
    table["pixel"] = pixels
    table["embedding"] = embeddings
    table.flags.writeable = False
    return table


def _view_rows(table: np.ndarray, counts) -> list[np.ndarray]:
    """Consecutive row ranges of an observation table, counts[i] rows for view i."""
    ends = np.cumsum(counts).tolist()
    return [table[start:end] for start, end in zip([0] + ends[:-1], ends)]


@dataclass
class ViewRender:
    pose: PoseSE3
    intrinsics: Intrinsics
    condition: float
    role: int                    # ROLE_MAPPING or ROLE_QUERY
    observations: np.ndarray     # see make_observations

    def pixels(self) -> np.ndarray:
        return self.observations["pixel"]

    def embeddings(self) -> np.ndarray:
        return self.observations["embedding"]

    def points(self) -> np.ndarray:
        return self.observations["y_world"]


@dataclass(frozen=True)
class SplitConfig:
    scheme: str = "interspersed"      # or "query-mapping-query"
    min_interval: int = 2
    max_interval: int = 6

    def __post_init__(self):
        if self.scheme not in ("interspersed", "query-mapping-query"):
            raise ValueError(f"unknown split scheme {self.scheme!r}")
        if self.min_interval < 1:
            raise ValueError("min_interval must be >= 1")
        if self.max_interval < self.min_interval:
            raise ValueError("max_interval must be >= min_interval")


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
        self.d_feat = d_feat
        self.alpha = alpha
        self.beta = beta
        self.sigma_noise = sigma_noise

    def appearance_terms(self, appearance: np.ndarray, conditions) -> dict[float, np.ndarray]:
        """The view-independent term F(a) + alpha * c * G(a) of (n, k) appearances,
        (n, d_feat), for each distinct condition c in [0, 1]; F and G are computed once."""
        for condition in conditions:
            if not 0.0 <= condition <= 1.0:
                raise ValueError("condition must be in [0, 1]")
        f = np.tanh(appearance @ self.w_f.T + self.b_f)
        g = np.tanh(appearance @ self.w_g.T + self.b_g)
        return {c: f + self.alpha * c * g for c in set(conditions)}

    def combine(self, terms: np.ndarray, view_dir: np.ndarray,
                noise_rng: np.random.Generator | None) -> np.ndarray:
        """Embeddings from rows of one condition's `appearance_terms` and view_dir
        (n, 3) unit rows."""
        e = np.tanh(np.atleast_2d(view_dir) @ self.w_b.T)
        e *= self.beta
        e += terms
        if noise_rng is not None and self.sigma_noise > 0:
            # normal(0, sigma_noise)'s draws without its + 0.0, which could
            # change only the sign of a zero sum
            noise = noise_rng.standard_normal(size=e.shape)
            noise *= self.sigma_noise
            e += noise
        return e


def gen_scene(cfg: WorldConfig, seed: int, scene_id: str = "") -> Scene:
    """Uniform points in the centered box, unit-norm appearance latents."""
    rng = np.random.default_rng(seed)
    half = np.array(cfg.box) / 2.0
    points = rng.uniform(-half, half, size=(cfg.n_points, 3))
    latents = rng.normal(size=(cfg.n_points, cfg.latent_dim))
    latents /= np.linalg.norm(latents, axis=1, keepdims=True)
    return Scene(points, latents, cfg.box, scene_id or f"scene-{seed}")


def _visible(scene: Scene, poses: list[PoseSE3], K: Intrinsics, image_size):
    """Pixels (F, n, 2) and camera-frame coordinates (F, n, 3) of every scene
    point in each of F poses, and the mask (F, n) of those in front of the
    camera and inside the image."""
    w, h = image_size
    pix, cam = project_many(K, poses, scene.points)
    ok = ((cam[..., 2] > Z_MIN) & (pix[..., 0] >= 0) & (pix[..., 0] < w)
          & (pix[..., 1] >= 0) & (pix[..., 1] < h))
    return pix, cam, ok


def gen_trajectory(scene: Scene, cfg: WorldConfig, seed: int,
                   n_frames: int | None = None) -> list[PoseSE3]:
    """Smooth jittered arc around the scene centroid of n_frames frames
    (cfg.orbit_frames when None, at least two); every frame must see at least
    cfg.min_visible points.

    Step angle and positional jitter are bounded so consecutive camera
    centers move by less than 10% of the orbit radius. The visibility check
    projects every scene point into every frame; `render_tuple` renders
    from those projections instead of projecting again.
    """
    return _trajectory(scene, cfg, seed, n_frames)[0]


def _trajectory(scene: Scene, cfg: WorldConfig, seed: int, n_frames: int | None):
    """`gen_trajectory`'s frames, and their `_visible` projections."""
    if n_frames is None:
        n_frames = cfg.orbit_frames
    if n_frames < 2:
        raise ValueError("need at least two frames")
    rng = np.random.default_rng(seed)
    K = cfg.intrinsics()
    center = scene.centroid
    box = np.array(scene.box)
    target_span = 0.08 * box
    base_radius = 1.1 * float(np.linalg.norm(box))
    for _ in range(32):  # bounded retries for the visibility constraint
        phase = rng.uniform(0, 2 * np.pi)
        step = rng.uniform(0.03, 0.05)  # radians per frame
        radius = base_radius * rng.uniform(0.9, 1.15)
        height = rng.uniform(0.1, 0.5) * scene.box[2]
        before = rng.bit_generator.state
        draws = rng.uniform(-1.0, 1.0, size=(n_frames, 6))  # a frame's jitter, then its target
        frames = []
        for i, draw in enumerate(draws):
            ang = phase + step * i
            cam = (center + np.array([radius * np.cos(ang), radius * np.sin(ang), height])
                   + 0.01 * radius * draw[:3])
            frames.append(look_at(cam, center + target_span * draw[3:]))
        sights = _visible(scene, frames, K, cfg.image_size)
        short = np.flatnonzero(np.count_nonzero(sights[2], axis=1) < cfg.min_visible)
        if not len(short):
            return frames, sights
        # the next attempt draws on from where a frame-by-frame check stops
        rng.bit_generator.state = before
        rng.uniform(-1.0, 1.0, size=(short[0] + 1, 6))
    raise RuntimeError("could not satisfy the visibility constraint")


def render_view(scene: Scene, pose: PoseSE3, cfg: WorldConfig, oracle: FeatureOracle,
                condition: float, role: int, noise_seed: int) -> ViewRender:
    """Project all visible points and attach oracle embeddings: the one-view
    case of `render_tuple`'s render."""
    K = cfg.intrinsics()
    (view,) = _render(scene, K, oracle, [pose], _visible(scene, [pose], K, cfg.image_size),
                      [(condition, role, noise_seed)])
    return view


def _render(scene: Scene, K: Intrinsics, oracle: FeatureOracle, poses, sights,
            shots) -> list[ViewRender]:
    """One view per pose, from the poses' `_visible` projections and each
    pose's (condition, role, noise seed), as consecutive row ranges of one
    read-only observation table in the order given. Roles and conditions are
    checked before any work."""
    for _, role, _ in shots:
        if role not in (ROLE_MAPPING, ROLE_QUERY):
            raise ValueError(f"unknown view role {role!r}")
    terms = oracle.appearance_terms(scene.latents, [condition for condition, _, _ in shots])
    # flat (view, point) indices of the visible points, views in the given order
    pixels, cams, ok = sights
    visible = np.flatnonzero(ok)
    view_of_row, point_index = np.divmod(visible, len(scene.points))
    counts = np.bincount(view_of_row, minlength=len(poses))
    table = _observation_table(scene.points, point_index, oracle.d_feat)
    np.take(pixels.reshape(-1, 2), visible, axis=0, out=table["pixel"])
    # camera-frame view directions over the world-frame offset's length: the
    # rotation keeps lengths only up to rounding, and the embeddings keep their
    # bits. The squares are summed in np.linalg.norm's order.
    offsets = scene.points - np.stack([pose.translation for pose in poses])[:, None]
    offsets *= offsets
    lengths = np.sqrt(offsets[..., 0] + offsets[..., 1] + offsets[..., 2]).reshape(-1)
    dirs = cams.reshape(-1, 3).take(visible, axis=0)
    dirs /= lengths.take(visible)[:, None]
    embeddings = table["embedding"]
    start = 0
    for (condition, _, noise_seed), count in zip(shots, counts.tolist()):
        rows = slice(start, start + count)
        embeddings[rows] = oracle.combine(terms[condition].take(point_index[rows], axis=0),
                                          dirs[rows], np.random.default_rng(noise_seed))
        start += count
    table.flags.writeable = False
    return [ViewRender(pose, K, condition, role, rows)
            for pose, (condition, role, _), rows in zip(poses, shots, _view_rows(table, counts))]


def sample_split(n_frames: int, cfg: SplitConfig, seed: int) -> tuple[list[int], list[int]]:
    """Disjoint mapping/query frame index sets under the configured scheme.

    An interspersed draw that gives every frame one role is drawn again
    with seed + 1, seed + 2, ...; ValueError after SPLIT_ATTEMPTS seeds.
    """
    if n_frames < 4:
        raise ValueError("need at least 4 frames to split")
    lo, hi = cfg.min_interval, cfg.max_interval
    if cfg.scheme == "query-mapping-query":
        rng = np.random.default_rng(seed)
        q1 = int(rng.integers(lo, hi + 1))
        q2 = int(rng.integers(lo, hi + 1))
        q1 = min(q1, n_frames - 2)
        map_len = max(1, n_frames - q1 - q2)  # 1 <= q1 <= n_frames - 2: query on both sides
        return (list(range(q1, q1 + map_len)),
                list(range(0, q1)) + list(range(q1 + map_len, n_frames)))
    for attempt in range(SPLIT_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        mapping, query = [], []
        pos = 0
        is_mapping = bool(rng.integers(0, 2))
        while pos < n_frames:
            length = int(rng.integers(lo, hi + 1))
            dest = mapping if is_mapping else query
            dest.extend(range(pos, min(pos + length, n_frames)))
            pos += length
            is_mapping = not is_mapping
        if mapping and query:
            return mapping, query
    raise ValueError(f"no interspersed split of {n_frames} frames into intervals of "
                     f"{lo} to {hi} frames in {SPLIT_ATTEMPTS} seeds")


@dataclass
class SceneTuple:
    """One rendered mapping/query configuration of a scene."""

    scene: Scene
    mapping_views: list[ViewRender]
    query_views: list[ViewRender]
    tuple_id: str


def render_tuple(scene: Scene, cfg: WorldConfig, oracle: FeatureOracle,
                 split_cfg: SplitConfig, seed: int, query_condition: float = 1.0) -> SceneTuple:
    """Trajectory + split + renders: mapping at condition 0, queries shifted.

    View i is `render_view(scene, frames[i], ..., noise_seed + 2i)` for mapping
    and `noise_seed + 2i + 1` for query views, bit for bit, but all views are
    rendered together: each frame's points are projected once, by the
    trajectory's visibility check, and reused; F(a) + alpha * c * G(a) is
    formed once per distinct condition c and each view gathers the rows of its
    visible points. The views are consecutive row ranges of one read-only
    observation table, mapping views first, in the order `save_scene_tuple`
    writes them. A query_condition outside [0, 1] raises before any render.
    """
    seq = np.random.SeedSequence(seed)
    traj_seed, split_seed, noise_seed = [int(s.generate_state(1)[0]) for s in seq.spawn(3)]
    frames, sights = _trajectory(scene, cfg, traj_seed, None)
    map_idx, query_idx = sample_split(len(frames), split_cfg, split_seed)
    order = map_idx + query_idx
    views = _render(scene, cfg.intrinsics(), oracle, [frames[i] for i in order],
                    [a[order] for a in sights],
                    [(0.0, ROLE_MAPPING, noise_seed + 2 * i) for i in map_idx]
                    + [(query_condition, ROLE_QUERY, noise_seed + 2 * i + 1) for i in query_idx])
    return SceneTuple(scene, views[:len(map_idx)], views[len(map_idx):], scene.scene_id)


# -- scene tuple file format -------------------------------------------------

# the arrays of a scene tuple, in file order after its text records `tuple` and
# `scene`, as `binio.check_records` rows: the scene box and the image size (W, H),
# the scene's n points, one row per view (V, mapping views first) and one per
# observation (N, in view order)
_TUPLE_RECORDS = (
    ("box", np.float64, (3,), None, None),
    ("image_size", np.uint32, (2,), 1, None),
    ("points", np.float64, ("n", 3), None, None),
    ("latents", np.float64, ("n", "k"), None, None),
    ("roles", np.uint8, ("V",), ROLE_MAPPING, ROLE_QUERY),
    ("conditions", np.float64, ("V",), 0.0, 1.0),
    ("intrinsics", np.float64, ("V", 4), None, None),
    ("rotations", np.float64, ("V", 3, 3), *ROTATION_BOUNDS),
    ("translations", np.float64, ("V", 3), None, None),
    ("counts", np.uint32, ("V",), None, None),
    ("point_index", np.uint32, ("N",), None, None),
    ("pixels", np.float64, ("N", 2), None, None),
    ("embeddings", np.float32, ("N", "d"), None, None),
)


def save_scene_tuple(path, tup: SceneTuple, cfg: WorldConfig) -> None:
    """Write `tup` (at least one view) as the text records `tuple` and `scene`,
    then one record per row of `_TUPLE_RECORDS`, in its order."""
    views, n_mapping = tup.mapping_views + tup.query_views, len(tup.mapping_views)
    arrays = {"box": tup.scene.box, "image_size": cfg.image_size,
              "points": tup.scene.points, "latents": tup.scene.latents,
              "roles": [ROLE_MAPPING] * n_mapping + [ROLE_QUERY] * (len(views) - n_mapping),
              "conditions": [v.condition for v in views],
              "intrinsics": [v.intrinsics.as_array() for v in views],
              "rotations": [v.pose.rotation for v in views],
              "translations": [v.pose.translation for v in views],
              "counts": [len(v.observations) for v in views]}
    for name, field in (("point_index", "point_index"), ("pixels", "pixel"),
                        ("embeddings", "embedding")):
        arrays[name] = np.concatenate([v.observations[field] for v in views])
    binio.save_records(path, SCENE_MAGIC, {
        "tuple": tup.tuple_id, "scene": tup.scene.scene_id,
        **{name: np.asarray(arrays[name], dtype) for name, dtype, *_ in _TUPLE_RECORDS}})


def load_scene_tuple(path) -> tuple[SceneTuple, dict]:
    """Read a scene tuple (see `save_scene_tuple`), and {"image_size": (W, H)}.

    `binio.check_records` checks every array against `_TUPLE_RECORDS`; then
    come the checks a table cannot state: positive box extents, counts that
    sum to N, point indices below n, each view's `PoseSE3` and `Intrinsics`.
    All observations form one read-only `make_observations` table, and each
    view holds its row range, as `render_tuple` lays them out.
    """
    named = binio.load_records(path, SCENE_MAGIC)
    tuple_id, scene_id = binio.text(named, "tuple"), binio.text(named, "scene")
    dims = binio.check_records(named, _TUPLE_RECORDS)
    box = tuple(named["box"].tolist())
    if min(box) <= 0.0:
        raise binio.FormatError(f"scene box {box}, expected 3 positive extents")
    points, counts, point_idx = named["points"], named["counts"], named["point_index"]
    if counts.sum() != dims["N"]:
        raise binio.FormatError(f"observation counts sum to {counts.sum()}, "
                                f"expected {dims['N']} records")
    if dims["N"] and point_idx.max() >= dims["n"]:
        raise binio.FormatError(f"point index {point_idx.max()} past {dims['n']} points")
    table = make_observations(points, point_idx, named["pixels"], named["embeddings"])
    mapping_views, query_views = [], []
    for role, condition, kvec, r, t, rows in zip(
            named["roles"].tolist(), named["conditions"].tolist(),
            named["intrinsics"].tolist(), named["rotations"], named["translations"],
            _view_rows(table, counts)):
        try:
            pose, intrinsics = PoseSE3(r, t), Intrinsics(*kvec)
        except ValueError as exc:
            raise binio.FormatError(f"view camera: {exc}") from exc
        view = ViewRender(pose, intrinsics, condition, role, rows)
        (mapping_views if role == ROLE_MAPPING else query_views).append(view)
    scene = Scene(points, named["latents"], box, scene_id)
    meta = {"image_size": tuple(named["image_size"].tolist())}
    return SceneTuple(scene, mapping_views, query_views, tuple_id), meta
