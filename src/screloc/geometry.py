"""Camera geometry: pinhole projection, SE(3) poses, PnP, RANSAC, pose metrics.

Pose convention is world-from-camera throughout: y_world = R @ y_cam + t,
so t is the camera center in world coordinates. All functions are pure and
operate on float64 numpy arrays. The pinhole is written once, in `_pixels`.

2D-3D matches come in one array form, `Matches`: pixels (n, 2), points
(n, 3) and an optional per-match sigma (n,), carried but not yet read. Only
`ransac_pnp` also takes a sequence of bare `Correspondence2D3D`, which
`Matches.of`, the one conversion, turns into arrays once. There the DLT
(`pnp_minimal`) solves only 6-match samples, and Gauss-Newton (`refine_pose`)
starts from the best sample's pose, over its inliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Z_MIN = 0.1  # points closer than this (or behind) count as invalid projections
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
_RIDGE6 = 1e-12 * np.eye(6)  # keeps the Gauss-Newton normal equations solvable
_RIDGE6.setflags(write=False)
_REFINE_ITERS = 20  # Gauss-Newton steps a refinement takes at most
# (lo, hi) of a stored rotation's entries: past +-2 no rotation is orthonormal,
ROTATION_BOUNDS = (-2.0, 2.0)  # and PoseSE3's r.T @ r could overflow


class SolverDegenerateError(RuntimeError):
    """Minimal PnP system is rank deficient (e.g. collinear points)."""


class LocalizationFailure(RuntimeError):
    """RANSAC found no hypothesis with enough inliers."""


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf
                and -math.inf < self.cx < math.inf and -math.inf < self.cy < math.inf):
            raise ValueError("intrinsics must be finite, with positive focal lengths")

    def as_array(self) -> np.ndarray:
        return np.array([self.fx, self.fy, self.cx, self.cy], dtype=np.float64)


@dataclass(frozen=True)
class PoseSE3:
    """World-from-camera rigid transform."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if not np.abs(r.T @ r - _EYE3).max() <= 1e-6 or _det3(r) < 0:
            raise ValueError("rotation is not a proper orthonormal matrix")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


@dataclass
class Correspondence2D3D:
    """A pixel (2 values) and a point (3 values), unchecked: see `Matches.of`."""

    pixel: np.ndarray
    point: np.ndarray


def _det3(m: np.ndarray) -> float:
    """Determinant of a 3x3 matrix, by cofactors along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _pixels(K: Intrinsics, cam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, z with |z| <= 1e-12 set to 1e-12) of camera-frame points (..., 3)."""
    z = cam[..., 2]
    zs = np.where(np.abs(z) > 1e-12, z, 1e-12)
    return K.fx * cam[..., 0] / zs + K.cx, K.fy * cam[..., 1] / zs + K.cy, zs


def project_many(K: Intrinsics, poses: list[PoseSE3],
                 pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of an (n,3) array into each of a sequence of F
    poses at once; returns (pixels (F,n,2), camera-frame points (F,n,3)),
    whose last column is the depth."""
    rotation = np.stack([p.rotation for p in poses])
    translation = np.stack([p.translation for p in poses])[:, None]
    # one matrix product per pose, as numpy's matmul loops over the stack
    cam = (np.asarray(pts, dtype=np.float64) - translation) @ rotation
    u, v, _ = _pixels(K, cam)
    return np.stack([u, v], axis=-1), cam


def rodrigues(omega: np.ndarray) -> np.ndarray:
    """Axis-angle vector to rotation matrix."""
    theta = np.linalg.norm(omega)
    if theta < 1e-12:
        w = _skew(omega)
        return _EYE3 + w + 0.5 * (w @ w)
    axis = omega / theta
    w = _skew(axis)
    return _EYE3 + math.sin(theta) * w + (1.0 - math.cos(theta)) * (w @ w)


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def rotation_about_axis(axis: np.ndarray, degrees: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    return rodrigues(axis / np.linalg.norm(axis) * math.radians(degrees))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation (QR of a Gaussian matrix with sign fix)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if _det3(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def look_at(center: np.ndarray, target: np.ndarray) -> PoseSE3:
    """World-from-camera pose looking from center toward target (image y down),
    with +z as the world's up."""
    center = np.asarray(center, dtype=np.float64)
    f = np.asarray(target, dtype=np.float64) - center
    f = f / np.linalg.norm(f)
    x = _cross(f, np.array([0.0, 0.0, 1.0]))
    n = np.linalg.norm(x)
    if n < 1e-9:  # looking straight along up: pick another reference
        x = _cross(f, np.array([0.0, 1.0, 0.0]))
        n = np.linalg.norm(x)
    x = x / n
    y = _cross(f, x)
    return PoseSE3(np.stack([x, y, f], axis=1), center)


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors, with its multiply/subtract order and so its bits."""
    (u0, u1, u2), (v0, v1, v2) = u.tolist(), v.tolist()
    return np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


@dataclass(frozen=True, eq=False)
class Matches:
    """2D-3D matches as arrays of exactly pixels (n, 2), points (n, 3), sigma (n,) or None.

    `len()` is the match count. Indexing with a slice, an integer array or
    a boolean mask selects rows of every array and returns a `Matches`.
    """

    pixels: np.ndarray
    points: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        pix = np.asarray(self.pixels, dtype=np.float64)
        pts = np.asarray(self.points, dtype=np.float64)
        if pix.ndim != 2 or pix.shape[1] != 2 or pts.shape != (len(pix), 3):
            raise ValueError(f"pixels {pix.shape} and points {pts.shape}, not (n, 2) and (n, 3)")
        object.__setattr__(self, "pixels", pix)
        object.__setattr__(self, "points", pts)
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=np.float64)
            if sigma.shape != (len(pix),):
                raise ValueError(f"{len(pix)} matches but sigma of shape {sigma.shape}")
            if not np.all(sigma > 0):
                raise ValueError("sigma must be positive when present")
            object.__setattr__(self, "sigma", sigma)

    @staticmethod
    def of(corrs) -> "Matches":
        """The array form of a sequence of `Correspondence2D3D`, without sigma;
        a `Matches` is returned as it is. ValueError unless every pixel holds 2
        values and every point 3, in any shape."""
        if isinstance(corrs, Matches):
            return corrs
        n = len(corrs)  # rows of 2 and 3 values, not any reshapeable total
        return Matches(np.array([c.pixel for c in corrs], dtype=np.float64).reshape(n, 2),
                       np.array([c.point for c in corrs], dtype=np.float64).reshape(n, 3))

    def __len__(self) -> int:
        return len(self.pixels)

    def __getitem__(self, rows) -> "Matches":
        return Matches(self.pixels[rows], self.points[rows],
                       None if self.sigma is None else self.sigma[rows])


def pnp_minimal(matches: Matches, K: Intrinsics) -> PoseSE3:
    """Linear 6+ point DLT, decomposed via nearest-orthonormal projection; in
    `ransac_pnp` it solves only 6-match samples. Match i, with point X and
    normalized pixel (x, y), fills rows a[i] = ([X 1 | 0 | -x (X 1)], [0 | X 1 |
    -y (X 1)]) of the (n, 2, 12) system a. Raises ValueError below 6 matches
    and SolverDegenerateError on a rank-deficient or zero-scale system."""
    if len(matches) < 6:
        raise ValueError("pnp_minimal needs at least 6 correspondences")
    pts, pix = matches.points, matches.pixels
    a = np.zeros((len(pts), 2, 12))
    a[:, 0, :3] = pts
    a[:, 0, 3] = 1.0
    a[:, 1, 4:8] = a[:, 0, :4]
    # normalized camera coordinates keep the system well conditioned
    xy = (pix - (K.cx, K.cy)) / (K.fx, K.fy)
    a[:, :, 8:] = -xy[:, :, None] * a[:, :1, :4]

    # only s and vt are read: the thin SVD skips the (2n, 2n) U factor
    _, s, vt = np.linalg.svd(a.reshape(-1, 12), full_matrices=False)
    if s[10] <= 1e-9 * s[0]:
        raise SolverDegenerateError("rank-deficient PnP system")
    m = vt[-1].reshape(3, 4)

    # fix sign so depths are positive, then factor out the scale
    depths = a[:, 0, :4] @ m[2]
    if np.count_nonzero(depths > 0) < np.count_nonzero(depths < 0):
        m = -m
    u, sv, vt3 = np.linalg.svd(m[:, :3])
    scale = sv.sum() / 3
    if scale <= 1e-12:
        raise SolverDegenerateError("zero-scale PnP solution")
    # u @ diag(1, 1, sign(det)) @ vt3: the nearest rotation, not a reflection
    if _det3(u @ vt3) < 0:
        u[:, 2] = -u[:, 2]
    r_cw = u @ vt3
    t_cw = m[:, 3] / scale
    return PoseSE3(r_cw.T, -r_cw.T @ t_cw)


def reprojection_errors(pose: PoseSE3, matches: Matches, K: Intrinsics) -> np.ndarray:
    """Per-correspondence pixel errors; invalid depth maps to +inf."""
    cam = (matches.points - pose.translation) @ pose.rotation
    u, v, _ = _pixels(K, cam)
    dx = u - matches.pixels[:, 0]
    dy = v - matches.pixels[:, 1]
    return np.where(cam[:, 2] > Z_MIN, np.sqrt(dx * dx + dy * dy), np.inf)


def refine_pose(pose0: PoseSE3, matches: Matches, K: Intrinsics) -> PoseSE3:
    """Gauss-Newton on summed squared reprojection error.

    The pose increment is a 6-vector (axis-angle, translation) applied on
    the camera-from-world side. A step is taken only when it strictly lowers
    the cost, and the first step that does not, or a singular solve, ends the
    refinement, so the result never costs more than `pose0`.
    """
    pts, pix = matches.points, matches.pixels
    r_cw = pose0.rotation.T.copy()
    t_cw = -r_cw @ pose0.translation

    def residuals(rc, tc):  # (stacked residuals, rotated points, camera points, depths)
        rot = pts @ rc.T
        cam = rot + tc
        u, v, zs = _pixels(K, cam)
        return (np.stack([u, v], axis=1) - pix).reshape(-1), rot, cam, zs

    res, u, cam, zs = residuals(r_cw, t_cw)
    cost = float(res @ res)
    if not np.isfinite(cost):
        raise FloatingPointError("non-finite initial reprojection cost")

    for _ in range(_REFINE_ITERS):
        # d(pixel)/d(cam point) is [[ax, 0, bx], [0, ay, by]]
        ax = K.fx / zs
        bx = -K.fx * cam[:, 0] / zs**2
        ay = K.fy / zs
        by = -K.fy * cam[:, 1] / zs**2
        # d(cam point)/d(omega, dt) is [-[u]x | I]: rotation perturbs about the
        # camera origin, and u is the rotated points that `residuals` formed. The
        # Jacobian is their product, written out term by term.
        jac = np.zeros((len(pts), 2, 6))
        jac[:, 0, 0] = bx * u[:, 1]
        jac[:, 0, 1] = ax * u[:, 2] - bx * u[:, 0]
        jac[:, 0, 2] = -ax * u[:, 1]
        jac[:, 0, 3] = ax
        jac[:, 0, 5] = bx
        jac[:, 1, 0] = by * u[:, 1] - ay * u[:, 2]
        jac[:, 1, 1] = -by * u[:, 0]
        jac[:, 1, 2] = ay * u[:, 0]
        jac[:, 1, 4] = ay
        jac[:, 1, 5] = by
        jac = jac.reshape(-1, 6)

        try:
            delta = np.linalg.solve(jac.T @ jac + _RIDGE6, -(jac.T @ res))
        except np.linalg.LinAlgError:
            break
        r_new = rodrigues(delta[:3]) @ r_cw
        t_new = t_cw + delta[3:]
        new = residuals(r_new, t_new)
        cost_new = float(new[0] @ new[0])
        if not cost_new < cost:  # a NaN cost ends it too
            break
        r_cw, t_cw, cost, (res, u, cam, zs) = r_new, t_new, cost_new, new
        if cost < 1e-20:
            break

    return PoseSE3(r_cw.T, -r_cw.T @ t_cw)


@dataclass
class RansacConfig:
    inlier_thresh_px: float = 10.0
    max_iters: int = 1024
    confidence: float = 0.9999
    min_inliers: int = 6

    def __post_init__(self):
        if not self.inlier_thresh_px > 0:
            raise ValueError(f"inlier_thresh_px must be > 0, got {self.inlier_thresh_px}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.min_inliers < 6:  # fewer inliers than a 6-match sample confirm nothing
            raise ValueError(f"min_inliers must be >= 6, got {self.min_inliers}")


def ransac_pnp(corrs, K: Intrinsics, cfg: RansacConfig | None = None,
               seed: int = 0) -> tuple[PoseSE3, np.ndarray]:
    """Robust pose from 2D-3D matches; returns (pose, boolean inlier mask).

    Each hypothesis is `pnp_minimal` on a random 6-match sample; the best one's
    inliers all reproject within the threshold at z > Z_MIN, and its own pose
    is refined over them. Deterministic given the seed. Raises ValueError for
    shapes `Matches.of` refuses or a non-finite pixel or point;
    LocalizationFailure below 6 matches or min_inliers; and, from 512 matches
    on, the stopping rule's ZeroDivisionError once 1 - w**6 rounds to 1.0.
    """
    cfg = cfg or RansacConfig()
    matches = Matches.of(corrs)
    n = len(matches)
    finite = np.isfinite(matches.pixels).all(axis=1) & np.isfinite(matches.points).all(axis=1)
    if not finite.all():
        raise ValueError(f"{n - np.count_nonzero(finite)} of {n} matches have a non-finite "
                         "pixel or point")
    if n < 6:
        raise LocalizationFailure(f"need at least 6 correspondences, got {n}")
    rng = np.random.default_rng(seed)

    best_count, best_pose, best_mask = 0, None, None
    needed = cfg.max_iters
    i = 0
    while i < needed:
        i += 1
        sample = rng.choice(n, size=6, replace=False)
        try:
            pose = pnp_minimal(matches[sample], K)
        except SolverDegenerateError:
            continue
        mask = reprojection_errors(pose, matches, K) < cfg.inlier_thresh_px
        count = np.count_nonzero(mask)
        if count > best_count:
            best_count, best_pose, best_mask = count, pose, mask
            w = count / n
            if w >= 1.0 - 1e-12:
                break
            denom = math.log(1.0 - w**6)
            needed = min(cfg.max_iters, int(math.ceil(math.log(1.0 - cfg.confidence) / denom)))

    if best_count < cfg.min_inliers:
        raise LocalizationFailure(f"best hypothesis had {best_count} inliers")

    pose = refine_pose(best_pose, matches[best_mask], K)
    final_mask = reprojection_errors(pose, matches, K) < cfg.inlier_thresh_px
    if int(final_mask.sum()) < cfg.min_inliers:
        final_mask = best_mask
    return pose, final_mask


def pose_error(est: PoseSE3, gt: PoseSE3) -> tuple[float, float]:
    """(translation error in scene units, rotation error in degrees)."""
    t_err = float(np.linalg.norm(est.translation - gt.translation))
    c = (np.trace(gt.rotation.T @ est.rotation) - 1.0) / 2.0
    r_err = math.degrees(math.acos(min(1.0, max(-1.0, c))))
    return t_err, r_err
