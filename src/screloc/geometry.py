"""Camera geometry: pinhole projection, SE(3) poses, PnP, RANSAC, pose metrics.

Pose convention is world-from-camera throughout: y_world = R @ y_cam + t,
so t is the camera center in world coordinates. All functions are pure and
operate on float64 numpy arrays.

The pinhole is written once, in `_pixels`, and `project_many`,
`reprojection_errors` and `refine_pose` all project through it.

2D-3D matches come in one array form, `Matches`: pixels (n, 2), points
(n, 3) and an optional per-match sigma (n,), which is carried but not yet
read. `pnp_minimal`, `reprojection_errors` and `refine_pose` take only that
form. `ransac_pnp` alone also takes a sequence of `Correspondence2D3D`; it
converts its input once, and each hypothesis then works on a row subset of
the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Z_MIN = 0.1  # points closer than this (or behind) count as invalid projections
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
_RIDGE6 = 1e-12 * np.eye(6)  # keeps the LM normal equations solvable
_RIDGE6.setflags(write=False)


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
    pixel: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        self.pixel = np.asarray(self.pixel, dtype=np.float64).reshape(2)
        self.point = np.asarray(self.point, dtype=np.float64).reshape(3)


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
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
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
        a `Matches` is returned as it is."""
        if isinstance(corrs, Matches):
            return corrs
        return Matches(np.array([c.pixel for c in corrs], dtype=np.float64).reshape(-1, 2),
                       np.array([c.point for c in corrs], dtype=np.float64).reshape(-1, 3))

    def __len__(self) -> int:
        return len(self.pixels)

    def __getitem__(self, rows) -> "Matches":
        return Matches(self.pixels[rows], self.points[rows],
                       None if self.sigma is None else self.sigma[rows])


def pnp_minimal(matches: Matches, K: Intrinsics) -> PoseSE3:
    """Linear 6+ point DLT, decomposed via nearest-orthonormal projection."""
    if len(matches) < 6:
        raise ValueError("pnp_minimal needs at least 6 correspondences")
    pts, pix = matches.points, matches.pixels
    # work in normalized camera coordinates to keep the system well conditioned
    xn = (pix[:, 0] - K.cx) / K.fx
    yn = (pix[:, 1] - K.cy) / K.fy

    n = len(pts)
    homog = np.empty((n, 4))
    homog[:, :3] = pts
    homog[:, 3] = 1.0
    a = np.zeros((2 * n, 12))
    a[0::2, 0:4] = homog
    a[0::2, 8:12] = -xn[:, None] * homog
    a[1::2, 4:8] = homog
    a[1::2, 8:12] = -yn[:, None] * homog

    # only s and vt are read: the thin SVD skips the (2n, 2n) U factor
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[10] <= 1e-9 * s[0]:
        raise SolverDegenerateError("rank-deficient PnP system")
    m = vt[-1].reshape(3, 4)

    # fix sign so depths are positive, then factor out the scale
    depths = homog @ m[2]
    if np.count_nonzero(depths > 0) < np.count_nonzero(depths < 0):
        m = -m
    u, sv, vt3 = np.linalg.svd(m[:, :3])
    scale = sv.sum() / 3
    if scale <= 1e-12:
        raise SolverDegenerateError("zero-scale PnP solution")
    # u @ diag(1, 1, det) @ vt3, with the diagonal applied as a column scale
    u[:, 2] *= np.linalg.det(u @ vt3)
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


def refine_pose(pose0: PoseSE3, matches: Matches, K: Intrinsics, iters: int = 20) -> PoseSE3:
    """Levenberg-Marquardt on summed squared reprojection error.

    The pose increment is a 6-vector (axis-angle, translation) applied on
    the camera-from-world side; accepted steps never increase the cost.
    """
    pts, pix = matches.points, matches.pixels
    r_cw = pose0.rotation.T.copy()
    t_cw = -r_cw @ pose0.translation

    def residuals(rc, tc):
        cam = pts @ rc.T + tc
        u, v, zs = _pixels(K, cam)
        return (np.stack([u, v], axis=1) - pix).reshape(-1), cam, zs

    res, cam, zs = residuals(r_cw, t_cw)
    cost = float(res @ res)
    if not np.isfinite(cost):
        raise FloatingPointError("non-finite initial reprojection cost")

    lam = 1e-3
    n = len(pts)
    for _ in range(iters):
        # d(pixel)/d(cam point) is [[ax, 0, bx], [0, ay, by]]
        ax = K.fx / zs
        bx = -K.fx * cam[:, 0] / zs**2
        ay = K.fy / zs
        by = -K.fy * cam[:, 1] / zs**2
        # d(cam point)/d(omega, dt) is [-[u]x | I]: rotation perturbs about the
        # camera origin. The Jacobian is their product, written out term by term.
        u = pts @ r_cw.T
        jac = np.zeros((n, 2, 6))
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

        jtj = jac.T @ jac
        jtr = jac.T @ res
        damping = np.diag(np.diag(jtj))
        improved = False
        for _ in range(8):
            try:
                delta = np.linalg.solve(jtj + lam * damping + _RIDGE6, -jtr)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            r_new = rodrigues(delta[:3]) @ r_cw
            t_new = t_cw + delta[3:]
            res_new, cam_new, zs_new = residuals(r_new, t_new)
            cost_new = float(res_new @ res_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                r_cw, t_cw, res, cam, zs, cost = r_new, t_new, res_new, cam_new, zs_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                improved = True
                break
            lam *= 4.0
        if not improved or cost < 1e-20:
            break

    return PoseSE3(r_cw.T, -r_cw.T @ t_cw)


@dataclass
class RansacConfig:
    inlier_thresh_px: float = 10.0
    max_iters: int = 1024
    confidence: float = 0.9999
    min_inliers: int = 6
    refine_iters: int = 20

    def __post_init__(self):
        if not self.inlier_thresh_px > 0:
            raise ValueError(f"inlier_thresh_px must be > 0, got {self.inlier_thresh_px}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.min_inliers < 6:  # the final fit on the inliers is a 6+ point DLT
            raise ValueError(f"min_inliers must be >= 6, got {self.min_inliers}")
        if self.refine_iters < 0:
            raise ValueError(f"refine_iters must be >= 0, got {self.refine_iters}")


def ransac_pnp(corrs, K: Intrinsics, cfg: RansacConfig | None = None,
               seed: int = 0) -> tuple[PoseSE3, np.ndarray]:
    """Robust pose from 2D-3D matches; returns (pose, boolean inlier mask).

    Deterministic given the seed; raises LocalizationFailure when no
    hypothesis reaches min_inliers and ValueError when a pixel or point is
    not finite.
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

    best_count = 0
    best_mask: np.ndarray | None = None
    needed = cfg.max_iters
    i = 0
    while i < min(needed, cfg.max_iters):
        sample = rng.choice(n, size=6, replace=False)
        try:
            pose = pnp_minimal(matches[sample], K)
        except SolverDegenerateError:
            i += 1
            continue
        err = reprojection_errors(pose, matches, K)
        mask = err < cfg.inlier_thresh_px
        count = np.count_nonzero(mask)
        if count > best_count:
            best_count = count
            best_mask = mask
            w = count / n
            if w >= 1.0 - 1e-12:
                break
            denom = math.log(max(1.0 - w**6, 1e-12))
            needed = min(cfg.max_iters, int(math.ceil(math.log(1.0 - cfg.confidence) / denom)))
        i += 1

    if best_mask is None or best_count < cfg.min_inliers:
        raise LocalizationFailure(f"best hypothesis had {best_count} inliers")

    inliers = matches[best_mask]
    pose0 = pnp_minimal(inliers, K)
    pose = refine_pose(pose0, inliers, K, iters=cfg.refine_iters)
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
