"""Output checks of the benchmark, computed apart from the program.

Every function returns a list of problems (empty when the check passes) so
that a run can report all of them. None of them calls `screloc.geometry`:
projections and pose errors are recomputed here from the stored arrays.
"""

from __future__ import annotations

import math

import numpy as np

# Largest pose error a successful relocalization may have, in scene units
# and degrees. Queries carry 0.5 px pixel noise and 10-50 % wrong matches;
# over 5,200 queries on ten seeds the largest errors were 0.41 units and
# 3.0 degrees (medians 0.033 and 0.25), with 4 above 2 degrees.
T_ERR_MAX = 1.0
R_ERR_MAX_DEG = 10.0
# Pinhole reprojection of a stored point must match its stored pixel this
# closely (float64 round-off only).
PIXEL_TOL = 1e-6


def pose_error(r_est, t_est, r_gt, t_gt) -> tuple[float, float]:
    """(translation error, rotation error in degrees) of world-from-camera poses."""
    t_err = float(np.sqrt(np.sum((np.asarray(t_est) - np.asarray(t_gt)) ** 2)))
    c = (float(np.sum(np.asarray(r_gt) * np.asarray(r_est))) - 1.0) / 2.0
    return t_err, math.degrees(math.acos(min(1.0, max(-1.0, c))))


def check_pose(r_est, t_est, r_gt, t_gt) -> list[str]:
    t_err, r_err = pose_error(r_est, t_est, r_gt, t_gt)
    if not (t_err <= T_ERR_MAX and r_err <= R_ERR_MAX_DEG):
        return [f"pose off by {t_err:.4f} units / {r_err:.3f} deg"]
    return []


def pinhole(kvec, rotation, translation, points) -> np.ndarray:
    """Pixels of world points under a world-from-camera pose, fx fy cx cy."""
    fx, fy, cx, cy = (float(v) for v in kvec)
    cam = np.einsum("ji,nj->ni", np.asarray(rotation), np.asarray(points) - translation)
    return np.stack([fx * cam[:, 0] / cam[:, 2] + cx, fy * cam[:, 1] / cam[:, 2] + cy], axis=1)


def check_projections(kvec, rotation, translation, points, pixels) -> list[str]:
    err = np.abs(pinhole(kvec, rotation, translation, points) - np.asarray(pixels))
    if err.size and not float(err.max()) <= PIXEL_TOL:
        return [f"stored pixel off its projection by {float(err.max()):.3g} px"]
    return []


def same_array(name: str, written, loaded) -> list[str]:
    """Bitwise equality: dtype, shape and every byte."""
    a, b = np.asarray(written), np.asarray(loaded)
    if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
        return [f"{name}: loaded {b.dtype}{b.shape} differs from written {a.dtype}{a.shape}"]
    return []


def check_points_of_scene(coords, scene_points) -> list[str]:
    """Every float32 buffer coordinate must be one of the scene's points."""
    known = {row.tobytes() for row in np.asarray(scene_points).astype(np.float32)}
    stray = sum(row.tobytes() not in known for row in np.asarray(coords, dtype=np.float32))
    return [f"{stray} buffer coordinates are not points of the scene"] if stray else []


def check_finite(named: dict) -> list[str]:
    bad = [k for k, v in named.items() if not np.all(np.isfinite(v))]
    return [f"non-finite values in {', '.join(sorted(bad)[:5])}"] if bad else []


def check_loss_fell(losses, window: int) -> list[str]:
    """Mean loss over the last `window` logged iterations is below the first's."""
    vals = np.asarray(losses, dtype=np.float64)
    if len(vals) < 2 * window:
        return [f"only {len(vals)} logged mapping losses, need {2 * window}"]
    first, last = float(vals[:window].mean()), float(vals[-window:].mean())
    if not last < first:
        return [f"mapping loss did not fall: first window {first:.5f}, last {last:.5f}"]
    return []


def check_unchanged(before: dict, after: dict) -> list[str]:
    out = []
    for name, arr in before.items():
        out += same_array(f"parameter {name}", arr, after[name])
    return out


def trimmed_mean(values, fraction: float) -> float:
    """Mean of the lowest `fraction` of the values: the objective a code fit minimises."""
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    return float(v[: max(1, int(fraction * len(v)))].mean())


def check_nll_fell(nll_fresh: float, nll_fitted: float) -> list[str]:
    if not nll_fitted < nll_fresh:
        return [f"fitted code NLL {nll_fitted:.5f} is not below fresh code NLL {nll_fresh:.5f}"]
    return []
