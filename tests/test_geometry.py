import math

import numpy as np
import pytest

from screloc import geometry as geo
from screloc.geometry import (Correspondence2D3D, Intrinsics, LocalizationFailure, Matches,
                              PoseSE3, RansacConfig, SolverDegenerateError)

import oracles
from oracles import project

K = Intrinsics(100.0, 100.0, 50.0, 50.0)
IDENTITY = PoseSE3(np.eye(3), np.zeros(3))


def random_pose(rng) -> PoseSE3:
    return PoseSE3(geo.random_rotation(rng), rng.uniform(-2, 2, size=3))


def backproject(K: Intrinsics, pose: PoseSE3, pixel: np.ndarray, depth: float) -> np.ndarray:
    """Invert the pinhole model at a known camera depth."""
    x = (pixel[0] - K.cx) / K.fx * depth
    y = (pixel[1] - K.cy) / K.fy * depth
    return pose.rotation @ np.array([x, y, depth]) + pose.translation


def make_world(rng, n_points, pose=None, spread=2.0, K=K, noise_px=0.0):
    """Synthetic correspondences from a known pose via project() (the oracle)."""
    pose = pose or IDENTITY
    corrs = []
    while len(corrs) < n_points:
        # points in front of the camera, spread through the frustum
        depth = rng.uniform(2.0, 8.0)
        px = rng.uniform(5, 2 * K.cx - 5)
        py = rng.uniform(5, 2 * K.cy - 5)
        y = backproject(K, pose, np.array([px, py]), depth)
        y += rng.normal(scale=0.0, size=3)
        pixel, z = project(K, pose, y)
        assert z > geo.Z_MIN
        if noise_px:
            pixel = pixel + rng.normal(scale=noise_px, size=2)
        corrs.append(Correspondence2D3D(pixel, y))
    return corrs


def make_matches(rng, n_points, pose=None, **kw) -> Matches:
    """`make_world`'s correspondences in the array form."""
    return Matches.of(make_world(rng, n_points, pose, **kw))


def test_project_optical_axis():
    pixels, cam = geo.project_many(K, [IDENTITY], np.array([[0.0, 0.0, 2.0]]))
    assert np.allclose(pixels, [[[50.0, 50.0]]])
    assert np.array_equal(cam, [[[0.0, 0.0, 2.0]]])


def test_project_offset_point():
    pixels, _ = geo.project_many(K, [IDENTITY], np.array([[1.0, 0.0, 2.0]]))
    assert np.allclose(pixels, [[[100.0, 50.0]]])


def test_project_backproject_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pose = random_pose(rng)
        pixel = rng.uniform(0, 100, size=(5, 2))
        depth = rng.uniform(0.5, 10.0, size=5)
        y = np.stack([backproject(K, pose, p, d) for p, d in zip(pixel, depth)])
        (pixel2,), (cam,) = geo.project_many(K, [pose], y)
        z = cam[:, 2]
        assert np.max(np.abs(z - depth)) < 1e-9
        assert np.max(np.abs(pixel2 - pixel)) < 1e-9
        for i in range(5):
            one_pixel, one_z = project(K, pose, y[i])
            assert np.max(np.abs(pixel2[i] - one_pixel)) < 1e-12
            assert abs(z[i] - one_z) < 1e-12


@pytest.mark.parametrize("fx, fy", [(0.0, 100.0), (100.0, -1.0), (math.nan, 100.0),
                                    (100.0, math.nan)])
def test_intrinsics_reject_bad_focal_lengths(fx, fy):
    with pytest.raises(ValueError, match="focal"):
        Intrinsics(fx, fy, 50.0, 50.0)


@pytest.mark.parametrize("values", [
    (math.inf, 100.0, 50.0, 50.0), (100.0, math.inf, 50.0, 50.0),
    (100.0, 100.0, math.nan, 50.0), (100.0, 100.0, 50.0, -math.inf),
], ids=["inf-fx", "inf-fy", "nan-cx", "inf-cy"])
def test_intrinsics_reject_non_finite_values(values):
    with pytest.raises(ValueError, match="finite"):
        Intrinsics(*values)


def test_project_behind_camera_flagged():
    _, cam = geo.project_many(K, [IDENTITY], np.array([[0.0, 0.0, -1.0]]))
    assert cam[0, 0, 2] < geo.Z_MIN  # flagged by depth, no exception


def test_pose_se3_validation():
    with pytest.raises(ValueError):
        PoseSE3(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError, match="proper orthonormal"):
        PoseSE3(np.diag([-1.0, 1.0, 1.0]), np.zeros(3))  # a reflection
    for bad_shape in (np.eye(4), np.eye(3)[:2], np.ones(3)):
        with pytest.raises(ValueError, match="3x3"):
            PoseSE3(bad_shape, np.zeros(3))
    with pytest.raises(ValueError):
        PoseSE3(np.full((3, 3), np.nan), np.zeros(3))
    # a rotation 1e-8 away from orthonormal is within rounding and accepted as given
    rng = np.random.default_rng(18)
    near = geo.random_rotation(rng) + 1e-8 * rng.normal(size=(3, 3))
    assert np.max(np.abs(near.T @ near - np.eye(3))) > 1e-9
    pose = PoseSE3(near, [1.0, 2.0, 3.0])
    assert np.array_equal(pose.rotation, near)
    assert pose.translation.shape == (3,)


def test_pnp_minimal_noiseless_six_points():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pose = random_pose(rng)
        est = geo.pnp_minimal(make_matches(rng, 6, pose), K)
        t_err, r_err = geo.pose_error(est, pose)
        assert r_err < 1e-5
        assert t_err < 1e-6


def test_pnp_minimal_overdetermined():
    rng = np.random.default_rng(2)
    pose = random_pose(rng)
    est = geo.pnp_minimal(make_matches(rng, 20, pose), K)
    t_err, r_err = geo.pose_error(est, pose)
    assert r_err < 1e-5
    assert t_err < 1e-6


def test_pnp_minimal_collinear_degenerate():
    base = np.array([0.0, 0.0, 4.0])
    direction = np.array([1.0, 0.2, 0.1])
    for n in (8, 300):  # a sample-sized system and a large one
        corrs = []
        for i in range(n):
            y = base + direction * (i * 0.3)
            pixel, _ = project(K, IDENTITY, y)
            corrs.append(Correspondence2D3D(pixel, y))
        with pytest.raises(SolverDegenerateError):
            geo.pnp_minimal(Matches.of(corrs), K)


def _dlt_full_svd(corrs, K):
    """Oracle: the DLT written out plainly, with the full SVD of the system.

    Returns the pose and the unit null vector vt[-1] of the (2n, 12) matrix.
    """
    rows = []
    for c in corrs:
        xn = (c.pixel[0] - K.cx) / K.fx
        yn = (c.pixel[1] - K.cy) / K.fy
        h = np.append(c.point, 1.0)
        rows.append(np.concatenate([h, np.zeros(4), -xn * h]))
        rows.append(np.concatenate([np.zeros(4), h, -yn * h]))
    _, _, vt = np.linalg.svd(np.array(rows), full_matrices=True)
    null = vt[-1]
    m = null.reshape(3, 4)
    depths = np.array([np.append(c.point, 1.0) @ m[2] for c in corrs])
    if np.sum(depths > 0) < np.sum(depths < 0):
        m = -m
    u, sv, vt3 = np.linalg.svd(m[:, :3])
    r_cw = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt3)]) @ vt3
    t_cw = m[:, 3] / sv.mean()
    return PoseSE3(r_cw.T, -r_cw.T @ t_cw), null


def test_pnp_minimal_final_fit_size_matches_full_svd_oracle():
    rng = np.random.default_rng(19)
    for _ in range(3):
        pose = random_pose(rng)
        corrs = make_world(rng, 400, pose)
        est = geo.pnp_minimal(Matches.of(corrs), K)
        t_err, r_err = geo.pose_error(est, pose)
        assert r_err < 1e-5
        assert t_err < 1e-6
        oracle, null = _dlt_full_svd(corrs, K)
        t_gap, r_gap = geo.pose_error(est, oracle)
        assert t_gap < 1e-9 and r_gap < 1e-7
        # the estimate's [R_cw | t_cw], scaled to unit norm, is the null vector
        r_cw = est.rotation.T
        p = np.concatenate([r_cw, (-r_cw @ est.translation)[:, None]], axis=1).ravel()
        p /= np.linalg.norm(p)
        assert min(np.max(np.abs(p - null)), np.max(np.abs(p + null))) < 1e-10


def test_pnp_minimal_too_few_points():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        geo.pnp_minimal(make_matches(rng, 5), K)


def test_projection_residual_and_refinement_share_one_pinhole():
    """Matches made by project_many reproject with zero error at their pose,
    and refine_pose leaves that pose where it is."""
    rng = np.random.default_rng(12)
    k = Intrinsics(120.0, 90.0, 64.0, 40.0)
    for _ in range(5):
        pose = random_pose(rng)
        cam = np.column_stack([rng.uniform(-1.0, 1.0, size=(40, 2)), rng.uniform(2.0, 8.0, 40)])
        points = cam @ pose.rotation.T + pose.translation
        (pixels,), _ = geo.project_many(k, [pose], points)
        matches = Matches(pixels, points)
        assert np.array_equal(geo.reprojection_errors(pose, matches, k), np.zeros(40))
        refined = geo.refine_pose(pose, matches, k)
        assert np.abs(refined.rotation - pose.rotation).max() < 1e-9
        assert np.abs(refined.translation - pose.translation).max() < 1e-9


def test_refine_pose_fixed_point():
    rng = np.random.default_rng(5)
    pose = random_pose(rng)
    refined = geo.refine_pose(pose, make_matches(rng, 30, pose), K)
    t_err, r_err = geo.pose_error(refined, pose)
    assert t_err < 1e-9
    assert r_err < 1e-7


def test_refine_pose_converges_from_perturbation():
    rng = np.random.default_rng(6)
    for _ in range(5):
        pose = random_pose(rng)
        matches = make_matches(rng, 50, pose)
        delta_r = geo.rotation_about_axis(rng.normal(size=3), 2.0)
        pose0 = PoseSE3(delta_r @ pose.rotation, pose.translation + rng.normal(scale=0.05, size=3))
        refined = geo.refine_pose(pose0, matches, K)
        t_err, r_err = geo.pose_error(refined, pose)
        assert t_err < 1e-6
        assert r_err < 1e-5


def test_refine_pose_reduces_rms_with_noise():
    rng = np.random.default_rng(7)
    pose = random_pose(rng)
    matches = make_matches(rng, 60, pose, noise_px=0.5)
    delta_r = geo.rotation_about_axis(rng.normal(size=3), 1.0)
    pose0 = PoseSE3(delta_r @ pose.rotation, pose.translation + 0.03 * rng.normal(size=3))
    before = geo.reprojection_errors(pose0, matches, K)
    refined = geo.refine_pose(pose0, matches, K)
    after = geo.reprojection_errors(refined, matches, K)
    assert np.sqrt(np.mean(after**2)) <= np.sqrt(np.mean(before**2))


def refinement_cost(pose: PoseSE3, matches: Matches) -> float:
    """The summed squared reprojection error that refine_pose minimizes."""
    (pixels,), _ = geo.project_many(K, [pose], matches.points)
    return float(((pixels - matches.pixels) ** 2).sum())


@pytest.mark.parametrize("noise_3d", [0.0, 0.5])
@pytest.mark.parametrize("degrees, shift", [(2.0, 0.05), (10.0, 0.5), (20.0, 1.0)])
def test_refine_pose_ends_no_costlier_than_levenberg_marquardt(degrees, shift, noise_3d):
    """From a pose off by `degrees` and `shift` units, on 100 matches with 0.5 px pixel
    noise and `noise_3d` units of point noise, Gauss-Newton ends at no higher a cost
    than the damped reference, over 50 draws, and never above its start.

    A start that puts a point within 0.5 u of the camera plane is the exception:
    there a full step can overshoot, and Gauss-Newton may stop above the reference.
    Over 400 draws per case at another seed, 47 of 2,400 starts were such, and it
    stopped above on 5 of them, all at 20 deg / 1 u with 0.5 u of point noise. Only
    the second claim is checked on those draws, and at least 45 of 50 are compared."""
    rng = np.random.default_rng(int(degrees * 100 + shift * 10 + noise_3d * 2))
    compared = 0
    for _ in range(50):
        pose = random_pose(rng)
        clean = make_matches(rng, 100, pose, noise_px=0.5)
        matches = Matches(clean.pixels, clean.points + rng.normal(scale=noise_3d, size=(100, 3)))
        direction = rng.normal(size=3)
        pose0 = PoseSE3(geo.rotation_about_axis(rng.normal(size=3), degrees) @ pose.rotation,
                        pose.translation + shift * direction / np.linalg.norm(direction))
        got = refinement_cost(geo.refine_pose(pose0, matches, K), matches)
        assert got <= refinement_cost(pose0, matches) * (1 + 1e-9)  # the pose's round trip
        if ((matches.points - pose0.translation) @ pose0.rotation)[:, 2].min() >= 0.5:
            compared += 1
            assert got <= refinement_cost(oracles.refine_pose(pose0, matches, K),
                                          matches) * (1 + 1e-9)
    assert compared >= 45


def test_ransac_with_gross_outliers():
    rng = np.random.default_rng(8)
    pose = random_pose(rng)
    corrs = make_world(rng, 70, pose)
    for _ in range(30):
        y = rng.uniform(-3, 3, size=3)
        fake_pixel = rng.uniform(0, 100, size=2)
        corrs.append(Correspondence2D3D(fake_pixel, y))
    est, mask = geo.ransac_pnp(corrs, K, seed=0)
    t_err, r_err = geo.pose_error(est, pose)
    assert t_err < 1e-3
    assert r_err < 0.01
    outlier_mask = mask[70:]
    assert np.mean(~outlier_mask) >= 0.95  # outlier recall


def test_ransac_all_inliers_matches_direct_solution():
    rng = np.random.default_rng(9)
    pose = random_pose(rng)
    corrs = make_world(rng, 40, pose)
    est, mask = geo.ransac_pnp(corrs, K, seed=3)
    matches = Matches.of(corrs)
    direct = geo.refine_pose(geo.pnp_minimal(matches, K), matches, K)
    assert mask.all()
    assert np.max(np.abs(est.rotation - direct.rotation)) < 1e-9
    assert np.max(np.abs(est.translation - direct.translation)) < 1e-9


def test_ransac_solves_only_samples_and_refines_the_best_hypothesis(monkeypatch):
    """Every `pnp_minimal` call inside `ransac_pnp` gets a 6-match sample, and
    `refine_pose` starts from the pose of the call whose inliers were most."""
    rng = np.random.default_rng(22)
    corrs = make_world(rng, 60, random_pose(rng), noise_px=1.0)
    for _ in range(40):
        corrs.append(Correspondence2D3D(rng.uniform(0, 100, size=2), rng.uniform(-3, 3, size=3)))
    sizes, solved, starts = [], [], []
    pnp_minimal, refine_pose = geo.pnp_minimal, geo.refine_pose

    def recording_pnp_minimal(matches, k):
        sizes.append(len(matches))
        solved.append(pnp_minimal(matches, k))
        return solved[-1]

    def recording_refine_pose(pose0, matches, k):
        starts.append(pose0)
        return refine_pose(pose0, matches, k)

    monkeypatch.setattr(geo, "pnp_minimal", recording_pnp_minimal)
    monkeypatch.setattr(geo, "refine_pose", recording_refine_pose)
    geo.ransac_pnp(corrs, K, seed=4)
    assert len(sizes) > 1 and set(sizes) == {6}
    matches = Matches.of(corrs)
    counts = [np.count_nonzero(geo.reprojection_errors(p, matches, K)
                               < RansacConfig().inlier_thresh_px) for p in solved]
    assert len(starts) == 1 and starts[0] is solved[int(np.argmax(counts))]


def replay_stopping_rule(counts, n, cfg):
    """The hypothesis after which the stopping rule ends RANSAC, given each
    hypothesis's inlier count in draw order, or None if it has not ended."""
    needed, best = cfg.max_iters, 0
    for i, count in enumerate(counts, start=1):
        if count > best:
            best, w = count, count / n
            if w >= 1.0 - 1e-12:
                return i
            needed = min(cfg.max_iters, math.ceil(math.log(1.0 - cfg.confidence)
                                                  / math.log(1.0 - w**6)))
        if i >= needed:
            return i
    return None


@pytest.mark.parametrize("n_inliers, n_outliers, cfg, calls, fails", [
    (60, 40, RansacConfig(), 551, False),
    (30, 0, RansacConfig(), 1, False),
    (60, 40, RansacConfig(max_iters=5), 5, True),
])
def test_ransac_draws_as_many_hypotheses_as_its_stopping_rule_asks(
        monkeypatch, n_inliers, n_outliers, cfg, calls, fails):
    """Every `pnp_minimal` call, a degenerate one included, is one hypothesis;
    its inlier count is what its pose scores under `reprojection_errors`. The
    call count pins the hypothesis sequence that a batched loop must keep."""
    rng = np.random.default_rng(31)
    noise = 0.5 if n_outliers else 0.0
    corrs = make_world(rng, n_inliers, random_pose(rng), noise_px=noise)
    for _ in range(n_outliers):
        corrs.append(Correspondence2D3D(rng.uniform(0, 100, size=2), rng.uniform(-3, 3, size=3)))
    matches, pnp_minimal, counts = Matches.of(corrs), geo.pnp_minimal, []

    def counting_pnp_minimal(sample, k):
        counts.append(0)  # stays 0 if the solve is degenerate
        pose = pnp_minimal(sample, k)
        counts[-1] = np.count_nonzero(geo.reprojection_errors(pose, matches, k)
                                      < cfg.inlier_thresh_px)
        return pose

    monkeypatch.setattr(geo, "pnp_minimal", counting_pnp_minimal)
    try:
        geo.ransac_pnp(corrs, K, cfg, seed=7)
        failed = False
    except LocalizationFailure:
        failed = True
    assert failed == fails
    assert len(counts) == replay_stopping_rule(counts, len(matches), cfg) == calls


def planar_scene(seed: int) -> list[Correspondence2D3D]:
    """30 matches on the plane z = 4 seen head-on by the identity pose, then 3
    off-plane points whose pixels are moved by up to 40 px on each axis."""
    rng = np.random.default_rng(seed)
    plane = np.column_stack([rng.uniform(-1.0, 1.0, size=(30, 2)), np.full(30, 4.0)])
    off = np.column_stack([rng.uniform(-1.0, 1.0, size=(3, 2)), rng.uniform(2.0, 6.0, 3)])
    points = np.vstack([plane, off])
    pixels = points[:, :2] / points[:, 2:] * K.fx + K.cx
    pixels[30:] += rng.uniform(-40.0, 40.0, size=(3, 2))
    return [Correspondence2D3D(p, y) for p, y in zip(pixels, points)]


@pytest.mark.parametrize("seed", [0, 1, 4, 5, 6, 7, 8, 10])
def test_mostly_planar_scene_lets_no_degenerate_solve_out(seed):
    """A DLT over the best hypothesis's inliers would meet the plane and raise
    SolverDegenerateError on these seeds, as on 232 of seeds 0-299. Refining
    the hypothesis itself returns a pose, with 6-12 inliers where the true pose
    has at least the plane's 30. Refusing such a pose takes an inlier floor above
    `RansacConfig.min_inliers`, which relocalization does not have yet."""
    pose, mask = geo.ransac_pnp(planar_scene(seed), K, seed=seed)
    assert 6 <= np.count_nonzero(mask) <= 12
    matches = Matches.of(planar_scene(seed))
    assert np.count_nonzero(geo.reprojection_errors(IDENTITY, matches, K) < 10.0) >= 30


def test_ransac_refuses_malformed_correspondences():
    """`Correspondence2D3D` holds what it is given; `Matches.of` refuses a pixel
    that does not hold 2 values, even where the totals would reshape."""
    rng = np.random.default_rng(23)
    corrs = make_world(rng, 30, random_pose(rng), noise_px=0.5)
    three = [Correspondence2D3D(np.append(c.pixel, 1.0), c.point) for c in corrs]
    one_short = [Correspondence2D3D(c.pixel[:1] if i == 7 else c.pixel, c.point)
                 for i, c in enumerate(corrs)]
    doubled = [Correspondence2D3D(np.tile(c.pixel, 2), np.tile(c.point, 2)) for c in corrs]
    for bad in (three, one_short, doubled):
        with pytest.raises(ValueError):
            geo.ransac_pnp(bad, K, seed=0)
    nested = [Correspondence2D3D(c.pixel.reshape(1, 2), c.point) for c in corrs]
    est, mask = geo.ransac_pnp(nested, K, seed=0)
    est_flat, mask_flat = geo.ransac_pnp(corrs, K, seed=0)
    assert_same_pose(est, est_flat)
    assert np.array_equal(mask, mask_flat)


def test_ransac_too_few_correspondences():
    rng = np.random.default_rng(10)
    corrs = make_world(rng, 5)
    with pytest.raises(LocalizationFailure):
        geo.ransac_pnp(corrs, K, seed=0)


def test_ransac_seed_deterministic():
    rng = np.random.default_rng(11)
    pose = random_pose(rng)
    corrs = make_world(rng, 50, pose, noise_px=1.0)
    for _ in range(20):
        corrs.append(Correspondence2D3D(rng.uniform(0, 100, size=2), rng.uniform(-3, 3, size=3)))
    est1, mask1 = geo.ransac_pnp(corrs, K, seed=42)
    est2, mask2 = geo.ransac_pnp(corrs, K, seed=42)
    assert np.array_equal(mask1, mask2)
    assert np.array_equal(est1.rotation, est2.rotation)
    assert np.array_equal(est1.translation, est2.translation)


def assert_same_pose(a: PoseSE3, b: PoseSE3):
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.translation, b.translation)


def test_array_form_gives_bit_identical_results():
    rng = np.random.default_rng(16)
    pose = random_pose(rng)
    corrs = make_world(rng, 60, pose, noise_px=0.5)
    for _ in range(25):
        corrs.append(Correspondence2D3D(rng.uniform(0, 100, size=2), rng.uniform(-3, 3, size=3)))
    matches = Matches(np.array([c.pixel for c in corrs]), np.array([c.point for c in corrs]))
    converted = Matches.of(corrs)
    assert np.array_equal(converted.pixels, matches.pixels)
    assert np.array_equal(converted.points, matches.points)
    assert converted.sigma is None
    est_list, mask_list = geo.ransac_pnp(corrs, K, seed=5)
    est_arr, mask_arr = geo.ransac_pnp(matches, K, seed=5)
    assert_same_pose(est_list, est_arr)
    assert np.array_equal(mask_list, mask_arr)


def test_matches_len_and_row_selection():
    pixels = np.arange(10.0).reshape(5, 2)
    points = np.arange(15.0).reshape(5, 3)
    sigma = np.arange(1.0, 6.0)
    m = Matches(pixels, points, sigma)
    assert len(m) == 5
    for rows in (slice(1, 4), np.array([4, 0, 0]), np.array([True, False, True, False, True])):
        sub = m[rows]
        assert isinstance(sub, Matches)
        assert len(sub) == len(pixels[rows])
        assert np.array_equal(sub.pixels, pixels[rows])
        assert np.array_equal(sub.points, points[rows])
        assert np.array_equal(sub.sigma, sigma[rows])
    assert Matches(pixels, points)[1:3].sigma is None
    assert Matches.of(m) is m


def test_matches_rejects_inconsistent_arrays():
    for pixels, points in (((4, 2), (3, 3)), ((2, 6), (6, 3)), ((4, 3), (6, 3))):
        with pytest.raises(ValueError):
            Matches(np.zeros(pixels), np.zeros(points))
    with pytest.raises(ValueError):
        Matches(np.zeros((3, 2)), np.zeros((3, 3)), sigma=np.ones(2))
    for bad in (0.0, np.nan):
        with pytest.raises(ValueError):
            Matches(np.zeros((3, 2)), np.zeros((3, 3)), sigma=np.array([1.0, bad, 1.0]))


@pytest.mark.parametrize("n", [0, 5])
@pytest.mark.parametrize("array_form", [False, True])
def test_too_few_matches_raise_in_either_form(n, array_form):
    corrs = make_world(np.random.default_rng(17), n) if n else []
    if array_form:
        corrs = Matches.of(corrs)
    matches = Matches.of(corrs)
    assert (matches.pixels.shape, matches.points.shape) == ((n, 2), (n, 3))
    with pytest.raises(ValueError):
        geo.pnp_minimal(matches, K)
    with pytest.raises(LocalizationFailure):
        geo.ransac_pnp(corrs, K, seed=0)


@pytest.mark.parametrize("array_form", [False, True])
def test_ransac_rejects_non_finite_matches(array_form):
    rng = np.random.default_rng(20)
    corrs = make_world(rng, 100, random_pose(rng))
    pixels = np.array([c.pixel for c in corrs])
    points = np.array([c.point for c in corrs])
    nan_points = points.copy()
    nan_points[rng.choice(100, size=50, replace=False)] = np.nan
    inf_pixel = pixels.copy()
    inf_pixel[7, 1] = np.inf
    for pix, pts, bad in ((pixels, nan_points, 50), (inf_pixel, points, 1)):
        inputs = (Matches(pix, pts) if array_form else
                  [Correspondence2D3D(p, y) for p, y in zip(pix, pts)])
        with pytest.raises(ValueError, match=f"{bad} of 100 matches have a non-finite"):
            geo.ransac_pnp(inputs, K, seed=0)


@pytest.mark.parametrize("field, value", [
    ("confidence", 1.0), ("confidence", 0.0), ("confidence", 1.5), ("confidence", math.nan),
    ("max_iters", 0), ("max_iters", -3),
    ("inlier_thresh_px", 0.0), ("inlier_thresh_px", -1.0), ("inlier_thresh_px", math.nan),
    ("min_inliers", 5), ("min_inliers", 3),
])
def test_ransac_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        RansacConfig(**{field: value})


def test_ransac_config_accepts_boundary_values():
    cfg = RansacConfig(max_iters=1, min_inliers=6, confidence=0.5,
                       inlier_thresh_px=1e-3)
    rng = np.random.default_rng(21)
    pose = random_pose(rng)
    est, mask = geo.ransac_pnp(make_world(rng, 30, pose), K, cfg, seed=0)
    assert mask.all()
    t_err, r_err = geo.pose_error(est, pose)
    assert t_err < 1e-6 and r_err < 1e-5


def test_pose_error_identity():
    p = IDENTITY
    assert geo.pose_error(p, p) == (0.0, 0.0)


def test_pose_error_known_rotation():
    r = geo.rotation_about_axis(np.array([0.0, 0.0, 1.0]), 10.0)
    t_err, r_err = geo.pose_error(PoseSE3(r, np.zeros(3)), IDENTITY)
    assert t_err == 0.0
    assert abs(r_err - 10.0) < 1e-9


def _quat_angle_deg(r1, r2):
    """Independent rotation-distance oracle via quaternions."""

    def to_quat(r):
        w = math.sqrt(max(0.0, 1.0 + r[0, 0] + r[1, 1] + r[2, 2])) / 2.0
        if w > 1e-9:
            x = (r[2, 1] - r[1, 2]) / (4 * w)
            y = (r[0, 2] - r[2, 0]) / (4 * w)
            z = (r[1, 0] - r[0, 1]) / (4 * w)
        else:  # fall back for near-pi rotations
            x = math.sqrt(max(0.0, 1.0 + r[0, 0] - r[1, 1] - r[2, 2])) / 2.0
            y = (r[0, 1] + r[1, 0]) / (4 * x)
            z = (r[0, 2] + r[2, 0]) / (4 * x)
            w = (r[2, 1] - r[1, 2]) / (4 * x)
        return np.array([w, x, y, z])

    q1, q2 = to_quat(r1), to_quat(r2)
    dot = abs(float(np.dot(q1, q2)))
    return math.degrees(2.0 * math.acos(min(1.0, dot)))


def test_pose_error_matches_quaternion_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b = random_pose(rng), random_pose(rng)
        _, r_err = geo.pose_error(a, b)
        expected = _quat_angle_deg(a.rotation, b.rotation)
        assert abs(r_err - expected) < 1e-6


def test_pose_error_rotation_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a, b = random_pose(rng), random_pose(rng)
        _, r_ab = geo.pose_error(a, b)
        _, r_ba = geo.pose_error(b, a)
        assert abs(r_ab - r_ba) < 1e-12


def test_random_rotation_is_orthonormal():
    rng = np.random.default_rng(14)
    for _ in range(20):
        r = geo.random_rotation(rng)
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9


def test_look_at_points_camera_at_target():
    rng = np.random.default_rng(15)
    for _ in range(10):
        center = rng.uniform(-3, 3, size=3)
        target = rng.uniform(-1, 1, size=3)
        if np.linalg.norm(target - center) < 0.5:
            continue
        pose = geo.look_at(center, target)
        assert np.max(np.abs(pose.rotation.T @ pose.rotation - np.eye(3))) < 1e-9
        pixel, z = project(K, pose, target)
        assert z > 0
        assert np.allclose(pixel, [K.cx, K.cy], atol=1e-6)


def _look_at_with_np_cross(center, target, up=(0.0, 0.0, 1.0)):
    """The np.cross construction of a look-at rotation, as the reference."""
    f = np.asarray(target, dtype=np.float64) - center
    f = f / np.linalg.norm(f)
    x = np.cross(f, np.asarray(up, dtype=np.float64))
    n = np.linalg.norm(x)
    if n < 1e-9:
        x = np.cross(f, np.array([0.0, 1.0, 0.0]))
        n = np.linalg.norm(x)
    x = x / n
    return np.stack([x, np.cross(f, x), f], axis=1)


def test_look_at_is_bit_identical_to_the_np_cross_construction():
    rng = np.random.default_rng(16)
    cases = [(rng.normal(size=3) * 5, rng.normal(size=3)) for _ in range(200)]
    cases += [(np.array([1.0, 2.0, 0.5]), np.array([1.0, 2.0, 4.0])),    # straight up
              (np.array([0.3, -0.2, 3.0]), np.array([0.3, -0.2, -1.0]))]  # straight down
    for center, target in cases:
        pose = geo.look_at(center, target)
        assert pose.rotation.tobytes() == _look_at_with_np_cross(center, target).tobytes()
        assert np.array_equal(pose.translation, center)
    assert np.array_equal(geo.look_at(*cases[-2]).rotation[:, 0], [-1.0, 0.0, 0.0])
