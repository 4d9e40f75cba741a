import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parents[1] / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def fixed_arrays() -> dict[str, np.ndarray]:
    return {"w": np.arange(12, dtype=np.float32).reshape(3, 4) / 7,
            "step": np.array([5], dtype=np.int64),
            "rot": np.eye(3)}


def flip_bit(arrays):
    w = arrays["w"].copy()
    w.view(np.uint32)[1, 2] ^= 1
    return {**arrays, "w": w}


def test_digest_of_fixed_arrays_is_stable_across_calls():
    first = digest.digest(fixed_arrays())
    assert len(first) == 40 and set(first) <= set("0123456789abcdef")
    assert digest.digest(fixed_arrays()) == first
    assert digest.digest({k: a.T.copy().T for k, a in fixed_arrays().items()}) == first


@pytest.mark.parametrize("change", [
    flip_bit,
    lambda a: {**a, "step": a["step"].astype(np.uint64)},
    lambda a: {**a, "w": a["w"].reshape(4, 3)},
    lambda a: {**a, "step": a["step"].reshape(())},
    lambda a: {"renamed": a["w"], "step": a["step"], "rot": a["rot"]},
    lambda a: dict(reversed(list(a.items()))),
], ids=["one_flipped_bit", "another_dtype", "another_shape", "zero_dim", "another_name",
        "another_order"])
def test_digest_changes_with_any_bit_dtype_shape_name_or_order(change):
    assert digest.digest(change(fixed_arrays())) != digest.digest(fixed_arrays())


def test_relocalization_digests_each_mask_and_pose_or_the_name_of_what_raised():
    from screloc import geometry as geo
    K = geo.Intrinsics(100.0, 100.0, 50.0, 50.0)
    rng = np.random.default_rng(0)
    points = np.column_stack([rng.uniform(-1.0, 1.0, size=(20, 2)), rng.uniform(2.0, 6.0, 20)])
    pixels = points[:, :2] / points[:, 2:] * 100.0 + 50.0
    queries = [SimpleNamespace(corrs=geo.Matches(pixels, points), K=K, seed=0),
               SimpleNamespace(corrs=geo.Matches(pixels[:5], points[:5]), K=K, seed=0)]
    out = digest.relocalization(geo, queries)
    assert list(out) == ["reloc_masks", "reloc_poses"]
    assert list(out["reloc_masks"]) == ["q0", "q1"]
    assert list(out["reloc_poses"]) == ["q0/R", "q0/t", "q1"]
    assert out["reloc_masks"]["q0"].all()
    assert np.abs(out["reloc_poses"]["q0/R"] - np.eye(3)).max() < 1e-9
    for name in ("reloc_masks", "reloc_poses"):
        assert out[name]["q1"] == np.array("LocalizationFailure")
