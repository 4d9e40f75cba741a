import importlib.util
from pathlib import Path

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
