"""Bit-identity digests of the benchmark's pre-training run and fits, one tree at a time.

    python tools/digest.py <tree> [--seeds 1 2 3] [--chunks 6]

`<tree>` is a checkout of this repository or a `git archive` export of one;
`src/` and `perfbench/` are imported from it. For each seed the tool sets up
the benchmark's `reloc` inputs, runs `--chunks` `run_chunk`s of its
pre-training run, then fits three map codes with the benchmark's fit settings,
and relocalizes each of the workload's queries (the probe left out) with
`ransac_pnp`. It prints one line `<seed> <name> <sha1>` per seed and output,
so that the outputs of two trees can be diffed:

- params: the regressor parameters;
- head_opt: the head's AdamW state;
- slot_codes: each slot's code tokens and AdamW state;
- pool: each slot's tuple index, counter, budget and augmentation rotation;
- iteration: the run's iteration;
- map_nll: every logged mapping loss;
- fit_codes: the tokens of the three fitted codes;
- reloc_masks: each query's inlier mask;
- reloc_poses: each query's pose, R and t.

A query whose `ransac_pnp` raises contributes its exception's name to both.

The run's checkpoints go to a temporary directory that is removed at exit,
and no bytecode is written, so the tree is left as it was. BLAS runs on one
thread, as under the benchmark's `--blas-threads 1`.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import numpy as np

N_FITS = 3


def digest(arrays: dict[str, np.ndarray]) -> str:
    """SHA-1 over each array's name, dtype, shape and C-order bytes, in order."""
    h = hashlib.sha1()
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def relocalization(geo, queries) -> dict[str, dict[str, np.ndarray]]:
    """The `ransac_pnp` mask and pose of each query, or the name of what it raised."""
    masks, poses = {}, {}
    for i, q in enumerate(queries):
        try:
            pose, masks[f"q{i}"] = geo.ransac_pnp(q.corrs, q.K, seed=q.seed)
        except Exception as exc:  # a raise is the query's outcome, digested like a pose
            masks[f"q{i}"] = poses[f"q{i}"] = np.array(type(exc).__name__)
            continue
        poses[f"q{i}/R"], poses[f"q{i}/t"] = pose.rotation, pose.translation
    return {"reloc_masks": masks, "reloc_poses": poses}


def outputs(wl, pt, geo, seed: int, chunks: int) -> dict[str, dict[str, np.ndarray]]:
    """The named arrays of one seed's run after `chunks` chunks, of its fits and of
    its queries' relocalizations."""
    inp = wl.setup(seed, wl.MIX["reloc"])
    with tempfile.TemporaryDirectory() as work:
        for _ in range(chunks):
            wl.run_chunk(inp, wl.Tally(), Path(work))
    run = inp.run
    fits = [pt.fit_map_code(run.params, wl.REG, inp.fit_bufs[j % len(inp.fit_bufs)],
                            wl.FIT_TOKENS, wl.FIT_ITERS, wl.FIT_BATCH, wl.FIT_LR,
                            inp.fit_seeds[j], trim_fraction=wl.FIT_TRIM)
            for j in range(N_FITS)]
    slot_codes, pool = {}, {}
    for s in run.pool:
        slot_codes[f"slot{s.slot}/code"] = s.code.tokens.data
        slot_codes.update((f"slot{s.slot}/opt_{key}", arr)
                          for key, arr in s.opt.state_arrays().items())
        pool[f"slot{s.slot}/entry"] = np.array([s.tuple_index, s.counter, s.budget], np.int64)
        pool[f"slot{s.slot}/aug_rot"] = s.aug_rot
    return {
        "params": {name: t.data for name, t in run.params.items()},
        "head_opt": run.head_opt.state_arrays(),
        "slot_codes": slot_codes,
        "pool": pool,
        "iteration": {"iteration": np.array([run.iteration], np.int64)},
        "map_nll": {"map_nll": np.array([r["map_nll"] for r in run.log_records
                                         if "map_nll" in r], np.float64)},
        "fit_codes": {f"fit{j}": code.tokens.data for j, code in enumerate(fits)},
        **relocalization(geo, inp.queries),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--chunks", type=int, default=6)
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    src = tree / "src"
    if not (src / "screloc" / "__init__.py").is_file():
        print(f"no screloc sources under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(tree)]
    import screloc
    if Path(screloc.__file__).resolve().parent != (src / "screloc").resolve():
        print(f"screloc imported from {screloc.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench import workload as wl
    from screloc import geometry as geo
    from screloc import pretrain as pt

    for seed in args.seeds:
        for name, arrays in outputs(wl, pt, geo, seed, args.chunks).items():
            print(seed, name, digest(arrays), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
