"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --blas-threads 1 --workload train --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository: the program under test is imported
from `src/` beside this directory, never from an installed copy. With
`--trace 0` the last line of standard output holds the end-to-end metrics;
with `--trace 1` every public function the workloads reach is wrapped in
a span, the spans go to `.perfbench_out/trace-<workload>.jsonl` and the
last line holds the per-layer metrics. The full result, with counts,
failure reasons, check problems and the environment, goes to
`.perfbench_out/result-<workload>-seed<seed>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

E2E_UNITS = {"setup_s": "s", "iter_ms": "ms", "scene_s": "s", "query_ms_p50": "ms",
             "query_ms_p90": "ms", "t_err_med": "units", "r_err_med_deg": "deg",
             "write_ms": "ms", "read_ms": "ms"}


def layer_unit(name: str) -> str:
    part = name.split(".")[1]
    for suffix, unit in (("_ms", "ms"), ("_us", "us")):
        if part.endswith(suffix):
            return unit
    if "bytes" in part:
        return "bytes"
    return "ratio" if part.endswith(("ratio", "precision", "recall")) else "count"


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "reloc"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    src = ROOT / "src"
    if not (src / "screloc" / "__init__.py").is_file():
        print(f"no screloc sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import screloc
    if Path(screloc.__file__).resolve().parent != (src / "screloc").resolve():
        print(f"screloc imported from {screloc.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench import workload as wl
    from perfbench.spans import Tracer

    out = ROOT / ".perfbench_out"
    work = out / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(wl.MODULES)
    try:
        res = wl.run_workload(args.workload, args.seed, args.seconds, work, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        wl.clean(work)

    tally = res["tally"]
    if tracer:
        values = wl.per_layer(tracer, res)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        tracer.write(out / f"trace-{args.workload}.jsonl")
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in res["metrics"].items()}
    line = {"correct": not tally.problems, "attempted": sum(tally.attempted.values()),
            "failed": sum(tally.failed.values()), "metrics": metrics}
    detail = {**line, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": res["rounds"], "window_s": res["window_s"],
              "setup_times_s": res["setup_times"], "end_to_end": res["metrics"],
              "attempted_by_kind": dict(tally.attempted), "failed_by_kind": dict(tally.failed),
              "failure_reasons": dict(tally.reasons), "problems": tally.problems[:50],
              "samples": tally.samples,
              "environment": wl.environment()}
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
