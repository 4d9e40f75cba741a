"""Paired benchmark runs of a parent and a change, summarised as one BENCH_<slug>.json.

    python tools/pairbench.py <parent> <change> --out BENCH_<slug>.json
        [--pairs 10] [--seconds T] [--workloads train reloc] [--seed 1]

`<parent>` and `<change>` are each a directory holding a checkout of this
repository, or a git ref of the repository in the working directory, which is
exported with `git archive` into a temporary directory (an existing directory
wins over a ref of the same name). For each workload, each pair runs
`BENCHMARK.json`'s `command` with `--workload W --seed S --seconds T` once in
each tree, parent first in even pairs and change first in odd ones, with
`PYTHONPATH` cleared and no bytecode written. `--seconds` defaults to the
manifest's `run_seconds`, `--workloads` to all of its workloads. The manifest
is read from the change.

Per workload and per end-to-end metric of the manifest, with its unit,
`better` and `bound`, the file records each side's values, median and
quartiles (`statistics.quantiles(values, n=4)`); the pairs the change wins, the
parent wins and the ties, which count for neither; `gain`, the claim rule: the
change wins at least nine tenths of all pairs and the medians differ, its way,
by more than the parent's interquartile range; `verdict`, the regression rule:
"regressed" when the change's median is worse than the parent's by more than
`bound` times the parent's median, else "unresolved" when the parent's
interquartile range as a share of its median is wider than `bound` and not
every change run reads better than every parent run, else "within"; and
`bit_equal`, whether every pair read the same value on both sides. Each
workload also records every run's `correct`, attempted and failed counts, and
the environments (`nproc`, BLAS, Python, numpy) its result files name.

A run's result file is read and deleted, and a `.perfbench_out` directory that
a run made in a tree is removed, so each tree is left as it was. The exit
status is 1 when a run exits non-zero, prints nothing or leaves no readable
result file.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import ExitStack
from pathlib import Path

SIDES = ("parent", "change")


def manifest_metrics(manifest: dict) -> list[dict]:
    """The manifest's end-to-end metrics; ValueError naming the first one that lacks
    a name, a unit, `better` as "lower" or "higher", or a finite `bound` >= 0."""
    metrics = manifest.get("end_to_end")
    if not isinstance(metrics, list) or not metrics:
        raise ValueError("manifest has no end_to_end metrics")
    for m in metrics:
        bound = m.get("bound") if isinstance(m, dict) else None
        if not (isinstance(m, dict) and isinstance(m.get("name"), str)
                and isinstance(m.get("unit"), str) and m.get("better") in ("lower", "higher")
                and isinstance(bound, (int, float)) and not isinstance(bound, bool)
                and 0 <= bound < math.inf):
            raise ValueError(f"end_to_end metric {m!r} needs a name, a unit, better "
                             "'lower' or 'higher' and a finite bound >= 0")
    return metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a: float, b: float, direction: str) -> bool:
    """Whether a reads better than b for a metric whose `better` is `direction`."""
    return a < b if direction == "lower" else a > b


def compare(parent: list[float], change: list[float], direction: str, bound: float) -> dict:
    """The summary of one metric over pairs (parent[i], change[i]), as the module
    docstring states it."""
    sides = {}
    for side, values in zip(SIDES, (parent, change)):
        q1, med, q3 = quartiles(values)
        sides[side] = {"values": values, "median": med, "q1": q1, "q3": q3}
    p, c = sides["parent"], sides["change"]
    change_wins = sum(better(b, a, direction) for a, b in zip(parent, change))
    parent_wins = sum(better(a, b, direction) for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    spread = iqr / abs(p["median"]) if p["median"] else (0.0 if iqr == 0 else math.inf)
    worse = (c["median"] - p["median"]) * (1 if direction == "lower" else -1)
    if worse > bound * abs(p["median"]):
        verdict = "regressed"
    elif spread > bound and not all(better(b, a, direction) for a in parent for b in change):
        verdict = "unresolved"
    else:
        verdict = "within"
    return {**sides, "parent_spread": spread,
            "change_wins": change_wins, "parent_wins": parent_wins,
            "ties": len(parent) - change_wins - parent_wins,
            "gain": change_wins * 10 >= 9 * len(parent) and -worse > iqr,
            "verdict": verdict,
            "bit_equal": all(a == b for a, b in zip(parent, change))}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """One workload's summary from its runs, each {"pair", "first", "parent", "change"}
    with each side's result file as read."""
    out = {"runs": [{"pair": r["pair"], "first": r["first"],
                     **{side: {key: r[side][key] for key in ("correct", "attempted", "failed")}
                        for side in SIDES}} for r in runs],
           "environment": {}, "metrics": {}}
    for side in SIDES:
        envs = []
        for r in runs:
            env = {k: r[side]["environment"].get(k) for k in ("nproc", "blas", "python", "numpy")}
            if env not in envs:
                envs.append(env)
        out["environment"][side] = envs
    for m in metrics:
        values = {side: [r[side]["end_to_end"][m["name"]] for r in runs] for side in SIDES}
        out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"],
                                     "bound": m["bound"],
                                     **compare(values["parent"], values["change"],
                                               m["better"], m["bound"])}
    return out


# -- running the trees ---------------------------------------------------------------

def export(spec: str, stack: ExitStack) -> tuple[Path, dict]:
    """(tree, description) of a directory, or of a git ref exported into a
    temporary directory that `stack` removes."""
    if Path(spec).is_dir():
        return Path(spec).resolve(), {"spec": spec}
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{spec}^{{commit}}"], check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], check=True,
                             stdout=subprocess.PIPE).stdout
    tree = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="pairbench-")))
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree, {"spec": spec, "commit": commit}


def run_once(command: list[str], tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark once in `tree`; its result file, read and deleted."""
    out_dir = tree / ".perfbench_out"
    made = not out_dir.exists()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(seconds)],
                              cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{tree}: {workload} exited {proc.returncode}, "
                               f"{len(lines)} lines of output")
        result_path = out_dir / f"result-{workload}-seed{seed}-trace0.json"
        result = json.loads(result_path.read_text())
        result_path.unlink()
        return result
    finally:
        if made:
            shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    with ExitStack() as stack:
        trees, described = {}, {}
        for side in SIDES:
            trees[side], described[side] = export(getattr(args, side), stack)
        manifest = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        metrics = manifest_metrics(manifest)
        seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
        names = [w["name"] for w in manifest["workloads"]]
        workloads = args.workloads or names
        unknown = sorted(set(workloads) - set(names))
        if unknown:
            ap.error(f"unknown workloads {unknown}; the manifest has {names}")
        report = {**described, "command": manifest["command"], "pairs": args.pairs,
                  "seconds": seconds, "seed": args.seed, "workloads": {}}
        for workload in workloads:
            runs = []
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                run = {"pair": pair, "first": order[0]}
                for side in order:
                    try:
                        run[side] = run_once(manifest["command"], trees[side], workload,
                                             args.seed, seconds)
                    except (RuntimeError, OSError, ValueError) as exc:
                        print(exc, file=sys.stderr)
                        return 1
                runs.append(run)
                print(f"{workload} pair {pair + 1}/{args.pairs} done", file=sys.stderr)
            summary = report["workloads"][workload] = summarize(runs, metrics)
            for name, m in summary["metrics"].items():
                print(f"{workload:6} {name:14} parent {m['parent']['median']:.6g} "
                      f"change {m['change']['median']:.6g} {m['unit']:5} wins "
                      f"{m['change_wins']}/{args.pairs} {m['verdict']}"
                      + (" gain" if m["gain"] else "") + (" bit-equal" if m["bit_equal"] else ""))
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
