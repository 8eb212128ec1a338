#!/usr/bin/env python3
"""Run the benchmark for some workloads and seeds and write one trajectory
file, BENCH_<label>.json, with the median and quartiles of every metric.

    python3 scripts/bench_trajectory.py --label NAME --seeds 11-20 --seconds 30 \\
        [--workloads verify-corpus hstar-large] [--parent DIR] [--out DIR]

Each (workload, seed) is one untraced `perfbench/run.py` run of this
checkout, one at a time. Its final JSON line gives the metrics and the
failed/attempted checks, and its `machine` line the machine facts. Per
workload the file holds, for every metric, the median, q1 and q3 over the
seeds (inclusive quartiles), the summed `failed`/`attempted`, and every
run's values, so two trajectory files can be compared pair by pair.

With --parent, every (workload, seed) also runs the benchmark of that
other checkout (say, a clone of the parent commit), as a pair with this
one; the side that runs first alternates with the seed. The file then also
holds the parent's statistics under "parent" and, per metric, in how many
pairs this checkout read lower under "change_lower".

Per seed and side it also times three end-to-end commands that the
benchmark does not cover: `scripts/zero_window_regression.py` (the whole
face-extraction cohort), a CLI cold start on the unit triangle, and a
strong-window `search`, the one run of the cyclic realization (a Hermite
basis and an adjugate per hit). Each is run EXTRA_REPEATS times per seed
and side, the sides alternating from one repeat to the next, and the
median of those runs is that seed's `wall_s`; a run whose exit code is not
0 counts as failed. Each seed's run record also keeps every repeat's
`wall_s` and whether that side ran first in its repeat, under "repeats".
Their statistics go under "extras": "change", and with --parent also
"parent" and "change_lower".

Every run writes and reads bytecode only in a directory of its checkout's
own outside the tree, emptied when this script starts and removed when it
ends (PYTHONPYCACHEPREFIX; PYTHONDONTWRITEBYTECODE is dropped), so both
sides start from the same bytecode state and neither reads stale
`__pycache__` files of its tree.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("hstar-large", "extract-cohort", "verify-corpus")
# Commands timed end to end, as arguments to the interpreter in the checkout.
EXTRAS = {
    "zero-window-regression": ["scripts/zero_window_regression.py"],
    "cli-cold-start": ["-m", "hstarkit", "hstar", "corpus/unit-triangle.json"],
    "search-strong-k2": ["-m", "hstarkit", "search", "--k", "2", "--window", "strong",
                         "--max-order", "24", "--max-dim", "4"],
}
# Runs of each extra per seed and side; one run could not resolve a change
# of less than about a third in the search's wall time.
EXTRA_REPEATS = 5


def parse_run(stdout: str) -> dict:
    """The final JSON line of one benchmark run, with its machine facts."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("benchmark printed nothing")
    result = json.loads(lines[-1])
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), {})
    return {
        "seed": machine.pop("seed", None),
        "machine": machine,
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def aggregate(runs: dict[str, list[dict]]) -> dict:
    """Per workload: every metric's median and quartiles, the summed checks
    and the runs themselves; the machine facts of the first run."""
    out = {"machine": {}, "workloads": {}}
    for workload, parsed in runs.items():
        if not out["machine"] and parsed:
            out["machine"] = parsed[0]["machine"]
        names = sorted({name for run in parsed for name in run["metrics"]})
        metrics = {}
        for name in names:
            values = [run["metrics"][name] for run in parsed if name in run["metrics"]]
            unit = next(run["units"][name] for run in parsed if name in run["units"])
            metrics[name] = {**quartiles(values), "unit": unit}
        out["workloads"][workload] = {
            "failed": sum(run["failed"] for run in parsed),
            "attempted": sum(run["attempted"] for run in parsed),
            "metrics": metrics,
            "runs": [
                {key: value for key, value in run.items() if key not in ("machine", "units")}
                for run in parsed
            ],
        }
    return out


def lower_counts(parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> dict:
    """Per workload and metric: the pairs (same seed) in which the change
    read lower than the parent, out of the pairs run."""
    out = {}
    for workload, runs in change.items():
        pairs = list(zip(parent[workload], runs))
        names = sorted({name for _, run in pairs for name in run["metrics"]})
        out[workload] = {
            name: {"lower": sum(c["metrics"][name] < p["metrics"][name] for p, c in pairs),
                   "pairs": len(pairs)}
            for name in names
        }
    return out


def pycache_dir(root: Path) -> Path:
    """Where the runs in a checkout write and read bytecode: outside the
    tree, one directory per checkout and invocation of this script."""
    digest = hashlib.sha256(str(root).encode()).hexdigest()[:12]
    return Path(tempfile.gettempdir()) / f"bench-pycache-{os.getpid()}-{digest}"


def checkout_env(root: Path, **extra: str) -> dict[str, str]:
    """The environment of a run in a checkout: bytecode is written, and only
    to its pycache_dir."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache_dir(root)), **extra)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_benchmark(workload: str, seed: int, seconds: int, root: Path = REPO) -> dict:
    res = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=root, env=checkout_env(root),
    )
    if not res.stdout.strip():
        raise RuntimeError(f"{workload} seed {seed} printed nothing: {res.stderr[-2000:]}")
    return parse_run(res.stdout)


def time_extra(name: str, seed: int, root: Path = REPO) -> dict:
    """Wall time of one run of an EXTRAS command in a checkout, shaped like
    a parsed benchmark run; a nonzero exit code makes it a failed run."""
    env = checkout_env(root, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    res = subprocess.run([sys.executable, *EXTRAS[name]], capture_output=True, cwd=root, env=env)
    wall = time.perf_counter() - start
    return {"seed": seed, "machine": {}, "failed": int(res.returncode != 0), "attempted": 1,
            "metrics": {"wall_s": wall}, "units": {"wall_s": "s"}}


def median_run(runs: list[dict], first: list[bool]) -> dict:
    """One seed's repeated runs of an extra as one run: the median wall
    time, the summed checks, and each repeat's wall time with whether this
    side ran first in it."""
    walls = [run["metrics"]["wall_s"] for run in runs]
    return {**runs[0], "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "metrics": {"wall_s": statistics.median(walls)},
            "repeats": [{"wall_s": w, "ran_first": f} for w, f in zip(walls, first)]}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range, help="N or FIRST-LAST")
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--parent", type=Path,
                    help="another checkout to run as the parent of each pair")
    ap.add_argument("--out", type=Path, default=REPO)
    args = ap.parse_args(argv)
    if not args.out.is_dir():
        ap.error(f"--out {args.out} is not a directory")

    roots = [REPO, args.parent.resolve()] if args.parent else [REPO]
    for root in roots:
        shutil.rmtree(pycache_dir(root), ignore_errors=True)
    try:
        return run_sides(args)
    finally:
        for root in roots:
            shutil.rmtree(pycache_dir(root), ignore_errors=True)


def run_sides(args: argparse.Namespace) -> int:
    """The runs of every side, seed and workload, and the trajectory file."""
    sides = ["parent", "change"] if args.parent else ["change"]
    runs: dict[str, dict[str, list[dict]]] = {side: {} for side in sides}
    extras: dict[str, dict[str, list[dict]]] = {side: {} for side in sides}

    def record(into: dict, name: str, side: str, seed: int, run: dict) -> None:
        into[side].setdefault(name, []).append(run)
        print(f"{name} seed {seed} {side}: failed {run['failed']}/{run['attempted']} "
              + " ".join(f"{k} {v:.4g}" for k, v in sorted(run["metrics"].items())),
              flush=True)

    for name in args.workloads:
        for seed in args.seeds:
            for side in sides if seed % 2 else sides[::-1]:
                root = {} if side == "change" else {"root": args.parent.resolve()}
                record(runs, name, side, seed, run_benchmark(name, seed, args.seconds, **root))
    for name in EXTRAS:
        for seed in args.seeds:
            repeats: dict[str, list[dict]] = {side: [] for side in sides}
            first: dict[str, list[bool]] = {side: [] for side in sides}
            for turn in range(seed, seed + EXTRA_REPEATS):
                order = sides if turn % 2 else sides[::-1]
                for side in order:
                    root = {} if side == "change" else {"root": args.parent.resolve()}
                    repeats[side].append(time_extra(name, seed, **root))
                    first[side].append(side == order[0])
            for side in sides:
                record(extras, name, side, seed, median_run(repeats[side], first[side]))
    report = {"label": args.label, "seconds": args.seconds, **aggregate(runs["change"]),
              "extras": {"change": aggregate(extras["change"])["workloads"]}}
    if args.parent:
        report["parent"] = aggregate(runs["parent"])["workloads"]
        report["change_lower"] = lower_counts(runs["parent"], runs["change"])
        report["extras"]["parent"] = aggregate(extras["parent"])["workloads"]
        report["extras"]["change_lower"] = lower_counts(extras["parent"], extras["change"])
    failed = sum(run["failed"] for store in (runs, extras) for side in store.values()
                 for parsed in side.values() for run in parsed)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
