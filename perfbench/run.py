#!/usr/bin/env python3
"""hstarkit benchmark: one workload, one seed, exact output checks.

    python3 perfbench/run.py --workload {hstar-large,extract-cohort,verify-corpus}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. The benchmark writes the seed's relabelled inputs under
``.bench_work/``, starts fresh single-threaded worker processes one after
another (never two at once), checks every output of every pass against
expected values, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (from
interpreter start until hstarkit is imported and the inputs are loaded as
simplices, median of nine starts), ``pass_rel`` (median pass time in units
of a fixed reference task timed next to it, see ``worker.reference_s``)
and ``peak_rss_mb``. The lines before the JSON also give the wall-clock
``pass_s`` and ``item_ms.p50``/``p90`` (p90 only with at least 100 item
samples), ``fail_ratio`` and the machine facts. With ``--trace 1`` the
metrics are the per-layer spans and counts, per pass, and the tracing
overhead. Any failed check makes the exit code 1, and a pass with a wrong
output is never timed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 8  # timed set-ups per run, besides the measuring worker's own
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 100  # beyond --seconds, for the pass under way and the report


def machine_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # One process, no worker threads, stable hashing of strings.
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its set-up time: from process start
    until it has imported hstarkit and loaded its inputs."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not start: {line!r}")
    except BaseException:
        stop(proc)
        raise
    return proc, ready


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    out = {}
    for name in traced[0]["layers"]:
        if name.endswith(".self_s"):
            unit = "s"
        elif name.endswith("hit_ratio"):
            unit = "ratio"
        else:
            unit = "count"
        out[name] = {"value": statistics.median(p["layers"][name] for p in traced), "unit": unit}
    # Overhead: median over back-to-back pairs on the same inputs.
    plain = {p["pair"]: p["seconds"] for p in untraced}
    diffs = [p["seconds"] - plain[p["pair"]] for p in traced if p["pair"] in plain]
    out["trace.pass_s"] = {"value": statistics.median(p["seconds"] for p in traced), "unit": "s"}
    out["trace.overhead_s"] = {"value": statistics.median(diffs) if diffs else 0.0, "unit": "s"}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    package = ROOT / "src" / "hstarkit"
    corpus = ROOT / "corpus"
    if not (package / "__init__.py").is_file() or not corpus.is_dir():
        print(f"error: {ROOT} is not an hstarkit checkout (needs src/hstarkit and corpus/)",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    inputs = work / "inputs"
    inputs.mkdir()
    try:
        expected = workloads.write_inputs(args.workload, args.seed, corpus, inputs)
        common = ["--workload", args.workload, "--inputs", str(inputs)]

        setup = []

        def sample_setup(count: int) -> None:
            for _ in range(count):
                proc, ready = start_worker([*common, "--setup-only"])
                finish(proc, SETUP_TIMEOUT_S)
                setup.append(ready)

        if not args.trace:
            # The first start also writes bytecode caches; it is not timed.
            finish(start_worker([*common, "--setup-only"])[0], SETUP_TIMEOUT_S)
            sample_setup(SETUP_SAMPLES // 2)

        out_path = work / "passes.json"
        proc, ready = start_worker([*common, "--seconds", str(args.seconds),
                                    "--trace", str(args.trace), "--out", str(out_path)])
        finish(proc, args.seconds + RUN_TIMEOUT_S)
        setup.append(ready)
        if not args.trace:
            # Samples on both sides of the measured run, which spans the
            # machine's slower and faster spells alike.
            sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        report = json.loads(out_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    problems = []
    if Path(report["hstarkit"]) != package.resolve():
        problems.append(f"imported hstarkit from {report['hstarkit']}, not {package}")
    check = workloads.checker(args.workload)
    attempted = 0
    good = []
    for p in report["passes"]:
        pass_problems = []
        for exp, out in zip(expected, p["outputs"]):
            n, found = check(exp, out)
            attempted += n
            pass_problems += found
        if len(p["outputs"]) != len(expected):
            attempted += 1
            pass_problems.append(f"{len(p['outputs'])} outputs for {len(expected)} items")
        if p.get("span_check"):
            attempted += 1
            pass_problems.append(p["span_check"])
        problems += pass_problems
        if not pass_problems:
            good.append(p)
    failed = len(problems)
    attempted = max(attempted, failed, 1)

    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    items_ms = [t * 1000 for p in untraced for t in p["item_s"]]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine " + json.dumps(machine_facts(args.seed)))
    for msg in problems[:20]:
        print(f"FAIL {msg}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} checks)")

    metrics = {}
    if untraced and not args.trace:
        pass_s = [p["seconds"] for p in untraced]
        reference = [p["reference_s"] for p in untraced]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_rel": {"value": statistics.median(p["rel"] for p in untraced), "unit": "ref"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        print(f"setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setup)} starts)")
        print(f"pass_s {statistics.median(pass_s):.4f} s (median of {len(pass_s)} passes)")
        print(f"reference_s {statistics.median(reference):.4f} s (median)")
        print(f"pass_rel {metrics['pass_rel']['value']:.4f} ref (median pass over its reference)")
        print(f"item_ms.p50 {statistics.median(items_ms):.4f} ms (n={len(items_ms)})")
        if len(items_ms) >= 100:
            print(f"item_ms.p90 {statistics.quantiles(items_ms, n=10)[8]:.4f} ms "
                  f"(n={len(items_ms)})")
        else:
            print(f"item_ms.p90 not reported: {len(items_ms)} samples, needs 100")
        print(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    elif traced and untraced:
        metrics = per_layer_metrics(traced, untraced)
        print(f"trace.overhead_s {metrics['trace.overhead_s']['value']:.4f} s per pass "
              f"(traced {metrics['trace.pass_s']['value']:.4f} s, "
              f"{len(traced)} traced and {len(untraced)} untraced passes)")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
