import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trajectory.py"
spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

MACHINE = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "cpu": "Test CPU"}


def canned_stdout(seed: int, pass_rel: float, failed: int = 0) -> str:
    metrics = {
        "setup_s": {"value": 0.2, "unit": "s"},
        "pass_rel": {"value": pass_rel, "unit": "ref"},
        "peak_rss_mb": {"value": 50.0 + seed, "unit": "MB"},
    }
    return "\n".join([
        f"workload verify-corpus  seed {seed}  seconds 30  trace 0",
        "machine " + json.dumps({**MACHINE, "seed": seed}),
        f"fail_ratio 0 ({failed} of 100 checks)",
        f"pass_rel {pass_rel:.4f} ref (median pass over its reference)",
        json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


RUNS = [(11, 7.0), (12, 9.0), (13, 8.0), (14, 6.0), (15, 10.0)]


def fake_extra(calls, walls=None):
    """A stand-in for `time_extra` that records its calls and reads canned
    wall times: walls[(side, seed)], a number for every repeat or a list
    with one per repeat, or 1.0."""
    def run(name, seed, root=bench.REPO):
        side = "change" if root == bench.REPO else "parent"
        wall = (walls or {}).get((side, seed), 1.0)
        if isinstance(wall, list):
            wall = wall[sum(call[1:] == (seed, side) for call in calls if call[0] == name)]
        calls.append((name, seed, side))
        return {"seed": seed, "machine": {}, "failed": 0, "attempted": 1,
                "metrics": {"wall_s": wall}, "units": {"wall_s": "s"}}
    return run


def test_parse_run_reads_final_json_line_and_machine_facts():
    run = bench.parse_run(canned_stdout(12, 9.0, failed=3))
    assert run["seed"] == 12
    assert run["machine"] == MACHINE
    assert (run["failed"], run["attempted"]) == (3, 100)
    assert run["metrics"] == {"setup_s": 0.2, "pass_rel": 9.0, "peak_rss_mb": 62.0}
    assert run["units"]["pass_rel"] == "ref"


def test_aggregate_gives_median_quartiles_and_checks():
    parsed = [bench.parse_run(canned_stdout(seed, rel)) for seed, rel in RUNS]
    parsed[1]["failed"] = 2
    report = bench.aggregate({"verify-corpus": parsed})
    assert report["machine"] == MACHINE
    work = report["workloads"]["verify-corpus"]
    assert (work["failed"], work["attempted"]) == (2, 500)
    assert work["metrics"]["pass_rel"] == {
        "median": 8.0, "q1": 7.0, "q3": 9.0, "n": 5, "unit": "ref"
    }
    assert work["metrics"]["peak_rss_mb"]["median"] == 63.0
    assert [run["seed"] for run in work["runs"]] == [11, 12, 13, 14, 15]


def test_single_run_has_equal_quartiles():
    report = bench.aggregate({"hstar-large": [bench.parse_run(canned_stdout(11, 0.5))]})
    rel = report["workloads"]["hstar-large"]["metrics"]["pass_rel"]
    assert rel["median"] == rel["q1"] == rel["q3"] == 0.5


def test_main_writes_trajectory_file(tmp_path, monkeypatch):
    canned = dict(RUNS)
    calls = []

    def fake_run(workload, seed, seconds):
        calls.append((workload, seed, seconds))
        return bench.parse_run(canned_stdout(seed, canned[seed]))

    extra_calls = []
    monkeypatch.setattr(bench, "run_benchmark", fake_run)
    monkeypatch.setattr(bench, "time_extra", fake_extra(extra_calls))
    code = bench.main(["--label", "t", "--seeds", "11-15", "--seconds", "30",
                       "--workloads", "verify-corpus", "--out", str(tmp_path)])
    assert code == 0
    assert calls == [("verify-corpus", seed, 30) for seed in range(11, 16)]
    assert extra_calls == [(name, seed, "change") for name in bench.EXTRAS
                           for seed in range(11, 16) for _ in range(bench.EXTRA_REPEATS)]
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["label"] == "t" and report["seconds"] == 30
    assert report["workloads"]["verify-corpus"]["metrics"]["pass_rel"]["median"] == 8.0
    assert sorted(report["extras"]) == ["change"]
    for name in bench.EXTRAS:
        assert report["extras"]["change"][name]["metrics"]["wall_s"]["median"] == 1.0


def test_parent_pairs_alternate_and_count_lower_readings(tmp_path, monkeypatch):
    parent_rel = dict(RUNS)
    change_rel = {11: 6.0, 12: 8.0, 13: 9.0, 14: 5.0, 15: 9.5}
    calls = []

    def fake_run(workload, seed, seconds, root=bench.REPO):
        side = "change" if root == bench.REPO else "parent"
        calls.append((seed, side))
        rel = (change_rel if side == "change" else parent_rel)[seed]
        return bench.parse_run(canned_stdout(seed, rel))

    monkeypatch.setattr(bench, "run_benchmark", fake_run)
    monkeypatch.setattr(bench, "time_extra", fake_extra([]))
    code = bench.main(["--label", "t", "--seeds", "11-15", "--seconds", "30",
                       "--workloads", "verify-corpus", "--parent", str(tmp_path / "parent"),
                       "--out", str(tmp_path)])
    assert code == 0
    assert calls[:4] == [(11, "parent"), (11, "change"), (12, "change"), (12, "parent")]
    assert len(calls) == 10
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["parent"]["verify-corpus"]["metrics"]["pass_rel"]["median"] == 8.0
    assert report["workloads"]["verify-corpus"]["metrics"]["pass_rel"]["median"] == 8.0
    lower = report["change_lower"]["verify-corpus"]
    assert lower["pass_rel"] == {"lower": 4, "pairs": 5}
    assert lower["peak_rss_mb"] == {"lower": 0, "pairs": 5}


def test_missing_out_directory_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench, "run_benchmark", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(bench, "time_extra", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--label", "t", "--seeds", "11", "--seconds", "30",
                    "--out", str(tmp_path / "missing")])
    assert exit_info.value.code == 2 and calls == []
    assert "not a directory" in capsys.readouterr().err


def test_empty_output_is_an_error():
    with pytest.raises(ValueError):
        bench.parse_run("")


def test_extras_pair_alternate_and_count_lower_readings(tmp_path, monkeypatch):
    calls = []
    walls = {("parent", seed): 2.0 for seed in range(11, 16)}
    walls.update({("change", 11): 1.0, ("change", 12): 3.0, ("change", 13): 1.5,
                  ("change", 14): 1.5, ("change", 15): 2.0})
    monkeypatch.setattr(bench, "run_benchmark",
                        lambda w, seed, seconds, root=bench.REPO: bench.parse_run(canned_stdout(seed, 1.0)))
    monkeypatch.setattr(bench, "time_extra", fake_extra(calls, walls))
    code = bench.main(["--label", "t", "--seeds", "11-15", "--seconds", "30",
                       "--workloads", "hstar-large", "--parent", str(tmp_path / "parent"),
                       "--out", str(tmp_path)])
    assert code == 0
    name = next(iter(bench.EXTRAS))
    # Within a seed the first side alternates from repeat to repeat,
    # starting with the parent on odd seeds.
    repeats = 2 * bench.EXTRA_REPEATS
    assert calls[:4] == [(name, 11, "parent"), (name, 11, "change"),
                         (name, 11, "change"), (name, 11, "parent")]
    assert calls[repeats:repeats + 2] == [(name, 12, "change"), (name, 12, "parent")]
    assert len(calls) == 10 * len(bench.EXTRAS) * bench.EXTRA_REPEATS
    extras = json.loads((tmp_path / "BENCH_t.json").read_text())["extras"]
    for name in bench.EXTRAS:
        assert extras["parent"][name]["metrics"]["wall_s"]["median"] == 2.0
        assert extras["change"][name]["metrics"]["wall_s"] == {
            "median": 1.5, "q1": 1.5, "q3": 2.0, "n": 5, "unit": "s"
        }
        assert extras["change_lower"][name]["wall_s"] == {"lower": 3, "pairs": 5}


def test_extra_repeats_give_their_median_and_summed_checks(tmp_path, monkeypatch):
    assert bench.EXTRA_REPEATS >= 3
    slow = [9.0] * (bench.EXTRA_REPEATS // 2)
    fast = [1.0] * (bench.EXTRA_REPEATS - len(slow))
    walls = {("parent", 11): slow + [2.0] * len(fast), ("change", 11): fast + slow}
    calls = []
    real = fake_extra(calls, walls)

    def flaky(name, seed, root=bench.REPO):
        run = real(name, seed, root)
        return {**run, "failed": int(root != bench.REPO and len(calls) == 1)}

    monkeypatch.setattr(bench, "run_benchmark",
                        lambda w, seed, seconds, root=bench.REPO: bench.parse_run(canned_stdout(seed, 1.0)))
    monkeypatch.setattr(bench, "time_extra", flaky)
    code = bench.main(["--label", "t", "--seeds", "11", "--seconds", "30",
                       "--workloads", "hstar-large", "--parent", str(tmp_path / "parent"),
                       "--out", str(tmp_path)])
    assert code == 1
    extras = json.loads((tmp_path / "BENCH_t.json").read_text())["extras"]
    name = next(iter(bench.EXTRAS))
    assert extras["parent"][name]["metrics"]["wall_s"]["median"] == 2.0
    assert extras["change"][name]["metrics"]["wall_s"]["median"] == 1.0
    assert extras["change_lower"][name]["wall_s"] == {"lower": 1, "pairs": 1}
    assert (extras["parent"][name]["failed"], extras["parent"][name]["attempted"]) == (
        1, bench.EXTRA_REPEATS)
    assert extras["change"][name]["failed"] == 0


def test_time_extra_runs_in_the_checkout_and_fails_on_nonzero_exit(tmp_path, monkeypatch):
    seen = []

    def fake_subprocess_run(argv, capture_output, cwd, env):
        seen.append((argv, cwd, env["PYTHONPATH"]))
        return subprocess.CompletedProcess(argv, returncode=len(seen) - 1)

    monkeypatch.setattr(bench.subprocess, "run", fake_subprocess_run)
    ok = bench.time_extra("cli-cold-start", 11, root=tmp_path)
    failed = bench.time_extra("zero-window-regression", 12, root=tmp_path)
    search = bench.time_extra("search-strong-k2", 13, root=tmp_path)
    assert (ok["failed"], ok["attempted"], ok["seed"]) == (0, 1, 11)
    assert (failed["failed"], failed["attempted"], failed["seed"]) == (1, 1, 12)
    assert (search["failed"], search["seed"]) == (1, 13)
    assert ok["metrics"]["wall_s"] >= 0 and ok["units"] == {"wall_s": "s"}
    assert seen[0][0][1:] == bench.EXTRAS["cli-cold-start"]
    assert seen[1][0][1:] == bench.EXTRAS["zero-window-regression"]
    assert seen[2][0][1:] == ["-m", "hstarkit", "search", "--k", "2", "--window", "strong",
                              "--max-order", "24", "--max-dim", "4"]
    assert all(cwd == tmp_path and path == str(tmp_path / "src") for _, cwd, path in seen)


def test_failed_extra_makes_the_exit_code_nonzero(tmp_path, monkeypatch):
    def failing_extra(name, seed, root=bench.REPO):
        return {**fake_extra([])(name, seed, root), "failed": 1}

    monkeypatch.setattr(bench, "run_benchmark",
                        lambda w, seed, seconds, root=bench.REPO: bench.parse_run(canned_stdout(seed, 1.0)))
    monkeypatch.setattr(bench, "time_extra", failing_extra)
    code = bench.main(["--label", "t", "--seeds", "11", "--seconds", "30",
                       "--workloads", "hstar-large", "--out", str(tmp_path)])
    assert code == 1
    extras = json.loads((tmp_path / "BENCH_t.json").read_text())["extras"]
    assert all(extras["change"][name]["failed"] == bench.EXTRA_REPEATS for name in bench.EXTRAS)


def test_extra_runs_keep_every_repeat_and_which_side_ran_first(tmp_path, monkeypatch):
    n = bench.EXTRA_REPEATS
    walls = {("parent", 11): [2.0 + i for i in range(n)], ("change", 11): [1.0 + i for i in range(n)],
             ("parent", 12): 3.0, ("change", 12): 4.0}
    monkeypatch.setattr(bench, "run_benchmark",
                        lambda w, seed, seconds, root=bench.REPO: bench.parse_run(canned_stdout(seed, 1.0)))
    monkeypatch.setattr(bench, "time_extra", fake_extra([], walls))
    code = bench.main(["--label", "t", "--seeds", "11-12", "--seconds", "30",
                       "--workloads", "hstar-large", "--parent", str(tmp_path / "parent"),
                       "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    for name in bench.EXTRAS:
        parent, change = (report["extras"][side][name]["runs"] for side in ("parent", "change"))
        # Seed 11 runs the parent first in its odd turns, seed 12 the change.
        assert parent[0]["repeats"] == [{"wall_s": 2.0 + i, "ran_first": i % 2 == 0} for i in range(n)]
        assert change[0]["repeats"] == [{"wall_s": 1.0 + i, "ran_first": i % 2 == 1} for i in range(n)]
        assert change[1]["repeats"] == [{"wall_s": 4.0, "ran_first": i % 2 == 0} for i in range(n)]
        assert [run["metrics"]["wall_s"] for run in parent] == [2.0 + n // 2, 3.0]
        assert [run["seed"] for run in change] == [11, 12]
    assert set(report["workloads"]["hstar-large"]["runs"][0]) == {
        "seed", "failed", "attempted", "metrics"}


def test_every_run_writes_bytecode_only_to_its_checkouts_fresh_directory(tmp_path, monkeypatch):
    parent = (tmp_path / "parent").resolve()
    stale = bench.pycache_dir(parent) / "stale.pyc"
    stale.parent.mkdir()
    stale.write_bytes(b"")
    seen = []

    def fake_subprocess_run(argv, cwd, env, **kwargs):
        seen.append((cwd, env))
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        assert not (cache / "stale.pyc").exists()
        cache.mkdir(exist_ok=True)  # as the interpreter does when it writes bytecode
        stdout = canned_stdout(11, 1.0) if argv[1].endswith("run.py") else ""
        return subprocess.CompletedProcess(argv, returncode=0, stdout=stdout)

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench.subprocess, "run", fake_subprocess_run)
    code = bench.main(["--label", "t", "--seeds", "11", "--seconds", "30",
                       "--workloads", "hstar-large", "--parent", str(parent),
                       "--out", str(tmp_path)])
    assert code == 0
    # Per side: one benchmark run and every repeat of every extra.
    assert len(seen) == 2 * (1 + len(bench.EXTRAS) * bench.EXTRA_REPEATS)
    assert all("PYTHONDONTWRITEBYTECODE" not in env for _, env in seen)
    for root in (bench.REPO, parent):
        caches = {env["PYTHONPYCACHEPREFIX"] for cwd, env in seen if cwd == root}
        assert caches == {str(bench.pycache_dir(root))}
        assert not bench.pycache_dir(root).is_relative_to(root)
        assert not bench.pycache_dir(root).exists()  # removed once the file is written
    assert bench.pycache_dir(bench.REPO) != bench.pycache_dir(parent)
