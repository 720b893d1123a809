"""Smoke tests of the benchmark: tiny sizes, checks on, no timing assertions."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)


def _result(res) -> dict:
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    out = _result(_run("--workload", workload, "--smoke", "--seed", "3", "--trace", "1"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in out["metrics"].items())
    if workload == "evolve":
        assert out["metrics"]["spectral.principal_value.calls"]["value"] == 0


def test_smoke_untraced_metrics():
    out = _result(_run("--workload", "spectrum", "--smoke", "--trace", "0"))
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_counts_repeat_exactly():
    runs = [_result(_run("--workload", "equilibria", "--smoke", "--trace", "1"))["metrics"]
            for _ in range(2)]
    counts = [k for k, v in runs[0].items() if v["unit"] == "count"]
    assert counts
    assert all(runs[0][k]["value"] == runs[1][k]["value"] for k in counts)
    assert runs[0]["spectral.principal_value.repeat_calls"]["value"] > 0


def test_same_seed_same_inputs(tmp_path):
    sys.path.insert(0, str(BENCH))
    try:
        from inputs import WORKLOADS as defined, generate
    finally:
        sys.path.remove(str(BENCH))
    assert list(defined) == WORKLOADS
    for name in WORKLOADS:
        a, b = tmp_path / "a" / name, tmp_path / "b" / name
        generate(name, 5, a)
        generate(name, 5, b)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for f in files:
            left = (a / f).read_text().replace(str(a), "")
            assert left == (b / f).read_text().replace(str(b), "")


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
