#!/usr/bin/env python3
"""Benchmark of the `nonlocalrd` command line.

Runs one workload's fixed list of `nonlocalrd` commands in-process,
through `nonlocalrd.cli.main`, repeatedly for about `--seconds` seconds,
checks every output against a reference computed here, and prints one
JSON result as the last line of standard output.

    python3 bench/run.py --workload equilibria --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20     # every workload, a table
    python3 bench/run.py --workload verify --smoke       # tiny sizes, checks on

With `--trace 0` the result holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced pass, which is
paired with an untraced pass to give the tracing overhead.  Run from
anywhere; the benchmark works in the checkout that holds this file and
builds nothing: the program is imported from its `src/` directory.
Details (quartiles, per-op times, environment) go to `bench/out/`.
See bench/README.md for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path("bench") / "out"          # result details and spans, under ROOT
WORK = Path("bench") / ".work"       # generated inputs and op outputs, under ROOT
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))



def _pin_threads() -> None:
    """Fix the BLAS pool size before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_program():
    """Import `nonlocalrd.cli` from this checkout's sources, nowhere else."""
    sys.path.insert(0, str(SRC))
    from nonlocalrd import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"nonlocalrd was imported from {cli.__file__}, not from {SRC}")
    return cli


def _summary(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one pass over the ops


def _run_op(cli, op, out_dir: Path, tracer=None):
    """Run one op; return its exit code and what it printed."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    argv = ["--out", str(out_dir)] + op.argv
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.run_op(op.name, cli.main, argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def run_pass(cli, ops, work: Path, refs: dict, tracer=None) -> dict:
    """Time one pass over the ops, then check every output untimed."""
    from checks import CHECKS, CheckError

    outputs = {op.name: work / "out" / op.name for op in ops}
    op_s = {}
    codes = {}
    logs = {}
    c0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        codes[op.name], logs[op.name] = _run_op(cli, op, outputs[op.name], tracer)
        op_s[op.name] = time.perf_counter() - t
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0

    failures = {}
    for op in ops:
        if codes[op.name] != 0:
            failures[op.name] = f"exit {codes[op.name]}: {logs[op.name].strip()}"
            continue
        try:
            CHECKS[op.check](op, outputs[op.name], outputs, refs)
        except (CheckError, OSError, ValueError, KeyError) as exc:
            failures[op.name] = f"{type(exc).__name__}: {exc}"
    for name, why in failures.items():
        print(f"FAILED {name}: {why}", file=sys.stderr)
    nbytes = sum(f.stat().st_size for d in outputs.values() if d.exists()
                 for f in d.rglob("*") if f.is_file())
    return {"wall_s": wall, "cpu_s": cpu, "op_s": op_s, "failures": failures,
            "bytes_written": nbytes}


def _equilibria_iterations(ops, work: Path) -> int:
    total = 0
    for op in ops:
        path = work / "out" / op.name / "equilibria.json"
        if op.check == "equilibria" and path.exists():
            total += sum(json.loads(path.read_text())["iterations"].values())
    return total


# ---------------------------------------------------------------------------
# a whole run


def setup_probe(workload: str, seed: int, smoke: bool) -> float:
    """Import the program and write the inputs; the set-up a user pays."""
    t0 = time.perf_counter()
    _import_program()
    from inputs import generate

    generate(workload, seed, WORK / f"probe-{workload}", smoke)
    return time.perf_counter() - t0


def _setup_samples(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(res.stdout.split()[-1]))
    return samples


def run_workload(args, spec: dict) -> int:
    setup = _setup_samples(args)
    cli = _import_program()
    from inputs import generate
    import checks
    import tracer as tracing

    work = WORK / args.workload
    ops = generate(args.workload, args.seed, work / "inputs", args.smoke)
    names = [op.name for op in ops]
    refs: dict = {}
    if not args.smoke:  # let lazy imports and the BLAS pool start before timing
        warm = generate(args.workload, args.seed, work / "warmup", smoke=True)
        run_pass(cli, warm, work / "warmup", {})

    untraced, traced = [], []
    lam_refs: dict = {}
    tr = tracing.Tracer()
    measured = 0.0
    while True:
        untraced.append(run_pass(cli, ops, work, refs))
        measured += untraced[-1]["wall_s"]
        if args.trace:
            first_span = len(tr.spans)
            tr.install()
            try:
                res = run_pass(cli, ops, work, refs, tr)
            finally:
                tr.restore()
            measured += res["wall_s"]
            for digest, amat in tr.matrices.items():
                lam_refs.setdefault(digest, checks.reference_lambda(amat))
            tr.matrices.clear()
            res["layers"] = tracing.layer_metrics(
                tr.spans[first_span:], lam_refs, _equilibria_iterations(ops, work))
            res["layers"]["cli.bytes_written"] = res["bytes_written"]
            res["layers"]["trace_overhead_s"] = res["wall_s"] - untraced[-1]["wall_s"]
            traced.append(res)
        if measured >= args.seconds:
            break

    passes = untraced + traced
    attempted = len(ops) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    e2e = {
        "wall_s": _summary(p["wall_s"] for p in untraced),
        "cpu_s": _summary(p["cpu_s"] for p in untraced),
        "setup_s": _summary(setup),
        "peak_rss_mb": _summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, s in e2e.items():
        s["unit"] = units[name]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    detail = {
        "workload": args.workload, "why": why,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(args.seed),
        "ops": {op.name: op.argv for op in ops},
        "ops_attempted": attempted, "ops_failed": failed,
        "end_to_end": e2e,
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "op_s": {n: _summary(p["op_s"][n] for p in untraced) for n in names},
        "failures": [p["failures"] for p in passes if p["failures"]],
    }
    if args.trace:
        layers = {k: statistics.median_low(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        detail["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        detail["traced_wall_s"] = _summary(p["wall_s"] for p in traced)
        metrics = detail["per_layer"]
    else:
        metrics = {k: {"value": v["median"], "unit": v["unit"]} for k, v in e2e.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (ROOT / OUT).mkdir(parents=True, exist_ok=True)
    (ROOT / OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        tr.write(ROOT / OUT / f"{stem}-spans.jsonl")

    _print_detail(detail)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _print_detail(detail: dict) -> None:
    print(f"workload {detail['workload']}: {detail['why']}")
    print(f"  ops_attempted {detail['ops_attempted']}, ops_failed {detail['ops_failed']}")
    for name, s in detail["end_to_end"].items():
        print(f"  {name:<12} median {s['median']:.6g} {s['unit']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    for name, m in detail.get("per_layer", {}).items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; print each end-to-end metric."""
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"{name}: exit {res.returncode}")
            ok = False
            continue
        ok = ok and json.loads(res.stdout.splitlines()[-1])["correct"]
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        _print_detail(json.loads((ROOT / OUT / f"{stem}.json").read_text()))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes (n <= 64, 3 verify trials), one pass, checks on")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "nonlocalrd" / "cli.py").is_file():
        print(f"error: no nonlocalrd sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _pin_threads()
    os.chdir(ROOT)
    if args.smoke:
        args.seconds = 0.0
    if args.setup_probe:  # before anything imports numpy: that is part of set-up
        print(f"{setup_probe(args.workload, args.seed, args.smoke)!r}")
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or 'all'",
              file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
