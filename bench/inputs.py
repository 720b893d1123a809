"""Seeded inputs and operation lists of the four benchmark workloads.

Each workload is a fixed list of `nonlocalrd` command lines.  The
program only ever sees the config, graph and table-CSV files written
here; the same seed writes byte-identical files.  The seed perturbs
coefficients by a few percent at most, so that every seed does about
the same amount of work and timings stay comparable across seeds (the
verify suites keep a fixed suite seed, see `_verify`).

Every operation carries the parameters the output checks need to
rebuild the system with plain numpy, independently of the program's
config parser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

# the interval family shared by `equilibria` and `evolve`
KERNEL_R = 0.3
KERNEL_J0 = 2.0
REACTION = {"kind": "logistic", "g": 0.2, "n": 1.0, "m": 1.0, "rho": 3.0}
VERIFY_SEED = 0
SUITES = ("comparison", "maximum", "supersolution", "asymptotic")


@dataclass
class Op:
    """One command line of a workload and what its check needs."""

    name: str
    argv: List[str]
    check: str                      # key into checks.CHECKS
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: Tuple[str, ...]             # the names `build` gives its ops, in order
    build: Callable[[np.random.Generator, Path, bool], List[Op]]


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return str(path)


def _coefficients(rng):
    return 1.0 + float(rng.uniform(-0.02, 0.02)), 0.5 + float(rng.uniform(-0.02, 0.02))


def _interval_system(n: int, c0: float, c1: float):
    """Tophat kernel, potential c0 + c1·sin(2πx), logistic reaction."""
    cfg = {
        "space": {"type": "interval", "a": 0.0, "b": 1.0, "n": n, "rule": "midpoint"},
        "kernel": {"law": "tophat", "R": KERNEL_R, "J0": KERNEL_J0},
        "potential": {"kind": "expr", "expr": f"{c0!r} + {c1!r}*sin(2*pi*x)"},
        "reaction": dict(REACTION),
    }
    return cfg, {"n": n, "c0": c0, "c1": c1}


def _equilibria(rng, work: Path, smoke: bool) -> List[Op]:
    ops = []
    sizes = (32, 64) if smoke else (256, 512)
    for name, n in zip(("equilibria.n256", "equilibria.n512"), sizes):
        cfg, params = _interval_system(n, *_coefficients(rng))
        path = _write_json(work / f"{name}.json", cfg)
        ops.append(Op(name, ["equilibria", "--config", path], "equilibria", params))
    return ops


def _evolve(rng, work: Path, smoke: bool) -> List[Op]:
    # u0 = a + b·cos(2πx) with b < a keeps u0 >= 0; f(·,0) = g >= 0 as well,
    # so every euler_op state must stay nonnegative
    a = 0.5 + float(rng.uniform(-0.05, 0.05))
    b = 0.4 + float(rng.uniform(-0.05, 0.05))
    u0 = {"kind": "expr", "expr": f"{a!r} + {b!r}*cos(2*pi*x)"}
    big, mid = (64, 32) if smoke else (2048, 1024)
    specs = [
        ("evolve.rk4", big, {"scheme": "rk4", "dt": 0.002, "t_end": 0.5, "store_every": 25}),
        ("evolve.euler_op", big, {"scheme": "euler_op", "dt": 0.001, "t_end": 0.5,
                                  "store_every": 50}),
        ("evolve.vcf", mid, {"scheme": "vcf_exact_linear", "dt": 0.002, "t_end": 0.5,
                             "store_every": 25}),
    ]
    coefficients = _coefficients(rng)  # one system for all schemes, so they compare
    ops = []
    for name, n, integ in specs:
        cfg, params = _interval_system(n, *coefficients)
        cfg["u0"] = u0
        cfg["integrator"] = integ
        params.update(u0_a=a, u0_b=b, **integ)
        path = _write_json(work / f"{name}.json", cfg)
        ops.append(Op(name, ["evolve", "--config", path], name, params))
    return ops


def _verify(rng, work: Path, smoke: bool) -> List[Op]:
    # The suites draw their systems from their own seed, and how many of the
    # trials land on n = 128 (binomial) swings a pass by +-30% between suite
    # seeds; the suite seed stays fixed so that timings compare across seeds.
    trials = 3 if smoke else 20
    return [Op(f"verify.{suite}", ["verify", "--suite", suite, "--trials", str(trials),
                                   "--seed", str(VERIFY_SEED)], "verify", {"suite": suite})
            for suite in SUITES]


def _ring_graph(rng, n: int):
    """Ring of unit-ish edges plus n random chords; every vertex is reachable."""
    edges = [[i, (i + 1) % n, float(rng.uniform(0.5, 1.5))] for i in range(n)]
    for _ in range(n):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i != j:
            edges.append([i, j, float(rng.uniform(1.0, 5.0))])
    measures = [float(v) for v in rng.uniform(0.5, 1.5, size=n) / n]
    potential = [float(v) for v in 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=n)]
    return edges, measures, potential


def _drift_table(rng, n: int) -> np.ndarray:
    """Nonsymmetric tophat with a drift term and 1% seeded noise."""
    x = (np.arange(n) + 0.5) / n
    d = x[None, :] - x[:, None]
    r = 0.1
    noise = 1.0 + 0.01 * rng.uniform(-1.0, 1.0, size=(n, n))
    return 2.0 * (np.abs(d) < r) * (1.0 + 0.5 * d / r) * noise


def _spectrum(rng, work: Path, smoke: bool) -> List[Op]:
    ops = []
    nv = 48 if smoke else 512
    edges, measures, potential = _ring_graph(rng, nv)
    sigma = 4.0
    cfg = {"space": {"type": "graph", "vertices": nv, "edges": edges, "measures": measures},
           "kernel": {"law": "gaussian", "sigma": sigma, "scale": 1.0},
           "potential": potential}
    path = _write_json(work / "spectrum_graph.json", cfg)
    ops.append(Op("spectrum.graph", ["spectrum", "--config", path, "--method", "auto"],
                  "spectrum", {"space": "graph", "edges": edges, "measures": measures,
                               "sigma": sigma, "potential": potential}))

    # two identical components whose potentials differ by ~2e-3: the power
    # iteration has to separate two nearly equal top eigenvalues; its
    # iteration count follows the slope closely, so the seed moves it by 0.1%
    nu = 32 if smoke else 256
    slope = 2e-3 * (1.0 + 0.001 * float(rng.uniform(-1.0, 1.0)))
    parts = [{"type": "interval", "a": 0.0, "b": 1.0, "n": nu},
             {"type": "interval", "a": 1.2, "b": 2.2, "n": nu}]
    cfg = {"space": {"type": "union", "parts": parts},
           "kernel": {"law": "tophat", "R": 0.05, "J0": 2.0},
           "potential": {"kind": "expr", "expr": f"1.0 + {slope!r}*x"}}
    path = _write_json(work / "spectrum_union.json", cfg)
    ops.append(Op("spectrum.union", ["spectrum", "--config", path, "--method", "auto"],
                  "spectrum", {"space": "union", "parts": parts, "R": 0.05, "J0": 2.0,
                               "slope": slope}))

    nt = 48 if smoke else 512
    table = _drift_table(rng, nt)
    table_path = work / "spectrum_table.csv"
    np.savetxt(table_path, table, delimiter=",")
    c0 = 1.0 + float(rng.uniform(-0.02, 0.02))
    cfg = {"space": {"type": "interval", "a": 0.0, "b": 1.0, "n": nt, "rule": "midpoint"},
           "kernel": {"law": "table", "path": str(table_path)},
           "potential": {"kind": "expr", "expr": f"{c0!r} + 0.5*sin(2*pi*x)"}}
    path = _write_json(work / "spectrum_table.json", cfg)
    ops.append(Op("spectrum.table", ["spectrum", "--config", path, "--method", "auto"],
                  "spectrum", {"space": "table", "n": nt, "table": str(table_path),
                               "c0": c0}))

    levels = [float(v) for v in (1.0, 3.0, 10.0, 100.0)
              * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, size=4))]
    argv = ["case", "shift", "--set", f"levels={json.dumps(levels)}"]
    if smoke:
        argv += ["--set", "n=64"]
    ops.append(Op("case.shift", argv, "case.shift", {"levels": levels}))
    return ops


# Why each workload is there is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("equilibria", ("equilibria.n256", "equilibria.n512"), _equilibria),
    Workload("evolve", ("evolve.rk4", "evolve.euler_op", "evolve.vcf"), _evolve),
    Workload("verify", tuple(f"verify.{s}" for s in SUITES), _verify),
    Workload("spectrum", ("spectrum.graph", "spectrum.union", "spectrum.table", "case.shift"),
             _spectrum),
)}


def generate(workload: str, seed: int, work: Path, smoke: bool = False) -> List[Op]:
    """Write the workload's input files under `work` and return its ops."""
    work.mkdir(parents=True, exist_ok=True)
    index = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, index])
    ops = WORKLOADS[workload].build(rng, work, smoke)
    assert tuple(op.name for op in ops) == WORKLOADS[workload].ops
    return ops


ALL_OPS = [name for w in WORKLOADS.values() for name in w.ops]
