"""Output checks of the benchmark operations.

Every check rebuilds what it needs from the op's parameters with plain
numpy (and scipy's graph routines), never through `nonlocalrd`, and
compares it with the files the command wrote.  Checks run outside the
timed region; a failed check raises CheckError and the op counts as
failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from inputs import KERNEL_J0, KERNEL_R, REACTION, Op

LAMBDA_RTOL = 1e-9        # the program's own convergence promise for Λ
RESIDUAL_TOL = 1e-8       # equilibrium residual, as the program reports it
ORDER_TOL = 1e-12         # φ_m <= φ_M up to rounding of two independent solves
CASE_TOL = 1e-9           # case shift against its closed form
# Final states of the first-order schemes against rk4 at t_end = 1 may differ
# by dt (a first-order error constant of 1; about 0.14 is seen).  vcf runs
# at half rk4's n, which adds the O(1/n) midpoint error of the discontinuous
# tophat kernel: about 0.65/n is seen, 2/n is allowed.
QUADRATURE_CONST = 2.0


class CheckError(Exception):
    """An output of an op disagrees with the benchmark's reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _midpoints(n: int, a: float = 0.0, b: float = 1.0) -> np.ndarray:
    return a + (np.arange(n) + 0.5) * ((b - a) / n)


def _tophat_operator(x: np.ndarray, w: np.ndarray, r: float, j0: float,
                     h: np.ndarray) -> np.ndarray:
    jmat = np.where(np.abs(x[:, None] - x[None, :]) < r, j0, 0.0)
    return jmat * w[None, :] - np.diag(h)


def _interval_family(params: dict):
    n = params["n"]
    x = _midpoints(n)
    h = params["c0"] + params["c1"] * np.sin(2 * np.pi * x)
    return _tophat_operator(x, np.full(n, 1.0 / n), KERNEL_R, KERNEL_J0, h)


def _logistic(u: np.ndarray) -> np.ndarray:
    r = REACTION
    return r["g"] + r["n"] * u - r["m"] * np.abs(u) ** (r["rho"] - 1.0) * u


def _profile(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2]


def _trajectory(out: Path):
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    _require(bool(np.all(np.isfinite(data))), "trajectory has non-finite entries")
    meta = json.loads((out / "evolve.json").read_text())
    _require(not meta["blowup"], "unexpected blow-up")
    _require(math.isclose(data[-1, 0], meta["t_end"], rel_tol=1e-12),
             f"trajectory stops at t = {data[-1, 0]}")
    return data[:, 0], data[:, 1:]


def _coarsen(u: np.ndarray, n: int) -> np.ndarray:
    """Midpoint values on n cells from values on a grid of k·n cells."""
    return u.reshape(n, -1).mean(axis=1)


def check_equilibria(op: Op, out: Path, outputs: Dict[str, Path], refs: dict) -> None:
    if op.name not in refs:
        refs[op.name] = _interval_family(op.params)
    amat = refs[op.name]
    phi_M = _profile(out / "phi_M.csv")
    phi_m = _profile(out / "phi_m.csv")
    for name, phi in (("phi_M", phi_M), ("phi_m", phi_m)):
        res = float(np.max(np.abs(amat @ phi + _logistic(phi))))
        _require(res <= RESIDUAL_TOL, f"{name} residual {res:.3e} > {RESIDUAL_TOL}")
    scale = 1.0 + float(np.max(np.abs(phi_M)))
    _require(bool(np.all(phi_m <= phi_M + ORDER_TOL * scale)), "phi_m exceeds phi_M")


def check_rk4(op: Op, out: Path, outputs: Dict[str, Path], refs: dict) -> None:
    _trajectory(out)


def check_euler_op(op: Op, out: Path, outputs: Dict[str, Path], refs: dict) -> None:
    _, states = _trajectory(out)
    _require(float(np.min(states)) >= 0.0,
             f"euler_op state went negative ({float(np.min(states)):.3e})")
    _, rk4 = _trajectory(outputs["evolve.rk4"])
    gap = float(np.max(np.abs(states[-1] - rk4[-1])))
    _require(gap <= op.params["dt"], f"euler_op and rk4 finals differ by {gap:.3e}")


def check_vcf(op: Op, out: Path, outputs: Dict[str, Path], refs: dict) -> None:
    _, states = _trajectory(out)
    _, rk4 = _trajectory(outputs["evolve.rk4"])
    n = states.shape[1]
    gap = float(np.max(np.abs(states[-1] - _coarsen(rk4[-1], n))))
    tol = op.params["dt"] + QUADRATURE_CONST / n
    _require(gap <= tol, f"vcf and rk4 finals differ by {gap:.3e} > {tol:.3e}")


def check_verify(op: Op, out: Path, outputs: Dict[str, Path], refs: dict) -> None:
    rep = json.loads((out / f"verify_{op.params['suite']}.json").read_text())
    _require(rep["passed"] and rep["failures"] == 0, f"suite failed: {rep['failures']}")
    controls = [d for d in rep["details"] if d.get("expected") is True]
    _require(bool(controls), "suite ran no control trial")
    _require(all(d.get("fired") for d in controls), "a control trial did not fire")


def _graph_operator(p: dict) -> np.ndarray:
    from scipy.sparse.csgraph import shortest_path

    n = len(p["measures"])
    lengths = np.full((n, n), np.inf)
    for i, j, length in p["edges"]:
        lengths[i, j] = lengths[j, i] = min(lengths[i, j], length)
    np.fill_diagonal(lengths, 0.0)
    dist = shortest_path(np.where(np.isfinite(lengths), lengths, 0.0), directed=False)
    _require(bool(np.all(np.isfinite(dist))), "reference graph is disconnected")
    jmat = np.exp(-0.5 * (dist / p["sigma"]) ** 2)
    return jmat * np.asarray(p["measures"])[None, :] - np.diag(p["potential"])


def _spectrum_operator(p: dict) -> np.ndarray:
    if p["space"] == "graph":
        return _graph_operator(p)
    if p["space"] == "union":
        x = np.concatenate([_midpoints(q["n"], q["a"], q["b"]) for q in p["parts"]])
        w = np.concatenate([np.full(q["n"], (q["b"] - q["a"]) / q["n"]) for q in p["parts"]])
        return _tophat_operator(x, w, p["R"], p["J0"], 1.0 + p["slope"] * x)
    n = p["n"]
    x = _midpoints(n)
    jmat = np.loadtxt(p["table"], delimiter=",")
    return jmat / n - np.diag(p["c0"] + 0.5 * np.sin(2 * np.pi * x))


def reference_lambda(amat: np.ndarray) -> float:
    """sup Re σ(amat) by a full eigensolve (symmetric solver when exact)."""
    if np.array_equal(amat, amat.T):
        return float(np.linalg.eigvalsh(amat)[-1])
    return float(np.max(np.linalg.eigvals(amat).real))


def check_spectrum(op: Op, out: Path, outputs: Dict[str, Path], refs: dict) -> None:
    if op.name not in refs:
        refs[op.name] = reference_lambda(_spectrum_operator(op.params))
    ref = refs[op.name]
    lam = json.loads((out / "spectrum.json").read_text())["lambda"]
    err = abs(lam - ref)
    _require(err <= LAMBDA_RTOL * max(1.0, abs(ref)),
             f"lambda {lam!r} vs reference {ref!r} (|diff| {err:.3e})")


def check_case_shift(op: Op, out: Path, outputs: Dict[str, Path], refs: dict) -> None:
    rows = json.loads((out / "case_shift.json").read_text())["table"]
    _require(len(rows) == len(op.params["levels"]), "wrong number of shift levels")
    for row, a in zip(rows, op.params["levels"]):
        closed = (-(a - 1.0) + math.sqrt(a * a + 1.0)) / 2.0
        _require(row["A"] == a, f"level {row['A']!r} != {a!r}")
        err = abs(row["lambda_H"] - closed)
        _require(err <= CASE_TOL, f"A = {a}: lambda_H off the closed form by {err:.3e}")


CHECKS: Dict[str, Callable] = {
    "equilibria": check_equilibria,
    "evolve.rk4": check_rk4,
    "evolve.euler_op": check_euler_op,
    "evolve.vcf": check_vcf,
    "verify": check_verify,
    "spectrum": check_spectrum,
    "case.shift": check_case_shift,
}
