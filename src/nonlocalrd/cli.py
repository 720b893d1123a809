"""Experiment runner.

Subcommands: spectrum | evolve | equilibria | verify | case.  Experiments
are described by a JSON config (space, kernel, potential, reaction,
initial datum, integrator); outputs are versioned JSON summaries plus
CSV profiles (`node,x,value`) and trajectories (`t,node_0,...`).
Exit codes: 0 success, 2 config or precondition failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from nonlocalrd import equilibria as eqmod
from nonlocalrd import evolve as evmod
from nonlocalrd import reaction as rxmod
from nonlocalrd import spectral as spmod
from nonlocalrd import verify as vfmod
from nonlocalrd.kernel import assemble_kernel, build_operator, compute_h0
from nonlocalrd.space import build_interval, build_graph, merge_spaces

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    """Config problem with a located field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


# ---------------------------------------------------------------------------
# config parsing

_EXPR_NAMES = {
    "pi": np.pi, "e": np.e, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh,
    "log": np.log, "where": np.where, "minimum": np.minimum, "maximum": np.maximum,
}


# positional arity of each function: one more argument would be its `out`
_EXPR_ARITY = {k: (v.nin if isinstance(v, np.ufunc) else 3)
               for k, v in _EXPR_NAMES.items() if callable(v)}
_EXPR_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow, ast.Mod: operator.mod,
    ast.UAdd: operator.pos, ast.USub: operator.neg,
    ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
    ast.GtE: operator.ge, ast.Eq: operator.eq, ast.NotEq: operator.ne,
}


def _eval_node(node: ast.AST, ns: dict):
    """Evaluate a whitelisted expression tree and refuse every other node.

    Numbers become floats, so no integer power can grow without bound;
    a chained comparison is the elementwise conjunction of its links.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in ns:
        return ns[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_eval_node(node.left, ns), _eval_node(node.right, ns))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_eval_node(node.operand, ns))
    if isinstance(node, ast.Compare) and all(type(op) in _EXPR_OPS for op in node.ops):
        left, out = _eval_node(node.left, ns), True
        for op, comp in zip(node.ops, node.comparators):
            right = _eval_node(comp, ns)
            out = np.logical_and(out, _EXPR_OPS[type(op)](left, right))
            left = right
        return out
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_ARITY and not node.keywords
            and len(node.args) == _EXPR_ARITY[node.func.id]):
        return ns[node.func.id](*[_eval_node(arg, ns) for arg in node.args])
    raise ValueError(f"{type(node).__name__} is not allowed")


def _eval_expr(expr: str, x: np.ndarray, field: str) -> np.ndarray:
    """Evaluate a config expression in x over numbers, the names of
    _EXPR_NAMES, arithmetic, comparisons and calls of its functions with
    exactly their positional arity.  The expression sees a read-only copy
    of x, so no call can write into the caller's coordinates."""
    x_in = x.copy()
    x_in.flags.writeable = False
    try:
        tree = ast.parse(expr, mode="eval")
        val = _eval_node(tree.body, {**_EXPR_NAMES, "x": x_in})
    except Exception as exc:
        raise ConfigError(field, f"bad expression {expr!r}: {exc}") from exc
    return np.broadcast_to(np.asarray(val, dtype=float), x.shape).copy()


def _load_csv_column(path: str, column: str, n: int, field: str) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ConfigError(field, f"cannot read {path}: {exc}") from exc
    if len(rows) != n:
        raise ConfigError(field, f"{path} has {len(rows)} rows, space has {n} nodes")
    try:
        return np.array([float(r[column]) for r in rows])
    except KeyError as exc:
        raise ConfigError(field, f"{path} has no column {column!r}") from exc


# what a malformed section raises: wrong type, missing key or bad value
_SPEC_ERRORS = (TypeError, AttributeError, KeyError, ValueError)


@contextlib.contextmanager
def _field_errors(field: str):
    """Name field in a malformed section's error; a nested section's
    ConfigError already names its own field and passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except _SPEC_ERRORS as exc:
        raise ConfigError(field, str(exc)) from exc


def _build_space(spec: dict):
    with _field_errors("space"):
        kind = spec.get("type")
        if kind == "interval":
            return build_interval(spec["a"], spec["b"], spec["n"],
                                  spec.get("rule", "midpoint"))
        if kind == "graph":
            return build_graph(spec["vertices"], [tuple(e) for e in spec["edges"]],
                               spec["measures"])
        if kind == "union":
            return merge_spaces(*[_build_space(p) for p in spec["parts"]])
    raise ConfigError("space.type", f"unknown space type {kind!r}")


def _build_kernel(spec: dict, space):
    if not isinstance(spec, dict):
        raise ConfigError("kernel", f"expected an object, got {spec!r}")
    law = spec.get("law")
    params = {k: v for k, v in spec.items() if k != "law"}
    if law == "table":
        path = params.pop("path", None)
        if path is None:
            raise ConfigError("kernel.path", "table law needs a CSV path")
        try:
            params["jmat"] = np.loadtxt(path, delimiter=",")
        except OSError as exc:
            raise ConfigError("kernel.path", str(exc)) from exc
    with _field_errors("kernel"):
        return assemble_kernel(space, law, **params)


def _node_vector(spec, space, kernel, field: str) -> np.ndarray:
    n = space.n
    if isinstance(spec, (int, float)):
        return np.full(n, float(spec))
    if isinstance(spec, list):
        with _field_errors(field):
            arr = np.asarray(spec, dtype=float)
        if arr.shape != (n,):
            raise ConfigError(field, f"length {arr.shape} != node count {n}")
        return arr
    if isinstance(spec, dict):
        kind = spec.get("kind")
        with _field_errors(field):
            if kind == "constant":
                return np.full(n, float(spec["value"]))
            if kind == "h0":
                return compute_h0(kernel)
            if kind == "expr":
                if space.points is None:
                    raise ConfigError(field, "expressions need an embedded space")
                return _eval_expr(spec["expr"], space.x, field)
            if kind == "csv":
                return _load_csv_column(spec["path"], spec.get("column", "value"), n, field)
        raise ConfigError(field, f"unknown vector kind {kind!r}")
    raise ConfigError(field, "expected number, list or spec object")


def _power_reaction(p: float, scale: float, n: int) -> rxmod.CallableReaction:
    """f(s) = scale·sign(s)|s|^p at every one of n nodes."""
    def fun(s):
        return scale * np.sign(s) * np.abs(s) ** p

    def dfun(s):
        return scale * p * np.abs(s) ** (p - 1.0)

    return rxmod.CallableReaction(fun, dfun, n_nodes=n, kind="custom")


def _build_reaction(spec: dict, space, kernel):
    if spec is None:
        return None
    with _field_errors("reaction"):
        kind = spec.get("kind")
        if kind == "logistic":
            return rxmod.LogisticReaction(
                g=_node_vector(spec.get("g", 0.0), space, kernel, "reaction.g"),
                n=_node_vector(spec.get("n", 0.0), space, kernel, "reaction.n"),
                m=_node_vector(spec.get("m", 1.0), space, kernel, "reaction.m"),
                rho=float(spec.get("rho", 2.0)), n_nodes=space.n)
        if kind == "power":
            return _power_reaction(float(spec.get("exponent", 3.0)),
                                   float(spec.get("scale", 1.0)), space.n)
        if kind == "none":
            return None
    raise ConfigError("reaction.kind", f"unknown reaction kind {kind!r}")


def _build_integrator(spec: dict):
    spec = spec or {}
    with _field_errors("integrator"):
        return evmod.IntegratorConfig(
            scheme=spec.get("scheme", "rk4"),
            dt=float(spec.get("dt", 1e-3)),
            t_end=float(spec.get("t_end", 1.0)),
            beta=spec.get("beta"),
            blowup_threshold=float(spec.get("blowup_threshold", 1e9)),
            store_every=int(spec.get("store_every", 1)),
            trunc_k=spec.get("trunc_k"))


class Experiment:
    """Everything a subcommand needs, parsed from one config file."""

    def __init__(self, raw: dict):
        self.raw = raw
        if "space" not in raw:
            raise ConfigError("space", "missing")
        self.space = _build_space(raw["space"])
        self.kernel = _build_kernel(raw.get("kernel", {"law": "constant", "c": 1.0}),
                                    self.space)
        self.h = _node_vector(raw.get("potential", 0.0), self.space, self.kernel,
                              "potential")
        self.op = build_operator(self.kernel, self.h)
        self.reaction = _build_reaction(raw.get("reaction"), self.space, self.kernel)
        self.config = _build_integrator(raw.get("integrator"))

    def initial_state(self) -> np.ndarray:
        if "u0" not in self.raw:
            raise ConfigError("u0", "missing")
        u0 = _node_vector(self.raw["u0"], self.space, self.kernel, "u0")
        if not np.all(np.isfinite(u0)):
            raise ConfigError("u0", "initial state must be finite")
        return u0


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", f"expected an object at the top level, got {type(raw).__name__}")
    return raw


# ---------------------------------------------------------------------------
# output helpers


def _write_json(payload: dict, out_dir: Path, name: str) -> Path:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    out = out_dir / name
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def _write_csv(out: Path, header: list, rows) -> Path:
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return out


def _write_profile(vec: np.ndarray, space, out_dir: Path, name: str) -> Path:
    xs = space.x if space.points is not None else np.arange(space.n, dtype=float)
    # tolist() gives Python floats, whose repr is what repr(float(v)) gave
    return _write_csv(out_dir / name, ["node", "x", "value"],
                      ([i, repr(x), repr(v)]
                       for i, (x, v) in enumerate(zip(xs.tolist(), vec.tolist()))))


def _write_trajectory(traj, out_dir: Path, name: str) -> Path:
    n = traj.states.shape[1]
    return _write_csv(out_dir / name, ["t"] + [f"node_{i}" for i in range(n)],
                      ([repr(t), *map(repr, row)]
                       for t, row in zip(traj.times.tolist(), traj.states.tolist())))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args, out_dir: Path) -> int:
    exp = Experiment(load_config(args.config))
    if args.dry_run:
        print("config ok")
        return 0
    rep = spmod.principal_value(exp.op, method=args.method)
    payload = {
        "lambda": rep.lam,
        "is_principal": rep.is_principal,
        "method": rep.method,
        "residual": rep.residual,
        "certificate": None if rep.certificate is None else {
            "lower": rep.certificate.lower, "upper": rep.certificate.upper},
        "essential_range": [[v, m] for v, m in rep.essential_range],
        "bounds": {"lower": -float(np.min(exp.h)),
                   "upper": float(np.max(exp.op.h0 - exp.h))},
    }
    path = _write_json(payload, out_dir, "spectrum.json")
    if args.emit_eigenfunction:
        if rep.eigenfunction is None:
            print("no positive eigenfunction to emit", file=sys.stderr)
            return 2
        _write_profile(rep.eigenfunction, exp.space, out_dir, args.emit_eigenfunction)
    print(f"lambda = {rep.lam:.12g} ({rep.method}) -> {path}")
    return 0


def _cmd_evolve(args, out_dir: Path) -> int:
    exp = Experiment(load_config(args.config))
    u0 = exp.initial_state()
    if args.dry_run:
        print("config ok")
        return 0
    f = exp.reaction or rxmod.CallableReaction(np.zeros_like, np.zeros_like,
                                               n_nodes=exp.space.n,
                                               kind="globally_lipschitz", lip=0.0)
    traj = evmod.evolve_nonlinear(exp.op, f, u0, exp.config)
    _write_trajectory(traj, out_dir, "trajectory.csv")
    payload = {
        "scheme": traj.scheme,
        "dt": traj.dt,
        "t_end": exp.config.t_end,
        "beta": traj.metadata.get("beta"),
        "trunc_k": traj.metadata.get("trunc_k"),
        "propagator": traj.metadata.get("propagator"),
        "blowup": traj.blowup,
        "blowup_time": traj.metadata.get("blowup_time"),
        "final_sup_norm": float(np.max(np.abs(traj.final()))),
    }
    if exp.kernel.symmetric:
        f_eff = rxmod.absorb_potential(f, exp.h) if np.any(exp.h != 0) else f
        payload["lyapunov"] = [evmod.lyapunov_E(exp.kernel, f_eff, u)
                               for u in traj.states]
    path = _write_json(payload, out_dir, "evolve.json")
    print(f"evolved to t = {traj.times[-1]:.6g}"
          + (" (blow-up)" if traj.blowup else "") + f" -> {path}")
    return 0


def _cmd_equilibria(args, out_dir: Path) -> int:
    exp = Experiment(load_config(args.config))
    if exp.reaction is None:
        raise ConfigError("reaction", "equilibria need a reaction")
    if args.dry_run:
        print("config ok")
        return 0
    es = eqmod.extremal_equilibria(exp.op, exp.reaction, epsilon=args.epsilon)
    payload = {
        "epsilon": es.epsilon,
        "stopping_criterion": es.stopping_criterion,
        "residuals": es.residuals,
        "iterations": es.iterations,
        "phi_sup": float(np.max(es.phi)),
        "phi_M_range": [float(np.min(es.phi_M)), float(np.max(es.phi_M))],
        "phi_m_range": [float(np.min(es.phi_m)), float(np.max(es.phi_m))],
        "has_phi_m_plus": es.phi_m_plus is not None,
    }
    _write_profile(es.phi, exp.space, out_dir, "phi.csv")
    _write_profile(es.phi_M, exp.space, out_dir, "phi_M.csv")
    _write_profile(es.phi_m, exp.space, out_dir, "phi_m.csv")
    if es.phi_m_plus is not None:
        _write_profile(es.phi_m_plus, exp.space, out_dir, "phi_m_plus.csv")
    path = _write_json(payload, out_dir, "equilibria.json")
    print(f"phi_M in [{payload['phi_M_range'][0]:.6g}, {payload['phi_M_range'][1]:.6g}] -> {path}")
    return 0


def _cmd_verify(args, out_dir: Path) -> int:
    if args.dry_run:
        print("config ok")
        return 0
    rep = vfmod.run_suite(args.suite, args.trials, args.seed)
    out = out_dir / f"verify_{args.suite}.json"
    out.write_text(rep.to_json() + "\n")
    status = "pass" if rep.passed else "FAIL"
    print(f"{args.suite}: {status} ({rep.trials} trials, {rep.failures} failures, "
          f"worst {rep.worst_violation:.3e}) -> {out}")
    return 0 if rep.passed else 1


def _set_override(cfg: dict, dotted: str, value: str) -> None:
    keys = dotted.split(".")
    cur = cfg
    for k in keys[:-1]:
        cur = cur.setdefault(k, {})
    try:
        cur[keys[-1]] = json.loads(value)
    except json.JSONDecodeError:
        cur[keys[-1]] = value


# bundled case studies; overrides patch these dicts via --set
_CASE_DEFAULTS = {
    "logistic-sub": {"n": 128, "ncoef": -2.0, "m": 1.0, "rho": 3.0, "g": 0.0,
                     "t_end": 20.0, "trials": [0.5, 2.0]},
    "logistic-super": {"n": 128, "ncoef": 2.0, "m": 1.0, "rho": 3.0, "g": 0.0,
                       "t_end": 30.0, "trials": [0.1, 1.0, 5.0]},
    "bistable": {"n": 200, "lambda": 4.0, "A": 0.0,
                 "measures": [[0.4, 0.2, 0.4], [0.25, 0.5, 0.25]], "swaps": 12},
    "blowup": {"n": 64, "u0": 10.0, "rho": 3.0, "dt": 1e-4, "t_end": 0.1},
    "shift": {"n": 512, "levels": [1.0, 3.0, 10.0, 100.0]},
}


def _case_system(n: int):
    space = build_interval(0.0, 1.0, n)
    kern = assemble_kernel(space, "constant", c=1.0)
    return space, kern, build_operator(kern, np.zeros(n))


def _cmd_case(args, out_dir: Path) -> int:
    if args.name not in _CASE_DEFAULTS:
        raise ConfigError("case", f"unknown case {args.name!r}; "
                                  f"choose from {sorted(_CASE_DEFAULTS)}")
    cfg = json.loads(json.dumps(_CASE_DEFAULTS[args.name]))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        _set_override(cfg, *item.split("=", 1))
    if args.dry_run:
        print("config ok")
        return 0
    runner = {"logistic-sub": _case_logistic, "logistic-super": _case_logistic,
              "bistable": _case_bistable, "blowup": _case_blowup,
              "shift": _case_shift}[args.name]
    payload = runner(args.name, cfg, out_dir)
    path = _write_json(payload, out_dir, f"case_{args.name}.json")
    print(f"case {args.name} -> {path}")
    return 0


def _case_logistic(name: str, cfg: dict, out_dir: Path) -> dict:
    n = int(cfg["n"])
    space, kern, op = _case_system(n)
    f = rxmod.LogisticReaction(g=float(cfg["g"]), n=float(cfg["ncoef"]),
                               m=float(cfg["m"]), rho=float(cfg["rho"]), n_nodes=n)
    lam_n = spmod.principal_value(
        build_operator(kern, -np.full(n, float(cfg["ncoef"])))).lam
    es = eqmod.extremal_equilibria(op, f)
    _write_profile(es.phi_M, space, out_dir, f"{name}_phi_M.csv")
    t_end = float(cfg["t_end"])
    config = evmod.IntegratorConfig(scheme="rk4", dt=1e-2, t_end=t_end,
                                    store_every=int(round(t_end / 1e-2)))
    distances = []
    for c in cfg["trials"]:
        tr = evmod.evolve_nonlinear(op, f, np.full(n, float(c)), config)
        distances.append(float(np.max(np.abs(tr.final() - es.phi_M))))
    return {
        "case": name,
        "lambda_of_n": lam_n,
        "phi_M_value": float(np.max(np.abs(es.phi_M))),
        "phi_m_value": float(np.min(es.phi_m)),
        "residuals": es.residuals,
        "trial_data": cfg["trials"],
        "trial_distances_to_phi_M": distances,
        "t_end": t_end,
    }


def _case_bistable(name: str, cfg: dict, out_dir: Path) -> dict:
    n = int(cfg["n"])
    space, _, _ = _case_system(n)
    lam = float(cfg["lambda"])
    a_level = float(cfg["A"])
    variants = []
    states = []
    for meas in cfg["measures"]:
        assign = eqmod.block_assignment(space, meas)
        pe = eqmod.piecewise_constant_family(space, lam, a_level, meas, assign)
        variants.append(pe)
        states.append(pe.state)
    base = variants[0]
    pert = eqmod.perturbed_assignment(space, base.assignment, int(cfg["swaps"]), seed=0)
    pe3 = eqmod.piecewise_constant_family(space, lam, a_level, base.measures, pert)
    variants.append(pe3)
    states.append(pe3.state)
    w = space.weights
    l1 = [[float(np.sum(w * np.abs(a - b))) for b in states] for a in states]
    overlap = float(np.sum(w[states[0] == states[2]]))
    for i, pe in enumerate(variants):
        _write_profile(pe.state, space, out_dir, f"{name}_variant{i}.csv")
    return {
        "case": name,
        "roots": list(variants[0].values),
        "residuals": [pe.residual for pe in variants],
        "measures": [list(pe.measures) for pe in variants],
        "pairwise_l1": l1,
        "overlap_measure_0_vs_2": overlap,
    }


def _case_blowup(name: str, cfg: dict, out_dir: Path) -> dict:
    n = int(cfg["n"])
    space, kern, op = _case_system(n)
    rho = float(cfg["rho"])
    f = _power_reaction(rho, 1.0, n)
    config = evmod.IntegratorConfig(scheme="rk4", dt=float(cfg["dt"]),
                                    t_end=float(cfg["t_end"]))
    tr = evmod.evolve_nonlinear(op, f, np.full(n, float(cfg["u0"])), config)
    wit = evmod.kaplan_witness(kern, op.h, rho, tr)
    _write_trajectory(tr, out_dir, f"{name}_trajectory.csv")
    return {
        "case": name,
        "blowup": tr.blowup,
        "blowup_time": tr.metadata.get("blowup_time"),
        "scalar_blowup_estimate": wit.blowup_time_estimate,
        "dominated": wit.dominated,
        "witness": [[float(t), float(z), float(c)] for t, z, c in
                    zip(wit.times, wit.z, wit.comparison)],
    }


def _case_shift(name: str, cfg: dict, out_dir: Path) -> dict:
    n = int(cfg["n"])
    space, kern, _ = _case_system(n)
    h = np.zeros(n)
    mask = space.x > 0.5
    rows = []
    for a in cfg["levels"]:
        shifted = spmod.shifted_potential(h, mask, float(a))
        lam = spmod.principal_value(build_operator(kern, -shifted)).lam
        rhs = spmod.shift_bound_rhs(kern, h, mask, float(a))
        closed = (-(a - 1.0) + math.sqrt(a * a + 1.0)) / 2.0
        rows.append({"A": float(a), "lambda_H": lam, "bound_rhs": rhs,
                     "closed_form": closed})
    header = ["A", "lambda_H", "bound_rhs", "closed_form"]
    _write_csv(out_dir / f"{name}_table.csv", header,
               ([repr(r[k]) for k in header] for r in rows))
    # the bound's sign claim is reported next to the computed value, not asserted
    return {"case": name, "table": rows}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nonlocalrd",
                                description="nonlocal reaction-diffusion laboratory")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dry-run", action="store_true",
                   help="validate the config without computing")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="principal spectral bound")
    sp.add_argument("--config", required=True)
    sp.add_argument("--method", default="auto", choices=["auto", "dense", "power"],
                    help="auto: certified Lanczos/Arnoldi with a dense fallback; "
                         "dense (full eigensolver) and power (power iteration) "
                         "are reference methods")
    sp.add_argument("--emit-eigenfunction", metavar="CSV")

    ev = sub.add_parser("evolve", help="time integration")
    ev.add_argument("--config", required=True)

    eqp = sub.add_parser("equilibria", help="extremal equilibria")
    eqp.add_argument("--config", required=True)
    eqp.add_argument("--epsilon", type=float, default=None)

    vf = sub.add_parser("verify", help="property suites")
    vf.add_argument("--suite", required=True, choices=sorted(vfmod.SUITES))
    vf.add_argument("--trials", type=int, default=50)
    # SUPPRESS keeps the global --seed unless this one is given
    vf.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    ca = sub.add_parser("case", help="bundled case studies")
    ca.add_argument("name", choices=sorted(_CASE_DEFAULTS))
    ca.add_argument("--set", action="append", metavar="KEY=VALUE")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        handler = {"spectrum": _cmd_spectrum, "evolve": _cmd_evolve,
                   "equilibria": _cmd_equilibria, "verify": _cmd_verify,
                   "case": _cmd_case}[args.command]
        return handler(args, out_dir)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
