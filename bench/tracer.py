"""Outside-in tracing of `nonlocalrd` and the per-layer metrics it yields.

The tracer wraps, at run time, every public function of the library
modules and `scipy.linalg.expm`, in every `nonlocalrd` module namespace
that binds them.  Names bound by `from ... import` (such as
`equilibria.principal_value` or `verify.expm`) get their own wrapper, so
each span also records the namespace the call looked its name up in
(`via`): the calling module for a bare-name call, the defining module
for a `module.function` call.  Calls made through other references,
such as the `verify.SUITES` table, are not seen.

Spans live in memory as (id, parent, op, name, via, t0, t1, attrs) and
are written out once, at the end of the run.  A few wrappers record
attributes of the call (solver method, scheme, matrix size) after the
span closes; that bookkeeping is itself recorded as a `trace.hook` span
so that it does not count towards any layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from inputs import ALL_OPS, SUITES

LIBRARY_MODULES = ("space", "kernel", "spectral", "reaction", "evolve",
                   "equilibria", "verify")
BINDING_MODULES = LIBRARY_MODULES + ("cli",)
SCHEMES = ("euler_op", "rk4", "vcf_exact_linear")
HOOK = "trace.hook"

# Layer of each traced function.  A span's self time (its duration minus
# its children's) goes to its own layer, or to the nearest enclosing span
# that has one.
LAYERS = {
    "space.build_interval": "space.build",
    "space.build_graph": "space.build",
    "space.merge_spaces": "space.build",
    "space.is_r_connected": "space.r_connected",
    "kernel.assemble_kernel": "kernel.assemble",
    "kernel.build_operator": "kernel.build_operator",
    "reaction.monotone_shift": "reaction.monotone_shift",
    "reaction.structure_bounds": "reaction.structure_bounds",
    "spectral.principal_value": "spectral.principal_value",
    "spectral.shift_bound_rhs": "spectral.shift_bound_rhs",
    "evolve.evolve_nonlinear": "evolve.evolve_nonlinear",
    "evolve.lyapunov_E": "evolve.lyapunov_E",
    "equilibria.extremal_equilibria": "equilibria.extremal",
    "equilibria.solve_phi": "equilibria.solve_phi",
    "equilibria.newton_refine": "equilibria.newton_refine",
    "verify.sample_system": "verify.sample_system",
}
EXPM = "scipy.expm"


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.blake2b(a, digest_size=16).hexdigest() + str(a.shape)


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: List[dict] = []
        self.op: Optional[str] = None
        self.matrices: Dict[str, np.ndarray] = {}   # principal_value inputs by digest
        self._stack: List[int] = []
        self._patched: list = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str, via: Optional[str]) -> dict:
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "name": name, "via": via, "t0": time.perf_counter(),
               "t1": None, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["t1"] = time.perf_counter()
        self._stack.pop()

    def run_op(self, name: str, fn, *args):
        """Run one benchmark op as the root span of its library calls."""
        self.op = name
        rec = self._open("op", None)
        rec["attrs"]["op"] = name
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self.op = None

    def _wrap(self, fn, name: str, via: str):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, via)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hrec = self._open(HOOK, None)
                try:
                    hook(self, rec, args, kwargs, out)
                finally:
                    self._close(hrec)
            return out

        return traced

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        from scipy.linalg import expm

        targets = {id(expm): (expm, EXPM)}
        for short in LIBRARY_MODULES:
            mod = importlib.import_module(f"nonlocalrd.{short}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        for short in BINDING_MODULES:
            mod = importlib.import_module(f"nonlocalrd.{short}")
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    fn, name = targets[id(obj)]
                    setattr(mod, attr, self._wrap(fn, name, short))
                    self._patched.append((mod, attr, obj))

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# -- hooks: attributes read from the call after the span closed ---------------


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _principal_value_hook(tracer: Tracer, rec, args, kwargs, out) -> None:
    amat = _arg(args, kwargs, 0, "op").amat
    digest = _digest(amat)
    tracer.matrices.setdefault(digest, amat)
    rec["attrs"].update(requested=_arg(args, kwargs, 1, "method", "auto"),
                        method=out.method, lam=out.lam, digest=digest)


def _evolve_hook(tracer: Tracer, rec, args, kwargs, out) -> None:
    rec["attrs"].update(scheme=out.scheme, n=int(out.states.shape[1]),
                        steps=int(out.metadata["steps"][-1]))


def _expm_hook(tracer: Tracer, rec, args, kwargs, out) -> None:
    rec["attrs"]["n"] = int(np.shape(_arg(args, kwargs, 0, "A"))[-1])


def _suite_hook(tracer: Tracer, rec, args, kwargs, out) -> None:
    rec["attrs"]["suite"] = _arg(args, kwargs, 0, "name")


_HOOKS = {
    "spectral.principal_value": _principal_value_hook,
    "evolve.evolve_nonlinear": _evolve_hook,
    EXPM: _expm_hook,
    "verify.run_suite": _suite_hook,
}


# -- per-layer metrics -------------------------------------------------------


def _layer_of(rec: dict) -> Optional[str]:
    if rec["name"] == EXPM:
        return f"{rec['via']}.expm"
    return LAYERS.get(rec["name"])


def layer_metrics(spans: List[dict], reference_lambdas: dict,
                  iterations: int) -> Dict[str, float]:
    """Per-layer self times and counts of one traced pass over the ops.

    `reference_lambdas` maps a matrix digest to its reference Λ;
    `iterations` is the sum of the JSON `iterations` of the equilibria ops.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec["parent"] is not None:
            children[rec["parent"]].append(rec)
    dur = {rec["id"]: rec["t1"] - rec["t0"] for rec in spans}
    by_id = {rec["id"]: rec for rec in spans}

    self_s = defaultdict(float)
    calls = defaultdict(int)
    for rec in spans:
        if rec["name"] in ("op", HOOK):
            continue
        own = dur[rec["id"]] - sum(dur[c["id"]] for c in children[rec["id"]])
        owner = rec
        while owner is not None and _layer_of(owner) is None:
            owner = by_id.get(owner["parent"])
        if owner is not None:
            self_s[_layer_of(owner)] += own
        layer = _layer_of(rec)
        if layer is not None:
            calls[layer] += 1

    m: Dict[str, float] = {}
    for layer in ("space.build", "space.r_connected", "kernel.assemble",
                  "kernel.build_operator", "reaction.monotone_shift",
                  "reaction.structure_bounds", "spectral.principal_value",
                  "equilibria.solve_phi", "equilibria.newton_refine",
                  "verify.sample_system", "verify.expm", "evolve.expm",
                  "evolve.lyapunov_E"):
        m[f"{layer}.s"] = self_s[layer]
        m[f"{layer}.calls"] = calls[layer]
    m["spectral.shift_bound_rhs.s"] = self_s["spectral.shift_bound_rhs"]
    m["equilibria.extremal.s"] = self_s["equilibria.extremal"]

    # spans of calls that raised carry no attributes; their op counts as failed
    pv = [r for r in spans if r["name"] == "spectral.principal_value" and r["attrs"]]
    m["spectral.principal_value.dense_calls"] = sum(r["attrs"]["method"] == "dense" for r in pv)
    m["spectral.principal_value.power_calls"] = sum(r["attrs"]["method"] == "power" for r in pv)
    m["spectral.principal_value.fallbacks"] = sum(
        r["attrs"]["requested"] == "auto" and r["attrs"]["method"] == "dense" for r in pv)
    seen = set()
    repeats = 0
    for r in pv:
        key = (r["op"], r["attrs"]["digest"])
        repeats += key in seen
        seen.add(key)
    m["spectral.principal_value.repeat_calls"] = repeats
    m["spectral.lam_abs_err"] = max(
        (abs(r["attrs"]["lam"] - reference_lambdas[r["attrs"]["digest"]]) for r in pv),
        default=0.0)

    ev = [r for r in spans if r["name"] == "evolve.evolve_nonlinear" and r["attrs"]]
    for scheme in SCHEMES:
        runs = [r for r in ev if r["attrs"]["scheme"] == scheme]
        steps = sum(r["attrs"]["steps"] for r in runs)
        busy = sum(dur[r["id"]] for r in runs)
        m[f"evolve.steps.{scheme}"] = steps
        m[f"evolve.step_us.{scheme}"] = 1e6 * busy / steps if steps else 0.0
        if scheme == "rk4":
            nbytes = sum(4 * 8 * r["attrs"]["n"] ** 2 * r["attrs"]["steps"] for r in runs)
            m["evolve.rk4.gb_s_computed"] = nbytes / busy / 1e9 if busy else 0.0
    m["evolve.expm.n_max"] = max((r["attrs"]["n"] for r in spans if r["name"] == EXPM
                                  and r["via"] == "evolve" and r["attrs"]), default=0)

    blocks = sum(r["via"] == "equilibria" for r in ev)
    m["equilibria.blocks_attempted"] = blocks
    m["equilibria.block_useful_ratio"] = iterations / blocks if blocks else 0.0

    suites = {s: 0.0 for s in SUITES}
    for r in spans:
        if r["name"] == "verify.run_suite" and r["attrs"]:
            suites[r["attrs"]["suite"]] += dur[r["id"]]
    for s in SUITES:
        m[f"verify.suite_s.{s}"] = suites[s]

    ops = {name: 0.0 for name in ALL_OPS}
    cli_self = 0.0
    for r in spans:
        if r["name"] == "op":
            ops[r["attrs"]["op"]] += dur[r["id"]]
            cli_self += dur[r["id"]] - sum(dur[c["id"]] for c in children[r["id"]])
    for name, value in ops.items():
        m[f"cli.op_s.{name}"] = value
    m["cli.self_s"] = cli_self
    return m
