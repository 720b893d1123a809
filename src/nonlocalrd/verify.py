"""Randomized property suites for the comparison/maximum-principle and
asymptotic claims.

Every suite is deterministic given its seed, samples only systems that
satisfy the hypotheses of the property under test, and additionally runs
a hypothesis-violating control trial that must trip the check (otherwise
the suite itself fails for having no teeth).  A suite supplies only its
sampler, its violation and its control; `_run_trials` seeds, counts and
reports for all four, and needs at least one trial.  The asymptotic suite
integrates its sampled trials as one stack per (n, ρ) before it checks them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List

import numpy as np

from nonlocalrd.kernel import NonlocalOperator, assemble_kernel, build_operator
from nonlocalrd.equilibria import solve_phi
from nonlocalrd.evolve import (
    IntegratorConfig,
    OperatorStack,
    _comparison_bound,
    _propagate,
    evolve_nonlinear,
    monotone_config,
    monotone_stages,
    supersolution_ode,
)
from nonlocalrd.reaction import (
    CallableReaction,
    LogisticReaction,
    Reaction,
    add_bump,
    structure_bounds,
)
from nonlocalrd.space import build_interval, is_r_connected
from nonlocalrd.spectral import principal_value

EXACT_TOL = 1e-12   # euler_op invariants hold to rounding
SOFT_TOL = 1e-8     # rk4-based asymptotic checks


@dataclass
class PropertyReport:
    property: str
    trials: int
    failures: int
    worst_violation: float
    seed: int
    tolerance: float
    details: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "passed": self.passed, "schema_version": "1"},
                          indent=2, sort_keys=True)


@dataclass
class SampledSystem:
    op: NonlocalOperator
    reaction: Reaction
    strong_certified: bool  # positivity certificate valid on an r-connected space


def _sample_space(rng):
    n = int(rng.choice([32, 64, 128]))
    length = float(rng.choice([1.0, 1.5]))
    return build_interval(0.0, length, n)


def _sample_kernel(rng, space, strong: bool):
    if strong:
        # certificate radius beyond the diameter: positivity reaches every
        # pair, so strict gaps spread to all nodes in a single step
        choice = rng.integers(0, 2)
        if choice == 0:
            return assemble_kernel(space, "constant", c=float(rng.uniform(0.5, 2.0)))
        return assemble_kernel(space, "tophat", R=1.5 * space.diameter() + 0.1,
                               J0=float(rng.uniform(0.5, 2.0)))
    choice = rng.integers(0, 3)
    if choice == 0:
        return assemble_kernel(space, "constant", c=float(rng.uniform(0.5, 2.0)))
    if choice == 1:
        return assemble_kernel(space, "tophat", R=float(rng.uniform(0.3, 0.6)) * space.diameter(),
                               J0=float(rng.uniform(0.5, 2.0)))
    return assemble_kernel(space, "gaussian", sigma=float(rng.uniform(0.2, 0.5)),
                           scale=float(rng.uniform(0.5, 1.5)))


def _sample_potential(rng, space):
    x = space.x / max(space.diameter(), 1e-12)
    a = rng.uniform(-0.5, 1.0)
    b = rng.uniform(-0.5, 0.5)
    c = rng.uniform(-0.5, 0.5)
    return a + b * np.sin(2 * np.pi * x) + c * (x > rng.uniform(0.2, 0.8))


def _sample_reaction(rng, n, nonneg_g0: bool):
    kind = rng.integers(0, 3)
    x = np.linspace(0, 1, n)
    if kind == 0:
        lo = 0.0 if nonneg_g0 else -0.5
        g = rng.uniform(lo, 0.8) + rng.uniform(0.0, 0.3) * np.sin(np.pi * x)
        g = np.maximum(g, 0.0) if nonneg_g0 else g
        ncoef = rng.uniform(-1.0, 1.5)
        m = rng.uniform(0.3, 1.0)
        rho = float(rng.choice([2.0, 3.0]))
        return LogisticReaction(g=g, n=ncoef, m=m, rho=rho, n_nodes=n)
    if kind == 1:
        lam = rng.uniform(0.5, 2.0)
        return LogisticReaction(g=0.0, n=lam, m=lam, rho=3.0, n_nodes=n)  # cubic bistable
    a = rng.uniform(0.3, 1.0)
    b = rng.uniform(0.5, 2.0)
    g0 = rng.uniform(0.0 if nonneg_g0 else -0.5, 0.5)

    def fun(s):
        return a * np.tanh(b * s) + g0

    def dfun(s):
        sech = 2.0 * np.exp(-np.abs(b * s)) / (1.0 + np.exp(-2.0 * np.abs(b * s)))
        return a * b * sech * sech

    return CallableReaction(fun, dfun, n_nodes=n, kind="globally_lipschitz", lip=a * b)


def sample_system(rng, nonneg_g0: bool = False, strong: bool = False) -> SampledSystem:
    space = _sample_space(rng)
    kern = _sample_kernel(rng, space, strong)
    h = _sample_potential(rng, space)
    op = build_operator(kern, h)
    f = _sample_reaction(rng, space.n, nonneg_g0)
    certified = False
    if kern.positivity_cert is not None:
        certified = is_r_connected(space, kern.positivity_cert[0]).connected
    return SampledSystem(op=op, reaction=f, strong_certified=certified)


def _hops_to_cover(space, r: float, support) -> int:
    """Steps of <r chaining needed to reach every node from the support.

    One order-preserving step propagates strict positivity exactly one
    hop of the certificate graph, so the strong checks start here (one
    for kernels whose radius covers the space).
    """
    from scipy.sparse.csgraph import dijkstra

    hops = dijkstra(space.dist < r, unweighted=True,
                    indices=np.flatnonzero(support), min_only=True).max()
    if not np.isfinite(hops):
        return space.n + 1  # not coverable; effectively never
    return max(int(hops), 1)


def _shared_monotone_config(op, f0, f1, u_init_scale, t_end):
    """One euler_op configuration valid for an ordered pair of reactions.

    The coupling argument needs both trajectories to share dt, β and the
    truncation level, so take the envelope of the two derived setups.
    """
    probe = np.full(op.n, u_init_scale)
    c0, c1 = (monotone_config(op, f, probe, t_end) for f in (f0, f1))
    k = max(c0.trunc_k or 0.0, c1.trunc_k or 0.0) or None
    return monotone_config(op, f0, probe, t_end, trunc_k=k, beta=max(c0.beta, c1.beta))


def _run_trials(prop: str, trials: int, seed: int, tol: float, trial, control,
                summary=None, check=None) -> PropertyReport:
    """Run `trials` seeded trials and one control into a report.

    `trial(rng, t)` returns `(violation, extra)`, or a sample that `check(samples)`
    turns into one, in trial order; it fails when the violation exceeds `tol` or
    extra holds `strong_ok=False`.  `summary` goes after the trials; `control(rng)`
    returns `(label, fired, extra)`, and a control that did not fire is one more failure.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    failures = 0
    worst = 0.0
    details: List[dict] = []
    results = [trial(np.random.default_rng([seed, t]), t) for t in range(trials)]
    for t, (viol, extra) in enumerate(check(results) if check else results):
        if not (viol <= tol and extra.get("strong_ok", True)):
            failures += 1
            details.append({"trial": t, "violation": viol, **extra, "expected": False})
        worst = max(worst, viol)
    if summary is not None:
        details.append(summary)
    label, fired, extra = control(np.random.default_rng([seed, 10_000]))
    details.append({"trial": f"control:{label}", "expected": True, "fired": fired,
                    "control_failed": not fired, **extra})
    failures += 0 if fired else 1
    return PropertyReport(property=prop, trials=trials, failures=failures,
                          worst_violation=worst, seed=seed, tolerance=tol,
                          details=details)


def _strong_ok(sys_: SampledSystem, states, strict_source: bool, support) -> bool:
    """Strict positivity wherever the strong principle applies: on a
    certified system with a strict source or strict data on `support`,
    from step one for a source, else after one step per hop."""
    if not (sys_.strong_certified and (strict_source or np.any(support))):
        return True
    start = 1 if strict_source else _hops_to_cover(
        sys_.op.space, sys_.op.kernel.positivity_cert[0], support)
    return start >= len(states) or float(np.min(states[start:])) > 0.0


def comparison_suite(trials: int, seed: int) -> PropertyReport:
    """Ordered data and ordered reactions keep ordered euler_op orbits.

    Weak ordering is checked to rounding on every stored step; on
    positivity-certified r-connected systems with a strict initial gap
    the minimum gap must be strictly positive from the first step on.
    """
    def trial(rng, t):
        sys_ = sample_system(rng, strong=t % 2 == 0)
        op, f1 = sys_.op, sys_.reaction
        n = op.n
        bump_f = float(rng.uniform(0.0, 0.5))
        f0 = add_bump(f1, np.full(n, bump_f))
        u1 = rng.uniform(-1.0, 1.0, size=n)
        gap0 = np.zeros(n)
        if rng.uniform() < 0.5:
            gap0[rng.integers(0, n)] = rng.uniform(0.1, 0.5)  # sparse strict bump
        else:
            gap0 = rng.uniform(0.0, 0.5, size=n)
        cfg = _shared_monotone_config(op, f0, f1, 1.5, 1.0)
        gap = (evolve_nonlinear(op, f0, u1 + gap0, cfg).states
               - evolve_nonlinear(op, f1, u1, cfg).states)
        strong_ok = _strong_ok(sys_, gap, bump_f > 0, gap0 > 0)
        return max(0.0, -float(np.min(gap))), {"strong_ok": strong_ok}

    def control(rng):
        # hypothesis-violating control: f0 strictly below f1 must break ordering
        sys_ = sample_system(rng)
        op, f1 = sys_.op, sys_.reaction
        u = np.zeros(op.n)
        cfg = _shared_monotone_config(op, f1, f1, 1.0, 0.5)
        lo = evolve_nonlinear(op, add_bump(f1, np.zeros(op.n)), u, cfg)  # f0 = f1
        hi = evolve_nonlinear(op, add_bump(f1, np.ones(op.n)), u, cfg)
        return "unordered-reactions", bool(np.min(lo.states - hi.states) < -EXACT_TOL), {}

    return _run_trials("comparison", trials, seed, EXACT_TOL, trial, control)


def maximum_principle_suite(trials: int, seed: int) -> PropertyReport:
    """Nonnegative data with f(·,0) >= 0 keep nonnegative euler_op orbits;
    certified connected systems make nontrivial data strictly positive."""
    def trial(rng, t):
        sys_ = sample_system(rng, nonneg_g0=True, strong=t % 2 == 0)
        op, f = sys_.op, sys_.reaction
        n = op.n
        mode = rng.integers(0, 3)
        if mode == 0:
            u0 = rng.uniform(0.0, 1.0, size=n)
        elif mode == 1:
            u0 = np.zeros(n)
            u0[rng.integers(0, n)] = rng.uniform(0.5, 1.0)  # single-node bump
        else:
            u0 = np.zeros(n)
        cfg = monotone_config(op, f, np.maximum(u0, 1.0), 1.0)
        states = evolve_nonlinear(op, f, u0, cfg).states
        strong_ok = _strong_ok(sys_, states, float(np.min(f.g0)) > 0, u0 > 0)
        return max(0.0, -float(np.min(states))), {"strong_ok": strong_ok}

    def control(rng):
        # f(·,0) = -1 must produce genuine negativity from u0 = 0
        sys_ = sample_system(rng, nonneg_g0=True)
        op, f = sys_.op, sys_.reaction
        neg = CallableReaction(lambda s: f.eval_grid(s) - 1.0 - f.g0[:, None],
                               n_nodes=op.n, kind=f.kind,
                               lip=f.lip_on(10.0) + 1.0)
        cfg = monotone_config(op, neg, np.ones(op.n), 0.5)
        tr = evolve_nonlinear(op, neg, np.zeros(op.n), cfg)
        return "negative-source", bool(np.min(tr.states) < -EXACT_TOL), {}

    return _run_trials("maximum_principle", trials, seed, EXACT_TOL, trial, control)


def supersolution_suite(trials: int, seed: int) -> PropertyReport:
    """The scalar bound ż = C₁z + D with C₁ = max C + ‖h0-h‖ dominates the
    sup of the orbit whenever ‖u0‖_∞ <= z(0); exact for the monotone scheme.

    Each orbit runs in the stages of monotone_stages, truncated per stage
    at the bound's level up to the stage's end, and the joined orbit is
    checked against z."""
    def trial(rng, t):
        sys_ = sample_system(rng)
        op, f = sys_.op, sys_.reaction
        sb = structure_bounds(f, "plain")
        u0 = rng.uniform(-1.0, 1.0, size=op.n)
        t_end = 1.0
        z = _comparison_bound(op, sb.c, sb.d, float(np.max(np.abs(u0))), t_end)
        if z.c <= 0.1:  # keep the discrete Euler-vs-exact comparison one-sided
            z = supersolution_ode(0.1, z.d, z.m0, t_end)
        times, tops, u = [], [], u0
        for start, cfg in monotone_stages(op, f, z):
            tr = evolve_nonlinear(op, f, u, cfg)
            times.append(start + tr.times)
            tops.append(np.max(tr.states, axis=1))
            u = tr.final()
        zvals = z(np.concatenate(times))
        viol = float(np.max(np.concatenate(tops) - zvals))
        return viol / (1.0 + float(np.max(zvals))), {}

    def control(rng):
        # a bound whose start is below ‖u0‖ must be overtaken
        sys_ = sample_system(rng)
        op, f = sys_.op, sys_.reaction
        z = supersolution_ode(1.0, 0.0, 0.5, 0.25)
        u0 = np.full(op.n, 2.0)
        cfg = monotone_config(op, f, u0, 0.25)
        tr = evolve_nonlinear(op, f, u0, cfg)
        fired = bool(np.max(np.max(tr.states, axis=1) - z(tr.times)) > EXACT_TOL)
        return "undersized-bound", fired, {}

    return _run_trials("supersolution", trials, seed, EXACT_TOL, trial, control)


def asymptotic_suite(trials: int, seed: int) -> PropertyReport:
    """Envelope invariance and decay for systems with a negative bound.

    Samples h = 0 systems with logistic reactions whose growth rate is
    dominated by -max(h0), so sup Re σ(K + CI) < 0; checks the envelope
    inequality |u(t)| <= U(t), the invariance |u0| <= Φ ⇒ |u(t)| <= Φ,
    and the exponential decay of (|u(T)| - Φ)₊ against the rigorous
    matrix-exponential rate, all at rk4 tolerance.  Each (n, ρ) is one rk4
    stack, rerun one system at a time if it blows up, so each orbit is its own run.
    """
    def outside(states, phi):  # the invariance check max(|u(t)| - Φ)
        return float(np.max(np.abs(states) - phi[None, :]))

    fitted: List[float] = []
    last = {}
    cfg = IntegratorConfig(scheme="rk4", dt=5e-3, t_end=2.0, store_every=40)

    def sample(rng, t):
        space = _sample_space(rng)
        kern = _sample_kernel(rng, space, strong=False)
        op = build_operator(kern, np.zeros(space.n))
        margin = float(rng.uniform(0.2, 1.0))
        ncoef = -(float(np.max(op.h0)) + margin)
        g = rng.uniform(0.1, 0.6, size=space.n)
        f = LogisticReaction(g=g, n=ncoef, m=float(rng.uniform(0.3, 1.0)),
                             rho=float(rng.choice([2.0, 3.0])), n_nodes=space.n)
        sb = structure_bounds(f, "plain")
        op_c = build_operator(kern, -sb.c)
        lam = principal_value(op_c).lam
        phi = solve_phi(kern, sb.c, sb.d)
        # (a) a datum inside the envelope, for invariance (0.99 keeps a margin
        # above integrator error without weakening the analytic claim)
        u0_in = 0.99 * rng.uniform(-1.0, 1.0, size=space.n) * phi
        # (b) a generic datum, for envelope domination and the rigorous decay rate
        u0 = (1.0 + rng.uniform(0.0, 2.0)) * phi + rng.uniform(0.0, 0.5, size=space.n)
        return op, f, op_c, lam, phi, np.stack([u0_in, u0])

    def run(group):  # (times, states) of each system of one (n, ρ), from one rk4 stack
        coefs = (np.stack([getattr(s[1], c) for s in group])[:, None] for c in ("g", "ncoef", "m"))
        f = LogisticReaction(*coefs, rho=group[0][1].rho, n_nodes=group[0][0].n)
        tr = evolve_nonlinear(OperatorStack(np.stack([s[0].amat for s in group])), f,
                              np.stack([s[5] for s in group]), cfg)
        if tr.blowup and len(group) > 1:  # the blow-up test read the whole stack
            return [out for s in group for out in run([s])]
        return [(tr.times, tr.states[:, i]) for i in range(len(group))]

    def check(samples):
        keys = [(s[0].n, s[1].rho) for s in samples]
        groups = [[t for t, k in enumerate(keys) if k == key] for key in dict.fromkeys(keys)]
        runs = {t: out for idx in groups for t, out in zip(idx, run([samples[t] for t in idx]))}
        return [check_one(*s, *runs[t]) for t, s in enumerate(samples)]

    def check_one(op, f, op_c, lam, phi, data, times, both):
        inv_viol = outside(both[:, 0], phi)
        states, u0 = both[:, 1], data[1]
        gap_plus = np.maximum(np.abs(u0) - phi, 0.0)
        props = _propagate(op_c.amat, np.column_stack([np.abs(u0) - phi, gap_plus]), times)
        env_viol = float(np.max(np.abs(states) - (phi + props[:, :, 0])))
        delta = np.max(np.maximum(np.abs(states) - phi, 0.0), axis=1)
        decay_viol = float(np.max(delta - np.max(props[:, :, 1], axis=1)))
        fitted.append(float(np.max(delta * np.exp(0.5 * abs(lam) * times))))
        last.update(states=states, phi=phi)
        return max(inv_viol, env_viol, decay_viol), {}

    def control(rng):
        # the last generic datum starts above Φ, so invariance must fail
        ctrl_viol = outside(last["states"], last["phi"])
        return "outside-envelope", ctrl_viol > SOFT_TOL, {"violation": ctrl_viol}

    summary = {"trial": "summary", "fitted_M": fitted, "informational": True}
    return _run_trials("asymptotic", trials, seed, SOFT_TOL, sample, control, summary, check)


SUITES = {
    "comparison": comparison_suite,
    "maximum": maximum_principle_suite,
    "supersolution": supersolution_suite,
    "asymptotic": asymptotic_suite,
}


def run_suite(name: str, trials: int, seed: int) -> PropertyReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](trials, seed)
