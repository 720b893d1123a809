"""Stationary problems.

The envelope equilibrium Φ solves KΦ + CΦ + D = 0 under a negative
spectral bound; the extremal equilibria are monotone euler_op limits
from ±(Φ+ε), stopped at a certified damped-Newton limit; minimal
nonnegative and minimal positive equilibria come from monotone orbits
off 0 and off small multiples of a principal eigenfunction; and the
constant-kernel cubic gives the piecewise-constant non-isolated family.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from nonlocalrd.kernel import Kernel, NonlocalOperator, build_operator
from nonlocalrd.evolve import (
    IntegratorConfig,
    _comparison_bound,
    _nsteps,
    _prepare_monotone,
    evolve_nonlinear,
    monotone_config,
)
from nonlocalrd.reaction import (
    LogisticReaction,
    Reaction,
    f_over_s_decreasing,
    structure_bounds,
)
from nonlocalrd.space import MeasureSpace
from nonlocalrd.spectral import principal_value

MAX_BLOCKS = 10_000
RESIDUAL_TOL = 1e-10
NEWTON_TOL = 1e-12
ORDER_TOL = 1e-12  # relative rounding slack of a monotone orbit's ordering
CERT_TRY = 1e-2    # block difference at which an orbit tries its Newton certificate


@dataclass
class EquilibriumSet:
    phi: np.ndarray                      # envelope Φ >= 0
    phi_m: np.ndarray                    # minimal equilibrium
    phi_M: np.ndarray                    # maximal equilibrium
    phi_m_plus: Optional[np.ndarray]     # minimal nonnegative equilibrium
    residuals: dict
    iterations: dict
    epsilon: float
    stopping_criterion: str = "sup"
    stopping_criteria: dict = field(default_factory=dict)  # per orbit


@dataclass
class PiecewiseEquilibrium:
    values: Tuple[float, float, float]
    measures: Tuple[float, float, float]
    a_level: float
    assignment: np.ndarray
    residual: float

    @property
    def state(self) -> np.ndarray:
        return np.asarray(self.values)[self.assignment]


def residual_norm(op: NonlocalOperator, f: Reaction, u: np.ndarray) -> float:
    return float(np.max(np.abs(op.apply(u) + f.apply(u))))


def solve_phi(kernel: Kernel, c, d) -> np.ndarray:
    """Nonnegative solution of KΦ + C(x)Φ + D(x) = 0.

    Requires sup Re σ(K + CI) < 0, and is the one place that decides it.
    K + CI is Metzler, so the bound is negative iff (K + CI)x = -1 has a
    solution x > 0, and for any such x the Collatz-Wielandt bound
    max_i ((K+CI)x)_i / x_i < 0 certifies it by a matvec that does not
    trust the solve (Berman & Plemmons, ch. 6).  One LU factorization
    serves that certificate, the solve for Φ and one step of iterative
    refinement, which is plenty at desk scale because the spectral
    condition controls the conditioning.
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

    n = kernel.space.n
    c = np.broadcast_to(np.asarray(c, dtype=float), (n,))
    d = np.broadcast_to(np.asarray(d, dtype=float), (n,))
    if np.any(d < 0):
        raise ValueError("the inhomogeneity D must be nonnegative")
    op_c = build_operator(kernel, -c)
    amat = op_c.amat
    with warnings.catch_warnings():
        # an exactly singular matrix fails the certificate below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu = lu_factor(amat)
    x = lu_solve(lu, -np.ones(n))
    if not (np.all(x > 0) and float(np.max(amat @ x / x)) < 0):
        raise ValueError("spectral precondition fails: no positive solution of (K+CI)x = -1 "
                         "certifies a negative spectral bound of K+CI")
    phi = lu_solve(lu, -d)
    phi += lu_solve(lu, -d - amat @ phi)  # one refinement step
    scale = 1.0 + float(np.max(np.abs(d)))
    if float(np.max(np.abs(amat @ phi + d))) > RESIDUAL_TOL * scale:
        raise RuntimeError("envelope solve residual too large")
    if np.min(phi) < -1e-10 * scale:
        raise RuntimeError("envelope solution lost nonnegativity")
    return phi


def _envelope(op: NonlocalOperator, f: Reaction):
    """Structure bounds folded with the potential, and the envelope Φ.

    Works in the h-absorbed normal form: the reaction relative to
    u_t = Ku - hu + f(u) has bounds (C - h, D), and the spectral
    condition is required of K + (C-h)I.  Logistic reactions with m
    bounded below trade growth for inhomogeneity via the Young shift
    when the plain bounds fail the condition.
    """
    sb = structure_bounds(f, "plain")
    c_eff = sb.c - op.h
    lam = principal_value(build_operator(op.kernel, -c_eff)).lam
    d = sb.d
    if lam >= 0:
        if isinstance(f, LogisticReaction) and float(np.min(f.m)) > 0:
            a = lam + 1.0
            sb = structure_bounds(f, "young_shift", a=a)
            c_eff = sb.c - op.h
            d = sb.d
        else:
            raise ValueError(
                "no usable structure bounds: sup Re sigma(K+(C-h)I) is nonnegative")
    phi = solve_phi(op.kernel, c_eff, d)
    return c_eff, d, phi


def _block_config(op: NonlocalOperator, f: Reaction, k_window: float,
                  block_t: float, beta: float) -> IntegratorConfig:
    cfg = monotone_config(op, f, np.zeros(op.n), block_t, trunc_k=k_window, beta=beta)
    cfg.store_every = _nsteps(cfg.dt, cfg.t_end)
    return cfg


def _monotone_orbit(op: NonlocalOperator, f: Reaction, u_start: np.ndarray,
                    direction: int, tol: float, k_window: float, beta: float):
    """Iterate unit time blocks of the order-preserving scheme to its limit.

    The orbit must move monotonically (direction -1: non-increasing,
    +1: non-decreasing) across blocks; a failure on the very first block
    means the block is too short to enter the monotone regime, so it is
    doubled a few times before giving up.  When the block difference
    first falls to CERT_TRY, a reaction with an exact ds_sup gets one
    try at Newton's limit from the block end, kept when _certifies proves
    it the orbit's limit (criterion "certified").  Otherwise, or on
    refusal, convergence is sup-norm Cauchy between block endpoints, with
    a weighted-L² fallback recorded when the sup norm stalls while the
    mean-square difference contracts, and the last block end is
    Newton-polished.  Returns the limit, the block count and the
    criterion.
    """
    u = np.array(u_start, dtype=float)
    w = op.space.weights
    slack = ORDER_TOL * (1.0 + float(np.max(np.abs(u))))
    blocks = 0
    criterion = "sup"
    try_cert = f.ds_sup(u, u) is not None
    config = _block_config(op, f, k_window, 1.0, beta)
    while blocks < MAX_BLOCKS:
        u_new = evolve_nonlinear(op, f, u, config).final()
        gap = direction * (u_new - u)
        if np.min(gap) < -slack:
            if blocks == 0 and config.t_end < 64.0:
                config = _block_config(op, f, k_window, 2.0 * config.t_end, beta)
                continue
            raise RuntimeError(
                f"monotone orbit violated ordering at block {blocks} "
                f"(worst {np.min(gap):.3e})")
        blocks += 1
        sup_diff = float(np.max(np.abs(u_new - u)))
        l2_diff = float(np.sqrt(np.sum(w * (u_new - u) ** 2)))
        u = u_new
        if try_cert and sup_diff <= CERT_TRY:
            try_cert = False
            try:
                e, lu = _newton(op, f, u)
            except RuntimeError:  # no Newton limit, nothing to certify
                e = lu = None
            if lu is not None and _certifies(op, f, e, lu, u, u_start, direction, slack):
                return e, blocks, "certified"
        if sup_diff <= tol:
            break
        if blocks > 200 and l2_diff <= tol:
            criterion = "l2"
            break
    else:
        raise RuntimeError("monotone iteration exceeded the block cap")
    return newton_refine(op, f, u), blocks, criterion


def _certifies(op: NonlocalOperator, f: Reaction, e: np.ndarray, lu,
               u: np.ndarray, u_start: np.ndarray, direction: int,
               slack: float) -> bool:
    """True when Newton's limit e from the block end u, with lu its last
    step's factorization, is provably the orbit's limit L.

    With J = amat + diag ∂f/∂s, Metzler, e is accepted when
    1. e has Newton's residual NEWTON_TOL (the caller's _newton);
    2. e lies on the start's side: direction·(e - u_start) >= -slack.  An
       equilibrium lies in the envelope, inside the truncation window, so
       it is a fixed point of the order-preserving scheme, and the orbit
       from u_start stays on e's far side; L lies in the box between e and
       u, which the orbit passed on its monotone way to L;
    3. ψ solving J(u_k)ψ = -1 by the last Newton step's LU is positive;
    4. (amat + diag q̄)ψ < 0, q̄ = f.ds_sup over the box widened by slack.
       Then Λ(amat + diag q̄) < 0 (Collatz-Wielandt), and L - e solves
       (amat + diag q)(L - e) = 0 with secant slopes q <= q̄, whose
       matrix has Λ <= Λ(amat + diag q̄) < 0 and is nonsingular: L = e.
    ψ is only a test vector, so the check trusts no solve, but 4 must
    hold in exact arithmetic.  Each entry of (amat + diag q̄)ψ sums n + 1
    products, so rounding moves it by at most γ_{n+2}·mag, with
    mag = (|amat| + |diag q̄|)ψ and γ_k = kε/(1 - kε), ε = eps/2 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, §3.1).  Computed
    entries must stay below -2(n+2)·eps·mag <= -2γ_{n+2}·mag; the factor
    2 covers the rounding of mag itself, and ds_sup rounds q̄ up.
    Sattinger (1972); Amann (1976).
    """
    from scipy.linalg import lu_solve

    if np.any(direction * (e - u_start) < -slack):
        return False
    psi = lu_solve(lu, -np.ones(op.n), trans=1, check_finite=False)
    if not np.all(psi > 0):
        return False
    qbar = f.ds_sup(np.minimum(e, u) - slack, np.maximum(e, u) + slack)
    amat = op.amat
    a_psi = amat @ psi
    bound = a_psi + qbar * psi
    mag = a_psi - 2.0 * np.minimum(np.diagonal(amat), 0.0) * psi + np.abs(qbar) * psi
    return bool(np.all(bound + 2 * (op.n + 2) * np.finfo(float).eps * mag < 0))


def _newton(op: NonlocalOperator, f: Reaction, guess: np.ndarray,
            tol: float = NEWTON_TOL, max_steps: int = 50):
    """Damped Newton on R(u) = amat·u + f(u), halving on residual increase.

    Returns the root and the LU factorization of the last step's Jacobian
    J, None if the guess met tol.  The factorization is of Jᵀ, the
    Fortran-ordered view of J, which spares LAPACK a copy; solve with
    lu_solve(..., trans=1).  An exactly zero pivot raises.
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

    u = np.array(guess, dtype=float)
    amat = op.amat
    r = amat @ u + f.apply(u)
    rn = float(np.max(np.abs(r)))
    lu = None
    for _ in range(max_steps):
        if rn <= tol:
            return u, lu
        jac = amat.copy()
        jac.flat[::op.n + 1] += f.apply_ds(u)
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)  # an exactly zero pivot
            try:
                lu = lu_factor(jac.T, overwrite_a=True, check_finite=False)
            except LinAlgWarning as exc:
                raise RuntimeError("singular jacobian in newton refinement") from exc
        delta = lu_solve(lu, -r, trans=1, check_finite=False)
        lam = 1.0
        while True:
            u_try = u + lam * delta
            r_try = amat @ u_try + f.apply(u_try)
            rn_try = float(np.max(np.abs(r_try)))
            if rn_try < rn or lam <= 1.0 / 64.0:
                break
            lam /= 2.0
        if rn_try >= rn and rn > tol:
            raise RuntimeError("newton refinement diverged")
        u, r, rn = u_try, r_try, rn_try
    if rn <= tol:
        return u, lu
    raise RuntimeError(f"newton refinement stalled at residual {rn:.3e}")


def newton_refine(op: NonlocalOperator, f: Reaction, guess: np.ndarray,
                  tol: float = NEWTON_TOL, max_steps: int = 50) -> np.ndarray:
    """Damped Newton on R(u) = amat·u + f(u), halving on residual increase."""
    return _newton(op, f, guess, tol, max_steps)[0]


def extremal_equilibria(op: NonlocalOperator, f: Reaction,
                        epsilon: Optional[float] = None,
                        tol: float = 1e-9) -> EquilibriumSet:
    """Extremal equilibria as monotone limits from ±(Φ+ε).

    The downward orbit from Φ+ε and the upward orbit from -Φ-ε converge
    in ordered blocks to the maximal and minimal equilibria, each either
    certified as a Newton limit or Newton-polished after a Cauchy stop
    (stopping_criteria says which).  Any equilibrium of the system is
    sandwiched between the two, and both are dominated by Φ in absolute
    value.
    """
    c_eff, d_vec, phi = _envelope(op, f)
    eps = epsilon if epsilon is not None else 1e-3 * (1.0 + float(np.max(np.abs(phi))))
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    k_window, beta = _orbit_window(op, f, pad=eps)

    phi_M, it_up, crit_up = _monotone_orbit(op, f, phi + eps, -1, tol, k_window, beta)
    phi_m, it_dn, crit_dn = _monotone_orbit(op, f, -phi - eps, +1, tol, k_window, beta)

    phi_m_plus, it_plus, crit_plus = None, 0, None
    if np.all(f.g0 >= -1e-14):
        phi_m_plus, it_plus, crit_plus = _minimal_nonnegative(op, f, tol, k_window, beta)

    res = {"phi_M": residual_norm(op, f, phi_M), "phi_m": residual_norm(op, f, phi_m)}
    if phi_m_plus is not None:
        res["phi_m_plus"] = residual_norm(op, f, phi_m_plus)
    out = EquilibriumSet(
        phi=phi, phi_m=phi_m, phi_M=phi_M, phi_m_plus=phi_m_plus,
        residuals=res,
        iterations={"phi_M": it_up, "phi_m": it_dn, "phi_m_plus": it_plus},
        epsilon=eps,
        stopping_criterion=crit_up if crit_up == crit_dn else f"{crit_up}/{crit_dn}",
        stopping_criteria={"phi_M": crit_up, "phi_m": crit_dn, "phi_m_plus": crit_plus})
    _check_equilibrium_set(out)
    return out


def _check_equilibrium_set(es: EquilibriumSet) -> None:
    if np.any(es.phi_m > es.phi_M + 1e-8):
        raise RuntimeError("extremal equilibria lost their ordering")
    named = [("phi_m", es.phi_m), ("phi_M", es.phi_M)]
    if es.phi_m_plus is not None:
        if np.any(es.phi_m_plus < es.phi_m - 1e-8) or np.any(es.phi_m_plus > es.phi_M + 1e-8):
            raise RuntimeError("phi_m_plus leaves the extremal sandwich")
        if np.any(es.phi_m_plus < -1e-8):
            raise RuntimeError("phi_m_plus is negative")
        named.append(("phi_m_plus", es.phi_m_plus))
    for name, vec in named:
        if np.any(np.abs(vec) > es.phi + 1e-8):
            raise RuntimeError(f"{name} escapes the envelope")
    if any(r > 1e-8 for r in es.residuals.values()):
        raise RuntimeError("equilibrium residual above tolerance")


def _minimal_nonnegative(op, f, tol, k_window, beta):
    if float(np.max(np.abs(f.g0))) == 0.0:
        return np.zeros(op.n), 0, "certified"  # 0 is an equilibrium: the orbit stays there
    return _monotone_orbit(op, f, np.zeros(op.n), +1, tol, k_window, beta)


def minimal_nonnegative_equilibrium(op: NonlocalOperator, f: Reaction,
                                    tol: float = 1e-9) -> np.ndarray:
    """Monotone limit from u0 = 0; zero itself when f(·,0) vanishes."""
    if np.any(f.g0 < -1e-14):
        raise ValueError("needs f(·,0) >= 0 so that 0 is a subsolution")
    return _minimal_nonnegative(op, f, tol, *_orbit_window(op, f))[0]


def _orbit_window(op: NonlocalOperator, f: Reaction, pad: float = 1.0) -> Tuple[float, float]:
    """Truncation level covering every monotone orbit in the envelope, and its β."""
    c_eff, d_vec, phi = _envelope(op, f)
    bound = _comparison_bound(op, c_eff, d_vec, float(np.max(np.abs(phi))) + pad, 1.0)
    _, beta, k_window = _prepare_monotone(op, f, bound.m0, 1.0, trunc_k=bound.trunc_level)
    return k_window, beta


def minimal_positive_equilibrium(op: NonlocalOperator, f: Reaction, m_lower,
                                 s0: float, tol: float = 1e-8) -> Optional[np.ndarray]:
    """Minimal positive equilibrium when 0 is linearly unstable.

    Requires f(x,s) >= M(x)s on [0, s0] (grid-checked) and a positive
    spectral bound of K - hI + MI with principal eigenfunction φ̃ > 0;
    small multiples of φ̃ are then subsolutions and their monotone limits
    agree as the multiple shrinks, evidencing minimality.  Returns None
    when the spectral bound is not positive.
    """
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    m_lower = np.broadcast_to(np.asarray(m_lower, dtype=float), (op.n,))
    grid = np.linspace(0.0, s0, 65)
    smat = np.broadcast_to(grid[:, None], (grid.size, op.n))
    if np.max(m_lower * smat - f.apply(smat)) > 1e-12 * (1.0 + s0):
        raise ValueError("f(x,s) >= M(x)s fails on [0, s0]")
    rep = principal_value(build_operator(op.kernel, op.h - m_lower), method="auto")
    if rep.lam <= 0 or not rep.is_principal:
        return None
    phi_t = rep.eigenfunction  # sup-normalized, positive
    gamma = 0.5 * min(s0, s0 / float(np.max(phi_t)))
    k_window, beta = _orbit_window(op, f)

    limits: List[np.ndarray] = []
    for level in (gamma, gamma / 2, gamma / 4, gamma / 8):
        limits.append(_monotone_orbit(op, f, level * phi_t, +1, tol, k_window, beta)[0])
    worst = max(float(np.max(np.abs(limits[0] - other))) for other in limits[1:])
    if worst > 10 * tol:
        raise RuntimeError(
            f"limits from shrinking starts disagree by {worst:.3e}: minimality not evidenced")
    if np.min(limits[0]) <= 0:
        raise RuntimeError("limit is not strictly positive")
    return limits[0]


# ---------------------------------------------------------------------------
# piecewise-constant equilibria for the constant kernel


def _cubic_roots(lam: float, omega: float, a_level: float) -> np.ndarray:
    """Real roots of (|Ω|-λ)u + λu³ = A, ascending."""
    roots = np.roots([lam, 0.0, omega - lam, -a_level])
    real = roots[np.abs(roots.imag) < 1e-9].real
    return np.sort(real)


def piecewise_constant_family(space: MeasureSpace, lambda_param: float,
                              a_level: float, measures, assignment) -> PiecewiseEquilibrium:
    """Piecewise-constant equilibrium of the constant-kernel cubic system.

    For J ≡ 1 the stationary states with values among the roots of
    (|Ω|-λ)u + λu³ = A are equilibria whenever the assignment's part
    measures balance ∫u = A; the residual is validated to quadrature
    exactness (midpoint rule is exact for piecewise constants).
    """
    omega = space.total_measure
    roots = _cubic_roots(lambda_param, omega, a_level)
    if roots.size != 3 or np.min(np.diff(roots)) <= 1e-12:
        raise ValueError("the cubic must have three distinct real roots")
    measures = tuple(float(m) for m in measures)
    if abs(sum(measures) - omega) > 1e-12 * max(1.0, omega):
        raise ValueError("part measures must add up to the total measure")
    mean = float(np.dot(roots, measures))
    if abs(mean - a_level) > 1e-12 * max(1.0, abs(a_level), float(np.max(np.abs(roots)))):
        raise ValueError(
            f"measure constraint violated: sum(values*measures) = {mean:.6g} != {a_level:.6g}")
    assignment = np.asarray(assignment, dtype=int)
    if assignment.shape != (space.n,) or assignment.min() < 0 or assignment.max() > 2:
        raise ValueError("assignment must map every node to a part in {0,1,2}")
    for part in range(3):
        got = float(np.sum(space.weights[assignment == part]))
        if abs(got - measures[part]) > 1e-12 * max(1.0, omega):
            raise ValueError(f"assignment realizes measure {got:.6g} for part {part}, "
                             f"need {measures[part]:.6g}")
    u = roots[assignment]
    mass = float(np.sum(space.weights * u))
    f0 = lambda_param * u * (1.0 - u * u)
    res = float(np.max(np.abs(mass - omega * u + f0)))
    if res > 1e-12 * max(1.0, omega * float(np.max(np.abs(roots)))):
        raise RuntimeError(f"stationary residual {res:.3e} above quadrature exactness")
    return PiecewiseEquilibrium(values=tuple(roots), measures=measures,
                                a_level=a_level, assignment=assignment, residual=res)


def block_assignment(space: MeasureSpace, measures) -> np.ndarray:
    """Contiguous assignment realizing the part measures exactly."""
    w = space.weights
    out = np.empty(space.n, dtype=int)
    targets = list(measures)
    part = 0
    acc = 0.0
    for i in range(space.n):
        if part < 2 and acc + w[i] > targets[part] + 1e-12:
            part += 1
            acc = 0.0
        out[i] = part
        acc += w[i]
    for p in range(3):
        got = float(np.sum(w[out == p]))
        if abs(got - targets[p]) > 1e-12 * max(1.0, space.total_measure):
            raise ValueError("measures are not realizable by whole cells")
    return out


def perturbed_assignment(space: MeasureSpace, assignment, swaps: int,
                         seed: int = 0) -> np.ndarray:
    """Swap node labels across parts without changing any part measure.

    Only equal-weight nodes swap, so the measures are preserved exactly.
    """
    rng = np.random.default_rng(seed)
    out = np.array(assignment, dtype=int)
    w = space.weights
    done = 0
    attempts = 0
    while done < swaps and attempts < 100 * swaps:
        attempts += 1
        i, j = rng.integers(0, space.n, size=2)
        if out[i] != out[j] and abs(w[i] - w[j]) < 1e-15:
            out[i], out[j] = out[j], out[i]
            done += 1
    if done < swaps:
        raise ValueError("could not realize the requested number of swaps")
    return out


# ---------------------------------------------------------------------------
# uniqueness / global-stability experiment


@dataclass
class UniquenessReport:
    phi_M: np.ndarray
    distances: List[float]      # endpoint sup-distance from phi_M per trial
    trivial: List[bool]         # trials pinned at zero (zero datum, f(·,0)=0)
    all_agree: bool
    tol: float


def uniqueness_experiment(op: NonlocalOperator, f: Reaction, trial_data,
                          t_end: float, tol: float = 1e-4,
                          dt: float = 1e-2) -> UniquenessReport:
    """Evolve several nonnegative data and report convergence to φ_M.

    The hypotheses of the uniqueness theorem (symmetric kernel, strictly
    decreasing f(x,s)/s, nonnegative f(·,0)) are checked up front;
    non-agreement is reported, never silently asserted.
    """
    if not op.kernel.symmetric:
        raise ValueError("uniqueness experiment needs a symmetric kernel")
    if np.any(f.g0 < -1e-14):
        raise ValueError("uniqueness experiment needs f(·,0) >= 0")
    if not f_over_s_decreasing(f, np.logspace(-3, 1, 128)):
        raise ValueError("hypothesis not met: f(x,s)/s is not strictly decreasing")
    data = np.array([np.broadcast_to(np.asarray(u0, dtype=float), (op.n,))
                     for u0 in trial_data])  # one row per datum, one run for all
    if np.any(data < 0):
        raise ValueError("trial data must be nonnegative")
    phi_M = extremal_equilibria(op, f).phi_M
    zero_reaction = float(np.max(np.abs(f.g0))) == 0.0
    config = IntegratorConfig(scheme="rk4", dt=dt, t_end=t_end,
                              store_every=max(1, int(round(t_end / dt))))
    ends = evolve_nonlinear(op, f, data, config).final()
    distances = np.max(np.abs(ends - phi_M), axis=1).tolist()
    trivial = [zero_reaction and float(np.max(np.abs(u0))) == 0.0 for u0 in data]
    live = [d for d, t in zip(distances, trivial) if not t]
    return UniquenessReport(phi_M=phi_M, distances=distances, trivial=trivial,
                            all_agree=bool(live) and all(d <= tol for d in live),
                            tol=tol)
