"""Time integration of the nonlocal problems.

The order-preserving explicit scheme euler_op is the structural
workhorse: under the step-size condition dt·max(h+β) <= 1 every update
is a nonnegative combination of monotone maps, so comparison and
maximum principles hold exactly in floating point.  rk4 is the accuracy
workhorse, and vcf_exact_linear propagates the linear part exactly with
the nonlinearity frozen per step.  Its propagator pair e^M and φ1(M),
M = (L - βI)·dt, is formed once per run at size n by _expm_phi1, the
package's one matrix exponential, by scaling and modified squaring
(Skaflestad & Wright 2009): a Taylor sum for φ1 of M/2^s, then s
doublings φ1(2Y) = ½φ1(Y)(e^Y + I), e^{2Y} = (e^Y)².
Blow-up is a first-class outcome.

make_stepper does every piece of set-up a scheme needs once — the
truncation level and the monotone shift, which _prepare_monotone derives
for every caller from the scalar comparison bound, the step-size check,
the weights dt·w through which euler_op reads jmat in place (no n×n
copy), the propagator pair — and returns a Stepper holding the prepared
one-step map.  evolve_nonlinear builds one and runs the single stepping
loop: per step it applies the map, makes one cheap blow-up test and
stores the state on steps chosen before the loop.  monotone_stages splits
an order-preserving run into stages that end where the comparison bound
doubles, each truncated at the bound's level up to its end.

A (k, n) batch u0, one datum per row, is one run with states (len(times), k, n), each step
mapping all rows at once as (M @ v.T).T on scipy's BLAS, as every step and exponential but rk4's
on an OperatorStack's (G, k, n) stack, numpy's matmul.  The truncation level and β come from max|u0|
over the batch, valid for every row, so rows equal separate runs when trunc_k and β are given
or coincide; the run stops when any row blows up, and a stack when any system's does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, List, Optional, Tuple

import numpy as np

from nonlocalrd.kernel import Kernel, NonlocalOperator, _blas_dot, apply_K, build_operator
from nonlocalrd.reaction import (
    LogisticReaction,
    Reaction,
    monotone_shift,
    structure_bounds,
    truncate,
)
from nonlocalrd.spectral import principal_value

SCHEMES = ("euler_op", "rk4", "vcf_exact_linear")
TRUNC_CAP = 1e9  # beyond this a derived truncation level is useless
PHI_THETA = 0.5  # ‖M/2^s‖₁ bound under which φ1 is summed by Taylor
PICARD_ITERS = 20
KAPLAN_TOL = 1e-6     # relative slack of the witness's domination check
GROWTH_MARGIN = 0.01  # rate margin over Λ of fit_growth_constant


@dataclass
class IntegratorConfig:
    scheme: str = "rk4"
    dt: float = 1e-3
    t_end: float = 1.0
    beta: Optional[float] = None        # monotone shift; derived when None
    blowup_threshold: float = 1e9
    store_every: int = 1
    trunc_k: Optional[float] = None     # truncation level override

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError("dt and t_end must be positive and finite")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")
        beta, k, thr = self.beta, self.trunc_k, self.blowup_threshold
        if beta is not None and not (isinstance(beta, Real) and math.isfinite(beta)):
            raise ValueError(f"beta must be a finite number, got {beta!r}")
        if k is not None and not (isinstance(k, Real) and 0 < k < math.inf):
            raise ValueError(f"trunc_k must be a positive finite number, got {k!r}")
        if not (isinstance(thr, Real) and thr > 0):
            raise ValueError(f"blowup_threshold must be positive or inf, got {thr!r}")

    def check_monotone_dt(self, h: np.ndarray, beta: float) -> None:
        """The discrete-monotonicity condition dt·max(h+β) <= 1."""
        top = float(np.max(h + beta))
        if top > 0 and self.dt * top > 1.0 + 1e-12:
            raise ValueError(
                f"euler_op step too large: dt*max(h+beta) = {self.dt * top:.3g} > 1")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times),) + u0.shape: u0 (n,), a (k, n) batch or a (G, k, n) stack
    scheme: str
    dt: float
    metadata: dict = field(default_factory=dict)

    @property
    def blowup(self) -> bool:
        return bool(self.metadata.get("blowup", False))

    def final(self) -> np.ndarray:
        return self.states[-1]


def _nsteps(dt: float, t_end: float) -> int:
    n = int(round(t_end / dt))
    if n < 1 or abs(n * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("dt must divide t_end")
    return n


def linear_semigroup_apply(op: NonlocalOperator, t: float, u0: np.ndarray) -> np.ndarray:
    """e^{amat·t} u0 by _expm_phi1, the one matrix exponential; t may be negative."""
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (op.n,):
        raise ValueError("state length mismatch")
    return _blas_dot(_expm_phi1(op.amat * t)[0], u0)


def _auto_structure(op: NonlocalOperator, f: Reaction):
    """Structure bounds used for automatic truncation.

    Logistic reactions with m bounded away from 0 take the Young-shifted
    bounds with A big enough that the growth coefficient is negative, so
    the scalar bound stays bounded in time; everything else uses the
    plain bounds.
    """
    if isinstance(f, LogisticReaction) and float(np.min(f.m)) > 0:
        a = max(0.0, float(np.max(f.ncoef))) + float(np.max(np.abs(op.h0 - op.h))) + 1.0
        return structure_bounds(f, "young_shift", a=a)
    return structure_bounds(f, "plain")


def _comparison_bound(op: NonlocalOperator, c, d, m0: float,
                      t_end: float) -> SupersolutionBound:
    """ż = C₁z + D₁, z(0) = m0, bounding orbits with ‖u0‖_∞ <= m0 when
    f(x,s)s <= c(x)s² + d(x)|s|; C₁ = max c + ‖h0 - h‖_∞, D₁ = max d."""
    rate = float(np.max(c)) + float(np.max(np.abs(op.h0 - op.h)))
    return supersolution_ode(rate, float(np.max(d)), m0, t_end)


def _prepare_monotone(op: NonlocalOperator, f: Reaction, m0: float, t_end: float,
                      trunc_k: Optional[float] = None, beta: Optional[float] = None):
    """Truncated reaction, β and truncation level of the order-preserving
    scheme for data with ‖u0‖_∞ <= m0 on [0, t_end]; given values are kept."""
    if trunc_k is not None:
        k = float(trunc_k)
    elif f.kind == "globally_lipschitz":
        k = None
    else:
        sb = _auto_structure(op, f)
        k = _comparison_bound(op, sb.c, sb.d, m0, t_end).trunc_level
        if not math.isfinite(k) or k > TRUNC_CAP:
            raise ValueError(
                "derived truncation level is unusable; supply trunc_k explicitly")
    f_used = truncate(f, k) if k is not None else f
    if beta is None:
        beta = monotone_shift(f_used, k if k is not None else max(1e3, 10.0 * m0 + 1.0))
    return f_used, float(beta), k


def monotone_config(op: NonlocalOperator, f: Reaction, u0: np.ndarray,
                    t_end: float, trunc_k: Optional[float] = None,
                    beta: Optional[float] = None,
                    store_every: Optional[int] = None) -> IntegratorConfig:
    """euler_op configuration with the largest uniform dt dividing t_end
    that satisfies the discrete-monotonicity condition."""
    _, beta_used, k = _prepare_monotone(op, f, float(np.max(np.abs(u0))), t_end,
                                        trunc_k, beta)
    top = max(float(np.max(op.h)) + beta_used, 0.0)
    nsteps = int(math.ceil(t_end * top + 1e-12)) + 1
    return IntegratorConfig(scheme="euler_op", dt=t_end / nsteps, t_end=t_end,
                            beta=beta_used, trunc_k=k,
                            store_every=store_every if store_every is not None else 1)


def _expm_phi1(mat: np.ndarray):
    """e^M and φ1(M) = Σ_k M^k/(k+1)! by scaling and modified squaring.

    With Y = M/2^s and ‖Y‖₁ <= PHI_THETA, φ1(Y) is the Taylor sum of the
    least degree d whose remainder bound ‖Y‖^{d+1}/(d+2)!·e^{‖Y‖} is below
    2^-53, summed by Horner; e^Y = I + Y·φ1(Y), and each of the s
    doublings uses φ1(2Y) = ½φ1(Y)(e^Y + I) and e^{2Y} = (e^Y)².  Returns
    (e^M, φ1(M), {"taylor_degree": d, "squarings": s}).

    No identity is stored, bitwise the np.eye forms: Horner starts at
    y/(d+1)! + I/d!, e^Y + I is made on a diagonal, and y is mat if s = 0.
    Products go to spare buffers: besides mat the work holds at most four n×n arrays.
    """
    n = mat.shape[0]
    norm = float(np.linalg.norm(mat, 1))
    if norm == 0.0:
        return np.eye(n), np.eye(n), {"taylor_degree": 0, "squarings": 0}
    s = max(0, math.ceil(math.log2(norm / PHI_THETA)))
    y = mat / 2.0 ** s if s else mat  # x / 1.0 == x
    ny = norm / 2.0 ** s
    d = 1
    while ny ** (d + 1) / math.factorial(d + 2) * math.exp(ny) > 2.0 ** -53:
        d += 1
    phi = y * (1.0 / math.factorial(d + 1)) + 0.0  # y @ (I/(d+1)!); + 0.0 as the gemm
    phi.flat[::n + 1] += 1.0 / math.factorial(d)
    spare = np.empty_like(phi)
    for k in range(d - 2, -1, -1):
        phi, spare = _blas_dot(phi.T, y, out=spare), phi  # y @ phi
        phi.flat[::n + 1] += 1.0 / math.factorial(k + 1)
    emat = _blas_dot(phi.T, y, out=spare)  # y @ phi
    emat.flat[::n + 1] += 1.0
    spare = np.empty_like(phi) if s else None
    for _ in range(s):  # s > 0: y is not mat, and a free buffer now
        np.add(emat, 0.0, out=y)  # e^Y + I; + 0.0 turns -0.0 to +0.0, as + eye does
        y.flat[::n + 1] += 1.0
        phi, spare = _blas_dot(y.T, phi, out=spare), phi  # phi @ (e^Y + I)
        phi *= 0.5
        emat, y = _blas_dot(emat.T, emat, out=y), emat
    return emat, phi, {"taylor_degree": d, "squarings": s}


def _propagate(amat: np.ndarray, vecs: np.ndarray, times) -> np.ndarray:
    """e^{amat·t_i} @ vecs for every t_i, shape (len(times),) + vecs.shape,
    as successive products with e^{amat·(t_i - t_{i-1})}, t_{-1} = 0.  A gap
    within 1e-12·max(1, |t_last|) of the last one exponentiated (at first 0,
    with e^0 = I) reuses its exponential, so a uniform grid costs one."""
    out = np.empty((len(times),) + vecs.shape)
    tol = 1e-12 * max(1.0, abs(float(times[-1]))) if len(times) else 0.0
    cur, prev, gap_used, emat = vecs, 0.0, 0.0, np.eye(amat.shape[0])
    for i, t in enumerate(times):
        if abs(t - prev - gap_used) > tol:
            gap_used = t - prev
            emat = _expm_phi1(amat * gap_used)[0]
        cur = out[i] = _blas_dot(emat, cur) if cur.ndim == 1 else _blas_dot(cur.T, emat)
        prev = t
    return out


@dataclass(frozen=True)
class OperatorStack:
    """The (G, n, n) amat of G systems of one size n, which rk4 steps as one stack."""

    amat: np.ndarray

    @property
    def n(self) -> int:
        return self.amat.shape[-1]


@dataclass(frozen=True)
class Stepper:
    """The prepared one-step map u ↦ u(t + dt) of one scheme, with the
    beta, trunc_k and propagator that evolve_nonlinear records in the
    trajectory metadata."""

    step: Callable[[np.ndarray], np.ndarray]
    beta: Optional[float]
    trunc_k: Optional[float]
    propagator: Optional[dict]


def make_stepper(op: NonlocalOperator, f: Reaction, u0: np.ndarray,
                 config: IntegratorConfig) -> Stepper:
    """Prepare the one-step map of config.scheme for u_t = amat·u + f(x, u).

    euler_op truncates locally Lipschitz reactions at the level the
    scalar supersolution bound provides over [0, t_end] and checks the
    monotone step-size condition; rk4 and the exponential-Euler scheme
    use the raw reaction.  Only rk4 steps a (G, k, n) stack.
    """
    if u0.ndim == 3 and config.scheme != "rk4":
        raise ValueError(f"{config.scheme} cannot step a (G, k, n) stack; rk4 can")
    dt = config.dt
    beta = k = propagator = None
    if config.scheme == "euler_op":
        f_used, beta, k = _prepare_monotone(op, f, float(np.max(np.abs(u0))), config.t_end,
                                            config.trunc_k, config.beta)
        config.check_monotone_dt(op.h, beta)
        # dt·K v = jmat @ (dt·w·v); jmat, dt·w, decay >= 0 keep it exactly monotone
        matvec, dtw = op.kernel.matvec, dt * op.space.weights
        decay = 1.0 - dt * (op.h + beta)

        def step(v):
            return decay * v + matvec(dtw * v) + dt * (f_used.apply(v) + beta * v)
    elif config.scheme == "rk4":
        half, sixth = 0.5 * dt, dt / 6.0
        if u0.ndim == 1 and op.kernel.symmetric:  # apply reads one triangle of jmat
            def rhs(v):
                return op.apply(v) + f.apply(v)
        else:  # a batch, a stack or a nonsymmetric kernel reads amat once per product
            amat = op.amat

            def rhs(v):  # no one BLAS call steps a (G, k, n) stack
                return (v @ amat.swapaxes(-1, -2) if v.ndim == 3 else _blas_dot(amat, v)) + f.apply(v)

        def step(v):
            k1 = rhs(v)
            k2 = rhs(v + half * k1)
            k3 = rhs(v + half * k2)
            k4 = rhs(v + dt * k3)
            return v + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
    else:  # vcf_exact_linear
        beta = float(config.beta) if config.beta is not None else 0.0
        # M = (amat - βI)·dt in amat's own buffer, bitwise the out-of-place form for β >= 0
        mat = op.amat
        mat.flat[::op.n + 1] -= beta
        mat *= dt
        emat, phi1, propagator = _expm_phi1(mat)
        phi1 *= dt

        def step(v):
            return _blas_dot(emat, v) + _blas_dot(phi1, f.apply(v) + beta * v)
    return Stepper(step=step, beta=beta, trunc_k=k, propagator=propagator)


def evolve_nonlinear(op: NonlocalOperator, f: Reaction, u0: np.ndarray,
                     config: IntegratorConfig) -> Trajectory:
    """Integrate u_t = amat·u + f(x, u) and record the sampled orbit.

    The step is make_stepper's for these arguments.  A run flags blow-up
    and stops when a step goes non-finite or its sup norm passes the
    threshold; the last finite state is stored.
    """
    u = np.array(u0, dtype=float)
    lead_ok = u.shape[:-2] == op.amat.shape[:1] if isinstance(op, OperatorStack) else u.ndim < 3
    if not lead_ok or u.shape[-1:] != (op.n,) or u.size == 0:
        raise ValueError(f"initial state shape {u.shape} is not (n,) or (k >= 1, n) for an "
                         f"operator, nor (G, k >= 1, n) for a stack of G, n = {op.n}")
    if not np.all(np.isfinite(u)):
        raise ValueError("initial state must be finite")
    nsteps = _nsteps(config.dt, config.t_end)
    stepper = make_stepper(op, f, u, config)
    dt = config.dt
    meta = {"scheme": config.scheme, "blowup": False, "blowup_time": None,
            "beta": stepper.beta, "trunc_k": stepper.trunc_k,
            "propagator": stepper.propagator}

    step = stepper.step
    thr = config.blowup_threshold
    # u·u <= (thr/2)² forces every entry finite with |u_i| <= thr, since
    # NaN, inf and an overflowing sum all fail the comparison; a state
    # failing it takes the exact test.  Outside [1e-150, 1e150] thr² is
    # no normal double and every state takes the exact test.  np.vdot
    # reads no floating-point status, so an overflowing sum neither warns
    # nor raises under any np.errstate.  It flattens a batch.
    guard = 0.25 * thr * thr if 1e-150 <= thr <= 1e150 else None
    every = config.store_every
    next_store = min(every, nsteps)
    states = [u.copy()]
    steps_idx = [0]
    for m in range(1, nsteps + 1):
        u = step(u)
        if guard is None or not (np.vdot(u, u) <= guard):
            finite = bool(np.all(np.isfinite(u)))
            if not finite or np.max(np.abs(u)) > thr:
                meta["blowup"] = True
                meta["blowup_time"] = m * dt
                if finite:
                    states.append(u.copy())
                    steps_idx.append(m)
                break
        if m == next_store:
            states.append(u.copy())
            steps_idx.append(m)
            next_store = min(m + every, nsteps)
    meta["steps"] = np.asarray(steps_idx, dtype=int)
    return Trajectory(times=meta["steps"] * dt, states=np.asarray(states),
                      scheme=config.scheme, dt=dt, metadata=meta)


# ---------------------------------------------------------------------------
# scalar supersolution bound


@dataclass(frozen=True)
class SupersolutionBound:
    """Solution of ż = c z + d, z(0) = m0, with its truncation level.

    z is monotone, so the level sup_{[0,t_end]} z is max(z(0), z(t_end)).
    """

    c: float
    d: float
    m0: float
    t_end: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.c == 0.0:
            out = self.m0 + self.d * t
        else:
            with np.errstate(over="ignore"):
                out = (self.m0 + self.d / self.c) * np.exp(self.c * t) - self.d / self.c
        return float(out) if out.ndim == 0 else out

    @property
    def level(self) -> float:
        return float(max(self(0.0), self(self.t_end)))

    @property
    def trunc_level(self) -> float:
        """Padded level, never below m0 (z(0) can round under it); NaN stays NaN."""
        return max(self.level, self.m0) * (1 + 1e-9) + 1e-9

    def time_at(self, value: float) -> float:
        """The time z reaches value, for value between z(0) and z(t_end) of a growing z."""
        if self.c == 0.0:
            return (value - self.m0) / self.d
        return math.log1p(self.c * (value - self.m0) / (self.c * self.m0 + self.d)) / self.c

    def stage_ends(self) -> List[float]:
        """Stage ends t_1 < ... < t_S = t_end of the staged truncation.

        t_j (j < S) is where z first reaches 2ʲ·z(0), so z at most doubles
        over each stage.  One stage when z(0) <= 0 or z(t_end) <= 2·z(0), and
        when c < 0, where explicit Euler of ż = cz + d leads the exact z
        instead of lagging it, so a level taken at z(t_j) would keep no margin.
        """
        top = self(self.t_end)
        ends: List[float] = []
        if self.m0 > 0 and self.c >= 0 and math.isfinite(top):
            for j in range(1, math.ceil(math.log2(top / self.m0))):
                t = self.time_at(self.m0 * 2.0 ** j)
                if (ends[-1] if ends else 0.0) < t < self.t_end:
                    ends.append(t)
        return ends + [self.t_end]


def supersolution_ode(c: float, d: float, m0: float, t_end: float) -> SupersolutionBound:
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    return SupersolutionBound(c=float(c), d=float(d), m0=float(m0), t_end=float(t_end))


def monotone_stages(op: NonlocalOperator, f: Reaction,
                    bound: SupersolutionBound) -> List[Tuple[float, IntegratorConfig]]:
    """(start, config) of each euler_op stage of a run on [0, bound.t_end]
    whose data satisfy ‖u0‖_∞ <= bound.m0, chained by the caller, each
    stage starting from the last state of the one before.

    Stage j, from t_{j-1} to t_j (bound.stage_ends()), truncates at the
    bound's padded level over [0, t_j] and takes its own β_j and dt_j from
    monotone_config.  On the stage the orbit satisfies |u| <= z(t) <= z(t_j),
    so the truncation never changes it, and dt_j·max(h + β_j) <= 1 keeps
    each step order-preserving.  A β that grows with the level is thus paid
    in full only on the last stage.
    """
    ends = bound.stage_ends()
    probe = np.full(op.n, bound.m0)
    return [(start, monotone_config(
                op, f, probe, end - start,
                trunc_k=supersolution_ode(bound.c, bound.d, bound.m0, end).trunc_level))
            for start, end in zip([0.0] + ends[:-1], ends)]


# ---------------------------------------------------------------------------
# Picard iteration on the shifted variation-of-constants formula


@dataclass
class PicardResult:
    times: np.ndarray
    states: np.ndarray          # final iterate on the mesh
    distances: List[float]      # successive sup-distances between iterates
    contraction_factor: float   # reported q < 1
    beta: float


def _cumulative_weights(j: int) -> np.ndarray:
    """Newton-Cotes weights (units of the mesh step) for ∫_0^{t_j}."""
    if j == 0:
        return np.zeros(1)
    if j == 1:
        return np.array([0.5, 0.5])
    w = np.zeros(j + 1)
    if j % 2 == 0:
        w[0] = w[j] = 1.0 / 3.0
        w[1:j:2] = 4.0 / 3.0
        w[2:j:2] = 2.0 / 3.0
    else:
        head = _cumulative_weights(j - 3)  # even part
        w[: j - 2] += head
        w[j - 3:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 / 8.0)
    return w


def picard_solve(op: NonlocalOperator, f: Reaction, u0: np.ndarray, tau: float,
                 n_sub: int = 64) -> PicardResult:
    """Fixed-point iteration for the solution on [0, tau].

    Iterates u ↦ e^{(L-βI)t} u0 + ∫_0^t e^{(L-βI)(t-s)} (f(u(s)) + βu(s)) ds
    with the integral by composite Simpson on the stored mesh.  The
    contraction factor q = tau·(Lip(f)+β)·sup‖e^{(L-βI)s}‖ is computed
    and reported; tau must keep it below 1.
    """
    if f.kind != "globally_lipschitz":
        raise ValueError("picard iteration needs a globally Lipschitz reaction")
    if tau <= 0:
        raise ValueError("tau must be positive")
    u0 = np.asarray(u0, dtype=float)
    n = op.n
    lip = f.lip_on(1e6)
    beta = monotone_shift(f, 1e6)
    delta = tau / n_sub
    times = delta * np.arange(n_sub + 1)
    powers = _propagate(op.amat - beta * np.eye(n), np.eye(n), times)
    sup_norm = max(float(np.max(np.sum(np.abs(p), axis=1))) for p in powers)
    q = tau * (lip + beta) * sup_norm
    if q >= 1.0:
        raise ValueError(f"tau too large: contraction factor q = {q:.3g} >= 1")

    cur = np.tile(u0, (n_sub + 1, 1))
    weights = [_cumulative_weights(j) for j in range(n_sub + 1)]
    distances: List[float] = []
    for _ in range(PICARD_ITERS):
        gvals = f.apply(cur) + beta * cur  # g(s_i) rows
        nxt = np.empty_like(cur)
        for j in range(n_sub + 1):
            acc = powers[j] @ u0
            wj = weights[j]
            for i in range(j + 1):
                if wj[i] != 0.0:
                    acc = acc + delta * wj[i] * (powers[j - i] @ gvals[i])
            nxt[j] = acc
        dist = float(np.max(np.abs(nxt - cur)))
        distances.append(dist)
        cur = nxt
        if dist <= 1e-14 * (1.0 + np.max(np.abs(cur))):
            break
        if len(distances) >= 2 and distances[-1] > distances[-2] and dist > 1e-12:
            raise RuntimeError("picard iterate distances stopped decreasing")
    return PicardResult(times=times, states=cur, distances=distances,
                        contraction_factor=q, beta=beta)


# ---------------------------------------------------------------------------
# envelope, energy, blow-up witness


def envelope_U(op_c: NonlocalOperator, d, u0, times) -> np.ndarray:
    """Envelope U(t) = Φ + e^{(K+CI)t} (|u0| - Φ) at the requested times.

    op_c must be the operator with potential -C(x) so amat = K + CI; its
    spectral bound must be negative, which solve_phi certifies and
    otherwise rejects with ValueError.
    """
    from nonlocalrd.equilibria import solve_phi

    phi = solve_phi(op_c.kernel, -op_c.h, d)
    return phi + _propagate(op_c.amat, np.abs(u0) - phi, times)


def lyapunov_E(kernel: Kernel, f: Reaction, u: np.ndarray):
    """Energy decreasing along trajectories of u_t = Ku + f(x, u).

    E(u) = -½ <u, Ku>_w - Σ w_i F(x_i, u_i) with F the s-primitive of f;
    its gradient is -w·(Ku + f(u)), so dE/dt = -∫ |u_t|² along smooth
    trajectories and E is stationary exactly at equilibria.  A (T, n) stack
    of states gives an array of energies, one per row, from one product.
    """
    if not kernel.symmetric:
        raise ValueError("the energy functional needs a symmetric kernel")
    u = np.asarray(u, dtype=float)
    w = kernel.space.weights
    ku = apply_K(kernel, u)
    energy = -0.5 * np.sum(w * u * ku, axis=-1) - np.sum(w * f.primitive(u), axis=-1)
    return float(energy) if u.ndim == 1 else energy


def bernoulli_blowup_time(a: float, rho: float, z0: float) -> Optional[float]:
    """Blow-up time of ż = a z + z^ρ, z(0) = z0 > 0 (None if global).

    Substituting v = z^{1-ρ} linearizes the equation; the level v = 0 is
    reached at t = ln(1 + a z0^{1-ρ}) / (a (ρ-1)) whenever that is a
    positive number.
    """
    if z0 <= 0:
        return None
    if a == 0.0:
        return z0 ** (1.0 - rho) / (rho - 1.0)
    arg = 1.0 + a * z0 ** (1.0 - rho)
    if arg <= 0:
        return None  # the linear decay wins
    t = math.log(arg) / (a * (rho - 1.0))
    return t if t > 0 else None


@dataclass
class KaplanWitness:
    times: np.ndarray
    z: np.ndarray               # eigenfunction-weighted mass of the trajectory
    comparison: np.ndarray      # scalar ODE ż = (Λ - max|h|) z + z^ρ
    dominated: bool             # z >= comparison at stored times (within KAPLAN_TOL)
    lam: float
    eigenfunction: np.ndarray
    blowup_time_estimate: Optional[float]


def kaplan_witness(kernel: Kernel, h, rho: float, trajectory: Trajectory) -> KaplanWitness:
    """Project a trajectory on the principal eigenfunction of K and compare
    with the scalar lower-bound ODE whose blow-up dooms large data.

    The scalar comparison is integrated with the trajectory's own scheme
    and step so the equality case reproduces exactly.
    """
    if not kernel.symmetric:
        raise ValueError("the witness needs a symmetric kernel")
    if trajectory.states.ndim != 2:
        raise ValueError(f"the witness needs one datum, not states of shape {trajectory.states.shape}")
    rep = principal_value(build_operator(kernel, np.zeros(kernel.space.n)), "auto")
    if not rep.is_principal:
        raise ValueError("kernel has no positive principal eigenfunction")
    w = kernel.space.weights
    phi = rep.eigenfunction / float(np.sum(w * rep.eigenfunction))
    zvals = trajectory.states @ (w * phi)

    a = rep.lam - float(np.max(np.abs(h)))
    dt = trajectory.dt

    def rhs(z):
        return a * z + np.sign(z) * np.abs(z) ** rho

    def scalar_step(z):
        if trajectory.scheme == "euler_op":
            return z + dt * rhs(z)
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        return z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    steps = trajectory.metadata.get("steps")
    if steps is None:
        steps = np.arange(len(trajectory.times))
    comp = np.empty(len(zvals))
    z = float(zvals[0])
    comp[0] = z
    pos = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, int(steps[-1]) + 1):
            z = scalar_step(z)
            if pos < len(steps) and m == steps[pos]:
                comp[pos] = z
                pos += 1
    finite = np.isfinite(comp)
    dominated = bool(np.all(zvals[finite] >= comp[finite] - KAPLAN_TOL * (1.0 + np.abs(comp[finite]))))
    return KaplanWitness(times=trajectory.times, z=zvals, comparison=comp,
                         dominated=dominated, lam=rep.lam, eigenfunction=phi,
                         blowup_time_estimate=bernoulli_blowup_time(a, rho, float(zvals[0])))


def fit_growth_constant(op: NonlocalOperator, trajectory: Trajectory) -> float:
    """Smallest M with ‖u(t)‖_∞ <= M e^{(Λ+GROWTH_MARGIN) t} ‖u0‖_∞ on the stored orbit."""
    if trajectory.states.ndim != 2:
        raise ValueError(f"the fit needs one datum, not states of shape {trajectory.states.shape}")
    lam = principal_value(op).lam + GROWTH_MARGIN
    norms = np.max(np.abs(trajectory.states), axis=1)
    base = norms[0]
    if base == 0:
        return 1.0
    return float(np.max(norms / (base * np.exp(lam * trajectory.times))))
