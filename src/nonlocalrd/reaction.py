"""Reaction terms f(x, s) with their structure metadata.

One layout rule: a reaction writes f once, as apply and apply_ds (∂f/∂s)
on arrays whose last axis runs over the n nodes — a state, a (k, n) batch
or a (G, n) grid of s-values.  Reaction derives the (n, k)-grid forms
eval_grid and eval_ds_grid; only CallableReaction, whose fun and dfun
take (n, k) grids, converts the other way.  Also here: sampled Lipschitz
constants, truncation by clamping, and the structure bounds
f(x,s)s <= C(x)s² + D(x)|s| behind the envelope machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

FD_STEP = 1e-6
LIP_GRID = 512
SIGN_GRID_LIMIT = 1e6
GRID_BLOCK = 2 ** 16  # entries per row block of a sampled (G, n) grid


def _log_grid(lo: float, hi: float) -> np.ndarray:
    """Symmetric logarithmic s-grid covering [-hi, hi] plus 0, dense near 0."""
    decades = np.log10(hi / lo)
    pos = np.logspace(np.log10(lo), np.log10(hi), int(decades * 12) + 2)  # 12 per decade
    return np.concatenate([-pos[::-1], [0.0], pos])


def _node_grid(svals: np.ndarray, n_nodes: int) -> np.ndarray:
    """The (G, n) grid holding svals[g] at every node of row g."""
    return np.broadcast_to(svals[:, None], (svals.size, n_nodes))


def _block_reduce(svals: np.ndarray, n_nodes: int, reduce: Callable) -> np.ndarray:
    """reduce(block) of each row block (<= GRID_BLOCK entries, >= 1 row) of the
    node grid, stacked; min and max of that are exactly the whole grid's."""
    rows = max(1, GRID_BLOCK // max(n_nodes, 1))
    return np.array([reduce(_node_grid(svals[i:i + rows], n_nodes))
                     for i in range(0, svals.size, rows)])


class Reaction:
    """Base reaction: subclasses implement apply and apply_ds.

    apply(u)[..., i] = f(x_i, u[..., i]) on any array whose last axis runs
    over the nodes; apply_ds is ∂f/∂s alike.  eval_grid and eval_ds_grid
    give the same values on an (n, k) matrix of s-values.
    """

    kind = "custom"

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Nemitcky lift: F(u)[i] = f(x_i, u_i), and row by row on a (k, n) batch."""
        raise NotImplementedError

    def apply_ds(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def ds_sup(self, lo: np.ndarray, hi: np.ndarray) -> Optional[np.ndarray]:
        """Per-node supremum of ∂f/∂s(x_i, s) over lo_i <= s <= hi_i, rounded
        up; None (the default) when the reaction has no exact one."""
        return None

    def ds_inf(self, k: float) -> Optional[np.ndarray]:
        """Per-node infimum of ∂f/∂s(x_i, s) over -k <= s <= k; None (the
        default) when the reaction has no closed form and is sampled."""
        return None

    def eval_grid(self, smat: np.ndarray) -> np.ndarray:
        """f(x_i, s[i, j]) on an (n, k) matrix of s-values."""
        return self.apply(np.asarray(smat, dtype=float).T).T

    def eval_ds_grid(self, smat: np.ndarray) -> np.ndarray:
        return self.apply_ds(np.asarray(smat, dtype=float).T).T

    def at(self, i: int, s: float) -> float:
        return float(self.apply(np.full(self.n_nodes, float(s)))[i])

    @property
    def g0(self) -> np.ndarray:
        return self.apply(np.zeros(self.n_nodes))

    def lip_on(self, k: float) -> float:
        """Sampled Lipschitz constant on [-k, k] (sup of |∂f/∂s| on a grid)."""
        return float(np.max(_block_reduce(np.linspace(-k, k, LIP_GRID), self.n_nodes,
                                          lambda s: np.max(np.abs(self.apply_ds(s))))))

    def primitive(self, u: np.ndarray) -> np.ndarray:
        """F(x_i, u_i) = ∫_0^{u_i} f(x_i, r) dr by refining composite Simpson, row by row."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 2:
            return np.array([self.primitive(row) for row in u]).reshape(u.shape)
        prev = None
        for npan in (8, 16, 32, 64, 128, 256, 512, 1024):
            t = np.linspace(0.0, 1.0, 2 * npan + 1)
            smat = u[:, None] * t[None, :]
            fv = self.eval_grid(smat)
            wts = np.ones(2 * npan + 1)
            wts[1:-1:2] = 4.0
            wts[2:-1:2] = 2.0
            est = (u / (6.0 * npan)) * (fv @ wts)
            if prev is not None and np.max(np.abs(est - prev)) <= 1e-10 * (1.0 + np.max(np.abs(est))):
                return est
            prev = est
        return prev


class CallableReaction(Reaction):
    """Reaction from plain vectorized callables, x-independent by default.

    fun and dfun map an (n, k) matrix of s-values, node i's in row i, to f
    and ∂f/∂s there; without dfun, ∂f/∂s is a centered finite difference.
    """

    def __init__(self, fun: Callable, dfun: Optional[Callable] = None,
                 n_nodes: int = 1, kind: str = "custom", lip: Optional[float] = None):
        super().__init__(n_nodes)
        self.fun = fun
        self.dfun = dfun
        self.kind = kind
        self.lip = lip  # known global Lipschitz constant, beats grid sampling

    def eval_grid(self, smat):
        return self.fun(np.asarray(smat, dtype=float))

    def eval_ds_grid(self, smat):
        smat = np.asarray(smat, dtype=float)
        if self.dfun is not None:
            return self.dfun(smat)
        step = FD_STEP * (1.0 + np.abs(smat))
        return (self.fun(smat + step) - self.fun(smat - step)) / (2 * step)

    def apply(self, u):
        u = np.asarray(u, dtype=float)
        return self.eval_grid(np.atleast_2d(u).T).T.reshape(u.shape)

    def apply_ds(self, u):
        u = np.asarray(u, dtype=float)
        return self.eval_ds_grid(np.atleast_2d(u).T).T.reshape(u.shape)

    def lip_on(self, k: float) -> float:
        if self.lip is not None:
            return float(self.lip)
        return super().lip_on(k)


class LogisticReaction(Reaction):
    """f(x, s) = g(x) + n(x) s - m(x) |s|^{ρ-1} s with per-node coefficients,
    or (G, 1, n) stacks of G systems' coefficients for a (G, k, n) stack of states."""

    kind = "logistic"

    def __init__(self, g, n, m, rho: float, n_nodes: Optional[int] = None):
        size = n_nodes
        coefs = [np.asarray(c, dtype=float) for c in (g, n, m)]
        for arr in coefs:
            if arr.ndim == 1:
                size = arr.shape[0] if size is None else size
        if size is None:
            raise ValueError("give n_nodes or at least one per-node coefficient vector")
        super().__init__(size)
        self.g, self.ncoef, self.m = (np.broadcast_to(c, c.shape[:-1] + (size,)).copy()
                                      for c in coefs)
        if np.any(self.m < 0):
            raise ValueError("damping coefficient m must be nonnegative")
        if not rho > 1:  # NaN too
            raise ValueError("exponent rho must exceed 1")
        self.rho = float(rho)

    def apply(self, u):
        s = np.asarray(u, dtype=float)
        return self.g + self.ncoef * s - self.m * np.abs(s) ** (self.rho - 1) * s

    def apply_ds(self, u):
        s = np.asarray(u, dtype=float)
        return self.ncoef - self.rho * self.m * np.abs(s) ** (self.rho - 1)

    def ds_sup(self, lo, hi):
        # n - ρm|s|^{ρ-1} peaks at the least |s| of [lo, hi]; its at most four
        # roundings (pow within an ulp) stay below the 4 eps of its terms added
        least = np.where((lo <= 0) & (hi >= 0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
        drop = self.rho * self.m * least ** (self.rho - 1)
        return self.ncoef - drop + 4 * np.finfo(float).eps * (np.abs(self.ncoef) + drop)

    def ds_inf(self, k):
        # n - ρm|s|^{ρ-1} falls with |s| (m >= 0): its least value is at ±k
        return self.apply_ds(np.full(self.n_nodes, float(k)))

    def lip_on(self, k: float) -> float:
        # |∂f/∂s| = |n - ρ m |s|^{ρ-1}| is monotone in |s|: extremes at 0 and k
        end = np.abs(self.ncoef - self.rho * self.m * k ** (self.rho - 1))
        return float(max(np.max(np.abs(self.ncoef)), np.max(end)))

    def primitive(self, u):
        s = np.asarray(u, dtype=float)
        return self.g * s + 0.5 * self.ncoef * s * s - self.m * np.abs(s) ** (self.rho + 1) / (self.rho + 1)


class TruncatedReaction(Reaction):
    """f_k(x, s) = f(x, clamp(s, -k, k)): agrees with f on |s| <= k and is
    globally Lipschitz with the window's constant."""

    kind = "globally_lipschitz"

    def __init__(self, base: Reaction, k: float):
        super().__init__(base.n_nodes)
        self.base = base
        self.k = float(k)

    def _clamp(self, s):
        # np.clip's semantics (NaN passes through) at a fraction of its call cost
        return np.minimum(np.maximum(s, -self.k), self.k)

    def apply(self, u):
        return self.base.apply(self._clamp(np.asarray(u, dtype=float)))

    def apply_ds(self, u):
        s = np.asarray(u, dtype=float)
        return np.where(np.abs(s) <= self.k, self.base.apply_ds(self._clamp(s)), 0.0)

    def lip_on(self, k: float) -> float:
        return self.base.lip_on(min(k, self.k))

    def ds_inf(self, k):
        # inside the window f_k is f; past it the sampled grid need not hold
        # the edge ±self.k, so sampling keeps its value there
        return self.base.ds_inf(k) if k <= self.k else None

    def primitive(self, u):
        u = np.asarray(u, dtype=float)
        inner = self.base.primitive(self._clamp(u))
        # outside the window the integrand is frozen at the edge value
        edge = np.where(u >= 0, self.k, -self.k)
        excess = np.where(np.abs(u) > self.k, (u - edge) * self.base.apply(edge), 0.0)
        return inner + excess


class ShiftedReaction(Reaction):
    """f(x, s) + bump(x): ordered pair generator for comparison experiments."""

    def __init__(self, base: Reaction, bump):
        super().__init__(base.n_nodes)
        self.base = base
        self.bump = np.broadcast_to(np.asarray(bump, dtype=float), (base.n_nodes,)).copy()
        self.kind = base.kind

    def apply(self, u):
        return self.base.apply(u) + self.bump

    def apply_ds(self, u):
        return self.base.apply_ds(u)

    def ds_inf(self, k):
        return self.base.ds_inf(k)

    def lip_on(self, k):
        return self.base.lip_on(k)

    def primitive(self, u):
        return self.base.primitive(u) + self.bump * np.asarray(u, dtype=float)


class PotentialAbsorbedReaction(Reaction):
    """f(x, s) - h(x) s: folds the potential into the reaction, which is the
    h = 0 normal form the asymptotic machinery works in."""

    def __init__(self, base: Reaction, h):
        super().__init__(base.n_nodes)
        self.base = base
        self.h = np.broadcast_to(np.asarray(h, dtype=float), (base.n_nodes,)).copy()
        self.kind = base.kind

    def apply(self, u):
        s = np.asarray(u, dtype=float)
        return self.base.apply(s) - self.h * s

    def apply_ds(self, u):
        return self.base.apply_ds(u) - self.h

    def ds_inf(self, k):
        inner = self.base.ds_inf(k)
        return None if inner is None else inner - self.h

    def lip_on(self, k):
        return self.base.lip_on(k) + float(np.max(np.abs(self.h)))

    def primitive(self, u):
        u = np.asarray(u, dtype=float)
        return self.base.primitive(u) - 0.5 * self.h * u * u


def truncate(f: Reaction, k: float) -> TruncatedReaction:
    if k <= 0:
        raise ValueError("truncation level must be positive")
    return TruncatedReaction(f, k)


def absorb_potential(f: Reaction, h) -> Reaction:
    """f(x,s) - h(x)s; stays in the logistic family when f does."""
    if isinstance(f, LogisticReaction):
        return LogisticReaction(f.g, f.ncoef - np.asarray(h, dtype=float), f.m, f.rho,
                                n_nodes=f.n_nodes)
    return PotentialAbsorbedReaction(f, h)


def add_bump(f: Reaction, bump) -> Reaction:
    """f(x,s) + bump(x) with bump >= 0; the ordered-pair generator."""
    bump = np.asarray(bump, dtype=float)
    if np.any(bump < 0):
        raise ValueError("bump must be nonnegative to preserve ordering")
    if isinstance(f, LogisticReaction):
        return LogisticReaction(f.g + bump, f.ncoef, f.m, f.rho, n_nodes=f.n_nodes)
    return ShiftedReaction(f, bump)


def monotone_shift(f: Reaction, k: float) -> float:
    """Shift β making s ↦ f(x,s) + βs increasing on [-k, k].

    Any upper bound works; cheapness beats sharpness.  The infimum of the
    derivative is f.ds_inf's closed form when the reaction has one, else it
    is sampled on a 512-point grid (linear plus a log-spaced refinement
    near 0); it is padded by 1, and a non-finite infimum raises.
    """
    exact = f.ds_inf(k)
    if exact is not None:
        dmin = float(np.min(exact))
    else:
        lin = np.linspace(-k, k, LIP_GRID)
        # 10**log10(k) can exceed k by an ulp: clamp to stay in [-k, k]
        logp = np.minimum(np.logspace(-8, np.log10(max(k, 1e-8)), LIP_GRID // 4), k)
        svals = np.unique(np.concatenate([lin, logp, -logp]))
        dmin = float(np.min(_block_reduce(svals, f.n_nodes, lambda s: np.min(f.apply_ds(s)))))
    if not np.isfinite(dmin):
        raise ValueError(f"monotone shift: derivative minimum {dmin} on [-{k:g}, {k:g}]")
    return max(0.0, -dmin) + 1.0


@dataclass(frozen=True)
class StructureBounds:
    """Coefficients with f(x,s)s <= c(x)s² + d(x)|s| on the sampled grid."""

    c: np.ndarray
    d: np.ndarray
    strategy: str


def young_constant(eps: float, rho: float) -> float:
    """Smallest C with a·t <= eps·t^ρ + C·a^{ρ'} for all a, t >= 0."""
    rho_p = rho / (rho - 1.0)
    return (eps * rho) ** (-rho_p / rho) / rho_p


def structure_bounds(f: Reaction, strategy: str = "plain", a: float = 0.0,
                     mask=None) -> StructureBounds:
    """Extract (C, D) with f(x,s)s <= C(x)s² + D(x)|s|.

    plain: logistic takes C = n, D = |g|; globally Lipschitz reactions
    take C = Lipschitz constant, D = |f(·,0)|.
    partitioned(a, mask): logistic, plain outside the mask; inside it,
    where m >= m0 > 0, trades C = n - a against D = |g| + C_eps a^{ρ'}
    via Young's inequality with eps = m0/2.
    young_shift(a): partitioned(a) over the whole domain.
    """
    n_nodes = f.n_nodes
    if strategy == "plain":
        if isinstance(f, LogisticReaction):
            c, d = f.ncoef.copy(), np.abs(f.g)
        elif isinstance(f, TruncatedReaction):
            # frozen tails force c >= 0; the window sup of |f| covers them
            c, d = np.max(_block_reduce(np.linspace(-f.k, f.k, LIP_GRID), n_nodes, lambda s: (
                np.max(f.apply_ds(s), axis=0), np.max(np.abs(f.apply(s)), axis=0))), axis=0)
            c = np.maximum(c, 0.0)
        else:
            # mean value theorem: f(s)s <= |f(·,0)||s| + (sup ∂f/∂s) s²
            c = np.max(_block_reduce(_log_grid(1e-6, SIGN_GRID_LIMIT), n_nodes,
                                     lambda s: np.max(f.apply_ds(s), axis=0)), axis=0)
            d = np.abs(f.g0)
        sb = StructureBounds(c=c, d=d, strategy="plain")
    elif strategy in ("young_shift", "partitioned"):
        if not isinstance(f, LogisticReaction):
            raise ValueError(f"{strategy} bounds need a logistic reaction")
        if strategy == "young_shift":
            mask = np.ones(n_nodes, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n_nodes,) or not np.any(mask):
            raise ValueError("partitioned bounds need a nonempty mask")
        if a <= 0:
            raise ValueError(f"{strategy} bounds need a positive shift")
        m0 = float(np.min(f.m[mask]))
        if m0 <= 0:
            raise ValueError(f"{strategy} bounds need m bounded below by m0 > 0 "
                             "on the shifted part")
        ce = young_constant(m0 / 2.0, f.rho)
        c = f.ncoef.copy()
        c[mask] -= a
        d = np.abs(f.g) + np.where(mask, ce * a ** (f.rho / (f.rho - 1.0)), 0.0)
        sb = StructureBounds(c=c, d=d, strategy=f"{strategy}(A={a})")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not check_sign_condition(f, sb.c, sb.d, _log_grid(1e-6, SIGN_GRID_LIMIT)):
        raise ValueError("structure inequality fails on the sampled grid (wrong constants)")
    return sb


def check_sign_condition(f: Reaction, c, d, s_grid) -> bool:
    """True iff f(x_i, s) s <= c(x_i) s² + d(x_i) |s| on the grid (relative
    tol 1e-9); c and d are scalars or per-node vectors.  A logistic f(x_i, ·)
    depends on i only through (g, n, m)_i, so its check runs once per
    distinct column (g, n, m, c, d)_i: the same values, max and answer."""
    c, d = np.asarray(c, dtype=float), np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("d must be nonnegative")
    if isinstance(f, LogisticReaction) and f.g.ndim == 1:
        cols = np.stack(np.broadcast_arrays(f.g, f.ncoef, f.m, c, d))
        _, keep = np.unique(cols, axis=1, return_index=True)
        g, n, m, c, d = cols[:, keep]
        f = LogisticReaction(g, n, m, f.rho)

    def extremes(s):  # max of lhs - rhs and of |rhs| on a block
        rhs = c * s * s + d * np.abs(s)
        return np.max(f.apply(s) * s - rhs), np.max(np.abs(rhs))

    top, scale = np.max(_block_reduce(np.asarray(s_grid, dtype=float), f.n_nodes, extremes), axis=0)
    return bool(top <= 1e-9 * (1.0 + scale))


def f_over_s_decreasing(f: Reaction, s_grid) -> bool:
    """True iff f(x_i, s)/s is strictly decreasing along the positive grid."""
    grid = np.asarray(s_grid, dtype=float)
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly positive and increasing")
    smat = _node_grid(grid, f.n_nodes)
    ratios = f.apply(smat) / smat
    return bool(np.all(np.diff(ratios, axis=0) < -1e-12))


@dataclass
class GrowthReport:
    beta: np.ndarray            # per-node sup of ∂f/∂s on the grid
    growth_constant: float      # smallest C with |∂f/∂s| <= C(1+|s|^{ρ-1}) on the grid
    violation: bool
    note: str = ""


def growth_hypotheses_check(f: Reaction, rho: float, s_grid) -> GrowthReport:
    """Fit the derivative bounds ∂f/∂s <= β(x) and |∂f/∂s| <= C(1+|s|^{ρ-1}).

    A violation is flagged when the derivative is non-finite on the grid
    or the fitted constant keeps growing with the window (the tail is
    not of polynomial order ρ-1).
    """
    if rho <= 1:
        raise ValueError("rho must exceed 1")
    grid = np.asarray(s_grid, dtype=float)
    dfv = f.apply_ds(_node_grid(grid, f.n_nodes))
    if not np.all(np.isfinite(dfv)):
        return GrowthReport(beta=np.full(f.n_nodes, np.inf), growth_constant=np.inf,
                            violation=True, note="derivative overflows on the grid")
    beta = np.max(dfv, axis=0)
    envelope = 1.0 + np.abs(grid) ** (rho - 1.0)
    ratios = np.abs(dfv) / envelope[:, None]
    c_full = float(np.max(ratios))
    smax = float(np.max(np.abs(grid)))
    inner = np.abs(grid) <= smax / 2.0
    c_inner = float(np.max(ratios[inner])) if np.any(inner) else c_full
    violation = c_full > 10.0 * max(c_inner, 1e-300)
    note = "fitted constant grows with the window" if violation else ""
    return GrowthReport(beta=beta, growth_constant=c_full, violation=violation, note=note)
