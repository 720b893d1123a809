"""Spectral quantities of L = K - hI.

Computes the spectral bound Λ = sup Re σ(K - hI) by certified ARPACK or
power iteration, both on the kernel's one product Kernel.matvec with no
n×n array, or by dense eigensolve; the Collatz-Wielandt ratio sandwich
(widened by its rounding margin, so it bounds Λ in floating point), the
essential range of -h, the symmetric Rayleigh characterization, the
sign-criteria report, and the potential-shifting experiment on a subdomain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from nonlocalrd.kernel import Kernel, NonlocalOperator, build_operator

POWER_MAX_ITER = 100_000
POWER_RTOL = 1e-12
PRINCIPAL_FLOOR = 1e-12  # eigenvector entries above this (sup-normalized) count as positive
DENSE_CUTOFF = 64  # below this many nodes "auto" runs the dense eigensolver
CERT_RTOL = 1e-9  # widest accepted sandwich around an ARPACK Λ, relative to max(1, |Λ|)


@dataclass
class SpectralReport:
    """Λ of op with the eigenfunction and its certificate when one is positive."""

    lam: float
    eigenfunction: Optional[np.ndarray]
    is_principal: bool
    method: str
    residual: Optional[float]
    certificate: Optional[CwBounds] = None  # sandwich of the eigenfunction when principal


@dataclass
class CwBounds:
    """Collatz-Wielandt ratio bounds: lower <= Λ <= upper for any positive test function."""

    lower: float
    upper: float
    test_function: np.ndarray
    applied: np.ndarray  # Lφ = kφ - hφ, bitwise op.apply(φ): the ratios' numerators


@dataclass
class CriterionCheck:
    name: str
    holds: bool
    predicted_sign: Optional[str]  # "positive" | "negative" | "zero" | None
    value: Optional[float] = None
    note: str = ""


@dataclass
class SignCriteriaReport:
    """Sign predictions for Λ paired with its computed value.

    Contradictions between a prediction and the computed sign are
    surfaced by comparing the fields, never asserted away.
    """

    m: float
    lam: float
    computed_sign: str
    is_principal: bool
    checks: List[CriterionCheck] = field(default_factory=list)
    inverse_gap_harmonic_sum: Optional[float] = None  # diagnostic only


def _sup_normalize(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return v / v[i]


def _power_iteration(product, n: int) -> Tuple[float, np.ndarray, bool]:
    """Spectral radius and Perron vector of an entrywise-nonnegative x ↦ product(x).

    Returns (rho, vector, converged); converged is False on stagnation
    (reducible or defective cases), which callers resolve densely.
    """
    x = np.ones(n) / n
    y = product(x)
    lam = 0.0
    for it in range(POWER_MAX_ITER):
        norm = np.max(np.abs(y))
        if norm == 0.0:
            return 0.0, x, True  # the product annihilates the positive cone: rho = 0
        x_new = y / norm
        y = product(x_new)  # the Rayleigh quotient's, the residual's and the next step's product
        lam_new = float(x_new @ y) / float(x_new @ x_new)
        if it > 0 and abs(lam_new - lam) <= POWER_RTOL * max(1.0, abs(lam_new)):
            if np.max(np.abs(y - lam_new * x_new)) <= 1e-9 * max(1.0, abs(lam_new)):
                return lam_new, x_new, True
        x, lam = x_new, lam_new
    return lam, x, False


def _dense_top(amat: np.ndarray) -> Tuple[float, np.ndarray]:
    vals, vecs = np.linalg.eig(amat)
    idx = int(np.argmax(vals.real))
    lam = float(vals.real[idx])
    v = vecs[:, idx]
    if np.max(np.abs(v.imag)) <= 1e-9 * max(1.0, np.max(np.abs(v.real))):
        v = v.real
    else:  # genuinely complex top vector cannot be a principal eigenfunction
        v = np.abs(v)
    return lam, np.asarray(v, dtype=float)


def _arpack_top(op: NonlocalOperator) -> Optional[Tuple[float, np.ndarray, str]]:
    """Rightmost eigenpair by implicitly restarted Lanczos/Arnoldi on kernel products.

    Lanczos runs on a symmetric kernel's W^½-similar y ↦ √w·K(√w·y) - h·y
    (eigenvector ψ/√w), Arnoldi on op.apply.  Starts from the constant
    vector so that repeated calls are bit identical.  Returns None when
    ARPACK fails or its rightmost value is complex (never the spectral
    bound of a Metzler matrix).
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, eigsh

    shape, v0 = (op.n, op.n), np.ones(op.n)
    try:
        if op.kernel.symmetric:
            sq = np.sqrt(op.space.weights)
            def similar(y):  # a LinearOperator may hand an (n, 1) column: ravel it
                y = np.ravel(y)
                return sq * op.kernel.matvec(sq * y) - op.h * y

            vals, vecs = eigsh(LinearOperator(shape, similar, dtype=float), k=1, which="LA", v0=v0)
            return float(vals[0]), vecs[:, 0] / sq, "lanczos"
        lin = LinearOperator(shape, lambda y: op.apply(np.ravel(y)), dtype=float)
        vals, vecs = eigs(lin, k=1, which="LR", v0=v0)
    except ArpackError:  # includes ArpackNoConvergence
        return None
    if vals[0].imag != 0.0:
        return None
    v = vecs[:, 0]
    return float(vals[0].real), np.real(v / v[np.argmax(np.abs(v))]), "arnoldi"


def _report(op: NonlocalOperator, lam: float, vec: np.ndarray, method: str) -> SpectralReport:
    """Report for a computed eigenpair, certified when the eigenfunction is positive."""
    phi = _sup_normalize(vec)
    is_principal = bool(np.all(phi > PRINCIPAL_FLOOR))
    cert = cw_bounds(op, phi) if is_principal else None  # kφ serves the residual too
    return SpectralReport(
        lam=float(lam),
        eigenfunction=phi if is_principal else None,
        is_principal=is_principal,
        method=method,
        residual=float(np.max(np.abs(cert.applied - lam * phi))) if is_principal else None,
        certificate=cert,
    )


def _certified(rep: SpectralReport) -> bool:
    """Whether an ARPACK answer can stand without the dense check.

    A positive eigenfunction's sandwich must hold Λ within CERT_RTOL;
    without one, only a symmetric (Lanczos) answer is kept, since a
    nonsymmetric Arnoldi value has nothing to certify that it is rightmost.
    """
    cert = rep.certificate
    if cert is None:
        return rep.method == "lanczos"
    width = max(cert.upper, rep.lam) - min(cert.lower, rep.lam)
    return width <= CERT_RTOL * max(1.0, abs(rep.lam))


def principal_value(op: NonlocalOperator, method: str = "auto") -> SpectralReport:
    """Λ = sup Re σ(amat) with an eigenfunction, and its certificate, when one is positive.

    method "auto" keeps a certified ARPACK answer ("lanczos" for symmetric
    kernels, "arnoldi" otherwise) from DENSE_CUTOFF nodes up and otherwise
    uses the full eigensolver ("dense").  The reference methods are
    "dense" and "power", which shifts by s = max(h) + 1 so that x ↦ Lx + sx
    is entrywise nonnegative and iterates it.
    """
    if method not in ("dense", "power", "auto"):
        raise ValueError(f"unknown method {method!r}")
    if method == "power":
        shift = float(np.max(op.h)) + 1.0
        rho, v, converged = _power_iteration(lambda x: op.apply(x) + shift * x, op.n)
        if not converged:
            raise RuntimeError("power iteration did not converge; use dense")
        return _report(op, rho - shift, v, "power")
    if method == "auto" and op.n >= DENSE_CUTOFF:
        top = _arpack_top(op)
        if top is not None:
            rep = _report(op, *top)
            if _certified(rep):
                return rep
    return _report(op, *_dense_top(op.amat), "dense")


def cw_bounds(op: NonlocalOperator, phi: np.ndarray) -> CwBounds:
    """Rigorous lower <= Λ <= upper from a positive test function φ.

    For Metzler L, min_i (Lφ)_i/φ_i <= Λ <= max_i (Lφ)_i/φ_i (Collatz-
    Wielandt; Berman & Plemmons, ch. 2 and 6).  The ratios sum op.apply's
    terms kφ = jmat @ (w·φ) >= 0 and hφ = h·φ; with the roundings of w·φ,
    hφ, the n-term sum, the difference and the division they err by under
    γ_{n+3}·mag/φ, mag = kφ + |hφ| (Higham, §3.1; γ_k = kε/(1 - kε), ε =
    eps/2), where |amat|φ would miss the cancellation of w_i·J_ii·φ_i and
    h_i·φ_i.  The widening 2(n+2)·eps·mag/φ ≈ 4γ_{n+2}·mag/φ leaves slack
    for its own rounding and one rounding of h by the caller (_certifies).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (op.n,):
        raise ValueError("test function length mismatch")
    if not np.all((phi > 0) & (phi < np.inf)):
        raise ValueError("test function must be finite and strictly positive")
    kphi = op.kernel.matvec(op.space.weights * phi)
    hphi = op.h * phi
    lphi = kphi - hphi
    ratios = lphi / phi
    margin = 2 * (op.n + 2) * np.finfo(float).eps * (kphi + np.abs(hphi)) / phi
    return CwBounds(float(np.min(ratios - margin)), float(np.max(ratios + margin)), phi, lphi)


def essential_range(h, weights, tol: float = 1e-12) -> List[Tuple[float, float]]:
    """Clustered values of -h with their aggregate measures.

    At the discrete level the essential range of -h is this finite set;
    values within tol of each other merge into one cluster reported at
    their weighted mean.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    vals = -np.asarray(h, dtype=float)
    order = np.argsort(vals)
    vals, w = vals[order], np.asarray(weights, dtype=float)[order]
    # a new cluster starts wherever the gap to the previous value is not <= tol
    bounds = np.concatenate(([0], np.flatnonzero(~(np.diff(vals) <= tol)) + 1, [vals.size]))
    mass = np.add.reduceat(w, bounds[:-1])
    mean = vals[bounds[:-1]] * mass / mass  # a singleton's (v·w)/w
    for k in np.flatnonzero(np.diff(bounds) > 1):
        part = slice(bounds[k], bounds[k + 1])
        mass[k] = np.sum(w[part])
        mean[k] = np.dot(vals[part], w[part]) / mass[k]
    return list(zip(mean.tolist(), mass.tolist()))


def rayleigh_lambda(kernel: Kernel, h) -> SpectralReport:
    """Λ for symmetric kernels via the weight-symmetrized eigenproblem.

    diag(w)^{1/2} (jmat diag(w) - diag(h)) diag(w)^{-1/2} is symmetric,
    so its top eigenvalue is the max of the energy form over unit
    L²(weights) norm.
    """
    if not kernel.symmetric:
        raise ValueError("rayleigh characterization requires a symmetric kernel")
    op = build_operator(kernel, h)
    sq = np.sqrt(kernel.space.weights)
    smat = kernel.jmat * sq[:, None]
    smat *= sq
    smat.flat[:: op.n + 1] -= op.h  # eigh reads one triangle: S needs no averaging
    vals, vecs = np.linalg.eigh(smat)
    return _report(op, float(vals[-1]), vecs[:, -1] / sq, "rayleigh")


def spectral_energy(kernel: Kernel, h, phi: np.ndarray) -> float:
    """Energy form E(φ) = -½ ΣΣ w_i w_j J_ij (φ_j-φ_i)² - Σ w_i (h_i-h0_i) φ_i².

    For symmetric kernels and unit L²(weights) norm this is bounded above
    by Λ, with equality at the principal eigenfunction.
    """
    if not kernel.symmetric:
        raise ValueError("energy form requires a symmetric kernel")
    space = kernel.space
    w = space.weights
    phi = np.asarray(phi, dtype=float)
    h = np.asarray(h, dtype=float)
    diff = phi[None, :] - phi[:, None]
    quad = -0.5 * float(np.sum(w[:, None] * w[None, :] * kernel.jmat * diff * diff))
    return quad - float(np.sum(w * (h - kernel.h0) * phi * phi))


def sign_criteria(op: NonlocalOperator) -> SignCriteriaReport:
    """Evaluate the sign criteria for Λ and pair each with the computed sign.

    The discrete set {h = min h} always carries mass, so that criterion
    is reported with its mass for the user to judge the continuum
    analogue; the 1/(h-m) non-integrability criterion has no faithful
    finite test and is emitted as a harmonic-sum diagnostic only.
    """
    h = op.h
    w = op.space.weights
    h0 = op.h0
    m = float(np.min(h))
    rep = principal_value(op, method="auto")
    lam = rep.lam
    if abs(lam) <= 1e-12:
        computed = "zero"
    else:
        computed = "positive" if lam > 0 else "negative"
    checks: List[CriterionCheck] = []

    checks.append(CriterionCheck(
        name="m_negative", holds=m < 0,
        predicted_sign="positive" if m < 0 else None, value=m,
        note="min(h) < 0 forces a positive spectral bound"))

    mass = float(np.sum(w[np.abs(h - m) <= 1e-12]))
    checks.append(CriterionCheck(
        name="mass_at_min", holds=mass > 0,
        predicted_sign="positive" if (mass > 0 and abs(m) <= 1e-12) else None, value=mass,
        note="positive mass at the minimum makes Λ principal (Λ > -m); "
             "sign prediction only when min(h) = 0"))

    osc = float(np.max(h) - np.min(h))
    osc_holds = osc < float(np.min(h0))
    checks.append(CriterionCheck(
        name="oscillation", holds=osc_holds,
        predicted_sign="positive" if (osc_holds and m <= 1e-12) else None, value=osc,
        note="osc(h) < inf h0 makes Λ principal; sign prediction when min(h) <= 0"))

    delta = float(np.min(h0 - h))
    checks.append(CriterionCheck(
        name="h_plus_delta_below_h0", holds=delta > 0,
        predicted_sign="positive" if delta > 0 else None, value=delta,
        note="largest delta with h + delta <= h0"))

    equal = bool(np.max(np.abs(h - h0)) <= 1e-12 * max(1.0, float(np.max(np.abs(h0)))))
    checks.append(CriterionCheck(
        name="h_equals_h0", holds=equal,
        predicted_sign="zero" if equal else None,
        note="threshold potential: Λ = 0 with constant eigenfunction"))

    above = bool(np.all(h0 <= h + 1e-12)) and bool(np.any(h - h0 > 1e-12))
    checks.append(CriterionCheck(
        name="h0_strictly_below_h", holds=above,
        predicted_sign="negative" if above else None,
        note="h0 below h with strict inequality somewhere"))

    mean_holds = bool(op.kernel.symmetric) and float(np.sum(w * h)) < float(np.sum(w * h0))
    checks.append(CriterionCheck(
        name="symmetric_mean", holds=mean_holds,
        predicted_sign="positive" if mean_holds else None,
        value=float(np.sum(w * (h0 - h))),
        note="mean of h below mean of h0 (symmetric kernels only)"))

    harmonic = float(np.sum(w / (h - m + 1e-8)))
    return SignCriteriaReport(
        m=m, lam=lam, computed_sign=computed, is_principal=rep.is_principal,
        checks=checks, inverse_gap_harmonic_sum=harmonic)


def shifted_potential(h, mask, a: float) -> np.ndarray:
    """Lower h by a on the masked subdomain: H = h - a·χ_mask.

    h and the result are coefficients of the +HI term in K + HI; to
    evaluate the spectral bound of that operator, hand -H to
    build_operator (whose convention is K - hI).
    """
    h = np.asarray(h, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != h.shape:
        raise ValueError("mask length mismatch")
    if not np.any(mask):
        raise ValueError("mask must be nonempty")
    if a <= 0:
        raise ValueError("shift amount must be positive")
    out = h.copy()
    out[mask] -= a
    return out


def restrict_operator(op: NonlocalOperator, mask) -> NonlocalOperator:
    """Operator kept on a node subset: rows, columns, weights and h of the part."""
    mask = np.asarray(mask, dtype=bool)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise ValueError("empty restriction")
    sub_kernel = Kernel(space=op.space.restrict(idx), jmat=op.kernel.jmat[np.ix_(idx, idx)])
    return build_operator(sub_kernel, op.h[idx])


def shift_bound_rhs(kernel: Kernel, h, mask, a: float) -> float:
    """Upper bound max(h0) + Λ(h, Ω') + Λ(h, ω') - a for the shifted potential.

    Ω' is the complement of the masked part ω'; each restricted operator
    keeps only its part's rows, columns and weights.  As in
    shifted_potential, h is the coefficient of +hI, so the restricted
    spectral bounds are those of K_part + h I.
    """
    h = np.asarray(h, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if not np.any(mask) or np.all(mask):
        raise ValueError("mask must split the domain into two nonempty parts")
    op = build_operator(kernel, -h)
    lam_omega = principal_value(restrict_operator(op, mask)).lam
    lam_comp = principal_value(restrict_operator(op, ~mask)).lam
    return float(np.max(op.h0)) + lam_comp + lam_omega - float(a)
