"""Nonlocal operator assembly.

The integral operator Ku(x) = ∫ J(x,y) u(y) dy becomes the dense matrix
jmat @ diag(weights) acting on raw node values, and the full linear part
L = K - hI becomes amat = jmat @ diag(weights) - diag(h).  Measure
weights are folded in once here so everything downstream is plain matrix
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from nonlocalrd.space import MeasureSpace, _max_asymmetry

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Kernel:
    """Dense realization of a nonnegative kernel J on a measure space.

    positivity_cert, when present, is a pair (R, J0) with J0 > 0 such
    that d(x_i, x_j) < R implies jmat[i, j] > J0; it is what the strong
    maximum principle machinery needs.
    """

    space: MeasureSpace
    jmat: np.ndarray
    positivity_cert: Optional[Tuple[float, float]] = None
    symmetric: bool = field(init=False)  # found by inspection of jmat

    def __post_init__(self):
        j = np.asarray(self.jmat, dtype=float)
        object.__setattr__(self, "jmat", j)
        n = self.space.n
        if j.shape != (n, n):
            raise ValueError("kernel matrix shape mismatch")
        # NaN or ±inf makes lo or hi non-finite; only then locate the entry
        lo, hi = j.min(), j.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            i, k = np.argwhere(~np.isfinite(j))[0]
            raise ValueError(f"kernel entry ({i},{k}) is {j[i, k]}, not finite")
        if lo < 0:
            i, k = np.argwhere(j < 0)[0]
            raise ValueError(f"kernel entry ({i},{k}) is negative")
        sym = bool(_max_asymmetry(j) <= SYMMETRY_TOL * max(1.0, hi))
        object.__setattr__(self, "symmetric", sym)
        if self.positivity_cert is not None:
            r, j0 = self.positivity_cert
            if j0 <= 0:
                raise ValueError("positivity certificate needs J0 > 0")
            if np.any((self.space.dist < r) & (j <= j0)):
                raise ValueError("positivity certificate fails entrywise")


@dataclass(frozen=True)
class NonlocalOperator:
    """Matrix realization of L = K - hI with its ingredients kept around."""

    kernel: Kernel
    h: np.ndarray
    amat: np.ndarray
    h0: np.ndarray

    @property
    def space(self) -> MeasureSpace:
        return self.kernel.space

    @property
    def n(self) -> int:
        return self.kernel.space.n


def assemble_kernel(space: MeasureSpace, law: str, **params) -> Kernel:
    """Build the kernel matrix from a law applied to pairwise distances.

    Laws: constant(c), tophat(R, J0) meaning J = J0 for d < R else 0,
    gaussian(sigma, scale), table(jmat) with an explicit matrix.
    """
    d = space.dist
    if law == "constant":
        c = float(params["c"])
        if c < 0:
            raise ValueError("constant law needs c >= 0")
        jmat = np.full_like(d, c)
        cert = None
        if c > 0:
            # any radius certifies a constant kernel; pick one covering the space
            cert = (2.0 * max(space.diameter(), 1.0), c / 2.0)
        return Kernel(space=space, jmat=jmat, positivity_cert=cert)
    if law == "tophat":
        r = float(params["R"])
        j0 = float(params["J0"])
        if r <= 0 or j0 <= 0:
            raise ValueError("tophat law needs R > 0 and J0 > 0")
        jmat = np.where(d < r, j0, 0.0)
        return Kernel(space=space, jmat=jmat, positivity_cert=(r, j0 / 2.0))
    if law == "gaussian":
        sigma = float(params["sigma"])
        scale = float(params.get("scale", 1.0))
        if sigma <= 0 or scale <= 0:
            raise ValueError("gaussian law needs sigma > 0 and scale > 0")
        jmat = d / sigma  # then scale * exp(-0.5 * (d / sigma) ** 2) in the same buffer
        np.exp(np.multiply(np.square(jmat, out=jmat), -0.5, out=jmat), out=jmat)
        jmat *= scale
        return Kernel(space=space, jmat=jmat)
    if law == "table":
        return Kernel(space=space, jmat=params["jmat"])
    raise ValueError(f"unknown kernel law {law!r}")


def apply_K(kernel: Kernel, u: np.ndarray) -> np.ndarray:
    """Quadrature evaluation of Ku: result[i] = sum_j J_ij w_j u_j."""
    u = np.asarray(u, dtype=float)
    if u.shape != (kernel.space.n,):
        raise ValueError("state vector length mismatch")
    return kernel.jmat @ (kernel.space.weights * u)


def compute_h0(kernel: Kernel) -> np.ndarray:
    """Total outflow rate h0(x) = ∫ J(x,y) dy at each node."""
    return kernel.jmat @ kernel.space.weights


def build_operator(kernel: Kernel, h) -> NonlocalOperator:
    n = kernel.space.n
    h = np.asarray(h, dtype=float)
    if h.shape == ():
        h = np.full(n, float(h))
    if h.shape != (n,):
        raise ValueError("potential length mismatch")
    if not np.all(np.isfinite(h)):
        raise ValueError("potential must be finite")
    amat = kernel.jmat * kernel.space.weights[None, :]
    amat.flat[:: n + 1] -= h
    h0 = compute_h0(kernel)
    # consistency of the assembled matrix: L applied to constants
    ones = np.ones(n)
    if np.max(np.abs(amat @ ones - (h0 - h))) > 1e-10 * max(1.0, float(np.max(np.abs(h0))) + float(np.max(np.abs(h)))):
        raise AssertionError("operator assembly inconsistent with h0 - h")
    return NonlocalOperator(kernel=kernel, h=h, amat=amat, h0=h0)
