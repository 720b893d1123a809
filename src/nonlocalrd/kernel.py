"""Nonlocal operator assembly.

The integral operator Ku(x) = ∫ J(x,y) u(y) dy becomes the dense matrix
jmat @ diag(weights) acting on raw node values, and the full linear part
L = K - hI becomes amat = jmat @ diag(weights) - diag(h).  An operator
stores one n×n array, jmat, with the weights and h: apply is the matvec
L v = jmat @ (w·v) - h·v, and a consumer that needs the matrix reads
amat, assembled fresh on each read, once per call.  Kernel laws and the
positivity certificate read the distances in the space's row blocks.

Kernel.matvec is the one product x ↦ jmat @ x of h0, the steppers, apply and apply_K;
a symmetric kernel's vector reads one triangle through dsymv.  It, and evolve's steppers and
exponentials, run on scipy's BLAS: numpy's own OpenBLAS pool, left spinning, slows it ~10×.
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

    symmetric means exactly symmetric.  A matrix within SYMMETRY_TOL of
    its transpose but not equal to it is stored as np.minimum(jmat,
    jmat.T), as MeasureSpace stores its distances, before the
    certificate is checked; jmat is stored C-ordered.
    """

    space: MeasureSpace
    jmat: np.ndarray
    positivity_cert: Optional[Tuple[float, float]] = None
    symmetric: bool = field(init=False)  # found by inspection of jmat
    h0: np.ndarray = field(init=False, repr=False)  # matvec(w), read-only: operators share it

    def __post_init__(self):
        j = np.ascontiguousarray(self.jmat, dtype=float)
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
        asym = _max_asymmetry(j)
        sym = bool(asym <= SYMMETRY_TOL * max(1.0, hi))
        if sym and asym > 0:
            j = np.minimum(j, j.T)
        object.__setattr__(self, "jmat", j)
        object.__setattr__(self, "symmetric", sym)
        if self.positivity_cert is not None:
            r, j0 = self.positivity_cert
            if j0 <= 0:
                raise ValueError("positivity certificate needs J0 > 0")
            if any(np.any((d < r) & (j[rows] <= j0)) for rows, d in self.space.row_blocks()):
                raise ValueError("positivity certificate fails entrywise")
        h0 = self.matvec(self.space.weights)  # checked against einsum's row sums: no n×n temporary
        sums = np.einsum("ij,j->i", j, self.space.weights)
        if np.max(np.abs(h0 - sums)) > 1e-10 * max(1.0, float(np.max(np.abs(h0)))):
            raise AssertionError("operator assembly inconsistent: h0 is not the row sums of jmat·w")
        h0.flags.writeable = False
        object.__setattr__(self, "h0", h0)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """jmat @ x on an (n,) vector, row by row on a (k, n) batch: dsymv on one triangle
        (the Fortran-ordered view jmat.T) for a symmetric kernel's vector, else _blas_dot."""
        if x.ndim > 2 or x.shape[-1:] != (self.space.n,):  # BLAS would read a longer x's head
            raise ValueError(f"matvec needs (n,) or (k, n), n = {self.space.n}, not {x.shape}")
        if self.symmetric and x.ndim == 1:
            from scipy.linalg.blas import dsymv  # here, so the CLI imports no scipy

            return dsymv(1.0, self.jmat.T, x)
        return _blas_dot(self.jmat, x)


def _blas_dot(mat: np.ndarray, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(mat @ x.T).T for x (n,) or C-ordered (k, n) by one scipy dgemv or dgemm, into a
    C-ordered out if given; _blas_dot(b.T, a) is a @ b.  mat goes in Fortran-ordered with a
    trans flag, as f2py silently copies a C-ordered array handed to a Fortran argument."""
    from scipy.linalg.blas import dgemm, dgemv  # here, so the CLI imports no scipy

    a, ta = (mat.T, 1) if mat.flags.c_contiguous else (mat, 0)
    if x.ndim == 1:
        return dgemv(1.0, a, x, trans=ta)
    return dgemm(1.0, a, x.T, trans_a=ta, c=None if out is None else out.T, overwrite_c=1).T


@dataclass(frozen=True)
class NonlocalOperator:
    """L = K - hI by its ingredients: the kernel and h."""

    kernel: Kernel
    h: np.ndarray
    h0 = property(lambda self: self.kernel.h0)  # ∫ J(·, y) dy: the kernel's read-only array

    @property
    def space(self) -> MeasureSpace:
        return self.kernel.space

    @property
    def n(self) -> int:
        return self.kernel.space.n

    @property
    def amat(self) -> np.ndarray:
        """jmat·diag(w) - diag(h), a fresh n×n array on each read."""
        amat = self.kernel.jmat * self.kernel.space.weights
        amat.flat[:: self.n + 1] -= self.h
        return amat

    def apply(self, v: np.ndarray) -> np.ndarray:
        """L v = jmat @ (w·v) - h·v with no n×n array, row by row on a (k, n) batch."""
        return self.kernel.matvec(self.space.weights * v) - self.h * v


def _law_matrix(space: MeasureSpace, fill) -> np.ndarray:
    """The (n, n) matrix filled by fill(out, d) on each row block out and its distances d."""
    jmat = np.empty((space.n, space.n))
    for rows, d in space.row_blocks():
        fill(jmat[rows], d)
    return jmat


def assemble_kernel(space: MeasureSpace, law: str, **params) -> Kernel:
    """Build the kernel matrix from a law applied to pairwise distances,
    row block by row block.

    Laws: constant(c), tophat(R, J0) meaning J = J0 for d < R else 0,
    gaussian(sigma, scale), table(jmat) with an explicit matrix.
    """
    if law == "constant":
        c = float(params["c"])
        if c < 0:
            raise ValueError("constant law needs c >= 0")
        # any radius certifies a positive constant kernel; pick one covering the space
        cert = (2.0 * max(space.diameter(), 1.0), c / 2.0) if c > 0 else None
        return Kernel(space=space, jmat=np.full((space.n, space.n), c), positivity_cert=cert)
    if law == "tophat":
        r = float(params["R"])
        j0 = float(params["J0"])
        if r <= 0 or j0 <= 0:
            raise ValueError("tophat law needs R > 0 and J0 > 0")
        jmat = _law_matrix(space, lambda out, d: np.multiply(d < r, j0, out=out))
        return Kernel(space=space, jmat=jmat, positivity_cert=(r, j0 / 2.0))
    if law == "gaussian":
        sigma = float(params["sigma"])
        scale = float(params.get("scale", 1.0))
        if sigma <= 0 or scale <= 0:
            raise ValueError("gaussian law needs sigma > 0 and scale > 0")
        def gauss(out, d):  # scale * exp(-0.5 * (d / sigma) ** 2) in out
            np.square(np.divide(d, sigma, out=out), out=out)
            np.exp(np.multiply(out, -0.5, out=out), out=out)
            out *= scale

        jmat = _law_matrix(space, gauss)
        return Kernel(space=space, jmat=jmat)
    if law == "table":
        return Kernel(space=space, jmat=params["jmat"])
    raise ValueError(f"unknown kernel law {law!r}")


def apply_K(kernel: Kernel, u: np.ndarray) -> np.ndarray:
    """Quadrature evaluation of Ku: result[i] = sum_j J_ij w_j u_j, row by row on a (k, n) batch."""
    u = np.asarray(u, dtype=float)
    if u.ndim > 2 or u.shape[-1:] != (kernel.space.n,):
        raise ValueError("state vector length mismatch")
    return kernel.matvec(kernel.space.weights * u)


def compute_h0(kernel: Kernel) -> np.ndarray:
    """Total outflow rate h0(x) = ∫ J(x,y) dy at each node, formed with the kernel."""
    return kernel.h0


def build_operator(kernel: Kernel, h) -> NonlocalOperator:
    n = kernel.space.n
    h = np.asarray(h, dtype=float)
    if h.shape == ():
        h = np.full(n, float(h))
    if h.shape != (n,):
        raise ValueError("potential length mismatch")
    if not np.all(np.isfinite(h)):
        raise ValueError("potential must be finite")
    return NonlocalOperator(kernel=kernel, h=h)
