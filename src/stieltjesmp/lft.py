"""The linear-fractional kernel: 2q x 2q generators acting on pairs.

A generator E = [[a, b], [c, d]] acts on a single matrix x as
(ax + b)(cx + d)^(-1) and on a column pair (x, y) as
(ax + by)(cx + dy)^(-1).  A lower block row [c, d] without full row rank
makes every denominator singular, which the denominator gates refuse.

``lft_pair`` evaluates the action at a point and ``lft_rational`` on
rational matrix functions, each slicing the blocks from the generator
itself.  ``lft_rational`` forms numerator and denominator from one product
per pair component: [a; c] phi and [b; d] psi, whose top q rows make the
numerator and bottom q rows the denominator.  A row block of a stacked
product has the bits of the block's own product, so the arithmetic is
that of four q x q products, and the norms its trims read come per stack
with ``matcore.frob``'s bits.  Tests pin this formation, and the quotient
rows ``divide_out_root`` writes in place, to the bytes of literal copies
in ``tests/oracles.py``.  ``check_denominator`` gates the denominator
values of both, sigma_min/sigma_max against ``tol.det_gate`` from one
batched SVD of a stack (``lft_rational``'s on the whole grid), naming the
first failing point; ``respoly.det_or_raise`` refuses a zero determinant.

Every generator in the package is built at an endpoint alpha, and the
resolvent satisfies V(z)W(z) = (z-alpha)^(m+1) diag(P, I), so the numerator
N adj(D) and the denominator det D that ``lft_rational`` forms share a
power of (z - alpha).  Rounding spreads a k-fold root into a cluster of
radius about eps^(1/k) that ``simplify`` cannot cancel, so the kernel takes
alpha and divides that power out first (``divide_out_root``): repeated
synthetic division, for as long as both remainders are at most
``DEFLATION_REL`` of their largest coefficient.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .matcore import (
    DEFAULT_TOL,
    PreconditionError,
    SingularDenominatorError,
    ToleranceConfig,
)
from .pairs import RationalMatFun
from .respoly import MatrixPolynomial, adjugate_poly, det_or_raise

__all__ = ["DEFLATION_REL", "check_denominator", "divide_out_root",
           "lft_pair", "lft_rational"]


def check_denominator(dens, tol: ToleranceConfig, stage: str,
                      points=None) -> None:
    """Raise unless sigma_min/sigma_max reaches ``tol.det_gate`` for every
    matrix of the stack ``dens``.

    ``points``, if given, lists the point each matrix was taken at; one
    batched SVD decides them all.  The error names the first failing
    matrix's point and its gap (0 for a zero or empty matrix).
    """
    sv = np.linalg.svd(dens, compute_uv=False)
    if not sv.shape[-1]:
        sv = np.zeros(sv.shape[:-1] + (1,))
    top, low = sv[..., 0].ravel(), sv[..., -1].ravel()
    failing = np.flatnonzero(~((top != 0.0) & (low >= tol.det_gate * top)))
    if failing.size:
        k = failing[0]
        gap = float(low[k] / top[k]) if top[k] != 0.0 else 0.0
        point = None if points is None else complex(points[k])
        where = "" if point is None else f" at {point}"
        raise SingularDenominatorError(
            f"linear-fractional denominator is numerically singular{where}",
            stage=stage, point=point, gap=gap,
        )


# A remainder of the division by (z - alpha) is negligible when it is at most
# this fraction of the largest coefficient of the polynomial divided: far
# above the rounding that spreads a multiple root at alpha into a cluster,
# far below any coefficient a solution needs.
DEFLATION_REL = 1e-8


def _divide_by_root(c: np.ndarray, alpha: float):
    """(quotient, remainder) of the coefficient stack ``c`` (degree-ascending
    along axis 0) divided by (z - alpha): synthetic division, top down, each
    quotient row written in place from the row above it."""
    quo = np.empty_like(c[1:])
    rows = list(quo)
    quo[-1] = c[-1]
    for j in range(len(rows) - 1, 0, -1):
        np.multiply(alpha, rows[j], rows[j - 1])
        np.add(c[j], rows[j - 1], rows[j - 1])
    return quo, c[0] + alpha * rows[0]


def divide_out_root(num: MatrixPolynomial, den: np.ndarray, alpha: float):
    """(num, den) over the largest power of (z - alpha) at which the
    remainders of both are at most ``DEFLATION_REL`` of their largest
    coefficient; the inputs themselves when that power is 0.

    The denominator is taken as the last column of the numerator's
    flattened stack, padded with exact zeros to its degree, so one synthetic
    division serves both.
    """
    rows, cols = num.shape
    nd, dn = num.degree, len(den) - 1
    num_cut = DEFLATION_REL * max(num.coeff_norms())
    den_cut = DEFLATION_REL * float(np.abs(den).max())
    both = np.zeros((max(nd, dn) + 1, rows * cols + 1), dtype=complex)
    both[:nd + 1, :-1] = num.coeffs.reshape(nd + 1, -1)
    both[:dn + 1, -1] = den
    k = 0
    while k < min(nd, dn):
        quo, rem = _divide_by_root(both, alpha)
        if abs(rem[-1]) > den_cut or matcore.frobs(rem[None, :-1]) > num_cut:
            break
        both = quo
        k += 1
    if k == 0:
        return num, den
    return (MatrixPolynomial(both[:nd + 1 - k, :-1].reshape(-1, rows, cols)),
            both[:dn + 1 - k, -1])


def lft_pair(e, x, y, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """(a x + b y)(c x + d y)^(-1) for the 2q x 2q generator value
    e = [[a, b], [c, d]], such as ``v_poly(alpha, A)(z)``."""
    e = matcore.as_cmat(e)
    x = matcore.as_cmat(x)
    y = matcore.as_cmat(y)
    q = e.shape[0] // 2
    den = e[q:, :q] @ x + e[q:, q:] @ y
    check_denominator(den[None], tol, "pair-input")
    return np.linalg.solve(den.T, (e[:q, :q] @ x + e[:q, q:] @ y).T).T


def _num_den(gen: MatrixPolynomial, phi, psi) -> tuple:
    """The trimmed polynomials a phi.num psi.den + b psi.num phi.den and
    c phi.num psi.den + d psi.num phi.den of the generator
    [[a, b], [c, d]]: [a; c] phi.num and [b; d] psi.num are one
    convolution each, and a row block of such a stacked product has the
    bits of the block's own product."""
    if gen.size % 2:
        raise ValueError("a generator needs an even size")
    q = gen.size // 2
    both = ((MatrixPolynomial(gen.coeffs[:, :, :q]) @ phi.num)
            .scale_poly(psi.den)
            + (MatrixPolynomial(gen.coeffs[:, :, q:]) @ psi.num)
            .scale_poly(phi.den)).coeffs
    return (MatrixPolynomial(both[:, :q]).trimmed(),
            MatrixPolynomial(both[:, q:]).trimmed())


def lft_rational(gen: MatrixPolynomial, phi, psi, alpha: float,
                 tol: ToleranceConfig = DEFAULT_TOL, grid=(),
                 stage: str = "rational"):
    """(a phi + b psi)(c phi + d psi)^(-1) as one rational matrix function.

    ``gen`` is the 2q x 2q generator polynomial [[a, b], [c, d]], (phi, psi)
    a pair of ``RationalMatFun``, and ``alpha`` the endpoint the generator
    was built at.  Over the common factor phi.den psi.den the action is
    N D^(-1) = N adj(D) / det(D); D must pass ``det_or_raise`` and, at the
    points of ``grid`` all at once, ``check_denominator`` (both raise
    tagged ``stage``; the grid gate names the first failing point, in grid
    order, and its ``gap``); a grid point where a value of D is not finite
    is refused with PreconditionError naming it.  The power of (z - alpha)
    that the fraction's numerator and denominator share is divided out
    (``divide_out_root``, at ``DEFLATION_REL``) before ``simplify`` runs.
    """
    num, den = _num_den(gen, phi, psi)
    det = det_or_raise(den, stage,
                       "linear-fractional denominator is identically singular")
    zs = np.asarray(grid, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        dens = den(zs)
    j = matcore.first_non_finite(dens)
    if j is not None:
        raise PreconditionError(f"{stage} denominator at grid point "
                                f"{complex(zs[j])} is not finite")
    check_denominator(dens, tol, stage, zs)
    num, det = divide_out_root(num @ adjugate_poly(den), det, alpha)
    return RationalMatFun(num, det).simplify()
