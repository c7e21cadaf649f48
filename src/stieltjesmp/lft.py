"""The linear-fractional kernel: 2q x 2q generators acting on pairs.

A generator E = [[a, b], [c, d]] acts on a single matrix x as
(ax + b)(cx + d)^(-1) and on a column pair (x, y) as
(ax + by)(cx + dy)^(-1).  A lower block row [c, d] without full row rank
makes every denominator singular, which the denominator gates refuse.

``lft_pair`` evaluates the action at a point and ``lft_rational`` on
rational matrix functions; every denominator passes ``check_denominator``
(pointwise) or ``det_or_none`` (identically singular determinant).  The
pointwise gate is ``denominator_gate``, sigma_min/sigma_max against
``tol.det_gate``; ``lft_rational`` applies it to the denominator's values
on the whole grid at once (one stacked evaluation, one batched SVD) and
raises at the first failing point in grid order.

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
    SingularDenominatorError,
    ToleranceConfig,
)
from .respoly import MatrixPolynomial, adjugate_poly, det_poly

__all__ = ["DEFLATION_REL", "check_denominator", "denominator_gate",
           "det_or_none", "divide_out_root", "lft_pair", "lft_rational"]


def denominator_gate(dens, tol: ToleranceConfig) -> tuple:
    """(passes, gap) for a denominator or, elementwise, a stack of them:
    ``gap`` is sigma_min/sigma_max (0 for a zero or empty matrix), and a
    denominator passes when it is nonzero with sigma_min at least
    ``tol.det_gate`` times sigma_max."""
    sv = np.linalg.svd(dens, compute_uv=False)
    if not sv.shape[-1]:
        sv = np.zeros(sv.shape[:-1] + (1,))
    top, low = sv[..., 0], sv[..., -1]
    passes = (top != 0.0) & (low >= tol.det_gate * top)
    gap = np.divide(low, top, out=np.zeros_like(low), where=top != 0.0)
    return passes, gap


def check_denominator(den: np.ndarray, tol: ToleranceConfig, stage: str,
                      point=None) -> None:
    """Raise unless sigma_min/sigma_max of ``den`` reaches ``tol.det_gate``."""
    passes, gap = denominator_gate(den, tol)
    if not passes:
        gap = float(gap)
        where = "" if point is None else f" at {point}"
        raise SingularDenominatorError(
            f"linear-fractional denominator is numerically singular{where}",
            stage=stage, point=point, gap=gap,
        )


def det_or_none(den: MatrixPolynomial):
    """Coefficients of det den(z), or None if it vanishes identically.

    Relative to the size of ``den``, floored at 1: the coefficient trims cut
    at an absolute 1e-13, so a purely relative test would pass trim noise.
    """
    det = det_poly(den)
    scale = max(den.coeff_norms())
    if np.abs(det).max() <= 1e-12 * max(1.0, scale ** den.size):
        return None
    return det


# A remainder of the division by (z - alpha) is negligible when it is at most
# this fraction of the largest coefficient of the polynomial divided: far
# above the rounding that spreads a multiple root at alpha into a cluster,
# far below any coefficient a solution needs.
DEFLATION_REL = 1e-8


def _divide_by_root(c: np.ndarray, alpha: float):
    """(quotient, remainder) of the coefficient stack ``c`` (degree-ascending
    along axis 0) divided by (z - alpha): synthetic division, top down."""
    quo = np.empty_like(c[1:])
    acc = c[-1]
    for j in range(len(c) - 2, -1, -1):
        quo[j] = acc
        acc = c[j] + alpha * acc
    return quo, acc


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
        if abs(rem[-1]) > den_cut or np.linalg.norm(rem[:-1]) > num_cut:
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
    check_denominator(den, tol, "pair-input")
    return np.linalg.solve(den.T, (e[:q, :q] @ x + e[:q, q:] @ y).T).T


def lft_rational(blocks, phi, psi, alpha: float,
                 tol: ToleranceConfig = DEFAULT_TOL, grid=(),
                 stage: str = "rational"):
    """(nw phi + ne psi)(sw phi + se psi)^(-1) as one rational matrix function.

    ``blocks`` is a ``MatrixPolynomial.blocks()`` view, (phi, psi) a pair of
    ``RationalMatFun``, and ``alpha`` the endpoint the generator was built
    at.  Over the common factor phi.den psi.den the action is
    N D^(-1) = N adj(D) / det(D); D must pass ``det_or_none`` and, at each
    point of ``grid``, ``denominator_gate``, all points decided from one
    stacked evaluation of D (both raise tagged ``stage``; the grid gate
    names the first failing point, in grid order, and its ``gap``).
    The power of (z - alpha) that the fraction's numerator and denominator
    share is divided out (``divide_out_root``, at ``DEFLATION_REL``) before
    ``simplify`` runs.
    """
    from .pairs import RationalMatFun

    num = ((blocks.nw @ phi.num).scale_poly(psi.den)
           + (blocks.ne @ psi.num).scale_poly(phi.den)).trimmed()
    den = ((blocks.sw @ phi.num).scale_poly(psi.den)
           + (blocks.se @ psi.num).scale_poly(phi.den)).trimmed()
    det = det_or_none(den)
    if det is None:
        raise SingularDenominatorError(
            "linear-fractional denominator is identically singular",
            stage=stage, gap=0.0)
    zs = np.asarray(grid, dtype=complex)
    values = den(zs)
    failing = np.flatnonzero(~denominator_gate(values, tol)[0])
    if failing.size:
        k = failing[0]
        check_denominator(values[k], tol, stage, complex(zs[k]))
    num, det = divide_out_root(num @ adjugate_poly(den), det, alpha)
    return RationalMatFun(num, det).simplify()
