"""Discrete matrix measures on a half-axis [alpha, inf).

A measure here is a finite sum of point masses with positive semidefinite
matrix weights.  It supplies exact moments, an exactly rational
half-axis transform sum_k (x_k - z)^(-1) w_k, and the reverse direction:
reading moments back off a rational function exactly, by series division
at infinity, which is how candidate solutions get verified.  Only a
function of the transforms' growth class has such moments: one that is
identically zero, or whose numerator degree is one below its
denominator's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import matcore
from .hankel import MomentSequence, cone_margins
from .matcore import (
    DEFAULT_TOL,
    GrowthError,
    PreconditionError,
    ToleranceConfig,
)
from .pairs import RationalMatFun
from .respoly import TRIM_REL, MatrixPolynomial

__all__ = [
    "DiscreteMeasure",
    "moments",
    "stieltjes_transform",
    "extract_moments",
    "verify_solution",
]


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Point masses x_k >= alpha with PSD matrix weights w_k."""

    alpha: float
    nodes: tuple
    weights: tuple

    def __post_init__(self):
        if not math.isfinite(float(self.alpha)):
            raise ValueError("alpha must be finite")
        nodes = tuple(float(x) for x in self.nodes)
        if not all(map(math.isfinite, nodes)):
            raise ValueError("measure nodes must be finite")
        weights = tuple(matcore.as_cmat(w) for w in self.weights)
        if len(nodes) != len(weights):
            raise ValueError("nodes and weights must pair up")
        for x in nodes:
            if x < self.alpha - 1e-9 * max(1.0, abs(self.alpha)):
                raise PreconditionError("node below the half-axis endpoint")
        if len({w.shape for w in weights}) > 1:
            raise ValueError("weights must share one size")
        if weights:
            stack = matcore.hermitize(weights)
            if (matcore.psd_margin(stack) < -DEFAULT_TOL.psd).any():
                raise PreconditionError("weights must be positive semidefinite")
            weights = tuple(stack)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def q(self) -> int:
        return self.weights[0].shape[0] if self.weights else 0

    def total(self) -> np.ndarray:
        if not self.weights:
            return np.zeros((0, 0), dtype=complex)
        return sum(self.weights)


def moments(mu: DiscreteMeasure, m: int) -> MomentSequence:
    """Power moments s_j = sum_k x_k^j w_k for j = 0..m; a moment outside
    the float range is a ValueError that names it."""
    if m < 0:
        raise PreconditionError("moment order must be nonnegative")
    q = mu.q
    mats = []
    try:
        with np.errstate(over="raise"):
            for j in range(m + 1):
                s = np.zeros((q, q), dtype=complex)
                for x, w in zip(mu.nodes, mu.weights):
                    s = s + (x ** j) * w
                mats.append(s)
    except (OverflowError, FloatingPointError):
        raise ValueError(f"moment s_{j} overflows the float range") from None
    return MomentSequence(mu.alpha, tuple(mats))


def stieltjes_transform(mu: DiscreteMeasure) -> RationalMatFun:
    """The rational function sum_k (x_k - z)^(-1) w_k.

    Denominator prod_k (x_k - z); poles exactly at the nodes (up to
    coincident-node merging, which simplify() removes).
    """
    q = mu.q
    k = len(mu.nodes)
    if k == 0:
        return RationalMatFun(MatrixPolynomial.constant(np.zeros((q, q))))
    sign = (-1.0) ** k
    den = sign * npoly.polyfromroots(mu.nodes)
    num = MatrixPolynomial.constant(np.zeros((q, q)))
    for i, w in enumerate(mu.weights):
        others = [x for j, x in enumerate(mu.nodes) if j != i]
        cof = ((-1.0) ** len(others)) * npoly.polyfromroots(others)
        num = num + MatrixPolynomial.constant(w).scale_poly(cof)
    return RationalMatFun(num.trimmed(), den).simplify()


def extract_moments(fun: RationalMatFun, alpha: float, m: int):
    """Recover (s_0..s_m, residual) from the expansion of ``fun`` at infinity.

    The moments in fun(z) = -sum_j s_j z^-(j+1) follow exactly from series
    division of the numerator by the scalar denominator; their Hermitian
    parts are returned.  ``residual`` is ``fun.proper_residual()``.  A zero
    numerator reads zero moments; otherwise the numerator's degree, its
    highest coefficient above ``TRIM_REL`` times the largest (Frobenius
    norms), must be one below the denominator's, as for every half-axis
    transform of a nonzero measure, or GrowthError names both degrees.
    A coefficient norm beyond the float range, or a moment beyond it (the
    first such ``s_j`` named), raise ValueError.
    """
    if m < 0:
        raise PreconditionError("moment order must be nonnegative")
    q = fun.q
    norms = fun.num.coeff_norms()
    top = max(norms)
    if not np.isfinite(top):
        raise ValueError("numerator coefficient norm overflows to a non-finite value")
    if top == 0.0:
        zero = np.zeros((q, q), dtype=complex)
        return MomentSequence._hermitian(alpha, (zero,) * (m + 1)), 0.0
    den = fun.den
    deg = len(den) - 1
    num_deg = max(k for k, x in enumerate(norms) if x > TRIM_REL * top)
    if num_deg != deg - 1:
        raise GrowthError(
            "function does not decay like a half-axis transform (numerator "
            f"degree {num_deg}, denominator degree {deg})")

    coeffs = fun.num.coeffs
    residual = fun.proper_residual()
    zero = np.zeros((q, q), dtype=complex)
    c = []
    for i in range(m + 1):
        k = deg - 1 - i
        acc = coeffs[k].copy() if 0 <= k < len(coeffs) else zero.copy()
        for j in range(1, min(i, deg) + 1):
            acc -= den[deg - j] * c[i - j]
        c.append(acc / den[deg])
    stack = -np.array(c)
    j = matcore.first_non_finite(stack)
    if j is not None:
        raise ValueError(f"moment s_{j} overflows to a non-finite value")
    return MomentSequence._hermitian(
        alpha, tuple(matcore.symmetrized(stack))), residual


def verify_solution(fun: RationalMatFun, seq: MomentSequence, mode: str = "leq",
                    tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Compare the moments read off ``fun`` with a prescribed sequence.

    ``extract_moments`` reads the moments, so a function outside the
    transforms' growth class raises GrowthError.  Both modes
    require the first m moments to match relatively to the extraction
    tolerance; the final moment must match too (eq mode) or sit below the
    prescribed one up to tolerance (leq mode).  Both top-moment rules
    measure the defect s_m minus the read-off moment relative to
    1 + norm(s_m): its norm for eq, its smallest eigenvalue for leq.
    """
    if mode not in ("leq", "eq"):
        raise PreconditionError("mode must be 'leq' or 'eq'")
    if fun.q != seq.q:
        raise PreconditionError(f"function size {fun.q} differs from the "
                                f"sequence size {seq.q}")
    if min(cone_margins(seq, tol)) < -tol.psd:
        raise PreconditionError("sequence is not solvable (outside the solvability cone)")
    extracted, residual = extract_moments(fun, seq.alpha, seq.m)

    prefix_gaps = [
        matcore.frob(a - b) / (1.0 + matcore.frob(b))
        for a, b in zip(extracted.s[:-1], seq.s[:-1])
    ]
    prefix_gap = float(max(prefix_gaps)) if prefix_gaps else 0.0
    prefix_ok = prefix_gap <= tol.extraction

    defect = matcore.symmetrized(seq.s[-1] - extracted.s[-1])
    scale = 1.0 + matcore.frob(seq.s[-1])
    if mode == "leq":
        top_margin = float(np.linalg.eigvalsh(defect)[0]) / scale
    else:
        top_margin = -matcore.frob(defect) / scale
    top_ok = bool(top_margin >= -tol.extraction)
    report = {
        "mode": mode,
        "extracted": extracted,
        "residual": residual,
        "prefix_gap": prefix_gap,
        "prefix_ok": bool(prefix_ok),
        "top_defect": defect,
        "top_margin": float(top_margin),
        "top_ok": top_ok,
        "ok": bool(prefix_ok and top_ok),
    }
    return report
