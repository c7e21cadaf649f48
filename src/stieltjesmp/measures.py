"""Discrete matrix measures on a half-axis [alpha, inf).

A measure here is a finite sum of point masses with positive semidefinite
matrix weights.  It supplies exact moments, an exactly rational
half-axis transform sum_k (x_k - z)^(-1) w_k (``from_atoms``, the one
builder from atoms, which ``solve`` uses too), and the reverse direction:
reading moments back off a rational function, which is how candidate
solutions get verified.  A function built from atoms keeps them, and its
moments are its atoms' sum_k x_k^j w_k, by the kernel ``moments`` uses;
any other function, given as numerator over denominator, has them read
exactly by series division at infinity.  Only a function of the
transforms' growth class has such moments: one that is identically zero,
or whose numerator degree is one below its denominator's.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import InitVar, dataclass

import numpy as np

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
    "from_atoms",
    "extract_moments",
    "verify_solution",
]


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Point masses x_k >= alpha with PSD matrix weights w_k."""

    alpha: float
    nodes: tuple
    weights: tuple
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL  # checks weights; not stored

    def __post_init__(self, tol):
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
            stack = matcore.hermitize(weights, tol)
            if (matcore.psd_margin(stack) < -tol.psd).any():
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


def _atom_moments(nodes, weights, m: int):
    """(stack, bad): s_j = sum_k x_k^j W_k for the nodes ``nodes`` and the
    (n, q, q) stack ``weights``, j = 0..m, with the bits of the loop that
    adds (x_k ** j) W_k over the atoms in order to complex zeros.  Each
    power is Python's ``**`` of the node as a Python float (numpy's power
    rounds some differently), and one cumulative sum from a zero slab
    keeps the loop's order of sums.  ``bad`` is None, or the first j at
    which a power, a product or a sum leaves the float range; the stack
    then holds s_0..s_(bad-1).  A sum that leaves the range stays
    non-finite to the last atom, so the last running sum shows it."""
    xs = np.asarray(nodes, dtype=float).tolist()
    n, q = weights.shape[0], weights.shape[-1]
    try:
        powers = [x ** j for j in range(m + 1) for x in xs]
    except OverflowError:
        # the rows before the first power beyond the float range
        powers = []
        with contextlib.suppress(OverflowError):
            for j in range(m + 1):
                powers += [x ** j for x in xs]
    rows = len(powers) // n if n else m + 1
    sums = np.zeros((rows, n + 1, q, q), dtype=complex)
    terms = np.array(powers).reshape(rows, n, 1, 1)
    bad = None
    try:
        with np.errstate(over="raise"):
            np.multiply(terms, weights, out=sums[:, 1:])
            stack = sums.cumsum(axis=1)[:, -1]
    except FloatingPointError:
        # again, unwarned, to find the first moment out of range
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(terms, weights, out=sums[:, 1:])
            stack = sums.cumsum(axis=1)[:, -1]
        bad = matcore.first_non_finite(stack)
    if bad is None and rows <= m:
        bad = rows
    return (stack if bad is None else stack[:bad]), bad


def moments(mu: DiscreteMeasure, m: int) -> MomentSequence:
    """Power moments s_j = sum_k x_k^j w_k for j = 0..m; a moment outside
    the float range is a ValueError that names it."""
    if m < 0:
        raise PreconditionError("moment order must be nonnegative")
    weights = np.array(mu.weights, dtype=complex).reshape(
        len(mu.nodes), mu.q, mu.q)
    stack, bad = _atom_moments(mu.nodes, weights, m)
    if bad is not None:
        raise ValueError(f"moment s_{bad} overflows the float range")
    return MomentSequence(mu.alpha, tuple(stack))


def stieltjes_transform(mu: DiscreteMeasure) -> RationalMatFun:
    """The rational function sum_k (x_k - z)^(-1) w_k, built by
    :func:`from_atoms`: poles exactly at the nodes, coincident ones merged."""
    return from_atoms(mu.nodes, np.array(mu.weights), mu.q)


def from_atoms(nodes, weights, q: int) -> RationalMatFun:
    """sum_k W_k / (x_k - z) for nodes x_k and a stack of q x q weights W_k.

    The nodes are sorted, and exactly equal ones merged by summing their
    weights.  The function is the monic denominator prod_k (z - x_k) over
    the numerator -sum_k W_k prod_{j != k} (z - x_j): every cofactor and
    the denominator are multiplied out in one pass over the nodes, each
    factor applied to every row but its own.  The function keeps the
    sorted, merged atoms in its ``atoms`` slot, which
    :func:`extract_moments` and ``solve``'s parameter reading take instead
    of its power basis.  A denominator whose leading coefficients the
    constructor trims (nodes spread so far that its constant term exceeds
    them by the trim floor) raises GrowthError: the function left would
    miss the sum."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if not n:
        fun = RationalMatFun.zero(q)
        object.__setattr__(fun, "atoms", _frozen(
            np.zeros(0), np.zeros((0, q, q), dtype=complex)))
        return fun
    order = np.argsort(nodes, kind="stable")
    nodes, weights = nodes[order], weights[order]
    apart = nodes[1:] > nodes[:-1]
    if not apart.all():
        starts = np.flatnonzero(np.concatenate(([True], apart)))
        nodes, weights = nodes[starts], np.add.reduceat(weights, starts)
        n = len(nodes)
    # row k < n is the cofactor of node k, row n the denominator; each step
    # writes cof (z - x) into the other buffer, and row k keeps its own
    cof = np.zeros((n + 1, n + 1))
    cof[:, 0] = 1.0
    out = np.empty_like(cof)
    for k, x in enumerate(nodes):
        np.multiply(cof, -x, out=out)
        out[:, 1:] += cof[:, :-1]
        out[k] = cof[k]
        cof, out = out, cof
    num = -(cof[:n, :n].T @ weights.reshape(n, q * q)).reshape(n, q, q)
    fun = RationalMatFun(MatrixPolynomial(num), cof[n])
    if len(fun.den) <= n:
        raise GrowthError(
            f"the function's denominator over {n} nodes on [{nodes[0]:.6g}, "
            f"{nodes[-1]:.6g}] loses its leading coefficients to the trim "
            "floor of RationalMatFun's power basis")
    object.__setattr__(fun, "atoms", _frozen(
        nodes, weights.astype(complex, copy=False)))
    return fun


def _frozen(nodes, weights) -> tuple:
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def extract_moments(fun: RationalMatFun, alpha: float, m: int):
    """Recover (s_0..s_m, residual) of ``fun`` = -sum_j s_j z^-(j+1).

    A function that holds its atoms (``fun.atoms``, filled by
    :func:`from_atoms`) has the moments sum_k x_k^j W_k, by the kernel of
    :func:`moments`, and residual 0.0.  Any other function, given as
    numerator over denominator, has them read exactly by series division
    of the numerator by the scalar denominator at infinity, and
    ``residual`` is ``fun.proper_residual()``.  A zero numerator reads
    zero moments; otherwise the numerator's degree, its highest
    coefficient above ``TRIM_REL`` times the largest (Frobenius norms),
    must be one below the denominator's, as for every half-axis transform
    of a nonzero measure, or GrowthError names both degrees.  Either way
    the Hermitian parts are returned, and a moment beyond the float range
    (the first such ``s_j`` named), or a coefficient norm beyond it,
    raises ValueError.
    """
    if m < 0:
        raise PreconditionError("moment order must be nonnegative")
    if fun.atoms is not None:
        stack, j = _atom_moments(*fun.atoms, m)
        return _read_moments(alpha, stack, j, 0.0)
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
    # fun.proper_residual(), from the norms already read
    residual = float(max(norms[deg:], default=0.0) / top)
    zero = np.zeros((q, q), dtype=complex)
    c = []
    for i in range(m + 1):
        k = deg - 1 - i
        acc = coeffs[k].copy() if 0 <= k < len(coeffs) else zero.copy()
        for j in range(1, min(i, deg) + 1):
            acc -= den[deg - j] * c[i - j]
        c.append(acc / den[deg])
    stack = -np.array(c)
    return _read_moments(alpha, stack, matcore.first_non_finite(stack),
                         residual)


def _read_moments(alpha, stack, bad, residual):
    """``extract_moments``' result from the moments it read, ``bad`` the
    first one that is not finite, if any."""
    if bad is not None:
        raise ValueError(f"moment s_{bad} overflows to a non-finite value")
    return MomentSequence._hermitian(
        alpha, tuple(matcore.symmetrized(stack))), residual


def verify_solution(fun: RationalMatFun, seq: MomentSequence, mode: str = "leq",
                    tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Compare the moments read off ``fun`` with a prescribed sequence.

    ``extract_moments`` reads the moments: a function built from atoms
    (``solve``'s solution for a parameter with atoms, a measure's
    transform) by its atoms' moments, any other by series division, where
    a function outside the transforms' growth class raises GrowthError.
    Both modes require the first m moments to match relatively to the
    extraction tolerance; the final moment must match too (eq mode) or sit
    below the prescribed one up to tolerance (leq mode).  Both top-moment
    rules measure the defect s_m minus the read-off moment relative to
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
