"""Dense complex-matrix kernel.

Hermitian handling, Moore-Penrose pseudoinverse, Loewner-order and
range/null-space predicates, and the two 2q x 2q signature matrices used by
the indefinite-metric identities.  Everything downstream threads a single
:class:`ToleranceConfig` through these predicates; ``psd_margin`` is a
measurement and reads none, its callers compare it with ``tol.psd``.

The kernels a grid gate needs (``symmetrized``, ``pinv``, ``psd_margin``,
``range_contains``, ``null_contains``, ``j_form``) also take a stack of
matrices, shape (..., rows, cols), and then answer per matrix with one
batched LAPACK call; numpy's stacked ``eigvalsh``/``svd`` run the same
routine on each matrix, so a stacked answer has the bits of the single
one.  ``hermitize`` takes a stack too, so that a sequence or a measure is
checked in one call.  A 2-d argument is the one-matrix case, unchanged.

``pinv`` is numpy's pinv arithmetic run step by step without its wrapper;
a test pins it to ``np.linalg.pinv`` bit for bit.  ``pinv_unchecked`` is
the same arithmetic without the finiteness check, for a stack already
checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "PreconditionError",
    "SingularDenominatorError",
    "GrowthError",
    "InconsistencyError",
    "as_cmat",
    "hermitize",
    "symmetrized",
    "pinv",
    "pinv_unchecked",
    "is_psd",
    "psd_margin",
    "range_contains",
    "in_range",
    "null_contains",
    "rank_with_tol",
    "signature_j",
    "j_form",
    "frob",
    "frobs",
    "frob_at_most",
    "first_non_finite",
]


# The smallest normal float: a sum of squares below it has lost digits.
_TINY = float(np.finfo(float).tiny)


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Shared numeric thresholds, each positive and finite: the only ones a
    user sets (``--tol NAME=VALUE``).  Every other threshold is a fixed
    name in the table below.  Each field, with its readers:

    pinv_rtol    relative singular-value cutoff for pseudoinverses: ``pinv``,
                 and the roots of ``solver._atomic_solution``
    herm         allowed relative asymmetry before symmetrization errors out
                 (``hermitize``); also the bound, relative to 1 + |s_0|, on
                 the prefix gap of ``schur.check_inequality_preservation``
    psd          relative eigenvalue slack for semidefiniteness tests:
                 ``is_psd``, ``rank_with_tol``'s floor, the margins and
                 'unknown' band of ``hankel.classify``, ``schur._step``'s
                 zero stage, the weights of ``DiscreteMeasure``, the cone
                 test of ``verify_solution``, ``pairs.admissibility``, and
                 the atoms of ``solver._parameter_atoms``
    inclusion    relative residual for range/null-space containment tests
                 (``range_contains``, ``in_range``, ``null_contains``)
    det_gate     sigma_min/sigma_max gate below which denominators count
                 as singular: ``lft.check_denominator``, and psi's constant
                 in ``solver._parameter_atoms``
    extraction   relative tolerance for the moments read off a solution
                 (``measures.verify_solution``)
    """

    pinv_rtol: float = 1e-12
    herm: float = 1e-9
    psd: float = 1e-9
    inclusion: float = 1e-9
    det_gate: float = 1e-10
    extraction: float = 1e-4

    def __post_init__(self):
        # a NaN threshold turns every comparison false; an infinite one
        # accepts anything
        for name in (f.name for f in fields(self)):
            if not 0 < getattr(self, name) < math.inf:
                raise PreconditionError(
                    f"tolerance {name} must be positive and finite")


DEFAULT_TOL = ToleranceConfig()

# Fixed thresholds, each on one line with what it decides, then the scale it
# is relative to.  A scale of 1 + |.| or max(1, .) acts as an absolute one
# below unit size; those, and the absolute floors, are to be made scale-free.
# solver._parameter_atoms: gap of the atoms' values to G = phi psi^(-1); |G|
ATOMS_REL = 1e-10
# solver._atomic_solution: |lambda| this close are one node; sigma_1 of T
MERGE_REL = 1e-12
# solver._atomic_solution: a merged weight is rounding; |s_0| and each |t_j|
WEIGHT_REL = 1e-12
# RationalMatFun.simplify: a reduced candidate's value error; 1 + |value|
SIMPLIFY_REL = 1e-10
# pairs.grid_values: z is a pole of d when |d(z)| is at most this; |d|(|z|)
POLE_REL = 1e-12
# pairs.equivalent: spectral gap of the span projectors; none (norm 1)
EQUIV_GAP = 1e-7
# trims: a trailing coefficient is rounding; the largest one, or max(1, .)
TRIM_REL = 1e-13
# lft.divide_out_root: a remainder is zero; the largest coefficient
DEFLATION_REL = 1e-8
# DiscreteMeasure: how far a node may sit below alpha; max(1, |alpha|)
NODE_SLACK = 1e-9
# RationalMatFun._refit: sigma_min of a fitting denominator's system; sigma_1
REFIT_REL = 1e-6
# pairs: floor of |d|(|z|) and of sigma_1, either of which may be 0; absolute
SCALE_FLOOR = 1e-300
# pairs: values [phi; psi] have full rank when sigma_min exceeds this; sigma_1
RANK_GAP = 1e-10
# pairs.gamma_U_embed: |u^* u - I| for orthonormal columns; max(1, q)
ORTHO_REL = 1e-10
# respoly._balanced_radius: the highest coefficient that counts; the largest
LEAD_REL = 1e-12
# respoly.det_or_raise: det is identically zero; max(1, |den|^size)
DET_ZERO_REL = 1e-12
# schur order reports: the gap of the images' prefixes; 1 + |s_0|
PREFIX_REL = 1e-10
# schur order reports: the top difference's gap to P^* defect P; 1 + |.|
CLOSED_FORM_REL = 1e-9
# hankel.classify: the 'unknown' band of a margin about 0; tol.psd
UNKNOWN_BAND = 10.0


class SingularDenominatorError(ArithmeticError):
    """A denominator failed the singular-value gate.

    Carries the evaluation point, a stage label for composed transforms,
    and the offending sigma_min/sigma_max estimate.
    """

    def __init__(self, message, *, stage="", point=None, gap=None):
        super().__init__(message)
        self.stage = stage
        self.point = point
        self.gap = gap


class GrowthError(ArithmeticError):
    """A rational function is not of a half-axis transform's growth class:
    nonzero, with numerator degree other than one below its denominator's."""


class InconsistencyError(RuntimeError):
    """Numerical evidence contradicts a structural guarantee."""


def _as_stack(a) -> np.ndarray:
    """Coerce to a finite complex ndarray of one matrix or a stack of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def first_non_finite(stack: np.ndarray):
    """Index of the first matrix of ``stack`` with a non-finite entry, or None."""
    finite = np.isfinite(stack)
    return None if finite.all() else int(finite.all(axis=(-2, -1)).argmin())


def as_cmat(a) -> np.ndarray:
    """Coerce to a finite 2-d complex ndarray."""
    m = _as_stack(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def frob(a) -> float:
    """Frobenius norm, by the arithmetic of ``np.linalg.norm(a)`` (the same
    bits) without its dispatch or a numpy warning: ``np.vdot`` of a real
    vector is its 1-d dot, and ``order="K"`` sums a strided view in numpy's
    order.  When the sum of squares overflows, or falls below the normal
    range while ``a`` has a nonzero entry, the norm is :func:`frobs`' of
    ``a`` as one row."""
    return _squares_and_norm(a)[1]


def _squares_and_norm(a) -> tuple:
    """(sum of squares, :func:`frob`) of ``a``, both from one pass."""
    x = np.asarray(a)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        sq = float(np.vdot(re, re)) + float(np.vdot(im, im))
    else:
        sq = float(np.vdot(x, x))
    if sq != math.inf and (sq >= _TINY or not x.any()):
        return sq, math.sqrt(sq)
    return sq, float(frobs(x.reshape(1, -1)))


def hermitize(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Return (A + A*)/2 of a matrix or of each matrix of a stack,
    rejecting gross asymmetry.

    Asymmetry beyond ``tol.herm`` relative to the matrix size is treated as
    a construction error rather than silently repaired.  It is meant for
    values from outside the package (``MomentSequence``, ``DiscreteMeasure``,
    caller seeds).  The algorithm's computed stages are symmetrized without
    it: their asymmetry is rounding, large relative to a small result of
    cancellation.
    """
    m = _as_stack(a)
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape[-2:]}")
    # the rule asym > tol.herm * (1 + |m|) on the halves h = m/2: exact,
    # and h - h* cannot overflow
    h = 0.5 * m
    d = h - _adjoint(h)
    bad = np.logical_not(frob_at_most(d, h, tol.herm, 0.5))
    if bad.any():
        asym = 2.0 * frob(d[bad][0])  # of the first matrix refused
        raise PreconditionError(
            f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds tolerance")
    return 0.5 * (m + _adjoint(m))


def symmetrized(a) -> np.ndarray:
    """Return (A + A*)/2 of a square matrix, without an asymmetry check.

    For matrices that are Hermitian in exact arithmetic, such as differences
    and forms the package computes; values from outside it go through
    :func:`hermitize`.  Symmetrizing an exactly Hermitian matrix changes no
    bit.  A stack is symmetrized matrix by matrix.
    """
    m = _as_stack(a)
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + _adjoint(m))


def pinv(a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse with relative singular-value cutoff; of each
    matrix of a stack, each cut relative to its own largest value.

    The arithmetic is ``np.linalg.pinv(a, rtol=tol.pinv_rtol)``'s, step by
    step without its wrapper, so the bits are numpy's (a test pins them).
    """
    return pinv_unchecked(_as_stack(a), tol)


def pinv_unchecked(m: np.ndarray,
                   tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """:func:`pinv` of a complex matrix or stack the caller has already
    found finite, without checking it again."""
    if m.size == 0:
        return _adjoint(m).copy()
    u, s, vt = np.linalg.svd(m.conjugate(), full_matrices=False)
    # LAPACK orders the singular values descending: the first is the max
    large = s > tol.pinv_rtol * s[..., :1]
    s = np.divide(1, s, out=np.zeros_like(s), where=large)
    return np.matmul(vt.swapaxes(-1, -2), s[..., None] * u.swapaxes(-1, -2))


def psd_margin(a):
    """Smallest eigenvalue of the symmetrized matrix, relative to scale.

    Positive semidefiniteness to tolerance means margin >= -tol.psd.  An
    asymmetric argument is symmetrized by :func:`symmetrized`, not rejected;
    a non-square one raises ValueError.  A stack gives the array of its
    matrices' margins, from one batched eigensolve; a single matrix, solved
    as a stack of one (the same bits), gives a float; an empty one gives 0.
    """
    m = symmetrized(a)
    w = np.linalg.eigvalsh(m if m.ndim > 2 else m[None])
    if not w.shape[-1]:
        w = np.zeros(w.shape[:-1] + (1,))
    margins = w[..., 0] / np.maximum(1.0, np.abs(w).max(axis=-1))
    return margins if m.ndim > 2 else float(margins[0])


def is_psd(a, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """psd_margin(a) >= -tol.psd; an asymmetric ``a`` is symmetrized."""
    return psd_margin(a) >= -tol.psd


def range_contains(a, b, tol: ToleranceConfig = DEFAULT_TOL):
    """True iff ran B is contained in ran A, via the A A^+ B = B residual.

    Either argument may be a stack; the answer is then one verdict per
    matrix, with one (stacked) pseudoinverse of A.
    """
    return in_range(a, pinv(a, tol), b, tol)


def in_range(a, ap, b, tol: ToleranceConfig = DEFAULT_TOL):
    """:func:`range_contains` read from ``ap``, the pseudoinverse of A the
    caller already has (at ``tol``), so that A is inverted once for every
    test and product that needs it."""
    a = _as_stack(a)
    b = _as_stack(b)
    if a.shape[-2] != b.shape[-2]:
        raise ValueError("row counts differ")
    return _negligible(a @ ap @ b - b, b, tol)


def null_contains(a, c, tol: ToleranceConfig = DEFAULT_TOL):
    """True iff nul A is contained in nul C, via the C A^+ A = C residual;
    for stacks, one verdict per matrix, as in :func:`range_contains`."""
    a = _as_stack(a)
    c = _as_stack(c)
    if a.shape[-1] != c.shape[-1]:
        raise ValueError("column counts differ")
    return _negligible(c @ pinv(a, tol) @ a - c, c, tol)


def _negligible(resid, b, tol: ToleranceConfig):
    """||resid||_F <= tol.inclusion (1 + ||b||_F); per matrix of a stack."""
    return frob_at_most(resid, b, tol.inclusion, 1.0)


def frob_at_most(x, y, c: float, floor: float):
    """frob(x) <= c (floor + frob(y)) for matrices, or per matrix of stacks
    that broadcast against each other, with frob's bits (and frobs' where a
    sum of squares falls below the normal range) and no numpy warning.

    When the sum of the squares of all of x or of all of y overflows, a
    norm may, so each place is decided on x and y scaled by 2^-k, k from
    the larger modulus of the two there (clamped to +-1021), and floor by
    2^-k: exact scaling, so a verdict that the unscaled norms reach in
    range is kept.  Each of two matrices gives its sum and norm in one pass.
    """
    if x.ndim == y.ndim == 2:
        (xx, fx), (yy, fy) = _squares_and_norm(x), _squares_and_norm(y)
    else:
        # no matrix's sum of squares exceeds its stack's, which np.vdot
        # sums without a warning: when both are finite, no norm overflows
        xx, yy = float(np.vdot(x, x).real), float(np.vdot(y, y).real)
    if xx == 0.0 and not x.any():
        # a zero x meets every bound, c and floor being nonnegative
        ok = np.ones(np.broadcast_shapes(x.shape[:-2], y.shape[:-2],
                                         np.shape(floor)), dtype=bool)
        return bool(ok) if ok.ndim == 0 else ok
    if xx + yy < math.inf:
        if x.ndim == y.ndim == 2:
            return bool(fx <= c * (floor + fy))
        return _in_range_frobs(x) <= c * (floor + _in_range_frobs(y))
    big = np.maximum(_max_modulus(x), _max_modulus(y))
    scale = np.ldexp(1.0, -np.clip(np.frexp(big)[1], -1021, 1021))
    # a finite complex product near the float maximum can raise the flag
    with np.errstate(over="ignore"):
        xs, ys = x * scale[..., None, None], y * scale[..., None, None]
    ok = frobs(xs) <= c * (floor * scale + frobs(ys))
    return bool(ok) if ok.ndim == 0 else ok


def _max_modulus(x: np.ndarray) -> np.ndarray:
    """Largest |re| or |im| of each matrix of a stack (of a matrix, a
    0-d array), which no complex modulus can overflow."""
    return np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=(-2, -1))


def frobs(x: np.ndarray) -> np.ndarray:
    """:func:`frob` of each matrix of a C-ordered stack, with its bits, from
    one stacked call.  Where a sum of squares overflows, or falls below the
    normal range in a matrix with a nonzero entry, the norm is that of the
    matrix scaled by 2^-k (``ldexp`` of its float view: exact, and inf stays
    inf), k from its largest modulus clamped to +-1021, scaled back,
    unwarned; every other matrix keeps its bits."""
    low = None
    # np.vdot sums the stack's squares, which bound each matrix's, unwarned
    if float(np.vdot(x, x).real) < math.inf:
        sq = _squares(x)
        if sq.min(initial=math.inf) >= _TINY:
            return np.sqrt(sq)
        low = (sq < _TINY) & x.any(axis=(-2, -1))
        if not low.any():
            return np.sqrt(sq)
    k = np.clip(np.frexp(_max_modulus(x))[1], -1021, 1021)
    with np.errstate(over="ignore"):
        xs = np.ldexp(x.view(x.real.dtype), -k[..., None, None]).view(x.dtype)
        scaled = np.ldexp(np.sqrt(_squares(xs)), k)
    return scaled if low is None else np.where(low, scaled, np.sqrt(sq))


def _in_range_frobs(x: np.ndarray) -> np.ndarray:
    """:func:`frobs` of a stack none of whose sums of squares overflows."""
    sq = _squares(x)
    if sq.min(initial=math.inf) >= _TINY:
        return np.sqrt(sq)
    return frobs(x)


def _squares(x: np.ndarray) -> np.ndarray:
    """The sum of squares of each matrix of a stack where none overflows:
    the (1, n) @ (n, 1) product of a flattened matrix's real or imaginary
    part with itself is numpy's 1-d dot of it."""
    v = x.reshape(x.shape[:-2] + (1, x.shape[-2] * x.shape[-1]))
    re, im = v.real, v.imag
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return sq[..., 0, 0]


def rank_with_tol(a, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank with an absolute floor, so exact zeros rank 0."""
    m = as_cmat(a)
    if m.size == 0:
        return 0
    sig = np.linalg.svd(m, compute_uv=False)
    cut = tol.psd * max(1.0, float(sig[0]))
    return int(np.sum(sig > cut))


def signature_j(q: int, kind: str = "imaginary") -> np.ndarray:
    """Signature matrix: [[0,-iI],[iI,0]] or the real variant [[0,-I],[-I,0]]."""
    eye = np.eye(q, dtype=complex)
    if kind == "imaginary":
        upper, lower = -1j * eye, 1j * eye
    elif kind == "real":
        upper, lower = -eye, -eye
    else:
        raise ValueError(f"unknown signature kind {kind!r}")
    j = np.zeros((2 * q, 2 * q), dtype=complex)
    j[:q, q:] = upper
    j[q:, :q] = lower
    return j


def j_form(x, j) -> np.ndarray:
    """X^* (-J) X for a stacked 2q-row matrix X, or for each of a stack."""
    x = _as_stack(x)
    j = as_cmat(j)
    if x.shape[-2] != j.shape[0]:
        raise ValueError(
            f"stacked matrix has {x.shape[-2]} rows, signature expects {j.shape[0]}"
        )
    return _adjoint(x) @ (-j) @ x
