"""Matrix polynomials: the two elementary 2q x 2q generator families, their
stagewise compositions, and the indefinite-metric identities.

A matrix polynomial is one read-only coefficient stack, and every operation
works on the stack: evaluation takes a point or an array of points, so the
determinant and adjugate sample all their interpolation circles in one
call, and the coefficient norms behind every trim and scale are read per
stack, from one ``matcore.frobs`` call with ``matcore.frob``'s bits.  A
product forms every coefficient product in one stacked matmul.  A product
of a row-stacked polynomial has, in each row block, the bits of that
block's own product, so ``lft.lft_rational`` forms its numerator and
denominator from one product per pair component.  Tests pin these kernels
(norms, Horner, the interpolation, the synthesis's products) to the bytes
of literal one-call-per-matrix copies in ``tests/oracles.py``.
``det_or_raise`` gives the determinant to the two callers that divide by
it, ``lft.lft_rational`` and ``pairs.in_diamond``, refusing a zero one
and one beyond the float range (``solver.solve`` gates D(z) pointwise).

The descent generator at a seed A is
    [[0, -A], [(z-alpha)A^+, (z-alpha)I]]
and the ascent generator is
    [[(z-alpha)I, A], [-(z-alpha)A^+, I - A^+A]].

Compositions run over the algorithm diagonal of a moment sequence: the
descent product multiplies stage 0 leftmost, the ascent product stage m
leftmost, which is the order that telescopes against the descent product.
They take every seed's pseudoinverse from the trace, and each accumulates
its factors into one coefficient stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import (DEFAULT_TOL, PreconditionError, SingularDenominatorError,
                      ToleranceConfig, j_form)

__all__ = [
    "MatrixPolynomial",
    "trim_trailing",
    "det_poly",
    "det_or_raise",
    "adjugate_poly",
    "v_poly",
    "w_poly",
    "descent_resolvent",
    "compose_resolvent",
    "verify_product_identity",
    "verify_j_identities",
]


def trim_trailing(stack, sizes):
    """``stack`` (degree-ascending coefficients) without its trailing
    entries of size at most ``matcore.TRIM_REL`` * max(1, largest size),
    the rounding left by the products that formed them (a few hundred
    ulps), not a degree the polynomial has; ``sizes`` holds the size of
    each entry.  The constant entry always stays."""
    cut = matcore.TRIM_REL * max(1.0, max(sizes))
    n = len(stack)
    while n > 1 and sizes[n - 1] <= cut:
        n -= 1
    return stack[:n]


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Matrix-coefficient polynomial: ``coeffs`` is a read-only complex
    array of shape (degree + 1, rows, cols), degree-ascending, copied from
    the sequence of equally shaped matrices the constructor is given."""

    coeffs: np.ndarray

    def __post_init__(self):
        stack = np.array(self.coeffs, dtype=complex)
        if stack.ndim != 3 or not len(stack) or not np.isfinite(stack).all():
            raise ValueError("coefficients must be finite equal-shape matrices")
        stack.flags.writeable = False
        object.__setattr__(self, "coeffs", stack)

    @property
    def shape(self) -> tuple:
        return self.coeffs.shape[1:]

    @property
    def size(self) -> int:
        r, c = self.shape
        if r != c:
            raise ValueError("size is only defined for square coefficients")
        return r

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff_norms(self) -> list:
        """Frobenius norm of each coefficient, degree-ascending: one stacked
        ``matcore.frobs`` call, with ``matcore.frob``'s bits."""
        return matcore.frobs(self.coeffs).tolist()

    def __call__(self, z) -> np.ndarray:
        """Horner evaluation at a point; at an array of points, the values
        stacked along the leading axes of the array."""
        cs = self.coeffs
        n = len(cs) - 1
        acc = cs[n]
        z = np.asarray(z)
        if z.ndim:
            z = z[..., None, None]
            # fill to the full shape first: at one point, 1 x 1 coefficients
            # would round unlike the single-point product, which the stack
            # must equal
            acc = np.empty(z.shape[:-2] + self.shape, dtype=complex)
            acc[...] = cs[n]
        for k in range(n - 1, -1, -1):
            acc = acc * z + cs[k]
        return acc if n or z.ndim else acc.copy()

    def __add__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in polynomial sum")
        n = max(len(self.coeffs), len(other.coeffs))
        a, b = (np.concatenate((p.coeffs, np.zeros((n - p.degree - 1,) + p.shape)))
                for p in (self, other))
        return MatrixPolynomial(a + b)

    def __sub__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        return self + other.scale(-1.0)

    def __matmul__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        """Coefficient convolution (noncommutative)."""
        if self.shape[1] != other.shape[0]:
            raise ValueError("inner dimensions do not match")
        return MatrixPolynomial(_convolve(self.coeffs, other.coeffs))

    def scale(self, c: complex) -> "MatrixPolynomial":
        return MatrixPolynomial(c * self.coeffs)

    def scale_poly(self, scalar_coeffs) -> "MatrixPolynomial":
        """Multiply by a scalar polynomial (degree-ascending coefficients)."""
        sc = np.atleast_1d(np.asarray(scalar_coeffs, dtype=complex))
        n = len(self.coeffs)
        out = np.zeros((n + len(sc) - 1,) + self.shape, dtype=complex)
        # descending j adds the terms of each output coefficient in the
        # order of __matmul__, ascending in the matrix coefficient
        for j in range(len(sc) - 1, -1, -1):
            out[j:j + n] += sc[j] * self.coeffs
        return MatrixPolynomial(out)

    def trimmed(self) -> "MatrixPolynomial":
        """Without the trailing coefficients ``trim_trailing`` drops; the
        polynomial itself when it drops none, as it does a constant."""
        if len(self.coeffs) == 1:
            return self
        kept = trim_trailing(self.coeffs, self.coeff_norms())
        return self if len(kept) == len(self.coeffs) else MatrixPolynomial(kept)

    @staticmethod
    def constant(a) -> "MatrixPolynomial":
        return MatrixPolynomial((a,))


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficient stack of the product of the polynomials with stacks
    ``x`` and ``y``: every row of ``x`` times all of ``y`` in one stacked
    product, then row i's products accumulated in ascending i."""
    width = len(y)
    out = np.zeros((len(x) + width - 1, x.shape[1], y.shape[2]),
                   dtype=complex)
    prods = x[:, None] @ y[None]
    for i in range(len(x)):
        out[i:i + width] += prods[i]
    return out


def _adjugates(m: np.ndarray) -> np.ndarray:
    """Classical adjugates of a stack of n x n matrices, from all cofactor
    minors of all of them in one determinant call:
    adj[..., j, i] = (-1)^(i+j) det(m without row i and column j)."""
    n = m.shape[-1]
    # others[i] lists the indices other than i, ascending
    others = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    minors = m[..., others[:, None, :, None], others[None, :, None, :]]
    sign = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
    return (sign * np.linalg.det(minors)).swapaxes(-1, -2)


def _balanced_radius(p: MatrixPolynomial) -> float:
    """Fujiwara-style circle radius at which the leading coefficients of
    ``p`` contribute visibly to the sampled values."""
    norms = p.coeff_norms()
    top = max(norms)
    if top == 0.0:
        return 1.0
    lead = max(j for j, m in enumerate(norms) if m > matcore.LEAD_REL * top)
    if lead == 0:
        return 1.0
    radius = 1.0
    for j in range(lead):
        if norms[j] > 0.0:
            radius = max(radius, (norms[j] / norms[lead]) ** (1.0 / (lead - j)))
    return min(radius, 1e4)


def _interp_coeffs(p: MatrixPolynomial, fn, k: int) -> np.ndarray:
    """Coefficients (degree-ascending) of fn(p(z)), a polynomial of degree
    < ``k``, where ``fn`` maps a stack of values of ``p`` to a stack.

    A single sampling circle cannot resolve a wide coefficient dynamic
    range: on a small circle the high-degree coefficients drown in
    rounding noise, which |z|^degree then amplifies at evaluation points
    away from the circle; on a large circle the low-degree coefficients
    drown instead.  So the FFT interpolation runs on several radii, all
    sampled at once: one evaluation of ``p`` at the k nodes of every
    circle, one ``fn`` call and one FFT; each coefficient is taken from
    the radius with the smallest error bound
    eps * max|samples| / radius^degree, the first on a tie."""
    if not p.degree:
        # one circle, radius 1, one node, 1, and a length-1 FFT is the
        # identity; the circle's two complex divisions by 1 (by k and by
        # radius^0) stay, since they turn some zeros' signs
        return fn(p.coeffs) / 1 / 1.0
    radius = _balanced_radius(p)
    radii = [1.0]
    if radius > 1.5:
        radii.append(float(radius))
    if radius > 30.0:
        radii.insert(1, float(np.sqrt(radius)))
    nodes = np.array(radii)[:, None] * np.exp(2j * np.pi * np.arange(k) / k)
    vals = fn(p(nodes))
    coeffs = np.fft.fft(vals, axis=1) / k
    shape = (slice(None),) + (None,) * (coeffs.ndim - 2)
    powers = np.arange(k, dtype=float)
    best = best_err = None
    for r, c, v in zip(radii, coeffs, vals):
        scale = r ** powers
        c = c / scale[shape]
        err = np.finfo(float).eps * float(np.abs(v).max()) / scale
        if best is None:
            best, best_err = c, err
        else:
            pick = err < best_err
            best[pick] = c[pick]
            best_err = np.minimum(best_err, err)
    return best


def det_poly(p: MatrixPolynomial) -> np.ndarray:
    """Scalar coefficients (degree-ascending) of det p(z).

    Recovered by circle interpolation; exact up to rounding because det p
    has degree at most size * degree.
    """
    return _interp_coeffs(p, np.linalg.det, p.size * p.degree + 1)


def det_or_raise(den: MatrixPolynomial, stage: str, message: str) -> np.ndarray:
    """Coefficients of det den(z); SingularDenominatorError(``message``),
    tagged ``stage``, if it vanishes identically.

    Relative to the size of ``den``, floored at 1 (``matcore.DET_ZERO_REL``):
    the coefficient trims cut at an absolute ``matcore.TRIM_REL`` below unit
    size, so a purely relative test would pass trim noise.
    A determinant whose coefficients or size bound leave the float range
    is refused with PreconditionError naming ``stage``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        det = det_poly(den)
    try:
        bound = max(den.coeff_norms()) ** den.size
    except OverflowError:
        bound = np.inf
    if not (np.isfinite(det).all() and bound < np.inf):
        raise PreconditionError(f"determinant of the {stage} denominator "
                                "leaves the float range")
    if np.abs(det).max() <= matcore.DET_ZERO_REL * max(1.0, bound):
        raise SingularDenominatorError(message, stage=stage, gap=0.0)
    return det


def adjugate_poly(p: MatrixPolynomial) -> MatrixPolynomial:
    """Adjugate of a square matrix polynomial, so that
    p(z) adj(z) = adj(z) p(z) = det p(z) I.

    Every interpolated coefficient is kept: a top coefficient small next
    to the largest one can still dominate at |z| beyond the Fujiwara
    radius, where |z|^j multiplies it."""
    if p.size == 1:
        # the determinant of the empty minor
        return MatrixPolynomial.constant(np.ones((1, 1)))
    k = (p.size - 1) * p.degree + 1
    return MatrixPolynomial(_interp_coeffs(p, _adjugates, k))


def _block2(nw, ne, sw, se) -> np.ndarray:
    """The 2q x 2q matrix [[nw, ne], [sw, se]] of q x q blocks."""
    q = len(nw)
    out = np.empty((2 * q, 2 * q), dtype=complex)
    out[:q, :q], out[:q, q:], out[q:, :q], out[q:, q:] = nw, ne, sw, se
    return out


def _v_coeffs(alpha: float, a: np.ndarray, ap: np.ndarray) -> np.ndarray:
    """Coefficient stack (c0, c1) of the descent generator for the seed
    ``a`` with pseudoinverse ``ap``."""
    eye = np.eye(len(a), dtype=complex)
    zero = np.zeros_like(eye)
    return np.array((_block2(zero, -a, -alpha * ap, -alpha * eye),
                     _block2(zero, zero, ap, eye)))


def _w_coeffs(alpha: float, a: np.ndarray, ap: np.ndarray) -> np.ndarray:
    """Coefficient stack (c0, c1) of the ascent generator for the seed
    ``a`` with pseudoinverse ``ap``."""
    eye = np.eye(len(a), dtype=complex)
    zero = np.zeros_like(eye)
    return np.array((_block2(-alpha * eye, a, alpha * ap, eye - ap @ a),
                     _block2(eye, zero, -ap, zero)))


def v_poly(alpha: float, a, tol: ToleranceConfig = DEFAULT_TOL) -> MatrixPolynomial:
    """Degree-1 descent generator for seed matrix ``a``."""
    a = matcore.as_cmat(a)
    return MatrixPolynomial(_v_coeffs(alpha, a, matcore.pinv(a, tol)))


def w_poly(alpha: float, a, tol: ToleranceConfig = DEFAULT_TOL) -> MatrixPolynomial:
    """Degree-1 ascent generator for seed matrix ``a``."""
    a = matcore.as_cmat(a)
    return MatrixPolynomial(_w_coeffs(alpha, a, matcore.pinv(a, tol)))


def descent_resolvent(trace: TransformTrace) -> MatrixPolynomial:
    """The descent product over the diagonal of an algorithm trace, stage-0
    factor leftmost: the generator ``solve`` synthesizes with.

    Each factor is :func:`v_poly` of its diagonal entry, built from the
    trace's pseudoinverse of it; the product is formed left to right with
    the arithmetic of ``MatrixPolynomial.__matmul__``.
    """
    alpha = trace.input.alpha
    seeds = list(zip(trace.diagonal, trace.pinvs))
    acc = _v_coeffs(alpha, *seeds[0])
    for a, ap in seeds[1:]:
        acc = _convolve(acc, _v_coeffs(alpha, a, ap))
    return MatrixPolynomial(acc)


def compose_resolvent(trace: TransformTrace):
    """Stagewise products over the diagonal of an algorithm trace.

    Returns the 2q x 2q polynomials (descent, ascent).  The descent product
    is :func:`descent_resolvent`; the ascent product of :func:`w_poly`
    factors has the stage-m factor leftmost, formed by multiplying each
    later factor on the left, so that ascent(z) @ descent(z) telescopes to
    (z-alpha)^(m+1) diag(P, I) with P the projector onto the range of the
    top diagonal entry.  Both read the trace's pseudoinverses.
    """
    alpha = trace.input.alpha
    seeds = list(zip(trace.diagonal, trace.pinvs))
    acc = _w_coeffs(alpha, *seeds[0])
    for a, ap in seeds[1:]:
        acc = _convolve(_w_coeffs(alpha, a, ap), acc)
    return descent_resolvent(trace), MatrixPolynomial(acc)


def verify_product_identity(alpha: float, a, z: complex,
                            tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Max residual of both orders of the elementary product identity:
    V W = W V = (z-alpha) diag(AA^+, I)."""
    a = matcore.as_cmat(a)
    ap = matcore.pinv(a, tol)
    vz = MatrixPolynomial(_v_coeffs(alpha, a, ap))(z)
    wz = MatrixPolynomial(_w_coeffs(alpha, a, ap))(z)
    proj = a @ ap
    zero = np.zeros_like(a)
    target = (z - alpha) * _block2(proj, zero, zero, np.eye(len(a)))
    r1 = matcore.frob(vz @ wz - target)
    r2 = matcore.frob(wz @ vz - target)
    return max(r1, r2) / (1.0 + matcore.frob(target))


def verify_j_identities(alpha: float, b, z: complex, a=None,
                        tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Residuals of the indefinite-metric identities at one point.

    Always evaluated for the Hermitian seed ``b``:
      w_isometry            ascent generator leaves the metric of
                            diag((z-alpha)I, I) invariant
      w_scaled_expansion    metric of diag((z-alpha)I, I) W(z) equals the
                            |z-alpha|^2-weighted projector form plus the
                            rank-defect correction
      v_metric              metric of V(z) against diag((z-alpha)B, B^+)
                            plus 2 Im(z) diag(0, B)
      v_metric_scaled       metric of diag((z-alpha)I, I) V(z) against
                            |z-alpha|^2 times the diag(B, B^+) form
      j_conjugation         the constant factor [[I, B],[-B^+, I-B^+B]] is
                            a metric isometry
      projector_forms       diag(B, B^+) and diag(BB^+, I) give equal forms
      projector_forms_scaled  same with the (z-alpha) weighting

    With a second Hermitian matrix ``a`` (requires nul a <= nul b):
      v_weighted            diag(a, a^+)-weighted V(z) metric identity
      v_weighted_scaled     diag((z-alpha)a, a^+)-weighted variant
    """
    b = matcore.hermitize(b, tol)
    q = b.shape[0]
    jt = matcore.signature_j(q, "imaginary")
    eye = np.eye(q, dtype=complex)
    zero = np.zeros((q, q), dtype=complex)
    bp = matcore.pinv(b, tol)
    proj = b @ bp
    u = z - alpha

    vz = MatrixPolynomial(_v_coeffs(alpha, b, bp))(z)
    wz = MatrixPolynomial(_w_coeffs(alpha, b, bp))(z)
    dz = _block2(u * eye, zero, zero, eye)

    out: dict = {}

    def rel(x, y):
        return matcore.frob(x - y) / (1.0 + matcore.frob(y))

    out["w_isometry"] = rel(j_form(wz, jt), j_form(dz, jt))

    lhs = j_form(dz @ wz, jt)
    pform = j_form(_block2(proj, zero, zero, eye), jt)
    corr = _block2(bp, zero, zero, zero)
    tail = j_form(_block2(u ** 2 * (eye - proj), zero, zero, eye), jt)
    rhs = abs(u) ** 2 * (pform - 2.0 * np.imag(z) * corr) + tail
    out["w_scaled_expansion"] = rel(lhs, rhs)

    base = j_form(_block2(u * b, zero, zero, bp), jt)
    bump = 2.0 * np.imag(z) * _block2(zero, zero, zero, b)
    out["v_metric"] = rel(j_form(vz, jt), base + bump)
    out["v_metric_scaled"] = rel(
        j_form(dz @ vz, jt),
        abs(u) ** 2 * j_form(_block2(b, zero, zero, bp), jt),
    )

    const = _block2(eye, b, -bp, eye - bp @ b)
    out["j_conjugation"] = rel(j_form(const, jt), -jt)

    out["projector_forms"] = rel(
        j_form(_block2(b, zero, zero, bp), jt),
        j_form(_block2(proj, zero, zero, eye), jt),
    )
    out["projector_forms_scaled"] = rel(
        j_form(_block2(u * b, zero, zero, bp), jt),
        j_form(_block2(u * proj, zero, zero, eye), jt),
    )

    if a is not None:
        a = matcore.hermitize(a, tol)
        if not matcore.null_contains(a, b, tol):
            raise PreconditionError("weighted identities need nul(a) <= nul(b)")
        ap = matcore.pinv(a, tol)
        wa = _block2(a, zero, zero, ap)
        out["v_weighted"] = rel(j_form(wa @ vz, jt), base + bump)
        wa2 = _block2(u * a, zero, zero, ap)
        out["v_weighted_scaled"] = rel(
            j_form(wa2 @ vz, jt),
            abs(u) ** 2 * j_form(_block2(b, zero, zero, bp), jt),
        )
    return out
