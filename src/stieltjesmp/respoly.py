"""Matrix polynomials: the two elementary 2q x 2q generator families, their
stagewise compositions, and the indefinite-metric identities.

The descent generator at a seed A is
    [[0, -A], [(z-alpha)A^+, (z-alpha)I]]
and the ascent generator is
    [[(z-alpha)I, A], [-(z-alpha)A^+, I - A^+A]].

Compositions run over the algorithm diagonal of a moment sequence: the
descent product multiplies stage 0 leftmost, the ascent product stage m
leftmost, which is the order that telescopes against the descent product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import DEFAULT_TOL, PreconditionError, ToleranceConfig
from .schur import TransformTrace

__all__ = [
    "MatrixPolynomial",
    "ResolventBlocks",
    "det_poly",
    "adjugate_poly",
    "v_poly",
    "w_poly",
    "descent_resolvent",
    "compose_resolvent",
    "verify_product_identity",
    "verify_j_identities",
]


@dataclass(frozen=True)
class MatrixPolynomial:
    """Matrix-coefficient polynomial, coefficients degree-ascending."""

    coeffs: tuple

    def __post_init__(self):
        mats = tuple(matcore.as_cmat(c) for c in self.coeffs)
        if not mats:
            raise ValueError("polynomial needs at least one coefficient")
        shape = mats[0].shape
        for c in mats:
            if c.shape != shape:
                raise ValueError("coefficients must all have the same shape")
        object.__setattr__(self, "coeffs", mats)

    @property
    def shape(self) -> tuple:
        return self.coeffs[0].shape

    @property
    def size(self) -> int:
        r, c = self.coeffs[0].shape
        if r != c:
            raise ValueError("size is only defined for square coefficients")
        return r

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> np.ndarray:
        acc = self.coeffs[-1].copy()
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc

    def __add__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in polynomial sum")
        n = max(len(self.coeffs), len(other.coeffs))
        zero = np.zeros(self.shape, dtype=complex)
        out = []
        for k in range(n):
            a = self.coeffs[k] if k < len(self.coeffs) else zero
            b = other.coeffs[k] if k < len(other.coeffs) else zero
            out.append(a + b)
        return MatrixPolynomial(tuple(out))

    def __sub__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        return self + other.scale(-1.0)

    def __matmul__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        """Coefficient convolution (noncommutative)."""
        if self.shape[1] != other.shape[0]:
            raise ValueError("inner dimensions do not match")
        n = len(self.coeffs) + len(other.coeffs) - 1
        shape = (self.shape[0], other.shape[1])
        out = [np.zeros(shape, dtype=complex) for _ in range(n)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a @ b
        return MatrixPolynomial(tuple(out))

    def scale(self, c: complex) -> "MatrixPolynomial":
        return MatrixPolynomial(tuple(c * x for x in self.coeffs))

    def scale_poly(self, scalar_coeffs) -> "MatrixPolynomial":
        """Multiply by a scalar polynomial (degree-ascending coefficients)."""
        sc = np.atleast_1d(np.asarray(scalar_coeffs, dtype=complex))
        n = len(self.coeffs) + len(sc) - 1
        out = [np.zeros(self.shape, dtype=complex) for _ in range(n)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(sc):
                out[i + j] += b * a
        return MatrixPolynomial(tuple(out))

    def trimmed(self, rel: float = 1e-13) -> "MatrixPolynomial":
        top = max(matcore.frob(c) for c in self.coeffs)
        cut = rel * max(1.0, top)
        coeffs = list(self.coeffs)
        while len(coeffs) > 1 and matcore.frob(coeffs[-1]) <= cut:
            coeffs.pop()
        return MatrixPolynomial(tuple(coeffs))

    @staticmethod
    def constant(a) -> "MatrixPolynomial":
        return MatrixPolynomial((matcore.as_cmat(a),))

    @staticmethod
    def identity(n: int) -> "MatrixPolynomial":
        return MatrixPolynomial((np.eye(n, dtype=complex),))

    def blocks(self) -> "ResolventBlocks":
        if self.size % 2:
            raise ValueError("block access needs an even size")
        return ResolventBlocks(self)

    def to_json(self) -> dict:
        from . import serialize

        return {
            "size": self.size,
            "coeffs": [serialize.matrix_to_json(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixPolynomial":
        from . import serialize

        return cls(tuple(serialize.matrix_from_json(c) for c in obj["coeffs"]))


@dataclass(frozen=True)
class ResolventBlocks:
    """q x q block view (nw/ne/sw/se) of a 2q x 2q matrix polynomial."""

    full: MatrixPolynomial

    def _slice(self, rows, cols) -> MatrixPolynomial:
        return MatrixPolynomial(tuple(c[rows, cols] for c in self.full.coeffs))

    @property
    def q(self) -> int:
        return self.full.size // 2

    @property
    def nw(self) -> MatrixPolynomial:
        q = self.q
        return self._slice(slice(0, q), slice(0, q))

    @property
    def ne(self) -> MatrixPolynomial:
        q = self.q
        return self._slice(slice(0, q), slice(q, 2 * q))

    @property
    def sw(self) -> MatrixPolynomial:
        q = self.q
        return self._slice(slice(q, 2 * q), slice(0, q))

    @property
    def se(self) -> MatrixPolynomial:
        q = self.q
        return self._slice(slice(q, 2 * q), slice(q, 2 * q))

    def to_json(self) -> dict:
        return {
            "nw": self.nw.to_json(),
            "ne": self.ne.to_json(),
            "sw": self.sw.to_json(),
            "se": self.se.to_json(),
        }


def _adjugate_at(m: np.ndarray) -> np.ndarray:
    """Classical adjugate of one matrix via cofactor minors."""
    n = m.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    adj = np.empty((n, n), dtype=complex)
    rows = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = m[np.ix_(rows != i, rows != j)]
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def _balanced_radius(p: MatrixPolynomial) -> float:
    """Fujiwara-style circle radius at which the leading coefficients of
    ``p`` contribute visibly to the sampled values."""
    norms = [float(np.linalg.norm(c)) for c in p.coeffs]
    top = max(norms)
    if top == 0.0:
        return 1.0
    lead = max(j for j, m in enumerate(norms) if m > 1e-12 * top)
    if lead == 0:
        return 1.0
    radius = 1.0
    for j in range(lead):
        if norms[j] > 0.0:
            radius = max(radius, (norms[j] / norms[lead]) ** (1.0 / (lead - j)))
    return min(radius, 1e4)


def _interp_coeffs(sample_fn, k: int, radius: float) -> np.ndarray:
    """Coefficients (degree-ascending) of a polynomial of degree < ``k``
    given a pointwise evaluator.

    A single sampling circle cannot resolve a wide coefficient dynamic
    range: on a small circle the high-degree coefficients drown in
    rounding noise, which |z|^degree then amplifies at evaluation points
    away from the circle; on a large circle the low-degree coefficients
    drown instead.  So the FFT interpolation runs on several radii and
    each coefficient is taken from the radius with the smallest error
    bound eps * max|samples| / radius^degree."""
    radii = [1.0]
    if radius > 1.5:
        radii.append(float(radius))
    if radius > 30.0:
        radii.insert(1, float(np.sqrt(radius)))
    best = None
    best_err = None
    powers = np.arange(k, dtype=float)
    for r in radii:
        nodes = r * np.exp(2j * np.pi * np.arange(k) / k)
        vals = np.stack([np.asarray(sample_fn(z)) for z in nodes])
        coeffs = np.fft.fft(vals, axis=0) / k
        shape = (slice(None),) + (None,) * (coeffs.ndim - 1)
        coeffs = coeffs / (r ** powers)[shape]
        err = np.finfo(float).eps * float(np.abs(vals).max()) / r ** powers
        if best is None:
            best, best_err = coeffs, err
        else:
            pick = err < best_err
            best[pick] = coeffs[pick]
            best_err = np.minimum(best_err, err)
    return best


def det_poly(p: MatrixPolynomial) -> np.ndarray:
    """Scalar coefficients (degree-ascending) of det p(z).

    Recovered by circle interpolation; exact up to rounding because det p
    has degree at most size * degree.
    """
    q = p.size
    k = q * p.degree + 1
    return _interp_coeffs(lambda z: np.linalg.det(p(z)), k,
                          _balanced_radius(p))


def adjugate_poly(p: MatrixPolynomial) -> MatrixPolynomial:
    """Adjugate of a square matrix polynomial, so that
    p(z) adj(z) = adj(z) p(z) = det p(z) I."""
    q = p.size
    if q == 1:
        return MatrixPolynomial((np.eye(1, dtype=complex),))
    k = max((q - 1) * p.degree + 1, 1)
    coeffs = _interp_coeffs(lambda z: _adjugate_at(p(z)), k,
                            _balanced_radius(p))
    return MatrixPolynomial(tuple(coeffs)).trimmed()


def v_poly(alpha: float, a, tol: ToleranceConfig = DEFAULT_TOL) -> MatrixPolynomial:
    """Degree-1 descent generator for seed matrix ``a``."""
    a = matcore.as_cmat(a)
    ap = matcore.pinv(a, tol)
    q = a.shape[0]
    zero = np.zeros((q, q), dtype=complex)
    eye = np.eye(q, dtype=complex)
    c0 = np.block([[zero, -a], [-alpha * ap, -alpha * eye]])
    c1 = np.block([[zero, zero], [ap, eye]])
    return MatrixPolynomial((c0, c1))


def w_poly(alpha: float, a, tol: ToleranceConfig = DEFAULT_TOL) -> MatrixPolynomial:
    """Degree-1 ascent generator for seed matrix ``a``."""
    a = matcore.as_cmat(a)
    ap = matcore.pinv(a, tol)
    q = a.shape[0]
    zero = np.zeros((q, q), dtype=complex)
    eye = np.eye(q, dtype=complex)
    c0 = np.block([[-alpha * eye, a], [alpha * ap, eye - ap @ a]])
    c1 = np.block([[eye, zero], [-ap, zero]])
    return MatrixPolynomial((c0, c1))


def descent_resolvent(trace: TransformTrace,
                      tol: ToleranceConfig = DEFAULT_TOL) -> ResolventBlocks:
    """The descent product over the diagonal of an algorithm trace, stage-0
    factor leftmost: the generator ``solve`` synthesizes with."""
    alpha, diag = trace.input.alpha, trace.diagonal
    v = v_poly(alpha, diag[0], tol)
    for d in diag[1:]:
        v = v @ v_poly(alpha, d, tol)
    return v.blocks()


def compose_resolvent(trace: TransformTrace,
                      tol: ToleranceConfig = DEFAULT_TOL):
    """Stagewise products over the diagonal of an algorithm trace.

    Returns (descent blocks, ascent blocks).  The descent product is
    :func:`descent_resolvent`; the ascent product has the stage-m factor
    leftmost so that ascent(z) @ descent(z) telescopes to
    (z-alpha)^(m+1) diag(P, I) with P the projector onto the range of the
    top diagonal entry.
    """
    alpha, diag = trace.input.alpha, trace.diagonal
    w = w_poly(alpha, diag[0], tol)
    for d in diag[1:]:
        w = w_poly(alpha, d, tol) @ w
    return descent_resolvent(trace, tol), w.blocks()


def verify_product_identity(alpha: float, a, z: complex,
                            tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Max residual of both orders of the elementary product identity:
    V W = W V = (z-alpha) diag(AA^+, I)."""
    a = matcore.as_cmat(a)
    q = a.shape[0]
    vz = v_poly(alpha, a, tol)(z)
    wz = w_poly(alpha, a, tol)(z)
    proj = a @ matcore.pinv(a, tol)
    target = (z - alpha) * np.block(
        [[proj, np.zeros((q, q))], [np.zeros((q, q)), np.eye(q)]]
    )
    r1 = matcore.frob(vz @ wz - target)
    r2 = matcore.frob(wz @ vz - target)
    return max(r1, r2) / (1.0 + matcore.frob(target))


def _jf(x, jt) -> np.ndarray:
    return matcore.j_form(x, jt)


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

    vz = v_poly(alpha, b, tol)(z)
    wz = w_poly(alpha, b, tol)(z)
    dz = np.block([[u * eye, zero], [zero, eye]])

    out: dict = {}

    def rel(x, y):
        return matcore.frob(x - y) / (1.0 + matcore.frob(y))

    out["w_isometry"] = rel(_jf(wz, jt), _jf(dz, jt))

    lhs = _jf(dz @ wz, jt)
    pform = _jf(np.block([[proj, zero], [zero, eye]]), jt)
    corr = np.block([[bp, zero], [zero, zero]])
    tail = _jf(np.block([[u ** 2 * (eye - proj), zero], [zero, eye]]), jt)
    rhs = abs(u) ** 2 * (pform - 2.0 * np.imag(z) * corr) + tail
    out["w_scaled_expansion"] = rel(lhs, rhs)

    base = _jf(np.block([[u * b, zero], [zero, bp]]), jt)
    bump = 2.0 * np.imag(z) * np.block([[zero, zero], [zero, b]])
    out["v_metric"] = rel(_jf(vz, jt), base + bump)
    out["v_metric_scaled"] = rel(
        _jf(dz @ vz, jt),
        abs(u) ** 2 * _jf(np.block([[b, zero], [zero, bp]]), jt),
    )

    const = np.block([[eye, b], [-bp, eye - bp @ b]])
    out["j_conjugation"] = rel(_jf(const, jt), -jt)

    out["projector_forms"] = rel(
        _jf(np.block([[b, zero], [zero, bp]]), jt),
        _jf(np.block([[proj, zero], [zero, eye]]), jt),
    )
    out["projector_forms_scaled"] = rel(
        _jf(np.block([[u * b, zero], [zero, bp]]), jt),
        _jf(np.block([[u * proj, zero], [zero, eye]]), jt),
    )

    if a is not None:
        a = matcore.hermitize(a, tol)
        if not matcore.null_contains(a, b, tol):
            raise PreconditionError("weighted identities need nul(a) <= nul(b)")
        ap = matcore.pinv(a, tol)
        wa = np.block([[a, zero], [zero, ap]])
        out["v_weighted"] = rel(_jf(wa @ vz, jt), base + bump)
        wa2 = np.block([[u * a, zero], [zero, ap]])
        out["v_weighted_scaled"] = rel(
            _jf(wa2 @ vz, jt),
            abs(u) ** 2 * _jf(np.block([[b, zero], [zero, bp]]), jt),
        )
    return out
