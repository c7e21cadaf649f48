"""Rational matrix functions and admissible function pairs.

A rational matrix function is a matrix polynomial numerator, one stack of
coefficients, over a scalar denominator held as one 1-d array.

A pair (phi, psi) of q x q rational functions is admissible for the
half-axis [alpha, inf) when the stacked column [phi; psi] has full rank,
the imaginary-signature form of the stack and of [(z-alpha)phi; psi] is
positive semidefinite off the real axis, and the real-signature form is
positive semidefinite left of alpha.  Pairs are considered up to right
multiplication by an invertible rational factor; the quotient phi psi^(-1)
is what enters the solution formulas.

The range condition, ran phi(z) inside ran A for every z, is a
polynomial identity: (I - A A^+) annihilates every numerator coefficient
of phi, so ``in_class_P_of`` decides it on the coefficients with the one
pseudoinverse of A its caller has.  The other checks run on a finite grid
(``default_grid``).  ``grid_values`` evaluates functions on all of it at
once, and ``f(z)`` is its walk at the one point z: array Horner on the
numerators, and the pole rule |d(z)| <= POLE_REL |d|(|z|), with |d| the
polynomial of the moduli of d's coefficients, to drop the points that are
numerically poles of any of them.  Each gate then decides from the stacked
values with batched kernels (``matcore`` takes stacks), and the CLI prints
its sampled values from the same walk; a value that overflows is refused
with the grid point it sits at.

``verify_pair`` is that walk on ``default_grid`` and :func:`admissibility`,
the decision from the values; ``solve`` walks the grid itself and asks
:func:`admissibility` only of a pair without atoms.  A pair with a
constant invertible psi and phi psi^(-1) = C + sum_i W_i / (y_i - z) is
decided by its atoms instead, exactly (Kac and Krein): it is admissible
when C >= 0, every W_i >= 0 and every y_i >= alpha, and it decays, which
:func:`in_diamond` tests for the rest, when C = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import matcore
from .matcore import (
    DEFAULT_TOL,
    InconsistencyError,
    PreconditionError,
    SingularDenominatorError,
    ToleranceConfig,
)
from .respoly import (TRIM_REL, MatrixPolynomial, adjugate_poly, det_or_raise,
                      trim_trailing)

__all__ = [
    "RationalMatFun",
    "SIMPLIFY_REL",
    "StieltjesPair",
    "default_grid",
    "pair_from_function",
    "verify_pair",
    "admissibility",
    "in_class_P_of",
    "equivalent",
    "gamma_U_embed",
    "in_diamond",
    "grid_values",
    "POLE_REL",
    "EQUIV_GAP",
]

# A reduced candidate replaces a function in ``simplify`` only if it gives
# its values at every control point to this relative error: loose enough
# for the rounding a coefficient refit leaves, tight enough that a
# candidate of too low a degree shows.
SIMPLIFY_REL = 1e-10

# A point z is numerically a pole of a denominator d when |d(z)| is at most
# this fraction of |d|(|z|), the bound the moduli of d's coefficients give.
POLE_REL = 1e-12


@dataclass(frozen=True, eq=False)
class RationalMatFun:
    """Matrix polynomial numerator over a scalar polynomial denominator
    ``den``: a read-only 1-d complex array, degree-ascending, copied from
    the given sequence without its negligible trailing coefficients.

    ``atoms`` is None, or the function's own pole-residue form
    sum_k W_k / (x_k - z) as read-only arrays (sorted distinct nodes x_k,
    the (n, q, q) stack of W_k).  Only ``measures.from_atoms`` fills it; it
    is no constructor argument, so every other constructor and operation
    (``scale``, ``lmul``, ``rmul``, ``+``, ``@``, ``simplify``) builds a
    function without it."""

    num: MatrixPolynomial
    den: np.ndarray = (1.0 + 0.0j,)
    atoms: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        den = np.atleast_1d(np.array(self.den, dtype=complex))
        # np.hypot has the bits of Python's abs of each coefficient
        sizes = np.hypot(den.real, den.imag).tolist()
        if not sizes:
            raise ValueError("denominator has no coefficients")
        if not all(map(math.isfinite, sizes)):
            raise ValueError("denominator coefficients must be finite")
        den = trim_trailing(den, sizes)
        top = max(sizes[:len(den)])
        if top == 0.0:
            raise ValueError("denominator is identically zero")
        # keep evaluation well scaled: unit-size leading data
        if not (0.5 <= top <= 2.0):
            den = den / top
            object.__setattr__(self, "num", self.num.scale(1.0 / top))
        den.flags.writeable = False
        object.__setattr__(self, "den", den)

    @property
    def shape(self) -> tuple:
        return self.num.shape

    @property
    def q(self) -> int:
        return self.num.shape[0]

    @staticmethod
    def const(a) -> "RationalMatFun":
        return RationalMatFun(MatrixPolynomial.constant(a))

    @staticmethod
    def zero(q: int) -> "RationalMatFun":
        return RationalMatFun(MatrixPolynomial.constant(np.zeros((q, q))))

    def __call__(self, z: complex) -> np.ndarray:
        """The value at z, from :func:`grid_values` at that one point."""
        zs, (values,) = grid_values((self,), (z,))
        if not len(zs):
            raise SingularDenominatorError(
                "evaluation point is numerically a pole",
                stage="evaluation", point=z,
            )
        return values[0]

    def __add__(self, other: "RationalMatFun") -> "RationalMatFun":
        num = self.num.scale_poly(other.den) + other.num.scale_poly(self.den)
        return RationalMatFun(num.trimmed(), npoly.polymul(self.den, other.den))

    def __sub__(self, other: "RationalMatFun") -> "RationalMatFun":
        return self + other.scale(-1.0)

    def __matmul__(self, other: "RationalMatFun") -> "RationalMatFun":
        return RationalMatFun((self.num @ other.num).trimmed(),
                              npoly.polymul(self.den, other.den))

    def scale(self, c: complex) -> "RationalMatFun":
        return RationalMatFun(self.num.scale(c), self.den)

    def lmul(self, a) -> "RationalMatFun":
        a = matcore.as_cmat(a)
        return RationalMatFun(MatrixPolynomial(a @ self.num.coeffs), self.den)

    def rmul(self, a) -> "RationalMatFun":
        a = matcore.as_cmat(a)
        return RationalMatFun(MatrixPolynomial(self.num.coeffs @ a), self.den)

    def proper_residual(self) -> float:
        """Size of the numerator coefficients at or above the denominator
        degree relative to the largest one: zero for a strictly proper
        function, and for the zero function."""
        norms = self.num.coeff_norms()
        top = max(norms)
        if top == 0.0:
            return 0.0
        return float(max(norms[len(self.den) - 1:], default=0.0) / top)

    def simplify(self) -> "RationalMatFun":
        """Rewrite with the smallest denominator degree that fits the values.

        Cancelling a common polynomial factor by root-finding is fragile at
        multiple roots, so instead the reduced form is reconstructed from
        the coefficients: a reduced pair (N, p) represents the same function
        exactly when N * den = num * p as polynomial identities, which is a
        homogeneous linear system in the coefficients of p once N is
        eliminated.  At a trial denominator degree the null vector of that
        system is extracted, the numerator is recovered by least squares
        against the fitted denominator, and the candidate is accepted only
        if it reproduces the function at control points placed near the
        pole scale (where a spuriously low degree shows up first).

        The degrees below dn = deg den that admit a reduced form make an
        interval [dn - g, dn - 1], g the degree of the common factor: a
        reduced pair (N, p) at degree d gives (N l, p l) at d + 1 for any
        linear l.  So the trial degrees run down from dn - 1, the search
        stops at the first one rejected, and the lowest accepted candidate
        wins; a coprime function costs one trial.  If none is accepted,
        the function keeps its coefficients.

        The result is in canonical form: numerator and denominator are
        multiplied by the unit that makes the denominator's leading
        coefficient real and positive, so its coefficients depend on the
        function and not on the phase an SVD null vector happens to have.
        """
        num = self.num.trimmed()
        den = self.den
        dn = len(den) - 1
        if not num.coeffs.any():
            return RationalMatFun(
                MatrixPolynomial.constant(np.zeros(num.shape)), (1.0,))
        if dn > 0:
            nd = num.degree
            num_c = num.coeffs.transpose(1, 2, 0)
            pole_scale, best = None, None
            for d in range(dn - 1, max(0, dn - nd) - 1, -1):
                cand = self._refit(num_c, den, nd - (dn - d), d)
                if cand is None:
                    break
                if pole_scale is None:
                    pole_scale = 1.0 + float(np.abs(npoly.polyroots(den)).max())
                if not self._matches(cand, pole_scale):
                    break
                best = cand
            if best is not None:
                num, den = best.num, best.den
        lead = den[-1]
        if lead.imag != 0.0 or lead.real < 0.0:
            unit = abs(lead) / lead
            den = den * unit
            den[-1] = abs(lead)
            num = num.scale(unit)
        return RationalMatFun(num, den)

    @staticmethod
    def _mul_matrix(poly, width: int) -> np.ndarray:
        """Convolution matrix sending a length-``width`` coefficient vector
        to the coefficients of its product with ``poly``; a stack of
        polynomials (last axis coefficients) gives a stack of matrices."""
        poly = np.asarray(poly, dtype=complex)
        n = poly.shape[-1]
        out = np.zeros(poly.shape[:-1] + (n + width - 1, width), dtype=complex)
        for t in range(width):
            out[..., t:t + n, t] = poly
        return out

    def _refit(self, num_c, den, red_nd: int, d: int):
        """Coefficient-space reconstruction with numerator degree ``red_nd``
        and denominator degree ``d``; None when no candidate exists.

        A trial denominator p works when every num_ij * p lies in the range
        of convolution by ``den``.  Projecting onto the orthogonal
        complement of that range leaves a homogeneous system in the d + 1
        coefficients of p alone; the numerator follows by least squares.
        """
        rows, cols, _ = num_c.shape
        entries = num_c.reshape(rows * cols, -1)
        den_on_num = self._mul_matrix(den, red_nd + 1)
        q_full = np.linalg.qr(den_on_num, mode="complete")[0]
        coker = q_full[:, red_nd + 1:].conj().T
        conv = self._mul_matrix(entries, d + 1)
        system = (coker @ conv).reshape(-1, d + 1)
        # np.vdot sums all squares without a warning: when that sum is
        # finite, no column's overflows
        if float(np.vdot(system, system).real) < math.inf:
            scale = np.linalg.norm(system, axis=0)
        else:
            # a column whose sum of squares overflows is scaled by its
            # largest modulus instead
            with np.errstate(over="ignore"):
                scale = np.linalg.norm(system, axis=0)
                big = np.isinf(scale)
                scale[big] = np.abs(system[:, big]).max(axis=0)
        scale[scale == 0.0] = 1.0
        sv, vh = np.linalg.svd(system / scale, full_matrices=False)[1:]
        if sv[-1] > 1e-6 * sv[0]:
            return None
        new_den = vh[-1].conj() / scale
        # unit peak, so the constructor trims tiny trailing coefficients
        # relative to the denominator's own size
        new_den /= np.abs(new_den).max()
        # Polish: with the denominator fixed the numerator solves the
        # well-conditioned linear system N * den = num * new_den exactly.
        rhs = (conv @ new_den).T
        fit = np.linalg.lstsq(den_on_num, rhs, rcond=None)[0]
        num = MatrixPolynomial(fit.reshape(red_nd + 1, rows, cols))
        try:
            return RationalMatFun(num.trimmed(), new_den)
        except ValueError:
            return None

    def _matches(self, other: "RationalMatFun", pole_scale: float) -> bool:
        points = [pole_scale * t * np.exp(1j * ang) for t, ang in
                  ((0.11, 0.77), (0.43, 2.1), (1.19, -1.3), (2.3, 0.4))]
        _, (refs, gots) = grid_values((self, other), points)
        return len(refs) > 0 and not np.any(
            matcore.frobs(gots - refs)
            > SIMPLIFY_REL * (1.0 + matcore.frobs(refs)))


# default_grid's offsets from alpha: three to its left on the real axis,
# and rings of radius 0.5, 2 and 10 in four directions
_GRID_LEFT = (1.0, 2.0, 5.0)
_GRID_RINGS = tuple(r * np.exp(1j * th) for r in (0.5, 2.0, 10.0)
                    for th in (np.pi / 3, np.pi / 2, 2 * np.pi / 3, -np.pi / 2))


def default_grid(alpha: float) -> tuple:
    """Evaluation points used by the pair checks: three points left of
    alpha on the real axis plus rings of off-axis points around alpha."""
    return (tuple(alpha - d for d in _GRID_LEFT)
            + tuple(alpha + w for w in _GRID_RINGS))


def grid_values(funs, grid) -> tuple:
    """(zs, values): the points of ``grid`` that are poles of none of the
    rational functions ``funs``, as a 1-d complex array in grid order, and
    for each function its values there, stacked along a leading axis.

    A point is a pole of f when |f.den(z)| <= POLE_REL |f.den|(|z|); the
    kept values come from one array Horner per numerator.  What overflows
    is refused, not passed on: PreconditionError names the first point
    where a bound |f.den|(|z|) is not finite, and then the first kept point
    where a function's value is not finite.
    """
    zs = np.asarray(grid, dtype=complex)
    x, y = zs.real, zs.imag
    # moduli by hypot: numpy's vector complex abs rounds differently
    r = np.hypot(x, y)
    keep, bounded = np.ones((2, len(zs)), dtype=bool)
    dens = []
    with np.errstate(over="ignore", invalid="ignore"):
        for f in funs:
            # Horner on real and imaginary parts, so no fused multiply-add
            # can move the bits: numpy's vector complex product may fuse
            # one that separate real products round apart; beside it, the
            # bound |d|(|z|); all three start from the leading coefficient
            rows = np.array((f.den.real, f.den.imag, np.abs(f.den)))[:, ::-1]
            re, im, bound = rows[:, 0].repeat(len(zs)).reshape(3, -1)
            for a, b, c in rows[:, 1:].T.tolist():
                re, im = re * x - im * y + a, re * y + im * x + b
                bound = bound * r + c
            keep &= np.hypot(re, im) > POLE_REL * np.maximum(bound, 1e-300)
            bounded &= bound < np.inf
            dens.append(re + 1j * im)
        if not bounded.all():
            raise PreconditionError(
                "a denominator's size bound at grid point "
                f"{complex(zs[bounded.argmin()])} leaves the float range")
        zs = zs[keep]
        values = tuple(f.num(zs) / dv[keep][:, None, None]
                       for f, dv in zip(funs, dens))
    j = matcore.first_non_finite(np.concatenate(values, axis=-1))
    if j is not None:
        raise PreconditionError(f"a function value at grid point "
                                f"{complex(zs[j])} is not finite")
    return zs, values


@dataclass(frozen=True, eq=False)
class StieltjesPair:
    """A candidate pair (phi, psi) attached to the half-axis [alpha, inf)."""

    alpha: float
    phi: RationalMatFun
    psi: RationalMatFun

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.phi.shape != self.psi.shape or self.phi.shape[0] != self.phi.shape[1]:
            raise ValueError("pair components must be square and equally sized")

    @property
    def q(self) -> int:
        return self.phi.q

    def stack(self, z: complex) -> np.ndarray:
        return np.vstack([self.phi(z), self.psi(z)])


def verify_pair(pair: StieltjesPair,
                tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Check the admissibility conditions on ``default_grid(pair.alpha)``:
    one ``grid_values`` walk of the pair, decided by :func:`admissibility`.

    Returns margins (least eigenvalue ratios, worst over the grid) and
    booleans per condition plus an overall verdict.  Grid points that land
    on poles are skipped and counted; the grid has no point on the
    half-axis [alpha, inf), where admissibility constrains nothing.
    """
    zs, (ph, ps) = grid_values((pair.phi, pair.psi), default_grid(pair.alpha))
    return admissibility(pair, zs, ph, ps, tol)


def admissibility(pair: StieltjesPair, zs, ph, ps,
                  tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """:func:`verify_pair`'s report, decided from the pair's values: ``ph``
    and ``ps``, phi's and psi's values at ``zs``, the points of
    ``default_grid(pair.alpha)`` that the ``grid_values`` walk kept.

    All points are decided at once: one stacked SVD for the rank gaps and
    one batched eigensolve for the margins of every form.  A walk that
    kept no point raises InconsistencyError.
    """
    if not len(zs):
        raise InconsistencyError("every grid point sits on a pole of the pair")
    jt = matcore.signature_j(pair.q, "imaginary")
    jr = matcore.signature_j(pair.q, "real")

    stk = np.concatenate([ph, ps], axis=1)
    sv = np.linalg.svd(stk, compute_uv=False)
    rank_gaps = sv[:, -1] / np.maximum(sv[:, 0], 1e-300)
    off = zs.imag != 0.0
    height = (2.0 * zs.imag[off])[:, None, None]
    stk2 = np.concatenate([(zs[off] - pair.alpha)[:, None, None] * ph[off],
                           ps[off]], axis=1)
    margins = matcore.psd_margin(np.concatenate([
        matcore.j_form(stk[off], jt) / height,
        matcore.j_form(stk2, jt) / height,
        matcore.j_form(stk[~off], jr)]))
    kd1_m, kd2_m, real_m = (float(m.min()) if m.size else 0.0 for m in
                            np.split(margins, [off.sum(), 2 * off.sum()]))
    report = {
        "rank_ok": bool(rank_gaps.min() > 1e-10),
        "min_rank_gap": float(rank_gaps.min()),
        "kd1_margin": kd1_m,
        "kd1_ok": bool(kd1_m >= -tol.psd),
        "kd2_margin": kd2_m,
        "kd2_ok": bool(kd2_m >= -tol.psd),
        "real_axis_margin": real_m,
        "real_axis_ok": bool(real_m >= -tol.psd),
        "skipped_points": len(_GRID_LEFT) + len(_GRID_RINGS) - len(zs),
    }
    report["ok"] = bool(report["rank_ok"] and report["kd1_ok"]
                        and report["kd2_ok"] and report["real_axis_ok"])
    return report


def pair_from_function(fun: RationalMatFun, alpha: float,
                       tol: ToleranceConfig = DEFAULT_TOL) -> StieltjesPair:
    """Wrap a single rational function as the pair (fun, I) and validate."""
    pair = StieltjesPair(alpha, fun, RationalMatFun.const(np.eye(fun.q)))
    report = verify_pair(pair, tol)
    if not report["ok"]:
        failed = [k for k in ("rank_ok", "kd1_ok", "kd2_ok", "real_axis_ok")
                  if not report[k]]
        raise PreconditionError(
            "function does not define an admissible pair; failed: "
            + ", ".join(failed) + f" (report {report})")
    return pair


def in_class_P_of(pair: StieltjesPair, a, ap,
                  tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Range condition: ran phi(z) inside ran a at every z, which holds
    exactly when every numerator coefficient of phi lies in ran a; all of
    them read from ``ap``, the pseudoinverse of ``a`` the caller has."""
    return bool(np.all(matcore.in_range(a, ap, pair.phi.num.coeffs, tol)))


# ``equivalent``'s bound on the spectral-norm gap between span projectors
EQUIV_GAP = 1e-7


def equivalent(p1: StieltjesPair, p2: StieltjesPair) -> bool:
    """Same pair up to an invertible rational right factor.

    Tested as equality of the column spans of the stacked pairs at every
    point of ``default_grid`` (projectors compared in spectral norm, to
    ``EQUIV_GAP``); points where either stack is zero or numerically rank
    deficient are passed over.
    """
    if p1.q != p2.q or p1.alpha != p2.alpha:
        return False
    _, (f1, g1, f2, g2) = grid_values((p1.phi, p1.psi, p2.phi, p2.psi),
                                      default_grid(p1.alpha))
    projectors = []
    usable = True
    for s in (np.concatenate([f1, g1], axis=1), np.concatenate([f2, g2], axis=1)):
        u, sv, _ = np.linalg.svd(s, full_matrices=False)
        usable = usable & (sv[:, 0] >= 1e-250) & (sv[:, -1] >= 1e-10 * sv[:, 0])
        projectors.append(u @ u.conj().swapaxes(-1, -2))
    gaps = np.linalg.svd(projectors[0] - projectors[1], compute_uv=False)
    return bool(np.all(gaps[usable, 0] <= EQUIV_GAP))


def gamma_U_embed(phi: RationalMatFun, psi: RationalMatFun, u,
                  alpha: float) -> StieltjesPair:
    """Lift an r x r pair to a q x q pair supported on the span of ``u``.

    ``u`` is a q x r matrix with orthonormal columns.  The lifted pair is
    (u phi u^*, u psi u^* + (I - u u^*)); the complementary identity block
    keeps the second component invertible.
    """
    u = matcore.as_cmat(u)
    q, r = u.shape
    if phi.q != r or psi.q != r:
        raise PreconditionError("pair size must match the number of columns of u")
    gram = u.conj().T @ u
    if matcore.frob(gram - np.eye(r)) > 1e-10 * max(1.0, q):
        raise PreconditionError("columns of u must be orthonormal")
    comp = np.eye(q, dtype=complex) - u @ u.conj().T

    phi_up = phi.lmul(u).rmul(u.conj().T)
    psi_up = psi.lmul(u).rmul(u.conj().T) + RationalMatFun.const(comp)
    return StieltjesPair(alpha, phi_up, psi_up)


def in_diamond(pair: StieltjesPair) -> dict:
    """Check that the quotient phi psi^(-1) decays along the imaginary axis.

    For a rational pair that is strict properness, judged by degree on the
    unreduced fraction phi.num psi.den adj(psi.num) / (phi.den det psi.num)
    (common factors leave its degree difference unchanged): ``residual``,
    its ``proper_residual``, must be rounding, at most ``TRIM_REL``.  A size
    bound would pass a nonzero limit under large lower coefficients, as in
    I + I/(200 - z).  A pair whose second component is identically
    singular raises SingularDenominatorError.  ``solve`` asks it only of a
    pair without atoms.
    """
    det = det_or_raise(pair.psi.num, "diamond",
                       "second component of the pair is identically singular")
    num = pair.phi.num.scale_poly(pair.psi.den) @ adjugate_poly(pair.psi.num)
    den = npoly.polymul(pair.phi.den, det)
    residual = RationalMatFun(num, den).proper_residual()
    return {"residual": residual, "ok": bool(residual <= TRIM_REL)}
