"""End-to-end solution of the truncated half-axis moment problem.

The pipeline: classify the sequence, which runs the transform algorithm
once (a caller's classify of the same object stores the run), read the
parameter pair once on ``default_grid``, gate it, then synthesize the
solution

    F = (V_11 phi + V_12 psi) (V_21 phi + V_22 psi)^(-1)

with V the 2q x 2q descent product of the run's diagonal Q_0..Q_m.  When
psi is a constant invertible matrix and phi psi^(-1) = C + sum_i W_i /
(y_i - z) has atoms (``_parameter_atoms``, in either mode), the atoms are
the gate: the pair is admissible exactly when C and every W_i are PSD (a
negative one is refused by name), and it decays exactly when C = 0, so
neither ``pairs.admissibility`` nor ``pairs.in_diamond`` runs.  Any other
pair must be admissible on the grid.  Every pair then meets the range
condition against the top diagonal entry; in the equality problem, the
one decay gate (C = 0 for a pair with atoms, ``pairs.in_diamond`` for any
other); and one gate on the descent denominator D = V_21 phi + V_22 psi,
on the walk's values (``_gate_descent_denominator``).  A pair with atoms
has F read off the diagonal as a continued fraction: one Hermitian block
tridiagonal eigensolve, of T written by slices, gives its nodes and PSD
weights, which ``measures.from_atoms`` turns into F (``_atomic_solution``)
and keeps in F's ``atoms`` slot, where ``verify_solution`` reads them.
Any other pair goes through the kernel ``lft.lft_rational``, which forms V
as a polynomial, slices its q x q blocks and divides out the power of
(z - alpha) that the resolvent introduces.  The low-rank routes lift an
r x r pair into ``solve``, the one solve entry, on the eigenbasis of the
top entry at the rank classify decided; the equality subset is the lift of
(f, I) in eq mode.  The ascent transform is ``solve`` at order 0: the
one-term sequence (A) in eq mode with the parameter (G, I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import lft, matcore, measures, pairs, respoly
from .hankel import ClassReport, MomentSequence, classify
from .matcore import DEFAULT_TOL, PreconditionError, ToleranceConfig
from .pairs import RationalMatFun, StieltjesPair

__all__ = [
    "SolutionRequest",
    "case_of",
    "schur_stieltjes_transform",
    "inverse_schur_stieltjes_transform",
    "solve",
    "solve_degenerate_embedded",
    "solve_equality_subset",
]

CASE_NONDEGENERATE = "NonDegenerate"
CASE_COMPLETELY_DEGENERATE = "CompletelyDegenerate"
CASE_PARTIALLY_DEGENERATE = "PartiallyDegenerate"


@dataclass(frozen=True, eq=False)
class SolutionRequest:
    """A sequence, a parameter pair, and which problem (leq or eq) to solve."""

    seq: MomentSequence
    parameter: StieltjesPair
    mode: str = "leq"

    def __post_init__(self):
        if self.mode not in ("leq", "eq"):
            raise PreconditionError("mode must be 'leq' or 'eq'")
        if self.parameter.q != self.seq.q:
            raise PreconditionError("parameter size must match the sequence")
        if self.parameter.alpha != self.seq.alpha:
            raise PreconditionError("parameter and sequence endpoints differ")


def case_of(seq: MomentSequence, tol: ToleranceConfig = DEFAULT_TOL):
    """(case tag, rank r, top diagonal entry), with classify's rank_top."""
    return _case(classify(seq, tol))


def _case(report: ClassReport):
    r = report.rank_top
    if r == report.q:
        tag = CASE_NONDEGENERATE
    elif r == 0:
        tag = CASE_COMPLETELY_DEGENERATE
    else:
        tag = CASE_PARTIALLY_DEGENERATE
    return tag, r, report.trace.diagonal[-1]


def schur_stieltjes_transform(fun: RationalMatFun, a, alpha: float,
                              tol: ToleranceConfig = DEFAULT_TOL) -> RationalMatFun:
    """One descent step: the transform with seed ``a`` applied to ``fun``.

    Computed as the linear-fractional action of the degree-1 ascent
    generator, G = [(z-alpha)F + A][-(z-alpha)A^+ F + (I - A^+A)]^(-1),
    which matches the pointwise pseudoinverse formula only when ran F(z)
    lies in ran A and nul F(z) in nul A.  The range half is a coefficient
    identity, decided on the numerator coefficients with one pseudoinverse
    of the seed; the first offending degree is named.  The null half, a
    lower bound on the rank of F(z) that no coefficient identity expresses,
    stays on ``default_grid``: one stacked pseudoinverse of the function's
    values tests it and names the first failing grid point.
    """
    a = matcore.hermitize(a, tol)
    failing = np.flatnonzero(~matcore.range_contains(a, fun.num.coeffs, tol))
    if failing.size:
        raise PreconditionError(f"range of the function's degree-{failing[0]} "
                                "numerator coefficient escapes the range of the seed")
    zs, (fz,) = pairs.grid_values((fun,), pairs.default_grid(alpha))
    failing = np.flatnonzero(~matcore.null_contains(fz, a, tol))
    if failing.size:
        raise PreconditionError("null space of the function at "
                                f"{complex(zs[failing[0]])} is not killed by the seed")
    return lft.lft_rational(respoly.w_poly(alpha, a, tol), fun,
                            RationalMatFun.const(np.eye(fun.q)), alpha,
                            "descent")


def inverse_schur_stieltjes_transform(
        fun: RationalMatFun, a, alpha: float,
        tol: ToleranceConfig = DEFAULT_TOL) -> RationalMatFun:
    """One ascent step: F = -A [(z-alpha)(A^+ G + I)]^(-1), ``solve``'s
    solution of the one-term sequence (A) in eq mode for the parameter
    (G, I), so its gates are ``solve``'s: the hermitized seed must be PSD
    (the sequence then classifies as extendable), G admissible by its atoms
    or on ``default_grid``, its numerator coefficients in the range of the
    seed and G decaying (C = 0 for G with atoms, ``pairs.in_diamond``
    otherwise), and the denominator must pass the gate on
    ``default_grid``.  The one-term sequence replaces the sequence in
    ``hankel``'s classify slot.
    """
    return solve(SolutionRequest(
        MomentSequence(alpha, (a,), tol),
        StieltjesPair(alpha, fun, RationalMatFun.const(np.eye(fun.q))), "eq"),
        tol)


def _classified(seq: MomentSequence, tol: ToleranceConfig) -> ClassReport:
    """The report of a sequence certified extendable."""
    report = classify(seq, tol)
    if report.extendable_candidate != "yes":
        raise PreconditionError(
            "sequence is not certified extendable "
            f"(candidate: {report.extendable_candidate}); "
            "the resolvent construction needs every algorithm stage in the cone")
    return report


def solve(req: SolutionRequest,
          tol: ToleranceConfig = DEFAULT_TOL) -> RationalMatFun:
    """All solutions of the truncated problem, one per parameter pair.

    The sequence must classify as extendable (candidate yes).  The pair is
    read once on ``default_grid`` (``pairs.grid_values``: a value that is
    not finite is refused, and a walk that keeps no point raises
    InconsistencyError).  A pair with atoms (``_parameter_atoms``: psi a
    constant invertible matrix and phi psi^(-1) = C + sum_i W_i / (y_i - z)
    with simple real y_i >= alpha, matching the walk) is admissible exactly
    when C and every W_i are PSD, so its atoms gate it: a negative one is
    refused by name.  Any other pair must be admissible on the grid
    (``pairs.admissibility``).  Unless the top diagonal entry has full
    rank, every pair must satisfy the range condition against it.  The
    equality problem then reads the mode, once: a pair with atoms decays
    exactly when C = 0 and is refused with its constant's norm otherwise,
    and any other pair must be in the decaying subclass
    (``pairs.in_diamond``).  Every pair then passes the one gate
    on the descent denominator D = V_21 phi + V_22 psi (V the descent
    product) on the walk's values: at each point D must be finite, its
    norm to the power q, which bounds its determinant, within the float
    range, and sigma_min/sigma_max at least ``tol.det_gate``; no point lies
    on [alpha, inf), where F has its poles and D(alpha) = 0.  A pair with
    atoms is then synthesized from the trace's continued fraction
    (``_atomic_solution``), and refused with GrowthError when the power
    basis of RationalMatFun cannot hold it (its denominator's leading
    coefficients fall under the trim floor); any other pair goes through
    ``lft.lft_rational``, which refuses an identically singular det D.
    Equivalent parameters give the same function.
    """
    seq, pair = req.seq, req.parameter
    report = _classified(seq, tol)
    zs, (ph, ps) = pairs.grid_values((pair.phi, pair.psi),
                                     pairs.default_grid(seq.alpha))
    atoms = _parameter_atoms(pair, zs, ph, tol)
    if atoms is None:
        pre = pairs.admissibility(pair, zs, ph, ps, tol)
        if not pre["ok"]:
            raise PreconditionError(f"parameter pair is not admissible: {pre}")
    tag, r, top = _case(report)
    if r < report.q and not pairs.in_class_P_of(pair, top,
                                                report.trace.pinvs[-1], tol):
        raise PreconditionError(
            "parameter range escapes the range of the top diagonal entry "
            f"(rank {r} case '{tag}')")
    if req.mode == "eq":
        if atoms is not None:
            if atoms[0].any():
                raise PreconditionError(
                    "equality problem needs a decaying parameter; its "
                    f"constant has norm {matcore.frob(atoms[0]):.3e}")
        else:
            decay = pairs.in_diamond(pair)
            if not decay["ok"]:
                raise PreconditionError(
                    "equality problem needs a decaying parameter; quotient "
                    f"residual {decay['residual']:.3e}")
    _gate_descent_denominator(report.trace, zs, ph, ps, tol)
    if atoms is None:
        return lft.lft_rational(respoly.descent_resolvent(report.trace),
                                pair.phi, pair.psi, seq.alpha, "synthesis")
    return _atomic_solution(report.trace, *atoms, tol)


# A parameter's atoms must give its values on ``default_grid`` to this
# relative gap: far above the rounding of a residue at a simple pole, far
# below the error of residues at roots too close to be told apart.
ATOMS_REL = 1e-10
# Nodes alpha + lambda^2 of a synthesized solution whose |lambda| differ by
# at most this fraction of the largest |lambda| = |T| are one node, and a
# |lambda| within it of 0 is 0: eigh gives every eigenvalue of T to about
# eps |T|, so a double eigenvalue comes out as two close ones, and the q
# zero eigenvalues of the Radau case as q nodes near alpha.
MERGE_REL = 1e-12
# A merged weight W at node x is rounding, the share that an eigenvector's
# error gives a node no level reaches, when its share (x - alpha)^j |W| of
# each shifted moment t_j, j <= m, is at most this fraction of |t_j|, or
# when |W| is at most this fraction of |s_0| and a share exceeds its |t_j|,
# as no atom's can (a far node gets such a weight near eps^2 |s_0|).
# Dropped weights reach 1.5e-13 |s_0| on the tests' and bench's sequences.
WEIGHT_REL = 1e-12


def _parameter_atoms(pair: StieltjesPair, zs, ph, tol):
    """(C, y, W) with G = phi psi^(-1) = C + sum_i W_i / (y_i - z), or None.

    The pair has atoms when psi is a constant matrix P with
    sigma_min/sigma_max at least ``tol.det_gate``, G's numerator degree is
    at most its denominator's, the denominator's roots y_i are simple, real
    and at least alpha, and the atoms give G's values at the points ``zs``
    (at least one), from phi's values ``ph`` there, to ``ATOMS_REL``; None
    means only that it has none.  A phi that holds its atoms
    (``measures.from_atoms``) gives them directly: C = 0, y its nodes and
    W_i its weights times P^(-1).  Any other phi is read off its power
    basis: a denominator that is not real is divided, with the numerator,
    by its leading coefficient and must then be exactly real; y are its
    roots, and C and the W_i follow by Horner.  Such a pair is admissible
    exactly when C and every residue W_i are positive semidefinite: one
    that is not, by more than ``tol.psd`` (``matcore.psd_margin``), is
    refused with a PreconditionError that names it and its margin.
    Whether it decays, C = 0, is ``solve``'s decay gate.  C and the W_i
    are returned symmetrized.
    """
    phi, psi = pair.phi, pair.psi
    if len(psi.den) > 1 or psi.num.trimmed().degree:
        return None
    p0 = psi.num.coeffs[0] / psi.den[0]
    sv = np.linalg.svd(p0, compute_uv=False)
    if not sv[-1] >= tol.det_gate * sv[0] > 0.0:
        return None
    p0inv = np.linalg.inv(p0)
    if phi.atoms is not None:
        y, w = phi.atoms
        if len(y) and y[0] < pair.alpha:
            return None
        atoms = matcore.symmetrized(np.concatenate(
            (np.zeros_like(p0)[None], w @ p0inv)))
    else:
        num = phi.num.trimmed().coeffs @ p0inv
        den = phi.den
        d = len(den) - 1
        if den.imag.any():
            # a complex multiple of a real denominator
            num, den = num / den[d], den / den[d]
        if len(num) > d + 1 or den.imag.any():
            return None
        y = npoly.polyroots(den.real)
        if np.iscomplexobj(y):
            return None
        y.sort()
        if d and (y[0] < pair.alpha or not (y[1:] > y[:-1]).all()):
            return None
        c = num[d] / den[d] if len(num) == d + 1 else np.zeros_like(p0)
        den = den.real
        # den'(y) and num(y) by Horner, with the start and order of numpy's
        # polyval of polyder's j den_j and of MatrixPolynomial's evaluation
        slope = d * den[d] + y * 0
        for j in range(d - 1, 0, -1):
            slope = j * den[j] + slope * y
        res = np.full((len(y),) + c.shape, num[-1])
        for coeff in num[-2::-1]:
            res = res * y[:, None, None] + coeff
        atoms = matcore.symmetrized(np.concatenate(
            (c[None], -res / slope[:, None, None])))
    c, w = atoms[0], atoms[1:]
    g = ph @ p0inv
    fit = c + np.dot(1.0 / (y - zs[:, None]),
                     w.reshape(len(y), c.size)).reshape(g.shape)
    if not len(zs) or not np.all(matcore.frob_at_most(fit - g, g, ATOMS_REL,
                                                      0.0)):
        return None
    margins = matcore.psd_margin(atoms)
    bad = margins < -tol.psd
    if bad.any():
        i = int(bad.argmax())
        name = "constant" if i == 0 else f"residue at {y[i - 1]:.6g}"
        raise PreconditionError("parameter pair is not admissible: its "
                                f"{name} has PSD margin {margins[i]:.3e}")
    return c, y, w


def _gate_descent_denominator(trace, zs, top, bottom, tol) -> None:
    """Raise unless D = V_21 top + V_22 bottom passes ``solve``'s gate at
    every point of ``zs``, V = V_0 ... V_m the descent product of
    ``trace`` and (top, bottom) the pair's values there.

    D is formed from the bottom up, one batched product per level:
    V_k(z) = diag(I, (z-alpha) I) [[0, -Q_k], [Q_k^+, I]].  The refusals,
    each decided over all points before the next: a value that is not
    finite (PreconditionError, naming the first such point), |D(z)|^q
    beyond the float range (PreconditionError), which bounds det D(z),
    and ``lft.check_denominator``'s SingularDenominatorError.  A value
    that is not finite has a norm that is not: only a stack whose norms
    fail is searched for one.
    """
    q = len(trace.diagonal[0])
    levels = np.zeros((len(trace.diagonal), 2 * q, 2 * q), dtype=complex)
    levels[:, :q, q:] = np.negative(trace.diagonal)
    levels[:, q:, :q] = trace.pinvs
    levels[:, q:, q:] = np.eye(q)
    u = (zs - trace.input.alpha)[:, None, None]
    x = np.concatenate((top, bottom), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        for level in levels[::-1]:
            x = level @ x
            x[:, q:] *= u
        dens = x[:, q:]
        in_range = np.all(matcore.frobs(dens) ** q < np.inf)
    if not in_range:
        j = matcore.first_non_finite(dens)
        if j is not None:
            raise PreconditionError(f"synthesis denominator at grid point "
                                    f"{complex(zs[j])} is not finite")
        raise PreconditionError("determinant of the synthesis "
                                "denominator leaves the float range")
    lft.check_denominator(dens, tol, "synthesis", zs)


def _atomic_solution(trace, c, y, w, tol: ToleranceConfig) -> RationalMatFun:
    """The solution for the parameter C + sum_i W_i / (y_i - z), read off
    the continued fraction of the diagonal Q_0..Q_m of ``trace``.

    With R_k = Q_k^(1/2), T is Hermitian block tridiagonal with zero
    diagonal blocks and T_{k,k+1} = R_k^+ R_{k+1}; level m couples to one
    block per atom through R_m^+ X W_i^(1/2), and that block to one more
    through (y_i - alpha)^(1/2) I.  For C != 0, Q_m is replaced by
    Q_m (Q_m + C)^+ Q_m and X = Q_m (Q_m + C)^+; else X = I.  The solution
    is R_0 E_0^* (T^2 - (z - alpha))^(-1) E_0 R_0, so one eigensolve
    T = V diag(lambda) V^* gives its nodes alpha + lambda^2 and weights
    (R_0 V_0j)(R_0 V_0j)^*: nodes at least alpha and weights PSD by
    construction.  T's spectrum is symmetric, so the j-th smallest and
    j-th largest eigenvalues give one node; nodes whose |lambda| are within
    ``MERGE_REL`` of each other are merged at their trace-weighted mean,
    those within it of 0 at alpha itself, and rounding weights dropped
    (``WEIGHT_REL``).  All roots and pseudoinverses come from one stacked
    eigensolve of Q_0..Q_m and the W_i, each root's pseudoinverse cut at
    ``tol.pinv_rtol`` of its largest eigenvalue, as ``matcore.pinv`` cuts
    Q_k.  T is written by slices: under each block above the diagonal its
    adjoint, signed zeros included, as eigh reads the lower triangle.
    """
    diagonal, alpha = trace.diagonal, trace.input.alpha
    q = len(diagonal[0])
    m = len(diagonal) - 1
    k = len(y)
    stack = np.concatenate((diagonal, w))
    x = None
    if c.any():
        x = diagonal[m] @ matcore.pinv(diagonal[m] + c, tol)
        stack[m] = x @ diagonal[m]
    lam, vec = np.linalg.eigh(stack)
    lam = np.maximum(lam, 0.0)
    root = np.sqrt(lam)
    kept = lam > tol.pinv_rtol * lam[:, -1:]
    inv = np.divide(1.0, root, out=np.zeros_like(root), where=kept)
    vh = vec.conj().swapaxes(-1, -2)
    roots = (vec * root[:, None, :]) @ vh
    pinvs = (vec * inv[:, None, :]) @ vh

    couple = roots[m + 1:] if x is None else x @ roots[m + 1:]
    blocks = m + 1 + 2 * k
    t = np.zeros((blocks, q, blocks, q), dtype=complex)
    # under level j on the chain, level m for the atoms' first blocks and
    # each first block for its second, (y_i - alpha)^(1/2) I
    chain = (pinvs[:m] @ roots[1:m + 1]).conj().swapaxes(-1, -2)
    for j in range(m):
        t[j + 1, :, j] = chain[j]
    t[m + 1:m + 1 + k, :, m] = (pinvs[m] @ couple).conj().swapaxes(-1, -2)
    spokes = (np.sqrt(y - alpha)[:, None, None]
              * np.eye(q, dtype=complex)).conj().swapaxes(-1, -2)
    for i in range(k):
        t[m + 1 + k + i, :, m + 1 + i] = spokes[i]
    lam, v = np.linalg.eigh(t.reshape(blocks * q, blocks * q))

    p = (roots[0] @ v[:q]).T
    each = p[:, :, None] * p.conj()[:, None, :]
    half = len(lam) // 2
    squares = 0.5 * (lam[:half] ** 2 + lam[::-1][:half] ** 2)
    weights = each[:half] + each[::-1][:half]
    if len(lam) % 2:
        squares = np.append(squares, lam[half] ** 2)
        weights = np.concatenate((weights, each[half:half + 1]))
    order = np.argsort(squares, kind="stable")
    squares, weights = squares[order], weights[order]
    radii = np.sqrt(squares)
    cut = MERGE_REL * radii[-1]
    # an eigenvalue within the cut of 0 is 0: its node is alpha itself
    squares[radii <= cut] = 0.0
    apart = radii[1:] - radii[:-1] > cut
    if not apart.all():
        starts = np.flatnonzero(np.concatenate(([True], apart)))
        mass = weights.trace(axis1=1, axis2=2).real
        first = squares[starts]
        offset = squares - np.repeat(first, np.diff(starts, append=len(squares)))
        total = np.add.reduceat(mass, starts)
        squares = first + np.divide(np.add.reduceat(mass * offset, starts),
                                    total, out=np.zeros_like(total),
                                    where=total > 0.0)
        weights = np.add.reduceat(weights, starts)
    mass = matcore.frobs(weights)
    kept = mass > WEIGHT_REL * matcore.frob(diagonal[0])
    if not kept.all():
        # t_j = sum_k C(j, k) (-alpha)^(j-k) s_k, by synthetic division
        shifted = np.array(trace.input.s)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(shifted) - 1):
                shifted[i + 1:] -= alpha * shifted[i:-1]
            sizes = matcore.frobs(shifted)
            shares = squares[:, None] ** np.arange(len(sizes)) * mass[:, None]
            kept |= ((shares > WEIGHT_REL * sizes).any(axis=1)
                     & (shares <= sizes).all(axis=1))
    return measures.from_atoms(alpha + squares[kept], weights[kept], q)


def _range_basis(a, r: int) -> np.ndarray:
    """Eigenvectors of the r largest eigenvalues of ``a``, r its rank as
    classify decided it.  They span ran a: the pseudoinverse keeps these
    eigenvalues while tol.pinv_rtol is below tol.psd, and ``solve``'s range
    gate tests the lift either way."""
    vals, vecs = np.linalg.eigh(a)
    return vecs[:, np.argsort(vals)[::-1][:r]]


def solve_degenerate_embedded(seq: MomentSequence, pair: StieltjesPair,
                              mode: str = "leq",
                              tol: ToleranceConfig = DEFAULT_TOL) -> RationalMatFun:
    """Solve with a low-rank r x r parameter lifted into the full size on
    the eigenbasis of the range of the top diagonal entry (``_range_basis``).
    """
    _, r, top = _case(_classified(seq, tol))
    if pair.q != r:
        raise PreconditionError(
            f"parameter size {pair.q} must equal the degeneracy rank {r}")
    lifted = pairs.gamma_U_embed(pair.phi, pair.psi, _range_basis(top, r),
                                 pair.alpha)
    return solve(SolutionRequest(seq, lifted, mode), tol)


def solve_equality_subset(seq: MomentSequence, f: RationalMatFun,
                          tol: ToleranceConfig = DEFAULT_TOL) -> RationalMatFun:
    """Parametrize the equality problem by a decaying r x r function.

    r is the rank of the top diagonal entry; the completely degenerate
    case has no free parameter and is redirected to the unique solution.
    """
    if _classified(seq, tol).rank_top == 0:
        raise PreconditionError(
            "completely degenerate sequence: the problem has a unique "
            "solution; call solve with the parameter (O, I)")
    pair = StieltjesPair(seq.alpha, f, RationalMatFun.const(np.eye(f.q)))
    return solve_degenerate_embedded(seq, pair, "eq", tol)
