"""End-to-end solution of the truncated half-axis moment problem.

The pipeline: classify the sequence, which runs the transform algorithm
once (a caller's classify of the same object stores the run), build the
descent resolvent from that run's diagonal, gate the parameter pair
(admissibility, range condition against the top diagonal entry, decay for
the equality problem), then synthesize the solution

    F = (V_11 phi + V_12 psi) (V_21 phi + V_22 psi)^(-1)

with V the 2q x 2q descent product and the kernel ``lft.lft_rational``,
which slices its q x q blocks, gates its denominator on the grid
and divides out the power of (z - alpha) that the resolvent introduces.
The low-rank routes lift an r x r pair into ``solve``, the one solve
entry, on the eigenbasis of the top entry at the rank classify decided;
the equality subset is the lift of (f, I) in eq mode.  The two
function transforms share one seed intake and one synthesis call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lft, matcore, pairs, respoly
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
    generator, G = [(z-a)F + A][-(z-a)A^+ F + (I - A^+A)]^(-1), which only
    matches the pointwise pseudoinverse formula when ran F(z) lies in ran A
    and nul F(z) in nul A.  The range half is a coefficient identity,
    decided on the numerator coefficients with one pseudoinverse of the
    seed; the first offending degree is named.  The null half stays on
    ``default_grid``: it bounds the rank of F(z) from below at each point,
    which no identity among the coefficients expresses, so it is tested on
    one stacked pseudoinverse of the function's values and names the first
    failing grid point.
    """
    a = _seed(a, fun, tol)
    zs, (fz,) = pairs.grid_values((fun,), pairs.default_grid(alpha))
    failing = np.flatnonzero(~matcore.null_contains(fz, a, tol))
    if failing.size:
        raise PreconditionError("null space of the function at "
                                f"{complex(zs[failing[0]])} is not killed by the seed")
    return _step(respoly.w_poly(alpha, a, tol), fun, alpha, tol, "descent")


def _seed(a, fun: RationalMatFun, tol: ToleranceConfig) -> np.ndarray:
    """The hermitized seed ``a``; raises unless every numerator coefficient
    of ``fun`` lies in its range, naming the lowest degree that does not."""
    a = matcore.hermitize(a, tol)
    failing = np.flatnonzero(~matcore.range_contains(a, fun.num.coeffs, tol))
    if failing.size:
        raise PreconditionError(f"range of the function's degree-{failing[0]} "
                                "numerator coefficient escapes the range of the seed")
    return a


def _step(gen, fun: RationalMatFun, alpha: float, tol, stage: str):
    """The action of the degree-1 generator ``gen`` on the pair (fun, I)."""
    return lft.lft_rational(gen, fun, RationalMatFun.const(np.eye(fun.q)),
                            alpha, tol, stage=stage)


def inverse_schur_stieltjes_transform(
        fun: RationalMatFun, a, alpha: float,
        tol: ToleranceConfig = DEFAULT_TOL) -> RationalMatFun:
    """One ascent step: F = -A [(z-alpha)(A^+ G + I)]^(-1).

    Requires a PSD seed and an input that decays along the imaginary axis
    with range inside the range of the seed.
    """
    a = _seed(a, fun, tol)
    if not matcore.is_psd(a, tol):
        raise PreconditionError("seed of the ascent transform must be PSD")
    decay = pairs.in_diamond(
        StieltjesPair(alpha, fun, RationalMatFun.const(np.eye(fun.q))))
    if not decay["ok"]:
        raise PreconditionError("function does not decay along the imaginary "
                                f"axis: residual {decay['residual']:.3e}")
    return _step(respoly.v_poly(alpha, a, tol), fun, alpha, tol, "ascent")


def _classified(seq: MomentSequence, tol: ToleranceConfig) -> ClassReport:
    """The report of a sequence certified extendable."""
    report = classify(seq, tol)
    if report.extendable_candidate != "yes":
        raise PreconditionError(
            "sequence is not certified extendable "
            f"(candidate: {report.extendable_candidate}); "
            "the resolvent construction needs every algorithm stage in the cone")
    return report


def solve(req: SolutionRequest, tol: ToleranceConfig = DEFAULT_TOL,
          grid=None) -> RationalMatFun:
    """All solutions of the truncated problem, one per parameter pair.

    Gates: the sequence must classify as extendable (candidate yes); the
    pair must be admissible on ``default_grid``; unless the top diagonal
    entry has full rank the pair must satisfy the range condition against
    it; the equality problem additionally requires the decaying subclass.
    ``grid`` holds the synthesis denominator gate's points.  Equivalent
    parameters give the same function.
    """
    seq = req.seq
    report = _classified(seq, tol)
    grid = pairs.default_grid(seq.alpha) if grid is None else tuple(grid)
    tag, r, top = _case(report)
    pre = pairs.verify_pair(req.parameter, tol)
    if not pre["ok"]:
        raise PreconditionError(f"parameter pair is not admissible: {pre}")
    if r < seq.q and not pairs.in_class_P_of(req.parameter, top,
                                             report.trace.pinvs[-1], tol):
        raise PreconditionError(
            "parameter range escapes the range of the top diagonal entry "
            f"(rank {r} case '{tag}')")
    if req.mode == "eq":
        decay = pairs.in_diamond(req.parameter)
        if not decay["ok"]:
            raise PreconditionError(
                "equality problem needs a decaying parameter; quotient "
                f"residual {decay['residual']:.3e}")

    gen = respoly.descent_resolvent(report.trace)
    return lft.lft_rational(gen, req.parameter.phi, req.parameter.psi,
                            seq.alpha, tol, grid, stage="synthesis")


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
