"""Moment sequences, block Hankel structures, and class membership.

A :class:`MomentSequence` holds the base point ``alpha`` and Hermitian
matrices ``s_0 .. s_m``.  From it we derive the block Hankel stacks, the
interleaved Schur complements, and the classification report that the
solver uses to dispatch between the degeneracy cases.

One slot keeps the sequence, tolerance, report and cone margins of the
last :func:`classify`, read back for the same sequence object (``is``,
whose id the slot's reference keeps from reuse) under an equal tolerance.
One entry suffices for classify -> solve -> verify on one sequence to run
the algorithm once, and retains one sequence at most.  Sequences and trace
stages are read-only, so a stored report is never stale.  The stages'
dominance tests read the diagonal's pseudoinverses from the trace, as the
solver's resolvent product does after it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import matcore
from .matcore import DEFAULT_TOL, PreconditionError, ToleranceConfig

__all__ = [
    "MomentSequence",
    "HankelStack",
    "ClassReport",
    "build_stack",
    "classify",
    "cone_margins",
    "stieltjes_parametrization",
    "inverse_parametrization",
]

_last = (None,) * 4  # (seq, tol, report, margins) of the last classify


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Base point plus a finite tuple of Hermitian q x q matrices."""

    alpha: float
    s: tuple
    tol: InitVar[ToleranceConfig] = DEFAULT_TOL  # hermitizes s; not stored

    def __post_init__(self, tol):
        if not math.isfinite(float(self.alpha)):
            raise ValueError("alpha must be finite")
        if len(self.s) == 0:
            raise ValueError("need at least one moment matrix")
        if len({np.shape(x) for x in self.s}) > 1:
            raise ValueError("all moment matrices must share one size")
        if np.ndim(self.s[0]) != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {np.shape(self.s[0])}")
        # finite entries near the float range can overflow in s + s* or in
        # the shift; name the entry here, not a later stage's non-finite one
        with np.errstate(over="ignore", invalid="ignore"):
            stack = matcore.hermitize(self.s, tol)
            shifted = _shifted(float(self.alpha), stack)
        j = matcore.first_non_finite(stack)
        if j is not None:
            raise ValueError(f"moment s_{j} overflows the float range")
        j = matcore.first_non_finite(shifted)
        if j is not None:
            raise ValueError(f"shifted moment -alpha*s_{j} + s_{j + 1} "
                             "overflows the float range")
        stack.flags.writeable = False
        object.__setattr__(self, "s", tuple(stack))
        object.__setattr__(self, "alpha", float(self.alpha))

    @classmethod
    def _hermitian(cls, alpha: float, mats: tuple) -> "MomentSequence":
        """Matrices the package computed as exactly Hermitian, kept unchecked."""
        if not math.isfinite(alpha):
            raise ValueError("alpha must be finite")
        seq = object.__new__(cls)
        object.__setattr__(seq, "s", mats)
        object.__setattr__(seq, "alpha", float(alpha))
        for x in mats:
            x.flags.writeable = False
        return seq

    @property
    def q(self) -> int:
        return self.s[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.s) - 1

    def shifted(self) -> tuple:
        """The length-m tuple of -alpha*s_j + s_{j+1}."""
        return tuple(_shifted(self.alpha, self.s))

    def restricted(self, ell: int) -> "MomentSequence":
        if not 0 <= ell <= self.m:
            raise ValueError("restriction index out of range")
        return MomentSequence(self.alpha, self.s[: ell + 1])


@dataclass(frozen=True, eq=False)
class HankelStack:
    """The block Hankel matrices and interleaved Schur complements.

    Index conventions (m is the top moment index):
      H[n]       blocks s_{j+k},                     2n     <= m
      Halpha[n]  blocks -alpha*s_{j+k} + s_{j+k+1},  2n + 1 <= m
      L[n]       s_{2n} minus Schur complement,      2n     <= m
      Lalpha[n]  same on the shifted sequence,       2n + 1 <= m
    """

    H: tuple
    Halpha: tuple
    L: tuple
    Lalpha: tuple


def _shifted(alpha: float, mats) -> np.ndarray:
    """The stack of -alpha*s_j + s_{j+1}, j < m."""
    stack = np.asarray(mats)
    return -alpha * stack[:-1] + stack[1:]


def _block_hankel(mats, n: int) -> np.ndarray:
    """The (n+1)q x (n+1)q matrix of blocks s_{j+k}, gathered at once."""
    stack = np.asarray(mats, dtype=complex)
    i = np.arange(n + 1)
    side = (n + 1) * stack.shape[-1]
    return stack[np.add.outer(i, i)].transpose(0, 2, 1, 3).reshape(side, side)


def _theta(mats, n: int, tol: ToleranceConfig):
    """z_{n,2n-1} H_{n-1}^+ y_{n,2n-1}; the scalar 0.0 for n = 0."""
    if n == 0:
        return 0.0
    z = np.hstack([mats[j] for j in range(n, 2 * n)])
    y = np.vstack([mats[j] for j in range(n, 2 * n)])
    return z @ matcore.pinv(_block_hankel(mats, n - 1), tol) @ y


def build_stack(seq: MomentSequence, tol: ToleranceConfig = DEFAULT_TOL) -> HankelStack:
    m = seq.m
    mats = np.array(seq.s)
    shifted = _shifted(seq.alpha, mats)
    return HankelStack(
        H=tuple(_block_hankel(mats, n) for n in range(m // 2 + 1)),
        Halpha=tuple(_block_hankel(shifted, n) for n in range((m - 1) // 2 + 1)),
        L=tuple(matcore.symmetrized(mats[2 * n] - _theta(mats, n, tol))
                for n in range(m // 2 + 1)),
        Lalpha=tuple(matcore.symmetrized(shifted[2 * n] - _theta(shifted, n, tol))
                     for n in range((m - 1) // 2 + 1)),
    )


def stieltjes_parametrization(seq: MomentSequence,
                              tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Interleaved Schur complements (Q_j): even slots from the plain
    sequence, odd slots from the shifted one."""
    stack = build_stack(seq, tol)
    out = []
    for j in range(seq.m + 1):
        k = j // 2
        out.append(stack.L[k] if j % 2 == 0 else stack.Lalpha[k])
    return out


def inverse_parametrization(alpha: float, qs,
                            tol: ToleranceConfig = DEFAULT_TOL) -> MomentSequence:
    """The unique sequence whose interleaved-complement parametrization is
    ``qs``; inverse of :func:`stieltjes_parametrization`."""
    if len(qs) == 0:
        raise ValueError("need at least one parametrization entry")
    qs = matcore.hermitize(qs, tol)
    mats: list = []
    for j, qj in enumerate(qs):
        k = j // 2
        if j % 2 == 0:
            mats.append(_theta(mats, k, tol) + qj)
        else:
            shifted = _shifted(alpha, mats)
            mats.append(alpha * mats[2 * k] + _theta(shifted, k, tol) + qj)
    return MomentSequence(alpha, tuple(map(matcore.symmetrized, mats)), tol)


@dataclass(frozen=True)
class ClassReport:
    """Classification verdicts for one sequence.

    extendable_candidate is three-valued ('yes'/'no'/'unknown'): there is no
    constructive one-shot test for one-step extendability, so it is decided
    by the rules in :func:`classify`'s docstring, from the algorithm's run.

    ``trace`` is the algorithm run the verdicts were read from, which the
    solver reuses; it takes no part in ``==``, ``repr`` or the JSON layout
    (:func:`stieltjesmp.serialize.report_to_json`).
    """

    q: int
    m: int
    hankel_psd: bool
    stieltjes_psd: bool
    stieltjes_pd: bool
    first_term_dominant: bool
    completely_degenerate: bool
    extendable_candidate: str
    rank_top: int
    trace: object = field(default=None, compare=False, repr=False)


def cone_margins(seq: MomentSequence, tol: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """PSD margins of the top block Hankel matrix H_{m//2} and, for m >= 1,
    of the shifted one built from -alpha*s_j + s_{j+1}.

    The sequence lies in the moment cone when both are >= -tol.psd.  The
    slot's margins are returned when it holds ``seq`` under ``tol``.
    """
    slot = _last
    if slot[0] is seq and slot[1] == tol:
        return slot[3]
    return _cone_margins(seq.alpha, seq.s)


def _cone_margins(alpha: float, mats) -> tuple:
    stack = np.asarray(mats)
    m = len(stack) - 1
    tops = [_block_hankel(stack, m // 2)]
    if m >= 1:
        tops.append(_block_hankel(_shifted(alpha, stack), (m - 1) // 2))
    return tuple(matcore.psd_margin(t) for t in tops)


def classify(seq: MomentSequence, tol: ToleranceConfig = DEFAULT_TOL) -> ClassReport:
    """Full membership report, read from one run of the algorithm: the
    slot's when it holds ``seq`` under ``tol``, else computed and stored.

    The moment cone test checks the top plain Hankel matrix together with
    the top shifted one; strict positivity upgrades the verdict.  Q_0..Q_m
    is the algorithm's diagonal, whose steps set a stage of rounding to
    zero; rank_top is the numerical rank of Q_m, and complete degeneracy
    means rank 0.  Stage k is dominated when its later entries lie in
    ran Q_k (for Hermitian matrices, the same as nul Q_k in theirs), tested
    with Q_k^+ from the trace; the first term dominates when stage 0 is.
    The extendability candidate is settled by the first rule that applies:
      1. stage 0 outside the cone: 'no' ('unknown' within the band,
         ``matcore.UNKNOWN_BAND`` = 10 times tol.psd); strictly positive,
         Q_m = 0 or m = 0: 'yes'; not dominated: 'no';
      2. for k = 1..m in turn: a margin of Q_k below -tol.psd, 'no'
         ('unknown' within the band); stage k not dominated, 'no';
      3. otherwise 'yes'.
    Rule 2 is one stacked eigensolve of the diagonal and one stacked range
    test of all stages of the Schur-type algorithm (MR3611479, MR3611471)
    in place of a block-Hankel cone test per stage; the tests check it
    against that stagewise recursion (``oracle_classify``).  The diagonal
    alone does not suffice: a step's outputs are Q_k X Q_k, so ran Q_{k+1}
    lies in ran Q_k even where stage k's later entries leave it.
    """
    global _last
    slot = _last
    if slot[0] is seq and slot[1] == tol:
        return slot[2]
    from . import schur

    trace = schur.transform_trace(seq, tol)
    diag = np.array(trace.diagonal)
    margins = _cone_margins(seq.alpha, trace.stages[0])
    lo = min(margins)
    counts = np.arange(seq.m, 0, -1)
    inside = matcore.in_range(
        np.repeat(diag[:-1], counts, axis=0),
        np.repeat(np.array(trace.pinvs)[:-1], counts, axis=0),
        np.concatenate([st[1:] for st in trace.stages]), tol)
    escaped = np.zeros(seq.m + 1, dtype=bool)
    escaped[np.repeat(np.arange(seq.m), counts)[~inside]] = True
    rank_top = matcore.rank_with_tol(diag[-1], tol)
    band = matcore.UNKNOWN_BAND * tol.psd

    if lo < -tol.psd:
        candidate = "unknown" if abs(lo) < band else "no"
    elif lo >= band or rank_top == 0 or seq.m == 0:
        # strict positivity and complete degeneracy both suffice, and a
        # PSD single term always extends: append alpha*s_0 + s_0
        candidate = "yes"
    elif escaped[0]:
        candidate = "no"
    else:
        # level k fails on Q_k's margin first, then on stage k's tail
        level = matcore.psd_margin(diag[1:])
        fails = np.column_stack([level < -tol.psd, escaped[1:]]).ravel()
        k, tail = divmod(int(fails.argmax()), 2)
        candidate = "yes" if not fails.any() else "no" if tail or \
            abs(level[k]) >= band else "unknown"

    report = ClassReport(
        q=seq.q,
        m=seq.m,
        hankel_psd=margins[0] >= -tol.psd,
        stieltjes_psd=lo >= -tol.psd,
        stieltjes_pd=lo > tol.psd,
        first_term_dominant=not escaped[0],
        completely_degenerate=rank_top == 0,
        extendable_candidate=candidate,
        rank_top=rank_top,
        trace=trace,
    )
    _last = (seq, tol, report, margins)
    return report
