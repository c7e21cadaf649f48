"""Moment sequences, block Hankel structures, and class membership.

A :class:`MomentSequence` holds the base point ``alpha`` and Hermitian
matrices ``s_0 .. s_m``.  From it we derive the block Hankel stacks, the
interleaved Schur complements, and the classification report that the
solver uses to dispatch between the degeneracy cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import DEFAULT_TOL, PreconditionError, ToleranceConfig

__all__ = [
    "MomentSequence",
    "HankelStack",
    "ClassReport",
    "build_stack",
    "classify",
    "stieltjes_parametrization",
    "inverse_parametrization",
]


@dataclass(frozen=True)
class MomentSequence:
    """Base point plus a finite tuple of Hermitian q x q matrices."""

    alpha: float
    s: tuple

    def __post_init__(self):
        if len(self.s) == 0:
            raise ValueError("need at least one moment matrix")
        mats = tuple(matcore.hermitize(x) for x in self.s)
        q = mats[0].shape[0]
        for x in mats:
            if x.shape != (q, q):
                raise ValueError("all moment matrices must share one size")
        object.__setattr__(self, "s", mats)
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def q(self) -> int:
        return self.s[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.s) - 1

    def shifted(self) -> tuple:
        """The length-m tuple of -alpha*s_j + s_{j+1}."""
        return tuple(
            -self.alpha * self.s[j] + self.s[j + 1] for j in range(self.m)
        )

    def restricted(self, ell: int) -> "MomentSequence":
        if not 0 <= ell <= self.m:
            raise ValueError("restriction index out of range")
        return MomentSequence(self.alpha, self.s[: ell + 1])

    def to_json(self) -> dict:
        from . import serialize

        return serialize.sequence_to_json(self.alpha, self.s)

    @classmethod
    def from_json(cls, obj: dict) -> "MomentSequence":
        from . import serialize

        mats = [serialize.matrix_from_json(x) for x in obj["s"]]
        return cls(float(obj["alpha"]), tuple(mats))


@dataclass(frozen=True)
class HankelStack:
    """All admissible block Hankel matrices and Schur complements.

    Index conventions (m is the top moment index):
      H[n]          blocks s_{j+k},                 2n     <= m
      K[n]          blocks s_{j+k+1},               2n + 1 <= m
      Halpha[n]     -alpha*H_n + K_n,               2n + 1 <= m
      L[n]          s_{2n} minus Schur complement,  2n     <= m
      Lalpha[n]     same on the shifted sequence,   2n + 1 <= m
      Theta[n]      the complement itself,          2n - 1 <= m
      ThetaAlpha[n] shifted complement,             2n     <= m
    """

    H: tuple
    K: tuple
    Halpha: tuple
    L: tuple
    Lalpha: tuple
    Theta: tuple
    ThetaAlpha: tuple


def _block_hankel(mats, n: int) -> np.ndarray:
    q = mats[0].shape[0]
    h = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1):
            h[j * q:(j + 1) * q, k * q:(k + 1) * q] = mats[j + k]
    return h


def _theta(mats, n: int, tol: ToleranceConfig, q: int | None = None) -> np.ndarray:
    """z_{n,2n-1} H_{n-1}^+ y_{n,2n-1}; zero for n = 0."""
    if q is None:
        q = mats[0].shape[0]
    if n == 0:
        return np.zeros((q, q), dtype=complex)
    z = np.hstack([mats[j] for j in range(n, 2 * n)])
    y = np.vstack([mats[j] for j in range(n, 2 * n)])
    return z @ matcore.pinv(_block_hankel(mats, n - 1), tol) @ y


def _schur_l(mats, n: int, tol: ToleranceConfig) -> np.ndarray:
    return mats[2 * n] - _theta(mats, n, tol)


def build_stack(seq: MomentSequence, tol: ToleranceConfig = DEFAULT_TOL) -> HankelStack:
    m = seq.m
    mats = list(seq.s)
    shifted = list(seq.shifted())

    H = tuple(_block_hankel(mats, n) for n in range(m // 2 + 1))
    K = tuple(_block_hankel(mats[1:], n) for n in range((m - 1) // 2 + 1) if 2 * n + 1 <= m)
    Halpha = tuple(-seq.alpha * H[n] + K[n] for n in range(len(K)))
    L = tuple(_schur_l(mats, n, tol) for n in range(m // 2 + 1))
    Lalpha = tuple(_schur_l(shifted, n, tol) for n in range((m - 1) // 2 + 1))
    Theta = tuple(_theta(mats, n, tol, seq.q) for n in range((m + 1) // 2 + 1))
    ThetaAlpha = tuple(_theta(shifted, n, tol, seq.q) for n in range(m // 2 + 1))
    return HankelStack(H=H, K=K, Halpha=Halpha, L=L, Lalpha=Lalpha,
                       Theta=Theta, ThetaAlpha=ThetaAlpha)


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
    qs = [matcore.hermitize(x, tol) for x in qs]
    if not qs:
        raise ValueError("need at least one parametrization entry")
    mats: list = []
    for j, qj in enumerate(qs):
        k = j // 2
        if j % 2 == 0:
            theta = _theta(mats, k, tol) if k else np.zeros_like(qj)
            mats.append(theta + qj)
        else:
            shifted = [-alpha * mats[i] + mats[i + 1] for i in range(len(mats) - 1)]
            theta = _theta(shifted, k, tol) if k else np.zeros_like(qj)
            mats.append(alpha * mats[2 * k] + theta + qj)
    return MomentSequence(alpha, tuple(mats))


@dataclass(frozen=True)
class ClassReport:
    """Classification verdicts for one sequence.

    extendable_candidate is three-valued ('yes'/'no'/'unknown'): there is no
    constructive one-shot test for one-step extendability, so it is decided
    by the recursive criterion in :func:`classify`'s docstring.
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

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "Hgg": self.hankel_psd,
            "Kgg": self.stieltjes_psd,
            "Kgg_strict": self.stieltjes_pd,
            "D": self.first_term_dominant,
            "Kggd": self.completely_degenerate,
            "Kgge_candidate": self.extendable_candidate,
            "rank_top": self.rank_top,
        }


def _top_psd_pair(seq: MomentSequence, stack: HankelStack):
    """The two matrices whose semidefiniteness defines the moment cone."""
    m = seq.m
    tops = [stack.H[m // 2]]
    if m >= 1:
        tops.append(stack.Halpha[(m - 1) // 2])
    return tops


def _cone_verdicts(seq: MomentSequence, stack: HankelStack, tol: ToleranceConfig):
    margins = [matcore.psd_margin(t, tol) for t in _top_psd_pair(seq, stack)]
    lo = min(margins)
    psd = lo >= -tol.psd
    pd = lo > tol.psd
    borderline = abs(lo) < 10.0 * tol.psd
    return psd, pd, borderline


def _dominated_by_first(seq: MomentSequence, tol: ToleranceConfig) -> bool:
    s0 = seq.s[0]
    for sj in seq.s[1:]:
        if not matcore.range_contains(s0, sj, tol):
            return False
        if not matcore.null_contains(s0, sj, tol):
            return False
    return True


def _hard_threshold(a: np.ndarray, scale: float, tol: ToleranceConfig) -> np.ndarray:
    cut = tol.psd * max(1.0, scale)
    out = a.copy()
    out[np.abs(out) <= cut] = 0.0
    return out


def _extendable_candidate(seq: MomentSequence, tol: ToleranceConfig) -> str:
    # necessary conditions first, cheapest shortcut verdicts second,
    # otherwise recurse through one algorithm step
    stack = build_stack(seq, tol)
    psd, pd, borderline = _cone_verdicts(seq, stack, tol)
    if not psd:
        return "unknown" if borderline else "no"
    if pd and not borderline:
        return "yes"
    q_top = stieltjes_parametrization(seq, tol)[-1]
    scale = max(matcore.frob(x) for x in seq.s)
    if not np.any(_hard_threshold(matcore.hermitize(q_top, tol), scale, tol)):
        return "yes"
    if seq.m == 0:
        # a PSD single term always extends: append alpha*s_0 + s_0
        return "yes"
    if not _dominated_by_first(seq, tol):
        return "no"
    from . import schur

    return _extendable_candidate(schur.first_transform(seq, tol), tol)


def classify(seq: MomentSequence, tol: ToleranceConfig = DEFAULT_TOL) -> ClassReport:
    """Full membership report.

    The moment cone test checks the top plain Hankel matrix together with
    the top shifted one; strict positivity upgrades the verdict.  Complete
    degeneracy means the top parametrization entry vanishes after an
    entrywise hard threshold.  The extendability candidate is recursive:
    a cone member counts as a candidate when it is strictly positive or
    completely degenerate (both are sufficient), when m = 0, or when its
    ranges are dominated by s_0 and one algorithm step is again a
    candidate; dominance failing is disqualifying.
    """
    stack = build_stack(seq, tol)
    psd, pd, _ = _cone_verdicts(seq, stack, tol)
    hankel_psd = matcore.is_psd(stack.H[seq.m // 2], tol)
    dominant = _dominated_by_first(seq, tol)

    qs = stieltjes_parametrization(seq, tol)
    scale = max(matcore.frob(x) for x in seq.s)
    q_top = _hard_threshold(matcore.hermitize(qs[-1], tol), scale, tol)
    degenerate = not np.any(q_top)
    candidate = _extendable_candidate(seq, tol)

    return ClassReport(
        q=seq.q,
        m=seq.m,
        hankel_psd=hankel_psd,
        stieltjes_psd=psd,
        stieltjes_pd=pd,
        first_term_dominant=dominant,
        completely_degenerate=degenerate,
        extendable_candidate=candidate,
        rank_top=matcore.rank_with_tol(q_top, tol),
    )
