"""Sequence-level algorithm: reciprocal, shift, forward and inverse steps.

The forward step maps ``(s_0..s_m)`` to a length-m sequence via the
reciprocal of the shifted sequence; iterating it yields the stage trace
whose leading entries form the diagonal used by the resolvent polynomials.
Each step's reciprocal starts from the pseudoinverse of the stage's first
entry; the trace keeps these and inverts the last diagonal entry, which
no step consumes, so ``hankel.classify``'s dominance tests, ``solve``'s
range gate and the resolvent products never invert a diagonal entry again.
The trace stops stepping at its first all-zero stage and fills the rest
with zero stacks and the one pseudoinverse of the zero matrix.
The public :func:`reciprocal` and :func:`alpha_shift` validate their
argument; a step reuses their arithmetic (``_reciprocal``, the shift of
the later entries, and ``matcore.pinv_unchecked``) on a stage that is
already checked: the first is the sequence's hermitized, finite moments,
and each later one passed the previous step's finiteness test.
The reciprocal's sums r_j = -s_0^+ sum_{l<j} s_{j-l} r_l are accumulated:
each r_l, once known, is multiplied by the stack of later entries in one
product and added to every later sum, so a stage of n entries takes
3(n-1) numpy calls where a sum per entry took n(n-1)/2 more.  Every sum
still gets its terms in ascending l, starting from +0.0, so its bits are
those of the nested sum.
The inverse step reconstructs a longer sequence from a seed matrix; its
sums are accumulated the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .hankel import MomentSequence
from .matcore import DEFAULT_TOL, PreconditionError, ToleranceConfig

__all__ = [
    "reciprocal",
    "alpha_shift",
    "first_transform",
    "k_th_transform",
    "TransformTrace",
    "transform_trace",
    "inverse_transform",
    "check_inequality_preservation",
]


def reciprocal(mats, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Reciprocal of stacked matrices: r_0 = s_0^+,
    r_j = -s_0^+ sum_{l<j} s_{j-l} r_l, each sum accumulated in ascending
    l (see ``_reciprocal``)."""
    if len(mats) == 0:
        raise ValueError("reciprocal of an empty sequence")
    stack = _stacked(mats)
    return _reciprocal(stack[1:], matcore.pinv_unchecked(stack[0], tol))


def alpha_shift(alpha: float, mats) -> np.ndarray:
    """Stacked -alpha*s_{j-1} + s_j with the convention s_{-1} = 0."""
    stack = _stacked(mats)
    return -alpha * np.concatenate((np.zeros_like(stack[:1]), stack[:-1])) + stack


def _stacked(mats) -> np.ndarray:
    out = np.asarray(mats, dtype=complex)
    if out.ndim != 3 or not np.all(np.isfinite(out)):
        raise ValueError("expected finite matrices of one shape")
    return out


def _reciprocal(tail: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """:func:`reciprocal` of a checked stack, from ``r0``, the
    pseudoinverse of its first entry, and ``tail``, its later entries.

    The sums are accumulated: once r_l is known, one stacked product adds
    s_{j-l} r_l to the sum of every later entry j, whose sum is then
    complete for j = l + 1.  Each sum gets its terms in ascending l from
    +0.0, the order and start of ``sum(s_j r_0, ..., s_1 r_{j-1})``, so the
    bits are those of the nested sum (a test pins them).
    """
    n = len(tail)
    out = np.empty((n + 1, *r0.shape), dtype=complex)
    out[0] = r0
    neg = -r0
    acc = np.zeros_like(tail)
    for l in range(n):
        acc[l:] += tail[:n - l] @ out[l]
        out[l + 1] = neg @ acc[l]
    return out


def _step(alpha: float, s: np.ndarray, tol: ToleranceConfig, k: int,
          r0: np.ndarray) -> np.ndarray:
    """:func:`first_transform` on a finite complex stack, stage ``k`` of a
    trace, from ``r0``, the pseudoinverse of ``s[0]``: the shift leaves the
    first entry alone, so the reciprocal of the shifted sequence starts
    from it, and only the later entries, which the reciprocal reads, are
    shifted.  Run under the caller's ``np.errstate``, it names a step whose
    output leaves the float range, with no warning.

    The outputs are Hermitian in exact arithmetic; their asymmetry is
    rounding, so they are symmetrized.  When the first output is at or
    below tol.psd times the first input (Frobenius norms), the outputs are
    the rounding passed on from the input's larger later entries, which
    the next step's pseudoinverse would amplify: they are set to zero, and
    every later step then gives zeros.  Near the float range the norms are
    compared on the two matrices scaled by one power of two
    (``matcore.frob_at_most``), so they do not overflow.
    """
    rec = _reciprocal(-alpha * s[:-1] + s[1:], r0)
    out = -s[0] @ rec[1:] @ s[0]
    out = 0.5 * (out + out.conj().transpose(0, 2, 1))
    if not np.isfinite(out).all():
        raise PreconditionError(f"α-S step {k + 1} (stage {k} → {k + 1}) "
                                "leaves the float range")
    if matcore.frob_at_most(out[0], s[0], tol.psd, 0.0):
        out = np.zeros_like(out)
    return out


def first_transform(seq: MomentSequence, tol: ToleranceConfig = DEFAULT_TOL) -> MomentSequence:
    """One algorithm step; shortens the sequence by one.

    Entry j of the output is -s_0 r_{j+1} s_0 where r is the reciprocal of
    the shifted sequence; see :func:`_step` for the rounding it removes.
    """
    if seq.m < 1:
        raise PreconditionError("transform needs at least two sequence entries")
    s = np.array(seq.s)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _step(seq.alpha, s, tol, 0, matcore.pinv_unchecked(s[0], tol))
    return MomentSequence(seq.alpha, tuple(out))


def k_th_transform(seq: MomentSequence, k: int,
                   tol: ToleranceConfig = DEFAULT_TOL) -> MomentSequence:
    """Stage k of :func:`transform_trace`, k steps of :func:`first_transform`."""
    if not 0 <= k <= seq.m:
        raise PreconditionError(f"stage {k} out of range for m={seq.m}")
    return MomentSequence(seq.alpha, transform_trace(seq, tol).stages[k])


@dataclass(frozen=True, eq=False)
class TransformTrace:
    """All stages of the algorithm, the leading-entry diagonal and the
    pseudoinverse of every diagonal entry, all read-only."""

    input: MomentSequence
    stages: tuple  # stage k is an (m-k+1, q, q) stack
    diagonal: tuple  # entry k is stages[k][0]
    pinvs: tuple  # entry k is matcore.pinv(diagonal[k], tol), k = 0..m


def transform_trace(seq: MomentSequence, tol: ToleranceConfig = DEFAULT_TOL) -> TransformTrace:
    """The algorithm run to its last stage; stage k has m-k+1 entries and
    is k steps of :func:`first_transform`.  Each step gives the inverse of
    its stage's first entry; the last entry, the seed of no step, is
    inverted after them at the same ``tol``.  Stepping stops at the first
    all-zero stage: a step on it gives +0.0 zeros again (-alpha*0, pinv(0)*0
    and -0*r*0 are +-0, so :func:`_step`'s zero test fires), so the later
    stages are zero stacks and their inverses the one pseudoinverse of the
    zero matrix, the bytes the steps would give."""
    stages = [np.array(seq.s)]
    pinvs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(seq.m):
            pinvs.append(matcore.pinv_unchecked(stages[-1][0], tol))
            stages.append(_step(seq.alpha, stages[-1], tol, k, pinvs[-1]))
            if not stages[-1].any():
                zero = stages[-1]
                stages += [np.zeros_like(zero[:seq.m - j + 1])
                           for j in range(k + 2, seq.m + 1)]
                pinvs += [matcore.pinv_unchecked(zero[0], tol)] * (seq.m - k)
                break
    if len(pinvs) == seq.m:
        pinvs.append(matcore.pinv(stages[-1][0], tol))
    for x in stages + pinvs:
        x.flags.writeable = False
    return TransformTrace(
        input=seq,
        stages=tuple(stages),
        diagonal=tuple(st[0] for st in stages),
        pinvs=tuple(pinvs),
    )


def inverse_transform(t: MomentSequence, a,
                      tol: ToleranceConfig = DEFAULT_TOL) -> MomentSequence:
    """Reconstruction seeded with ``a``; lengthens the sequence by one.

    Uses the recursion
        r_0 = a,
        r_j = alpha r_{j-1} + a a^+ sum_{k<j} t_{j-1-k} a^+ (shift r)_k,
    which agrees with the literal nested-sum definition (the test suite
    checks them against each other).  Each sum is accumulated as the
    reciprocal's are: once (shift r)_k is known, one stacked product adds
    its term to every later sum, in ascending k from +0.0.  The seed is
    checked for asymmetry; the computed entries are symmetrized.
    """
    a = matcore.hermitize(a, tol)
    return _inverse(t, a, matcore.pinv(a, tol))


def _inverse(t: MomentSequence, a: np.ndarray, ap: np.ndarray) -> MomentSequence:
    """:func:`inverse_transform` with the hermitized seed ``a`` and its
    pseudoinverse ``ap``."""
    proj = a @ ap
    alpha = t.alpha
    tap = np.array(t.s) @ ap
    acc = np.zeros_like(tap)  # entry j - 1 sums t_{j-1-k} a^+ (shift r)_k
    out = [a]
    shifted = a  # (shift r)_{j-1}
    for j in range(1, t.m + 2):
        # k = j - 1: add its term to sums j..m+1, each in ascending k
        acc[j - 1:] += tap[:t.m + 2 - j] @ shifted
        nxt = matcore.symmetrized(alpha * out[-1] + proj @ acc[j - 1])
        shifted = -alpha * out[-1] + nxt
        out.append(nxt)
    return MomentSequence(alpha, tuple(out))


def _prefix_gap(xs, ys) -> float:
    if not xs:
        return 0.0
    return max(matcore.frob(x - y) for x, y in zip(xs, ys))


def _order_report(report: dict, name: str, xs, ys, k: int, base, closed,
                  tol: ToleranceConfig) -> None:
    """Add ``name``'s keys to ``report`` for the images xs, ys of two ordered
    sequences: the gap of their entries below k, the margin of their entry-k
    difference, and its gap to ``closed``, the closed form P^* defect P
    for P = base^+ base."""
    gap = _prefix_gap(xs[:k], ys[:k])
    report[f"{name}_prefix_gap"] = gap
    report[f"{name}_prefix_ok"] = gap <= matcore.PREFIX_REL * (
        1.0 + matcore.frob(base))
    diff = matcore.symmetrized(xs[k] - ys[k])
    report[f"{name}_top_margin"] = matcore.psd_margin(diff)
    report[f"{name}_top_ok"] = matcore.is_psd(diff, tol)
    closed_gap = matcore.frob(diff - closed)
    report[f"{name}_closed_form_gap"] = closed_gap
    report[f"{name}_closed_form_ok"] = (
        closed_gap <= matcore.CLOSED_FORM_REL * (1.0 + matcore.frob(closed)))


def check_inequality_preservation(s: MomentSequence, t: MomentSequence,
                                  tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Order preservation of the forward and inverse steps.

    Precondition: same alpha, same length, t_j = s_j for j < m, and
    t_m <= s_m in the semidefinite order.  The report then records
      * forward: equality of transformed entries below index m-1, the
        semidefiniteness of the top difference, and its agreement with the
        closed form P^* (s_m - t_m) P for P = s_0^+ s_0;
      * inverse (seeded with s_0): equality through index m and the top
        difference against the same closed form.
    """
    if s.alpha != t.alpha or s.m != t.m:
        raise PreconditionError("sequences must share alpha and length")
    m = s.m
    gap = _prefix_gap(s.s[:m], t.s[:m])
    if gap > tol.herm * (1.0 + matcore.frob(s.s[0])):
        raise PreconditionError(f"prefixes differ by {gap:.3e}")
    defect = matcore.symmetrized(s.s[m] - t.s[m])
    if not matcore.is_psd(defect, tol):
        raise PreconditionError("top entries are not ordered")

    # s_0 seeds every check: the forward steps' reciprocals (the shift
    # leaves the first entry alone), the inverse steps and the closed form
    s0 = s.s[0]
    sp = matcore.pinv(s0, tol)
    p = sp @ s0
    closed = p.conj().T @ defect @ p
    report: dict = {"m": m, "top_defect_margin": matcore.psd_margin(defect)}
    if m >= 1:
        # t_0 is s_0 by the precondition: both steps start from s_0^+
        with np.errstate(over="ignore", invalid="ignore"):
            xs, ys = (tuple(_step(s.alpha, np.array(x.s), tol, 0, sp))
                      for x in (s, t))
        _order_report(report, "forward", xs, ys, m - 1, s0, closed, tol)
    # the entries of a sequence are Hermitian: inverse_transform's
    # hermitize would change no bit of the seed s_0
    _order_report(report, "inverse", _inverse(s, s0, sp).s,
                  _inverse(t, s0, sp).s, m + 1, s0, closed, tol)

    keys = [k for k in report if k.endswith("_ok")]
    report["ok"] = all(report[k] for k in keys)
    return report
