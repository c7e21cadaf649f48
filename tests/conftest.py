"""Shared builders for randomized fixtures.

Everything is driven by an explicit ``numpy.random.Generator`` so each
test controls its own seed; nothing here touches global state.
"""

import importlib.util
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from stieltjesmp import lft, matcore, pairs, solver
from stieltjesmp.hankel import MomentSequence
from stieltjesmp.matcore import frob
from stieltjesmp.measures import DiscreteMeasure, moments
from stieltjesmp.pairs import RationalMatFun, StieltjesPair
from stieltjesmp.respoly import MatrixPolynomial, descent_resolvent

# the relative gap allowed between a continued-fraction solution and the
# pointwise action of the descent product on its pair
ACTION_REL = 1e-9


@pytest.fixture(autouse=True)
def atomic_solutions_match_the_pointwise_action(monkeypatch):
    """Every solution any test gets from ``solve``'s continued-fraction
    synthesis is checked against the action of the descent product V of
    its trace on its pair, (V_11 phi + V_12 psi)(V_21 phi + V_22 psi)^(-1)
    at each point of ``default_grid`` that is a pole of neither (the
    arithmetic of ``lft.lft_pair``, all points at once), to ``ACTION_REL``
    relative to the action."""
    atoms, synthesize = solver._parameter_atoms, solver._atomic_solution
    pair_of = []

    def noted(pair, *args):
        found = atoms(pair, *args)
        pair_of[:] = [pair]
        return found

    def checked(trace, *args):
        fun = synthesize(trace, *args)
        pair = pair_of[0]
        zs, (ph, ps, fz) = pairs.grid_values(
            (pair.phi, pair.psi, fun), pairs.default_grid(trace.input.alpha))
        gen = descent_resolvent(trace)(zs)
        q = fun.q
        num = gen[:, :q, :q] @ ph + gen[:, :q, q:] @ ps
        den = gen[:, q:, :q] @ ph + gen[:, q:, q:] @ ps
        lft.check_denominator(den, matcore.DEFAULT_TOL, "action", zs)
        want = np.linalg.solve(den.swapaxes(1, 2), num.swapaxes(1, 2))
        want = want.swapaxes(1, 2)
        assert np.all(matcore.frob_at_most(fz - want, want, ACTION_REL, 0.0))
        return fun

    monkeypatch.setattr(solver, "_parameter_atoms", noted)
    monkeypatch.setattr(solver, "_atomic_solution", checked)


def random_psd(rng, q, rank=None, scale=1.0):
    """Random PSD matrix; ``rank`` limits the number of nonzero directions."""
    r = q if rank is None else rank
    if r == 0:
        return np.zeros((q, q), dtype=complex)
    b = rng.normal(size=(q, r)) + 1j * rng.normal(size=(q, r))
    return scale * (b @ b.conj().T)


def random_hermitian(rng, q, scale=1.0):
    b = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    return scale * (b + b.conj().T) / 2


def random_measure(rng, q, atoms, alpha=0.0, spread=6.0, ranks=None,
                   offset=0.3):
    """Discrete measure with ``atoms`` nodes in (alpha+offset, alpha+spread)."""
    nodes = np.sort(alpha + rng.uniform(offset, spread, size=atoms))
    if ranks is None:
        ranks = [None] * atoms
    weights = tuple(random_psd(rng, q, rank=r) + (0.05 * np.eye(q) if r is None else 0)
                    for r in ranks)
    return DiscreteMeasure(float(alpha), tuple(float(x) for x in nodes), weights)


def measure_seq(rng, q, m, atoms=None, alpha=0.0, ranks=None):
    """A measure together with its first m+1 moments."""
    mu = random_measure(rng, q, atoms if atoms is not None else m + 1,
                        alpha=alpha, ranks=ranks)
    return mu, moments(mu, m)


def nondegenerate_seq(rng, q, m, alpha=0.0):
    """m+1 atoms with PD weights: top diagonal entry has full rank."""
    return measure_seq(rng, q, m, atoms=m + 1, alpha=alpha)


def completely_degenerate_seq(rng, q, m, alpha=0.0):
    """Top diagonal entry vanishes: one atom for m >= 2, atom at alpha for m=1."""
    if m >= 2:
        mu = random_measure(rng, q, 1, alpha=alpha)
    elif m == 1:
        w = random_psd(rng, q) + 0.05 * np.eye(q)
        mu = DiscreteMeasure(alpha, (alpha,), (w,))
    else:
        mu = DiscreteMeasure(alpha, (), ())
    return mu, moments(mu, m)


def partially_degenerate_seq(rng, q, r, alpha=0.0):
    """m=1 fixture whose top diagonal entry has rank exactly r (0 < r < q)."""
    w1 = random_psd(rng, q) + 0.05 * np.eye(q)
    w2 = random_psd(rng, q, rank=r)
    x2 = alpha + rng.uniform(0.5, 4.0)
    mu = DiscreteMeasure(alpha, (alpha, float(x2)), (w1, w2))
    return mu, moments(mu, 1)


def partially_degenerate_moments(rng, q, m, alpha):
    """m+1 atoms inside one fixed (q-1)-dimensional range plus one atom
    along another direction: the top parametrization entry has rank q-1."""
    v = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    low, u = v[:, :-1] @ v[:, :-1].conj().T, v[:, -1:] @ v[:, -1:].conj().T
    nodes = alpha + rng.uniform(0.3, 2.0, size=m + 2)
    weights = [rng.uniform(0.5, 2.0) * low for _ in range(m + 1)] + [u]
    return moments(DiscreteMeasure(alpha, tuple(nodes), tuple(weights)), m)


def degeneracy_sweep():
    """Sequences for q 1..4 and m 0..8, alpha in [-1, 1]: for each, exact
    moments, the same with the top pushed off the cone, a completely
    degenerate one and (q >= 2) a partially degenerate one."""
    rng = np.random.default_rng(18)
    out = []
    for q in range(1, 5):
        for m in range(9):
            alpha = float(rng.uniform(-1.0, 1.0))
            mu = random_measure(rng, q, m + 1, alpha=alpha, spread=2.0)
            nondeg = moments(mu, m)
            bump = random_psd(rng, q, scale=0.1 * frob(nondeg.s[-1]) / q)
            out += [nondeg, MomentSequence(alpha, nondeg.s[:-1]
                                           + (nondeg.s[-1] - bump,))]
            out.append(completely_degenerate_seq(rng, q, m, alpha)[1] if m
                       else MomentSequence(alpha, (np.zeros((q, q)),)))
            if q >= 2:
                out.append(partially_degenerate_moments(rng, q, m, alpha))
    return out


def identity_pair(alpha, q):
    """(O, I): always admissible, decaying, range condition trivial."""
    return StieltjesPair(alpha, RationalMatFun.zero(q),
                         RationalMatFun.const(np.eye(q)))


def const_psi_pair(alpha, q, shift=4.0):
    """(O, (shift + (z - alpha)) I): equivalent to (O, I)."""
    eye = np.eye(q, dtype=complex)
    psi = RationalMatFun(MatrixPolynomial(((shift - alpha) * eye, eye)), (1.0,))
    return StieltjesPair(alpha, RationalMatFun.zero(q), psi)


def cauchy_pair(alpha, q, t=None, c=None):
    """(c/(t - z) I-ish, I) with t > alpha: admissible and decaying."""
    t = alpha + 1.0 if t is None else t
    cmat = np.eye(q, dtype=complex) if c is None else np.asarray(c, dtype=complex)
    phi = RationalMatFun(MatrixPolynomial.constant(cmat), (t, -1.0))
    return StieltjesPair(alpha, phi, RationalMatFun.const(np.eye(q)))


def const_pair(alpha, q, c=1.0):
    """(c I, I) with c >= 0: admissible but NOT decaying."""
    return StieltjesPair(alpha, RationalMatFun.const(c * np.eye(q)),
                         RationalMatFun.const(np.eye(q)))


def grid_pole_pair(alpha, q):
    """(I / d, I) with d the monic polynomial whose roots are the points of
    ``default_grid(alpha)``: every grid point is a pole of the pair."""
    den = npoly.polyfromroots(pairs.default_grid(alpha))
    return StieltjesPair(alpha, RationalMatFun(
        MatrixPolynomial.constant(np.eye(q)), den),
        RationalMatFun.const(np.eye(q)))


# (eps, x) of the parameters 1/(1 - z) - eps/(x - z): a pole at x > 0 with
# negative weight, beyond the radius of default_grid around alpha = 0
NEGATIVE_ATOMS = ((0.01, 15.0), (0.05, 30.0), (0.2, 50.0), (0.5, 100.0))


def negative_atom_problem(eps, x):
    """The moments (m = 2) of unit atoms at 0.5, 2 and 4 on [0, inf), and
    the pair (1/(1 - z) - eps/(x - z), 1), which is not admissible."""
    seq = moments(DiscreteMeasure(0.0, (0.5, 2.0, 4.0), (np.eye(1),) * 3), 2)
    one = RationalMatFun(MatrixPolynomial.constant(np.eye(1)), (1.0, -1.0))
    neg = RationalMatFun(MatrixPolynomial.constant(-eps * np.eye(1)), (x, -1.0))
    return seq, StieltjesPair(0.0, one + neg, RationalMatFun.const(np.eye(1)))


def sample_points(rng, alpha, n, radius=3.0):
    """Random points off [alpha, inf): upper/lower half-plane mix."""
    zs = []
    for _ in range(n):
        re = alpha + rng.uniform(-radius, radius)
        im = rng.uniform(0.2, radius) * rng.choice([-1.0, 1.0])
        zs.append(complex(re, im))
    return zs


def bench_workloads():
    """``bench/workloads.py``, loaded from its file: the pools whose inputs
    some tests read."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
