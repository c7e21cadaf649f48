"""``solve``'s path for pairs with atoms keeps the bytes of its literal form.

``_parameter_atoms`` takes the slope of the denominator and the residues
by inline Horner and fits the atoms with one ``np.dot``; ``_atomic_solution``
writes the blocks of T by slices; ``_gate_descent_denominator`` searches D
for a value that is not finite only when a norm fails; ``matcore.frob_at_most``
reads each sum of squares once; and ``RationalMatFun`` takes its coefficient
moduli with ``np.hypot``.  Each is compared by ``tobytes()`` (or by its
verdict and error text) with the literal form in ``oracles``.
"""

import numpy as np
import pytest

import oracles
from conftest import completely_degenerate_seq, measure_seq
from stieltjesmp import lft, matcore, measures, pairs, solver
from stieltjesmp.hankel import classify
from stieltjesmp.matcore import DEFAULT_TOL
from stieltjesmp.pairs import RationalMatFun, StieltjesPair, default_grid
from stieltjesmp.respoly import MatrixPolynomial


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def _outcome(fn, *args):
    """('value', result) or ('raise', type, message, attributes)."""
    try:
        return ("value", fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return ("raise", type(exc), str(exc),
                tuple(getattr(exc, a, None) for a in ("stage", "point", "gap")))


def _atom_pair(rng, alpha, q, k, constant):
    """(G P, P) for a random invertible P and G = C + sum_i W_i / (y_i - z)
    with k simple real y_i > alpha and PSD W_i; C = 0 unless ``constant``."""
    p = (rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
         + 3.0 * np.eye(q))
    nodes = np.sort(alpha + rng.uniform(0.2, 6.0, size=k))
    weights = np.array([oracles.random_psd(rng, q) for _ in range(k)]
                       ).reshape(k, q, q)
    g = measures.stieltjes_transform(
        measures.DiscreteMeasure(alpha, nodes, weights))
    if constant:
        g = g + RationalMatFun.const(oracles.random_psd(rng, q))
    return StieltjesPair(alpha, g.rmul(p), RationalMatFun.const(p))


def _compare_stages(monkeypatch, seq, pair, points=None):
    tol = DEFAULT_TOL
    trace = classify(seq, tol).trace
    zs, (ph, ps) = pairs.grid_values((pair.phi, pair.psi),
                                     default_grid(seq.alpha))
    got = _outcome(solver._parameter_atoms, pair, zs, ph, tol)
    want = _outcome(oracles.literal_parameter_atoms, pair, zs, ph, tol)
    assert got[0] == want[0]
    if got[0] == "raise" or got[1] is None:
        assert got == want
        return None
    (c, g), (c_want, g_want) = got[1], want[1]
    assert _same(c, c_want) and _same(g.weights, g_want.weights)
    assert _same(g.nodes, g_want.nodes) and g.alpha == g_want.alpha

    if points is not None:
        zs, (ph, ps) = pairs.grid_values((pair.phi, pair.psi), points)
    gated = []
    check = lft.check_denominator

    def spy(dens, *args):
        gated.append(dens.copy())
        return check(dens, *args)

    monkeypatch.setattr(lft, "check_denominator", spy)
    gate = _outcome(solver._gate_descent_denominator, trace, zs, ph, ps, tol)
    monkeypatch.setattr(lft, "check_denominator", check)
    literal = _outcome(oracles.literal_gate, trace, zs, ph, ps, tol)
    assert gate[0] == literal[0]
    if gate[0] == "raise":
        assert gate == literal
    else:
        assert _same(gated[0], literal[1])

    solved = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        solved.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    fun = _outcome(solver._atomic_solution, trace, *got[1], tol)
    ours, solved[:] = solved[:], []
    ref = _outcome(oracles.literal_atomic_solution, trace, *want[1], tol)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    # the stacked roots, then T: signed zeros included
    assert len(ours) == len(solved) == 2
    assert all(_same(a, b) for a, b in zip(ours, solved))
    assert fun[0] == ref[0]
    if fun[0] == "raise":
        assert fun == ref
    else:
        assert _same(fun[1].num.coeffs, ref[1].num.coeffs)
        assert _same(fun[1].den, ref[1].den)
    return gate[0]


def test_the_atomic_stages_keep_the_bytes_of_their_literal_forms(
        monkeypatch):
    rng = np.random.default_rng(3801)
    gated = set()
    for q in range(1, 6):
        for m in range(7):
            alpha = float(rng.uniform(-1.0, 1.0))
            k = (0, 1, 3)[(q + m) % 3]
            _, seq = measure_seq(rng, q, m, alpha=alpha)
            pair = _atom_pair(rng, alpha, q, k, constant=(q * m) % 2 == 0)
            gated.add(_compare_stages(monkeypatch, seq, pair))
    # C != 0 beside k = 0, 1 and 3 atoms
    for k in (0, 1, 3):
        _, seq = measure_seq(rng, 3, 4, alpha=0.5)
        pair = _atom_pair(rng, 0.5, 3, k, constant=True)
        zs, (ph,) = pairs.grid_values((pair.phi,), default_grid(0.5))
        assert solver._parameter_atoms(pair, zs, ph, DEFAULT_TOL)[0].any()
        gated.add(_compare_stages(monkeypatch, seq, pair))
    # phi times 1j, numerator and denominator: divided by its leading
    # coefficient, the denominator is real again, and the pair has atoms
    _, seq = measure_seq(rng, 2, 3, alpha=0.5)
    pair = _atom_pair(rng, 0.5, 2, 3, constant=False)
    pair = StieltjesPair(0.5, RationalMatFun(pair.phi.num.scale(1j),
                                             pair.phi.den * 1j), pair.psi)
    zs, (ph,) = pairs.grid_values((pair.phi,), default_grid(0.5))
    assert pair.phi.den.imag.any()
    assert solver._parameter_atoms(pair, zs, ph, DEFAULT_TOL) is not None
    gated.add(_compare_stages(monkeypatch, seq, pair))
    # a trace with a zero tail, and the gate at chosen points, alpha among
    # them, where D is singular
    _, seq = completely_degenerate_seq(rng, 2, 5, alpha=-0.25)
    assert not classify(seq).trace.diagonal[-1].any()
    zero = _atom_pair(rng, -0.25, 2, 0, constant=False)
    gated.add(_compare_stages(monkeypatch, seq, zero))
    _, seq = measure_seq(rng, 3, 3, alpha=0.0)
    pair = _atom_pair(rng, 0.0, 3, 1, constant=False)
    for points in ((-1.5, 2j, 3.0 - 1j), (-1.0, 0.0, 1j)):
        gated.add(_compare_stages(monkeypatch, seq, pair, points))
    assert gated == {"value", "raise"}


def _verdicts_match(x, y, c, floor):
    got = matcore.frob_at_most(x, y, c, floor)
    # the literal form's scaling of a complex stack near the float maximum
    # can raise numpy's overflow flag with a finite product
    with np.errstate(over="ignore"):
        want = oracles.literal_frob_at_most(x, y, c, floor)
    assert type(got) is type(want)
    assert _same(got, want)


def test_frob_at_most_keeps_the_verdicts_of_its_literal_form():
    rng = np.random.default_rng(3803)
    shapes = (((3, 3), (3, 3)), ((6, 2, 2), (6, 2, 2)), ((1, 4, 4), (5, 4, 4)),
              ((5, 4, 4), (4, 4)), ((2, 3), (2, 3)), ((7, 1, 1), (1, 1)))
    rules = ((1e-9, 0.0), (1e-9, 1.0), (1e-9, 0.5), (0.3, 0.0), (2.0, 1.0))
    for exp in range(-300, 301, 25):
        for xs, ys in shapes:
            for c, floor in rules:
                y = 10.0 ** exp * (rng.normal(size=ys) + 1j * rng.normal(size=ys))
                # x around c |y|: both verdicts occur
                x = (10.0 ** exp * c * rng.uniform(0.3, 1.7)
                     * (rng.normal(size=xs) + 1j * rng.normal(size=xs)) / 3.0)
                _verdicts_match(x, y, c, floor)
                _verdicts_match(np.zeros(xs, dtype=complex), y, c, floor)
                _verdicts_match(x.real.copy(), y.real.copy(), c, floor)
    # sums of squares that overflow, for one matrix or the whole stack
    for big in (1e154, 1e155, 3e307, 1.7e308):
        for xs, ys in shapes:
            y = big * np.exp(2j * np.pi * rng.uniform(size=ys))
            x = big * 1e-9 * np.exp(2j * np.pi * rng.uniform(size=xs))
            for c, floor in rules:
                _verdicts_match(x, y, c, floor)
                _verdicts_match(y, y, c, floor)


def test_rational_functions_trim_and_scale_as_with_abs():
    rng = np.random.default_rng(3804)
    for n in range(1, 9):
        for exp in range(-12, 13, 3):
            den = 10.0 ** exp * (rng.normal(size=n) + 1j * rng.normal(size=n))
            # a negligible trailing coefficient, a real and an imaginary one
            den[-1] *= (1.0, 1e-15, 1e-14j)[n % 3]
            if n > 2:
                den[1] = den[1].real
            coeffs = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
            fun = RationalMatFun(MatrixPolynomial(coeffs), den)
            want, top = oracles.literal_unit_den(den)
            assert _same(fun.den, want)
            scaled = coeffs if top is None else (1.0 / top) * coeffs
            assert _same(fun.num.coeffs, scaled)
