"""The synthesis kernels keep the bytes of their literal forms.

``coeff_norms`` reads all norms from one stacked call, ``lft._num_den``
convolves [a; c] and [b; d] once each, ``_divide_by_root`` writes its
quotient rows in place, Horner evaluation fills its start array,
``_matches`` takes one stacked norm per side, the determinant and adjugate
interpolations sample all their circles in one pass, and a polynomial
product forms all its coefficient products in one stacked matmul.  Each is
compared by ``tobytes()`` with its literal form in ``oracles``, and
``solve`` with all of them swapped back in must return the same bytes.
The ``solve`` tests run the general path, ``lft.lft_rational``, which
every pair without atoms takes after ``solve``'s pointwise gate on D:
``_general_path`` switches off the atomic synthesis for their pairs, which
have atoms.
"""

import numpy as np

import oracles
from conftest import identity_pair, measure_seq
from stieltjesmp import lft, matcore, pairs, respoly, solver
from stieltjesmp.hankel import MomentSequence, classify
from stieltjesmp.pairs import RationalMatFun, StieltjesPair, default_grid
from stieltjesmp.respoly import (MatrixPolynomial, _adjugates, _convolve,
                                 _interp_coeffs, adjugate_poly,
                                 descent_resolvent)
from stieltjesmp.solver import SolutionRequest, solve

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


def _stack(rng, n, rows, cols, scale=1.0):
    return scale * (rng.normal(size=(n, rows, cols))
                    + 1j * rng.normal(size=(n, rows, cols)))


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _pair(rng, alpha, q, kind, scale=1.0):
    """(C/(t - z), I), (O, I), or (C/(t - z), I + D/(s - z)), which has a
    second denominator too."""
    eye = RationalMatFun.const(np.eye(q))
    if kind == "zero":
        return identity_pair(alpha, q)
    c = scale * (oracles.random_psd(rng, q) + 0.5 * np.eye(q))
    phi = RationalMatFun(MatrixPolynomial.constant(c),
                         (alpha + rng.uniform(0.5, 2.0), -1.0))
    if kind == "cauchy":
        return StieltjesPair(alpha, phi, eye)
    d = oracles.random_psd(rng, q)
    psi = eye + RationalMatFun(MatrixPolynomial.constant(d),
                               (alpha + rng.uniform(0.5, 2.0), -1.0))
    return StieltjesPair(alpha, phi, psi)


def test_coeff_norms_have_the_bits_of_one_norm_per_coefficient():
    rng = np.random.default_rng(90)
    for q in range(1, 6):
        for deg in range(7):
            for scale in SCALES:
                for shape in ((q, q), (2 * q, 2 * q), (2 * q, q), (q, 1)):
                    c = _stack(rng, deg + 1, *shape, scale)
                    c[-1] *= deg % 2      # an exactly zero top coefficient
                    for coeffs in (c, c.real):
                        got = MatrixPolynomial(coeffs).coeff_norms()
                        assert all(type(x) is float for x in got)
                        assert _same(got, oracles.literal_coeff_norms(
                            np.asarray(coeffs, dtype=complex)))


def test_trimmed_drops_what_the_literal_trim_drops():
    rng = np.random.default_rng(91)
    for q in range(1, 6):
        for deg in range(7):
            c = _stack(rng, deg + 1, q, q)
            c[deg // 2 + 1:] *= 1e-14     # trailing rounding to cut
            p = MatrixPolynomial(c)
            assert _same(p.trimmed().coeffs, oracles.literal_trimmed(p.coeffs))
            assert (p.trimmed() is p) == (deg == 0)


def _generators(rng):
    """Random 2q x 2q generators of degree 0..6 at every scale, and the
    descent resolvents of measures' moments, q 1..5."""
    for q in range(1, 6):
        for deg in range(7):
            yield q, MatrixPolynomial(_stack(rng, deg + 1, 2 * q, 2 * q,
                                             SCALES[deg % len(SCALES)]))
        for m in (1, 2, 3):
            alpha = float(rng.uniform(-1.0, 1.0))
            _, seq = measure_seq(rng, q, m, alpha=alpha)
            yield q, descent_resolvent(classify(seq).trace)


def test_num_den_has_the_bits_of_four_block_products():
    rng = np.random.default_rng(92)
    count = 0
    for q, gen in _generators(rng):
        for kind in ("cauchy", "zero", "two_dens"):
            for scale in (1e-6, 1.0, 1e6):
                pair = _pair(rng, 0.0, q, kind, scale)
                num, den = lft._num_den(gen, pair.phi, pair.psi)
                want = oracles.literal_num_den(
                    gen.coeffs, pair.phi.num.coeffs, pair.phi.den,
                    pair.psi.num.coeffs, pair.psi.den)
                assert _same(num.coeffs, want[0]) and _same(den.coeffs, want[1])
                count += 1
    assert count == 5 * 10 * 9


def test_division_by_a_root_has_the_bits_of_the_accumulator_loop():
    rng = np.random.default_rng(93)
    alphas = [-1.0, 0.0, 1.0] + list(rng.uniform(-1.0, 1.0, 5))
    for q in range(1, 6):
        for deg in range(1, 8):
            for scale in SCALES:
                c = _stack(rng, deg + 1, 1, q * q + 1, scale)[:, 0]
                for alpha in alphas:
                    quo, rem = lft._divide_by_root(c, alpha)
                    want_quo, want_rem = oracles.literal_divide_by_root(c, alpha)
                    assert _same(quo, want_quo) and _same(rem, want_rem)


def test_horner_has_the_bits_of_the_broadcast_start():
    rng = np.random.default_rng(95)
    for q in range(1, 6):
        for deg in range(7):
            for scale in SCALES:
                alpha = float(rng.uniform(-1.0, 1.0))
                points = (np.asarray(default_grid(alpha)),
                          np.asarray([alpha + 0.5j]),
                          np.asarray(default_grid(alpha)[:6]).reshape(2, 3),
                          complex(alpha - 1.0), alpha + 2.0j)
                for shape in ((q, q), (1, 1), (2 * q, q)):
                    c = _stack(rng, deg + 1, *shape, scale)
                    p = MatrixPolynomial(c)
                    for z in points:
                        assert _same(p(z), oracles.literal_horner(p.coeffs, z))


def test_matches_gives_the_verdict_of_one_norm_per_point():
    # the reduced candidate is the function itself, off by a relative d
    # around SIMPLIFY_REL, so both verdicts occur and some sit at the step
    rng = np.random.default_rng(96)
    verdicts = set()
    for q in range(1, 5):
        for deg in range(1, 6):
            for scale in SCALES:
                num = MatrixPolynomial(_stack(rng, deg, q, q, scale))
                roots = rng.uniform(0.5, 3.0, deg) * np.exp(
                    1j * rng.uniform(-3.0, 3.0, deg))
                f = RationalMatFun(num, np.polynomial.polynomial.polyfromroots(roots))
                pole_scale = 1.0 + float(np.abs(roots).max())
                for d in (0.0, 1e-12, 5e-11, 9.9e-11, 1e-10, 1.01e-10, 3e-10,
                          1e-8):
                    other = RationalMatFun(f.num.scale(1.0 + d), f.den)
                    got = f._matches(other, pole_scale)
                    assert got == oracles.oracle_matches(f, other, pole_scale)
                    verdicts.add(got)
    assert verdicts == {True, False}


def _circles(coeffs):
    """How many sampling circles the interpolation of ``coeffs`` uses."""
    radius = oracles.literal_balanced_radius(coeffs)
    return 1 + (radius > 1.5) + (radius > 30.0)


def _spread(rng, q, deg, scale, rate):
    """A random q x q stack whose coefficient j is scaled by 10^(-rate j):
    the rates -1, 1 and 2.5 sample one, two and three circles on most
    draws."""
    c = _stack(rng, deg + 1, q, q, scale)
    return c * (10.0 ** (-rate * np.arange(deg + 1)))[:, None, None]


def test_interpolation_has_the_bits_of_one_pass_per_circle():
    rng = np.random.default_rng(99)
    seen = set()
    for q in range(1, 6):
        for deg in range(9):
            for scale in SCALES:
                for rate in (-1.0, 1.0, 2.5):
                    c = _spread(rng, q, deg, scale, rate)
                    if deg % 3 == 0:
                        # exact zeros off the diagonal, and a constant I
                        c[:] = c * np.eye(q)
                        c[0] = np.eye(q)
                    seen.add(_circles(c))
                    p = MatrixPolynomial(c)
                    for fn, k in ((np.linalg.det, q * deg + 1),
                                  (_adjugates, (q - 1) * deg + 1)):
                        assert _same(_interp_coeffs(p, fn, k),
                                     oracles.literal_interp_coeffs(c, fn, k))
                    want = MatrixPolynomial(oracles.literal_interp_coeffs(
                        c, _adjugates, (q - 1) * deg + 1))
                    assert _same(adjugate_poly(p).coeffs, want.coeffs)
    assert seen == {1, 2, 3}


def test_products_have_the_bits_of_one_product_per_row():
    rng = np.random.default_rng(100)
    for q in range(1, 6):
        for deg in range(9):
            for scale in SCALES:
                # the descent product's factors, the (2q x q) row stacks
                # that lft._num_den multiplies by a pair component, and the
                # q x q products of N adj(D) and in_diamond
                for left, inner, right in ((2 * q, 2 * q, 2 * q),
                                           (2 * q, q, q), (q, q, q)):
                    x = _stack(rng, deg + 1, left, inner, scale)
                    y = _stack(rng, 1 + (deg * 5) % 9, inner, right)
                    assert _same(_convolve(x, y), oracles.literal_convolve(x, y))


def _literal_adjugate(p):
    return MatrixPolynomial(oracles.literal_interp_coeffs(
        p.coeffs, _adjugates, (p.size - 1) * p.degree + 1))


def _old_kernels(monkeypatch):
    """Swap the literal kernels back into the synthesis path."""
    monkeypatch.setattr(MatrixPolynomial, "coeff_norms",
                        lambda self: oracles.literal_coeff_norms(self.coeffs))
    monkeypatch.setattr(MatrixPolynomial, "trimmed", lambda self:
                        MatrixPolynomial(oracles.literal_trimmed(self.coeffs)))
    monkeypatch.setattr(MatrixPolynomial, "__call__",
                        lambda self, z: oracles.literal_horner(self.coeffs, z))
    monkeypatch.setattr(lft, "_num_den", lambda gen, phi, psi: tuple(
        MatrixPolynomial(c) for c in oracles.literal_num_den(
            gen.coeffs, phi.num.coeffs, phi.den, psi.num.coeffs, psi.den)))
    monkeypatch.setattr(lft, "_divide_by_root", oracles.literal_divide_by_root)
    monkeypatch.setattr(RationalMatFun, "_matches", oracles.oracle_matches)
    monkeypatch.setattr(respoly, "_convolve", oracles.literal_convolve)
    monkeypatch.setattr(respoly, "_interp_coeffs", lambda p, fn, k:
                        oracles.literal_interp_coeffs(p.coeffs, fn, k))
    monkeypatch.setattr(lft, "adjugate_poly", _literal_adjugate)
    monkeypatch.setattr(pairs, "adjugate_poly", _literal_adjugate)


def _general_path(monkeypatch):
    """Send every pair through ``lft.lft_rational``, as one without atoms."""
    monkeypatch.setattr(solver, "_parameter_atoms", lambda *args: None)


def _outcome(req):
    try:
        f = solve(req)
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)
    return f.num.coeffs.tobytes(), f.den.tobytes(), f.num.shape


def test_solve_keeps_its_bytes_with_the_literal_kernels(monkeypatch):
    rng = np.random.default_rng(97)
    requests = []
    for q in range(1, 6):
        for m in ((1, 2, 3) if q < 5 else (1, 2)):
            alpha = float(rng.uniform(-1.0, 1.0))
            scale = SCALES[(q + m) % len(SCALES)]
            _, exact = measure_seq(rng, q, m, alpha=alpha)
            seq = MomentSequence(alpha, tuple(scale * s for s in exact.s))
            for kind in ("cauchy", "zero"):
                pair = _pair(rng, alpha, q, kind)
                for mode in ("leq", "eq"):
                    requests.append(SolutionRequest(seq, pair, mode))
    _general_path(monkeypatch)
    new = [_outcome(req) for req in requests]
    with monkeypatch.context() as mp:
        _old_kernels(mp)
        old = [_outcome(req) for req in requests]
    assert new == old
    assert sum(isinstance(o[0], bytes) for o in new) >= len(new) - 4


def test_a_q3_m2_solve_reads_no_single_norm_and_builds_few_polynomials(
        monkeypatch):
    # every norm on the synthesis path comes from a stacked call; the
    # polynomials built are the generator, the blocks' two products and
    # their sum, num and den, the adjugate, N adj(D), the deflated
    # numerator, and the rescaled and refitted results
    rng = np.random.default_rng(98)
    _, seq = measure_seq(rng, 3, 2, alpha=0.3)
    classify(seq)
    _general_path(monkeypatch)
    frobs, built = [], []

    def counted_post_init(self, _fn=MatrixPolynomial.__post_init__):
        built.append(self)
        return _fn(self)

    monkeypatch.setattr(matcore, "frob",
                        lambda a, _fn=matcore.frob: frobs.append(a) or _fn(a))
    monkeypatch.setattr(MatrixPolynomial, "__post_init__", counted_post_init)
    for mode, most in (("leq", 17), ("eq", 20)):
        req = SolutionRequest(seq, _pair(rng, 0.3, 3, "cauchy"), mode)
        frobs.clear()
        built.clear()
        f = solve(req)
        assert f.q == 3
        assert not frobs
        assert len(built) <= most, (mode, len(built))


def test_a_q3_m2_solve_samples_each_interpolation_in_one_pass(monkeypatch):
    # det D and adj D take one FFT each, and every circle of an
    # interpolation comes from one Horner walk; the eq mode's constant
    # psi = I is read exactly, with no walk and no FFT.  D's polynomial is
    # walked on no grid: solve gates D(z) from the pair's values
    rng = np.random.default_rng(98)
    _, seq = measure_seq(rng, 3, 2, alpha=0.3)
    classify(seq)
    _general_path(monkeypatch)
    ffts, walks = [], []

    def counted_call(self, z, _fn=MatrixPolynomial.__call__):
        if np.ndim(z):
            walks.append(np.shape(z))
        return _fn(self, z)

    monkeypatch.setattr(np.fft, "fft",
                        lambda *a, _fn=np.fft.fft, **k: ffts.append(1)
                        or _fn(*a, **k))
    monkeypatch.setattr(MatrixPolynomial, "__call__", counted_call)
    for mode in ("leq", "eq"):
        req = SolutionRequest(seq, _pair(rng, 0.3, 3, "cauchy"), mode)
        ffts.clear()
        walks.clear()
        assert solve(req).q == 3
        assert (len(ffts), len(walks)) == (2, 6), (mode, walks)
