import json
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    bench_workloads,
    cauchy_pair,
    const_pair,
    const_psi_pair,
    grid_pole_pair,
    identity_pair,
    random_measure,
    random_psd,
    sample_points,
)
from stieltjesmp import matcore, serialize
from stieltjesmp.matcore import (
    DEFAULT_TOL,
    InconsistencyError,
    PreconditionError,
    SingularDenominatorError,
    frob,
    j_form,
    pinv,
    range_contains,
    signature_j,
)
from stieltjesmp.lft import lft_rational
from stieltjesmp.measures import DiscreteMeasure, stieltjes_transform
from stieltjesmp.pairs import (
    RationalMatFun,
    StieltjesPair,
    default_grid,
    equivalent,
    gamma_U_embed,
    grid_values,
    in_class_P_of,
    in_diamond,
    pair_from_function,
    verify_pair,
)
from stieltjesmp.hankel import classify
from stieltjesmp.respoly import MatrixPolynomial, descent_resolvent
from stieltjesmp.solver import _range_basis, case_of

from oracles import oracle_simplify, oracle_verify_pair


def _rand_rat(rng, q, deg, den):
    num = MatrixPolynomial(tuple(
        rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        for _ in range(deg + 1)))
    return RationalMatFun(num, den)


def test_rational_arithmetic_pointwise():
    rng = np.random.default_rng(50)
    f = _rand_rat(rng, 2, 2, (1.0, 1.0))       # den 1 + z
    g = _rand_rat(rng, 2, 1, (2.0, 0.0, 1.0))  # den 2 + z^2
    for z in (0.5 + 1j, -3.0, 1.0 - 2.0j):
        assert_allclose((f + g)(z), f(z) + g(z), atol=1e-10)
        assert_allclose((f - g)(z), f(z) - g(z), atol=1e-10)
        assert_allclose((f @ g)(z), f(z) @ g(z), atol=1e-10)
        assert_allclose(f.scale(3.0)(z), 3 * f(z), atol=1e-10)
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(f.lmul(c)(z), c @ f(z), atol=1e-10)
        assert_allclose(f.rmul(c)(z), f(z) @ c, atol=1e-10)


def test_rational_den_normalization():
    f = RationalMatFun(MatrixPolynomial.constant(np.eye(2)), (100.0, 50.0))
    top = max(abs(c) for c in f.den)
    assert 0.5 <= top <= 2.0
    assert_allclose(f(1.0), np.eye(2) / 150.0, atol=1e-14)
    with pytest.raises(ValueError):
        RationalMatFun(MatrixPolynomial.constant(np.eye(2)), (0.0,))


def test_rational_den_is_a_read_only_copy():
    den = np.array([1.0, -0.5, 1e-20], dtype=complex)
    f = RationalMatFun(MatrixPolynomial.constant(np.eye(2)), den)
    den[0] = 5.0
    assert f.den.shape == (2,) and f.den[0] == 1.0
    with pytest.raises(ValueError):
        f.den[1] = 0.0


def test_rational_pole_gate():
    f = RationalMatFun(MatrixPolynomial.constant(np.eye(2)), (1.0, -1.0))
    with pytest.raises(SingularDenominatorError) as err:
        f(1.0)
    assert err.value.stage == "evaluation"
    assert err.value.point == 1.0


def test_evaluation_is_the_grid_walk_at_one_point():
    # f(z) is grid_values at the one point z: the same bits off a pole,
    # SingularDenominatorError at one, and an overflow refused by name
    rng = np.random.default_rng(53)
    for q, deg, den in ((1, 0, (1.0,)), (2, 3, (2.0, -1.0, 0.5j)),
                        (3, 2, (4.0, 0.0, 1.0))):
        f = _rand_rat(rng, q, deg, den)
        for z in sample_points(rng, 0.0, 6):
            _, (values,) = grid_values((f,), (z,))
            assert f(z).tobytes() == values[0].tobytes()
    with pytest.raises(SingularDenominatorError) as err:
        f(2j)
    assert err.value.stage == "evaluation" and err.value.point == 2j
    coeffs = np.zeros((302, 2, 2))
    coeffs[0], coeffs[301] = 1e-3 * np.eye(2), 1e10 * np.eye(2)
    big = RationalMatFun(MatrixPolynomial(coeffs))
    with pytest.raises(PreconditionError, match=r"point 10j is not finite"):
        big(10j)


def test_simplify_walks_its_control_points_once(monkeypatch):
    # _matches evaluates both functions at all four control points in one
    # grid walk, not point by point
    base, blown = _linear_blown()
    walks, calls = [], []
    call = RationalMatFun.__call__
    monkeypatch.setattr("stieltjesmp.pairs.grid_values", lambda funs, grid:
                        walks.append(len(grid)) or grid_values(funs, grid))
    monkeypatch.setattr(RationalMatFun, "__call__",
                        lambda self, z: calls.append(z) or call(self, z))
    assert len(blown.simplify().den) == len(base.den)
    assert walks == [4] and not calls


def inverse(f):
    """Rational inverse: the swap [[O, I], [I, O]] acting on (F, I).  The
    swap is constant, so it has no endpoint of its own; the kernel divides
    out common factors z^k, which leaves the function as it is."""
    eye = np.eye(f.q, dtype=complex)
    swap = np.block([[np.zeros_like(eye), eye], [eye, np.zeros_like(eye)]])
    return lft_rational(MatrixPolynomial.constant(swap), f,
                        RationalMatFun.const(eye), 0.0, stage="inverse")


def test_rational_inverse():
    rng = np.random.default_rng(51)
    f = _rand_rat(rng, 2, 1, (1.0, 2.0))
    inv = inverse(f)
    for z in (0.3 + 0.8j, -1.5):
        assert_allclose(f(z) @ inv(z), np.eye(2), atol=1e-9)
    zero = RationalMatFun.zero(2)
    with pytest.raises(SingularDenominatorError):
        inverse(zero)
    # coefficient trims are absolute (1e-13), so at 1e-5 scale the adjugate
    # route is unreliable; without the floor at 1 in the vanishing test the
    # "inverse" of this 3 x 3 function is off by O(10), so it must refuse
    small = _rand_rat(rng, 3, 1, (1.0, 2.0))
    small = RationalMatFun(small.num.scale(1e-5), small.den)
    with pytest.raises(SingularDenominatorError) as err:
        inverse(small)
    assert err.value.stage == "inverse"


def _linear_blown():
    """(base, base with numerator and denominator multiplied by z - 2)."""
    rng = np.random.default_rng(52)
    base = _rand_rat(rng, 2, 1, (1.0, 1.0))
    blown = RationalMatFun(base.num.scale_poly((-2.0, 1.0)),
                           tuple(np.convolve(base.den, (-2.0, 1.0))))
    return base, blown


def _cubic_blown(q):
    """(base, base with numerator and denominator multiplied by
    (z - 2)^2 (z + 0.5))."""
    rng = np.random.default_rng(60 + q)
    base = _rand_rat(rng, q, 1, (0.5, -1.5, 1.0))  # roots 0.5 and 1
    factor = np.polynomial.polynomial.polyfromroots([2.0, 2.0, -0.5])
    blown = RationalMatFun(base.num.scale_poly(factor),
                           tuple(np.convolve(base.den, factor)))
    return base, blown


def _coprime():
    rng = np.random.default_rng(62)
    den = np.polynomial.polynomial.polyfromroots([0.5, -1.0, 3.0 + 1.0j])
    return _rand_rat(rng, 4, 2, tuple(den))


def test_simplify_cancels_shared_roots_only():
    base, blown = _linear_blown()
    slim = blown.simplify()
    assert len(slim.den) == len(base.den)
    for z in (0.7 + 0.4j, 5.0):
        assert_allclose(slim(z), base(z), atol=1e-10)
    # no common root: simplify leaves the function alone
    assert len(base.simplify().den) == len(base.den)


@pytest.mark.parametrize("q", [3, 4])
def test_simplify_cancels_cubic_factor_with_repeated_root(q):
    base, blown = _cubic_blown(q)
    slim = blown.simplify()
    assert len(slim.den) == len(base.den)
    for z in (0.7 + 0.4j, -1.3 + 2.0j, 5.0):
        assert_allclose(slim(z), base(z), rtol=1e-10, atol=1e-10)


def test_simplify_leaves_coprime_function_alone():
    f = _coprime()
    slim = f.simplify()
    assert len(slim.den) == len(f.den)
    for z in (0.7 + 0.4j, 5.0):
        assert_allclose(slim(z), f(z), rtol=1e-12)


def test_simplify_of_a_zero_numerator_is_zero_over_one():
    # no fraction to reduce: the constant zero of the same shape over 1
    zero = RationalMatFun(MatrixPolynomial((np.zeros((2, 3)),) * 3),
                          (2.0, 1.0, 1.0))
    slim = zero.simplify()
    assert slim.num.coeffs.shape == (1, 2, 3) and not slim.num.coeffs.any()
    assert np.array_equal(slim.den, [1.0])


def test_simplify_solves_thin_systems_in_the_denominator_alone(monkeypatch):
    # shape guard: every SVD simplify takes has at most dn + 1 columns (the
    # trial denominator's coefficients) and never builds a full left factor
    rng = np.random.default_rng(63)
    den = np.polynomial.polynomial.polyfromroots(rng.uniform(-3.0, 3.0, 20))
    f = _rand_rat(rng, 4, 19, tuple(den))
    dn = len(f.den) - 1
    assert dn == 20
    calls = []
    svd = np.linalg.svd

    def spy(a, full_matrices=True, compute_uv=True, hermitian=False):
        calls.append((np.shape(a), full_matrices, compute_uv))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv,
                   hermitian=hermitian)

    monkeypatch.setattr(np.linalg, "svd", spy)
    f.simplify()
    assert calls
    for shape, full, uv in calls:
        assert shape[1] <= dn + 1, shape
        assert not (uv and full), shape


def _presimplify_fractions(workload):
    """What ``lft.lft_rational`` hands to ``simplify`` on the bench's
    seed-7 batch 0 of ``workload``: divide_out_root(N adj(D), det D, alpha)
    for the descent product of each sequence's trace and its pair (lifted
    as ``solve_degenerate_embedded`` lifts it), the fractions ``solve``
    synthesized from before its pairs with atoms took the continued
    fraction."""
    seen = []
    simplify = RationalMatFun.simplify

    def spy(f):
        seen.append(f)
        return simplify(f)

    wl = bench_workloads()
    make = wl.qcliff_batch if workload == "qcliff" else wl.longseq_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RationalMatFun, "simplify", spy)
        for prob in make(7, 0):
            seq, pair = prob.seq, prob.pair
            _, r, top = case_of(seq)
            if prob.embedded:
                pair = gamma_U_embed(pair.phi, pair.psi,
                                     _range_basis(top, r), seq.alpha)
            lft_rational(descent_resolvent(classify(seq).trace), pair.phi,
                         pair.psi, seq.alpha, stage="synthesis")
    return seen


def _planted_factors():
    """(function with a common factor of known degree, that degree)."""
    npoly = np.polynomial.polynomial
    alpha = 0.7
    rng = np.random.default_rng(64)
    for roots in ((), (alpha,), (2.0, 2.0), (2.0, 2.0, -0.5),
                  (alpha, 1.5 + 0.5j, -2.0)):
        for q in (1, 2, 3):
            for deg in (1, 2):
                den = npoly.polyfromroots(rng.uniform(-3.0, 3.0, deg + 1))
                f = _rand_rat(rng, q, deg, tuple(den))
                factor = npoly.polyfromroots(roots) if roots else np.ones(1)
                yield RationalMatFun(f.num.scale_poly(factor),
                                     npoly.polymul(f.den, factor)), len(roots)


def test_simplify_matches_the_bottom_up_search():
    # the degrees with a reduced form make an interval below the input's,
    # so searching down from the top and keeping the last accepted degree
    # picks what the ascending search picked: the same bits
    def same(f):
        got, ref = f.simplify(), oracle_simplify(f)
        assert np.array_equal(got.num.coeffs, ref.num.coeffs)
        assert np.array_equal(got.den, ref.den)
        return len(f.den) - len(got.den)

    for f, planted in _planted_factors():
        assert same(f) == planted
    for workload in ("qcliff", "longseq"):
        cuts = [same(f) for f in _presimplify_fractions(workload)]
        assert {0, 1} <= set(cuts), workload


@pytest.mark.parametrize("build, rounds", [
    (_coprime, 1),
    (lambda: _linear_blown()[1], 2),
    (lambda: _cubic_blown(3)[1], 4),
], ids=["coprime", "linear", "cubic"])
def test_simplify_refits_down_to_the_first_rejection(monkeypatch, build,
                                                     rounds):
    # cost guard: one refit per accepted degree plus the one that stops the
    # search; the ascending search made dn - max(0, dn - nd) on a coprime
    # function
    f = build()
    calls = []
    refit = RationalMatFun._refit

    def spy(self, *args):
        calls.append(args[-1])
        return refit(self, *args)

    monkeypatch.setattr(RationalMatFun, "_refit", spy)
    f.simplify()
    dn = len(f.den) - 1
    assert calls == list(range(dn - 1, dn - 1 - rounds, -1))


def _same_function(f, g) -> bool:
    """f and g hold the same coefficients, bit for bit."""
    return (f.num.coeffs.tobytes() == g.num.coeffs.tobytes()
            and np.asarray(f.den).tobytes() == np.asarray(g.den).tobytes())


def test_rational_json_roundtrip():
    # the layout holds exact floats and json writes every double exactly
    rng = np.random.default_rng(53)
    den = rng.normal(size=3) + 1j * rng.normal(size=3)
    f = _rand_rat(rng, 2, 2, tuple(den))
    back = serialize.rational_from_json(json.loads(json.dumps(
        serialize.rational_to_json(f))))
    assert _same_function(back, f)


def test_default_grid_shape():
    grid = default_grid(1.0)
    assert len(grid) == 15
    reals = [z for z in grid if complex(z).imag == 0]
    assert len(reals) == 3 and all(complex(z).real < 1.0 for z in reals)


def test_default_grid_has_the_bytes_of_its_loop():
    # the ring offsets are computed once; each point keeps the bits and the
    # type of the loop that evaluated the exponentials per call
    def loop(alpha):
        pts = [alpha - 1.0, alpha - 2.0, alpha - 5.0]
        for r in (0.5, 2.0, 10.0):
            for th in (np.pi / 3, np.pi / 2, 2 * np.pi / 3, -np.pi / 2):
                pts.append(alpha + r * np.exp(1j * th))
        return tuple(pts)

    rng = np.random.default_rng(39)
    alphas = [0.0, -0.0, 1, np.float64(0.3)]
    alphas += list(rng.uniform(-1e3, 1e3, 1000)) + list(rng.standard_normal(1000))
    for alpha in alphas:
        got, ref = default_grid(alpha), loop(alpha)
        assert [type(z) for z in got] == [type(z) for z in ref]
        assert np.array(got).tobytes() == np.array(ref).tobytes()


def test_pair_construction_and_quotient():
    p = cauchy_pair(0.0, 2, t=1.0)
    assert p.q == 2
    z = 0.5 + 0.5j
    assert_allclose(p.phi(z) @ np.linalg.inv(p.psi(z)), np.eye(2) / (1.0 - z),
                    atol=1e-12)
    stack = p.stack(z)
    assert stack.shape == (4, 2)


def test_verify_pair_accepts_the_usual_suspects():
    for pair in (identity_pair(0.5, 2), const_pair(0.5, 2, 1.5),
                 cauchy_pair(0.5, 3, t=2.0), const_psi_pair(0.5, 2)):
        rep = verify_pair(pair)
        assert rep["ok"], rep


def test_verify_pair_accepts_measure_transforms():
    rng = np.random.default_rng(54)
    for alpha in (0.0, -1.5):
        mu = random_measure(rng, 2, 3, alpha=alpha)
        pair = pair_from_function(stieltjes_transform(mu), alpha)
        rep = verify_pair(pair)
        assert rep["ok"], rep


def test_verify_pair_rejects_wrong_sign_and_real_axis():
    # pole below alpha with the wrong residue sign: fails the shifted form
    phi = RationalMatFun(MatrixPolynomial.constant(-np.eye(2)), (1.0, 1.0))
    bad = StieltjesPair(0.0, phi, RationalMatFun.const(np.eye(2)))
    rep = verify_pair(bad)
    assert not rep["ok"]

    neg = StieltjesPair(0.0, RationalMatFun.const(np.eye(2)),
                        RationalMatFun.const(-np.eye(2)))
    rep = verify_pair(neg)
    assert not rep["real_axis_ok"] and not rep["ok"]


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_verify_pair_refuses_a_walk_that_keeps_no_point(alpha):
    pair = grid_pole_pair(alpha, 2)
    assert not len(grid_values((pair.phi,), default_grid(alpha))[0])
    with pytest.raises(InconsistencyError,
                       match="every grid point sits on a pole of the pair"):
        verify_pair(pair)


def test_pair_from_function_names_the_failed_conditions():
    # F = -I: Im((z - alpha) F) < 0 above the axis, and F < 0 left of alpha
    with pytest.raises(PreconditionError) as err:
        pair_from_function(RationalMatFun.const(-np.eye(2)), 0.0)
    assert "failed: kd2_ok, real_axis_ok (report " in str(err.value)


def _symmetrizing_pair():
    """(F + H) R and R with a large PSD H: the J-forms are O(1) results of
    cancelling O(1e8) products."""
    mu = DiscreteMeasure(0.0, (1.0, 3.0), (np.eye(2), np.diag([1.0, 2.0])))
    phi = stieltjes_transform(mu) + RationalMatFun.const(
        1e8 * np.diag([1.0, 0.5]))
    r = np.array([[0.3 - 1.1j, 1.2 + 0.4j], [-0.7 + 0.2j, 0.9 - 0.6j]])
    return StieltjesPair(0.0, phi.rmul(r), RationalMatFun.const(r))


def test_verify_pair_symmetrizes_computed_forms():
    # the rounding asymmetry of the J-forms exceeds tol.herm; the forms are
    # symmetrized, not rejected as "not Hermitian"
    pair = _symmetrizing_pair()
    jt = signature_j(2)
    z = complex(default_grid(0.0)[3])
    form = j_form(pair.stack(z), jt) / (2.0 * z.imag)
    assert frob(form - form.conj().T) > DEFAULT_TOL.herm * (1.0 + frob(form))
    rep = verify_pair(pair)
    assert rep["ok"], rep
    assert min(rep["kd1_margin"], rep["kd2_margin"]) > 0.0


def test_verify_pair_rejects_rank_deficient_stack():
    sing = np.array([[1.0, 0.0], [0.0, 0.0]])
    pair = StieltjesPair(0.0, RationalMatFun.const(sing),
                         RationalMatFun.const(sing))
    rep = verify_pair(pair)
    assert not rep["rank_ok"] and not rep["ok"]


def _oracle_pairs():
    """Admissible pairs, the rejected ones of the tests above, and a phi
    with a pole at the grid point alpha - 1."""
    rng = np.random.default_rng(57)
    out = []
    for q in (1, 2, 3):
        alpha = float(rng.uniform(-2.0, 2.0))
        r = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)) + 3 * np.eye(q)
        transform = stieltjes_transform(random_measure(rng, q, 3, alpha=alpha))
        out += [cauchy_pair(alpha, q, t=alpha + rng.uniform(0.1, 4.0),
                            c=random_psd(rng, q)),
                const_psi_pair(alpha, q),
                pair_from_function(transform, alpha),
                StieltjesPair(alpha, transform.rmul(r), RationalMatFun.const(r))]
    sing = np.array([[1.0, 0.0], [0.0, 0.0]])
    wrong_sign = RationalMatFun(MatrixPolynomial.constant(-np.eye(2)), (1.0, 1.0))
    out += [StieltjesPair(0.0, wrong_sign, RationalMatFun.const(np.eye(2))),
            StieltjesPair(0.0, RationalMatFun.const(np.eye(2)),
                          RationalMatFun.const(-np.eye(2))),
            StieltjesPair(0.0, RationalMatFun.const(sing),
                          RationalMatFun.const(sing)),
            _symmetrizing_pair()]
    for alpha in (0.0, 0.75):
        pole = RationalMatFun(MatrixPolynomial.constant(np.eye(2)),
                              (alpha - 1.0, -1.0))
        out.append(StieltjesPair(alpha, pole, RationalMatFun.const(np.eye(2))))
    return out


def test_verify_pair_matches_the_pointwise_oracle():
    verdicts = set()
    for pair in _oracle_pairs():
        grid = default_grid(pair.alpha)
        got = verify_pair(pair)
        ref = oracle_verify_pair(pair, grid, DEFAULT_TOL.psd)
        assert got.keys() == ref.keys()
        for key, want in ref.items():
            if isinstance(want, float):
                # margins to 1e-12 relative; the floor only serves exact zeros
                assert got[key] == pytest.approx(want, rel=1e-12, abs=1e-300), key
            else:
                assert got[key] == want, key
        verdicts.add((got["ok"], got["skipped_points"]))
    assert verdicts == {(True, 0), (False, 0), (False, 1)}


def test_verify_pair_refuses_a_pair_negative_on_the_half_axis():
    # the default grid has no point on [alpha, inf), where admissibility
    # constrains nothing, and its off-axis points refuse the pair
    for alpha in (0.0, 0.75):
        bad = StieltjesPair(alpha, RationalMatFun.const(-np.eye(2)),
                            RationalMatFun.const(np.eye(2)))
        assert not verify_pair(bad)["ok"]
        grid = np.asarray(default_grid(alpha))
        assert np.all((grid.imag != 0.0) | (grid.real < alpha))
        with pytest.raises(TypeError):
            verify_pair(bad, grid=grid)


def test_equivalence_is_projective():
    rng = np.random.default_rng(55)
    base = cauchy_pair(0.0, 2, t=1.5)
    # scalar polynomial right factor
    r = (3.0, 1.0)  # z + 3, no roots on the grid
    scaled = StieltjesPair(
        0.0,
        RationalMatFun(base.phi.num.scale_poly(r), base.phi.den),
        RationalMatFun(base.psi.num.scale_poly(r), base.psi.den))
    assert equivalent(base, scaled)
    # constant invertible right factor
    c = rng.normal(size=(2, 2)) + 3 * np.eye(2)
    conj = StieltjesPair(0.0, base.phi.rmul(c), base.psi.rmul(c))
    assert equivalent(base, conj)
    assert not equivalent(base, identity_pair(0.0, 2))
    assert equivalent(identity_pair(0.0, 2), const_psi_pair(0.0, 2))
    # another size or endpoint is never equivalent
    assert not equivalent(identity_pair(0.0, 2), identity_pair(0.0, 3))
    assert not equivalent(identity_pair(0.0, 2), identity_pair(0.5, 2))


def test_pairs_with_no_point_to_compare_are_not_equivalent():
    # a walk that keeps no point, or stacks that are rank deficient at
    # every point, compare nothing: no span was seen to agree
    five = StieltjesPair(0.0, RationalMatFun.const(5.0 * np.eye(2)),
                         RationalMatFun.const(np.eye(2)))
    flat = RationalMatFun.const(np.diag([1.0, 0.0]))
    assert not equivalent(grid_pole_pair(0.0, 2), five)
    assert not equivalent(five, grid_pole_pair(0.0, 2))
    assert not equivalent(StieltjesPair(0.0, flat, flat), five)
    assert equivalent(five, five)


def test_in_class_range_condition():
    proj2 = np.diag([1.0, 1.0, 0.0])
    inside = StieltjesPair(0.0, RationalMatFun.const(np.diag([1.0, 0.0, 0.0])),
                           RationalMatFun.const(np.eye(3)))
    outside = StieltjesPair(0.0, RationalMatFun.const(np.diag([0.0, 0.0, 1.0])),
                            RationalMatFun.const(np.eye(3)))
    assert in_class_P_of(inside, proj2, pinv(proj2))
    assert not in_class_P_of(outside, proj2, pinv(proj2))
    assert in_class_P_of(identity_pair(0.0, 3), np.zeros((3, 3)),
                         np.zeros((3, 3)))
    # phi(z) = diag(1e6 z^2, 1e-5) leaves ran diag(1, 0) at every z, but on
    # the grid (|z - alpha| >= 0.5) the escape is below the inclusion
    # tolerance relative to |phi(z)|; its constant coefficient shows it
    phi = RationalMatFun(MatrixPolynomial(
        (np.diag([0.0, 1e-5]), np.zeros((2, 2)), np.diag([1e6, 0.0]))))
    small = StieltjesPair(0.0, phi, RationalMatFun.const(np.eye(2)))
    assert not in_class_P_of(small, np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    assert not range_contains(np.diag([1.0, 0.0]), phi(0.01))


def test_in_class_P_of_reads_the_pseudoinverse_it_is_given(monkeypatch):
    # the gate inverts nothing itself: solve hands it the one inverse of
    # Q_m that the descent product reads too, and a wrong one shows
    proj2 = np.diag([1.0, 1.0, 0.0])
    pair = cauchy_pair(0.0, 3, c=np.diag([1.0, 2.0, 0.0]))
    good, wrong = pinv(proj2), pinv(np.diag([1.0, 0.0, 0.0]))
    calls = []

    def counted(a, *args, _fn=matcore.pinv, **kwargs):
        calls.append(np.array(a))
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(matcore, "pinv", counted)
    assert in_class_P_of(pair, proj2, good)
    assert not in_class_P_of(pair, proj2, wrong)
    assert not calls


def _off_pole_values(f, grid):
    # the pointwise reference: f(z) at each grid point that is not a pole
    for z in grid:
        try:
            yield f(complex(z))
        except SingularDenominatorError:
            continue


def test_grid_values_refuses_an_overflowing_value_at_its_grid_point():
    # 1e10 z^301 overflows on default_grid's outer ring (|z| = 10) and on
    # no point inside it; numpy's SVD then failed with LinAlgError
    coeffs = np.zeros((302, 2, 2))
    coeffs[0], coeffs[301] = 1e-3 * np.eye(2), 1e10 * np.eye(2)
    phi = RationalMatFun(MatrixPolynomial(coeffs))
    pair = StieltjesPair(0.0, phi, RationalMatFun.const(np.eye(2)))
    grid = default_grid(0.0)
    first = complex(grid[11])
    assert abs(first) == pytest.approx(10.0) and abs(grid[10]) < 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError,
                           match=f"grid point {re.escape(str(first))} is not finite"):
            grid_values((pair.phi, pair.psi), grid)
        with pytest.raises(PreconditionError, match="is not finite"):
            verify_pair(pair)
    # the points inside the ring keep the bits of pointwise evaluation
    zs, (values,) = grid_values((phi,), grid[:11])
    assert len(zs) == 11
    for z, got in zip(zs, values):
        assert got.tobytes() == phi(complex(z)).tobytes()


def test_in_class_P_of_matches_the_pointwise_rule_on_the_longseq_pool():
    # the bench's longseq pool at seed 7 holds rank-deficient top entries
    # (completely and partially degenerate sequences); each top is tested
    # against the bench's pair when it is q x q, else against its lift on
    # the range basis of top (the route of solve_degenerate_embedded), and
    # a rank-deficient one also against (I, I) and (top, I)
    verdicts = []
    for prob in bench_workloads().pool("longseq", 7, ""):
        _, r, top = case_of(prob.seq)
        alpha, q = prob.seq.alpha, prob.q
        if prob.pair.q == q:
            candidates = [prob.pair]
        else:
            candidates = [gamma_U_embed(prob.pair.phi, prob.pair.psi,
                                        _range_basis(top, r), alpha)]
        if r < q:
            eye = RationalMatFun.const(np.eye(q))
            candidates += [StieltjesPair(alpha, eye, eye),
                           StieltjesPair(alpha, RationalMatFun.const(top), eye)]
        grid = default_grid(alpha)
        for pair in candidates:
            want = all(range_contains(top, ph)
                       for ph in _off_pole_values(pair.phi, grid))
            assert in_class_P_of(pair, top, pinv(top)) == want
            verdicts.append((r < q, want))
    assert set(verdicts) == {(False, True), (True, True), (True, False)}


def gamma_U_extract(f, g, u, alpha):
    """Invert the lift: compress a q x q pair (f, g) back to r x r.

    Uses the normalizing factor b = g - i f, which is invertible as a
    rational function for admissible range-restricted pairs; returns
    (u^* f b^(-1) u, u^* g b^(-1) u) simplified, with f b^(-1) and g b^(-1)
    the actions of [[I, O], [-iI, I]] and [[O, I], [-iI, I]] on (f, g).
    """
    eye = np.eye(f.q, dtype=complex)
    zero = np.zeros_like(eye)

    def compressed(top):
        gen = MatrixPolynomial.constant(np.block([top, [-1j * eye, eye]]))
        fb = lft_rational(gen, f, g, alpha, stage="compression")
        return fb.lmul(u.conj().T).rmul(u).simplify()

    return compressed([eye, zero]), compressed([zero, eye])


def test_gamma_embedding_roundtrip():
    rng = np.random.default_rng(56)
    small = cauchy_pair(0.25, 2, t=1.25)
    usub = np.linalg.qr(rng.normal(size=(4, 2)))[0]
    lifted = gamma_U_embed(small.phi, small.psi, usub, 0.25)
    assert lifted.q == 4
    assert verify_pair(lifted)["ok"]
    proj = usub @ usub.conj().T
    assert in_class_P_of(lifted, proj, pinv(proj))

    # extraction returns a representative of the same projective class
    phi_r, psi_r = gamma_U_extract(lifted.phi, lifted.psi, usub, 0.25)
    recovered = StieltjesPair(0.25, phi_r, psi_r)
    assert equivalent(recovered, small)
    for z in sample_points(rng, 0.25, 5):
        got = recovered.phi(z) @ np.linalg.inv(recovered.psi(z))
        assert frob(got - small.phi(z) @ np.linalg.inv(small.psi(z))) <= 1e-9


def test_gamma_embed_validates_isometry():
    bad_u = np.ones((3, 2))
    small = identity_pair(0.0, 2)
    with pytest.raises(PreconditionError):
        gamma_U_embed(small.phi, small.psi, bad_u, 0.0)


def test_diamond_membership():
    eye = RationalMatFun.const(np.eye(2))
    assert in_diamond(cauchy_pair(0.0, 2, t=1.0))["ok"]
    assert in_diamond(identity_pair(0.0, 2))["ok"]
    rep = in_diamond(const_pair(0.0, 2, 1.0))
    assert not rep["ok"]
    assert rep["residual"] > 0.1
    # decay is judged by degree, not size: a tiny constant still fails, and
    # so does a constant part under a large or slowly decaying Cauchy part
    assert not in_diamond(const_pair(0.0, 2, 1e-6))["ok"]
    for c, t in ((1.0, 200.0), (1e6, 1.0)):
        plus = cauchy_pair(0.0, 2, t=t, c=c * np.eye(2)).phi + eye
        rep = in_diamond(StieltjesPair(0.0, plus, eye))
        assert not rep["ok"], (c, t, rep)

    # a non-constant psi: phi psi^(-1) = I/(1 - z) decays; with
    # psi = diag(1, 1 - z) the first diagonal entry of the quotient does not
    one_minus_z = np.array([np.eye(2), -np.eye(2)])
    assert in_diamond(StieltjesPair(
        0.0, eye, RationalMatFun(MatrixPolynomial(one_minus_z))))["ok"]
    one_minus_z[1, 0, 0] = 0.0
    rep = in_diamond(StieltjesPair(
        0.0, eye, RationalMatFun(MatrixPolynomial(one_minus_z))))
    assert not rep["ok"]
    assert_allclose(rep["residual"], np.sqrt(0.5), rtol=1e-12)


def test_pair_json_roundtrip():
    # bit for bit, as for a rational function, at an alpha and a pole
    # that 15 significant digits do not hold
    rng = np.random.default_rng(54)
    alpha = rng.uniform(-1.0, 1.0)
    p = cauchy_pair(alpha, 2, t=alpha + rng.uniform(0.5, 3.0),
                    c=random_psd(rng, 2))
    back = serialize.pair_from_json(json.loads(json.dumps(
        serialize.pair_to_json(p))))
    assert back.alpha == p.alpha
    assert _same_function(back.phi, p.phi) and _same_function(back.psi, p.psi)


@pytest.mark.parametrize("call, error, message", [
    (lambda: StieltjesPair(float("nan"), RationalMatFun.const(np.eye(1)),
                           RationalMatFun.const(np.eye(1))),
     ValueError, "alpha must be finite"),
    (lambda: StieltjesPair(0.0, RationalMatFun.const(np.eye(1)),
                           RationalMatFun.const(np.eye(2))),
     ValueError, "pair components must be square and equally sized"),
    (lambda: StieltjesPair(0.0, RationalMatFun.const(np.ones((1, 2))),
                           RationalMatFun.const(np.ones((1, 2)))),
     ValueError, "pair components must be square and equally sized"),
    (lambda: gamma_U_embed(RationalMatFun.const(np.eye(2)),
                           RationalMatFun.const(np.eye(2)), np.eye(3)[:, :1],
                           0.0),
     PreconditionError, "pair size must match the number of columns of u"),
], ids=["alpha", "sizes", "non-square", "embed-size"])
def test_pairs_refuse_malformed_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_a_pair_scaled_far_below_unit_size_is_equivalent_to_itself():
    # both numerators times 1e-260 or 1e-300 is the right factor c I: the
    # stacks' sigma_1 sit near c, and only a zero stack, sigma_1 = 0,
    # compares nothing.  An absolute floor of 1e-250 once passed over
    # every point of such a pair, which then was not even equivalent to
    # itself
    base = cauchy_pair(0.0, 2, t=1.5)
    for c in (1e-260, 1e-300):
        tiny = StieltjesPair(0.0,
                             RationalMatFun(base.phi.num.scale(c), base.phi.den),
                             RationalMatFun(base.psi.num.scale(c), base.psi.den))
        assert equivalent(tiny, tiny), c
        assert equivalent(tiny, base) and equivalent(base, tiny), c
    # a zero stack's singular vectors span some q columns, here those of
    # (I, O): only sigma_1 = 0 keeps that from counting as agreement
    zero = RationalMatFun.zero(2)
    upper = StieltjesPair(0.0, RationalMatFun.const(np.eye(2)), zero)
    for other in (base, upper):
        assert not equivalent(StieltjesPair(0.0, zero, zero), other)
        assert not equivalent(other, StieltjesPair(0.0, zero, zero))
