import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

import oracles
from conftest import (completely_degenerate_seq, identity_pair, measure_seq,
                      nondegenerate_seq, partially_degenerate_moments,
                      random_psd)
from stieltjesmp import matcore
from stieltjesmp.hankel import MomentSequence, classify
from stieltjesmp.matcore import DEFAULT_TOL, PreconditionError, frob
from stieltjesmp.respoly import (
    MatrixPolynomial,
    _adjugates,
    adjugate_poly,
    compose_resolvent,
    descent_resolvent,
    det_or_raise,
    det_poly,
    v_poly,
    verify_j_identities,
    verify_product_identity,
    w_poly,
)
from stieltjesmp.schur import transform_trace
from stieltjesmp.solver import SolutionRequest, solve, solve_degenerate_embedded


def _rand_poly(rng, q, deg, rect=None):
    shape = (q, q) if rect is None else rect
    return MatrixPolynomial(tuple(
        rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for _ in range(deg + 1)))


def test_polynomial_evaluation_is_horner():
    c0 = np.array([[1.0, 0.0], [0.0, 2.0]])
    c1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = MatrixPolynomial((c0, c1))
    z = 2.0 + 1.0j
    assert_allclose(p(z), c0 + z * c1)
    assert p.degree == 1 and p.size == 2


def test_polynomial_ring_operations_agree_pointwise():
    rng = np.random.default_rng(30)
    a = _rand_poly(rng, 2, 3)
    b = _rand_poly(rng, 2, 2)
    for z in (0.3 + 1j, -2.0, 1.5 - 0.7j):
        assert_allclose((a + b)(z), a(z) + b(z), atol=1e-12)
        assert_allclose((a - b)(z), a(z) - b(z), atol=1e-12)
        assert_allclose((a @ b)(z), a(z) @ b(z), atol=1e-10)
        assert_allclose(a.scale(2.5)(z), 2.5 * a(z), atol=1e-12)
        assert_allclose(a.scale_poly((1.0, -3.0))(z), (1 - 3 * z) * a(z),
                        atol=1e-10)


def test_rectangular_polynomials_multiply_with_shape_checks():
    rng = np.random.default_rng(31)
    a = _rand_poly(rng, 0, 2, rect=(2, 3))
    b = _rand_poly(rng, 0, 1, rect=(3, 4))
    prod = a @ b
    assert prod.shape == (2, 4)
    z = 0.7 + 0.2j
    assert_allclose(prod(z), a(z) @ b(z), atol=1e-12)
    with pytest.raises(ValueError):
        b @ a
    with pytest.raises(ValueError):
        a.size


def test_polynomial_keeps_its_own_read_only_coefficients():
    c0 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    p = MatrixPolynomial((c0,))
    c0[0, 0] = 7.0
    assert p(0.0)[0, 0] == 1.0
    with pytest.raises(ValueError):
        p.coeffs[0][1, 1] = 9.0
    value = p(0.0)
    value[1, 1] = 9.0
    assert p(0.0)[1, 1] == 4.0
    assert p.coeffs.shape == (1, 2, 2) and p.coeffs.dtype == complex
    with pytest.raises(ValueError):
        MatrixPolynomial(())
    with pytest.raises(ValueError):
        MatrixPolynomial((np.eye(2), np.eye(3)))


def test_trimmed_drops_negligible_top_coefficients():
    p = MatrixPolynomial((np.eye(2), 1e-20 * np.eye(2)))
    assert p.trimmed().degree == 0
    z = MatrixPolynomial((np.zeros((2, 2)),))
    assert z.trimmed().degree == 0


def test_evaluation_at_an_array_of_points_stacks_the_pointwise_values():
    # bit for bit: det_poly and adjugate_poly sample all their circles, a
    # (circles, nodes) array, in one walk
    rng = np.random.default_rng(40)
    for q in range(1, 7):
        for deg in (0, 1, 3, 6):
            p = _rand_poly(rng, q, deg)
            zs = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
            zs[0, :2] = zs[0, :2].real
            values = p(zs)
            assert values.shape == (2, 5, q, q)
            pointwise = np.array([[p(z) for z in row] for row in zs])
            assert np.array_equal(values, pointwise), (q, deg)
            nodes = 3.0 * np.exp(2j * np.pi * np.arange(q * deg + 1)
                                 / (q * deg + 1))
            assert np.array_equal(p(nodes), np.stack([p(z) for z in nodes]))
            for z in zs.ravel():
                assert np.array_equal(p(np.array([z])), p(z)[None])


def test_stacked_adjugates_match_the_cofactor_loop_bit_for_bit():
    rng = np.random.default_rng(41)
    for q in range(1, 7):
        stack = rng.normal(size=(7, q, q)) + 1j * rng.normal(size=(7, q, q))
        stack[0] = 0.0
        stack[1, :, 0] = stack[1, :, -1]      # singular
        expected = np.stack([oracles.oracle_adjugate(m) for m in stack])
        assert np.array_equal(_adjugates(stack), expected), q


def test_det_and_adjugate_interpolation():
    rng = np.random.default_rng(32)
    cases = [_rand_poly(rng, q, deg) for q, deg in
             [(1, 3), (2, 2), (3, 4), (4, 1), (5, 3), (6, 2)]]
    full = _rand_poly(rng, 3, 2)
    lead = np.diag([1.0, 2.0, 0.0]) @ full.coeffs[-1]     # singular
    cases.append(MatrixPolynomial(tuple(full.coeffs[:-1]) + (lead,)))
    for p in cases:
        det = det_poly(p)
        adj = adjugate_poly(p)
        for z in (0.4 + 0.9j, -1.2, 2.0 - 0.3j):
            mz = p(z)
            assert abs(np.polynomial.polynomial.polyval(z, det)
                       - np.linalg.det(mz)) <= 1e-8 * (1 + abs(np.linalg.det(mz)))
            assert_allclose(adj(z), oracles.oracle_adjugate(mz), atol=1e-8)


@settings(max_examples=80, deadline=None)
@given(q=st.integers(1, 5), deg=st.integers(0, 6), circles=st.integers(1, 3),
       scale=st.sampled_from((1e-6, 1e-3, 1.0, 1e3, 1e6)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(q=3, deg=4, circles=1, scale=1.0, seed=0)
@example(q=3, deg=4, circles=2, scale=1.0, seed=0)
@example(q=3, deg=4, circles=3, scale=1.0, seed=0)
def test_polynomial_times_adjugate_is_the_determinant_off_the_circles(
        q, deg, circles, scale, seed):
    # an independent check of both interpolations: p(z) adj(z) = det(z) I
    # at points of the unit disk, on none of the sampling circles, to 1e-12
    # of P^q, P the sum of the coefficient norms, which bounds both sides
    # there.  Coefficient j is scaled by 10^(-rate j), so the Fujiwara
    # radius samples 1, 2 or 3 circles.
    rng = np.random.default_rng(seed)
    rate = {1: -1.0, 2: 1.0, 3: 2.5}[circles]
    c = scale * (rng.normal(size=(deg + 1, q, q))
                 + 1j * rng.normal(size=(deg + 1, q, q)))
    c *= (10.0 ** (-rate * np.arange(deg + 1)))[:, None, None]
    radius = oracles.literal_balanced_radius(c)
    assume(not deg or 1 + (radius > 1.5) + (radius > 30.0) == circles)
    p = MatrixPolynomial(c)
    det, adj = det_poly(p), adjugate_poly(p)
    size = sum(frob(x) for x in c) ** q
    for t in (0.3, 0.55, 0.8):
        z = t * np.exp(1j * (0.3 + 1.7 * t))
        gap = p(z) @ adj(z) - np.polynomial.polynomial.polyval(z, det) * np.eye(q)
        assert frob(gap) <= 1e-12 * size, (t, frob(gap) / size)


def test_polynomial_times_adjugate_is_the_determinant_beyond_the_radius():
    # coefficient j scaled by 10^(-2.5 j) puts the Fujiwara radius R above
    # 30; at |z| = 1.25 R and 2 R the small top coefficients dominate, so
    # none of the adjugate's may be dropped: p(z) adj(z) = det(z) I to
    # 1e-12 of (sum_j |p_j| |z|^j)^q, which bounds both sides there (a trim
    # at 1e-13 of the largest coefficient left residuals up to 0.4; kept
    # whole, 1.4e-15 over 300 draws)
    rng = np.random.default_rng(43)
    draws = 0
    while draws < 60:
        q, deg = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        c = (rng.normal(size=(deg + 1, q, q))
             + 1j * rng.normal(size=(deg + 1, q, q)))
        c *= (10.0 ** (-2.5 * np.arange(deg + 1)))[:, None, None]
        radius = oracles.literal_balanced_radius(c)
        if radius <= 30.0:
            continue
        draws += 1
        p = MatrixPolynomial(c)
        det, adj = det_poly(p), adjugate_poly(p)
        for z in (1.25 * radius * np.exp(0.3j), 2.0 * radius * np.exp(2.1j)):
            size = sum(frob(x) * abs(z) ** j for j, x in enumerate(c)) ** q
            gap = p(z) @ adj(z) - np.polynomial.polynomial.polyval(z, det) * np.eye(q)
            assert frob(gap) <= 1e-12 * size, (q, deg, frob(gap) / size)


def test_a_polynomial_whose_squared_norm_overflows_is_interpolated():
    # every coefficient norm of 1e200 overflows when squared, not itself
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_allclose(det_poly(MatrixPolynomial([[[1e200]]])), [1e200],
                        rtol=1e-13)
        p = MatrixPolynomial([[[1e300]], [[1.0]], [[1e300]]])
        assert_allclose(det_poly(p), p.coeffs[:, 0, 0], atol=1e-12 * 1e300)


def test_a_determinant_beyond_the_float_range_is_a_precondition():
    # the first determinant overflows, the second is 1 but its size bound
    # (1e200)^2 is not a float: the bound used to raise OverflowError after
    # numpy warned "overflow encountered in det"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (MatrixPolynomial([1e200 * np.eye(2), np.eye(2)]),
                  MatrixPolynomial([np.diag([1e200, 1e-200])])):
            with pytest.raises(PreconditionError) as err:
                det_or_raise(p, "probe", "identically singular")
            assert str(err.value) == ("determinant of the probe denominator "
                                      "leaves the float range")


def test_generator_polynomials_match_pointwise_oracles():
    rng = np.random.default_rng(33)
    for alpha in (0.0, 1.5, -0.75):
        a = oracles.random_hermitian(rng, 3)
        z = complex(rng.normal(), rng.normal() + 2.0)
        assert_allclose(v_poly(alpha, a)(z), oracles.oracle_v_at(alpha, a, z),
                        atol=1e-11)
        assert_allclose(w_poly(alpha, a)(z), oracles.oracle_w_at(alpha, a, z),
                        atol=1e-11)


def test_composition_order_is_outermost_first_for_descent():
    rng = np.random.default_rng(34)
    _, seq = measure_seq(rng, 2, 1, alpha=0.5)
    trace = transform_trace(seq)
    diag = trace.diagonal
    v, w = compose_resolvent(trace)
    z = 0.8 + 1.3j
    v_expected = v_poly(0.5, diag[0])(z) @ v_poly(0.5, diag[1])(z)
    w_expected = w_poly(0.5, diag[1])(z) @ w_poly(0.5, diag[0])(z)
    assert_allclose(v(z), v_expected, atol=1e-9)
    assert_allclose(w(z), w_expected, atol=1e-9)


def test_resolvent_products_equal_their_factor_products_bit_for_bit():
    # the products read the trace's inverses and accumulate in one stack;
    # the oracle multiplies v_poly / w_poly factors with __matmul__, the
    # descent one stage 0 leftmost, the ascent one stage m leftmost
    rng = np.random.default_rng(36)
    for trial in range(40):
        q, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        alpha = (-0.9, 0.0, 1.4)[trial % 3]
        build = (nondegenerate_seq, completely_degenerate_seq,
                 lambda r, q, m, alpha: measure_seq(r, q, m, atoms=2,
                                                    alpha=alpha))[trial % 3]
        _, seq = build(rng, q, m, alpha=alpha)
        trace = transform_trace(seq)
        v_ref = reduce(lambda acc, d: acc @ v_poly(alpha, d),
                       trace.diagonal[1:], v_poly(alpha, trace.diagonal[0]))
        w_ref = reduce(lambda acc, d: w_poly(alpha, d) @ acc,
                       trace.diagonal[1:], w_poly(alpha, trace.diagonal[0]))
        v, w = compose_resolvent(trace)
        assert v.coeffs.tobytes() == v_ref.coeffs.tobytes()
        assert w.coeffs.tobytes() == w_ref.coeffs.tobytes()
        assert (descent_resolvent(trace).coeffs.tobytes()
                == v_ref.coeffs.tobytes())


def test_each_diagonal_entry_is_inverted_once_per_classify_and_solve(monkeypatch):
    # classify's trace inverts every diagonal entry once, the last one
    # after its steps, and its dominance tests reuse them; after it, solve
    # (also where Q_m is rank-deficient and the range gate reads its
    # inverse) and the resolvent products invert nothing
    # every pseudoinverse, checked or not, is pinv_unchecked's arithmetic
    calls = []

    def counted(a, *args, _fn=matcore.pinv_unchecked, **kwargs):
        calls.append(np.array(a))
        return _fn(a, *args, **kwargs)

    rng = np.random.default_rng(37)
    _, seq = nondegenerate_seq(rng, 2, 4)
    low = partially_degenerate_moments(rng, 3, 3, 0.4)
    monkeypatch.setattr(matcore, "pinv_unchecked", counted)
    for seq, pair in ((seq, identity_pair(seq.alpha, seq.q)),
                      (low, identity_pair(low.alpha, 2))):
        calls.clear()
        report = classify(seq)
        assert report.first_term_dominant and report.extendable_candidate == "yes"
        assert len(calls) == seq.m + 1
        assert all(np.array_equal(a, d)
                   for a, d in zip(calls, report.trace.diagonal))
        calls.clear()
        if pair.q == seq.q:
            solve(SolutionRequest(seq, pair))
        else:
            assert 0 < report.rank_top == pair.q < seq.q
            solve_degenerate_embedded(seq, pair)
        compose_resolvent(report.trace)
        descent_resolvent(report.trace)
        assert not calls


def test_composed_blocks_for_the_one_atom_at_zero_fixture():
    # s = (s_0, O) at alpha 0 gives exactly [[O, -z s_0],[O, z^2 I]]
    s0 = np.diag([2.0, 1.0]).astype(complex)
    seq = MomentSequence(0.0, (s0, np.zeros((2, 2))))
    v, _ = compose_resolvent(transform_trace(seq))
    zero = np.zeros((2, 2))
    expected = np.stack([np.block([[zero, ne], [zero, se]]) for ne, se in
                         ((zero, zero), (-s0, zero), (zero, np.eye(2)))])
    assert_allclose(v.coeffs, expected, atol=1e-14)


def test_single_stage_product_identity():
    rng = np.random.default_rng(35)
    worst = 0.0
    for _ in range(25):
        q = int(rng.integers(1, 5))
        a = oracles.random_hermitian(rng, q)
        z = complex(rng.normal(), rng.normal() + 0.4)
        worst = max(worst, verify_product_identity(0.3, a, z))
    assert worst <= 1e-10


def test_product_identity_including_rank_deficient_seeds():
    rng = np.random.default_rng(36)
    for rank in (0, 1, 2):
        a = random_psd(rng, 3, rank=rank)
        assert verify_product_identity(-1.0, a, 1.1 + 0.9j) <= 1e-10


def test_j_identity_report_all_small():
    rng = np.random.default_rng(37)
    for _ in range(10):
        q = int(rng.integers(1, 4))
        b = random_psd(rng, q)
        z = complex(rng.normal(), rng.normal() + 0.5)
        rep = verify_j_identities(0.25, b, z)
        assert set(rep) == {
            "w_isometry", "w_scaled_expansion", "v_metric", "v_metric_scaled",
            "j_conjugation", "projector_forms", "projector_forms_scaled",
        }
        assert max(rep.values()) <= 1e-10, rep


def test_identity_checks_invert_each_seed_once(monkeypatch):
    # V(z) and W(z) are built from the pseudoinverse each check computes;
    # with a, the null containment test inverts a once more
    calls = []

    def counted(*args, _fn=matcore.pinv, **kwargs):
        calls.append(args[0])
        return _fn(*args, **kwargs)

    monkeypatch.setattr(matcore, "pinv", counted)
    rng = np.random.default_rng(39)
    b = random_psd(rng, 3, rank=2)
    a = b + random_psd(rng, 3)
    z = 0.5 + 1.0j
    for check, want in ((lambda: verify_product_identity(0.0, b, z), 1),
                        (lambda: verify_j_identities(0.0, b, z), 1),
                        (lambda: verify_j_identities(0.0, b, z, a=a), 3)):
        calls.clear()
        rep = check()
        assert len(calls) == want
        assert (max(rep.values()) if isinstance(rep, dict) else rep) <= 1e-10


def test_j_identity_weighted_forms_require_null_domination():
    rng = np.random.default_rng(38)
    b = random_psd(rng, 3)
    a = b + random_psd(rng, 3)  # nul a inside nul b
    rep = verify_j_identities(0.0, b, 0.5 + 1.0j, a=a)
    assert "v_weighted" in rep and "v_weighted_scaled" in rep
    assert max(rep.values()) <= 1e-10

    bad_a = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(PreconditionError):
        verify_j_identities(0.0, np.eye(3), 0.5 + 1.0j, a=bad_a)


@pytest.mark.parametrize("left, right", [
    (np.eye(2), np.eye(3)), (np.eye(2), np.ones((2, 3)))],
    ids=["sizes", "square-and-wide"])
def test_polynomial_sum_refuses_a_shape_mismatch(left, right):
    with pytest.raises(ValueError, match="shape mismatch in polynomial sum"):
        MatrixPolynomial.constant(left) + MatrixPolynomial.constant(right)
