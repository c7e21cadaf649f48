import warnings

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from numpy.testing import assert_allclose

from stieltjesmp import serialize
from stieltjesmp.lft import (
    check_denominator,
    divide_out_root,
    lft_pair,
    lft_rational,
)
from stieltjesmp.matcore import (
    DEFAULT_TOL,
    PreconditionError,
    SingularDenominatorError,
    frob,
)
from stieltjesmp.pairs import RationalMatFun, default_grid
from stieltjesmp.respoly import (
    MatrixPolynomial,
    adjugate_poly,
    det_poly,
    v_poly,
    w_poly,
)


def _solve_right(num, den, stage):
    """num @ den^(-1) behind the kernel's denominator gate."""
    check_denominator(den[None], DEFAULT_TOL, stage)
    return np.linalg.solve(den.T, num.T).T


def _blocks(e):
    """(a, b, c, d) of the 2q x 2q generator value e = [[a, b], [c, d]]."""
    q = e.shape[0] // 2
    return e[:q, :q], e[:q, q:], e[q:, :q], e[q:, q:]


def lft_matrix(e, x):
    """(a x + b)(c x + d)^(-1)."""
    a, b, c, d = _blocks(e)
    return _solve_right(a @ x + b, c @ x + d, "matrix-input")


def compose(e2, e1, x):
    """Apply e1 then e2 to x (paired with y = I) three equivalent ways and
    report agreement.

    * chained: feed the first transform's value into the second;
    * product: one transform with the matrix product generator e2 e1;
    * pushed: track the numerator/denominator column pair through e1 and
      only invert at the very end.

    A degenerate denominator raises SingularDenominatorError tagged with
    the stage that failed first.
    """
    y = np.eye(e1.shape[0] // 2, dtype=complex)
    a1, b1, c1, d1 = _blocks(e1)
    a2, b2, c2, d2 = _blocks(e2)
    u = a1 @ x + b1 @ y
    v = c1 @ x + d1 @ y

    chained = lft_matrix(e2, _solve_right(u, v, "inner"))
    product = lft_pair(e2 @ e1, x, y)
    pushed = _solve_right(a2 @ u + b2 @ v, c2 @ u + d2 @ v, "outer")

    scale = 1.0 + frob(chained)
    return {
        "value": chained,
        "product_gap": frob(chained - product) / scale,
        "pushed_gap": frob(chained - pushed) / scale,
    }


def _rand_gen(rng, q):
    return rng.normal(size=(2 * q, 2 * q)) + 1j * rng.normal(size=(2 * q, 2 * q))


def test_lft_matrix_hand_example():
    # a=b=d=I, c=O: x -> x + I
    e = np.block([[np.eye(2), np.eye(2)], [np.zeros((2, 2)), np.eye(2)]])
    assert_allclose(lft_matrix(e, np.diag([1.0, 2.0])), np.diag([2.0, 3.0]))


def test_lft_pair_is_projective():
    rng = np.random.default_rng(41)
    e = _rand_gen(rng, 2)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    r = rng.normal(size=(2, 2)) + np.eye(2) * 3  # invertible right factor
    plain = lft_pair(e, x, np.eye(2))
    scaled = lft_pair(e, x @ r, r)
    assert_allclose(plain, scaled, atol=1e-9)
    assert_allclose(plain, lft_matrix(e, x), atol=1e-12)


def test_compose_three_routes_agree():
    rng = np.random.default_rng(42)
    for q in (1, 2, 3):
        e1 = _rand_gen(rng, q)
        e2 = _rand_gen(rng, q)
        x = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        rep = compose(e2, e1, x)
        assert rep["product_gap"] <= 1e-9
        assert rep["pushed_gap"] <= 1e-9


def test_compose_with_resolvent_generators():
    # the generator polynomials evaluated at a point are valid LFT inputs
    rng = np.random.default_rng(43)
    a1 = np.diag([1.0, 0.5])
    a2 = np.array([[1.0, 0.2], [0.2, 2.0]])
    z = 0.4 + 1.1j
    e1 = v_poly(0.0, a1)(z)
    e2 = w_poly(0.0, a2)(z)
    x = rng.normal(size=(2, 2))
    rep = compose(e2, e1, x)
    assert rep["product_gap"] <= 1e-9 and rep["pushed_gap"] <= 1e-9


def test_singular_denominator_reports_stage():
    e_id = np.eye(2)
    # inner denominator c x + d = 0 for x = 0 with c=I, d=O.
    e_bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularDenominatorError) as err:
        compose(e_id, e_bad, np.zeros((1, 1)))
    assert err.value.stage == "inner"
    assert err.value.gap == 0.0
    # a rank-deficient lower row [c, d] makes every denominator singular
    flat = np.block([[np.eye(2), np.eye(2)], [np.zeros((2, 4))]])
    with pytest.raises(SingularDenominatorError) as err:
        lft_pair(flat, np.eye(2), np.eye(2))
    assert err.value.stage == "pair-input"


def test_check_denominator_names_the_first_failing_matrix_of_a_stack():
    good, thin, zero = np.eye(2), np.diag([1.0, 1e-12]), np.zeros((2, 2))
    zs = np.array([0.5, 1j, 2.0])
    check_denominator(np.stack([good, good]), DEFAULT_TOL, "probe", zs[:2])
    with pytest.raises(SingularDenominatorError) as err:
        check_denominator(np.stack([good, thin, zero]), DEFAULT_TOL, "probe", zs)
    assert (err.value.stage, err.value.point) == ("probe", 1j)
    assert err.value.gap == pytest.approx(1e-12)
    assert str(err.value).endswith("singular at 1j")
    with pytest.raises(SingularDenominatorError) as err:
        check_denominator(np.stack([good, zero]), DEFAULT_TOL, "probe", zs[1:])
    assert (err.value.point, err.value.gap) == (2.0, 0.0)


def test_an_odd_size_generator_is_refused():
    # a 3 x 3 generator has no q x q blocks to act with or to write out
    gen = MatrixPolynomial.constant(np.eye(3))
    one = RationalMatFun.const(np.eye(1))
    with pytest.raises(ValueError, match="even size"):
        lft_rational(gen, one, one, 0.0)
    with pytest.raises(ValueError, match="even size"):
        serialize.blocks_to_json(gen)


def _rand_poly(rng, n, deg):
    return MatrixPolynomial(tuple(
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for _ in range(deg + 1)))


def test_rational_kernel_matches_pointwise_action():
    # the rational form agrees with the pointwise one away from its grid
    rng = np.random.default_rng(44)
    for q in (1, 2, 3):
        e = _rand_poly(rng, 2 * q, 1)
        phi = RationalMatFun(_rand_poly(rng, q, 1), (2.0, 1.0))
        psi = RationalMatFun(_rand_poly(rng, q, 0), (1.0, 0.0, 0.5))
        fun = lft_rational(e, phi, psi, 0.0, grid=(0.3 + 0.7j,))
        for z in (1.1 - 0.4j, -0.6 + 1.3j, 2.2 + 0.1j):
            ref = lft_pair(e(z), phi(z), psi(z))
            assert frob(fun(z) - ref) <= 1e-9 * (1.0 + frob(ref)), (q, z)


def test_rational_kernel_gates_the_denominator():
    q = 2
    eye, zero = np.eye(q), np.zeros((q, q))
    phi, psi = RationalMatFun.const(eye), RationalMatFun.const(eye)
    # lower row [I, -I] sends (I, I) to the zero denominator
    flat = MatrixPolynomial.constant(np.block([[eye, zero], [eye, -eye]]))
    with pytest.raises(SingularDenominatorError) as err:
        lft_rational(flat, phi, psi, 0.0, stage="probe")
    assert err.value.stage == "probe"
    # lower row [zI, O]: invertible as a polynomial, singular at z = 0
    shift = MatrixPolynomial((np.block([[eye, zero], [zero, zero]]),
                              np.block([[zero, zero], [eye, zero]])))
    fun = lft_rational(shift, phi, psi, 0.0, grid=(1.0,))
    assert_allclose(fun(2.0), eye / 2.0, atol=1e-12)
    with pytest.raises(SingularDenominatorError) as err:
        lft_rational(shift, phi, psi, 0.0, grid=(1.0, 0.0),
                     stage="probe")
    assert err.value.stage == "probe" and err.value.point == 0.0


def test_rational_kernel_refuses_a_grid_point_where_the_denominator_overflows():
    # D(z) = z^2 I is finite at 1e150 and overflows at 1e160 and beyond:
    # Horner warned there and numpy's SVD of the infinite value failed; the
    # first such point in grid order is named, with no warning
    eye, zero = np.eye(2), np.zeros((2, 2))
    one = RationalMatFun.const(eye)
    gen = MatrixPolynomial((np.block([[eye, zero], [zero, zero]]),
                            np.zeros((4, 4)),
                            np.block([[zero, zero], [eye, zero]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fun = lft_rational(gen, one, one, 0.0, grid=(1.0, 1e150))
        assert_allclose(fun(2.0), eye / 4.0, atol=1e-12)
        for grid, point in (((1.0, 1e160, 1e300j), 1e160),
                            ((1e300j, 1e160), 1e300j)):
            with pytest.raises(PreconditionError) as err:
                lft_rational(gen, one, one, 0.0, grid=grid, stage="probe")
            assert str(err.value) == (f"probe denominator at grid point "
                                      f"{complex(point)} is not finite")


def test_rational_kernel_names_the_singular_grid_point():
    # D(z) = r diag(1, z - z0) s is singular at one interior grid point z0
    # only; the gate on the stack names it with the gap of the one matrix
    rng = np.random.default_rng(45)
    alpha = 0.25
    grid = default_grid(alpha)
    z0 = complex(grid[7])
    r, s = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 * np.eye(2)
            for _ in range(2))
    den = MatrixPolynomial((r @ np.diag([1.0, -z0]) @ s,
                            r @ np.diag([0.0, 1.0]) @ s))
    eye, zero = np.eye(2), np.zeros((2, 2))
    gen = MatrixPolynomial((np.block([[eye, zero], [zero, den.coeffs[0]]]),
                            np.block([[zero, zero], [zero, den.coeffs[1]]])))
    one = RationalMatFun.const(eye)
    with pytest.raises(SingularDenominatorError) as ref:
        check_denominator(den(z0)[None], DEFAULT_TOL, "probe", [z0])
    with pytest.raises(SingularDenominatorError) as err:
        lft_rational(gen, one, one, alpha, grid=grid, stage="probe")
    assert err.value.stage == "probe"
    assert err.value.point == z0
    assert err.value.gap == ref.value.gap
    assert str(err.value) == str(ref.value)
    # off z0 the same denominator passes the gate
    lft_rational(gen, one, one, alpha, grid=grid[:7] + grid[8:])
    # singular at z0 and at z1 too: the first of them in grid order is named
    z1 = complex(grid[11])
    both = MatrixPolynomial((r @ np.diag([-z1, -z0]) @ s, r @ s))
    gen2 = MatrixPolynomial((np.block([[eye, zero], [zero, both.coeffs[0]]]),
                             np.block([[zero, zero], [zero, both.coeffs[1]]])))
    for order, first in ((grid, z0), (grid[::-1], z1)):
        with pytest.raises(SingularDenominatorError) as err:
            lft_rational(gen2, one, one, alpha, grid=order)
        assert err.value.point == first


def test_rational_kernel_divides_out_the_shared_power_of_z_minus_alpha():
    # N (z - alpha)^3 over d (z - alpha)^3 acted on by the identity: the
    # kernel forms N (z - alpha)^3 adj(D) over det D, which share
    # (z - alpha)^6, and must return N / d with its degree and values
    rng = np.random.default_rng(45)
    alpha = 0.7
    cube = npoly.polyfromroots([alpha] * 3)
    n = _rand_poly(rng, 2, 2)
    d = npoly.polyfromroots([-1.5, 2.0 + 1.0j, 3.0])
    num, den = divide_out_root(n.scale_poly(cube), npoly.polymul(d, cube),
                               alpha)
    assert (num.degree, len(den) - 1) == (2, 3)

    phi = RationalMatFun(n.scale_poly(cube), npoly.polymul(d, cube))
    eye = RationalMatFun.const(np.eye(2))
    identity = MatrixPolynomial.constant(np.eye(4))
    fun = lft_rational(identity, phi, eye, alpha)
    assert len(fun.den) - 1 == 3 and fun.num.degree <= 2
    ref = RationalMatFun(n, d)
    for z in default_grid(alpha):
        assert frob(fun(z) - ref(z)) <= 1e-10 * (1.0 + frob(ref(z))), z


def test_rational_kernel_passes_a_function_without_a_factor_at_alpha_as_is():
    # no power of (z - alpha) to divide out: simplify gets N adj(D) over
    # det D exactly as the kernel formed them, so the output is the one of
    # the kernel without the division, bit for bit
    rng = np.random.default_rng(46)
    alpha = 0.7
    for q in (1, 2, 3):
        e = _rand_poly(rng, 2 * q, 1)
        phi = RationalMatFun(_rand_poly(rng, q, 1), (2.0, 1.0))
        psi = RationalMatFun(_rand_poly(rng, q, 0), (1.0, 0.0, 0.5))
        nw, ne, sw, se = (MatrixPolynomial(e.coeffs[:, i:i + q, j:j + q])
                          for i in (0, q) for j in (0, q))
        num = ((nw @ phi.num).scale_poly(psi.den)
               + (ne @ psi.num).scale_poly(phi.den)).trimmed()
        den = ((sw @ phi.num).scale_poly(psi.den)
               + (se @ psi.num).scale_poly(phi.den)).trimmed()
        num, det = num @ adjugate_poly(den), det_poly(den)
        kept = divide_out_root(num, det, alpha)
        assert kept[0] is num and kept[1] is det
        ref = RationalMatFun(num, det).simplify()
        fun = lft_rational(e, phi, psi, alpha)
        assert np.array_equal(fun.num.coeffs, ref.num.coeffs), q
        assert np.array_equal(fun.den, ref.den), q
