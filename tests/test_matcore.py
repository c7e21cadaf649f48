import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from stieltjesmp.matcore import (
    DEFAULT_TOL,
    PreconditionError,
    ToleranceConfig,
    as_cmat,
    dominates,
    frob,
    frob_at_most,
    hermitize,
    is_psd,
    j_form,
    null_contains,
    pinv,
    psd_margin,
    range_contains,
    rank_with_tol,
    signature_j,
    symmetrized,
)

from conftest import random_hermitian, random_psd
from stieltjesmp import matcore
from stieltjesmp.hankel import MomentSequence, classify


def test_as_cmat_requires_two_dimensions():
    assert as_cmat([[3.0]]).shape == (1, 1)
    assert as_cmat(np.eye(2)).dtype == complex
    with pytest.raises(ValueError):
        as_cmat(3.0)
    with pytest.raises(ValueError):
        as_cmat([1.0, 2.0])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   0.0, -1e-9])
def test_tolerance_fields_must_be_positive_and_finite(value):
    for name in (f.name for f in fields(ToleranceConfig)):
        with pytest.raises(PreconditionError,
                           match=f"^tolerance {name} must be positive and finite$"):
            replace(DEFAULT_TOL, **{name: value})


def test_tolerance_config_holds_only_thresholds_the_package_reads():
    # pair equivalence has a fixed bound, pairs.EQUIV_GAP, and no field
    assert [f.name for f in fields(ToleranceConfig)] == [
        "pinv_rtol", "herm", "psd", "inclusion", "det_gate", "extraction"]
    with pytest.raises(TypeError):
        ToleranceConfig(equiv=1e-7)


def test_a_nan_tolerance_cannot_reach_a_verdict():
    # every comparison with NaN is false, so a NaN psd slack used to call
    # this non-PSD one-term sequence extendable
    seq = MomentSequence(0.0, (np.diag([1.0, -5.0]),))
    assert classify(seq).extendable_candidate == "no"
    with pytest.raises(PreconditionError, match="tolerance psd"):
        classify(seq, replace(DEFAULT_TOL, psd=float("nan")))


def test_pinv_satisfies_all_four_penrose_axioms():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = rng.integers(1, 5)
        r = rng.integers(0, q + 1)
        a = random_psd(rng, q, rank=int(r))
        ap = pinv(a)
        assert_allclose(a @ ap @ a, a, atol=1e-10)
        assert_allclose(ap @ a @ ap, ap, atol=1e-10)
        assert_allclose((a @ ap).conj().T, a @ ap, atol=1e-10)
        assert_allclose((ap @ a).conj().T, ap @ a, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_pinv_axioms_hold_for_general_complex_matrices(seed, q):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    ap = pinv(a)
    assert frob(a @ ap @ a - a) <= 1e-9 * (1 + frob(a))
    assert frob(ap @ a @ ap - ap) <= 1e-9 * (1 + frob(ap))


def test_frob_has_the_bits_of_numpy_norm():
    # frob runs np.linalg.norm's Frobenius arithmetic without its dispatch:
    # complex, real and integer input, strided views and extreme scales
    rng = np.random.default_rng(7)
    cases = [np.eye(3, dtype=int), np.zeros((0, 0)), [[1.0, 2.0]]]
    for n in (1, 2, 5, 8):
        for scale in (1e-300, 1e-10, 1.0, 1e150, 1e300):
            a = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            cases += [a, a.T, a[::2, ::-1], a.real, a.real.T]
    with np.errstate(over="ignore"):
        for a in cases:
            got = frob(a)
            assert type(got) is float
            want = float(np.linalg.norm(np.asarray(a)))
            if want == np.inf:
                # the sum of squares overflows, the norm does not: that of
                # a scaled by 2^-600, scaled back, which is exact
                want = 2.0 ** 600 * float(np.linalg.norm(
                    np.asarray(a) * 2.0 ** -600))
            assert got == want


def test_pinv_has_the_bits_of_numpy_pinv():
    # pinv runs np.linalg.pinv's arithmetic without its wrapper: complex and
    # real, square and not, stacks, rank-deficient products, the zero
    # matrix, extreme scales and a second cutoff
    rng = np.random.default_rng(12)
    cases = [np.zeros((3, 3)), rng.normal(size=(2, 3)),
             rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))]
    for q in range(1, 7):
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            c = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            b = c[:, :max(1, q - 2)]
            cases += [scale * c, scale * c.real, scale * (b @ b.conj().T)]
        stack = rng.normal(size=(4, q, q)) + 1j * rng.normal(size=(4, q, q))
        stack[1] = stack[0] @ np.diag([1.0] * (q - 1) + [0.0]) @ stack[2]
        stack[3] = 0.0
        cases.append(stack)
    for tol in (DEFAULT_TOL, ToleranceConfig(pinv_rtol=1e-8)):
        for a in cases:
            got = pinv(a, tol)
            want = np.linalg.pinv(np.asarray(a, dtype=complex),
                                  rtol=tol.pinv_rtol)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_stacked_norms_have_the_bits_of_frob():
    # a stacked containment test reads each matrix's norm by frob's
    # arithmetic, so its verdicts are the single matrices' verdicts
    rng = np.random.default_rng(13)
    for shape in ((1, 1), (2, 2), (3, 3), (4, 4), (6, 6), (10, 10), (2, 3),
                  (3, 2), (6, 3), (3, 1)):
        for scale in (1e-150, 1e-5, 1.0, 1e5, 1e150):
            x = scale * (rng.normal(size=(7,) + shape)
                         + 1j * rng.normal(size=(7,) + shape))
            got = matcore.frobs(x)
            assert got.tobytes() == np.array([frob(m) for m in x]).tobytes()
            assert matcore.frobs(x[0]) == frob(x[0])


def test_norms_whose_squares_overflow_stay_finite_and_warn_nothing():
    # the sum of squares of entries near 1e160 overflows, the norm does not:
    # it is read from the matrix scaled by a power of two, exactly, with
    # frob's bits on the matrices whose squares stay in range
    rng = np.random.default_rng(14)
    for scale in (1e160, 1e200, 1e300):
        x = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        x[::2] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = matcore.frobs(x)
            singles = [frob(m) for m in x]
        assert got.tobytes() == np.array(singles).tobytes()
        for m, norm in zip(x[::2], singles[::2]):
            want = 2.0 ** 600 * float(np.linalg.norm(m * 2.0 ** -600))
            assert norm == want < np.inf
        for m, norm in zip(x[1::2], singles[1::2]):
            assert norm == float(np.linalg.norm(m))
        assert matcore.frobs(x[0]) == singles[0]
    # beyond the float range the norm itself is inf, still without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frob(np.full((4, 4), 1e308)) == np.inf
        assert matcore.frobs(np.full((2, 4, 4), 1e308)).tolist() == [np.inf] * 2


def test_an_infinite_entry_has_an_infinite_norm():
    # the scaled path keeps inf + 0j infinite: a complex product with the
    # scale would read it as inf + nan j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in ([[np.inf, 1.0]], [[np.inf + 0j, 1e300]],
                  [[1e300j, complex(0.0, -np.inf)]]):
            assert frob(np.array(a)) == np.inf
        got = matcore.frobs(np.array([[[np.inf + 0j]], [[1e300 + 0j]]]))
        assert got.tolist() == [np.inf, 1e300]


def test_dominates_is_range_and_null_containment_of_each_tail_entry():
    # the tail is tested as one stack; the verdict is that of range_contains
    # and null_contains matrix by matrix, also with one escaping entry in
    # any place, for an empty tail, and on both sides of the float step of
    # tol.inclusion where a slightly escaping tail starts to pass
    rng = np.random.default_rng(14)

    def per_matrix(a, tail, tol=DEFAULT_TOL):
        return all(range_contains(a, b, tol) and null_contains(a, b, tol)
                   for b in tail)

    for trial in range(60):
        q = 1 + trial % 4
        a = random_psd(rng, q, rank=int(rng.integers(1, q + 1)))
        ap = pinv(a)
        inside = [a @ random_hermitian(rng, q) @ a for _ in range(5)]
        assert dominates(a, ap, inside) is True
        assert per_matrix(a, inside)
        assert dominates(a, ap, []) is True and dominates(a, ap, ()) is True
        if rank_with_tol(a) == q:
            continue
        out = random_psd(rng, q)
        for pos in (0, 2, 5):
            tail = inside[:pos] + [out] + inside[pos:]
            assert dominates(a, ap, tail) is False
            assert not per_matrix(a, tail)
        tail = inside[:2] + [inside[2] + 1e-7 * out] + inside[3:]
        lo, hi = map(int, np.array([1e-12, 1e-3]).view(np.int64))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            tol = ToleranceConfig(inclusion=float(np.int64(mid).view(np.float64)))
            if per_matrix(a, tail, tol):
                hi = mid
            else:
                lo = mid
        for x, verdict in zip(np.array([lo, hi]).view(float), (False, True)):
            tol = ToleranceConfig(inclusion=float(x))
            assert per_matrix(a, tail, tol) is verdict
            assert dominates(a, ap, tail, tol) is verdict


def test_frob_at_most_keeps_its_verdict_at_every_power_of_two():
    # x sits on the float step of c (floor + |y|): c is the exact ratio and
    # its two neighbours, so the verdicts differ; x, y and floor scaled by
    # 2^j give the unit-scale verdict, also where the norms overflow, and a
    # stack decides each matrix at its own scale, with no warning
    rng = np.random.default_rng(15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(40):
            q = 1 + trial % 4
            x = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            y = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            floor = (0.0, 1.0)[trial % 2]
            ratio = frob(x) / (floor + frob(y))
            for c in (np.nextafter(ratio, 0.0), ratio, np.nextafter(ratio, 2.0)):
                want = bool(frob(x) <= c * (floor + frob(y)))
                assert frob_at_most(x, y, c, floor) is want
                for j in (-300, -7, 5, 200, 511, 512, 600, 1000):
                    k = 2.0 ** j
                    assert frob_at_most(x * k, y * k, c, floor * k) is want
                scales = 2.0 ** np.array([0, 300, 600, 1000])[:, None, None]
                got = frob_at_most(x * scales, y * scales, c, floor * scales[:, 0, 0])
                assert got.tolist() == [want] * 4


def test_hermitize_refuses_asymmetry_whose_norm_would_overflow():
    # the Frobenius norms of these overflow a float, which once made the
    # bound infinite and let the matrix through; as large a Hermitian
    # matrix keeps its bits
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for big in (2e154, 1e200, 1e300):
            a = [[big, big], [0.0, big]]
            with pytest.raises(PreconditionError, match="not Hermitian"):
                hermitize(a)
            with pytest.raises(PreconditionError, match="not Hermitian"):
                MomentSequence(0.0, (a, np.eye(2)))
            h = np.array([[big, 1j * big], [-1j * big, big]])
            assert hermitize(h).tobytes() == h.tobytes()
    assert not caught


def _refused_unscaled(m, tol=DEFAULT_TOL):
    return np.linalg.norm(m - m.conj().T) > tol.herm * (1.0 + np.linalg.norm(m))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.floats(-100.0, 100.0))
def test_hermitize_verdict_is_the_unscaled_formulas_at_its_threshold(
        seed, q, exponent):
    # hermitize tests m scaled by a power of two; within the float range
    # the verdict is asym > tol.herm * (1 + |m|) on m itself, on both sides
    # of the last float step of the asymmetry that flips it
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, q, scale=10.0 ** exponent)
    d = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    hi = 16 * DEFAULT_TOL.herm * (1.0 + frob(h)) / frob(d - d.conj().T)
    assert not _refused_unscaled(h) and _refused_unscaled(h + hi * d)
    lo, hi = map(int, np.array([0.0, hi]).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _refused_unscaled(h + np.int64(mid).view(np.float64) * d):
            hi = mid
        else:
            lo = mid
    for t in np.array([lo, hi]).view(float):
        m = h + t * d
        if _refused_unscaled(m):
            with pytest.raises(PreconditionError):
                hermitize(m)
        else:
            assert hermitize(m).tobytes() == symmetrized(m).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
       st.lists(st.integers(-1000, 1000), min_size=1, max_size=6),
       st.integers(0, 6))
def test_stacked_hermitize_is_hermitize_of_each_matrix(seed, q, exponents,
                                                       bad):
    # one call on a stack gives each matrix's bits, and refuses exactly
    # when one of its matrices is refused, with that matrix's message; the
    # matrices lie at scales 2^-1000 to 2^1000, and at most one of them,
    # at any position, is asymmetric beyond tol.herm
    rng = np.random.default_rng(seed)
    stack = np.array([random_hermitian(rng, q) * 2.0 ** j for j in exponents])
    if bad < len(stack):
        h = stack[bad]
        stack[bad] = h + 1j * 10 * DEFAULT_TOL.herm * (1.0 + frob(h)) * np.eye(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = np.stack([hermitize(x) for x in stack]).tobytes()
        except PreconditionError as exc:
            want = str(exc)
        try:
            got = hermitize(stack).tobytes()
        except PreconditionError as exc:
            got = str(exc)
    assert got == want
    assert isinstance(got, str) is (bad < len(stack))


def test_pinv_of_zero_and_empty():
    assert_allclose(pinv(np.zeros((3, 3))), np.zeros((3, 3)))
    assert pinv(np.zeros((0, 0))).shape == (0, 0)


def test_hermitize_rejects_gross_asymmetry():
    with pytest.raises(PreconditionError):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # tiny asymmetry is repaired silently
    a = np.eye(2) + 1e-13 * np.array([[0, 1], [0, 0]])
    h = hermitize(a)
    assert_allclose(h, h.conj().T)


def test_psd_predicates_symmetrize_but_need_a_square_matrix():
    # an asymmetric argument is symmetrized, not rejected
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert psd_margin(a) == psd_margin(symmetrized(a)) == 0.5 / 1.5
    assert_allclose(symmetrized(a), [[1.0, 0.5], [0.5, 1.0]])
    # a row or column does not broadcast into a square matrix
    for shape in ((1, 3), (3, 1)):
        for check in (is_psd, psd_margin, symmetrized, hermitize):
            with pytest.raises(ValueError):
                check(np.ones(shape))


def test_psd_margin_sign_convention():
    assert psd_margin(np.diag([2.0, 1.0])) > 0
    assert psd_margin(np.diag([1.0, 0.0])) == 0
    assert psd_margin(np.diag([1.0, -3.0])) < 0
    assert is_psd(np.zeros((2, 2)))


def test_stacked_kernels_answer_matrix_by_matrix():
    # a stack gives each matrix's own answer, to the bit for the batched
    # eigensolve and pseudoinverse
    rng = np.random.default_rng(3)
    for n in (1, 2, 4, 7):
        a = random_psd(rng, n, rank=max(1, n - 1))
        mats = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
        stack = np.concatenate([mats, a @ mats])
        margins = psd_margin(stack)
        assert margins.shape == (12,)
        assert all(margins[k] == psd_margin(m) for k, m in enumerate(stack))
        plus = pinv(stack)
        assert all(np.array_equal(plus[k], pinv(m)) for k, m in enumerate(stack))
        assert_allclose(symmetrized(stack)[3], symmetrized(stack[3]), rtol=0)
        inside = range_contains(a, stack)
        assert list(inside) == [range_contains(a, m) for m in stack]
        killed = null_contains(stack, a.T @ a)
        assert list(killed) == [null_contains(m, a.T @ a) for m in stack]
        if n > 1:
            assert inside[6:].all() and not inside[:6].any()
    assert psd_margin(np.zeros((0, 3, 3))).shape == (0,)
    assert psd_margin(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]


def test_range_and_null_containment():
    p = np.diag([1.0, 1.0, 0.0])
    v = np.array([[1.0], [2.0], [0.0]])
    assert range_contains(p, v)
    assert not range_contains(p, np.array([[0.0], [0.0], [1.0]]))
    # nul(diag(1,1,0)) = e3 axis; any matrix killing e3 passes
    assert null_contains(p, np.array([[1.0, 5.0, 0.0]]))
    assert not null_contains(p, np.array([[0.0, 0.0, 1.0]]))


def test_rank_with_tol_uses_relative_cutoff():
    rng = np.random.default_rng(2)
    a = random_psd(rng, 4, rank=2)
    assert rank_with_tol(a) == 2
    assert rank_with_tol(np.zeros((3, 3))) == 0
    assert rank_with_tol(a + 1e-13 * np.eye(4)) == 2


def lowner_leq_chain(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Evaluate four equivalent forms of "0 <= B <= A" and their agreement.

    The four verdicts:
      (i)   O <= B <= A
      (ii)  O <= B^+ B A^+ B B^+ <= B^+  together with nul A <= nul B
      (iii) O <= B A^+ B <= B            together with nul A <= nul B
      (iv)  the stacked block matrix [[A, B],[B, B]] is PSD

    When (i) holds, the report also carries the two derived facts
    nul(B A^+ B) = nul(B) and ran(B A^+ B) = ran(B).
    """
    a = hermitize(a, tol)
    b = hermitize(b, tol)
    ap = pinv(a, tol)
    bp = pinv(b, tol)
    null_dom = null_contains(a, b, tol)

    cond_i = is_psd(b, tol) and is_psd(a - b, tol)

    mid = bp @ b @ ap @ b @ bp
    cond_ii = is_psd(mid, tol) and is_psd(bp - mid, tol) and null_dom

    bab = b @ ap @ b
    cond_iii = is_psd(bab, tol) and is_psd(b - bab, tol) and null_dom

    stacked = np.block([[a, b], [b, b]])
    cond_iv = is_psd(stacked, tol)

    report = {
        "cond_i": cond_i,
        "cond_ii": cond_ii,
        "cond_iii": cond_iii,
        "cond_iv": cond_iv,
        "agree": cond_i == cond_ii == cond_iii == cond_iv,
        "null_consequence": None,
        "range_consequence": None,
    }
    if cond_i:
        report["null_consequence"] = (null_contains(bab, b, tol)
                                      and null_contains(b, bab, tol))
        report["range_consequence"] = (range_contains(bab, b, tol)
                                       and range_contains(b, bab, tol))
    return report


def test_lowner_chain_agrees_on_clean_instances():
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = int(rng.integers(1, 4))
        b = random_psd(rng, q)
        a = b + random_psd(rng, q)
        rep = lowner_leq_chain(a, b)
        assert rep["cond_i"] and rep["agree"]
        assert rep["null_consequence"] and rep["range_consequence"]


def test_lowner_chain_rejects_reversed_order():
    rep = lowner_leq_chain(np.eye(2), 2 * np.eye(2))
    assert not rep["cond_i"]
    assert rep["agree"]


def test_lowner_chain_with_rank_deficient_dominator():
    # nul A must sit inside nul B for the pseudoinverse forms to engage
    a = np.diag([1.0, 0.0])
    b = np.diag([0.5, 0.0])
    rep = lowner_leq_chain(a, b)
    assert rep["cond_i"] and rep["cond_ii"] and rep["cond_iii"] and rep["cond_iv"]


def test_signature_matrices():
    jt = signature_j(2, "imaginary")
    assert_allclose(jt @ jt, np.eye(4))
    assert_allclose(jt, jt.conj().T)
    jr = signature_j(2, "real")
    assert_allclose(jr @ jr, np.eye(4))
    with pytest.raises(ValueError):
        signature_j(2, "bogus")


def test_j_form_is_congruence_by_minus_j():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    jt = signature_j(2)
    assert_allclose(j_form(x, jt), -x.conj().T @ jt @ x)
    # the form is Hermitian whenever J is
    f = j_form(x, jt)
    assert_allclose(f, f.conj().T)
