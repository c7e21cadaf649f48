from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from conftest import (
    bench_workloads,
    cauchy_pair,
    measure_seq,
    nondegenerate_seq,
    random_measure,
    random_psd,
    sample_points,
)
from stieltjesmp.hankel import MomentSequence, classify
from stieltjesmp import matcore, serialize
from stieltjesmp.matcore import (
    DEFAULT_TOL,
    GrowthError,
    PreconditionError,
    ToleranceConfig,
    frob,
)
from stieltjesmp.measures import (
    DiscreteMeasure,
    extract_moments,
    from_atoms,
    moments,
    stieltjes_transform,
    verify_solution,
)
from stieltjesmp.pairs import RationalMatFun, StieltjesPair
from stieltjesmp.respoly import MatrixPolynomial
from stieltjesmp.solver import (SolutionRequest, schur_stieltjes_transform,
                                solve)


def test_measure_validation():
    with pytest.raises(PreconditionError):
        DiscreteMeasure(0.0, (-1.0,), (np.eye(2),))
    with pytest.raises(PreconditionError):
        DiscreteMeasure(0.0, (1.0,), (-np.eye(2),))
    one = RationalMatFun.const(np.eye(2))
    decaying = RationalMatFun(MatrixPolynomial.constant(np.eye(2)), (1.0, -1.0))
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha must be finite"):
            DiscreteMeasure(alpha, (1.0,), (np.eye(2),))
        with pytest.raises(ValueError, match="alpha must be finite"):
            MomentSequence(alpha, (np.eye(2),))
        with pytest.raises(ValueError, match="alpha must be finite"):
            StieltjesPair(alpha, one, one)
        for fun in (decaying, RationalMatFun.zero(2)):
            with pytest.raises(ValueError, match="alpha must be finite"):
                extract_moments(fun, alpha, 1)
    mu = DiscreteMeasure(0.0, (1.0, 2.0), (np.eye(2), 2 * np.eye(2)))
    assert mu.q == 2
    assert_allclose(mu.total(), 3 * np.eye(2))


def test_moments_frozen_diagonal_example():
    # delta_1 * diag(1,2) + delta_2 * diag(3,0):
    #   s_0 = diag(4,2), s_1 = diag(7,2), s_2 = diag(13,2)
    mu = DiscreteMeasure(0.0, (1.0, 2.0),
                         (np.diag([1.0, 2.0]), np.diag([3.0, 0.0])))
    seq = moments(mu, 2)
    assert_allclose(seq.s[0], np.diag([4.0, 2.0]), atol=1e-14)
    assert_allclose(seq.s[1], np.diag([7.0, 2.0]), atol=1e-14)
    assert_allclose(seq.s[2], np.diag([13.0, 2.0]), atol=1e-14)


def _moments_outcome(fn, mu, m):
    """('value', alpha, bytes of s_0..s_m) or ('raise', message)."""
    try:
        seq = fn(mu, m)
    except ValueError as exc:
        return ("raise", str(exc))
    return ("value", seq.alpha, np.array(seq.s).tobytes())


def test_moments_keep_the_bytes_of_the_summation_loop():
    # the bench pools' measures (qcliff and longseq at seed 1), whose
    # moments are the bench's inputs, and random draws: negative and far
    # nodes, empty measures, zero weight columns, and nodes so large that
    # a power, a product or a sum leaves the float range at some s_j
    wl = bench_workloads()
    for p in wl.pool("qcliff", 1, "") + wl.pool("longseq", 1, ""):
        assert (_moments_outcome(moments, p.mu, p.m)
                == _moments_outcome(oracles.literal_moments, p.mu, p.m))
    rng = np.random.default_rng(4102)
    refused = 0
    for trial in range(1500):
        q, n, m = (int(rng.integers(1, 5)), int(rng.integers(0, 12)),
                   int(rng.integers(0, 12)))
        scale = 10.0 ** rng.uniform(*((20.0, 160.0) if trial % 10 == 0
                                      else (-3.0, 3.0)))
        nodes = tuple(float(x) for x in np.sort(rng.uniform(-1, 1, n) * scale))
        weights = []
        for _ in range(n):
            w = random_psd(rng, q, scale=10.0 ** rng.uniform(-5.0, 5.0))
            if trial % 7 == 0:
                w[:, 0] = w[0, :] = 0.0
            weights.append(w)
        alpha = nodes[0] if n else 0.0
        mu = DiscreteMeasure(alpha, nodes, tuple(weights))
        want = _moments_outcome(oracles.literal_moments, mu, m)
        assert _moments_outcome(moments, mu, m) == want, trial
        refused += want[0] == "raise"
    assert refused > 50


def test_moments_match_oracle():
    rng = np.random.default_rng(60)
    mu = random_measure(rng, 3, 4, alpha=0.5)
    seq = moments(mu, 5)
    ref = oracles.oracle_moments(0.5, mu.nodes, mu.weights, 5)
    worst = max(frob(a - b) for a, b in zip(seq.s, ref))
    assert worst <= 1e-10 * (1 + max(frob(x) for x in ref))


def test_transform_matches_oracle_pointwise():
    rng = np.random.default_rng(61)
    mu = random_measure(rng, 2, 3, alpha=-0.5)
    fun = stieltjes_transform(mu)
    for z in sample_points(rng, -0.5, 8):
        ref = oracles.oracle_stieltjes_value(mu.nodes, mu.weights, z)
        assert frob(fun(z) - ref) <= 1e-10 * (1 + frob(ref))
        # reflection symmetry across the real axis
        assert frob(fun(np.conj(z)) - fun(z).conj().T) <= 1e-10 * (1 + frob(ref))


def test_transform_of_point_mass_is_resolvent():
    w = np.diag([2.0, 1.0])
    fun = stieltjes_transform(DiscreteMeasure(0.0, (1.0,), (w,)))
    z = 0.3 + 0.7j
    assert_allclose(fun(z), w / (1.0 - z), atol=1e-12)


def test_transform_of_empty_measure_is_zero():
    fun = stieltjes_transform(DiscreteMeasure(0.0, (), ()))
    assert max(frob(c) for c in fun.num.coeffs) <= 1e-12


def test_transform_merges_coincident_nodes():
    # two atoms at one node are one pole whose weight is their sum
    w = (np.diag([1.0, 2.0]), np.array([[1.0, 0.5], [0.5, 1.0]]), np.eye(2))
    mu = DiscreteMeasure(0.0, (2.0, 0.5, 2.0), w)
    fun = stieltjes_transform(mu)
    assert len(fun.den) == 3
    for z in sample_points(np.random.default_rng(64), 0.0, 8):
        ref = sum(wk / (x - z) for x, wk in zip(mu.nodes, mu.weights))
        assert frob(fun(z) - ref) <= 1e-12 * frob(ref)


def test_transform_refuses_nodes_its_power_basis_cannot_hold():
    # prod (z - x_k) over 24 nodes on [0.5, 7.9] has a constant term beyond
    # the trim floor of its leading coefficients; cutting them would leave
    # a function far from the sum, so the builder refuses
    rng = np.random.default_rng(1)
    mu = DiscreteMeasure(0.0, tuple(np.sort(rng.uniform(0.3, 8.0, 24))),
                         (np.eye(1),) * 24)
    with pytest.raises(GrowthError,
                       match=r"^the function's denominator over 24 nodes .* "
                             "trim floor"):
        stieltjes_transform(mu)


def test_extract_moments_roundtrip():
    # series division of the transform's power basis (its atoms stripped)
    # recovers the moments to the extraction tolerance; the transform
    # itself holds its atoms and gives their moments, bit for bit
    rng = np.random.default_rng(62)
    for q, m in [(1, 2), (2, 3), (3, 4), (4, 5)]:
        mu = random_measure(rng, q, m + 1)
        seq = moments(mu, m)
        fun = stieltjes_transform(mu)
        got, residual = extract_moments(RationalMatFun(fun.num, fun.den),
                                        0.0, m)
        assert residual <= 1e-6
        scale = 1 + max(frob(x) for x in seq.s)
        worst = max(frob(a - b) for a, b in zip(got.s, seq.s))
        assert worst <= DEFAULT_TOL.extraction * scale, (q, m, worst)
        got, residual = extract_moments(fun, 0.0, m)
        assert residual == 0.0
        assert np.array(got.s).tobytes() == np.array(seq.s).tobytes()


def test_extract_moments_with_far_nodes_and_low_rank_weights():
    rng = np.random.default_rng(63)
    nodes = (0.4, 3.0, 17.0, 60.0, 120.0)
    weights = tuple(random_psd(rng, 3, rank=r) for r in (3, 2, 3, 1, 2))
    mu = DiscreteMeasure(0.0, nodes, weights)
    seq = moments(mu, 5)
    fun = stieltjes_transform(mu)
    got, _ = extract_moments(RationalMatFun(fun.num, fun.den), 0.0, 5)
    scale = 1 + max(frob(x) for x in seq.s)
    worst = max(frob(a - b) for a, b in zip(got.s, seq.s))
    assert worst <= 1e-3 * scale
    got, _ = extract_moments(fun, 0.0, 5)
    assert np.array(got.s).tobytes() == np.array(seq.s).tobytes()


def test_extract_moments_rejects_growth():
    const = RationalMatFun.const(np.eye(2))
    with pytest.raises(GrowthError):
        extract_moments(const, 0.0, 1)


def test_extract_moments_of_zero_function():
    got, residual = extract_moments(RationalMatFun.zero(2), 0.0, 2)
    assert residual == 0.0
    assert all(not x.any() for x in got.s)


def test_extract_moments_rejects_overflowing_moments():
    # 1e150 / (1 + 1e-12 z) has moments growing by 1e12 per index: the
    # ones beyond the float range are refused, not returned as inf
    fun = RationalMatFun(MatrixPolynomial.constant(np.array([[1e150]])),
                         (1.0, 1e-12))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite"):
        extract_moments(fun, 0.0, 15)
    # 1e305 / (1 + 1e-10 z): the numerator's norm is in range, but s_0,
    # about -1e315, is not
    fun = RationalMatFun(MatrixPolynomial.constant(np.array([[1e305]])),
                         (1.0, 1e-10))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="overflow.*non-finite"):
        extract_moments(fun, 0.0, 2)
    # atoms at 1e10: the power 1e10^31 leaves the float range, and with
    # weight 1e300 the product at j = 1 does; the first such j is named
    for weight, j in ((1.0, 31), (1e300, 1)):
        fun = from_atoms([1e10], np.full((1, 1, 1), weight), 1)
        assert fun.atoms is not None
        with pytest.raises(ValueError, match=f"^moment s_{j} overflows to "
                                             "a non-finite value$"):
            extract_moments(fun, 0.0, 40)


def test_verify_solution_modes():
    rng = np.random.default_rng(64)
    mu, seq = nondegenerate_seq(rng, 2, 3)
    fun = stieltjes_transform(mu)

    rep = verify_solution(fun, seq, mode="eq")
    assert rep["ok"] and rep["prefix_ok"] and rep["top_ok"]

    bigger = MomentSequence(seq.alpha, seq.s[:-1] + (seq.s[-1] + np.eye(2),))
    rep = verify_solution(fun, bigger, mode="leq")
    assert rep["ok"] and rep["top_margin"] > 0

    smaller = MomentSequence(seq.alpha,
                             seq.s[:-1] + (seq.s[-1] - 0.5 * np.eye(2),))
    # smaller top moment may leave the cone; only test when still solvable
    if classify(smaller).stieltjes_psd:
        rep = verify_solution(fun, smaller, mode="leq")
        assert not rep["top_ok"]

    with pytest.raises(PreconditionError):
        verify_solution(fun, seq, mode="between")
    with pytest.raises(PreconditionError):
        verify_solution(fun, MomentSequence(0.0, (-np.eye(2),)), mode="leq")


def test_a_measures_transform_verifies_against_its_own_moments_exactly():
    # the transform holds the measure's atoms, and extract_moments reads
    # them with moments' own kernel: every gap is exactly zero
    rng = np.random.default_rng(4103)
    for trial in range(300):
        q, m = 1 + trial % 4, trial // 4 % 9
        mu = random_measure(rng, q, int(rng.integers(1, m + 3)),
                            alpha=float(rng.uniform(-1.0, 1.0)))
        seq, fun = moments(mu, m), stieltjes_transform(mu)
        for mode in ("leq", "eq"):
            rep = verify_solution(fun, seq, mode)
            assert rep["prefix_gap"] == 0.0, (trial, mode)
            assert rep["top_margin"] == 0.0, (trial, mode)
            assert rep["residual"] == 0.0 and rep["ok"]


def test_only_from_atoms_fills_the_atoms_slot():
    # sorted, merged and read-only; no constructor takes it, and every
    # function derived from one that holds it is given as num/den only
    rng = np.random.default_rng(4104)
    weights = np.array([random_psd(rng, 2) for _ in range(3)])
    fun = from_atoms([2.0, 0.5, 2.0], weights, 2)
    nodes, stack = fun.atoms
    assert nodes.tolist() == [0.5, 2.0]
    assert np.array_equal(stack, [weights[1], weights[0] + weights[2]])
    assert not nodes.flags.writeable and not stack.flags.writeable
    with pytest.raises(FrozenInstanceError):
        fun.atoms = None
    with pytest.raises(TypeError, match="atoms"):
        RationalMatFun(fun.num, fun.den, atoms=fun.atoms)
    assert from_atoms([], np.zeros((0, 2, 2)), 2).atoms[0].size == 0
    a = random_psd(rng, 2) + np.eye(2)
    derived = {
        "constructor": RationalMatFun(fun.num, fun.den),
        "scale": fun.scale(2.0),
        "lmul": fun.lmul(a),
        "rmul": fun.rmul(a),
        "add": fun + fun,
        "sub": fun - fun,
        "matmul": fun @ fun,
        "simplify": fun.simplify(),
        "lft_rational": schur_stieltjes_transform(fun, a, 0.0),
        "rational_from_json": serialize.rational_from_json(
            serialize.rational_to_json(fun)),
    }
    assert [k for k, f in derived.items() if f.atoms is not None] == []


def test_verify_solution_negative_fixture_defect():
    # the cone member with no representing measure: the candidate function
    # reproduces s_0 but misses s_1 by exactly [[0,1],[1,1]]
    s0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    s1 = np.array([[1.0, 1.0], [1.0, 1.0]])
    seq = MomentSequence(0.0, (s0, s1))
    fun = RationalMatFun(MatrixPolynomial.constant(s0), (1.0, -1.0))
    rep = verify_solution(fun, seq, mode="leq")
    assert not rep["ok"]
    assert frob(rep["top_defect"] - np.array([[0.0, 1.0], [1.0, 1.0]])) <= 1e-4


@pytest.mark.parametrize("q, m, seed, modes", [
    (2, 6, 0, ("leq", "eq")),
    (3, 5, 4, ("leq", "eq")),
    (1, 8, 0, ("leq", "eq")),
])
def test_verify_solution_reads_exact_moments(q, m, seed, modes):
    # Measure oracles whose transform or synthesized solutions a
    # least-squares fit of the moments along the imaginary axis rejected
    # at these orders.  The leq solutions here have top moment equal to
    # s_m; the leq rule's relative scale accepts that zero defect at
    # every order.  The transform is read by its atoms and, stripped of
    # them, by series division of its power basis.
    rng = np.random.default_rng(seed)
    mu, seq = nondegenerate_seq(rng, q, m)
    fun = stieltjes_transform(mu)
    ref = oracles.oracle_moments(0.0, mu.nodes, mu.weights, m)
    for form in (fun, RationalMatFun(fun.num, fun.den)):
        rep = verify_solution(form, seq, mode="eq")
        assert rep["ok"], rep
        assert rep["residual"] <= 1e-12
        for got, want in zip(rep["extracted"].s, ref):
            assert frob(got - want) <= 1e-8 * (1.0 + frob(want))
    for mode in modes:
        sol = solve(SolutionRequest(seq, cauchy_pair(0.0, q), mode))
        rep = verify_solution(sol, seq, mode=mode)
        assert rep["ok"], (mode, rep)


def test_verify_solution_asks_only_the_cone_question():
    # exact moments at (2, 8) with nodes up to 6, whose computed Q_m is
    # asymmetric by rounding beyond tol.herm: the measure's own transform
    # verifies, which needs only cone membership, and the measure also
    # classifies as extendable and solves, because computed matrices are
    # symmetrized rather than checked
    mu, seq = nondegenerate_seq(np.random.default_rng(0), 2, 8)
    assert classify(seq).extendable_candidate == "yes"
    sol = solve(SolutionRequest(seq, cauchy_pair(0.0, 2)))
    for fun in (stieltjes_transform(mu), sol):
        for mode in ("leq", "eq"):
            rep = verify_solution(fun, seq, mode=mode)
            assert rep["ok"], (mode, rep)


def test_verify_solution_accepts_far_nodes():
    # weight I at 0.5 and 100 I at 5e4: y*norm(F(iy)) still grows over
    # y in 1e3..1e5, which refused this transform when decay was sampled
    # there; the degrees alone decide it for the power basis, and the
    # atoms need no decision
    mu = DiscreteMeasure(0.0, (0.5, 5e4), (np.eye(2), 100 * np.eye(2)))
    fun = stieltjes_transform(mu)
    for m in (1, 2):
        for form in (fun, RationalMatFun(fun.num, fun.den)):
            rep = verify_solution(form, moments(mu, m), mode="eq")
            assert rep["ok"], (m, rep)


def test_verify_solution_rejects_improper_function():
    # -s0/z + eps I: an atom at alpha = 0 plus a constant term at infinity,
    # which no half-axis transform has however small eps is; the moments
    # of the proper part match
    s0 = np.diag([1.0, 2.0]).astype(complex)
    seq = MomentSequence(0.0, (s0, np.zeros((2, 2))))
    for eps in (1e-3, 5e-5, 1e-6):
        fun = RationalMatFun(MatrixPolynomial((-s0, eps * np.eye(2))),
                             (0.0, 1.0))
        with pytest.raises(GrowthError):
            verify_solution(fun, seq, mode="eq")


def test_verify_solution_refuses_a_function_of_another_size():
    # a 1 x 1 function would broadcast against 2 x 2 moments and pass
    nodes = (1.0, 2.0)
    seq = moments(DiscreteMeasure(0.0, nodes, (np.ones((2, 2)),) * 2), 2)
    scalar = stieltjes_transform(DiscreteMeasure(0.0, nodes, (np.eye(1),) * 2))
    for mode in ("leq", "eq"):
        with pytest.raises(PreconditionError,
                           match="^function size 1 differs from the sequence size 2$"):
            verify_solution(scalar, seq, mode=mode)


def test_verify_solution_rejects_too_fast_decay():
    # -c/z^2 has moments (0, c), but a nonzero transform decays like 1/z
    c = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    seq = MomentSequence(0.0, (np.zeros((2, 2)), c))
    fun = RationalMatFun(MatrixPolynomial((-c,)), (0.0, 0.0, 1.0))
    with pytest.raises(GrowthError):
        verify_solution(fun, seq, mode="eq")


def _integrate(mu: DiscreteMeasure, fvals, gvals) -> np.ndarray:
    out = np.zeros((mu.q, mu.q), dtype=complex)
    for f, g, w in zip(fvals, gvals, mu.weights):
        out = out + np.conj(f) * g * w
    return out


def finite_cauchy_schwarz_check(mu: DiscreteMeasure, f, g,
                                tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Finite-sum integration inequalities for scalar node functions f, g.

    With A = sum |f|^2 w, B = sum conj(f) g w, C = sum |g|^2 w and the
    plain sums If = sum f w, Ig = sum g w, T = sum w, the report checks:

      * adjoint symmetry of the cross term,
      * ran B inside ran A (and ran B* inside ran C),
      * nul A inside nul B* (and nul C inside nul B),
      * both sandwich inequalities B* A^+ B <= C and B A^+ B* <= C,
      * nul A inside nul If and nul If*, ran If + ran If* inside ran A,
        If* A^+ If <= T and If A^+ If* <= T,
      * nul T inside nul Ig and nul Ig*, ran Ig + ran Ig* inside ran T,
        Ig T^+ Ig* <= C and Ig* T^+ Ig <= C.
    """
    fvals = [complex(f(x)) for x in mu.nodes]
    gvals = [complex(g(x)) for x in mu.nodes]
    ones = [1.0 + 0.0j] * len(mu.nodes)

    a = _integrate(mu, fvals, fvals)
    b = _integrate(mu, fvals, gvals)
    c = _integrate(mu, gvals, gvals)
    int_f = _integrate(mu, ones, fvals)
    int_g = _integrate(mu, ones, gvals)
    total = _integrate(mu, ones, ones)

    ap = matcore.pinv(a, tol)
    tp = matcore.pinv(total, tol)

    def leq(x, y) -> bool:
        return matcore.is_psd(y - x, tol)

    b_adj = _integrate(mu, gvals, fvals)
    report = {
        "cross_adjoint": bool(
            frob(b.conj().T - b_adj) <= 1e-10 * (1.0 + frob(b))),
        "range_cross_in_ff": matcore.range_contains(a, b, tol),
        "range_cross_adj_in_gg": matcore.range_contains(c, b.conj().T, tol),
        "null_ff_in_cross_adj": matcore.null_contains(a, b.conj().T, tol),
        "null_gg_in_cross": matcore.null_contains(c, b, tol),
        "sandwich_fg": leq(b.conj().T @ ap @ b, c),
        "sandwich_fg_swapped": leq(b @ ap @ b.conj().T, c),
        "null_ff_in_mean": (matcore.null_contains(a, int_f, tol)
                            and matcore.null_contains(a, int_f.conj().T, tol)),
        "range_mean_in_ff": (matcore.range_contains(a, int_f, tol)
                             and matcore.range_contains(a, int_f.conj().T, tol)),
        "mean_sandwich": leq(int_f.conj().T @ ap @ int_f, total),
        "mean_sandwich_swapped": leq(int_f @ ap @ int_f.conj().T, total),
        "null_total_in_mean": (matcore.null_contains(total, int_g, tol)
                               and matcore.null_contains(total, int_g.conj().T, tol)),
        "range_mean_in_total": (matcore.range_contains(total, int_g, tol)
                                and matcore.range_contains(total, int_g.conj().T, tol)),
        "total_sandwich": leq(int_g @ tp @ int_g.conj().T, c),
        "total_sandwich_swapped": leq(int_g.conj().T @ tp @ int_g, c),
    }
    report["ok"] = bool(all(report.values()))
    return report


def test_cauchy_schwarz_report_on_random_measures():
    rng = np.random.default_rng(65)
    for trial in range(6):
        q = int(rng.integers(1, 4))
        ranks = [int(rng.integers(0, q + 1)) for _ in range(3)]
        mu = random_measure(rng, q, 3, alpha=-1.0, ranks=ranks)
        a0, a1 = rng.normal(size=2)
        b0, b1 = rng.normal(size=2)
        f = lambda x: a0 + a1 * x + 1j * x * x
        g = lambda x: b0 + np.sin(b1 * x)
        rep = finite_cauchy_schwarz_check(mu, f, g)
        assert len(rep) == 16
        assert rep["ok"], (trial, rep)


def test_cauchy_schwarz_equality_case():
    rng = np.random.default_rng(66)
    mu = random_measure(rng, 2, 2)
    f = lambda x: 1.0 + 0.5 * x
    rep = finite_cauchy_schwarz_check(mu, f, f)
    assert rep["ok"]
    assert rep["sandwich_fg"] and rep["sandwich_fg_swapped"]


def _overflowing_numerator():
    return RationalMatFun(MatrixPolynomial.constant(np.full((2, 2), 1e308)),
                          (1.0, -1.0))


@pytest.mark.parametrize("call, error, message", [
    (lambda: DiscreteMeasure(0.0, (1.0, 2.0), (np.eye(1),)), ValueError,
     "nodes and weights must pair up"),
    (lambda: moments(DiscreteMeasure(0.0, (1.0,), (np.eye(1),)), -1),
     PreconditionError, "moment order must be nonnegative"),
    (lambda: extract_moments(RationalMatFun.const(np.eye(1)), 0.0, -1),
     PreconditionError, "moment order must be nonnegative"),
    (lambda: extract_moments(_overflowing_numerator(), 0.0, 1), ValueError,
     "numerator coefficient norm overflows to a non-finite value"),
], ids=["unpaired", "moments-order", "extract-order", "overflow"])
def test_measures_refuse_malformed_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
