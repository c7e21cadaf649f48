"""Acceptance gates: one test per criterion, at the stated tolerances.

Each test is self-contained and seeded, so a verbose run gives one
pass/fail line per criterion.  Tolerances and instance counts are fixed
by the package contract; loosening them here is not an option.
"""

import time

import numpy as np
from numpy.testing import assert_allclose

from conftest import (
    cauchy_pair,
    completely_degenerate_seq,
    random_measure,
    const_pair,
    const_psi_pair,
    identity_pair,
    measure_seq,
    nondegenerate_seq,
    partially_degenerate_seq,
    random_psd,
    sample_points,
)
from oracles import oracle_stieltjes_value, random_hermitian
from stieltjesmp.hankel import (
    MomentSequence,
    classify,
    inverse_parametrization,
    stieltjes_parametrization,
)
from stieltjesmp.matcore import GrowthError, PreconditionError, frob, pinv
from stieltjesmp.measures import (
    DiscreteMeasure,
    extract_moments,
    moments,
    stieltjes_transform,
    verify_solution,
)
from stieltjesmp.pairs import (
    RationalMatFun,
    StieltjesPair,
    equivalent,
    in_diamond,
    pair_from_function,
    verify_pair,
)
from stieltjesmp.respoly import (
    MatrixPolynomial,
    compose_resolvent,
    verify_j_identities,
    verify_product_identity,
)
from stieltjesmp.schur import (
    check_inequality_preservation,
    first_transform,
    inverse_transform,
    k_th_transform,
    transform_trace,
)
from stieltjesmp.solver import (
    SolutionRequest,
    case_of,
    inverse_schur_stieltjes_transform,
    schur_stieltjes_transform,
    solve,
    solve_degenerate_embedded,
    solve_equality_subset,
)


def corner_fixture():
    """Hankel-nonnegative but non-extendable 2x2 pair of moments."""
    s0 = np.diag([1.0, 0.0]).astype(complex)
    s1 = np.ones((2, 2), dtype=complex)
    return MomentSequence(0.0, (s0, s1))


def off_axis_point(rng, alpha):
    re = alpha + rng.uniform(-3.0, 3.0)
    im = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
    return complex(re, im)


def test_criterion_01_elementary_identity_suite():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for n in range(200):
        q = int(rng.integers(1, 5))
        alpha = float(rng.uniform(-2.0, 2.0))
        if n % 7 == 3:
            z = complex(alpha - rng.uniform(0.5, 3.0))
        else:
            z = off_axis_point(rng, alpha)
        herm = random_hermitian(rng, q)
        worst = max(worst, verify_product_identity(alpha, herm, z))
        b = random_psd(rng, q, rank=int(rng.integers(1, q + 1)))
        a = b + random_psd(rng, q)
        rep = verify_j_identities(alpha, b, z, a=a)
        worst = max(worst, max(rep.values()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, worst
    assert elapsed <= 10.0, elapsed


def test_criterion_02_composed_polynomials_telescope():
    rng = np.random.default_rng(202)
    worst = 0.0
    accepted = 0
    while accepted < 50:
        q = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        # modest node spread keeps the high moments within the range
        # where the stated absolute-versus-target tolerance is meaningful
        mu = random_measure(rng, q, m + 1, spread=2.5)
        seq = moments(mu, m)
        trace = transform_trace(seq)
        diag = trace.diagonal
        # the generators divide by the diagonal entries, so a fixture with
        # an accidentally near-singular entry measures conditioning, not
        # the identity; require comfortably invertible entries
        if min(float(np.linalg.eigvalsh(d).min()) for d in diag) < 5e-2:
            continue
        accepted += 1
        v, w = compose_resolvent(trace)
        top = diag[-1]
        proj = top @ pinv(top)
        eye = np.eye(q, dtype=complex)
        zero = np.zeros((q, q), dtype=complex)
        target_c = np.block([[proj, zero], [zero, eye]])
        for z in sample_points(rng, seq.alpha, 10):
            vz = v(z)
            wz = w(z)
            target = (z - seq.alpha) ** (m + 1) * target_c
            worst = max(worst,
                        frob(wz @ vz - target) / (1.0 + frob(target)))
    assert worst <= 1e-9, worst


def test_criterion_03_schur_roundtrips():
    rng = np.random.default_rng(303)
    scale = lambda seq: 1.0 + max(frob(x) for x in seq.s)

    # (a) order-k transform composes from repeated single steps, and is
    # stage k of the trace; one atom at m = 8 collapses, its stages from
    # the second on being rounding that every route sets to zero
    seqs = [measure_seq(rng, q, m, atoms=m + 1)[1]
            for q, m in [(1, 3), (2, 3), (3, 2), (4, 2)]]
    seqs.append(moments(random_measure(np.random.default_rng(3), 1, 1), 8))
    for seq in seqs:
        stages = transform_trace(seq).stages
        for k in range(seq.m + 1):
            stepped = seq
            for _ in range(k):
                stepped = first_transform(stepped)
            direct = k_th_transform(seq, k)
            gap = max(frob(a - b) for a, b in zip(direct.s, stepped.s))
            assert gap <= 1e-10 * scale(seq), (seq.q, seq.m, k, gap)
            assert all(np.array_equal(a, b)
                       for a, b in zip(direct.s, stages[k])), (seq.m, k)
    assert not np.any(stages[2])

    # (b) ascent undoes descent when the first term dominates
    for q, m in [(1, 2), (2, 2), (3, 3), (2, 4)]:
        _, seq = nondegenerate_seq(rng, q, m)
        assert classify(seq).first_term_dominant
        back = inverse_transform(first_transform(seq), seq.s[0])
        gap = max(frob(a - b) for a, b in zip(back.s, seq.s))
        assert gap <= 1e-9 * scale(seq), (q, m, gap)

    # (c) interleaved-complement parametrization inverts exactly
    for q, m in [(1, 4), (2, 3), (3, 2)]:
        _, seq = measure_seq(rng, q, m, atoms=m + 1)
        qs = stieltjes_parametrization(seq)
        back = inverse_parametrization(seq.alpha, qs)
        gap = max(frob(a - b) for a, b in zip(back.s, seq.s))
        assert gap <= 1e-10 * scale(seq), (q, m, gap)
        rand_qs = [random_psd(rng, q) + 0.1 * np.eye(q) for _ in range(m + 1)]
        seq2 = inverse_parametrization(0.5, rand_qs)
        qs2 = stieltjes_parametrization(seq2)
        gap2 = max(frob(a - b) for a, b in zip(qs2, rand_qs))
        assert gap2 <= 1e-10 * (1.0 + max(frob(x) for x in rand_qs))

    # (d) algorithm diagonal equals the parametrization
    for q, m in [(2, 3), (3, 3), (4, 2)]:
        _, seq = measure_seq(rng, q, m, atoms=m + 2)
        diag = transform_trace(seq).diagonal
        qs = stieltjes_parametrization(seq)
        gap = max(frob(a - b) for a, b in zip(diag, qs))
        assert gap <= 1e-9 * scale(seq), (q, m, gap)


def test_criterion_04_order_preservation_under_transforms():
    rng = np.random.default_rng(404)
    for n in range(100):
        q = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        _, seq = nondegenerate_seq(rng, q, m)
        bump = random_psd(rng, q, rank=int(rng.integers(1, q + 1)),
                          scale=0.1)
        smaller = MomentSequence(seq.alpha,
                                 seq.s[:-1] + (seq.s[-1] - bump,))
        rep = check_inequality_preservation(seq, smaller)
        scale = 1.0 + frob(seq.s[0])
        assert rep["forward_prefix_gap"] <= 1e-10 * scale, n
        assert rep["forward_top_margin"] >= -1e-9, n
        assert rep["forward_closed_form_ok"], n
        assert rep["inverse_prefix_gap"] <= 1e-10 * scale, n
        assert rep["inverse_top_margin"] >= -1e-9, n
        assert rep["inverse_closed_form_ok"], n


def test_criterion_05_corner_fixture_is_a_fixed_point_and_rejects():
    seq = corner_fixture()
    s0, s1 = seq.s

    # the first transform leaves the leading moment exactly unchanged
    assert frob(first_transform(seq).s[0] - s0) == 0.0

    # the one-atom function with weight s0 at 1: values match s0/(1-z)
    fun = stieltjes_transform(DiscreteMeasure(0.0, (1.0,), (s0,)))
    rng = np.random.default_rng(55)
    for z in sample_points(rng, 0.0, 10):
        assert frob(fun(z) - s0 / (1.0 - z)) <= 1e-12

    # ...but it is not a relaxed solution: the defect comes out exactly
    rep = verify_solution(fun, seq, mode="leq")
    assert not rep["ok"]
    assert_allclose(rep["top_defect"],
                    np.array([[0.0, 1.0], [1.0, 1.0]]), atol=1e-4)


def test_criterion_06_completely_degenerate_solution_is_unique():
    rng = np.random.default_rng(606)
    s0 = random_psd(rng, 2) + 0.2 * np.eye(2)
    seq = moments(DiscreteMeasure(0.0, (0.0,), (s0,)), 1)
    assert frob(seq.s[1]) == 0.0
    sols = []
    for pair in (identity_pair(0.0, 2), const_psi_pair(0.0, 2)):
        sols.append(solve(SolutionRequest(seq, pair, "leq")))
    pts = sample_points(rng, 0.0, 20)
    for z in pts:
        assert frob(sols[0](z) - sols[1](z)) <= 1e-10
        expected = oracle_stieltjes_value((0.0,), (s0,), z)
        assert frob(sols[0](z) - expected) <= 1e-10
        assert frob(sols[0](z) - (-s0 / z)) <= 1e-10


def test_criterion_07_relaxed_solutions_across_all_cases():
    rng = np.random.default_rng(707)
    fixtures = []
    for q in (1, 2, 3, 4):
        for m in (1, 2, 3):
            fixtures.append(nondegenerate_seq(rng, q, m)[1])
    for q, m in [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3),
                 (4, 2), (2, 1), (3, 1), (1, 1)]:
        fixtures.append(completely_degenerate_seq(rng, q, m)[1])
    for q, r in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (2, 1),
                 (3, 2), (4, 1)]:
        fixtures.append(partially_degenerate_seq(rng, q, r)[1])
    assert len(fixtures) >= 30

    tags = set()
    for seq in fixtures:
        tag, r, _ = case_of(seq)
        tags.add(tag)
        if 0 < r < seq.q:
            sol = solve_degenerate_embedded(
                seq, cauchy_pair(seq.alpha, r, t=seq.alpha + 1.0))
        else:
            pair = (cauchy_pair(seq.alpha, seq.q, t=seq.alpha + 1.0)
                    if r == seq.q else identity_pair(seq.alpha, seq.q))
            sol = solve(SolutionRequest(seq, pair, "leq"))
        rep = verify_solution(sol, seq, mode="leq")
        assert rep["ok"], (tag, seq.q, seq.m, rep)
    assert tags == {"NonDegenerate", "CompletelyDegenerate",
                    "PartiallyDegenerate"}

    # equivalent parameters give the same solution; inequivalent do not
    _, seq = nondegenerate_seq(rng, 2, 2)
    base = cauchy_pair(seq.alpha, 2, t=seq.alpha + 1.5)
    factor = (3.0, 1.0)
    scaled = StieltjesPair(
        seq.alpha,
        RationalMatFun(base.phi.num.scale_poly(factor), base.phi.den),
        RationalMatFun(base.psi.num.scale_poly(factor), base.psi.den))
    assert equivalent(base, scaled)
    s_base = solve(SolutionRequest(seq, base, "leq"))
    s_scaled = solve(SolutionRequest(seq, scaled, "leq"))
    other = identity_pair(seq.alpha, 2)
    assert not equivalent(base, other)
    s_other = solve(SolutionRequest(seq, other, "leq"))
    pts = sample_points(rng, seq.alpha, 12)
    assert max(frob(s_base(z) - s_scaled(z)) for z in pts) <= 1e-10
    assert max(frob(s_base(z) - s_other(z)) for z in pts) >= 1e-6


def test_criterion_08_equality_solutions_on_the_rank_subset():
    rng = np.random.default_rng(808)
    cases = [partially_degenerate_seq(rng, 2, 1)[1],
             partially_degenerate_seq(rng, 3, 2)[1],
             partially_degenerate_seq(rng, 4, 1, alpha=0.5)[1],
             nondegenerate_seq(rng, 2, 2)[1]]
    for seq in cases:
        _, r, _ = case_of(seq)
        assert r >= 1
        f = cauchy_pair(seq.alpha, r, t=seq.alpha + 1.25).phi.scale(0.5)
        sol = solve_equality_subset(seq, f)
        rep = verify_solution(sol, seq, mode="eq")
        assert rep["ok"], (seq.q, seq.m, rep)

    # a constant nonzero parameter does not decay and must be refused
    _, seq = nondegenerate_seq(rng, 2, 2)
    const_f = const_pair(seq.alpha, 2, c=1.0).phi
    try:
        solve_equality_subset(seq, const_f)
    except PreconditionError:
        pass
    else:
        raise AssertionError("constant parameter passed the decay gate")


def test_criterion_09_descent_ascent_duality():
    rng = np.random.default_rng(909)
    for q, atoms, alpha in [(1, 2, 0.0), (2, 3, 0.25), (3, 2, -1.0),
                            (2, 2, 1.0)]:
        mu, seq = measure_seq(rng, q, 1, atoms=atoms, alpha=alpha)
        fun = stieltjes_transform(mu)
        a0 = seq.s[0]
        down = schur_stieltjes_transform(fun, a0, alpha)
        back = inverse_schur_stieltjes_transform(down, a0, alpha)
        worst = max(frob(fun(z) - back(z)) / (1.0 + frob(fun(z)))
                    for z in sample_points(rng, alpha, 10))
        assert worst <= 1e-9, (q, atoms, alpha, worst)

    # a descended solution solves the descended problem
    for q, m in [(2, 2), (3, 3)]:
        mu, seq = measure_seq(rng, q, m, atoms=m + 1)
        fun = stieltjes_transform(mu)
        down = schur_stieltjes_transform(fun, seq.s[0], seq.alpha)
        rep = verify_solution(down, first_transform(seq), mode="leq")
        assert rep["ok"], (q, m, rep)


def test_criterion_10_measure_oracles_classify_and_bound():
    rng = np.random.default_rng(1010)
    for n in range(100):
        q = int(rng.integers(1, 4))
        atoms = int(rng.integers(1, 5))
        m = int(rng.integers(0, 4))
        alpha = float(rng.uniform(-1.0, 1.0))
        mu, seq = measure_seq(rng, q, m, atoms=atoms, alpha=alpha)
        rep = classify(seq)
        assert rep.hankel_psd and rep.stieltjes_psd, n
        assert rep.extendable_candidate == "yes", n

        fun = stieltjes_transform(mu)
        try:
            extract_moments(fun, alpha, m)
        except GrowthError:
            raise AssertionError(f"growth bound violated on instance {n}")
        pair = pair_from_function(fun, alpha)
        prep = verify_pair(pair)
        assert prep["kd1_margin"] >= -1e-9, n
        assert prep["kd2_margin"] >= -1e-9, n
        assert in_diamond(pair)["ok"], n
