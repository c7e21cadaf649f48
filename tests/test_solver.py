import json
import re
import warnings
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import (
    cauchy_pair,
    completely_degenerate_seq,
    const_pair,
    const_psi_pair,
    identity_pair,
    measure_seq,
    nondegenerate_seq,
    partially_degenerate_seq,
    random_measure,
    random_psd,
    sample_points,
)
from stieltjesmp import cli, hankel, matcore, pairs, respoly, schur, serialize
from stieltjesmp.hankel import MomentSequence
from stieltjesmp.lft import lft_rational
from stieltjesmp.matcore import (
    DEFAULT_TOL,
    InconsistencyError,
    PreconditionError,
    SingularDenominatorError,
    frob,
)
from stieltjesmp.measures import moments, stieltjes_transform, verify_solution
from stieltjesmp.pairs import RationalMatFun, StieltjesPair, equivalent
from stieltjesmp.respoly import MatrixPolynomial, v_poly
from stieltjesmp.schur import first_transform
from stieltjesmp.solver import (
    SolutionRequest,
    case_of,
    inverse_schur_stieltjes_transform,
    schur_stieltjes_transform,
    solve,
    solve_degenerate_embedded,
    solve_equality_subset,
)

DATA = Path(__file__).parent / "data"


def test_request_validation():
    seq = MomentSequence(0.0, (np.eye(2),))
    with pytest.raises(PreconditionError):
        SolutionRequest(seq, identity_pair(0.0, 2), "between")
    with pytest.raises(PreconditionError):
        SolutionRequest(seq, identity_pair(0.0, 3), "leq")
    with pytest.raises(PreconditionError):
        SolutionRequest(seq, identity_pair(1.0, 2), "leq")


def test_solve_runs_the_algorithm_once(monkeypatch, tmp_path, capsys):
    # classify runs the one trace, which steps the algorithm m times, and
    # the case tag, the top entry and the resolvent all read from it
    calls = dict.fromkeys(("transform_trace", "_step", "build_stack"), 0)
    for module, name in ((schur, "transform_trace"),
                         (schur, "_step"),
                         (hankel, "build_stack")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(71)
    _, seq = nondegenerate_seq(rng, 2, 5)
    sol = solve(SolutionRequest(seq, cauchy_pair(0.0, 2)))
    assert calls == {"transform_trace": 1, "_step": 5, "build_stack": 0}
    assert verify_solution(sol, seq)["ok"]
    # a repeat call on the same object reads the report classify stored
    calls["transform_trace"] = 0
    hankel.classify(seq)
    solve(SolutionRequest(seq, cauchy_pair(0.0, 2)))
    assert calls["transform_trace"] == 0

    # the rank-reduced routes read the case and solve from the same trace;
    # each gets its own sequence object, so that each classifies afresh
    _, seq = partially_degenerate_seq(rng, 2, 1, alpha=0.25)
    f = RationalMatFun(MatrixPolynomial.constant(np.array([[0.5]])),
                       (1.25, -1.0))
    small = StieltjesPair(0.25, f, RationalMatFun.const(np.eye(1)))
    for route in (lambda s: solve_equality_subset(s, f),
                  lambda s: solve_degenerate_embedded(s, small, mode="eq")):
        fresh = MomentSequence(seq.alpha, seq.s)
        calls["transform_trace"] = 0
        sol = route(fresh)
        assert calls["transform_trace"] == 1
        assert verify_solution(sol, fresh, mode="eq")["ok"]
        route(fresh)
        assert calls["transform_trace"] == 1

    # so does ``cli solve``, which prints the case beside the solution
    _, seq = nondegenerate_seq(rng, 2, 3)
    path = tmp_path / "problem.json"
    path.write_text(serialize.dumps({
        "sequence": serialize.sequence_to_json(seq.alpha, seq.s),
        "parameter": serialize.pair_to_json(cauchy_pair(seq.alpha, 2)),
        "mode": "leq"}), encoding="utf-8")
    calls["transform_trace"] = 0
    assert cli.main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == "NonDegenerate"
    assert calls["transform_trace"] == 1


def test_solve_builds_only_the_descent_product(monkeypatch):
    # the synthesis reads the descent product; no ascent generator is built
    calls = []

    def counted(*args, _fn=respoly.w_poly, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(respoly, "w_poly", counted)
    _, seq = nondegenerate_seq(np.random.default_rng(72), 2, 4)
    sol = solve(SolutionRequest(seq, cauchy_pair(0.0, 2)))
    assert calls == []
    assert verify_solution(sol, seq)["ok"]


def test_solve_gates_the_denominator_on_its_grid():
    # at m = 0 the solution denominator is (z - alpha) I, singular at alpha
    seq = MomentSequence(0.5, (np.diag([2.0, 1.0]),))
    req = SolutionRequest(seq, identity_pair(0.5, 2))
    with pytest.raises(SingularDenominatorError) as err:
        solve(req, grid=(0.5, 0.5 + 1j))
    assert err.value.stage == "synthesis"
    assert err.value.point == 0.5


def test_case_tags():
    rng = np.random.default_rng(70)
    _, seq = nondegenerate_seq(rng, 2, 2)
    assert case_of(seq)[0] == "NonDegenerate"
    _, seq = completely_degenerate_seq(rng, 2, 2)
    assert case_of(seq)[0] == "CompletelyDegenerate"
    _, seq = partially_degenerate_seq(rng, 3, 1)
    tag, r, top = case_of(seq)
    assert tag == "PartiallyDegenerate" and r == 1
    assert top.shape == (3, 3)


def test_case_of_reads_classify_rank_on_one_atom_measures():
    # exact moments of one atom up to m = 8: every stage from the second on
    # is rounding, which the next step's pseudoinverse would amplify into a
    # nonzero Q_m (0.93 at seed 3) and into a resolvent whose solution
    # misses the moments (seed 12); case_of must give classify's rank 0,
    # and the (O, I) solution must verify
    for q, seed in ((1, 3), (1, 12), (2, 15)):
        mu = random_measure(np.random.default_rng(seed), q, 1)
        seq = moments(mu, 8)
        tag, r, top = case_of(seq)
        assert (tag, r) == ("CompletelyDegenerate", 0)
        assert r == hankel.classify(seq).rank_top
        assert not np.any(top)
        sol = solve(SolutionRequest(seq, identity_pair(seq.alpha, q)))
        assert verify_solution(sol, seq)["ok"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 12),
       st.floats(0.5, 10.0), st.floats(-1.0, 1.0))
def test_exact_moments_of_a_measure_are_never_refused(seed, q, m, spread,
                                                      alpha):
    # exact moments of m+1 atoms with nodes up to alpha + spread: classify
    # certifies them extendable and solve accepts the Cauchy pair.  Neither
    # raises: not the false "not Hermitian" of a computed matrix under an
    # asymmetry check, nor a range refusal from a rank cut at the scale of
    # the whole input.  At q = 1, Q_m > 0, and only rank_with_tol's
    # absolute floor tol.psd may call it zero.  At large m and spread the
    # solution can miss the moments by conditioning, so verification is not
    # asserted.  solve runs only where its synthesis, whose cost grows with
    # q (m + 1), stays cheap.
    mu = random_measure(np.random.default_rng(seed), q, m + 1, alpha=alpha,
                        spread=spread)
    seq = moments(mu, m)
    report = hankel.classify(seq)
    assert report.extendable_candidate == "yes"
    if q == 1:
        q_top = abs(report.trace.diagonal[-1][0, 0])
        assert report.completely_degenerate == (q_top <= DEFAULT_TOL.psd)
    if q * (m + 1) <= 16:
        solve(SolutionRequest(seq, cauchy_pair(alpha, q)))


def test_transform_duality_on_measure_functions():
    rng = np.random.default_rng(71)
    for q, atoms, alpha in [(1, 2, 0.0), (2, 3, 0.25), (3, 2, -1.0)]:
        mu, seq = measure_seq(rng, q, 1, atoms=atoms, alpha=alpha)
        fun = stieltjes_transform(mu)
        a0 = seq.s[0]
        down = schur_stieltjes_transform(fun, a0, alpha)
        back = inverse_schur_stieltjes_transform(down, a0, alpha)
        worst = max(frob(fun(z) - back(z)) / (1 + frob(fun(z)))
                    for z in sample_points(rng, alpha, 10))
        assert worst <= 1e-9, (q, atoms, alpha, worst)


def test_descended_function_solves_descended_problem():
    rng = np.random.default_rng(72)
    mu, seq = measure_seq(rng, 2, 3, atoms=4, alpha=0.5)
    fun = stieltjes_transform(mu)
    down = schur_stieltjes_transform(fun, seq.s[0], 0.5)
    rep = verify_solution(down, first_transform(seq), mode="leq")
    assert rep["ok"], rep


def test_inverse_transform_gates():
    rng = np.random.default_rng(73)
    mu, seq = measure_seq(rng, 2, 1, atoms=2)
    fun = stieltjes_transform(mu)
    with pytest.raises(PreconditionError):
        # indefinite seed
        inverse_schur_stieltjes_transform(fun, np.diag([1.0, -1.0]), 0.0)
    with pytest.raises(PreconditionError):
        # non-decaying input
        inverse_schur_stieltjes_transform(
            RationalMatFun.const(np.eye(2)), np.eye(2), 0.0)


def test_forward_transform_range_gate():
    # function with full range cannot descend through a rank-1 seed
    rng = np.random.default_rng(74)
    mu, _ = measure_seq(rng, 2, 1, atoms=2)
    fun = stieltjes_transform(mu)
    seed = np.diag([1.0, 0.0])
    with pytest.raises(PreconditionError):
        schur_stieltjes_transform(fun, seed, 0.0)


def test_forward_transform_names_the_first_offending_grid_point():
    # F(z) = diag(1, (z - g0)(z - g1)) lies in ran diag(1, 0) at the first
    # two grid points g0, g1 only: the range gate reads the coefficients
    # and names the lowest degree outside the range, diag(1, g0 g1)
    grid = pairs.default_grid(0.0)
    roots = npoly.polyfromroots([grid[0], grid[1]]).real
    fun = RationalMatFun(MatrixPolynomial(
        [np.diag([1.0 if k == 0 else 0.0, c]) for k, c in enumerate(roots)]))
    with pytest.raises(PreconditionError,
                       match=re.escape("range of the function's degree-0 numerator")):
        schur_stieltjes_transform(fun, np.diag([1.0, 0.0]), 0.0)
    # with the seed I the range holds everywhere, and the null space of
    # F(g0) = diag(1, 0) is not killed by the seed
    with pytest.raises(PreconditionError,
                       match=re.escape(f"null space of the function at {complex(grid[0])}")):
        schur_stieltjes_transform(fun, np.eye(2), 0.0)


def test_both_transforms_refuse_a_non_hermitian_seed():
    # the seed is a caller's matrix: both transforms hermitize it, so an
    # asymmetry of 1.4 is refused, not read as its upper triangle
    rng = np.random.default_rng(74)
    mu, _ = measure_seq(rng, 2, 1, atoms=2)
    fun = stieltjes_transform(mu)
    seed = np.array([[2.0, 1.0], [0.0, 2.0]])
    for transform in (schur_stieltjes_transform,
                      inverse_schur_stieltjes_transform):
        with pytest.raises(PreconditionError,
                           match="^matrix is not Hermitian: asymmetry 1.414e"):
            transform(fun, seed, 0.0)


def test_completely_degenerate_solution_is_parameter_free():
    s0 = np.diag([2.0, 1.0]).astype(complex)
    seq = MomentSequence(0.0, (s0, np.zeros((2, 2))))
    f1 = solve(SolutionRequest(seq, identity_pair(0.0, 2), "leq"))
    f2 = solve(SolutionRequest(seq, const_psi_pair(0.0, 2), "leq"))
    rng = np.random.default_rng(75)
    zs = sample_points(rng, 0.0, 20)
    assert max(frob(f1(z) - f2(z)) for z in zs) <= 1e-10
    assert max(frob(f1(z) + s0 / z) for z in zs) <= 1e-10


def test_level_zero_solution_formula():
    seq = MomentSequence(0.5, (np.eye(2),))
    sol = solve(SolutionRequest(seq, identity_pair(0.5, 2), "leq"))
    rng = np.random.default_rng(76)
    for z in sample_points(rng, 0.5, 10):
        assert_allclose(sol(z), -np.eye(2) / (z - 0.5), atol=1e-11)


def test_solve_rejects_noncandidate_sequence():
    s0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    s1 = np.array([[1.0, 1.0], [1.0, 1.0]])
    seq = MomentSequence(0.0, (s0, s1))
    with pytest.raises(PreconditionError):
        solve(SolutionRequest(seq, identity_pair(0.0, 2), "leq"))


def test_solve_rejects_inadmissible_parameter():
    rng = np.random.default_rng(77)
    _, seq = nondegenerate_seq(rng, 2, 1)
    phi = RationalMatFun(MatrixPolynomial.constant(-np.eye(2)), (1.0, 1.0))
    bad = StieltjesPair(0.0, phi, RationalMatFun.const(np.eye(2)))
    with pytest.raises(PreconditionError):
        solve(SolutionRequest(seq, bad, "leq"))


def test_solve_rejects_parameter_outside_range_class():
    rng = np.random.default_rng(78)
    _, seq = partially_degenerate_seq(rng, 2, 1)
    # a full-range parameter cannot enter a rank-1 problem
    with pytest.raises(PreconditionError):
        solve(SolutionRequest(seq, cauchy_pair(0.0, 2, t=1.0), "leq"))


def test_solve_eq_mode_needs_decay():
    rng = np.random.default_rng(79)
    _, seq = nondegenerate_seq(rng, 2, 1)
    with pytest.raises(PreconditionError):
        solve(SolutionRequest(seq, const_pair(0.0, 2, 1.0), "eq"))


def test_solve_eq_mode_refuses_an_identically_singular_psi():
    # (I, diag(1, 0)) is admissible, so leq solves, but phi psi^(-1) does
    # not exist: the eq problem refuses it in the decay test, by stage
    rng = np.random.default_rng(79)
    _, seq = nondegenerate_seq(rng, 2, 1)
    pair = StieltjesPair(seq.alpha, RationalMatFun.const(np.eye(2)),
                         RationalMatFun.const(np.diag([1.0, 0.0])))
    assert pairs.verify_pair(pair)["ok"]
    solve(SolutionRequest(seq, pair, "leq"))
    with pytest.raises(SingularDenominatorError) as err:
        solve(SolutionRequest(seq, pair, "eq"))
    assert err.value.stage == "diamond"


@pytest.mark.parametrize("kw", [{"c": 200.0 * np.eye(2)}, {"t": 1e4}],
                         ids=["c=200", "t=1e4"])
def test_eq_accepts_cauchy_parameters_of_any_scale(kw):
    # phi psi^(-1) = c/(t - z) I is strictly proper whatever c and t are;
    # a size test up the imaginary axis refused both of these
    _, seq = nondegenerate_seq(np.random.default_rng(5), 2, 3)
    sol = solve(SolutionRequest(seq, cauchy_pair(seq.alpha, 2, **kw), "eq"))
    rep = verify_solution(sol, seq, mode="eq")
    assert rep["ok"], rep


def test_nondegenerate_solutions_verify_both_modes():
    rng = np.random.default_rng(80)
    _, seq = nondegenerate_seq(rng, 2, 3, alpha=0.25)
    sol_eq = solve(SolutionRequest(seq, identity_pair(0.25, 2), "eq"))
    rep = verify_solution(sol_eq, seq, mode="eq")
    assert rep["ok"], rep

    sol_leq = solve(SolutionRequest(seq, const_pair(0.25, 2, 0.5), "leq"))
    rep = verify_solution(sol_leq, seq, mode="leq")
    assert rep["ok"], rep


def test_equivalent_parameters_same_solution_distinct_parameters_differ():
    rng = np.random.default_rng(81)
    _, seq = nondegenerate_seq(rng, 2, 2, alpha=0.0)
    base = cauchy_pair(0.0, 2, t=1.5)
    r = rng.normal(size=(2, 2)) + 3 * np.eye(2)
    twin = StieltjesPair(0.0, base.phi.rmul(r), base.psi.rmul(r))
    assert equivalent(base, twin)
    sol_a = solve(SolutionRequest(seq, base, "leq"))
    sol_b = solve(SolutionRequest(seq, twin, "leq"))
    sol_c = solve(SolutionRequest(seq, identity_pair(0.0, 2), "leq"))
    zs = sample_points(rng, 0.0, 12)
    assert max(frob(sol_a(z) - sol_b(z)) for z in zs) <= 1e-10
    assert max(frob(sol_a(z) - sol_c(z)) for z in zs) >= 1e-6


def test_equality_subset_partially_degenerate():
    rng = np.random.default_rng(82)
    mu, seq = partially_degenerate_seq(rng, 2, 1, alpha=0.25)
    f = RationalMatFun(MatrixPolynomial.constant(np.array([[0.5]])),
                       (1.25, -1.0))
    sol = solve_equality_subset(seq, f)
    rep = verify_solution(sol, seq, mode="eq")
    assert rep["ok"], rep

    # the embedded route gives the same function
    small = StieltjesPair(0.25, f, RationalMatFun.const(np.eye(1)))
    sol2 = solve_degenerate_embedded(seq, small, mode="eq")
    zs = sample_points(rng, 0.25, 8)
    assert max(frob(sol(z) - sol2(z)) for z in zs) <= 1e-10


def test_equality_subset_full_rank_and_size_checks():
    rng = np.random.default_rng(83)
    _, seq = nondegenerate_seq(rng, 2, 1)
    f = RationalMatFun(MatrixPolynomial.constant(0.5 * np.eye(2)), (1.0, -1.0))
    sol = solve_equality_subset(seq, f)
    assert verify_solution(sol, seq, mode="eq")["ok"]
    with pytest.raises(PreconditionError):
        solve_equality_subset(seq, RationalMatFun.zero(3))


def test_equality_subset_rejects_rank_zero_and_nondecay():
    rng = np.random.default_rng(84)
    _, seq = completely_degenerate_seq(rng, 2, 2)
    f = RationalMatFun(MatrixPolynomial.constant(np.eye(1)), (1.0, -1.0))
    with pytest.raises(PreconditionError):
        solve_equality_subset(seq, f)

    _, seq = partially_degenerate_seq(rng, 2, 1)
    with pytest.raises(PreconditionError):
        solve_equality_subset(seq, RationalMatFun.const(np.eye(1)))


def test_degenerate_embedded_with_explicit_bases():
    # a basis of the caller's own goes through gamma_U_embed and solve:
    # another orthonormal basis of ran Q_m gives the embedded route's
    # function, and solve's range gate refuses a basis outside ran Q_m
    rng = np.random.default_rng(85)
    mu, seq = partially_degenerate_seq(rng, 3, 2, alpha=0.0)
    _, r, top = case_of(seq)
    assert r == 2
    small = cauchy_pair(0.0, 2, t=1.0)

    def lifted_solve(u):
        lifted = pairs.gamma_U_embed(small.phi, small.psi, u, 0.0)
        return solve(SolutionRequest(seq, lifted, "leq"))

    sol_default = solve_degenerate_embedded(seq, small)
    vals, vecs = np.linalg.eigh(top)
    order = np.argsort(vals)[::-1]
    rot = np.linalg.qr(rng.normal(size=(2, 2))
                       + 1j * rng.normal(size=(2, 2)))[0]
    sol_u = lifted_solve(vecs[:, order[:2]] @ rot)
    zs = sample_points(rng, 0.0, 8)
    assert max(frob(sol_default(z) - sol_u(z)) for z in zs) <= 1e-9

    # one range direction and the null direction of Q_m
    with pytest.raises(PreconditionError, match="^parameter range escapes"):
        lifted_solve(vecs[:, order[1:]])
    with pytest.raises(PreconditionError,
                       match="^columns of u must be orthonormal$"):
        pairs.gamma_U_embed(small.phi, small.psi, np.ones((3, 2)), 0.0)
    with pytest.raises(PreconditionError):
        solve_degenerate_embedded(seq, cauchy_pair(0.0, 3, t=1.0))
    # the pair is lifted at its own endpoint, which SolutionRequest refuses
    moved = StieltjesPair(0.5, small.phi, small.psi)
    with pytest.raises(PreconditionError,
                       match="^parameter and sequence endpoints differ$"):
        solve_degenerate_embedded(seq, moved)


def test_a_default_basis_is_not_tested_against_the_top_entry(monkeypatch):
    # the eigenbasis lies in the range of Q_m by construction, so after
    # classify nothing inverts Q_m again: the range gate and the descent
    # product read the trace's inverse
    _, seq = partially_degenerate_seq(np.random.default_rng(3), 2, 1)
    hankel.classify(seq)
    calls = []

    def counted(a, *args, _fn=matcore.pinv, **kwargs):
        calls.append(np.array(a))
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(matcore, "pinv", counted)
    solve_degenerate_embedded(seq, identity_pair(seq.alpha, 1))
    assert not calls


def m0_base_case_check(fun, s0, alpha=0.0, tol=DEFAULT_TOL):
    """Length-one roundtrip: solution -> pair -> solution.

    Builds the pair (phi, psi) = ((z-alpha)F + s_0,
    -(z-alpha)s_0^+ F + (I - s_0^+ s_0)), checks admissibility and the
    range condition against s_0, reconstructs F from the pair through the
    degree-1 descent generator, and reports the worst grid mismatch.
    """
    s0 = matcore.hermitize(s0, tol)
    s0p = matcore.pinv(s0, tol)
    q = fun.q
    grid = pairs.default_grid(alpha)

    zshift = RationalMatFun(fun.num.scale_poly((-alpha, 1.0)), fun.den)
    phi = zshift + RationalMatFun.const(s0)
    psi = zshift.lmul(-s0p) + RationalMatFun.const(np.eye(q) - s0p @ s0)
    pair = StieltjesPair(alpha, phi, psi)

    rep = pairs.verify_pair(pair, tol)
    in_range = pairs.in_class_P_of(pair, s0, s0p, tol)

    recon = lft_rational(v_poly(alpha, s0, tol), phi, psi, alpha,
                         tol, stage="reconstruction")

    gaps = []
    for z in grid:
        try:
            gaps.append(matcore.frob(fun(complex(z)) - recon(complex(z)))
                        / (1.0 + matcore.frob(fun(complex(z)))))
        except SingularDenominatorError:
            continue
    gap = float(max(gaps)) if gaps else float("inf")
    return {
        "pair_ok": bool(rep["ok"]),
        "pair_report": rep,
        "in_range_class": bool(in_range),
        "reconstruction_gap": gap,
        "pair": pair,
        "reconstructed": recon,
        "ok": bool(rep["ok"] and in_range and gap <= 1e-9),
    }


def test_m0_base_case_roundtrip():
    rng = np.random.default_rng(86)
    for alpha in (0.0, 0.5):
        mu, seq = measure_seq(rng, 2, 0, atoms=2, alpha=alpha)
        fun = stieltjes_transform(mu)
        rep = m0_base_case_check(fun, seq.s[0], alpha)
        assert rep["ok"], rep
        assert rep["reconstruction_gap"] <= 1e-9
        assert rep["pair_ok"] and rep["in_range_class"]


def test_m0_base_case_detects_mismatch():
    # A moment matrix smaller than the function's own first moment cannot
    # admit the function: the derived pair loses admissibility.  (A larger
    # matrix would still be consistent, since the check runs the relaxed
    # problem.)
    rng = np.random.default_rng(87)
    mu, seq = measure_seq(rng, 2, 0, atoms=2)
    fun = stieltjes_transform(mu)
    rep = m0_base_case_check(fun, 0.25 * seq.s[0], 0.0)
    assert not rep["ok"]
    assert not rep["pair_ok"]


def test_solutions_across_all_cases_pass_leq_verification():
    rng = np.random.default_rng(88)
    fixtures = []
    for q, m in [(1, 1), (2, 2), (3, 1)]:
        fixtures.append(nondegenerate_seq(rng, q, m)[1])
    for q, m in [(1, 2), (2, 3)]:
        fixtures.append(completely_degenerate_seq(rng, q, m)[1])
    fixtures.append(partially_degenerate_seq(rng, 2, 1)[1])
    fixtures.append(partially_degenerate_seq(rng, 3, 2)[1])
    tags = set()
    for seq in fixtures:
        tag, r, _ = case_of(seq)
        tags.add(tag)
        if r == seq.q:
            pair = cauchy_pair(seq.alpha, seq.q, t=seq.alpha + 1.0)
        elif r == 0:
            pair = identity_pair(seq.alpha, seq.q)
        else:
            small = cauchy_pair(seq.alpha, r, t=seq.alpha + 1.0)
            sol = solve_degenerate_embedded(seq, small)
            assert verify_solution(sol, seq, mode="leq")["ok"]
            continue
        sol = solve(SolutionRequest(seq, pair, "leq"))
        assert verify_solution(sol, seq, mode="leq")["ok"], (tag, seq.q, seq.m)
    assert tags == {"NonDegenerate", "CompletelyDegenerate",
                    "PartiallyDegenerate"}


@pytest.mark.parametrize("q, m, seed, degree_before", [
    (3, 3, 1, 15), (4, 3, 1, 20), (5, 1, 6, 15)])
def test_solutions_have_no_false_pole_left_of_alpha(q, m, seed,
                                                    degree_before):
    # the resolvent makes N adj(D) and det D share a power of (z - alpha);
    # rounding spreads it into a cluster of near-roots, so before the
    # kernel divided it out these solutions raised at alpha - 0.01 or
    # alpha - 0.1 and had the degrees given here, though every solution is
    # analytic left of alpha
    alpha = 0.5
    _, seq = nondegenerate_seq(np.random.default_rng(seed), q, m, alpha)
    sol = solve(SolutionRequest(seq, cauchy_pair(alpha, q), "leq"))
    for z in (alpha - 0.01, alpha - 0.1):
        sol(z)
    assert len(sol.den) - 1 <= degree_before
    assert verify_solution(sol, seq, mode="leq")["ok"]


def test_unique_solution_is_the_one_atom_transform_at_q2_m6():
    # completely degenerate: the one solution is the measure's own
    # transform, of degree 1; with the (z - alpha) power left in it came
    # out at degree 14 with near-poles around alpha
    alpha = 0.5
    mu, seq = completely_degenerate_seq(np.random.default_rng(0), 2, 6,
                                        alpha)
    sol = solve(SolutionRequest(seq, identity_pair(alpha, 2), "leq"))
    exact = stieltjes_transform(mu)
    assert len(sol.den) - 1 == 1
    for z in (alpha - 0.01, alpha - 0.1) + pairs.default_grid(alpha):
        assert frob(sol(z) - exact(z)) <= 1e-9 * (1.0 + frob(exact(z))), z


def test_solutions_have_a_real_positive_leading_denominator_coefficient():
    # the canonical form simplify returns: the output does not carry the
    # arbitrary phase of an SVD null vector
    rng = np.random.default_rng(90)
    for q, m in ((1, 2), (3, 3), (4, 3)):
        _, seq = nondegenerate_seq(rng, q, m, alpha=0.25)
        sol = solve(SolutionRequest(seq, cauchy_pair(0.25, q), "leq"))
        lead = sol.den[-1]
        assert lead.imag == 0.0 and lead.real > 0.0, (q, m, lead)


def test_eq_solution_at_q3_m2_verifies():
    # the bench's qcliff pool, seed 913, input 173, stored at full
    # precision: it missed s_2 by 7.7e-4 (top_margin) before the kernel
    # divided out the shared power of (z - alpha)
    data = json.loads((DATA / "eq_q3_m2.json").read_text())
    seq = serialize.sequence_from_json(data["sequence"])
    pair = serialize.pair_from_json(data["parameter"])
    sol = solve(SolutionRequest(seq, pair, data["mode"]))
    assert verify_solution(sol, seq, mode=data["mode"])["ok"]


@pytest.mark.parametrize("q", (1, 2))
@pytest.mark.parametrize("c", (1e150, 1e160, 1e200, 1e300))
def test_exact_moments_near_the_float_range_verify_without_a_warning(c, q):
    # atoms c I at 1 and 3: the coefficients' squares overflow from about
    # 1e154 on, and every norm of the synthesis and of the verification
    # must still be read in range, with no numpy warning
    seq = MomentSequence(0.0, tuple(c * (3.0 ** j + 1) * np.eye(q)
                                    for j in range(3)))
    for mode in ("leq", "eq"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(SolutionRequest(seq, identity_pair(0.0, q), mode))
            report = verify_solution(sol, seq, mode)
        assert report["ok"], (mode, report["prefix_gap"], report["top_margin"])
