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
    NEGATIVE_ATOMS,
    bench_workloads,
    cauchy_pair,
    completely_degenerate_seq,
    const_pair,
    const_psi_pair,
    grid_pole_pair,
    identity_pair,
    measure_seq,
    negative_atom_problem,
    nondegenerate_seq,
    partially_degenerate_moments,
    partially_degenerate_seq,
    random_measure,
    random_psd,
    sample_points,
)
from oracles import (oracle_block_gauss, oracle_block_radau,
                     oracle_stieltjes_value)
from stieltjesmp import (cli, hankel, lft, matcore, measures, pairs, respoly,
                         schur, serialize, solver)
from stieltjesmp.hankel import MomentSequence
from stieltjesmp.lft import lft_rational
from stieltjesmp.matcore import (
    DEFAULT_TOL,
    GrowthError,
    InconsistencyError,
    PreconditionError,
    SingularDenominatorError,
    frob,
)
from stieltjesmp.measures import (DiscreteMeasure, moments,
                                  stieltjes_transform, verify_solution)
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
        "mode": "leq"}, 17), encoding="utf-8")
    calls["transform_trace"] = 0
    assert cli.main(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == "NonDegenerate"
    assert calls["transform_trace"] == 1

    # one atom: stage 2 is the first zero stage, where the trace stops
    # stepping, so classify, solve with (O, I) and verify step twice
    _, seq = completely_degenerate_seq(np.random.default_rng(73), 2, 5)
    calls.update(transform_trace=0, _step=0)
    hankel.classify(seq)
    sol = solve(SolutionRequest(seq, identity_pair(0.0, 2)))
    assert verify_solution(sol, seq)["ok"]
    assert calls == {"transform_trace": 1, "_step": 2, "build_stack": 0}


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


def _gate(req, points, tol=DEFAULT_TOL):
    """solve's gate on the descent denominator of ``req``'s pair, at the
    chosen ``points`` in place of the walk of ``default_grid``."""
    pair = req.parameter
    zs, (ph, ps) = pairs.grid_values((pair.phi, pair.psi), points)
    solver._gate_descent_denominator(hankel.classify(req.seq, tol).trace,
                                     zs, ph, ps, tol)


def test_solve_gates_the_denominator_on_its_grid():
    # at m = 0 the solution denominator is (z - alpha) I, singular at
    # alpha, which default_grid, solve's only grid, leaves out
    seq = MomentSequence(0.5, (np.diag([2.0, 1.0]),))
    req = SolutionRequest(seq, identity_pair(0.5, 2))
    assert verify_solution(solve(req), seq)["ok"]
    assert all(z.imag or z.real < 0.5 for z in pairs.default_grid(0.5))
    with pytest.raises(SingularDenominatorError) as err:
        _gate(req, (0.5, 0.5 + 1j))
    assert err.value.stage == "synthesis"
    assert err.value.point == 0.5


def _rooted_problem():
    """At m = 0 and s_0 = I, the pair (R, R) with R = diag(z + 3, 1), which
    is (I, I) times R and has no atoms, since psi is not constant: its
    descent denominator D = 2 z R(z) is singular at alpha = 0 and at -3."""
    seq = MomentSequence(0.0, (np.eye(2),))
    rooted = RationalMatFun(MatrixPolynomial((np.diag([3.0, 1.0]),
                                              np.diag([1.0, 0.0]))), (1.0,))
    return SolutionRequest(seq, StieltjesPair(0.0, rooted, rooted))


def test_solve_names_the_singular_grid_point():
    # the general path's gate names the point and the gap of its matrix,
    # as check_denominator does on D at that point alone
    req = _rooted_problem()
    z0 = -3.0 + 1e-11j
    with pytest.raises(SingularDenominatorError) as ref:
        lft.check_denominator(
            (2.0 * z0 * np.diag([z0 + 3.0, 1.0]))[None], DEFAULT_TOL,
            "synthesis", [z0])
    with pytest.raises(SingularDenominatorError) as err:
        _gate(req, (1j, z0, 2j))
    assert (err.value.stage, err.value.point) == ("synthesis", z0)
    assert err.value.gap == pytest.approx(ref.value.gap, rel=1e-9)
    assert err.value.gap == pytest.approx(1e-11, rel=1e-9)
    assert str(err.value) == str(ref.value)
    # at points away from its singular ones the same pair passes, and
    # default_grid holds none of them
    _gate(req, (1j, 2j, -1.0))
    assert solve(req).q == 2


def test_solve_names_the_first_failing_grid_point_in_grid_order():
    # D is singular at -3, at alpha and near -3 + 1e-11i: the first of
    # them in the order of the points is named
    req = _rooted_problem()
    z0 = -3.0 + 1e-11j
    for points, first, gap in (((1j, z0, 0.0, -3.0), z0, 1e-11),
                               ((1j, -3.0, z0, 0.0), -3.0, 0.0),
                               ((0.0, z0, -3.0), 0.0, 0.0)):
        with pytest.raises(SingularDenominatorError) as err:
            _gate(req, points)
        assert err.value.point == first
        assert err.value.gap == pytest.approx(gap, rel=1e-9)


def test_solve_refuses_a_grid_point_where_the_denominator_overflows():
    # D(z) = 2 z R(z) overflows at 1e160 and beyond: the first such point
    # in the order of the points is named, with no warning; at 1e150 D is
    # finite, but |D|^2, which bounds det D, leaves the float range.  The
    # walk passes these points, as the pair's denominators are constant
    req = _rooted_problem()
    for points, point in (((1.0, 1e160, 1e300j), 1e160),
                          ((1e300j, 1e160), 1e300j)):
        with pytest.raises(PreconditionError) as err:
            _gate(req, points)
        assert str(err.value) == ("synthesis denominator at grid point "
                                  f"{complex(point)} is not finite")
    with pytest.raises(PreconditionError, match="leaves the float range"):
        _gate(req, (1.0, 1e150))


def test_solve_refuses_alpha_on_the_general_path():
    # every descent factor's lower block row carries (z - alpha), so
    # D(alpha) = 0 exactly, and the gate refuses alpha by its values; the
    # gate on D's polynomial passed alpha on the rounding of its
    # coefficients here.  solve's walk of default_grid holds no point of
    # [alpha, inf), so solve itself meets no such point
    alpha = 0.3
    _, seq = measure_seq(np.random.default_rng(0), 2, 2, alpha=alpha)
    pair = StieltjesPair(alpha, RationalMatFun.const(np.eye(2)),
                         RationalMatFun.const(np.diag([1.0, 0.0])))
    req = SolutionRequest(seq, pair)
    assert verify_solution(solve(req), seq)["ok"]
    with pytest.raises(SingularDenominatorError) as err:
        _gate(req, pairs.default_grid(alpha) + (alpha,))
    assert (err.value.stage, err.value.point, err.value.gap) == (
        "synthesis", alpha, 0.0)


def _general_pair(rng, alpha, q, kind):
    """A pair without atoms: (I, I with one 0), (I, O), the Cauchy pair
    (C/(t - z), I) times (s + z), or a Cauchy pair over I + D/(u - z)."""
    eye = np.eye(q)
    if kind == "diag":
        d = np.ones(q)
        d[rng.integers(q)] = 0.0
        return StieltjesPair(alpha, RationalMatFun.const(eye),
                             RationalMatFun.const(np.diag(d)))
    if kind == "io":
        return StieltjesPair(alpha, RationalMatFun.const(eye),
                             RationalMatFun.const(np.zeros((q, q))))
    c = random_psd(rng, q) + 0.5 * eye
    t = alpha + rng.uniform(0.5, 2.0)
    if kind == "cauchy":
        s = rng.uniform(0.5, 3.0) - alpha
        return StieltjesPair(
            alpha, RationalMatFun(MatrixPolynomial((s * c, c)), (t, -1.0)),
            RationalMatFun(MatrixPolynomial((s * eye, eye)), (1.0,)))
    phi = RationalMatFun(MatrixPolynomial.constant(c), (t, -1.0))
    psi = RationalMatFun.const(eye) + RationalMatFun(
        MatrixPolynomial.constant(random_psd(rng, q)),
        (alpha + rng.uniform(0.5, 2.0), -1.0))
    return StieltjesPair(alpha, phi, psi)


def test_the_gate_and_the_synthesis_read_the_same_denominator(monkeypatch):
    # the values the gate decides on are the kernel's D at the same points,
    # over phi.den psi.den, which the walk divided by: in solve, on
    # default_grid, and at chosen points with one more, off the half-axis.
    # The bound is relative to sum_k |D_k||z|^k, the size of Horner's
    # terms: D(z) itself can be smaller by cancellation (1.7e-12 relative
    # to |D(z)| in one draw here)
    seen = []
    monkeypatch.setattr(lft, "check_denominator", lambda dens, tol, stage,
                        zs, _fn=lft.check_denominator: seen.append(
                            (dens, zs)) or _fn(dens, tol, stage, zs))
    rng = np.random.default_rng(101)
    gated = 0
    for _ in range(40):
        q, m = int(rng.integers(1, 4)), int(rng.integers(0, 5))
        alpha = float(rng.uniform(-1.0, 1.0))
        _, seq = measure_seq(rng, q, m, alpha=alpha)
        kind = ("diag", "io", "cauchy", "two_dens")[int(rng.integers(4))]
        pair = _general_pair(rng, alpha, q, kind)
        gen = respoly.descent_resolvent(hankel.classify(seq).trace)
        den = lft._num_den(gen, pair.phi, pair.psi)[1]
        points = pairs.default_grid(alpha) + (alpha + 3 + 1j,)
        for mode in ("leq", "eq", None):
            seen.clear()
            try:
                if mode is None:
                    _gate(SolutionRequest(seq, pair), points)
                else:
                    solve(SolutionRequest(seq, pair, mode))
            except (PreconditionError, SingularDenominatorError):
                pass
            if not seen:
                continue
            (dens, zs), = seen
            walked = (npoly.polyval(zs, pair.phi.den)
                      * npoly.polyval(zs, pair.psi.den))
            want = den(zs) / walked[:, None, None]
            size = npoly.polyval(abs(zs), den.coeff_norms()) / abs(walked)
            assert np.all(matcore.frobs(dens - want) <= 1e-12 * size), (
                q, m, kind, mode)
            gated += 1
    assert gated >= 80, gated


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


def test_ascent_of_a_measure_transform_takes_the_continued_fraction(
        monkeypatch):
    # a measure's transform has atoms: the ascent, solve at order 0, reads
    # them instead of synthesizing by lft_rational or gating by in_diamond
    # (the autouse fixture checks the result against the pointwise action)
    rng = np.random.default_rng(80)
    mu, seq = measure_seq(rng, 2, 1, atoms=3)
    fun, a = stieltjes_transform(mu), seq.s[0]

    def refused(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(lft, "lft_rational", refused)
    monkeypatch.setattr(pairs, "in_diamond", refused)
    back = inverse_schur_stieltjes_transform(fun, a, 0.0)
    for z in sample_points(rng, 0.0, 5):
        want = -a @ np.linalg.inv(z * (np.linalg.pinv(a) @ fun(z) + np.eye(2)))
        assert frob(back(z) - want) <= 1e-9 * frob(want)


@pytest.mark.parametrize("eps, x", NEGATIVE_ATOMS)
def test_ascent_refuses_a_function_with_a_negative_atom(eps, x):
    # 1/(1 - z) - eps/(x - z) passes the grid; as solve's parameter at
    # order 0 its atoms refuse it, as they refuse it in solve
    _, pair = negative_atom_problem(eps, x)
    message = re.escape(f"parameter pair is not admissible: its residue at "
                        f"{x:g} has PSD margin {-eps:.3e}")
    with pytest.raises(PreconditionError, match=message):
        inverse_schur_stieltjes_transform(pair.phi, np.eye(1), 0.0)


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


@pytest.mark.parametrize("eps, x", NEGATIVE_ATOMS)
def test_solve_refuses_a_parameter_with_a_negative_atom(eps, x):
    # 1/(1 - z) - eps/(x - z) passes verify_pair: its grid lies within
    # radius 10 of alpha, where the negative weight at x barely shows.  Its
    # atoms show it, and solve names the atom and its margin in both modes;
    # with a constant I added, too, which eq mode would refuse as not
    # decaying: the atoms' test comes first
    # and with phi's numerator and denominator both times 1j, whose
    # denominator is real once divided by its leading coefficient
    seq, pair = negative_atom_problem(eps, x)
    assert pairs.verify_pair(pair)["ok"]
    shifted = StieltjesPair(0.0, pair.phi + RationalMatFun.const(np.eye(1)),
                            pair.psi)
    turned = StieltjesPair(0.0, RationalMatFun(pair.phi.num.scale(1j),
                                               pair.phi.den * 1j), pair.psi)
    assert turned.phi.den.imag.any()
    message = re.escape(f"parameter pair is not admissible: its residue at "
                        f"{x:g} has PSD margin {-eps:.3e}")
    for mode in ("leq", "eq"):
        for parameter in (pair, shifted, turned):
            with pytest.raises(PreconditionError, match=message):
                solve(SolutionRequest(seq, parameter, mode))


def _has_atoms(pair):
    zs, (ph,) = pairs.grid_values((pair.phi,), pairs.default_grid(pair.alpha))
    return solver._parameter_atoms(pair, zs, ph, DEFAULT_TOL) is not None


def test_a_denominator_with_complex_roots_has_no_atoms():
    # 1/((z - 1)^2 + 1/4) has a real denominator with roots 1 +- i/2: no
    # atoms, so the grid decides the pair, and refuses it in both modes
    phi = RationalMatFun(MatrixPolynomial.constant(np.eye(1)),
                         (1.25, -2.0, 1.0))
    pair = StieltjesPair(0.0, phi, RationalMatFun.const(np.eye(1)))
    assert np.iscomplexobj(npoly.polyroots(phi.den.real))
    assert not _has_atoms(pair)
    assert not pairs.verify_pair(pair)["ok"]
    _, seq = measure_seq(np.random.default_rng(86), 1, 2, atoms=3)
    for mode in ("leq", "eq"):
        with pytest.raises(PreconditionError, match=re.escape(
                "parameter pair is not admissible: {'rank_ok'")):
            solve(SolutionRequest(seq, pair, mode))


def test_atoms_that_miss_the_grid_values_are_no_atoms(monkeypatch):
    # unit rank-one weights diag(1, 0) and diag(0, 1) at 1.2 and 1.2 + 1e-8,
    # given as num/den only: the denominator's roots come out real and
    # simple, but the residues at roots that close miss the pair's values
    # on the grid, so it has no atoms; the grid fork solves it, and the
    # solution verifies
    weights = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    fun = stieltjes_transform(DiscreteMeasure(0.0, (1.2, 1.2 + 1e-8), weights))
    fun = RationalMatFun(fun.num, fun.den)
    pair = StieltjesPair(0.0, fun, RationalMatFun.const(np.eye(2)))
    roots = npoly.polyroots(fun.den.real)
    assert np.isrealobj(roots) and roots[0] != roots[1]
    assert not _has_atoms(pair)
    _, seq = nondegenerate_seq(np.random.default_rng(0), 2, 2)
    calls = []
    synthesize = lft.lft_rational

    def counted(*args):
        calls.append(1)
        return synthesize(*args)

    monkeypatch.setattr(lft, "lft_rational", counted)
    for mode in ("leq", "eq"):
        sol = solve(SolutionRequest(seq, pair, mode))
        assert verify_solution(sol, seq, mode)["ok"], mode
    assert len(calls) == 2


def test_a_phi_that_holds_its_atoms_gives_them_to_solve(monkeypatch):
    # diag(1, 0) and diag(0, 1) at 0.1 and 0.1 + 1e-8: polyroots and Horner
    # give residues of PSD margin -2.3e-2 at roots that close, and refuse
    # the pair read from JSON; a transform's own atoms are exact, and the
    # pair solves and verifies in both modes without any root finding.  A
    # node below alpha still means no atoms.
    weights = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    fun = stieltjes_transform(DiscreteMeasure(0.0, (0.1, 0.1 + 1e-8), weights))
    pair = StieltjesPair(0.0, fun, RationalMatFun.const(2.0 * np.eye(2)))
    _, seq = nondegenerate_seq(np.random.default_rng(0), 2, 2)
    read = serialize.pair_from_json(serialize.pair_to_json(pair))
    for mode in ("leq", "eq"):
        with pytest.raises(PreconditionError, match=re.escape(
                "its residue at 0.1 has PSD margin -")):
            solve(SolutionRequest(seq, read, mode))
    zs, (ph,) = pairs.grid_values((fun,), pairs.default_grid(0.0))
    monkeypatch.setattr(npoly, "polyroots", None)
    c, g = solver._parameter_atoms(pair, zs, ph, DEFAULT_TOL)
    assert isinstance(g, DiscreteMeasure) and g.alpha == 0.0
    assert not c.any() and g.nodes == fun.atoms.nodes
    assert np.array_equal(g.weights, 0.5 * weights)
    for mode in ("leq", "eq"):
        sol = solve(SolutionRequest(seq, pair, mode))
        assert verify_solution(sol, seq, mode)["ok"], mode
    below = StieltjesPair(0.2, fun, pair.psi)
    assert solver._parameter_atoms(below, zs, ph, DEFAULT_TOL) is None


def test_both_readers_of_a_parameter_give_one_measure():
    # phi = sum_i W_i / (y_i - z) over 1-4 PSD atoms of random rank on
    # [alpha, alpha + 20], at least 1e-2 apart, psi = I: read as built, by
    # its atoms, and stripped to num/den, by roots and residues.  Both give
    # (0, the measure) wherever both accept.  The atoms reader accepts
    # every draw; the num/den reader falsely refuses 4 of the 1 000, each
    # with four atoms, by a residue whose PSD margin, -1.3e-9 to -3.1e-8,
    # is its own rounding
    rng = np.random.default_rng(4301)
    refused = []
    worst_y = worst_w = 0.0
    for trial in range(1000):
        q, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        alpha = float(rng.uniform(-1.0, 1.0))
        nodes = np.sort(alpha + rng.uniform(0.0, 20.0, k))
        while k > 1 and np.diff(nodes).min() < 1e-2:
            nodes = np.sort(alpha + rng.uniform(0.0, 20.0, k))
        weights = np.array([random_psd(rng, q, rank=int(rng.integers(1, q + 1)))
                            for _ in range(k)])
        fun = stieltjes_transform(DiscreteMeasure(alpha, nodes, weights))
        zs, (ph,) = pairs.grid_values((fun,), pairs.default_grid(alpha))
        read = []
        for phi in (fun, RationalMatFun(fun.num, fun.den)):
            pair = StieltjesPair(alpha, phi, RationalMatFun.const(np.eye(q)))
            try:
                read.append(solver._parameter_atoms(pair, zs, ph, DEFAULT_TOL))
            except PreconditionError as exc:
                read.append(str(exc))
        (c, g), plain = read
        assert isinstance(g, DiscreteMeasure) and not c.any(), trial
        assert g.nodes == fun.atoms.nodes, trial
        if not isinstance(plain, tuple):
            refused.append((trial, k, plain))
            continue
        c2, g2 = plain
        top = max(frob(w) for w in g.weights)
        assert isinstance(g2, DiscreteMeasure) and len(g2.nodes) == k, trial
        assert frob(c2) <= 1e-10 * top, trial
        worst_y = max(worst_y, max(abs(a - b) for a, b in zip(g.nodes, g2.nodes))
                      / max(1.0, abs(g.nodes[-1])))
        worst_w = max(worst_w, max(frob(a - b) for a, b in
                                   zip(g.weights, g2.weights)) / top)
    # here: nodes agree to 2.7e-11 relative, weights to 5.6e-9 of the
    # largest weight
    assert worst_y <= 1e-10 and worst_w <= 1e-7, (worst_y, worst_w)
    assert [(trial, k) for trial, k, _ in refused] == [
        (54, 4), (269, 4), (276, 4), (664, 4)]
    margins = [float(why.rsplit(" ", 1)[1]) for _, _, why in refused]
    assert all("residue at" in why for _, _, why in refused)
    assert all(-3.1e-8 <= x <= -1.3e-9 for x in margins), margins


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_solve_refuses_a_walk_that_keeps_no_point(alpha):
    _, seq = measure_seq(np.random.default_rng(87), 2, 2, atoms=3,
                         alpha=alpha)
    for mode in ("leq", "eq"):
        with pytest.raises(InconsistencyError,
                           match="every grid point sits on a pole of the pair"):
            solve(SolutionRequest(seq, grid_pole_pair(alpha, 2), mode))


def test_solve_rejects_parameter_outside_range_class():
    rng = np.random.default_rng(78)
    _, seq = partially_degenerate_seq(rng, 2, 1)
    # a full-range parameter cannot enter a rank-1 problem
    with pytest.raises(PreconditionError):
        solve(SolutionRequest(seq, cauchy_pair(0.0, 2, t=1.0), "leq"))


def test_solve_eq_mode_needs_decay(monkeypatch):
    # a parameter with atoms decays exactly when its constant C is 0: eq
    # mode refuses C != 0 by its norm, before any grid admissibility, decay
    # quotient or determinant polynomial; the constant pair (I, I) and
    # criterion 08's constant parameter, lifted onto the rank subset
    rng = np.random.default_rng(79)
    _, seq = nondegenerate_seq(rng, 2, 1)
    calls = []

    def spy(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((pairs, "admissibility"), (pairs, "in_diamond"),
                        (respoly, "det_poly")):
        spy(owner, name)
    message = re.escape("equality problem needs a decaying parameter; its "
                        "constant has norm 1.414e+00")
    with pytest.raises(PreconditionError, match=message):
        solve(SolutionRequest(seq, const_pair(seq.alpha, 2, 1.0), "eq"))
    with pytest.raises(PreconditionError, match=message):
        solve_equality_subset(seq, const_pair(seq.alpha, 2, 1.0).phi)
    assert not calls
    # leq mode takes the same pair by its atoms
    sol = solve(SolutionRequest(seq, const_pair(seq.alpha, 2, 1.0), "leq"))
    assert verify_solution(sol, seq)["ok"]
    assert not calls


def test_solve_eq_mode_refuses_a_pair_without_atoms_that_does_not_decay(
        tmp_path, capsys):
    # (C (s + z), (s + z) I) with C > 0 is (C, I) times a common factor: its
    # psi is no constant, so it has no atoms and takes the grid.  eq mode
    # refuses it by in_diamond's quotient residual, and so does cli solve
    # (exit 3); leq mode solves it as it solves (C, I), whose atoms are
    # C alone (1.5e-11 relative at worst on these 30 draws)
    rng = np.random.default_rng(211)
    for _ in range(30):
        q, m = (int(k) for k in rng.integers(1, 4, size=2))
        _, seq = nondegenerate_seq(rng, q, m, alpha=rng.uniform(-1.0, 1.0))
        c, s, eye = random_psd(rng, q), rng.uniform(2.0, 5.0), np.eye(q)
        pair = StieltjesPair(
            seq.alpha, RationalMatFun(MatrixPolynomial((s * c, c)), (1.0,)),
            RationalMatFun(MatrixPolynomial((s * eye, eye)), (1.0,)))
        with pytest.raises(PreconditionError, match=re.escape(
                "equality problem needs a decaying parameter; quotient "
                "residual ")):
            solve(SolutionRequest(seq, pair, "eq"))
        sol = solve(SolutionRequest(seq, pair, "leq"))
        ref = solve(SolutionRequest(seq, StieltjesPair(
            seq.alpha, RationalMatFun.const(c), RationalMatFun.const(eye))))
        _, (got, want) = pairs.grid_values((sol, ref),
                                           pairs.default_grid(seq.alpha))
        assert all(frob(a - b) <= 1e-9 * frob(b) for a, b in zip(got, want))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "sequence": serialize.sequence_to_json(seq.alpha, seq.s),
        "parameter": serialize.pair_to_json(pair), "mode": "eq"}),
        encoding="utf-8")
    assert cli.main(["solve", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: equality problem needs a "
                          "decaying parameter; quotient residual "), err


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
                         stage="reconstruction")

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


def test_bench_pairs_take_the_continued_fraction(monkeypatch):
    # every pair of the qcliff and longseq pools, the lifted degenerate
    # ones included, has atoms: their solves build no descent polynomial
    # and call neither lft_rational nor simplify, nor the grid gates their
    # atoms stand in for, verify_pair's decision and the decay test, so a
    # predicate that stopped taking them would show here before it showed
    # as lost speed
    calls, stubbed = [], {"lft_rational", "simplify"}

    def spy(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return None if name in stubbed else fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((lft, "lft_rational"), (RationalMatFun, "simplify"),
                        (pairs, "admissibility"), (pairs, "in_diamond")):
        spy(owner, name)
    wl = bench_workloads()
    for prob in wl.qcliff_batch(7, 0) + wl.longseq_batch(7, 0):
        if prob.embedded:
            sol = solve_degenerate_embedded(prob.seq, prob.pair, prob.mode)
        else:
            sol = solve(SolutionRequest(prob.seq, prob.pair, prob.mode))
        assert verify_solution(sol, prob.seq, prob.mode)["ok"]
    assert not calls

    # a pair whose psi is singular has no atoms and keeps the general path
    # and both grid gates: eq mode's decay test refuses it
    stubbed.clear()
    _, seq = nondegenerate_seq(np.random.default_rng(91), 2, 2)
    pair = StieltjesPair(seq.alpha, RationalMatFun.const(np.eye(2)),
                         RationalMatFun.const(np.diag([1.0, 0.0])))
    sol = solve(SolutionRequest(seq, pair, "leq"))
    assert calls == ["admissibility", "lft_rational", "simplify"]
    assert verify_solution(sol, seq)["ok"]
    calls.clear()
    with pytest.raises(SingularDenominatorError):
        solve(SolutionRequest(seq, pair, "eq"))
    assert calls == ["admissibility", "in_diamond"]


def test_bench_solutions_hold_atoms_that_match_their_power_basis():
    # every solution of the qcliff and longseq pools at seed 1 holds its
    # atoms, whose moments verify_solution reads; series division of the
    # same power basis agrees with them to 1e-10 relative
    wl = bench_workloads()
    worst = 0.0
    for prob in wl.pool("qcliff", 1, "") + wl.pool("longseq", 1, ""):
        if prob.embedded:
            sol = solve_degenerate_embedded(prob.seq, prob.pair, prob.mode)
        else:
            sol = solve(SolutionRequest(prob.seq, prob.pair, prob.mode))
        assert sol.atoms is not None
        alpha, m = prob.seq.alpha, prob.seq.m
        got = measures.extract_moments(sol, alpha, m)[0].s
        plain = RationalMatFun(sol.num, sol.den)
        want = measures.extract_moments(plain, alpha, m)[0].s
        worst = max(worst, max(frob(a - b) / frob(b)
                               for a, b in zip(got, want)))
    assert worst <= 1e-10


def test_the_leq_top_defect_has_the_rank_of_the_parameters_constant():
    # the equality problem is the relaxed one restricted to the parameters
    # with C = 0: for G + C, G with 1-2 atoms on [alpha, alpha + 20] and C
    # PSD of rank r, the leq solution's top moment falls short of s_m by a
    # defect of numerical rank r.  10 of the 200 draws have solutions
    # whose power basis RationalMatFun cannot hold (GrowthError)
    rng = np.random.default_rng(2501)
    held = refused = 0
    for trial in range(200):
        q, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        alpha = float(rng.uniform(-1.0, 1.0))
        _, seq = measure_seq(rng, q, m, atoms=m + 3, alpha=alpha)
        k = int(rng.integers(1, 3))
        nodes = np.sort(alpha + rng.uniform(0.0, 20.0, k))
        weights = np.array([random_psd(rng, q) for _ in range(k)])
        r = int(rng.integers(0, q + 1))
        g = (stieltjes_transform(DiscreteMeasure(alpha, nodes, weights))
             + RationalMatFun.const(random_psd(rng, q, rank=r)))
        pair = StieltjesPair(alpha, g, RationalMatFun.const(np.eye(q)))
        try:
            sol = solve(SolutionRequest(seq, pair, "leq"))
        except GrowthError as exc:
            assert "trim floor" in str(exc), trial
            refused += 1
            continue
        rep = verify_solution(sol, seq, "leq")
        assert rep["ok"], trial
        sv = np.linalg.svd(rep["top_defect"], compute_uv=False)
        cut = 1e-8 * max(1.0, frob(seq.s[-1]))
        assert (sv > cut).sum() == r, (trial, sv, cut)
        held += 1
    assert (held, refused) == (190, 10)


def _atom_parameter(rng, alpha, q, atoms, constant, spread=4.0):
    """sum_i W_i / (y_i - z) over atoms y_i on [alpha, alpha + spread], plus
    a PSD constant when ``constant``, as the pair (G, I)."""
    nodes = tuple(float(x) for x in alpha + rng.uniform(0.0, spread, atoms))
    weights = tuple(random_psd(rng, q) for _ in nodes)
    g = stieltjes_transform(DiscreteMeasure(alpha, nodes, weights))
    if constant:
        g = g + RationalMatFun.const(random_psd(rng, q))
    return StieltjesPair(alpha, g, RationalMatFun.const(np.eye(q)))


def test_parameters_with_a_constant_and_lifted_parameters_have_atoms(
        monkeypatch):
    # C + sum W_i / (y_i - z) in leq mode replaces Q_m by
    # Q_m (Q_m + C)^+ Q_m; r x r parameters lifted onto the range of a
    # rank-r top entry couple through it.  Both take the continued
    # fraction, verify, and (the conftest fixture) agree with the
    # pointwise action of the descent product.  The solutions have at most
    # 12 nodes: from about 16 on, the power basis of RationalMatFun loses
    # the action's digits near clustered nodes (3e-9 at q = 3, m = 4 with
    # three atoms), and from about 20 on its trim cuts den's leading
    # coefficients.
    taken = []
    atomic = solver._atomic_solution
    monkeypatch.setattr(solver, "_atomic_solution",
                        lambda *a: taken.append(1) or atomic(*a))
    rng = np.random.default_rng(92)
    for trial in range(24):
        q, m = 1 + trial % 3, 1 + trial // 3 % 3
        alpha = float(rng.uniform(-1.0, 1.0))
        _, seq = measure_seq(rng, q, m, atoms=m + 3, alpha=alpha)
        pair = _atom_parameter(rng, alpha, q, 1 + trial % 2, trial % 4 < 2)
        sol = solve(SolutionRequest(seq, pair, "leq"))
        assert verify_solution(sol, seq)["ok"], trial
    for q, r in ((2, 1), (3, 2), (4, 3)):
        seq = partially_degenerate_moments(rng, q, 2, 0.25)
        for constant, mode in ((False, "eq"), (True, "leq")):
            pair = _atom_parameter(rng, 0.25, r, 2, constant)
            sol = solve_degenerate_embedded(seq, pair, mode)
            assert verify_solution(sol, seq, mode)["ok"], (q, r, mode)
    assert len(taken) == 30


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 7),
       st.floats(-1.0, 1.0))
def test_the_extremal_solution_is_the_block_gauss_or_radau_rule(seed, q, m,
                                                                 alpha):
    # (O, I) in leq mode gives the block Gauss rule of s_0..s_m for m odd
    # and the Gauss-Radau rule with a node at alpha for m even, computed
    # here from the Hankel matrices alone (oracles), on exact moments of
    # m + 3 atoms
    mu = random_measure(np.random.default_rng(seed), q, m + 3, alpha=alpha)
    seq = moments(mu, m)
    if m % 2:
        nodes, weights = oracle_block_gauss(seq.s)
    else:
        nodes, weights = oracle_block_radau(alpha, seq.s)
    sol = solve(SolutionRequest(seq, identity_pair(alpha, q)))
    zs, (got,) = pairs.grid_values((sol,), pairs.default_grid(alpha))
    assert len(zs) == 15
    for z, value in zip(zs, got):
        want = oracle_stieltjes_value(nodes, weights, z)
        assert frob(value - want) <= 1e-9 * (1.0 + frob(value)), z


def _with_psi(rng, pair, cond):
    """The pair (G P, P) for (G, I), P a random constant q x q matrix with
    condition number ``cond``: phi psi^(-1) is still G."""
    q = pair.q
    u, v = (np.linalg.qr(rng.normal(size=(q, q))
                         + 1j * rng.normal(size=(q, q)))[0] for _ in range(2))
    p = (u * np.geomspace(1.0, 1.0 / cond, q)) @ v
    return StieltjesPair(pair.alpha, pair.phi.rmul(p), RationalMatFun.const(p))


def test_a_parameter_with_atoms_passes_the_gates_it_skips():
    # solve lets a pair's atoms stand in for verify_pair and in_diamond, as
    # the class of S-functions allows: C + sum W_i / (y_i - z) with PSD C
    # and W_i and every y_i >= alpha is admissible, and decays when C = 0.
    # Every draw with atoms (q 1-4, 1-3 atoms on [alpha, alpha + 20], C in
    # half the leq draws, cond(psi) up to 1e4) passes both, and every eq
    # draw is solved on moments of three atoms (m = 1).  Its solution has
    # q (1 + k) nodes for k parameter atoms.  In 4 of the 5 draws at
    # q = 4 with three atoms, 16 nodes spread over 20, the power basis of
    # RationalMatFun trims the denominator's leading coefficients, and
    # solve refuses the solution with GrowthError instead of returning a
    # function that misses the action; every solution it returns meets the
    # action (the conftest fixture)
    rng = np.random.default_rng(93)
    found = solved = refused = 0
    for trial in range(120):
        q, k = 1 + trial % 4, 1 + trial % 3
        mode = ("leq", "eq")[trial // 4 % 2]
        alpha = float(rng.uniform(-1.0, 1.0))
        pair = _atom_parameter(rng, alpha, q, k,
                               mode == "leq" and trial % 16 < 8, spread=20.0)
        pair = _with_psi(rng, pair, 10.0 ** rng.uniform(0.0, 4.0))
        zs, (ph,) = pairs.grid_values((pair.phi,), pairs.default_grid(alpha))
        if solver._parameter_atoms(pair, zs, ph, DEFAULT_TOL) is None:
            continue
        found += 1
        assert pairs.verify_pair(pair)["ok"], trial
        if mode == "eq":
            assert pairs.in_diamond(pair)["ok"], trial
            _, seq = measure_seq(rng, q, 1, atoms=3, alpha=alpha)
            try:
                assert solve(SolutionRequest(seq, pair, "eq")).q == q
                solved += 1
            except GrowthError as exc:
                assert "trim floor" in str(exc), trial
                refused += 1
    assert (found, solved, refused) == (120, 56, 4)


def test_an_atomic_parameter_that_in_diamond_refuses_solves_in_eq_mode():
    # cond(psi) = 3e5 at q = 4: the leading coefficient of phi.den det psi
    # falls under the polynomial trim floor, so in_diamond's degree test
    # reads the strictly proper quotient as improper; its atoms show
    # C = 0, and solve takes the pair
    rng = np.random.default_rng(1)
    pair = _with_psi(rng, _atom_parameter(rng, 0.0, 4, 2, False, spread=20.0),
                     3e5)
    _, seq = nondegenerate_seq(rng, 4, 2)
    assert not pairs.in_diamond(pair)["ok"]
    sol = solve(SolutionRequest(seq, pair, "eq"))
    assert verify_solution(sol, seq, "eq")["ok"]


def test_far_atoms_of_tiny_weight_are_not_dropped(monkeypatch):
    # with phi of solve_q2_m2.json scaled by 1e8, the solution has nodes
    # near 6.4e6 and 3.3e7 whose weights, 4.5e-13 and 4.9e-15, lie under
    # WEIGHT_REL |s_0| but carry 42 % of s_2.  Dropped by their mass, the
    # function missed s_2: verify refused it in eq mode and passed it in
    # leq mode, where C = 0 makes the parameter's solution meet s_2 exactly
    obj = json.loads((DATA / "solve_q2_m2.json").read_text())
    seq = serialize.sequence_from_json(obj["sequence"])
    pair = serialize.pair_from_json(obj["parameter"])
    big = StieltjesPair(pair.alpha, pair.phi.scale(1e8), pair.psi)
    atoms = []
    transform = measures.stieltjes_transform
    monkeypatch.setattr(measures, "stieltjes_transform",
                        lambda mu: atoms.append(mu) or transform(mu))
    for mode in ("leq", "eq"):
        atoms.clear()
        try:
            sol = solve(SolutionRequest(seq, big, mode))
        except GrowthError:
            sol = None
        (mu,) = atoms
        nodes = np.array(mu.nodes)
        assert nodes[-1] > 1e7
        for j, s in enumerate(seq.s):
            got = np.tensordot(nodes ** j, mu.weights, axes=1)
            assert frob(got - s) <= 1e-8 * frob(s), (mode, j)
        if sol is not None:
            assert verify_solution(sol, seq, mode)["ok"]
            got = measures.extract_moments(sol, seq.alpha, seq.m)[0].s
            assert all(frob(a - b) <= 1e-8 * frob(b)
                       for a, b in zip(got, seq.s)), mode


def test_solve_returns_the_solution_of_its_own_parameter():
    # in eq mode the moments of F beyond m are fixed by the parameter
    # G = sum_i W_i / (y_i - z): ascending G's moments sum_i y_i^j W_i
    # with inverse_transform, seeded with the trace's diagonal from last to
    # first, gives F's moments through code the eigensolve does not use
    rng = np.random.default_rng(1401)
    worst = {}
    for _ in range(60):
        q, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        k = int(rng.integers(1, 3))
        alpha = float(rng.uniform(-1.0, 1.0))
        _, seq = measure_seq(rng, q, m, atoms=m + 3, alpha=alpha)
        y = np.sort(alpha + rng.uniform(0.2, 6.0, size=k))
        w = np.array([random_psd(rng, q) + 0.05 * np.eye(q)
                      for _ in range(k)])
        pair = StieltjesPair(alpha,
                             stieltjes_transform(DiscreteMeasure(alpha, y, w)),
                             RationalMatFun.const(np.eye(q)))
        sol = solve(SolutionRequest(seq, pair, "eq"))
        up = MomentSequence(alpha, tuple(np.tensordot(y ** j, w, axes=1)
                                         for j in range(4)))
        for a in hankel.classify(seq).trace.diagonal[::-1]:
            up = schur.inverse_transform(up, a)
        assert len(up.s) == m + 5
        got = measures.extract_moments(sol, alpha, m + 4)[0].s
        gap = max(frob(a - b) / frob(b) for a, b in zip(got, up.s))
        worst[q] = max(worst.get(q, 0.0), gap)
    # worst gaps here: 1.6e-13, 3.3e-11 and 1.1e-10 for q = 1, 2, 3
    assert sorted(worst) == [1, 2, 3]
    assert max(worst.values()) <= 1e-8, worst
