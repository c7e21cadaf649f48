import gc
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from conftest import (
    cauchy_pair,
    degeneracy_sweep,
    measure_seq,
    nondegenerate_seq,
    random_measure,
    random_psd,
)
from stieltjesmp import hankel, matcore, schur, serialize
from stieltjesmp.hankel import (
    MomentSequence,
    build_stack,
    classify,
    inverse_parametrization,
    stieltjes_parametrization,
)
from stieltjesmp.matcore import DEFAULT_TOL, ToleranceConfig, frob
from stieltjesmp.measures import DiscreteMeasure, moments, verify_solution
from stieltjesmp.solver import SolutionRequest, solve


def test_sequence_validation():
    with pytest.raises(ValueError):
        MomentSequence(0.0, ())
    with pytest.raises(ValueError):
        MomentSequence(0.0, (np.eye(2), np.eye(3)))
    seq = MomentSequence(0.5, (np.eye(2), 2 * np.eye(2)))
    assert seq.q == 2 and seq.m == 1
    assert_allclose(seq.shifted()[0], 1.5 * np.eye(2))
    assert seq.restricted(0).m == 0


def test_sequences_and_measures_are_hermitized_in_one_call(monkeypatch):
    # a sequence, a measure's weights and a parametrization are each
    # checked for symmetry as one stack
    calls = []

    def counted(a, tol=DEFAULT_TOL, _fn=matcore.hermitize):
        calls.append(np.shape(a))
        return _fn(a, tol)

    monkeypatch.setattr(matcore, "hermitize", counted)
    mats = tuple(np.diag([k + 2.0, 1.0]) for k in range(4))
    seq = MomentSequence(0.5, mats)
    assert calls == [(4, 2, 2)] and type(seq.s) is tuple
    calls.clear()
    DiscreteMeasure(0.0, (1.0, 2.0, 3.0), mats[:3])
    assert calls == [(3, 2, 2)]
    calls.clear()
    inverse_parametrization(0.5, list(mats))
    # the entries, then the constructor of the sequence they give
    assert calls == [(4, 2, 2), (4, 2, 2)]


def test_sequence_and_measure_refusals_keep_their_messages():
    asym = np.array([[1.0, 1.0], [0.0, 1.0]])
    message = "^matrix is not Hermitian: asymmetry 1.414e\\+00 exceeds tolerance$"
    with pytest.raises(matcore.PreconditionError, match=message):
        MomentSequence(0.0, (np.eye(2), asym, np.eye(2)))
    with pytest.raises(ValueError, match="^all moment matrices must share one size$"):
        MomentSequence(0.0, (np.eye(2), np.eye(2), np.eye(3)))
    with pytest.raises(matcore.PreconditionError, match=message):
        DiscreteMeasure(0.0, (1.0, 2.0), (np.eye(2), asym))
    with pytest.raises(matcore.PreconditionError,
                       match="^weights must be positive semidefinite$"):
        DiscreteMeasure(0.0, (1.0, 2.0), (np.eye(2), np.diag([1.0, -1.0])))
    with pytest.raises(ValueError, match="^weights must share one size$"):
        DiscreteMeasure(0.0, (1.0, 2.0), (np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match="^need at least one parametrization entry$"):
        inverse_parametrization(0.0, [])


def test_block_hankel_matches_oracle():
    rng = np.random.default_rng(10)
    _, seq = measure_seq(rng, 2, 4, alpha=0.25)
    stack = build_stack(seq)
    for n in range(3):
        assert_allclose(stack.H[n], oracles.oracle_block_hankel(seq.s, n),
                        atol=1e-12)
    shifted = seq.shifted()
    for n in range(2):
        assert_allclose(stack.Halpha[n],
                        oracles.oracle_block_hankel(shifted, n), atol=1e-12)


def test_block_hankel_and_shift_have_the_bytes_of_blockwise_loops():
    # the gathered block Hankel matrix is the loop's, and the stacked shift
    # is -alpha*s_j + s_{j+1} formed matrix by matrix
    rng = np.random.default_rng(11)
    for q in range(1, 5):
        for length in range(1, 10):
            mats = rng.normal(size=(length, q, q)) \
                + 1j * rng.normal(size=(length, q, q))
            for n in range((length - 1) // 2 + 1):
                got = hankel._block_hankel(mats, n)
                assert got.flags.c_contiguous
                assert got.tobytes() \
                    == oracles.oracle_block_hankel(list(mats), n).tobytes()
            alpha = float(rng.uniform(-1.0, 1.0))
            shifted = hankel._shifted(alpha, tuple(mats))
            assert shifted.shape == (length - 1, q, q)
            assert [x.tobytes() for x in shifted] \
                == [(-alpha * mats[j] + mats[j + 1]).tobytes()
                    for j in range(length - 1)]


def test_scalar_parametrization_frozen_values():
    # s = (1, 1, 2, 6) at alpha 0:
    #   Q_0 = 1, Q_1 = 1, Q_2 = 2 - 1 = 1, Q_3 = 6 - 4 = 2
    seq = MomentSequence(0.0, tuple(np.array([[v]], float) for v in (1, 1, 2, 6)))
    qs = [float(x.real) for x in np.concatenate(stieltjes_parametrization(seq)).ravel()]
    assert_allclose(qs, [1.0, 1.0, 1.0, 2.0], atol=1e-13)


def test_parametrization_matches_schur_oracle():
    rng = np.random.default_rng(11)
    for q, m in [(1, 3), (2, 4), (3, 5)]:
        _, seq = measure_seq(rng, q, m)
        qs = stieltjes_parametrization(seq)
        shifted = seq.shifted()
        for j, qj in enumerate(qs):
            k = j // 2
            ref = (oracles.oracle_schur_complement(seq.s, k) if j % 2 == 0
                   else oracles.oracle_schur_complement(shifted, k))
            assert frob(qj - ref) <= 1e-10 * (1 + frob(ref))


def test_parametrization_roundtrip_both_directions():
    rng = np.random.default_rng(12)
    for q, m in [(1, 2), (2, 3), (3, 4), (2, 5)]:
        _, seq = measure_seq(rng, q, m, alpha=-0.5)
        qs = stieltjes_parametrization(seq)
        back = inverse_parametrization(seq.alpha, qs)
        worst = max(frob(a - b) for a, b in zip(back.s, seq.s))
        assert worst <= 1e-9 * (1 + max(frob(x) for x in seq.s))

    # the other direction: prescribe PSD entries, recover them
    rng = np.random.default_rng(13)
    qs = [random_psd(rng, 2) for _ in range(4)]
    seq = inverse_parametrization(1.5, qs)
    back = stieltjes_parametrization(seq)
    worst = max(frob(a - b) for a, b in zip(back, qs))
    assert worst <= 1e-9


@pytest.mark.parametrize("seed, draws, q_max, m_max, alpha_max", [
    (1, 200, 3, 9, 0.0), (5, 300, 4, 12, 1.0)])
def test_parametrization_roundtrip_never_refuses_exact_moments(
        seed, draws, q_max, m_max, alpha_max):
    # the Schur complements are formed by cancellation, so their rounding
    # asymmetry is large relative to their size; neither direction may
    # refuse them as "not Hermitian", and the round trip keeps the moments
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        q = int(rng.integers(1, q_max + 1))
        m = int(rng.integers(2, m_max + 1))
        alpha = float(rng.uniform(-alpha_max, alpha_max)) if alpha_max else 0.0
        seq = moments(random_measure(rng, q, m + 2, alpha=alpha, spread=8.0), m)
        back = inverse_parametrization(alpha, stieltjes_parametrization(seq))
        scale = max(frob(x) for x in seq.s)
        worst = max(worst, max(frob(a - b) for a, b in zip(back.s, seq.s)) / scale)
    assert worst <= 1e-6


def test_classify_cone_counterexample_fixture():
    # the cone member with no measure behind it: report stays in the cone
    # but both dominance and the extendability candidate say no
    s0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    s1 = np.array([[1.0, 1.0], [1.0, 1.0]])
    rep = classify(MomentSequence(0.0, (s0, s1)))
    assert rep.hankel_psd and rep.stieltjes_psd
    assert not rep.stieltjes_pd
    assert not rep.first_term_dominant
    assert rep.extendable_candidate == "no"
    assert not rep.completely_degenerate
    assert rep.rank_top == 1
    js = serialize.report_to_json(rep)
    assert js["Kgg"] and not js["D"] and js["Kgge_candidate"] == "no"


def test_classify_negative_definite_term():
    rep = classify(MomentSequence(0.0, (-np.eye(2),)))
    assert not rep.stieltjes_psd
    assert rep.extendable_candidate == "no"


def test_classify_borderline_is_unknown():
    rep = classify(MomentSequence(0.0, (np.diag([1.0, -5e-9]),)))
    assert rep.extendable_candidate == "unknown"


def test_classify_measure_sequences_are_candidates():
    rng = np.random.default_rng(14)
    for q, m, alpha in [(1, 2, 0.0), (2, 3, 1.0), (3, 4, -2.0), (2, 0, 0.5)]:
        _, seq = nondegenerate_seq(rng, q, m, alpha=alpha)
        rep = classify(seq)
        assert rep.stieltjes_psd
        assert rep.extendable_candidate == "yes", (q, m, alpha)


def test_classify_single_atom_is_completely_degenerate():
    rng = np.random.default_rng(15)
    from stieltjesmp.measures import DiscreteMeasure, moments

    w = random_psd(rng, 2) + 0.1 * np.eye(2)
    mu = DiscreteMeasure(0.0, (1.3,), (w,))
    rep = classify(moments(mu, 2))
    assert rep.completely_degenerate
    assert rep.rank_top == 0
    assert rep.extendable_candidate == "yes"


def test_restricted_sequences_stay_in_cone():
    rng = np.random.default_rng(16)
    _, seq = nondegenerate_seq(rng, 2, 5)
    for ell in range(seq.m + 1):
        assert classify(seq.restricted(ell)).stieltjes_psd


def _outcome(fn, seq):
    try:
        return fn(seq)
    except Exception as exc:  # a failure must surface the same way
        return type(exc), str(exc)


def test_classify_matches_recursive_oracle():
    # each sequence of the sweep and every one of its restrictions; the
    # sweep covers all three degeneracy cases and tops pushed off the cone
    seqs = [seq.restricted(ell) for seq in degeneracy_sweep()
            for ell in range(seq.m + 1)]
    reports = [_outcome(classify, seq) for seq in seqs]
    for seq, rep in zip(seqs, reports):
        assert rep == _outcome(oracles.oracle_classify, seq), (seq.q, seq.m)
    verdicts = {rep.extendable_candidate for rep in reports
                if not isinstance(rep, tuple)}
    assert verdicts == {"yes", "no"}
    assert any(rep.completely_degenerate for rep in reports)
    assert any(0 < rep.rank_top < rep.q for rep in reports)

    # the fixtures: the non-extendable cone member, a borderline and a
    # negative definite single term, and exact moments at (2, 8) with
    # nodes up to 6, whose computed Q_m is asymmetric by rounding well
    # beyond tol.herm; computed matrices are symmetrized, so this measure
    # classifies as extendable, solves and verifies
    s0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    s1 = np.array([[1.0, 1.0], [1.0, 1.0]])
    _, seq8 = nondegenerate_seq(np.random.default_rng(0), 2, 8)
    fixtures = [MomentSequence(0.0, (s0, s1)),
                MomentSequence(0.0, (np.diag([1.0, -5e-9]),)),
                MomentSequence(0.0, (-np.eye(2),)),
                seq8]
    got = [_outcome(classify, seq) for seq in fixtures]
    for seq, rep in zip(fixtures, got):
        assert rep == _outcome(oracles.oracle_classify, seq)
    assert got[3].extendable_candidate == "yes" and got[3].rank_top == 2
    sol = solve(SolutionRequest(seq8, cauchy_pair(0.0, 2)))
    assert verify_solution(sol, seq8)["ok"]


def test_json_roundtrip():
    rng = np.random.default_rng(17)
    _, seq = measure_seq(rng, 2, 3, alpha=0.75)
    back = serialize.sequence_from_json(
        serialize.sequence_to_json(seq.alpha, seq.s))
    assert back.alpha == seq.alpha
    # serialization rounds to 15 significant digits
    scale = max(frob(x) for x in seq.s)
    assert max(frob(a - b) for a, b in zip(back.s, seq.s)) <= 1e-12 * scale


@pytest.fixture
def traces(monkeypatch):
    """Counts of the calls of the α-S trace and of ``psd_margin``."""
    calls = dict.fromkeys(("transform_trace", "psd_margin"), 0)
    for module, name in ((schur, "transform_trace"), (matcore, "psd_margin")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_library_pipeline_runs_the_algorithm_once(traces):
    # solve and verify_solution read the report and the cone margins that
    # classify stored for the same sequence object
    _, seq = nondegenerate_seq(np.random.default_rng(91), 2, 4)
    assert classify(seq).extendable_candidate == "yes"
    sol = solve(SolutionRequest(seq, cauchy_pair(0.0, 2)))
    assert traces["transform_trace"] == 1
    traces["psd_margin"] = 0
    assert verify_solution(sol, seq)["ok"]
    assert traces == {"transform_trace": 1, "psd_margin": 0}

    # a sequence nobody classified, as ``cli verify`` reads one, still gets
    # both top Hankel matrices tested
    fresh = MomentSequence(seq.alpha, seq.s)
    assert verify_solution(sol, fresh)["ok"]
    assert traces == {"transform_trace": 1, "psd_margin": 2}


def test_classify_keeps_one_report(traces):
    rng = np.random.default_rng(92)
    _, a = nondegenerate_seq(rng, 2, 3)
    _, b = nondegenerate_seq(rng, 2, 3)
    first = classify(a)
    classify(b)
    again = classify(a)
    assert traces["transform_trace"] == 3
    assert again == first and again.trace.input is a

    # an equal tolerance hits; another tolerance, or an equal-valued
    # sequence that is another object, runs the algorithm again
    assert classify(a, ToleranceConfig()) is again
    assert traces["transform_trace"] == 3
    classify(a, ToleranceConfig(psd=2e-9))
    assert traces["transform_trace"] == 4
    twin = MomentSequence(a.alpha, a.s)
    assert classify(twin).trace.input is twin
    assert traces["transform_trace"] == 5


def test_classify_retains_at_most_one_sequence():
    rng = np.random.default_rng(93)
    _, a = nondegenerate_seq(rng, 2, 3)
    _, b = nondegenerate_seq(rng, 2, 3)
    classify(a)
    ref = weakref.ref(a)
    del a
    classify(b)
    gc.collect()
    assert ref() is None


def test_sequences_and_traces_are_read_only():
    rng = np.random.default_rng(94)
    _, seq = nondegenerate_seq(rng, 2, 3)
    given = [np.array(x) for x in seq.s]
    seq = MomentSequence(seq.alpha, given)
    report = classify(seq)
    for target in (seq.s[1], report.trace.stages[2][1],
                   report.trace.diagonal[-1]):
        with pytest.raises(ValueError):
            target[0, 0] = 1.0
    for x in given:
        assert x.flags.writeable
        x[0, 0] += 1.0
    assert classify(seq) is report


def test_concurrent_classify_returns_each_thread_its_own_report():
    rng = np.random.default_rng(95)
    seqs = [nondegenerate_seq(rng, 2, 3)[1] for _ in range(4)]
    expected = [classify(s) for s in seqs]
    wrong = []

    def work(k):
        for _ in range(40):
            got = classify(seqs[k])
            if got.trace.input is not seqs[k] or got != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []


def test_moments_near_the_float_range_classify_as_at_unit_scale():
    # one or two atoms with weights 2e154 to 1e300: the norms in the zero-
    # stage test and the dominance tests overflow unless scaled, which once
    # printed numpy warnings; the report is the unit-scale one
    w2 = np.array([[2.0, 0.5], [0.5, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in (np.eye(1), w2):
            for m in range(1, 5):
                for nodes in ((1.0,), (1.0, 3.0)):
                    s = [sum(x ** j * w for x in nodes) for j in range(m + 1)]
                    unit = classify(MomentSequence(0.0, tuple(s)))
                    for big in (2e154, 1e200, 1e300):
                        seq = MomentSequence(0.0, tuple(big * x for x in s))
                        assert classify(seq) == unit
