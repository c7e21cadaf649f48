import dataclasses
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from conftest import (completely_degenerate_seq, degeneracy_sweep, measure_seq,
                      nondegenerate_seq, partially_degenerate_seq,
                      random_measure, random_psd)
from stieltjesmp import matcore, schur
from stieltjesmp.hankel import MomentSequence, stieltjes_parametrization
from stieltjesmp.matcore import (DEFAULT_TOL, PreconditionError, ToleranceConfig,
                                 frob, pinv)
from stieltjesmp.measures import moments
from stieltjesmp.schur import (
    alpha_shift,
    check_inequality_preservation,
    first_transform,
    inverse_transform,
    k_th_transform,
    reciprocal,
    transform_trace,
)


def test_reciprocal_frozen_example():
    rec = reciprocal([2 * np.eye(2), np.eye(2)])
    assert_allclose(rec[0], 0.5 * np.eye(2), atol=1e-14)
    assert_allclose(rec[1], -0.25 * np.eye(2), atol=1e-14)


def test_reciprocal_is_convolution_inverse():
    rng = np.random.default_rng(20)
    mats = [random_psd(rng, 3) + 0.2 * np.eye(3)]
    mats += [oracles.random_hermitian(rng, 3) for _ in range(3)]
    rec = reciprocal(mats)
    for j in range(1, len(mats)):
        acc = sum(mats[j - l] @ rec[l] for l in range(j + 1))
        assert frob(acc) <= 1e-10 * (1 + frob(mats[0]))


def _adversarial_stack(rng, q, n, kind):
    # entries scaled from 1e-150 to 1e150, a first entry that is plain,
    # zero or with singular values under the pinv cutoff, and -0.0 parts
    mats = rng.standard_normal((n, q, q)) + 1j * rng.standard_normal((n, q, q))
    mats *= 10.0 ** rng.uniform(-150, 150, n)[:, None, None]
    if kind == 1:
        mats[0] = 0
    elif kind == 2:
        u, _, vh = np.linalg.svd(mats[0])
        sv = 10.0 ** rng.uniform(-18, -13, q)
        sv[0] = 1.0
        mats[0] = 10.0 ** rng.uniform(-150, 150) * (u * sv) @ vh
    if rng.random() < 0.5:
        mats.real[rng.random(mats.shape) < 0.3] = -0.0
        mats.imag[rng.random(mats.shape) < 0.3] = -0.0
    return mats


def test_reciprocal_accumulates_with_the_bytes_of_the_nested_sum():
    # the accumulated sums get their terms in the nested sum's order, from
    # the same +0.0, so every byte is that of one sum per entry
    rng = np.random.default_rng(37)
    negzero = 0
    for trial in range(3000):
        q, n = int(rng.integers(1, 5)), int(rng.integers(1, 11))
        mats = _adversarial_stack(rng, q, n, trial % 3)
        parts = mats.view(float)
        negzero += bool(np.any(np.signbit(parts) & (parts == 0)))
        with np.errstate(over="ignore", invalid="ignore"):
            got = reciprocal(mats)
            ref = oracles.checked_reciprocal(mats)
        assert got.shape == ref.shape == (n, q, q)
        assert got.tobytes() == ref.tobytes(), (trial, q, n)
    assert negzero > 1000


def test_inverse_accumulates_with_the_bytes_of_the_nested_sum():
    # the inverse step's sums, accumulated once (shift r)_k is known, have
    # the bytes of a sum of products per entry, also for a zero or a
    # singular seed and a zero t_0
    rng = np.random.default_rng(38)
    for trial in range(600):
        q, m = int(rng.integers(1, 5)), int(rng.integers(0, 7))
        alpha = float(rng.choice([0.0, rng.uniform(-2.0, 2.0)]))
        t = [oracles.random_hermitian(rng, q, scale=10.0 ** rng.uniform(-5, 5))
             for _ in range(m + 1)]
        if trial % 4 == 1:
            t[0] = np.zeros((q, q))
        rank = (q, 0, max(q - 1, 0), q)[trial % 4]
        a = oracles.random_psd(rng, q, rank=rank)
        seq = MomentSequence(alpha, tuple(t))
        got = inverse_transform(seq, a)
        a = matcore.hermitize(a)
        ref = oracles.checked_inverse(alpha, seq.s, a, pinv(a))
        assert [x.tobytes() for x in got.s] == [x.tobytes() for x in ref], trial


def test_alpha_shift_convention():
    out = alpha_shift(2.0, [np.eye(1), 3 * np.eye(1), 4 * np.eye(1)])
    assert_allclose(np.concatenate(out).ravel(), [1.0, 1.0, -2.0])


def test_first_transform_matches_oracle():
    rng = np.random.default_rng(21)
    for q, m, alpha in [(1, 3, 0.0), (2, 4, 0.5), (3, 2, -1.0)]:
        _, seq = measure_seq(rng, q, m, alpha=alpha)
        got = first_transform(seq)
        ref = oracles.oracle_first_transform(alpha, seq.s)
        assert got.m == m - 1
        worst = max(frob(a - b) for a, b in zip(got.s, ref))
        assert worst <= 1e-9 * (1 + max(frob(x) for x in seq.s))


def test_first_transform_needs_two_entries():
    with pytest.raises(PreconditionError):
        first_transform(MomentSequence(0.0, (np.eye(2),)))


def test_fixed_point_of_the_cone_counterexample():
    # the m=1 fixture where one step reproduces s_0 exactly
    s0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    s1 = np.array([[1.0, 1.0], [1.0, 1.0]])
    out = first_transform(MomentSequence(0.0, (s0, s1)))
    assert frob(out.s[0] - s0) == 0.0


def test_kth_transform_composes():
    rng = np.random.default_rng(22)
    _, seq = measure_seq(rng, 2, 5, alpha=0.25)
    scale = 1 + max(frob(x) for x in seq.s)
    for j, k in [(1, 1), (2, 1), (1, 3), (0, 4)]:
        lhs = k_th_transform(seq, j + k)
        rhs = k_th_transform(k_th_transform(seq, j), k)
        worst = max(frob(a - b) for a, b in zip(lhs.s, rhs.s))
        assert worst <= 1e-10 * scale
    with pytest.raises(PreconditionError):
        k_th_transform(seq, 6)

    # exact moments of one atom collapse: their stages from the second on
    # are rounding, set to zero; they compose too, since each step reads
    # only its own input
    seq = moments(random_measure(np.random.default_rng(3), 1, 1), 8)
    for j, k in [(1, 1), (1, 3), (2, 4), (0, 8)]:
        lhs = k_th_transform(seq, j + k)
        rhs = k_th_transform(k_th_transform(seq, j), k)
        assert all(np.array_equal(a, b) for a, b in zip(lhs.s, rhs.s))
    assert np.any(k_th_transform(seq, 1).s[0])
    assert not np.any(k_th_transform(seq, 2).s)


def test_trace_keeps_each_stage_as_one_read_only_stack():
    for seq in degeneracy_sweep():
        trace = transform_trace(seq)
        assert [f.name for f in dataclasses.fields(trace)] \
            == ["input", "stages", "diagonal", "pinvs"]
        assert len(trace.stages) == seq.m + 1
        for k, stage in enumerate(trace.stages):
            assert type(stage) is np.ndarray
            assert stage.shape == (seq.m - k + 1, seq.q, seq.q)
            assert not stage.flags.writeable
            assert trace.diagonal[k].tobytes() == stage[0].tobytes()
            assert not trace.diagonal[k].flags.writeable
        assert trace.stages[0].tobytes() == np.array(seq.s).tobytes()


def test_trace_diagonal_equals_parametrization():
    rng = np.random.default_rng(23)
    for q, m, alpha in [(1, 4, 0.0), (2, 3, 1.5), (3, 5, -0.5), (4, 2, 0.0)]:
        _, seq = measure_seq(rng, q, m, alpha=alpha)
        trace = transform_trace(seq)
        qs = stieltjes_parametrization(seq)
        assert len(trace.diagonal) == m + 1
        assert len(trace.stages[m]) == 1 and len(trace.stages[0]) == m + 1
        scale = 1 + max(frob(x) for x in seq.s)
        worst = max(frob(a - b) for a, b in zip(trace.diagonal, qs))
        assert worst <= 1e-9 * scale


def test_trace_steps_match_loop_arithmetic_exactly():
    # each step runs on stacked arrays, with the arithmetic of the loop
    # below entry for entry, so every stage agrees with it to the last bit
    rng = np.random.default_rng(25)
    for q, m, alpha in [(1, 6, 0.0), (2, 5, -0.7), (3, 4, 1.3)]:
        _, seq = measure_seq(rng, q, m, alpha=alpha)
        trace = transform_trace(seq)
        for k in range(m):
            mats = trace.stages[k]
            shifted, prev = [], np.zeros_like(mats[0])
            for x in mats:
                shifted.append(-alpha * prev + x)
                prev = x
            s0p = pinv(shifted[0])
            rec = [s0p]
            for j in range(1, len(mats)):
                rec.append(-s0p @ sum(shifted[j - l] @ rec[l] for l in range(j)))
            loop = [-mats[0] @ r @ mats[0] for r in rec[1:]]
            for got, x in zip(trace.stages[k + 1], loop):
                assert np.array_equal(got, 0.5 * (x + x.conj().T))


def test_inverse_transform_matches_nested_sum_oracle():
    rng = np.random.default_rng(24)
    _, t = measure_seq(rng, 2, 2, alpha=0.5)
    a = random_psd(rng, 2) + 0.1 * np.eye(2)
    got = inverse_transform(t, a)
    ref = oracles.oracle_inverse_transform(0.5, a, t.s, t.m + 1)
    assert got.m == t.m + 1
    worst = max(frob(x - y) for x, y in zip(got.s, ref))
    assert worst <= 1e-9 * (1 + frob(a))


def test_inverse_undoes_first_transform():
    rng = np.random.default_rng(25)
    for q, m, alpha in [(1, 2, 0.0), (2, 3, 0.5), (3, 4, -1.0)]:
        _, seq = measure_seq(rng, q, m, alpha=alpha)
        down = first_transform(seq)
        back = inverse_transform(down, seq.s[0])
        scale = 1 + max(frob(x) for x in seq.s)
        worst = max(frob(a - b) for a, b in zip(back.s, seq.s))
        assert worst <= 1e-9 * scale, (q, m)


def test_first_undoes_inverse_with_definite_seed():
    rng = np.random.default_rng(26)
    _, t = measure_seq(rng, 2, 2, alpha=0.25)
    a = random_psd(rng, 2) + 0.2 * np.eye(2)
    up = inverse_transform(t, a)
    down = first_transform(up)
    scale = 1 + max(frob(x) for x in t.s)
    worst = max(frob(x - y) for x, y in zip(down.s, t.s))
    assert worst <= 1e-9 * scale


def test_inequality_preservation_report():
    rng = np.random.default_rng(27)
    for q, m in [(2, 2), (3, 3), (2, 4)]:
        _, seq = nondegenerate_seq(rng, q, m)
        bump = random_psd(rng, q, rank=1, scale=0.1)
        smaller = MomentSequence(seq.alpha, seq.s[:-1] + (seq.s[-1] - bump,))
        rep = check_inequality_preservation(seq, smaller)
        assert rep["forward_prefix_ok"] and rep["forward_top_ok"]
        assert rep["forward_closed_form_ok"]
        assert rep["inverse_prefix_ok"] and rep["inverse_top_ok"]
        assert rep["inverse_closed_form_ok"]
        assert rep["top_defect_margin"] >= -1e-12


def test_inequality_preservation_inverts_s0_once(monkeypatch):
    # the forward and inverse checks and the closed form all start from
    # s_0^+: one pseudoinverse per call, every pseudoinverse runs through
    # pinv_unchecked
    rng = np.random.default_rng(27)
    _, seq = nondegenerate_seq(rng, 2, 2)
    smaller = MomentSequence(seq.alpha, seq.s[:-1] + (
        seq.s[-1] - random_psd(rng, 2, rank=1, scale=0.1),))
    seen = []

    def counted(a, *args, _fn=matcore.pinv_unchecked, **kwargs):
        seen.append(np.array(a))
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(matcore, "pinv_unchecked", counted)
    assert check_inequality_preservation(seq, smaller)["ok"]
    assert len(seen) == 1
    assert np.array_equal(seen[0].reshape(2, 2), seq.s[0])


def test_inequality_preservation_preconditions():
    rng = np.random.default_rng(28)
    _, seq = nondegenerate_seq(rng, 2, 2)
    other = MomentSequence(seq.alpha, (seq.s[0] + np.eye(2),) + seq.s[1:])
    with pytest.raises(PreconditionError):
        check_inequality_preservation(seq, other)
    bigger = MomentSequence(seq.alpha, seq.s[:-1] + (seq.s[-1] + np.eye(2),))
    with pytest.raises(PreconditionError):
        check_inequality_preservation(seq, bigger)
    # the inverse step is seeded with s_0; there is no other seed to pick
    with pytest.raises(TypeError):
        check_inequality_preservation(seq, seq, a=seq.s[0])


def _rational_measure_moments(rng):
    # m + 1 distinct nodes in alpha + [0.3, 8] on a 1/10 lattice, weights in
    # (0, 4] on a 1/4 lattice, alpha a multiple of 1/8: the moments and
    # every trace stage are exact rationals
    m = rng.randint(2, 8)
    alpha = Fraction(rng.randint(-16, 16), 8)
    nodes = [alpha + Fraction(k, 10) for k in rng.sample(range(3, 81), m + 1)]
    weights = [Fraction(rng.randint(1, 16), 4) for _ in nodes]
    return alpha, [sum(w * x ** j for x, w in zip(nodes, weights))
                   for j in range(m + 1)]


def test_trace_keeps_each_steps_seed_inverse_bit_for_bit():
    # the inverse each step's reciprocal starts from, and the last diagonal
    # entry's, which the trace inverts after the steps, are the ones the
    # resolvent products, solve's range gate and classify's dominance test
    # read back, so each must have the bits of a fresh pinv of its diagonal
    # entry at the trace's tolerance, also where a step has zeroed its stage
    rng = np.random.default_rng(27)
    tols = (DEFAULT_TOL, ToleranceConfig(pinv_rtol=1e-8))
    builders = (
        lambda q, m, alpha: nondegenerate_seq(rng, q, m, alpha=alpha)[1],
        lambda q, m, alpha: completely_degenerate_seq(rng, q, m, alpha=alpha)[1],
        lambda q, m, alpha: measure_seq(rng, q, m, atoms=max(1, m // 2),
                                        alpha=alpha)[1],
        lambda q, m, alpha: partially_degenerate_seq(rng, q, max(1, q - 1),
                                                     alpha=alpha)[1],
    )
    seen = set()
    for trial in range(120):
        q, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        alpha = (-1.3, 0.0, 0.8)[trial % 3]
        build = builders[trial % 4]
        if build is builders[3] and q == 1:
            continue
        seq = build(q, m, alpha)
        tol = tols[trial // 12 % 2]
        trace = transform_trace(seq, tol)
        assert len(trace.pinvs) == len(trace.diagonal) == seq.m + 1
        for d, dp in zip(trace.diagonal, trace.pinvs):
            assert dp.tobytes() == pinv(d, tol).tobytes()
            assert not dp.flags.writeable
            seen.add((np.sign(alpha), not np.any(d)))
    assert seen == {(-1.0, False), (0.0, False), (1.0, False),
                    (-1.0, True), (0.0, True), (1.0, True)}


def test_trace_has_the_bytes_of_the_step_that_checks_each_stage_again():
    # a step calls the shift and reciprocal arithmetic without the public
    # functions' argument checks, on a stage already known finite; every
    # byte of the stages and seed inverses is that of the step whose
    # helpers check their arguments, over q 1..4, m 0..8, alpha in [-1, 1],
    # all three degeneracy cases and a stage the step sets to zero
    zeroed = 0
    for tol in (DEFAULT_TOL, ToleranceConfig(pinv_rtol=1e-8, psd=1e-7)):
        for seq in degeneracy_sweep():
            trace = transform_trace(seq, tol)
            stages, pinvs = oracles.oracle_checked_trace(
                seq.alpha, seq.s, tol.pinv_rtol, tol.psd)
            assert [np.array(st).tobytes() for st in trace.stages] \
                == [st.tobytes() for st in stages]
            assert [p.tobytes() for p in trace.pinvs[:seq.m]] \
                == [p.tobytes() for p in pinvs]
            top = np.linalg.pinv(trace.diagonal[-1], rtol=tol.pinv_rtol)
            assert trace.pinvs[seq.m].tobytes() == top.tobytes()
            zeroed += any(not np.any(st) for st in stages[1:])
    assert zeroed


def test_trace_stops_stepping_at_its_first_zero_stage(monkeypatch):
    # one atom: stage 1 is nonzero and stage 2 the first zero one, so the
    # trace steps twice and inverts each step's seed and the zero matrix
    # once, whatever m; the stages and inverses keep the bytes of the step
    # that runs every level
    steps, inverses = [], []

    def counted(calls, fn):
        def call(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(schur, "_step", counted(steps, schur._step))
    monkeypatch.setattr(matcore, "pinv_unchecked",
                        counted(inverses, matcore.pinv_unchecked))
    rng = np.random.default_rng(36)
    for q in (1, 2, 3):
        counts = set()
        for m in range(2, 9):
            seq = completely_degenerate_seq(rng, q, m,
                                            alpha=float(rng.uniform(-1, 1)))[1]
            del steps[:], inverses[:]
            trace = transform_trace(seq)
            assert len(steps) == 2, (q, m)
            counts.add(len(inverses))
            stages, pinvs = oracles.oracle_checked_trace(seq.alpha, seq.s)
            assert not np.any(stages[2])
            assert [st.tobytes() for st in trace.stages] \
                == [st.tobytes() for st in stages]
            top = np.linalg.pinv(stages[-1][0], rtol=DEFAULT_TOL.pinv_rtol)
            assert [p.tobytes() for p in trace.pinvs] \
                == [p.tobytes() for p in pinvs + [top]]
            assert all(not st.flags.writeable for st in trace.stages)
        assert len(counts) == 1, (q, counts)


def test_scalar_trace_diagonal_matches_exact_arithmetic():
    # 50 rational measures, m 2..8: the float diagonal's relative error
    # against oracle_trace_exact was 3.4e-14 at the median, 1.0e-10 at the
    # 90th percentile and 9.4e-10 at worst (numpy 2.4, one BLAS thread);
    # the bound leaves 10x headroom, and scaling every output of _step by
    # 1 + 1e-6 fails it
    rng = random.Random(17)
    errors = []
    for _ in range(50):
        alpha, s = _rational_measure_moments(rng)
        exact = [stage[0] for stage in oracles.oracle_trace_exact(alpha, s)]
        seq = MomentSequence(float(alpha),
                             tuple(np.array([[float(x)]]) for x in s))
        got = [d[0, 0] for d in transform_trace(seq).diagonal]
        errors.append(max(abs(g - float(e)) / abs(float(e))
                          for g, e in zip(got, exact)))
    assert max(errors) <= 9.4e-9, (max(errors), float(np.median(errors)))


def test_every_stage_the_trace_zeroes_is_zero_in_exact_arithmetic():
    # n rational atoms, m 2n..2n+3: the exact chain ends at stage 2n, and
    # a stage the float zero test sets to zero, which the trace then stops
    # stepping at, is exactly zero, not rounding of a nonzero stage. The
    # float test fired at stage 2n in 296 of the 300 draws (numpy 2.4);
    # in the other four, all n = 3, |Q_2n| / |Q_2n-1| is 1.6e-9 to 7.7e-8
    rng = random.Random(5)
    zeroed = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        m = rng.randint(2 * n, 2 * n + 3)
        alpha = Fraction(rng.randint(-16, 16), 8)
        nodes = [alpha + Fraction(k, 10) for k in rng.sample(range(3, 81), n)]
        weights = [Fraction(rng.randint(1, 16), 4) for _ in nodes]
        s = [sum(w * x ** j for x, w in zip(nodes, weights))
             for j in range(m + 1)]
        exact = oracles.oracle_trace_exact(alpha, s)
        assert not any(exact[2 * n])
        seq = MomentSequence(float(alpha),
                             tuple(np.array([[float(x)]]) for x in s))
        stages = transform_trace(seq).stages
        for k in range(1, m + 1):
            if not np.any(stages[k]):
                assert all(x == Fraction(0) for x in exact[k]), (n, m, k)
        zeroed += not np.any(stages[2 * n])
    assert zeroed >= 290, zeroed


def test_a_step_beyond_the_float_range_is_a_precondition():
    # at alpha = 1e300 the reciprocal of the shifted sequence overflows:
    # numpy warned, and the step raised an untyped error naming no step
    seq = MomentSequence(1e300, (np.eye(2),) * 3)
    message = "^α-S step 1 \\(stage 0 → 1\\) leaves the float range$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (transform_trace, first_transform):
            with pytest.raises(PreconditionError, match=message):
                run(seq)


@pytest.mark.parametrize("q", (1, 2, 3))
def test_the_trace_of_tiny_moments_is_the_scaled_trace(q):
    # s_j = (3^j + 1) I, atoms I at 1 and 3: at 2^-1000 the sums of squares
    # behind the zero-stage test fall below the normal range, which once
    # read as 0 and zeroed Q_1 and Q_2; now every stage of the trace of
    # 2^-1000 s is 2^-1000 times that of s, bit for bit
    k = 2.0 ** -1000
    s = tuple((3.0 ** j + 1) * np.eye(q) for j in range(5))
    unit = transform_trace(MomentSequence(0.0, s))
    tiny = transform_trace(MomentSequence(0.0, tuple(k * x for x in s)))
    for a, b in zip(unit.stages, tiny.stages):
        assert np.array_equal(k * a, b)
    assert all(np.any(d) for d in tiny.diagonal[:3])


def _sequence(alpha, m):
    return MomentSequence(alpha, (np.eye(2),) * (m + 1))


@pytest.mark.parametrize("call, error, message", [
    (lambda: reciprocal(()), ValueError, "reciprocal of an empty sequence"),
    (lambda: reciprocal([np.eye(2), np.full((2, 2), np.inf)]), ValueError,
     "expected finite matrices of one shape"),
    (lambda: alpha_shift(0.0, np.eye(2)), ValueError,
     "expected finite matrices of one shape"),
    (lambda: check_inequality_preservation(_sequence(0.0, 1),
                                           _sequence(1.0, 1)),
     PreconditionError, "sequences must share alpha and length"),
    (lambda: check_inequality_preservation(_sequence(0.0, 1),
                                           _sequence(0.0, 2)),
     PreconditionError, "sequences must share alpha and length"),
], ids=["empty", "non-finite", "one-matrix", "alpha", "length"])
def test_schur_refuses_malformed_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
