"""End-to-end checks of the command line front end, run in process, plus
one run of the console script that ``pyproject.toml`` declares."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import (NEGATIVE_ATOMS, cauchy_pair, completely_degenerate_seq,
                      grid_pole_pair, measure_seq, negative_atom_problem)
import stieltjesmp
from stieltjesmp import cli, measures, pairs, schur, serialize
from stieltjesmp.cli import build_parser, main
from stieltjesmp.measures import DiscreteMeasure, moments
from stieltjesmp.pairs import RationalMatFun
from stieltjesmp.respoly import MatrixPolynomial
from stieltjesmp.schur import first_transform
from stieltjesmp.solver import SolutionRequest, solve


def write_json(path, obj):
    # 17 significant digits write every double as it is
    path.write_text(serialize.dumps(obj, 17), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def _call(capsys, argv):
    # (stdout, stderr, exit code) of one main call
    code = main(argv)
    out, err = capsys.readouterr()
    return out, err, code


def sequence_file(tmp_path, alpha, mats, name="seq.json"):
    return write_json(tmp_path / name,
                      serialize.sequence_to_json(alpha, mats))


def corner_sequence(tmp_path):
    # Hankel-nonnegative but not extendable: dominant-part test fails.
    s0 = np.diag([1.0, 0.0]).astype(complex)
    s1 = np.ones((2, 2), dtype=complex)
    return sequence_file(tmp_path, 0.0, (s0, s1))


def test_classify_reports_cone_membership(tmp_path, capsys):
    code, out = run_cli(capsys, ["classify", corner_sequence(tmp_path)])
    assert code == 0
    assert out["q"] == 2 and out["m"] == 1
    assert out["Hgg"] is True
    assert out["Kgg"] is True
    assert out["Kgg_strict"] is False
    assert out["Kgge_candidate"] == "no"
    assert out["rank_top"] == 1


def test_classify_accepts_measure_moments(tmp_path, capsys):
    rng = np.random.default_rng(11)
    _, seq = measure_seq(rng, 2, 3, atoms=4)
    path = sequence_file(tmp_path, seq.alpha, seq.s)
    code, out = run_cli(capsys, ["classify", path])
    assert code == 0
    assert out["Kgge_candidate"] == "yes"


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _ = run_cli(capsys, ["classify", str(bad)])
    assert code == 2


def test_missing_file_is_a_parse_error(tmp_path, capsys):
    code, _ = run_cli(capsys, ["classify", str(tmp_path / "nope.json")])
    assert code == 2


def test_unknown_tolerance_is_a_parse_error(tmp_path, capsys):
    path = corner_sequence(tmp_path)
    code, _ = run_cli(capsys, ["classify", path, "--tol", "bogus=1"])
    assert code == 2
    code, _ = run_cli(capsys, ["classify", path, "--tol", "psd=abc"])
    assert code == 2
    code, _ = run_cli(capsys, ["classify", path, "--tol", "psd=1e-3"])
    assert code == 0


def test_tol_names_only_tolerance_fields(capsys):
    # --tol takes ToleranceConfig's field names, and pair equivalence has
    # no field: its bound is fixed
    assert main(["classify", str(DATA / "seq_q2_m2.json"),
                 "--tol", "equiv=1e-3"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "bad --tol entry 'equiv=1e-3'" in captured.err


@pytest.mark.parametrize("command, path", [
    ("classify", "seq_q2_m2.json"), ("schur", "seq_q2_m2.json"),
    ("poly", "seq_q2_m2.json"), ("solve", "solve_q2_m2.json"),
    ("verify", "verify_q2_m2.json"),
])
def test_tol_herm_reaches_the_sequence_reader(tmp_path, capsys, command, path):
    # --tol herm decides how much asymmetry a sequence read from a file may
    # carry, both ways: 1.4e-6 passes at herm=1e-3, 1.4e-13 fails at 1e-16
    clean = main([command, str(DATA / path)])
    for eps, herm, refused in ((1e-6, [], True), (1e-6, ["herm=1e-3"], False),
                               (1e-13, [], False), (1e-13, ["herm=1e-16"], True)):
        capsys.readouterr()
        obj = json.loads((DATA / path).read_text())
        seq = obj.get("sequence", obj)
        seq["s"][0]["data"][1][0] += eps
        argv = [command, write_json(tmp_path / path, obj)]
        code = main(argv + [f"--tol={h}" for h in herm])
        err = capsys.readouterr().err
        assert ("not Hermitian" in err) is refused, (eps, herm, err)
        assert code == (3 if refused else clean), (eps, herm, code)


def test_schur_matches_library_transform(tmp_path, capsys):
    mats = tuple(np.array([[v]], dtype=complex) for v in (1.0, 1.0, 2.0, 6.0))
    path = sequence_file(tmp_path, 0.0, mats)
    code, out = run_cli(capsys, ["schur", path, "-k", "1"])
    assert code == 0
    seq = first_transform(
        __import__("stieltjesmp.hankel", fromlist=["MomentSequence"])
        .MomentSequence(0.0, mats))
    got = [serialize.matrix_from_json(m) for m in out["sequence"]["s"]]
    for a, b in zip(got, seq.s):
        assert_allclose(a, b, atol=1e-12)


def test_schur_order_out_of_range(tmp_path, capsys):
    mats = tuple(np.array([[v]], dtype=complex) for v in (1.0, 1.0))
    path = sequence_file(tmp_path, 0.0, mats)
    code, _ = run_cli(capsys, ["schur", path, "-k", "5"])
    assert code == 3


def test_schur_trace_lists_every_stage(tmp_path, capsys):
    rng = np.random.default_rng(3)
    _, seq = measure_seq(rng, 2, 3, atoms=4)
    path = sequence_file(tmp_path, seq.alpha, seq.s)
    code, out = run_cli(capsys, ["schur", path, "--trace"])
    assert code == 0
    assert len(out["trace"]["stages"]) == seq.m + 1
    assert len(out["trace"]["diagonal"]) == seq.m + 1


def test_schur_trace_runs_the_algorithm_once(tmp_path, capsys, monkeypatch):
    # stage k is read off one run of the algorithm: m steps, not k + m, and
    # it is the k-th transform, with or without --trace
    rng = np.random.default_rng(4)
    _, seq = measure_seq(rng, 2, 4, atoms=5)
    path = sequence_file(tmp_path, seq.alpha, seq.s)
    with open(path) as fh:
        read = serialize.sequence_from_json(json.load(fh))
    direct = [json.loads(serialize.dumps(serialize.sequence_to_json(
        read.alpha, schur.k_th_transform(read, k).s), 15))
        for k in range(seq.m + 1)]
    steps = []

    def counted(*args, _fn=schur._step, **kwargs):
        steps.append(1)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(schur, "_step", counted)
    for k in range(seq.m + 1):
        for extra in ([], ["--trace"]):
            steps.clear()
            code, out = run_cli(capsys, ["schur", path, "-k", str(k)] + extra)
            assert code == 0
            assert len(steps) == seq.m
            assert out["sequence"] == direct[k]
        assert out["trace"]["stages"][k] == direct[k]["s"]


def test_poly_reports_resolvent_blocks(tmp_path, capsys):
    rng = np.random.default_rng(5)
    _, seq = measure_seq(rng, 2, 2, atoms=3)
    path = sequence_file(tmp_path, seq.alpha, seq.s)
    code, out = run_cli(capsys, ["poly", path])
    assert code == 0
    assert out["q"] == 2 and out["m"] == 2
    for key in ("v", "w"):
        blocks = out[key]
        assert set(blocks) == {"nw", "ne", "sw", "se"}
        corner = serialize.matrix_from_json(blocks["nw"]["coeffs"][0])
        assert corner.shape == (2, 2)


def test_solve_completely_degenerate_has_closed_form(tmp_path, capsys):
    rng = np.random.default_rng(9)
    mu, seq = completely_degenerate_seq(rng, 2, 2)
    zero = serialize.rational_to_json(
        __import__("stieltjesmp.pairs", fromlist=["RationalMatFun"])
        .RationalMatFun.const(np.zeros((2, 2))))
    one = serialize.rational_to_json(
        __import__("stieltjesmp.pairs", fromlist=["RationalMatFun"])
        .RationalMatFun.const(np.eye(2)))
    payload = {
        "sequence": serialize.sequence_to_json(seq.alpha, seq.s),
        "parameter": {"alpha": seq.alpha, "phi": zero, "psi": one},
        "mode": "leq",
    }
    path = write_json(tmp_path / "prob.json", payload)
    code, out = run_cli(capsys, ["solve", path])
    assert code == 0
    assert out["case"] == "CompletelyDegenerate"
    assert out["rank"] == 0
    assert out["verification_report"]["ok"] is True
    fun = serialize.rational_from_json(out["rational_function"])
    # one atom: the unique solution is that atom's transform
    t, w = mu.nodes[0], mu.weights[0]
    for entry in out["samples"]:
        z = complex(entry["z"][0], entry["z"][1])
        got = serialize.matrix_from_json(entry["F"])
        assert_allclose(got, w / (t - z), atol=1e-9)
        assert_allclose(fun(z), w / (t - z), atol=1e-9)


def test_solve_accepts_library_json_of_sequence_and_pair(tmp_path, capsys):
    # a generic alpha, which the sequence and the pair must round alike
    alpha = 0.6100058474907604
    rng = np.random.default_rng(14)
    _, seq = measure_seq(rng, 2, 2, atoms=3, alpha=alpha)
    payload = {"sequence": serialize.sequence_to_json(seq.alpha, seq.s),
               "parameter": serialize.pair_to_json(cauchy_pair(alpha, 2)),
               "mode": "leq"}
    path = write_json(tmp_path / "prob.json", payload)
    code, out = run_cli(capsys, ["solve", path])
    assert code == 0
    assert out["verification_report"]["ok"] is True


def test_solve_rejects_inadmissible_parameter(tmp_path, capsys):
    rng = np.random.default_rng(13)
    _, seq = measure_seq(rng, 2, 1, atoms=2)
    # phi = -I/(z+1) is negative on part of the real axis left of alpha.
    bad_num = [serialize.matrix_to_json(-np.eye(2))]
    payload = {
        "sequence": serialize.sequence_to_json(seq.alpha, seq.s),
        "parameter": {
            "alpha": seq.alpha,
            "phi": {"num": bad_num, "den": [[1.0, 0.0], [1.0, 0.0]]},
            "psi": {"num": [serialize.matrix_to_json(np.eye(2))],
                    "den": [[1.0, 0.0]]},
        },
    }
    path = write_json(tmp_path / "prob.json", payload)
    code, _ = run_cli(capsys, ["solve", path])
    assert code == 3
    # a grid on the half-axis right of alpha checks no admissibility
    # condition; the pair is gated on the default grid whatever --grid is
    code, _ = run_cli(capsys, ["solve", path, "--grid", "3,7"])
    assert code == 3


def test_solve_exits_4_when_every_grid_point_is_a_pole(tmp_path, capsys):
    # the pair's walk of default_grid keeps no point: an inconsistency,
    # not a precondition
    _, seq = measure_seq(np.random.default_rng(15), 2, 2, atoms=3)
    payload = {"sequence": serialize.sequence_to_json(seq.alpha, seq.s),
               "parameter": serialize.pair_to_json(grid_pole_pair(0.0, 2))}
    path = write_json(tmp_path / "prob.json", payload)
    assert main(["solve", path]) == 4
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == ("verification failed: every grid point sits on "
                            "a pole of the pair\n")


def test_verify_refuses_a_function_of_another_size(tmp_path, capsys):
    # the scalar transform of unit atoms at 1 and 2 broadcast against the
    # 2 x 2 moments of the same nodes weighted ones((2, 2)) and verified
    nodes = (1.0, 2.0)
    mu = DiscreteMeasure(0.0, nodes, (np.ones((2, 2)),) * 2)
    scalar = DiscreteMeasure(0.0, nodes, (np.eye(1),) * 2)
    payload = {
        "sequence": serialize.sequence_to_json(0.0, moments(mu, 2).s),
        "function": serialize.rational_to_json(
            measures.stieltjes_transform(scalar)),
        "mode": "eq",
    }
    path = write_json(tmp_path / "sizes.json", payload)
    code, out = run_cli(capsys, ["verify", path])
    assert code == 3 and out is None


def test_verify_accepts_true_solution(tmp_path, capsys):
    s0 = np.diag([1.0, 0.0]).astype(complex)
    s1 = np.ones((2, 2), dtype=complex)
    fun = {"num": [serialize.matrix_to_json(-s0)],
           "den": [[0.0, 0.0], [1.0, 0.0]]}
    payload = {
        "sequence": serialize.sequence_to_json(0.0, (s0, s1)),
        "function": fun,
        "mode": "leq",
    }
    path = write_json(tmp_path / "ok.json", payload)
    code, out = run_cli(capsys, ["verify", path])
    assert code == 0
    assert out["ok"] is True


def test_verify_flags_moment_mismatch(tmp_path, capsys):
    # s0/(1-z) reproduces s0 as every moment, which overshoots s1 here.
    s0 = np.diag([1.0, 0.0]).astype(complex)
    s1 = np.ones((2, 2), dtype=complex)
    fun = {"num": [serialize.matrix_to_json(s0)],
           "den": [[1.0, 0.0], [-1.0, 0.0]]}
    payload = {
        "sequence": serialize.sequence_to_json(0.0, (s0, s1)),
        "function": fun,
    }
    path = write_json(tmp_path / "bad.json", payload)
    code, out = run_cli(capsys, ["verify", path])
    assert code == 4
    assert out["ok"] is False
    defect = serialize.matrix_from_json(out["top_defect"])
    assert_allclose(defect, np.array([[0.0, 1.0], [1.0, 1.0]]), atol=1e-4)


def test_verify_reads_decay_from_degrees(tmp_path, capsys):
    # the transform of weight I at 0.5 and 100 I at 5e4 verifies, and the
    # removed --ladder heights are a usage error
    mu = DiscreteMeasure(0.0, (0.5, 5e4), (np.eye(2), 100 * np.eye(2)))
    payload = {
        "sequence": serialize.sequence_to_json(mu.alpha, moments(mu, 1).s),
        "function": serialize.rational_to_json(
            measures.stieltjes_transform(mu)),
        "mode": "eq",
    }
    path = write_json(tmp_path / "far.json", payload)
    code, out = run_cli(capsys, ["verify", path])
    assert code == 0
    assert out["ok"] is True
    code, _ = run_cli(capsys, ["verify", path, "--ladder", "1,2"])
    assert code == 2


def test_oracle_output_is_byte_identical(tmp_path, capsys):
    path = write_json(tmp_path / "spec.json", {"q": 2, "m": 2, "seed": 7})
    assert main(["oracle", path]) == 0
    first = capsys.readouterr().out
    assert main(["oracle", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    out = json.loads(first)
    assert out["classification"]["Kgge_candidate"] == "yes"
    assert len(out["sequence"]["s"]) == 3


def test_oracle_accepts_explicit_measure(tmp_path, capsys):
    w0, w1 = np.eye(2), np.array([[2.0, 1.0], [1.0, 1.0]])
    spec = serialize.measure_to_json(0.0, (1.0, 3.0), (w0, w1))
    path = write_json(tmp_path / "measure.json", spec)
    code, out = run_cli(capsys, ["oracle", path])
    assert code == 0
    mu = DiscreteMeasure(0.0, (1.0, 3.0), (w0 + 0j, w1 + 0j))
    seq = moments(mu, 2)
    got = [serialize.matrix_from_json(m) for m in out["sequence"]["s"]]
    for a, b in zip(got, seq.s):
        assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("eps, field", [(1.4e-6, "herm"), (-1e-7, "psd")])
def test_tol_reaches_the_measure_reader(tmp_path, capsys, eps, field):
    # --tol herm and --tol psd decide how much asymmetry, and how negative
    # an eigenvalue, a measure's weight read from a file may carry, as they
    # do for a sequence's moments
    w1 = np.array([[2.0, 1.0], [1.0, 1.0]])
    if field == "herm":
        w1[1, 0] += eps
    else:
        w1 = np.diag([1.0, eps])
    spec = serialize.measure_to_json(0.0, (1.0, 3.0), (np.eye(2), w1))
    path = write_json(tmp_path / "measure.json", spec)
    assert main(["oracle", path]) == 3
    assert ("not Hermitian" if field == "herm" else "positive semidefinite") \
        in capsys.readouterr().err
    assert main(["oracle", path, "--tol", f"{field}=1e-3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["measure"]["atoms"]) == 2


def test_oracle_refuses_a_measure_its_power_basis_cannot_hold(tmp_path,
                                                             capsys):
    # the transform of 24 atoms needs a denominator whose leading
    # coefficients fall under the trim floor: a verification failure, not
    # a printed function that misses the sum
    path = write_json(tmp_path / "spec.json", {"q": 1, "atoms": 24, "seed": 1})
    assert main(["oracle", path]) == 4
    out, err = capsys.readouterr()
    assert not out and "denominator over 24 nodes" in err


def test_grid_override_controls_sample_points(tmp_path, capsys):
    rng = np.random.default_rng(9)
    _, seq = completely_degenerate_seq(rng, 1, 2)
    zero = {"num": [serialize.matrix_to_json(np.zeros((1, 1)))],
            "den": [[1.0, 0.0]]}
    one = {"num": [serialize.matrix_to_json(np.eye(1))], "den": [[1.0, 0.0]]}
    payload = {
        "sequence": serialize.sequence_to_json(seq.alpha, seq.s),
        "parameter": {"alpha": seq.alpha, "phi": zero, "psi": one},
    }
    path = write_json(tmp_path / "prob.json", payload)
    code, out = run_cli(capsys, ["solve", path, "--grid", "1+2i,-3+0.5i"])
    assert code == 0
    zs = [complex(e["z"][0], e["z"][1]) for e in out["samples"]]
    assert zs == [1 + 2j, -3 + 0.5j]

    code, _ = run_cli(capsys, ["solve", path, "--grid", " , "])
    assert code == 2


def test_a_grid_point_at_a_pole_of_the_solution_is_dropped(tmp_path,
                                                           capsys):
    # --grid names sample points alone: at m = 0 the solution is
    # -s_0 / (z - alpha), and its pole alpha is dropped from the samples as
    # oracle drops it, while solve's gate on D reads default_grid
    eye = serialize.matrix_to_json(np.eye(2))
    zero = serialize.matrix_to_json(np.zeros((2, 2)))
    payload = {
        "sequence": serialize.sequence_to_json(0.5, (np.diag([2.0, 1.0]),)),
        "parameter": {"alpha": 0.5,
                      "phi": {"num": [zero], "den": [[1.0, 0.0]]},
                      "psi": {"num": [eye], "den": [[1.0, 0.0]]}},
    }
    path = write_json(tmp_path / "prob.json", payload)
    code, out = run_cli(capsys, ["solve", path, "--grid", "0.5,0.5+1i"])
    assert code == 0 and out["verification_report"]["ok"] is True
    assert [e["z"] for e in out["samples"]] == [[0.5, 1.0]]
    # each solve fixture at its own alpha: every descent factor makes
    # D(alpha) = 0, and the samples are the walk's of the printed function
    for name in ("solve_q1_m2", "solve_q2_m2", "solve_deg_q2_m5"):
        obj = json.loads((DATA / f"{name}.json").read_text())
        seq = serialize.sequence_from_json(obj["sequence"])
        pair = serialize.pair_from_json(obj["parameter"])
        sol = solve(SolutionRequest(seq, pair, obj.get("mode", "leq")))
        code, out = run_cli(capsys, ["solve", str(DATA / f"{name}.json"),
                                     "--grid", repr(seq.alpha)])
        assert code == 0 and out["verification_report"]["ok"] is True
        zs, (values,) = pairs.grid_values((sol,), (seq.alpha,))
        assert out["samples"] == json.loads(serialize.dumps(
            serialize.samples_to_json(zs, values), 15))


@pytest.mark.parametrize("grid", ["nan", "1+nanj", "0.5,nan", "inf",
                                  "1+infj", "1-infi", "1e400"])
def test_non_finite_grid_points_are_a_usage_error(capsys, grid):
    # a NaN point is no pole of the pair, so it must not reach the solver
    # (exit 4) or be printed as a sample (exit 0)
    for argv in (["solve", str(DATA / "solve_q1_m2.json")],
                 ["oracle", str(DATA / "measure_q2_m2.json")]):
        assert main(argv + ["--grid", grid]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "--grid points must be finite" in captured.err


@pytest.mark.parametrize("command, path, tol", [
    ("classify", "seq_q2_m2.json", "psd=nan"),
    ("verify", "verify_q1_m2.json", "extraction=inf"),
    ("verify", "verify_q1_m2.json", "psd=-inf"),
])
def test_non_finite_tolerances_are_refused(capsys, command, path, tol):
    # NaN passes a "<= 0" test and turns every comparison false; an
    # infinite extraction tolerance accepts any moments
    assert main([command, str(DATA / path), "--tol", tol]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert "must be positive and finite" in captured.err


def test_overflowing_parameter_is_a_precondition_violation(tmp_path, capsys):
    # phi = 1e-3 + 1e10 z^301 overflows on the outer ring of the default
    # grid; the admissibility check used to hand numpy's SVD the infinite
    # values and exit 2 with "bad input: SVD did not converge"
    obj = json.loads((DATA / "solve_q1_m2.json").read_text())
    coeffs = np.zeros((302, 1, 1))
    coeffs[0], coeffs[301] = 1e-3, 1e10
    obj["parameter"]["phi"] = serialize.rational_to_json(
        RationalMatFun(MatrixPolynomial(coeffs)))
    path = write_json(tmp_path / "overflow.json", obj)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", path])
    assert code == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("precondition violated: a function value "
                                   "at grid point (5")
    assert captured.err.rstrip().endswith("is not finite")


def test_solve_refuses_parameters_with_a_negative_atom(tmp_path, capsys):
    # each pair passes verify_pair's grid; its atoms refuse it (exit 3)
    for eps, x in NEGATIVE_ATOMS:
        seq, pair = negative_atom_problem(eps, x)
        payload = {"sequence": serialize.sequence_to_json(seq.alpha, seq.s),
                   "parameter": serialize.pair_to_json(pair)}
        path = write_json(tmp_path / "prob.json", payload)
        assert main(["solve", path]) == 3, (eps, x)
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith(
            "precondition violated: parameter pair is not admissible: its "
            f"residue at {x:g} has PSD margin -"), (eps, x)


@pytest.mark.parametrize("component, mode, stage", [
    ("phi", "leq", "synthesis"), ("phi", "eq", "synthesis"),
    ("psi", "leq", "synthesis"), ("psi", "eq", "synthesis")])
def test_parameter_whose_determinant_overflows_is_a_precondition(
        tmp_path, capsys, component, mode, stage):
    # every numerator entry times 1e200: the determinant's size bound used
    # to raise OverflowError (exit 1, a traceback) after numpy warned
    # "overflow encountered in det"; the pair has atoms, so eq mode meets
    # the synthesis gate, not the decay test
    obj = json.loads((DATA / "solve_q2_m2.json").read_text())
    for mat in obj["parameter"][component]["num"]:
        mat["data"] = [[1e200 * x for x in entry] for entry in mat["data"]]
    path = write_json(tmp_path / "big.json", obj)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", path, "--mode", mode])
    assert code == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (f"precondition violated: determinant of the "
                            f"{stage} denominator leaves the float range\n")


@pytest.mark.parametrize("grid, point", [
    ("1e160", "(1e+160+0j)"), ("1e200i", "1e+200j"), ("1e300", "(1e+300+0j)"),
    ("0.5,1e300", "(1e+300+0j)")])
def test_grid_point_where_the_denominator_overflows_is_a_precondition(
        capsys, grid, point):
    # finite points where the size bound |d|(|z|) of the printed function's
    # denominator leaves the float range, so the pole rule cannot decide:
    # both subcommands that print samples refuse the point by name
    for argv in (["solve", str(DATA / "solve_q2_m2.json")],
                 ["oracle", str(DATA / "measure_q2_m2.json")]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--grid", grid])
        assert code == 3
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == ("precondition violated: a denominator's size "
                                f"bound at grid point {point} leaves the "
                                "float range\n")


@pytest.mark.parametrize("x", [1e200, float("inf")])
def test_far_or_infinite_atom_is_bad_input(tmp_path, capsys, x):
    # x ** 2 overflows a float at 1e200, and an infinite node used to reach
    # numpy and warn before the message
    spec = json.loads((DATA / "measure_q2_m2.json").read_text())
    spec["atoms"][0]["x"] = x
    path = tmp_path / "far.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["oracle", str(path)]) == 2
    captured = capsys.readouterr()
    assert not caught and not captured.out
    assert captured.err.startswith("bad input: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command, obj, entry", [
    ("oracle", {"q": 1, "m": 1, "alpha": 1e308}, "moment s_1"),
    ("classify", serialize.sequence_to_json(1e200, [np.array([[1e300]])] * 3),
     "shifted moment -alpha*s_0 + s_1"),
], ids=["hermitized", "shifted"])
def test_overflowing_moment_is_bad_input(tmp_path, capsys, command, obj,
                                         entry):
    # finite input whose s + s* or -alpha*s_j + s_{j+1} leaves the float
    # range: numpy used to warn and a later stage named the non-finite value
    path = write_json(tmp_path / "big.json", obj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert not caught and not captured.out
    assert captured.err == f"bad input: {entry} overflows the float range\n"


@pytest.mark.parametrize("command", ["classify", "poly"])
def test_moments_near_the_float_range_print_no_warning(tmp_path, capsys,
                                                       command):
    # s_0 = s_1 = s_2 = 1e300 at alpha 0: the zero-stage and dominance norms
    # overflowed and numpy warned on stderr before the report
    path = sequence_file(tmp_path, 0.0, [np.array([[1e300]])] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, path]) == 0
    captured = capsys.readouterr()
    assert not captured.err
    out = json.loads(captured.out)
    assert out["q"] == 1 and out["m"] == 2
    if command == "classify":
        assert out["rank_top"] == 0 and out["Kgge_candidate"] == "yes"


def test_asymmetry_beyond_the_norm_range_is_a_precondition(tmp_path, capsys):
    # the norm of this asymmetric moment overflows a float, which once let
    # it through hermitize; it is refused as any other asymmetric one
    big = np.array([[1e200, 1e200], [0.0, 1e200]])
    path = sequence_file(tmp_path, 0.0, (big, np.eye(2)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["classify", path]) == 3
    captured = capsys.readouterr()
    assert not caught and not captured.out
    assert captured.err.startswith("precondition violated: matrix is not "
                                   "Hermitian: asymmetry 1.414e+200")


@pytest.mark.parametrize("command", ["classify", "schur", "poly"])
def test_a_step_beyond_the_float_range_is_a_precondition(tmp_path, capsys,
                                                         command):
    # alpha = 1e300 overflows the first step's reciprocal: numpy warned
    # twice and the CLI exited 2 with a message that named no step
    obj = json.loads((DATA / "seq_q2_m2.json").read_text())
    obj["alpha"] = 1e300
    path = write_json(tmp_path / "far.json", obj)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, path]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == ("precondition violated: α-S step 1 (stage 0 → 1) "
                            "leaves the float range\n")


@pytest.mark.parametrize("command, path", [
    ("classify", "seq_q2_m2.json"),
    ("oracle", "measure_q2_m2.json"),
])
def test_non_finite_alpha_is_bad_input(tmp_path, capsys, command, path):
    # the endpoint is named, not a later stage's non-finite matrix
    obj = json.loads((DATA / path).read_text())
    obj["alpha"] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "bad input: alpha must be finite\n"


def test_non_finite_parameter_alpha_is_bad_input(tmp_path, capsys):
    # refused where the pair is built, not as endpoints that differ (exit 3)
    obj = json.loads((DATA / "solve_q1_m2.json").read_text())
    obj["parameter"]["alpha"] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["solve", str(bad)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "bad input: alpha must be finite\n"


@pytest.mark.parametrize("spec", [{"q": 2, "atoms": 0}, {"q": 0, "m": 1},
                                  {"alpha": 0, "atoms": []}],
                         ids=["random", "random-q0", "explicit"])
def test_empty_measure_file_is_bad_input(tmp_path, capsys, spec):
    # q cannot be read off no atoms, and the oracle must not print q = 0
    path = write_json(tmp_path / "empty.json", spec)
    assert main(["oracle", path]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("bad input: a ")
    assert "measure needs" in captured.err


@pytest.mark.parametrize("den", [[], [[float("nan"), 0.0]]],
                         ids=["empty", "nan"])
@pytest.mark.parametrize("command, path, keys", [
    ("verify", "verify_q1_m2.json", ("function",)),
    ("solve", "solve_q1_m2.json", ("parameter", "psi")),
], ids=["verify", "solve"])
def test_malformed_denominator_is_bad_input(tmp_path, capsys, command, path,
                                            keys, den):
    obj = json.loads((DATA / path).read_text())
    fun = obj
    for key in keys:
        fun = fun[key]
    fun["den"] = den
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert not caught and not captured.out
    assert captured.err.startswith("bad input: denominator ")
    assert captured.err.count("\n") == 1


def _set_entry(obj, keys, value):
    """obj with the item at the path ``keys`` replaced by ``value``."""
    *head, last = keys
    for key in head:
        obj = obj[key]
    obj[last] = value


@pytest.mark.parametrize("command, path, keys, value", [
    ("classify", "seq_q2_m2.json", ("s", 0, "data", 1), [1.0]),
    ("classify", "seq_q2_m2.json", ("s", 0, "data", 1), []),
    ("classify", "seq_q2_m2.json", ("s", 0), {"rows": 1, "cols": 2,
                                               "data": "ab"}),
    ("verify", "verify_q1_m2.json", ("function", "den", 1), [1.0]),
    ("oracle", "measure_q2_m2.json", ("atoms", 0, "w", "data", 0), [1.0]),
    ("oracle", "measure_q2_m2.json", (), [1.0]),
    ("oracle", "measure_q2_m2.json", (), "ab"),
], ids=["short-entry", "empty-entry", "string-data", "short-den",
        "short-weight", "array", "string"])
def test_malformed_entries_and_top_level_values_are_bad_input(
        tmp_path, capsys, command, path, keys, value):
    # each used to end in an IndexError or AttributeError traceback (exit 1)
    obj = json.loads((DATA / path).read_text())
    if keys:
        _set_entry(obj, keys, value)
    else:
        obj = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("bad input: ")
    assert captured.err.count("\n") == 1


def test_solve_takes_the_general_path_end_to_end(tmp_path, capsys):
    # psi = diag(1, 0) is singular, so the pair has no atoms: lft_rational
    # synthesizes the solution after solve's gate on D on default_grid.
    # --grid only samples: alpha, where every descent factor makes D
    # vanish, is a sample point like any other
    alpha = 0.3
    _, seq = measure_seq(np.random.default_rng(0), 2, 2, alpha=alpha)
    eye = RationalMatFun.const(np.eye(2))
    payload = {"sequence": serialize.sequence_to_json(seq.alpha, seq.s),
               "parameter": {"alpha": alpha,
                             "phi": serialize.rational_to_json(eye),
                             "psi": serialize.rational_to_json(
                                 RationalMatFun.const(np.diag([1.0, 0.0])))},
               "mode": "leq"}
    path = write_json(tmp_path / "prob.json", payload)
    code, out = run_cli(capsys, ["solve", path])
    assert code == 0
    assert out["verification_report"]["ok"] is True
    written = json.loads(Path(path).read_text(encoding="utf-8"))
    sol = solve(SolutionRequest(
        serialize.sequence_from_json(written["sequence"]),
        serialize.pair_from_json(written["parameter"])))
    code, sampled = run_cli(capsys, ["solve", path, "--grid", "1+1i,0.3"])
    assert code == 0
    assert sampled["rational_function"] == out["rational_function"]
    zs, (values,) = pairs.grid_values((sol,), (1 + 1j, alpha))
    assert sampled["samples"] == json.loads(serialize.dumps(
        serialize.samples_to_json(zs, values), 15))


DATA = Path(__file__).resolve().parent / "data"

# golden stdout name -> (subcommand, input file, flags); seq_q2_m2.json is
# the sequence of solve_q2_m2.json, and measure_q2_m2.json lists its atoms
# explicitly, so no seeded generator is involved
GOLDEN = {
    **{f"{command}_{case}": (command, f"{command}_{case}.json")
       for command in ("solve", "verify") for case in ("q1_m2", "q2_m2")},
    "classify_q2_m2": ("classify", "seq_q2_m2.json"),
    "oracle_q2_m2": ("oracle", "measure_q2_m2.json"),
    "poly_q2_m2": ("poly", "seq_q2_m2.json"),
    "schur_k1_q2_m2": ("schur", "seq_q2_m2.json", "-k", "1", "--trace"),
    # one atom, W = [[2, 1-i], [1+i, 3]] at 2.5 with alpha = 0.5, q = 2,
    # m = 5, and the pair (O, I): the trace is zero from stage 2 on
    "classify_deg_q2_m5": ("classify", "seq_deg_q2_m5.json"),
    "poly_deg_q2_m5": ("poly", "seq_deg_q2_m5.json"),
    "schur_k3_deg_q2_m5": ("schur", "seq_deg_q2_m5.json", "-k", "3",
                           "--trace"),
    "solve_deg_q2_m5": ("solve", "solve_deg_q2_m5.json"),
}


def golden_argv(name):
    command, path, *flags = GOLDEN[name]
    return [command, str(DATA / path), *flags]


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("case", ["q1_m2", "q2_m2"])
def test_output_matches_golden_bytes(capsys, command, case):
    # inputs: exact moments s_0..s_2 of small discrete measures, with a
    # Cauchy parameter for solve and the measure's own transform for
    # verify; test_goldens_hold_at_one_and_two_blas_threads checks that
    # the expected stdout does not depend on the BLAS thread count
    assert main(golden_argv(f"{command}_{case}")) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (DATA / f"{command}_{case}.out").read_bytes()


@pytest.mark.parametrize("name", ["poly_q2_m2", "schur_k1_q2_m2"])
def test_resolvent_and_trace_output_matches_golden_bytes(capsys, name):
    # the resolvent blocks print every matrix polynomial coefficient, and
    # the trace every stage of the algorithm, of the q=2, m=2 sequence
    assert main(golden_argv(name)) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (DATA / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", ["classify_q2_m2", "oracle_q2_m2"])
def test_classify_and_oracle_output_matches_golden_bytes(capsys, name):
    # the report of the q=2, m=2 sequence, and the oracle's measure,
    # moments, report, transform and samples of an explicit measure
    assert main(golden_argv(name)) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (DATA / f"{name}.out").read_bytes()


_KEYS = st.text(st.sampled_from('ab"\\/\x00\x1f\n\t\x7f\u00e9\u2028\U0001d11e'),
                max_size=4)
_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 2.5e-310, 1e308, -1e308, math.nan, math.inf,
     -math.inf])
_SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
            | _FLOATS | _FLOATS.map(np.float64) | _KEYS)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_PAYLOADS)
def test_dumps_writes_the_text_of_json_dumps(payload):
    # 17 significant digits reproduce every double, so dumps rounds none
    assert serialize.dumps(payload, 17) == json.dumps(payload, sort_keys=True,
                                                      indent=2)


@pytest.mark.parametrize("value", [1j, np.zeros(2), [{"a": np.float32(1)}]],
                         ids=["complex", "ndarray", "float32"])
def test_dumps_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        serialize.dumps(value, 17)


def test_dumps_refuses_a_key_that_is_not_a_str():
    # json would write the key 1 as "1", but no layout has such a key
    with pytest.raises(TypeError):
        serialize.dumps({"a": {1: 0.0}}, 17)


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.out")))
def test_dumps_rewrites_each_golden_from_its_payload(name):
    # pins the writer apart from the numerics that made the payload
    text = (DATA / f"{name}.out").read_bytes().decode("utf-8")
    assert serialize.dumps(json.loads(text), 17) + "\n" == text


@pytest.mark.parametrize("threads", ["1", "2"])
def test_goldens_hold_at_one_and_two_blas_threads(tmp_path, threads):
    # BLAS fixes its thread count when it loads, so each count needs a
    # fresh interpreter; PYTHONPATH leads with the package this test
    # imported, so the child runs this code and not an installed copy.
    src = str(Path(stieltjesmp.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = (
        "import contextlib, io, json, pathlib, sys\n"
        "from stieltjesmp.cli import main\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    assert code == 0, (name, code)\n"
        "    pathlib.Path(sys.argv[2], name + '.out').write_bytes(\n"
        "        out.getvalue().encode('utf-8'))\n")
    argvs = {name: golden_argv(name) for name in GOLDEN}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs), str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for name in GOLDEN:
        assert ((tmp_path / f"{name}.out").read_bytes()
                == (DATA / f"{name}.out").read_bytes()), name


def _floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _floats(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _floats(v)


def test_digits_flag_rounds_output(tmp_path, capsys):
    # every float printed, matrices included, has at most three digits
    spec = write_json(tmp_path / "spec.json", {"q": 1, "m": 1, "seed": 3})
    for argv in (["oracle", spec], ["oracle", str(DATA / "measure_q2_m2.json")],
                 ["solve", str(DATA / "solve_q2_m2.json")]):
        code, out = run_cli(capsys, argv + ["--digits", "3"])
        assert code == 0
        floats = list(_floats(out))
        long = [x for x in floats if x != float(f"{x:.2e}")]
        assert floats and not long, (argv, long[:5])


def test_digits_flag_rounds_each_float_once(tmp_path, capsys):
    # 0.12344999999999999 is 0.1234 at four digits; rounding it at 15
    # digits first (0.12345) and then at four would print 0.1235
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"alpha": 0.0, "q": 1, "s": [
        {"rows": 1, "cols": 1, "data": [[0.12344999999999999, 0.0]]}]}),
        encoding="utf-8")
    code, out = run_cli(capsys, ["schur", str(path), "-k", "0", "--digits", "4"])
    assert code == 0
    assert out["sequence"]["s"][0]["data"] == [[0.1234, 0.0]]


@pytest.mark.parametrize("digits", [[], ["--digits", "3"]])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_each_printed_float_is_rounded_once(capsys, name, digits):
    # dumps rounds every float as it writes it, and nothing rounds it
    # before or again: one sig call per float of the six subcommands'
    # output, counted on sig's code object so that every name bound to it
    # counts
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is serialize.sig.__code__:
            calls.append(1)

    sys.setprofile(profile)
    try:
        code, out = run_cli(capsys, golden_argv(name) + digits)
    finally:
        sys.setprofile(None)
    assert code == 0
    assert len(calls) == len(list(_floats(out)))


def test_consecutive_calls_keep_no_state(capsys):
    # options, a usage error and --help leave nothing behind for the
    # next main call in the same process
    path = str(DATA / "solve_q2_m2.json")
    assert main(["solve", path, "--digits", "4", "--tol", "psd=1e-8",
                 "--grid", "0.5,2"]) == 0
    assert main(["solve", path, "--digits"]) == 2
    assert main(["solve", "--help"]) == 0
    capsys.readouterr()
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (DATA / "solve_q2_m2.out").read_bytes()


def test_interleaved_calls_keep_no_state(capsys):
    # the parsers are shared by every call in the process: options, usage
    # errors and help printed between the golden calls change none of
    # their bytes, and each other call prints the same whichever calls
    # came before it
    solve = str(DATA / "solve_q2_m2.json")
    others = [
        ["solve", solve, "--tol", "psd=1e-8"],
        ["solve", solve, "--digits", "3"],
        ["solve", solve, "--grid", "1i"],
        ["solve", solve, "--mode", "eq"],
        ["schur", SEQ, "-k", "2", "--trace"],
        ["classify", SEQ, "--tol", "bogus=1"],
        ["verify", str(DATA / "verify_q2_m2.json"), "--bogus"],
        ["poly", "-h"],
        ["-h"],
    ]
    names = sorted(GOLDEN)
    seen = {}
    for order in (1, -1):
        for name, argv in zip(names[::order], (others * 2)[::order]):
            assert _call(capsys, golden_argv(name)) == (
                (DATA / f"{name}.out").read_text(encoding="utf-8"), "", 0)
            result = _call(capsys, argv)
            assert seen.setdefault(tuple(argv), result) == result, argv
    assert {code for _, _, code in seen.values()} == {0, 2}


def test_each_parser_is_built_once():
    assert build_parser("solve") is build_parser("solve")
    assert build_parser("nonsense") is build_parser(None)
    assert build_parser(None) is not build_parser("solve")


def test_typos_build_no_parser_of_their_own(capsys):
    # a first argument that names no subcommand is served by the full
    # parser, so a long-lived process holds at most seven parsers
    for i in range(50):
        assert main([f"bogus{i}", SEQ]) == 2
    capsys.readouterr()
    assert cli._parser.cache_info().currsize <= len(cli._COMMANDS) + 1


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_each_call_builds_only_its_subcommand_parser(capsys, monkeypatch,
                                                     name):
    # a cold call builds the root parser and the one subparser the call
    # names, not all six, and a second call builds none
    built = []

    def counted(self, *args, _init=argparse.ArgumentParser.__init__,
                **kwargs):
        built.append(kwargs.get("prog"))
        _init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(golden_argv(name)) == 0
    assert len(built) == 2, built
    assert main(golden_argv(name)) == 0
    capsys.readouterr()
    assert len(built) == 2, built


SEQ = str(DATA / "seq_q2_m2.json")
SUBCOMMANDS = ("classify", "schur", "poly", "solve", "verify", "oracle")
# argv -> the last line it prints to stderr, where it is pinned
PARSE_CASES = {
    "missing-path": (["classify"], None),
    "extra-positional": (["classify", SEQ, "extra"], None),
    "unknown-option": (["classify", SEQ, "--bogus"], None),
    "bad-mode": (["solve", str(DATA / "solve_q1_m2.json"), "--mode", "xx"],
                 None),
    "bad-k": (["schur", SEQ, "-k", "x"], None),
    **{f"{command}-help": ([command, "-h"], None) for command in SUBCOMMANDS},
    "no-arguments": ([], "stieltjesmp: error: the following arguments are "
                         "required: command"),
    "help": (["-h"], None),
    "unknown-subcommand": (["bogus"], "stieltjesmp: error: argument command: "
                                      "invalid choice: 'bogus' (choose from "
                                      "'classify', 'schur', 'poly', 'solve', "
                                      "'verify', 'oracle')"),
}


@pytest.mark.parametrize("argv", [
    ["classify", SEQ, "--grid", "1"],
    ["schur", SEQ, "--grid", "1"],
    ["poly", SEQ, "--grid", "1"],
    ["verify", str(DATA / "verify_q1_m2.json"), "--grid", "1"],
    ["oracle", str(DATA / "measure_q2_m2.json"), "--seed", "5"],
], ids=lambda argv: argv[0])
def test_options_a_subcommand_would_ignore_are_usage_errors(capsys, argv):
    # only solve and oracle read a grid, and the oracle's seed is the
    # spec's "seed" key
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.splitlines()[-1] == ("stieltjesmp: error: unrecognized "
                                    "arguments: " + " ".join(argv[2:]))


@pytest.mark.parametrize("case", list(PARSE_CASES))
def test_usage_errors_and_help_match_the_full_parser(capsys, monkeypatch,
                                                     case):
    # building one subparser, and keeping it, changes no help text, usage
    # line or message: the shared parser, built at one width and printed
    # at another, prints what a fresh full parser prints
    argv, last_err = PARSE_CASES[case]
    cli._parser.cache_clear()
    printed = {}
    for columns in ("80", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        printed[columns] = _call(capsys, argv)
        with pytest.raises(SystemExit) as exc:
            cli._parser.__wrapped__(None).parse_args(argv)
        out, err = capsys.readouterr()
        assert printed[columns] == (out, err, exc.value.code)
    err = printed["80"][1]
    if last_err is not None:
        assert err.splitlines()[-1] == last_err
    if case == "extra-positional":
        assert err.splitlines()[0] == ("usage: stieltjesmp [-h] "
                                       "{classify,schur,poly,solve,verify,"
                                       "oracle} ...")


def test_console_script_runs(tmp_path):
    # Build the wrapper an installer would make from this checkout's
    # [project.scripts] entry, so no installed copy is needed or used.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    ep = EntryPoint(name="stieltjesmp", value=scripts["stieltjesmp"],
                    group="console_scripts")
    assert ep.load() is main
    exe = tmp_path / ep.name
    exe.write_text(f"#!{sys.executable}\n"
                   "import sys\n"
                   f"from {ep.module} import {ep.attr}\n"
                   "if __name__ == '__main__':\n"
                   f"    sys.exit({ep.attr}())\n", encoding="utf-8")
    exe.chmod(0o755)
    # Lead PYTHONPATH with the package this test imported, so the script
    # runs this code and not some other installed copy.
    src = str(Path(stieltjesmp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    path = corner_sequence(tmp_path)
    proc = subprocess.run([str(exe), "classify", path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rank_top"] == 1, proc.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    proc = subprocess.run([str(exe), "classify", str(bad)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr


@pytest.mark.parametrize("obj", [
    {"rows": 2, "cols": 2, "data": [[1.0, 0.0]] * 3},
    {"rows": 1, "cols": 2, "data": []}], ids=["long", "empty"])
def test_matrix_data_must_fill_its_shape(obj):
    with pytest.raises(ValueError,
                       match="matrix data length does not match rows\\*cols"):
        serialize.matrix_from_json(obj)


@pytest.mark.parametrize("digits", ["0", "-2"])
def test_digits_below_one_is_a_precondition(capsys, digits):
    code = main(["solve", str(DATA / "solve_q1_m2.json"), "--digits", digits])
    assert code == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "precondition violated: digits must be at least 1\n"


@pytest.mark.parametrize("digits", [2 ** 31, 10 ** 30])
def test_digits_beyond_a_c_int_is_a_precondition(tmp_path, capsys, digits):
    # refused before the file is opened: a missing file would exit 2
    code = main(["solve", str(tmp_path / "nope.json"), "--digits",
                 str(digits)])
    assert code == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == ("precondition violated: digits must be at most "
                            "2147483647\n")


def test_the_largest_digits_prints_every_double_as_it_is(capsys):
    # beyond 17 digits every double is written as it is
    argv = ["solve", str(DATA / "solve_q1_m2.json"), "--digits"]
    assert (_call(capsys, argv + ["17"])
            == _call(capsys, argv + [str(2 ** 31 - 1)]))
