import dataclasses
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structured_iep import DegenerateDenominator, NonRealSpectrum, SolverControls, cli, problems, solver
from structured_iep.problems import load_problem, spec_to_config

from conftest import (
    LINKED4_D_DIAG,
    LINKED4_K_DIAG,
    PATH4_D_DIAG,
    PATH4_K_DIAG,
    TARGETS,
    count_calls,
)
from test_corpus import load_workloads
from test_same_answers import load_script

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
PATH4 = str(PROBLEMS / "path4.json")
LINKED4 = str(PROBLEMS / "linked4.json")


def run(capsys, argv):
    """Invoke the CLI in process and return (exit code, stdout, stderr)."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path4_doc(**patch):
    doc = {
        "n": 4,
        "k": 2,
        "proper_values": list(TARGETS),
        "leading": [1.0, 1.0, 1.0, 1.0],
        "graphs": [
            {"edges": [[1, 2], [2, 3], [3, 4]]},
            {"edges": [[1, 2], [2, 3], [3, 4]]},
        ],
        "epsilon": 0.5,
    }
    doc.update(patch)
    return doc


# the complex pair of test_solver.py as a problem file
COMPLEX_PAIR_DOC = {
    "n": 2, "k": 2,
    "proper_values": [-1.0, -2.0, -3.0, -4.0],
    "leading": [1.0, 1.0],
    "graphs": [{"edges": [[1, 2]]}, {"edges": [[1, 2]]}],
    "epsilon": 500.0,
    "controls": {"max_iter": 10},
}
# a 2x2 quadratic whose spectrum is non-real already at tau = 1/64
NONREAL_DOC = {
    "n": 2, "k": 2,
    "proper_values": [-1.0, -5.0, -1.0001, 3.0],
    "leading": [1.0, 1.0],
    "graphs": [{"edges": [[1, 2]]}, {"edges": []}],
    "epsilon": 0.5,
}


def strict_json(text):
    """Parse text as JSON that has no NaN or Infinity."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=reject)


class TestSeed:
    def test_reference_seed_matrices(self, capsys):
        code, out, _ = run(capsys, ["--quiet", "seed", PATH4])
        assert code == 0
        doc = json.loads(out)
        assert np.array_equal(np.array(doc["coefficients"][0]), np.diag([8.0, 48, 120, 224]))
        assert np.array_equal(np.array(doc["coefficients"][1]), np.diag([6.0, 14, 22, 30]))
        assert np.array_equal(np.array(doc["coefficients"][2]), np.eye(4))

    def test_seed_spectrum_hits_targets(self, capsys):
        code, out, _ = run(capsys, ["--quiet", "seed", PATH4])
        doc = json.loads(out)
        assert np.allclose(doc["spectrum"], np.sort(TARGETS), atol=1e-10)

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "seed.json"
        code, _, _ = run(capsys, ["--quiet", "seed", PATH4, "--out", str(dest)])
        assert code == 0
        doc = json.loads(dest.read_text())
        assert doc["n"] == 4 and doc["k"] == 2


class TestSolve:
    def test_path4_matches_published_solution(self, capsys):
        code, out, _ = run(capsys, ["--quiet", "solve", PATH4])
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] and doc["structure_ok"] and doc["leading_ok"]
        K = np.array(doc["coefficients"][0])
        D = np.array(doc["coefficients"][1])
        assert np.max(np.abs(np.diag(K) - PATH4_K_DIAG)) <= 1e-9
        assert np.max(np.abs(np.diag(D) - PATH4_D_DIAG)) <= 1e-9

    def test_linked4_matches_published_solution(self, capsys):
        code, out, _ = run(capsys, ["--quiet", "solve", LINKED4])
        assert code == 0
        doc = json.loads(out)
        assert np.max(np.abs(np.diag(doc["coefficients"][0]) - LINKED4_K_DIAG)) <= 1e-9
        assert np.max(np.abs(np.diag(doc["coefficients"][1]) - LINKED4_D_DIAG)) <= 1e-9

    def test_zero_epsilon_echoes_seed(self, capsys, tmp_path):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(path4_doc(epsilon=0.0)))
        code, out, _ = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["iterations"]) == 1
        assert np.array_equal(np.array(doc["coefficients"][1]), np.diag([6.0, 14, 22, 30]))

    def test_deterministic_reports(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, ["--quiet", "solve", PATH4, "--out", str(a)])
        run(capsys, ["--quiet", "solve", PATH4, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_immediate_nonreal_exit_code(self, capsys, tmp_path):
        # even the smallest continuation step leaves the real axis, so no
        # tau converges and the report is the seed
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(NONREAL_DOC))
        code, out, _ = run(capsys, ["--quiet", "solve", str(prob)])
        doc = strict_json(out)
        assert code == cli.EXIT_NON_REAL
        assert not doc["converged"]
        assert doc["continuation_path"] == []
        assert doc["residual"] is None

    def test_failure_without_a_converged_tau_names_kind_and_tau(self, capsys, tmp_path):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(COMPLEX_PAIR_DOC))
        code, out, _ = run(capsys, ["--quiet", "solve", str(prob)])
        doc = json.loads(out)
        assert code == cli.EXIT_NO_CONVERGENCE
        assert doc["continuation_path"] == []
        assert doc["failure"].startswith("NoConvergence at tau=0.015625: full step did not lower the residual")

    def test_nonreal_trials_without_a_converged_tau_exit_four(self, capsys, tmp_path, monkeypatch):
        # every corrector's start is real and its first trial is not: the
        # last corrector failed at a trial, not at its start, so exit 4
        newton, spectral_map, maps = solver.newton_solve, solver.spectral_map, []

        def fresh_corrector(*args, **kwargs):
            maps.clear()
            return newton(*args, **kwargs)

        def nonreal_trials(*args, **kwargs):
            maps.append(1)
            if len(maps) > 1:
                raise NonRealSpectrum("injected")
            return spectral_map(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", fresh_corrector)
        monkeypatch.setattr(solver, "spectral_map", nonreal_trials)
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(COMPLEX_PAIR_DOC))
        code, out, _ = run(capsys, ["--quiet", "solve", str(prob)])
        doc = strict_json(out)
        assert code == cli.EXIT_NO_CONVERGENCE
        assert doc["continuation_path"] == [] and doc["residual"] is None
        last = solver.continuation_solve(load_problem(str(prob))).correctors[-1]
        assert last.kind is NonRealSpectrum and last.detail == "injected"
        assert last.ended == "trial" and len(last.iterations) == 1

    def test_steps_refused_before_their_trial_without_a_converged_tau_exit_four(self, capsys, tmp_path,
                                                                                   monkeypatch):
        # with the first-step factor at 0, every corrector from the seed
        # predictor that does not start within its tolerance fails before
        # its first trial; at epsilon 8 that is all of them, down to 1/M.
        # The last one's start was real, so exit 4, not 5
        monkeypatch.setattr(solver, "PREDICTOR_ERROR_MAX", 0.0)
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(path4_doc(epsilon=8.0)))
        code, out, _ = run(capsys, ["--quiet", "solve", str(prob)])
        doc = strict_json(out)
        assert code == cli.EXIT_NO_CONVERGENCE
        assert doc["continuation_path"] == [] and doc["residual"] is None
        assert doc["failure"].startswith("NoConvergence at tau=0.015625: Newton step ")
        last = solver.continuation_solve(load_problem(str(prob))).correctors[-1]
        assert last.ended == "step" and len(last.iterations) == 1

    @pytest.mark.parametrize("k, epsilon, kind", [(2, 1e10, "NearDegenerate"), (1, 1e200, "LinAlgError")],
                             ids=["k2", "k1"])
    def test_overflowing_companion_writes_the_report_and_exits_four(self, capsys, tmp_path, k, epsilon, kind):
        # an overflowing companion is a failed corrector, not a LinAlgError
        # escaping the solve (exit 3, no report)
        prob, report = tmp_path / "p.json", tmp_path / "r.json"
        prob.write_text(json.dumps({
            "n": 2, "k": k, "proper_values": [float(q) for q in range(1, 2 * k + 1)],
            "leading": [1e-300, 1.0], "graphs": [{"edges": [[1, 2]]}] * k, "epsilon": epsilon,
        }))
        code, _, err = run(capsys, ["--quiet", "solve", str(prob), "--out", str(report)])
        doc = strict_json(report.read_text())
        assert code == cli.EXIT_NO_CONVERGENCE and err == ""
        assert not doc["converged"] and doc["continuation_path"] == [] and doc["residual"] is None
        assert doc["failure"].startswith(f"{kind} at tau=0.015625: ")

    def test_fd_jacobian_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--quiet", "solve", PATH4, "--fd-jacobian"])
        assert exc.value.code == cli.EXIT_PARSE
        assert "unrecognized arguments: --fd-jacobian" in capsys.readouterr().err

    def test_continuation_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--quiet", "solve", PATH4, "--continuation", "4"])
        assert exc.value.code == cli.EXIT_PARSE
        assert "unrecognized arguments: --continuation 4" in capsys.readouterr().err

    def test_summary_printed_unless_quiet(self, capsys, tmp_path):
        dest = tmp_path / "r.json"
        _, out, _ = run(capsys, ["solve", PATH4, "--out", str(dest)])
        assert "residual:" in out and "coefficient 1:" in out
        _, out_q, _ = run(capsys, ["--quiet", "solve", PATH4, "--out", str(dest)])
        assert out_q == ""


class TestVerify:
    def test_solve_then_verify_round_trip(self, capsys, tmp_path):
        poly = tmp_path / "poly.json"
        code, _, _ = run(capsys, ["--quiet", "solve", PATH4, "--out", str(poly)])
        assert code == 0
        code, out, _ = run(capsys, ["--quiet", "verify", str(poly), PATH4])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and doc["residual"] <= 1e-8

    def test_structure_violation_exits_six(self, capsys, tmp_path):
        # the diagonal seed has the right spectrum but empty graphs
        poly = tmp_path / "seed.json"
        run(capsys, ["--quiet", "seed", PATH4, "--out", str(poly)])
        code, out, _ = run(capsys, ["--quiet", "verify", str(poly), PATH4])
        assert code == cli.EXIT_VERIFY_FAIL
        doc = json.loads(out)
        assert not doc["structure_ok"]

    def test_nonreal_polynomial_report_is_json(self, capsys, tmp_path):
        # the path4 seed without its damping coefficient: z^2 = -k_i is imaginary
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"coefficients": [SEED_DOC["coefficients"][0], np.zeros((4, 4)).tolist(),
                                                     SEED_DOC["coefficients"][2]]}))
        code, out, _ = run(capsys, ["--quiet", "verify", str(poly), PATH4])
        assert code == cli.EXIT_VERIFY_FAIL
        doc = strict_json(out)
        assert doc["failure"].startswith("NonRealSpectrum")
        assert doc["residual"] is None
        assert doc["values"] == [None] * 8

    def test_spectrum_violation_exits_six(self, capsys, tmp_path):
        poly = tmp_path / "poly.json"
        run(capsys, ["--quiet", "solve", PATH4, "--out", str(poly)])
        doc = json.loads(poly.read_text())
        doc["coefficients"][0][0][0] += 0.05
        poly.write_text(json.dumps(doc))
        code, _, _ = run(capsys, ["--quiet", "verify", str(poly), PATH4])
        assert code == cli.EXIT_VERIFY_FAIL


class TestJacobian:
    def test_seed_structure_check_passes(self, capsys):
        code, out, _ = run(capsys, ["--quiet", "jacobian", PATH4])
        assert code == 0
        doc = json.loads(out)
        assert doc["vandermonde"]["passed"]
        assert doc["vandermonde"]["max_entry_error"] <= 1e-12
        assert np.isfinite(doc["condition"])
        assert np.array(doc["jacobian"]).shape == (8, 8)

    def test_condition_is_computed_once_at_the_seed(self, capsys, monkeypatch):
        # the seed check's condition number is the reported one
        cond = np.linalg.cond
        calls = count_calls(monkeypatch, np.linalg, "cond")
        code, out, _ = run(capsys, ["--quiet", "jacobian", PATH4])
        assert code == 0 and calls == {"cond": 1}
        doc = json.loads(out)
        assert doc["condition"] == cond(np.array(doc["jacobian"]))

    def test_at_solution_point(self, capsys, tmp_path):
        poly = tmp_path / "poly.json"
        run(capsys, ["--quiet", "solve", PATH4, "--out", str(poly)])
        doc = json.loads(poly.read_text())
        x = list(np.diag(doc["coefficients"][0])) + list(np.diag(doc["coefficients"][1]))
        xfile = tmp_path / "x.json"
        xfile.write_text(json.dumps(x))
        code, out, _ = run(capsys, ["--quiet", "jacobian", PATH4, "--at", str(xfile)])
        assert code == 0
        assert "vandermonde" not in json.loads(out)

    @pytest.mark.parametrize("point", [[1, 2, 3], {"a": 1}, [1.0] * 7 + [float("nan")],
                                       [10**400] + [1.0] * 7, [True] * 8])
    def test_malformed_point_exits_two(self, capsys, tmp_path, point):
        xfile = tmp_path / "x.json"
        xfile.write_text(json.dumps(point))
        code, _, err = run(capsys, ["--quiet", "jacobian", PATH4, "--at", str(xfile)])
        assert code == cli.EXIT_PARSE
        assert "error:" in err and "8 finite numbers" in err

    def test_multiple_proper_value_exits_three(self, capsys, tmp_path):
        # diag(3, 3) has the proper value 3 twice: NearDegenerate
        prob, xfile = tmp_path / "p.json", tmp_path / "x.json"
        prob.write_text(json.dumps({
            "n": 2, "k": 1, "proper_values": [1.0, 2.0], "leading": [1.0, 1.0],
            "graphs": [{"edges": []}],
        }))
        xfile.write_text(json.dumps([3.0, 3.0]))
        code, _, err = run(capsys, ["--quiet", "jacobian", str(prob), "--at", str(xfile)])
        assert code == cli.EXIT_INVARIANT
        assert err.startswith("error:") and "closer than sep_tol" in err

    @pytest.mark.parametrize("x", [[1e300, 2.0], [1e300, 2.0, 1.0, 1.0]], ids=["k1", "k2"])
    def test_overflowing_companion_exits_three(self, capsys, tmp_path, x):
        # -x/lead overflows to -inf in the companion matrix: LinAlgError
        k = len(x) // 2
        prob, xfile = tmp_path / "p.json", tmp_path / "x.json"
        prob.write_text(json.dumps({
            "n": 2, "k": k, "proper_values": [float(q) for q in range(1, 2 * k + 1)],
            "leading": [1e-300, 1.0], "graphs": [{"edges": []}] * k,
        }))
        xfile.write_text(json.dumps(x))
        code, out, err = run(capsys, ["--quiet", "jacobian", str(prob), "--at", str(xfile)])
        assert code == cli.EXIT_INVARIANT and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_nonreal_spectrum_at_the_point_exits_five(self, capsys, tmp_path):
        # at x = 0 path4's polynomial is z^2 I + z Y + Y, Y its path
        # off-diagonals, whose spectrum is not real: no Jacobian, no report
        xfile = tmp_path / "x.json"
        xfile.write_text(json.dumps([0.0] * 8))
        code, out, err = run(capsys, ["--quiet", "jacobian", PATH4, "--at", str(xfile)])
        assert code == cli.EXIT_NON_REAL and out == ""
        assert err.startswith("error: non-real spectrum:") and err.count("\n") == 1

    def test_degenerate_denominator_exits_three(self, capsys, monkeypatch):
        def degenerate(decomp):
            raise DegenerateDenominator("row 0: value numerically non-simple")
        monkeypatch.setattr(cli, "jacobian_x", degenerate)
        code, _, err = run(capsys, ["--quiet", "jacobian", PATH4])
        assert code == cli.EXIT_INVARIANT
        assert err.startswith("error:") and "non-simple" in err


class TestErrorPaths:
    def test_bad_json_exits_two(self, capsys, tmp_path):
        prob = tmp_path / "bad.json"
        prob.write_text("{not json")
        code, _, err = run(capsys, ["--quiet", "seed", str(prob)])
        assert code == cli.EXIT_PARSE
        assert "error:" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["--quiet", "solve", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_PARSE

    def test_missing_field_exits_two(self, capsys, tmp_path):
        doc = path4_doc()
        del doc["leading"]
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == cli.EXIT_PARSE
        assert "leading" in err

    def test_duplicate_targets_exit_three(self, capsys, tmp_path):
        doc = path4_doc(proper_values=[-2.0, -4.0, -4.0, -8.0, -10.0, -12.0, -14.0, -16.0])
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == cli.EXIT_INVARIANT
        assert "distinct" in err

    def test_graph_count_mismatch_exits_two(self, capsys, tmp_path):
        doc = path4_doc()
        doc["graphs"] = doc["graphs"][:1]
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(doc))
        code, _, _ = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == cli.EXIT_PARSE

    @pytest.mark.parametrize("entry", [
        "n 4\n1 2\n2 3\n3 4\n",               # the edge-list string form is gone
        {"edgs": [[1, 2], [2, 3], [3, 4]]},    # a typo must not read as the empty graph
    ], ids=["string", "no-edges"])
    def test_graph_entry_without_edges_exits_two(self, capsys, tmp_path, entry):
        doc = path4_doc()
        doc["graphs"][0] = entry
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == cli.EXIT_PARSE and out == ""
        assert err.startswith("error: graphs[0]") and err.count("\n") == 1

    def test_nondiagonal_leading_coefficient_exits_three(self, capsys, tmp_path):
        poly = tmp_path / "poly.json"
        run(capsys, ["--quiet", "seed", PATH4, "--out", str(poly)])
        doc = json.loads(poly.read_text())
        doc["coefficients"][2][0][1] = doc["coefficients"][2][1][0] = 0.1
        poly.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["--quiet", "verify", str(poly), PATH4])
        assert code == cli.EXIT_INVARIANT
        assert err.startswith("error:") and "leading coefficient" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("coefficients", [
        [np.eye(2).tolist()] * 3,  # n = 2 against the problem's n = 4
        [np.eye(4).tolist()] * 4,  # k = 3 against the problem's k = 2
    ])
    def test_verify_size_mismatch_exits_three(self, capsys, tmp_path, coefficients):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"coefficients": coefficients}))
        code, _, err = run(capsys, ["--quiet", "verify", str(poly), PATH4])
        assert code == cli.EXIT_INVARIANT
        assert err.startswith("error:") and "problem has n=4, k=2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("controls", [
        {"jacobian_mode": "fd"}, {"damping": 1.0}, {"fd_jacobian": False}, {"fd_step": 1e-6},
        {"continuation_steps": 4}, {"group_sorted": True},
    ], ids=lambda controls: next(iter(controls)))
    def test_unknown_control_exits_two(self, capsys, tmp_path, controls):
        doc = path4_doc(controls=controls)
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == cli.EXIT_PARSE
        assert err.startswith("error:") and "unknown field" in err

    @pytest.mark.parametrize("patch, key", [
        ({"offdiag_override": [[0.3, 0.4, 0.5], None]}, "offdiag_override"),  # a misspelled optional field
        ({"graphs": [{"edges": [], "weights": []}, {"edges": []}]}, "weights"),
    ], ids=["top-level", "graph-entry"])
    def test_unknown_field_exits_two_at_every_level(self, capsys, tmp_path, patch, key):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(path4_doc(**patch)))
        code, out, err = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == cli.EXIT_PARSE and out == ""
        assert err.startswith("error:") and f"unknown field(s) [{key!r}]" in err

    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_no_vertices_exits_three_for_every_k(self, capsys, tmp_path, k):
        # the spectrum's rule, not a graph's "vertex count must be positive"
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps({"n": 0, "k": k, "proper_values": [], "leading": [],
                                    "graphs": [{"edges": []}] * k}))
        code, out, err = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == cli.EXIT_INVARIANT and out == ""
        assert err == f"error: need n >= 1 and k >= 1, got n=0, k={k}\n"

    @pytest.mark.parametrize("patch", [
        {"controls": {"max_iter": "5"}},
        {"controls": {"max_iter": 2.5}},
        {"controls": {"max_iter": True}},
        {"controls": {"newton_tol": "x"}},
        {"controls": {"continuation_steps": 2.5}},
        {"controls": {"continuation_steps": True}},
        {"controls": {"group_sorted": 1}},
        {"controls": 5},
        {"controls": [1, 2]},
        {"proper_values": [-2.0, "-4", -6.0, -8.0, -10.0, -12.0, -14.0, -16.0]},
        {"leading": [1.0, "1", 1.0, 1.0]},
        {"offdiag_overrides": [[0.5, "x", 0.5], None]},
        {"graphs": [{"edges": [["a", 2], [2, 3], [3, 4]]}, {"edges": [[1, 2], [2, 3], [3, 4]]}]},
        {"graphs": [{"edges": [[1.5, 2], [2, 3], [3, 4]]}, {"edges": [[1, 2], [2, 3], [3, 4]]}]},
        {"graphs": [{"edges": [[True, 2], [2, 3], [3, 4]]}, {"edges": [[1, 2], [2, 3], [3, 4]]}]},
        {"epsilon": True},
    ])
    def test_wrong_json_type_exits_two(self, capsys, tmp_path, patch):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(path4_doc(**patch)))
        code, _, err = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == cli.EXIT_PARSE
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    def test_null_offdiag_overrides_behave_like_the_absent_field(self, capsys, tmp_path, epsilon):
        # a null entry falls back to epsilon, even at epsilon = 0; an explicit zero is still rejected
        specs, codes = [], []
        for i, patch in enumerate(({}, {"offdiag_overrides": [None, None]})):
            prob = tmp_path / f"p{i}.json"
            prob.write_text(json.dumps(path4_doc(epsilon=epsilon, **patch)))
            specs.append(load_problem(str(prob)))
            codes.append(run(capsys, ["--quiet", "solve", str(prob)])[0])
        assert codes == [0, 0]
        absent, null = ([y.tobytes() for y in spec.offdiag_values] for spec in specs)
        assert absent == null
        prob = tmp_path / "zero.json"
        prob.write_text(json.dumps(path4_doc(epsilon=epsilon, offdiag_overrides=[None, [0.5, 0.0, 0.5]])))
        code, _, err = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == cli.EXIT_INVARIANT and "nonzero" in err

    @pytest.mark.parametrize("patch", [
        {"proper_values": [-2.0, float("nan"), -6.0, -8.0, -10.0, -12.0, -14.0, -16.0]},
        {"proper_values": [-2.0, -4.0, -6.0, -8.0, -10.0, -12.0, -14.0, float("-inf")]},
        {"epsilon": float("nan")},
        {"leading": [1.0, float("nan"), 1.0, 1.0]},
        {"leading": [1.0, float("inf"), 1.0, 1.0]},
        {"offdiag_overrides": [[0.5, float("nan"), 0.5], None]},
        # finite targets whose seed coefficients overflow
        {"proper_values": [1e200 * (q + 1) for q in range(8)]},
    ])
    def test_non_finite_number_exits_three(self, capsys, tmp_path, patch):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(path4_doc(**patch)))
        code, _, err = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == cli.EXIT_INVARIANT
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("entry, value, expected", [
        ((0, 0, 1), None, cli.EXIT_PARSE),
        ((0, 0, 1), "0", cli.EXIT_PARSE),
        ((0, 0, 1), 1.0, cli.EXIT_INVARIANT),  # asymmetric
        ((0, 0, 0), float("nan"), cli.EXIT_INVARIANT),
        ((2, 0, 0), 1e-320, cli.EXIT_VERIFY_FAIL),  # the companion matrix overflows
    ])
    def test_bad_coefficient_entry(self, capsys, tmp_path, entry, value, expected):
        poly = tmp_path / "poly.json"
        run(capsys, ["--quiet", "seed", PATH4, "--out", str(poly)])
        doc = json.loads(poly.read_text())
        s, i, j = entry
        doc["coefficients"][s][i][j] = value
        poly.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["--quiet", "verify", str(poly), PATH4])
        assert code == expected
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [("n", 5), ("k", 1), ("n", True)])
    def test_polynomial_size_field_must_match_the_coefficients(self, capsys, tmp_path, field, value):
        poly = tmp_path / "poly.json"
        run(capsys, ["--quiet", "seed", PATH4, "--out", str(poly)])
        doc = json.loads(poly.read_text())
        doc[field] = value
        poly.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["--quiet", "verify", str(poly), PATH4])
        assert code == cli.EXIT_PARSE
        assert err.startswith("error:") and f"'{field}'" in err

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_exits_three(self, capsys, tmp_path, tol):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(path4_doc(controls={"newton_tol": tol})))
        code, _, err = run(capsys, ["--quiet", "solve", str(prob)])
        assert code == cli.EXIT_INVARIANT
        assert err.startswith("error:") and "newton_tol" in err

    @pytest.mark.parametrize("controls, field", [
        ({"max_iter": 0}, "max_iter"),
        ({"newton_tol": 0}, "newton_tol"),
        ({"newton_tol": -1}, "newton_tol"),
    ], ids=["file-max_iter-0", "file-newton_tol-0", "file-newton_tol-minus-1"])
    def test_out_of_range_controls_exit_three(self, capsys, tmp_path, controls, field):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(path4_doc(controls=controls)))
        code, out, err = run(capsys, ["--quiet", "solve", str(problem)])
        assert code == cli.EXIT_INVARIANT and out == ""
        assert err.startswith("error:") and field in err and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [5, [1, 2], "coefficients"])
    def test_non_object_polynomial_exits_two(self, capsys, tmp_path, doc):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["--quiet", "verify", str(poly), PATH4])
        assert code == cli.EXIT_PARSE
        assert err.startswith("error:") and "top level must be an object" in err


@pytest.mark.parametrize("command", ["seed", "solve", "verify", "jacobian"])
def test_stdout_without_out_is_only_the_report(capsys, tmp_path, command):
    argv = [command, PATH4]
    if command == "verify":
        poly = tmp_path / "poly.json"
        run(capsys, ["--quiet", "solve", PATH4, "--out", str(poly)])
        argv = [command, str(poly), PATH4]
    code, out, _ = run(capsys, argv)  # neither --out nor --quiet
    assert code == 0
    assert isinstance(strict_json(out), dict)


@pytest.mark.parametrize("command, lines", [
    ("seed", ["coefficient 0:", "coefficient 1:", "coefficient 2:"]),
    ("verify", ["residual: ", "passed: True"]),
    ("jacobian", ["condition: ", "vandermonde check passed: True"]),
])
def test_summary_after_out_unless_quiet(capsys, tmp_path, command, lines):
    # solve's summary is tested in TestSolve; these are the other three
    argv = [command, PATH4]
    if command == "verify":
        poly = tmp_path / "poly.json"
        run(capsys, ["--quiet", "solve", PATH4, "--out", str(poly)])
        argv = [command, str(poly), PATH4]
    dest = tmp_path / "r.json"
    code, out, err = run(capsys, [*argv, "--out", str(dest)])
    assert code == 0 and err == ""
    assert isinstance(strict_json(dest.read_text()), dict)
    shown = [line for line in out.splitlines() if not line.startswith("  ")]  # matrix rows are indented
    assert len(shown) == len(lines)
    assert all(line.startswith(want) for line, want in zip(shown, lines))
    code, out, _ = run(capsys, ["--quiet", *argv, "--out", str(dest)])
    assert code == 0 and out == ""


@pytest.mark.parametrize("bad", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["seed", "solve", "verify", "jacobian"])
def test_unwritable_out_exits_two(capsys, tmp_path, command, bad):
    argv = [command, PATH4]
    if command == "verify":
        poly = tmp_path / "poly.json"
        run(capsys, ["--quiet", "solve", PATH4, "--out", str(poly)])
        argv = [command, str(poly), PATH4]
    dest = tmp_path / "no-such-dir" / "r.json" if bad == "missing-dir" else tmp_path
    code, out, err = run(capsys, ["--quiet", *argv, "--out", str(dest)])
    assert code == cli.EXIT_PARSE and out == ""
    assert err.startswith(f"error: cannot write --out file {dest}") and err.count("\n") == 1


class TestVerifyTol:
    """verify takes --tol as its value tolerance only, never as newton_tol."""

    @pytest.fixture(scope="class")
    def solved(self, tmp_path_factory):
        poly = tmp_path_factory.mktemp("verify_tol") / "solved.json"
        assert cli.main(["--quiet", "solve", PATH4, "--out", str(poly)]) == 0
        return str(poly)

    def test_zero_is_a_value_tolerance(self, capsys, solved):
        code, out, err = run(capsys, ["--quiet", "verify", solved, PATH4, "--tol", "0"])
        doc = strict_json(out)
        assert err == ""
        assert code == cli.EXIT_VERIFY_FAIL and doc["residual"] > 0.0
        assert doc["failure"].startswith("spectral residual") and "tolerance 0" in doc["failure"]

    def test_tol_leaves_the_newton_tolerance_alone(self, capsys, solved):
        code, out, _ = run(capsys, ["--quiet", "verify", solved, PATH4, "--tol", "1e-3"])
        assert code == 0
        default = SolverControls().resolved_tol(load_problem(PATH4).spectrum)
        assert strict_json(out)["config"]["controls"]["newton_tol"] == default

    def test_default_is_never_tighter_than_the_solve(self, capsys, tmp_path):
        # path4 scaled by 1e5 converges within its Newton tolerance 1.4e-5,
        # to a residual near 2e-8: the default is that tolerance, not 1e-8
        doc = json.loads(Path(PATH4).read_text())
        prob, poly = tmp_path / "p.json", tmp_path / "poly.json"
        prob.write_text(json.dumps({**doc, "proper_values": [1e5 * v for v in doc["proper_values"]],
                                    "epsilon": 1e5 * doc["epsilon"]}))
        assert run(capsys, ["--quiet", "solve", str(prob), "--out", str(poly)])[0] == 0
        code, out, _ = run(capsys, ["--quiet", "verify", str(poly), str(prob)])
        assert code == 0 and strict_json(out)["passed"]

    @pytest.mark.parametrize("tol", ["-0.001", "nan", "inf"])
    def test_negative_or_non_finite_exits_three(self, capsys, solved, tol):
        code, out, err = run(capsys, ["--quiet", "verify", solved, PATH4, "--tol", tol])
        assert code == cli.EXIT_INVARIANT and out == ""
        assert err.startswith("error:") and "value_tol" in err


@pytest.mark.parametrize("argv", [
    ["--tol", "1e-6", "solve", PATH4],
    ["--tol", "1e-6", "verify", PATH4, PATH4],
    ["seed", PATH4, "--tol", "1e-6"],
    ["solve", PATH4, "--tol", "1e-6"],
    ["jacobian", PATH4, "--tol", "1e-6"],
    ["--max-iter", "5", "solve", PATH4],
    ["seed", PATH4, "--max-iter", "5"],
    ["solve", PATH4, "--max-iter", "5"],
    ["verify", PATH4, PATH4, "--max-iter", "5"],
    ["jacobian", PATH4, "--max-iter", "5"],
], ids=["global-tol-solve", "global-tol-verify", "seed-tol", "solve-tol", "jacobian-tol",
        "global-max-iter", "seed-max-iter", "solve-max-iter", "verify-max-iter", "jacobian-max-iter"])
def test_only_verify_takes_tol_and_no_command_takes_max_iter(capsys, argv):
    # a solve's Newton controls come from the problem file alone
    with pytest.raises(SystemExit) as exc:
        cli.main(["--quiet", *argv])
    assert exc.value.code == cli.EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_file_newton_tolerance_is_the_one_verify_checks(capsys, tmp_path):
    # a loose newton_tol in the problem file: the solve stops at it, and
    # verify's default tolerance, read from the same file, accepts it
    prob, poly = tmp_path / "p.json", tmp_path / "poly.json"
    prob.write_text(json.dumps({**json.loads(Path(PATH4).read_text()), "controls": {"newton_tol": 1e-4}}))
    code, _, _ = run(capsys, ["--quiet", "solve", str(prob), "--out", str(poly)])
    residual = strict_json(poly.read_text())["residual"]
    assert code == 0 and 1e-8 < residual <= 1e-4
    code, out, _ = run(capsys, ["--quiet", "verify", str(poly), str(prob)])
    assert code == 0 and strict_json(out)["passed"]


def test_problem_schema_lists_the_fields_the_reader_knows():
    # at each object level of a problem file the schema names exactly the
    # keys load_problem reads, and forbids every other; a report's config
    # is a problem file
    schemas = PROBLEMS.parent / "schemas"
    schema = json.loads((schemas / "problem.schema.json").read_text())
    levels = {
        "top level": (schema, problems._PROBLEM_FIELDS),
        "graph entry": (schema["properties"]["graphs"]["items"], problems._GRAPH_FIELDS),
        "controls": (schema["properties"]["controls"], problems._CONTROL_KINDS),  # the SolverControls fields
    }
    for name, (level, fields) in levels.items():
        assert set(level["properties"]) == set(fields), name
        assert level["additionalProperties"] is False, name
    report = json.loads((schemas / "report.schema.json").read_text())
    assert report["properties"]["config"]["$ref"] == "problem.schema.json"


def test_report_schema_lists_the_keys_of_a_solve_report(capsys):
    schema = json.loads((PROBLEMS.parent / "schemas" / "report.schema.json").read_text())
    code, out, _ = run(capsys, ["--quiet", "solve", PATH4])
    assert code == 0
    assert list(schema["properties"]) == list(strict_json(out))


def config_file(tmp_path, spec) -> str:
    """spec_to_config(spec), written to a problem file."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(spec_to_config(spec)))
    return str(path)


# problem files whose report config must reproduce them
ROUND_TRIP = {
    "path4": json.loads(Path(PATH4).read_text()),
    "linked4": json.loads(Path(LINKED4).read_text()),
    "complex-pair": COMPLEX_PAIR_DOC,
    "epsilon-0": path4_doc(epsilon=0.0),
    "null-override": path4_doc(offdiag_overrides=[[0.3, 0.4, 0.5], None]),
}


class TestConfigIsTheProblemFile:
    """A report's config is a problem file: load_problem reads it back to a
    spec with an equal config, and solve of it gives the same polynomial."""

    def test_every_benchmark_instance(self, tmp_path, monkeypatch):
        same_answers = load_script()
        monkeypatch.setitem(sys.modules, "workloads", load_workloads())
        instances = list(same_answers.instances())
        assert len(instances) == 293
        for label, spec in instances:
            assert spec_to_config(load_problem(config_file(tmp_path, spec))) == spec_to_config(spec), label

    @pytest.mark.parametrize("name", ROUND_TRIP)
    def test_problem_file(self, tmp_path, name):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(ROUND_TRIP[name]))
        spec = load_problem(str(prob))
        assert spec_to_config(load_problem(config_file(tmp_path, spec))) == spec_to_config(spec)

    @pytest.mark.parametrize("name", ["path4", "linked4", "null-override"])
    def test_solve_of_the_config_gives_the_same_coefficients(self, capsys, tmp_path, name):
        prob, config = tmp_path / "p.json", tmp_path / "config.json"
        prob.write_text(json.dumps(ROUND_TRIP[name]))
        code, out, _ = run(capsys, ["--quiet", "solve", str(prob)])
        first = json.loads(out)
        config.write_text(json.dumps(first["config"]))
        code_again, out, _ = run(capsys, ["--quiet", "solve", str(config)])
        second = json.loads(out)
        assert code == code_again == 0
        assert json.dumps(second["coefficients"]) == json.dumps(first["coefficients"])
        assert second["config"] == first["config"]


DOCUMENTED_EXITS = {0, cli.EXIT_PARSE, cli.EXIT_INVARIANT, cli.EXIT_NO_CONVERGENCE,
                    cli.EXIT_NON_REAL, cli.EXIT_VERIFY_FAIL}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
# path4.json with every optional field written out, so each can be replaced
PROBLEM_DOC = {
    **json.loads(Path(PATH4).read_text()),
    "offdiag_overrides": [None, None],
    "controls": {f.name: f.default for f in dataclasses.fields(SolverControls)},
}
# the path4 seed polynomial (TestSeed.test_reference_seed_matrices)
SEED_DOC = {"coefficients": [np.diag(d).tolist() for d in ([8.0, 48, 120, 224], [6.0, 14, 22, 30], [1.0] * 4)]}


def _paths(doc, prefix=()):
    """Every location in a JSON document: the top level, each field, each entry."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield from _paths(val, prefix + (key,))


@st.composite
def replaced(draw, doc):
    """``doc`` with one location, possibly the top level, replaced by a random JSON value."""
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(JSON_VALUES)
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@settings(max_examples=100, deadline=None)
@given(problem=replaced(PROBLEM_DOC), polynomial=replaced(SEED_DOC))
def test_malformed_files_exit_with_documented_code(problem, polynomial):
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, doc in [("problem", problem), ("polynomial", polynomial), ("seed", SEED_DOC)]:
            files[name] = str(Path(tmp, name + ".json"))
            Path(files[name]).write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes = [
                cli.main(["--quiet", "seed", files["problem"]]),
                cli.main(["--quiet", "verify", files["seed"], files["problem"]]),
                cli.main(["--quiet", "verify", files["polynomial"], PATH4]),
            ]
    assert set(codes) <= DOCUMENTED_EXITS
