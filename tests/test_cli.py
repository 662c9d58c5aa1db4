"""Tests for the batch front end: parsing, dispatch, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from bandctrl import cli, extremal, lq, shooting
from bandctrl.cli import apply_overrides, parse_problem, run, serialize_problem, spectrum_report
from bandctrl.problem import ProblemValidationError


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _transfer_doc(**over):
    doc = {
        "horizon": 8,
        "dynamics": {"builtin": "scalar_integrator"},
        "cost": {"Q": [[0.0]], "R": [[1.0]]},
        "boundary": {"x0": [0.0], "xf": [4.0]},
        "banned_frequencies": [[2, 6]],
        "solver": "transfer_freq",
    }
    doc.update(over)
    return doc


class TestRun:
    def test_solved_transfer_writes_passing_certificate(self, tmp_path):
        inp = _write(tmp_path, "p.json", _transfer_doc())
        out = str(tmp_path / "r.json")
        assert run(inp, out) == 0
        result = json.loads((tmp_path / "r.json").read_text())
        assert result["status"] == "SOLVED"
        assert result["certificate"]["passed"] is True
        assert result["normality"]["classification"] == "ALL_NORMAL"
        assert result["cost"] == pytest.approx(1.0)
        mags = result["spectra"][0]["magnitude"]
        assert result["spectra"][0]["banned"][2] is True
        assert mags[2] <= 1e-9 and mags[6] <= 1e-9
        assert all(rep["satisfied"] for rep in result["uncertainty"])

    def test_validation_failure_exits_one_without_result(self, tmp_path, capsys):
        doc = _transfer_doc()
        doc["banned_frequencies"] = [[99]]
        inp = _write(tmp_path, "p.json", doc)
        out = tmp_path / "r.json"
        assert run(inp, str(out)) == 1
        assert not out.exists()
        assert "banned" in capsys.readouterr().err

    def test_indefinite_r_is_a_spec_error(self, tmp_path, capsys):
        doc = _transfer_doc()
        doc["cost"] = {"Q": [[0.0]], "R": [[0.0]]}
        inp = _write(tmp_path, "p.json", doc)
        assert run(inp, str(tmp_path / "r.json")) == 1
        assert "R not positive definite" in capsys.readouterr().err

    def test_box_bound_violation_names_stage_and_coordinate(self, tmp_path, capsys):
        doc = _transfer_doc()
        doc["state_sets"] = ["free"] * 9
        doc["state_sets"][3] = {"kind": "box", "lower": [2.0], "upper": [1.0]}
        inp = _write(tmp_path, "p.json", doc)
        out = tmp_path / "r.json"
        assert run(inp, str(out)) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "state_sets[3]" in err and "lower[0]" in err

    def test_well_formed_box_set_rejected_by_dispatch(self, tmp_path, capsys):
        doc = _transfer_doc()
        doc["control_sets"] = ["free"] * 8
        doc["control_sets"][2] = {"kind": "box", "lower": [-1.0], "upper": [1.0]}
        inp = _write(tmp_path, "p.json", doc)
        assert run(inp, str(tmp_path / "r.json")) == 1
        err = capsys.readouterr().err
        assert "control_sets[2]" in err and "free control sets" in err

    def test_infeasible_transfer_exits_two_with_residual(self, tmp_path):
        doc = {
            "horizon": 3,
            "dynamics": {"kind": "lti", "A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0], [0.0]]},
            "cost": {"Q": [[0.0, 0.0], [0.0, 0.0]], "R": [[1.0]]},
            "boundary": {"x0": [0.0, 0.0], "xf": [0.0, 1.0]},
            "solver": "transfer",
        }
        inp = _write(tmp_path, "p.json", doc)
        out = str(tmp_path / "r.json")
        assert run(inp, out) == 2
        result = json.loads((tmp_path / "r.json").read_text())
        assert result["status"] == "INFEASIBLE"
        assert result["diagnostics"]["ls_residual"] > 1e-3

    def test_abnormal_regime_exits_three(self, tmp_path):
        doc = _transfer_doc(horizon=2, banned_frequencies=[[0, 1]])
        doc["boundary"] = {"x0": [0.0], "xf": [0.0]}
        inp = _write(tmp_path, "p.json", doc)
        out = str(tmp_path / "r.json")
        assert run(inp, out) == 3
        result = json.loads((tmp_path / "r.json").read_text())
        assert result["status"] == "ABNORMAL_REGIME"
        assert result["normality"]["classification"] == "ALL_ABNORMAL"

    def test_shooting_toy_exits_zero(self, tmp_path):
        doc = {
            "horizon": 6,
            "dynamics": {"builtin": "affine_toy"},
            "cost": {"Q": [[1.0]], "R": [[1.0]]},
            "boundary": {"x0": [0.0], "xf": [1.0]},
            "banned_frequencies": [[3]],
            "solver": "shooting",
        }
        inp = _write(tmp_path, "p.json", doc)
        out = str(tmp_path / "r.json")
        assert run(inp, out) == 0
        result = json.loads((tmp_path / "r.json").read_text())
        assert result["certificate"]["passed"] is True
        assert result["diagnostics"]["iterations"] <= 10
        assert result["spectra"][0]["magnitude"][3] <= 1e-8

    def test_non_convergence_exits_four(self, tmp_path):
        doc = {
            "horizon": 6,
            "dynamics": {"builtin": "affine_toy"},
            "cost": {"Q": [[1.0]], "R": [[1.0]]},
            "boundary": {"x0": [0.0], "xf": [3.0]},
            "solver": "shooting",
            "options": {"max_iterations": 1},
        }
        inp = _write(tmp_path, "p.json", doc)
        out = str(tmp_path / "r.json")
        assert run(inp, out) == 4
        result = json.loads((tmp_path / "r.json").read_text())
        assert result["status"] == "NOT_CONVERGED"
        assert len(result["diagnostics"]["trace"]) >= 1

    def test_riccati_and_lq_pmp_free_endpoint(self, tmp_path):
        doc = {
            "horizon": 6,
            "dynamics": {"builtin": "double_integrator"},
            "cost": {"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]},
            "boundary": {"x0": [1.0, 0.0]},
            "solver": "riccati",
        }
        inp = _write(tmp_path, "p.json", doc)
        out_r = str(tmp_path / "r1.json")
        assert run(inp, out_r) == 0
        assert run(inp, str(tmp_path / "r2.json"), overrides=["solver=lq_pmp"]) == 0
        a = json.loads((tmp_path / "r1.json").read_text())
        b = json.loads((tmp_path / "r2.json").read_text())
        assert a["cost"] == pytest.approx(b["cost"], rel=1e-9)
        ua = np.array(a["trajectory"]["controls"])
        ub = np.array(b["trajectory"]["controls"])
        assert np.max(np.abs(ua - ub)) < 1e-8
        assert a["certificate"]["passed"] and b["certificate"]["passed"]

    def test_missing_input_exits_one(self, tmp_path):
        assert run(str(tmp_path / "nope.json"), str(tmp_path / "r.json")) == 1

    def test_malformed_json_exits_one(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{not json")
        assert run(str(path), str(tmp_path / "r.json")) == 1

    def test_deterministic_result_bytes(self, tmp_path):
        inp = _write(tmp_path, "p.json", _transfer_doc())
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(inp, str(out1)) == 0
        assert run(inp, str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_banned_frequencies_rejected_for_plain_transfer(self, tmp_path, capsys):
        doc = _transfer_doc(solver="transfer")
        inp = _write(tmp_path, "p.json", doc)
        assert run(inp, str(tmp_path / "r.json")) == 1
        assert "transfer_freq" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[1, 2]", "problem document"),
            (json.dumps(_transfer_doc(options={"tolerance": "x"})), "options.tolerance"),
            (json.dumps(_transfer_doc(options={"tolerance": -1})), "options.tolerance"),
            (
                json.dumps(_transfer_doc(solver="shooting", options={"max_iterations": 0})),
                "options.max_iterations",
            ),
            (json.dumps(_transfer_doc(banned_frequencies=[[2.5]])), "banned_frequencies[0][0]"),
            (
                json.dumps(
                    _transfer_doc(dynamics={"kind": "lti", "A": [[float("nan")]], "B": [[1.0]]})
                ),
                "dynamics.A",
            ),
            (json.dumps(_transfer_doc(boundary={"x0": [0.0], "xf": float("inf")})), "boundary.xf"),
        ],
        ids=["array", "tolerance-text", "tolerance-negative", "zero-iterations",
             "fractional-ban", "nan-matrix", "infinite-target"],
    )
    def test_malformed_input_exits_one_naming_the_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "p.json"
        path.write_text(text)
        out = tmp_path / "r.json"
        assert run(str(path), str(out)) == 1
        assert not out.exists()
        assert f"error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc", [_transfer_doc(), _transfer_doc(solver="shooting")], ids=["transfer_freq", "shooting"]
    )
    def test_one_normality_classification_per_solve(self, tmp_path, monkeypatch, doc):
        calls = []
        original = extremal.classify_normality_freq

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (extremal, lq, shooting, cli):
            monkeypatch.setattr(module, "classify_normality_freq", counted, raising=False)
        assert run(_write(tmp_path, "p.json", doc), str(tmp_path / "r.json")) == 0
        assert len(calls) == 1
        result = json.loads((tmp_path / "r.json").read_text())
        assert result["normality"]["classification"] == "ALL_NORMAL"


class TestParsing:
    def test_round_trip_is_semantically_identical(self):
        doc = _transfer_doc()
        problem = parse_problem(dict(doc))
        doc2 = serialize_problem(problem)
        problem2 = parse_problem(doc2)
        assert problem2.solver == problem.solver
        assert problem2.spec.horizon == problem.spec.horizon
        np.testing.assert_allclose(problem2.spec.dynamics.A, problem.spec.dynamics.A)
        np.testing.assert_allclose(problem2.spec.cost.Q, problem.spec.cost.Q)
        np.testing.assert_allclose(problem2.x0, problem.x0)
        np.testing.assert_allclose(problem2.xf, problem.xf)
        assert problem2.banned == problem.banned
        assert (
            problem2.spec.frequency_constraint.banned()
            == problem.spec.frequency_constraint.banned()
        )

    def test_error_list_is_complete(self):
        doc = {"horizon": 0, "solver": "bogus"}
        with pytest.raises(ProblemValidationError) as err:
            parse_problem(doc)
        joined = " ".join(err.value.errors)
        assert "horizon" in joined and "solver" in joined and "dynamics" in joined

    def test_overrides_dotted_paths(self):
        doc = _transfer_doc()
        apply_overrides(doc, ["solver=transfer", "options.tolerance=1e-6", "boundary.xf=[2.0]"])
        assert doc["solver"] == "transfer"
        assert doc["options"]["tolerance"] == 1e-6
        assert doc["boundary"]["xf"] == [2.0]

    def test_spectrum_report_rows(self, tmp_path):
        inp = _write(tmp_path, "p.json", _transfer_doc())
        out = str(tmp_path / "r.json")
        run(inp, out)
        result = json.loads((tmp_path / "r.json").read_text())
        rows = spectrum_report(result)
        assert len(rows) == 8
        banned_rows = [r for r in rows if r["banned"]]
        assert {r["frequency"] for r in banned_rows} == {2, 6}
        assert all(r["magnitude"] <= 1e-9 for r in banned_rows)

    def test_spectrum_report_zero_controls(self, tmp_path):
        # transfer from 0 to 0: optimal controls vanish, so every magnitude is 0
        doc = _transfer_doc(banned_frequencies=[[]], solver="transfer")
        doc["boundary"] = {"x0": [0.0], "xf": [0.0]}
        inp = _write(tmp_path, "p.json", doc)
        out = str(tmp_path / "r.json")
        assert run(inp, out) == 0
        rows = spectrum_report(json.loads((tmp_path / "r.json").read_text()))
        assert all(r["magnitude"] <= 1e-12 for r in rows)

    def test_spectrum_report_constant_controls(self, tmp_path):
        # minimum-energy integrator transfer: constant u, so only the DC row is nonzero
        doc = _transfer_doc(banned_frequencies=[[]], solver="transfer")
        inp = _write(tmp_path, "p.json", doc)
        out = str(tmp_path / "r.json")
        assert run(inp, out) == 0
        rows = spectrum_report(json.loads((tmp_path / "r.json").read_text()))
        assert rows[0]["frequency"] == 0 and rows[0]["magnitude"] > 1.0
        assert all(r["magnitude"] <= 1e-12 for r in rows[1:])


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        inp = _write(tmp_path, "p.json", _transfer_doc())
        out = str(tmp_path / "r.json")
        proc = subprocess.run(
            [sys.executable, "-m", "bandctrl", "--input", inp, "--output", out, "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads((tmp_path / "r.json").read_text())["status"] == "SOLVED"

    def test_solver_flag_overrides_file(self, tmp_path):
        doc = _transfer_doc(banned_frequencies=[[]])
        inp = _write(tmp_path, "p.json", doc)
        out = str(tmp_path / "r.json")
        proc = subprocess.run(
            [
                sys.executable, "-m", "bandctrl",
                "--input", inp, "--output", out, "--solver", "transfer", "--quiet",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads((tmp_path / "r.json").read_text())["solver"] == "transfer"
