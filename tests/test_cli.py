"""Tests for the batch front end: parsing, dispatch, exit codes, determinism."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bandctrl import cli, extremal, lq, shooting
from bandctrl.cli import apply_overrides, parse_problem, run, serialize_problem, spectrum_report
from bandctrl.problem import ProblemValidationError

from oracles import random_lq_matrices, unstable_transfer_plant


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

    def test_reachable_banned_transfer_is_solved(self, tmp_path):
        # partial-pivoting LU on the dense first-order matrix grew by about 1e22
        # here and reported this reachable target INFEASIBLE (exit 2)
        doc = {
            "horizon": 128,
            "dynamics": {"builtin": "double_integrator"},
            "cost": {"Q": [[0.78, -0.79], [-0.79, 1.04]], "R": [[0.95]]},
            "boundary": {"x0": [0.0, 0.0], "xf": [1.0, 0.0]},
            "banned_frequencies": [[32, 41, 60]],
            "solver": "transfer_freq",
        }
        inp = _write(tmp_path, "p.json", doc)
        out = str(tmp_path / "r.json")
        assert run(inp, out) == 0
        result = json.loads((tmp_path / "r.json").read_text())
        assert result["status"] == "SOLVED"
        assert result["certificate"]["passed"] is True

    @pytest.mark.parametrize("seed", [89, 211, 213, 250, 281])
    def test_lq_pmp_certificate_passes_on_random_stable_plants(self, tmp_path, seed):
        # draws whose certificate failed (exit 4) when the free-end system was
        # solved by one unrefined dense LU
        rng = np.random.default_rng(seed)
        A, B, Q, R = random_lq_matrices(rng, 4, 2)
        doc = {
            "horizon": 96,
            "dynamics": {"kind": "lti", "A": A.tolist(), "B": B.tolist()},
            "cost": {"Q": Q.tolist(), "R": R.tolist()},
            "boundary": {"x0": rng.standard_normal(4).tolist()},
            "solver": "lq_pmp",
        }
        inp = _write(tmp_path, "p.json", doc)
        out = str(tmp_path / "r.json")
        assert run(inp, out) == 0
        assert json.loads((tmp_path / "r.json").read_text())["certificate"]["passed"] is True

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

    @pytest.mark.parametrize("case", ["baseline", "diag"])
    def test_unstable_plant_is_solved_at_its_target(self, tmp_path, case):
        A, B, banned, N = unstable_transfer_plant(case)
        n, m = B.shape
        doc = _transfer_doc(
            horizon=N,
            dynamics={"kind": "lti", "A": A.tolist(), "B": B.tolist()},
            cost={"Q": np.eye(n).tolist(), "R": np.eye(m).tolist()},
            boundary={"x0": [0.0] * n, "xf": [1.0] * n},
            banned_frequencies=banned,
        )
        assert run(_write(tmp_path, "p.json", doc), str(tmp_path / "r.json")) == 0
        result = json.loads((tmp_path / "r.json").read_text())
        assert result["status"] == "SOLVED" and result["certificate"]["passed"]
        assert result["trajectory"]["states"][-1] == [1.0] * n
        assert "endpoint_gap" not in result["diagnostics"]

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

    def test_compact_result_parses_like_the_indented_one(self, tmp_path, monkeypatch):
        write, docs = cli._write_result, []

        def spy(path, doc):
            docs.append(doc)
            write(path, doc)

        monkeypatch.setattr(cli, "_write_result", spy)
        out = tmp_path / "r.json"
        assert run(_write(tmp_path, "p.json", _transfer_doc()), str(out)) == 0
        raw = out.read_bytes()
        assert raw.endswith(b"}\n") and raw.count(b"\n") == 1 and b": " not in raw
        indented = json.dumps(docs[0], indent=2, sort_keys=True, default=cli._json_default)
        assert json.loads(raw) == json.loads(indented)

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


# any JSON value, kept small; the floats include NaN and the infinities, which
# json.dumps writes and json.loads reads back
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)
_BUILTIN_SIZES = {"scalar_integrator": (1, 1), "double_integrator": (2, 1), "affine_toy": (1, 1)}


def _or_junk(strategy, other=_JSON):
    """``strategy`` about 19 times in 20, ``other`` (any JSON value) otherwise
    (a middle value picks ``other``: drawing leans on the ends of a range, and
    shrinking moves to 0)."""
    return st.integers(0, 19).flatmap(lambda k: other if k == 10 else strategy)


@st.composite
def _matrix(draw, rows, cols):
    """A rows x cols list of lists: entries mostly in [-10, 10], sometimes any
    float (NaN, the infinities and 1e308 included)."""
    entries = draw(_or_junk(st.just(st.floats(-10, 10)), st.just(st.floats())))
    row = st.lists(entries, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


def _any_matrix():
    return st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(lambda rc: _matrix(*rc))


@st.composite
def _gram(draw, size, shift):
    """G G' + shift I as a list of lists, for a drawn size x size matrix G."""
    g = np.array(draw(_matrix(size, size)), dtype=float).reshape(size, size)
    with np.errstate(all="ignore"):
        return (g @ g.T + shift * np.eye(size)).tolist()


def _stage_set(size):
    vector = _matrix(1, size).map(lambda rows: rows[0])
    return _or_junk(st.one_of(
        st.just("free"),
        st.fixed_dictionaries({"kind": st.just("fixed"), "point": vector}),
        st.fixed_dictionaries({"kind": st.just("box"), "lower": vector, "upper": vector}),
    ))


@st.composite
def _problem_documents(draw):
    """Problem documents whose every field is mostly well formed and sometimes
    any JSON value.  Horizons stay <= 16 and matrices <= 3 x 3, so no run is
    large."""
    builtin = draw(st.sampled_from([None, *sorted(_BUILTIN_SIZES)]))
    if builtin is None:
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        dynamics = {
            "A": draw(_or_junk(_or_junk(_matrix(n, n), _any_matrix()))),
            "B": draw(_or_junk(_or_junk(_matrix(n, m), _any_matrix()))),
        }
        if draw(st.booleans()):
            dynamics["kind"] = draw(_or_junk(st.sampled_from(["lti", "control_affine"])))
    else:
        (n, m), dynamics = _BUILTIN_SIZES[builtin], {"builtin": draw(_or_junk(st.just(builtin)))}
    horizon = draw(_or_junk(st.integers(1, 16)).filter(
        lambda h: isinstance(h, bool) or not isinstance(h, int) or h <= 16
    ))
    size = max(horizon, 1) if isinstance(horizon, int) and not isinstance(horizon, bool) else 1
    solver = draw(_or_junk(st.sampled_from(cli.SOLVERS)))
    vector = _matrix(1, n).map(lambda rows: rows[0])
    boundary = {"x0": draw(_or_junk(vector))}
    if solver in ("transfer", "transfer_freq", "shooting") or draw(st.integers(0, 9)) == 0:
        boundary["xf"] = draw(_or_junk(_or_junk(vector, st.just("free"))))
    doc = {
        "horizon": horizon,
        "dynamics": draw(_or_junk(st.just(dynamics))),
        "cost": draw(_or_junk(st.fixed_dictionaries(
            {"Q": _or_junk(_or_junk(_gram(n, 0.0), _any_matrix())), "R": _or_junk(_gram(m, 1.0))}
        ))),
        "boundary": draw(_or_junk(st.just(boundary))),
        "solver": solver,
    }
    if solver == "transfer_freq" or solver == "shooting" or draw(st.integers(0, 9)) == 0:
        chan = st.lists(st.integers(-1, size), max_size=3)
        doc["banned_frequencies"] = draw(_or_junk(st.lists(chan, min_size=m, max_size=m)))
    if draw(st.integers(0, 3)) == 0:
        doc["options"] = draw(_or_junk(st.fixed_dictionaries({}, optional={
            "tolerance": _or_junk(st.floats(1e-12, 1.0)),
            "newton_tolerance": _or_junk(st.floats(1e-12, 1.0)),
            "max_iterations": _or_junk(st.integers(1, 20)),
        })))
    for key, dim, count in (("state_sets", n, size + 1), ("control_sets", m, size)):
        if draw(st.integers(0, 5)) == 0:
            doc[key] = draw(_or_junk(st.lists(_stage_set(dim), min_size=count, max_size=count)))
    return doc


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_property")


class TestAnyDocument:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=_or_junk(_problem_documents()))
    @example(doc=_transfer_doc(dynamics={"builtin": []}))
    def test_run_ends_in_an_exit_code(self, doc_dir, doc):
        inp, out = doc_dir / "p.json", doc_dir / "r.json"
        inp.write_text(json.dumps(doc))
        # finite entries near 1e308 overflow inside the solve; numpy's warning
        # is not an exception, and the run must still end in an exit code
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run(str(inp), str(out)) in {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("builtin", [[], {}, None])
    def test_non_string_builtin_names_the_field(self, tmp_path, capsys, builtin):
        inp = _write(tmp_path, "p.json", _transfer_doc(dynamics={"builtin": builtin}))
        assert run(inp, str(tmp_path / "r.json")) == 1
        assert "error: dynamics.builtin: must be a string" in capsys.readouterr().err
