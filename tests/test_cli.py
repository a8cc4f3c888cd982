import copy
import json
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dualmod.core as core
import dualmod.linalg as linalg
from dualmod import cli, diff, sampling
from dualmod.cli import COMMAND_TOL, MAX_SAMPLES, RUNNERS, main
from dualmod.core import DualNumber, basis_vector, sharp_action, vector
from dualmod.diff import MAX_WIDTH, DualFunc, const, coord, inv_expr, re_part, sharp_expr
from dualmod.linalg import ModuleMap
from dualmod.manifold import MAX_CHARTS, ProjectiveAtlas
from dualmod.symplectic import GramForm, standard_form


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""

    def reject(token):
        raise ValueError("%s is not valid JSON" % token)

    return json.loads(text, parse_constant=reject)


class TestSelftest:
    def test_passes_clean(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--samples", "20"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["command"] == "selftest"
        assert report["version"]
        assert len(report["checks"]) >= 15
        assert report["samples"] == 20 and report["seed"] == 0

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, ["selftest", "--samples", "15", "--seed", "3"])
        code2, out2, _ = run(capsys, ["selftest", "--samples", "15", "--seed", "3"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_corrupted_install_detected(self, capsys, monkeypatch):
        orig = core.mul

        def broken(a, b):
            r = orig(a, b)
            return DualNumber(r.re, r.ze + 1e-6)

        monkeypatch.setattr(core, "mul", broken)
        code, out, _ = run(capsys, ["selftest", "--samples", "20"])
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert "core.ring_laws" in failing

    def test_raising_check_reports_null_worst(self, capsys, monkeypatch):
        def broken(generators, tol=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(linalg, "extract_basis", broken)
        code, out, _ = run(capsys, ["selftest", "--samples", "10"])
        assert code == 1
        check = {c["name"]: c for c in strict_json(out)["checks"]}["linalg.extract_basis_dims"]
        assert check["passed"] is False
        assert check["worst"] is None
        assert check["detail"] == "RuntimeError: boom"
        code, out, _ = run(capsys, ["selftest", "--samples", "10", "--format", "text"])
        assert code == 1
        assert "FAIL linalg.extract_basis_dims worst=n/a (RuntimeError: boom)" in out

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--samples", "10", "--format", "text"])
        assert code == 0
        assert "PASS core.ring_laws" in out
        assert "selftest: PASS" in out

    def test_single_sample_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--samples", "1"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_zero_samples_rejected(self, capsys):
        code, _, err = run(capsys, ["selftest", "--samples", "0"])
        assert code == 2
        assert "--samples" in err

    @pytest.mark.parametrize("command", sorted(COMMAND_TOL))
    def test_samples_above_the_bound_rejected(self, capsys, monkeypatch, command):
        # one past the bound, refused before the runner starts: a runner
        # reached would end in the last-resort handler, not exit 2
        monkeypatch.setitem(RUNNERS, command, None)
        code, out, err = run(capsys, [command, "--samples", str(MAX_SAMPLES + 1)])
        assert code == 2 and out == ""
        assert err == "error: --samples must be between 1 and %d, got %d\n" % (MAX_SAMPLES, MAX_SAMPLES + 1)

    def test_nonpositive_tolerance_rejected(self, capsys, monkeypatch):
        # a tolerance that is not finite is bad input too, before any check runs
        for flag in ("--tol=-1e-9", "--tol=0", "--tol=inf", "--tol=1e400"):
            code, _, err = run(capsys, ["selftest", flag])
            assert code == 2
            assert "tolerance" in err
        monkeypatch.setenv("DUALMOD_TOL", "inf")
        code, _, err = run(capsys, ["selftest"])
        assert code == 2
        assert "tolerance" in err

    @pytest.mark.parametrize("command", ["basis", "solve", "diffcheck", "atlas", "darboux", "selftest"])
    def test_tolerance_below_the_zero_floor_rejected(self, tmp_path, capsys, command):
        # below 2**-537 a zero tolerance lets a re part's square underflow;
        # every command refuses it before reading its input
        path = write_json(tmp_path / "input.json", {})
        for flag in ("--tol=1e-300", "--tol=%r" % float(np.nextafter(2.0**-537, 0.0))):
            code, out, err = run(capsys, [command, "--input", path, flag])
            assert code == 2 and out == ""
            assert err.startswith("error: tolerance must be finite and at least 2**-537")
        code, _, err = run(capsys, ["basis", "--input", path, "--tol=%r" % 2.0**-537])
        assert code == 2 and "generators" in err  # the tolerance passed; the input did not


class TestBasis:
    def test_reduces_generators(self, tmp_path, capsys):
        e = basis_vector(2, 1, 0)
        doc = {"generators": [e.to_json(), sharp_action(e).to_json()]}
        path = write_json(tmp_path / "gens.json", doc)
        code, out, _ = run(capsys, ["basis", "--input", path])
        assert code == 0
        report = json.loads(out)
        assert report["dims"] == [1, 0]
        assert len(report["S1"]) == 1 and report["S2"] == []

    def test_missing_input_flag(self, capsys):
        code, _, err = run(capsys, ["basis"])
        assert code == 2
        assert "requires --input" in err

    def test_bad_json_diagnoses_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"generators": [\n  nope\n]}')
        code, _, err = run(capsys, ["basis", "--input", str(path)])
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["basis", "--input", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in err

    def test_mixed_shapes_rejected(self, tmp_path, capsys):
        doc = {
            "generators": [
                basis_vector(2, 1, 0).to_json(),
                basis_vector(1, 1, 0).to_json(),
            ]
        }
        path = write_json(tmp_path / "gens.json", doc)
        code, _, err = run(capsys, ["basis", "--input", path])
        assert code == 2
        assert "shape" in err


    def test_overflowing_elimination_exits_one(self, tmp_path, capsys):
        doc = {
            "generators": [
                {"n": 2, "m": 0, "head": [[1.7e308, 1.7e308], [1.7e308, 0]], "tail": []},
                {"n": 2, "m": 0, "head": [[-1.7e308, 1e308], [1.7e308, 1.7e308]], "tail": []},
            ]
        }
        path = write_json(tmp_path / "gens.json", doc)
        code, out, err = run(capsys, ["basis", "--input", path])
        assert code == 1 and err == ""
        report = strict_json(out)
        assert "overflow" in report["error"] and "S1" not in report
        code, out, _ = run(capsys, ["basis", "--input", path, "--format", "text"])
        assert code == 1 and "basis: FAIL (" in out


class TestSolve:
    def test_solves_scalar_equation(self, tmp_path, capsys):
        lam = ModuleMap.scalar(1, 1, DualNumber(2.0, 1.0))
        rhs = vector([DualNumber(4.0, 0.0)], [6.0])
        path = write_json(
            tmp_path / "eq.json", {"map": lam.to_json(), "rhs": rhs.to_json()}
        )
        code, out, _ = run(capsys, ["solve", "--input", path])
        assert code == 0
        report = json.loads(out)
        assert report["solvable"] is True
        assert report["residual"] <= 1e-9
        sol = core.DualVector.from_json(report["solution"])
        assert sol.head[0].re == pytest.approx(2.0)
        assert sol.head[0].ze == pytest.approx(-1.0)
        assert sol.tail[0] == pytest.approx(3.0)

    def test_norms_near_float_limit_stay_finite(self, tmp_path, capsys):
        # |rhs| and the residual (about 1e285) overflow a plain sum of squares
        doc = {
            "map": {
                "n": 2, "m": 0, "s": 2, "t": 0,
                "C": [[[1.7e308, 1.7e308], [1.7e308, 0]], [[1.7e308, 0], [-1.7e308, 1.7e308]]],
                "P": [[], []], "D": [], "Q": [],
            },
            "rhs": {"n": 2, "m": 0, "head": [[1e300, 1e300], [1e300, -1e300]], "tail": []},
        }
        path = write_json(tmp_path / "eq.json", doc)
        code, out, err = run(capsys, ["solve", "--input", path])
        assert code == 0 and err == ""
        report = strict_json(out)
        assert report["solvable"] is True
        assert 0.0 < report["residual"] <= 1e-14 * 1e300

    def test_unsolvable_exits_one(self, tmp_path, capsys):
        lam = ModuleMap.sharp_map(1, 0)
        rhs = vector([DualNumber(1.0, 0.0)], [])
        path = write_json(
            tmp_path / "eq.json", {"map": lam.to_json(), "rhs": rhs.to_json()}
        )
        code, out, _ = run(capsys, ["solve", "--input", path])
        assert code == 1
        report = json.loads(out)
        assert report["solvable"] is False
        assert "residual" in report["error"]

    def test_missing_fields(self, tmp_path, capsys):
        path = write_json(tmp_path / "eq.json", {"map": {}})
        code, _, err = run(capsys, ["solve", "--input", path])
        assert code == 2

    def test_fractional_shapes_rejected(self, tmp_path, capsys):
        lam = ModuleMap.scalar(1, 0, DualNumber(2.0, 0.0)).to_json()
        rhs = vector([DualNumber(4.0, 0.0)], []).to_json()
        for shape in ({"n": 1.5, "s": 1.9}, {"m": 0.0}, {"t": True}):
            path = write_json(tmp_path / "eq.json", {"map": dict(lam, **shape), "rhs": rhs})
            code, out, err = run(capsys, ["solve", "--input", path])
            assert code == 2, shape
            assert out == "" and err.startswith("error: ")


class TestDiffcheck:
    def test_square_function_passes(self, tmp_path, capsys):
        x = coord("head", 0)
        func = DualFunc((1, 0), (1, 0), (x * x,))
        path = write_json(tmp_path / "f.json", {"function": func.to_json()})
        code, out, _ = run(
            capsys, ["diffcheck", "--input", path, "--samples", "10"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert report["checked"] == 10
        assert report["points_supplied"] is False

    def test_projection_fails(self, tmp_path, capsys):
        func = DualFunc((1, 0), (1, 0), (re_part(coord("head", 0)),))
        doc = {
            "function": func.to_json(),
            "points": [vector([DualNumber(0.4, 0.8)], []).to_json()],
        }
        path = write_json(tmp_path / "f.json", doc)
        code, out, _ = run(capsys, ["diffcheck", "--input", path])
        assert code == 1
        report = json.loads(out)
        assert report["all_passed"] is False
        assert report["entries"][0]["passed"] is False
        assert report["entries"][0]["residuals"]["ze_match"] > 0.5

    def test_overflowing_point_is_an_error(self, tmp_path, capsys):
        x = coord("head", 0)
        func = DualFunc((2, 0), (1, 0), (x * x * x,))
        doc = {
            "function": func.to_json(),
            "points": [vector([DualNumber(1e200, 0.0), DualNumber(0.0, 0.0)], []).to_json()],
        }
        path = write_json(tmp_path / "f.json", doc)
        code, out, err = run(capsys, ["diffcheck", "--input", path])
        assert code == 1
        assert err == ""
        entry = strict_json(out)["entries"][0]
        assert entry["passed"] is False
        assert "not finite" in entry["error"]
        assert "residuals" not in entry

    def test_overflowing_residual_is_an_error(self, tmp_path, capsys):
        # finite Jacobian, but its ze_match residual overflows to inf
        x = coord("head", 0)
        c = const(1e308)
        func = DualFunc((1, 0), (1, 0), (c * re_part(x) - c * (x - re_part(x)),))
        doc = {
            "function": func.to_json(),
            "points": [vector([DualNumber(0.5, 0.1)], []).to_json()],
        }
        path = write_json(tmp_path / "f.json", doc)
        code, out, err = run(capsys, ["diffcheck", "--input", path])
        assert code == 1
        assert err == ""
        entry = strict_json(out)["entries"][0]
        assert entry["passed"] is False
        assert "residuals at the point are not finite" in entry["error"]

    def test_bad_function_rejected(self, tmp_path, capsys):
        square = DualFunc((1, 0), (1, 0), (coord("head", 0) * coord("head", 0),)).to_json()
        for func in (
            dict(square, components=[coord("head", 3).to_json()]),
            dict(square, components=[coord("tail", 0).to_json()]),
            dict(square, domain=[1.5, 0]),
            dict(square, codomain=[1.0, 0]),
        ):
            path = write_json(tmp_path / "f.json", {"function": func})
            code, _, err = run(capsys, ["diffcheck", "--input", path])
            assert code == 2, func
            assert err.startswith("error: ")

    def test_tolerance_from_environment(self, tmp_path, capsys, monkeypatch):
        x = coord("head", 0)
        func = DualFunc((1, 0), (1, 0), (x * x,))
        path = write_json(tmp_path / "f.json", {"function": func.to_json()})
        monkeypatch.setenv("DUALMOD_TOL", "0.25")
        code, out, _ = run(
            capsys, ["diffcheck", "--input", path, "--samples", "5"]
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == 0.25

    def test_flag_beats_environment(self, tmp_path, capsys, monkeypatch):
        x = coord("head", 0)
        func = DualFunc((1, 0), (1, 0), (x * x,))
        path = write_json(tmp_path / "f.json", {"function": func.to_json()})
        monkeypatch.setenv("DUALMOD_TOL", "0.25")
        code, out, _ = run(
            capsys,
            ["diffcheck", "--input", path, "--samples", "5", "--tol", "1e-3"],
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-3

    def test_bad_environment_tolerance(self, tmp_path, capsys, monkeypatch):
        x = coord("head", 0)
        func = DualFunc((1, 0), (1, 0), (x * x,))
        path = write_json(tmp_path / "f.json", {"function": func.to_json()})
        monkeypatch.setenv("DUALMOD_TOL", "lots")
        code, _, err = run(capsys, ["diffcheck", "--input", path])
        assert code == 2
        assert "DUALMOD_TOL" in err


    def test_no_points_exits_one(self, tmp_path, capsys):
        func = DualFunc((1, 1), (1, 0), (coord("head", 0),))
        path = write_json(tmp_path / "f.json", {"function": func.to_json(), "points": []})
        code, out, err = run(capsys, ["diffcheck", "--input", path])
        assert (code, err) == (1, "")
        report = strict_json(out)
        assert report["checked"] == 0 and report["entries"] == []
        assert report["all_passed"] is False and report["points_supplied"] is True

    def test_misshapen_point_exits_two(self, tmp_path, capsys):
        func = DualFunc((1, 0), (1, 0), (coord("head", 0),))
        points = [vector([DualNumber(0.5, 0.0)], []), vector([DualNumber(0.5, 0.0)], [1.0])]
        doc = {"function": func.to_json(), "points": [p.to_json() for p in points]}
        code, out, err = run(capsys, ["diffcheck", "--input", write_json(tmp_path / "f.json", doc)])
        assert (code, out) == (2, "")
        assert "point shape (1, 1) does not match domain (1, 0)" in err

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_points_are_the_first_that_evaluate(self, tmp_path, capsys, seed):
        # a zero tolerance of 0.3 makes about two draws in three singular
        x, y = coord("head", 0), coord("head", 1)
        comps = (inv_expr(x), inv_expr(x + y) * y, sharp_expr(inv_expr(y)) + coord("tail", 0))
        func = DualFunc((2, 1), (2, 1), comps)
        path = write_json(tmp_path / "f.json", {"function": func.to_json()})
        core.set_default_tol(0.3)
        try:
            code, out, _ = run(capsys, ["diffcheck", "--input", path, "--samples", "7", "--seed", str(seed)])
            rng, want = sampling.rng_from(seed), []
            while len(want) < 7:
                point = sampling.random_vector(rng, 2, 1)
                try:
                    diff.eval_func(func, point)
                except (core.NotInvertible, diff.EvaluationFailed):
                    continue
                want.append(point.to_json())
        finally:
            core.set_default_tol(core.DEFAULT_TOL)
        assert code in (0, 1)
        assert [e["point"] for e in strict_json(out)["entries"]] == want

    def test_failing_everywhere_draws_fifty_chunks(self, tmp_path, capsys, monkeypatch):
        # the tail output x is a zero divisor only where re x is 0
        func = DualFunc((1, 0), (0, 1), (coord("head", 0),))
        path = write_json(tmp_path / "f.json", {"function": func.to_json()})
        rows, screen = [], diff._eval_batch

        def counting(f, points):
            rows.append(len(points))
            return screen(f, points)

        monkeypatch.setattr(diff, "_eval_batch", counting)
        code, out, _ = run(capsys, ["diffcheck", "--input", path, "--samples", "4"])
        assert code == 1 and strict_json(out)["checked"] == 0
        assert rows == [4] * 50


class TestAtlas:
    def test_standard_atlas_passes(self, tmp_path, capsys):
        path = write_json(tmp_path / "atlas.json", ProjectiveAtlas(1, 0).to_json())
        code, out, _ = run(
            capsys, ["atlas", "--input", path, "--samples", "10"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert {e["axiom"] for e in report["entries"]} == {"ii", "iii", "iv"}

    def test_bad_atlas_rejected(self, tmp_path, capsys):
        x = coord("head", 0)
        widen = DualFunc((1, 0), (2, 0), (x, x)).to_json()
        ident = DualFunc((1, 0), (1, 0), (x,)).to_json()
        everywhere = {"op": "const", "value": [1.0, 0.0]}
        past_end = dict(ident, components=[coord("head", 3).to_json()])
        for doc in (
            {"wrong": True},
            {"n": -1, "m": 1},
            {"n": 1, "m": 1, "charts": [{"i": 5, "j": 0}]},
            {"n": 1, "m": 1, "charts": [{"i": 0}]},
            {
                "charts": [
                    {"forward": ident, "inverse": ident, "domain": everywhere},
                    {"forward": widen, "inverse": widen, "domain": everywhere},
                ]
            },
            {"n": 1.7, "m": 1, "charts": [{"i": 1.9, "j": 0}]},
            {"n": 1, "m": 1.0},
            {"n": 1, "m": 1, "charts": [{"i": 0, "j": 1.0}]},
            {"charts": [{"forward": past_end, "inverse": ident, "domain": everywhere}]},
            {"charts": [{"forward": ident, "inverse": ident, "domain": coord("head", 1).to_json()}]},
        ):
            path = write_json(tmp_path / "atlas.json", doc)
            code, _, err = run(capsys, ["atlas", "--input", path])
            assert code == 2, doc
            assert err.startswith("error: ")

    def test_entries_count_evidence(self, tmp_path, capsys):
        # one sample is one image: iii compared no pair, so it fails
        path = write_json(tmp_path / "atlas.json", ProjectiveAtlas(1, 0).to_json())
        code, out, _ = run(capsys, ["atlas", "--input", path, "--samples", "1"])
        assert code == 1
        entries = {e["axiom"]: e for e in json.loads(out)["entries"]}
        assert {k: e["checked"] for k, e in entries.items()} == {"ii": 6, "iii": 1, "iv": 1}
        assert [k for k, e in entries.items() if not e["passed"]] == ["iii"]
        assert entries["iii"]["witness"] == {"error": "fewer than two chart images to compare"}


class TestDarboux:
    def test_standard_form_round_trip(self, tmp_path, capsys):
        path = write_json(tmp_path / "form.json", standard_form(1, 1).to_json())
        code, out, _ = run(capsys, ["darboux", "--input", path])
        assert code == 0
        report = json.loads(out)
        assert report["verification"]["passed"] is True
        assert len(report["basis"]["pairs_head"]) == 1
        assert len(report["basis"]["pairs_tail"]) == 1

    def test_small_asymmetric_form_exits_one_at_the_form_report(self, tmp_path, capsys):
        form = GramForm(2, 0, [[0.0, 1e-20], [3e-20, 0.0]], np.zeros((2, 2)))
        path = write_json(tmp_path / "form.json", form.to_json())
        code, out, _ = run(capsys, ["darboux", "--input", path])
        assert code == 1
        report = json.loads(out)
        assert "basis" not in report and "error" not in report
        failed = [c["name"] for c in report["form_report"]["checks"] if not c["passed"]]
        assert failed == ["antisymmetric"]

    def test_degenerate_form_exits_one(self, tmp_path, capsys):
        form = standard_form(1, 1)
        doc = form.to_json()
        size = 4
        # kill the head pairing: every re entry becomes zero
        doc["G"] = [
            [[0.0, form.g_ze[a][b]] for b in range(size)] for a in range(size)
        ]
        path = write_json(tmp_path / "form.json", doc)
        code, out, _ = run(capsys, ["darboux", "--input", path])
        assert code == 1
        report = json.loads(out)
        failed = [
            c["name"] for c in report["form_report"]["checks"] if not c["passed"]
        ]
        assert "head_block_nondegenerate" in failed

    @pytest.mark.parametrize("pairing", [[1.7e308, 0], [1e-320, 1e-320]], ids=["re", "dual"])
    def test_gram_near_float_limit_exits_one(self, tmp_path, capsys, pairing):
        # [1.7e308, 0] twice is not antisymmetric and its check sum
        # overflows; the antisymmetric dual pairing of 1e-320 has a dual
        # inverse, the member f, beyond the largest float
        below = [-x for x in pairing] if pairing[1] else pairing
        doc = {"N": 2, "M": 0, "G": [[[0, 0], pairing], [below, [0, 0]]]}
        path = write_json(tmp_path / "form.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["darboux", "--input", path])
        assert code == 1 and err == ""
        report = strict_json(out)
        anti = report["form_report"]["checks"][0]
        if pairing[1]:
            assert anti["passed"] and "overflows" in report["error"]
        else:
            assert not anti["passed"] and anti["residual"] == 1.7976931348623157e308
            assert "basis" not in report

    def test_dual_pairing_near_the_largest_float_passes(self, tmp_path, capsys):
        # the pairing runs on the form scaled to unit size, so its inverse
        # does not overflow on the way to the subnormal member f
        pairing = [1.7e308, 1.7e308]
        doc = {"N": 2, "M": 0, "G": [[[0, 0], pairing], [[-x for x in pairing], [0, 0]]]}
        path = write_json(tmp_path / "form.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["darboux", "--input", path])
        assert code == 0 and err == ""
        assert strict_json(out)["verification"]["passed"]

    def test_malformed_form_exits_two(self, tmp_path, capsys):
        form = standard_form(1, 1).to_json()
        for doc in ({"N": 2, "M": 0}, dict(form, N=2.6), dict(form, M=2.0)):
            path = write_json(tmp_path / "form.json", doc)
            code, _, err = run(capsys, ["darboux", "--input", path])
            assert code == 2, doc
            assert err.startswith("error: ")


def _nested_sum(levels):
    """JSON text of x + x + ... on domain (1, 0), nested levels deep; built
    as text because the json encoder recurses too."""
    leaf = json.dumps(coord("head", 0).to_json())
    text = leaf
    for _ in range(levels):
        text = '{"op": "add", "args": [%s, %s]}' % (text, leaf)
    return text


_FUNCTION = '{"function": {"domain": [1, 0], "codomain": [1, 0], "components": [%s]}}'


class TestDeepInput:
    def _run(self, tmp_path, capsys, command, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        return run(capsys, [command, "--input", str(path), "--samples", "2"])

    @pytest.mark.parametrize("command", ["diffcheck", "atlas"])
    def test_too_deep_exits_two(self, tmp_path, capsys, command):
        if command == "diffcheck":
            text = _FUNCTION
        else:
            ident = json.dumps(DualFunc((1, 0), (1, 0), (coord("head", 0),)).to_json())
            text = '{"charts": [{"forward": %s, "inverse": %s, "domain": %%s}]}' % (ident, ident)
        code, out, err = self._run(tmp_path, capsys, command, text % _nested_sum(1500))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "nests too deeply" in err
        assert "Traceback" not in err

    def test_moderate_depth_still_runs(self, tmp_path, capsys):
        code, out, _ = self._run(tmp_path, capsys, "diffcheck", _FUNCTION % _nested_sum(450))
        assert code == 0
        assert json.loads(out)["all_passed"] is True


def _nonfinite_doc(case):
    """A valid input with one number replaced by a non-finite token."""
    gens = {"generators": [basis_vector(1, 1, 0).to_json()]}
    lam = ModuleMap.scalar(1, 1, DualNumber(2.0, 1.0))
    rhs = vector([DualNumber(4.0, 0.0)], [6.0]).to_json()
    if case == "nan_rhs":
        rhs["head"][0][0] = float("nan")
        return "solve", json.dumps({"map": lam.to_json(), "rhs": rhs})
    if case == "nan_gram":
        form = standard_form(1, 1).to_json()
        form["G"][0][1][0] = float("nan")
        return "darboux", json.dumps(form)
    token = {"inf_generator": "Infinity", "huge_float": "1e400", "huge_int": "7" * 400}
    gens["generators"][0]["tail"][0] = "TOKEN"
    return "basis", json.dumps(gens).replace('"TOKEN"', token[case])


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "case", ["nan_rhs", "inf_generator", "nan_gram", "huge_float", "huge_int"]
    )
    def test_rejected_at_parse_time(self, tmp_path, capsys, case):
        command, text = _nonfinite_doc(case)
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run(capsys, [command, "--input", str(path)])
        assert code == 2
        assert out == ""
        assert "is not a finite number" in err


class TestBadInputBeforeNumpy:
    """Input that is not JSON, or holds a non-finite number, is refused
    before any numpy-backed module loads; only a fresh process shows it."""

    @pytest.mark.parametrize("case", ["truncated", "nan_rhs"])
    def test_exits_2_without_importing_numpy(self, tmp_path, capsys, case):
        command, text = ("basis", '{"generators": [{"n": 1') if case == "truncated" else _nonfinite_doc(case)
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = [command, "--input", str(path)]
        code, _, err = run(capsys, argv)
        assert code == 2
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "dualmod.cli"] + argv,
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == err.splitlines()
        imported = [
            line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")
        ]
        assert not [name for name in imported if name.split(".")[0] == "numpy"]


class TestOutputHandling:
    def test_output_file_matches_stdout(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["selftest", "--samples", "10", "--output", str(out_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        written = out_path.read_text()
        code2, stdout, _ = run(capsys, ["selftest", "--samples", "10"])
        assert code2 == 0
        assert written == stdout

    def test_report_is_sorted_json(self, capsys):
        _, out, _ = run(capsys, ["selftest", "--samples", "5"])
        report = json.loads(out)
        assert list(report.keys()) == sorted(report.keys())

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_unexpected_exception_is_one_internal_error_line(self, capsys, monkeypatch):
        def broken(args, tol):
            raise RuntimeError("not for the user")

        monkeypatch.setitem(cli.RUNNERS, "basis", broken)
        assert run(capsys, ["basis"]) == (1, "", "error: internal: RuntimeError\n")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "dualmod" in capsys.readouterr().out


class TestEmit:
    def test_non_finite_payload_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.RUNNERS, "basis", lambda args, tol: {"value": float("nan")})
        code, out, err = run(capsys, ["basis"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_finite_payload_is_not_written_to_a_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli.RUNNERS, "basis", lambda args, tol: {"value": float("inf")})
        target = tmp_path / "report.json"
        code, out, err = run(capsys, ["basis", "--output", str(target)])
        assert code == 1 and out == "" and err.startswith("error: ")
        assert not target.exists()

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, capsys):
        target = tmp_path / "out"  # a directory, so the final rename fails
        target.mkdir()
        code, out, err = run(capsys, ["basis", "--input", os.path.join(GOLDEN, "basis.input.json"), "--output", str(target)])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["out"] and os.listdir(target) == []


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# golden input -> subcommand and its arguments, small enough for many runs
GOLDEN_RUNS = {
    "atlas": ["atlas", "--samples", "3", "--seed", "2"],
    "basis": ["basis"],
    "darboux": ["darboux"],
    "diffcheck": ["diffcheck", "--samples", "4", "--seed", "3"],
    "diffcheck_fail": ["diffcheck", "--samples", "3", "--seed", "1"],
    "solve": ["solve"],
}


def golden_input(name):
    with open(os.path.join(GOLDEN, name + ".input.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_doc(capsys, tmp_path, name, doc):
    return run(capsys, GOLDEN_RUNS[name] + ["--input", write_json(tmp_path / "in.json", doc)])


class TestSeed:
    @pytest.mark.parametrize("command", ["atlas", "diffcheck", "selftest"])
    def test_negative_seed_exits_two(self, capsys, command):
        argv = [command, "--seed", "-1"]
        if command != "selftest":
            argv += ["--input", os.path.join(GOLDEN, command + ".input.json")]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: --seed must be at least 0, got -1\n"


def _nodes(node, path=()):
    """Every (path, node) under node, the root included; a path lists the
    keys and indices from the root."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    """A copy of doc with the node at path replaced by value."""
    if not path:
        return copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    _parent(doc, path)[path[-1]] = value
    return doc


def _malformed_cases():
    solve, diffcheck = golden_input("solve"), golden_input("diffcheck")
    cell = ("map", "C", 0, 0)
    slot = next(p for p, e in _nodes(diffcheck) if isinstance(e, dict) and e.get("op") == "coord") + ("slot",)
    # case -> golden input, its malformed copy, and a fragment of the error
    return {
        "C cell too short": ("solve", _set(solve, cell, [1.0]), "map field 'C'"),
        "C cell a string": ("solve", _set(solve, cell, "12"), "map field 'C'"),
        "rhs tail a string": ("solve", _set(solve, ("rhs", "tail"), ["0.5"]), "vector tail"),
        "negative map width": ("solve", _set(solve, ("map", "m"), -1), "m must be a nonnegative integer"),
        "C leaf true": ("solve", _set(solve, cell, [True, 0.0]), "map field 'C'"),
        "C leaf null": ("solve", _set(solve, cell, [None, 0.0]), "map field 'C'"),
        "C cell of three": ("solve", _set(solve, cell, [1.0, 2.0, 99.0]), "map field 'C'"),
        "coord slot false": ("diffcheck", _set(diffcheck, slot, False), "coord slot must be a nonnegative integer"),
        # one past the width bound, so nothing large is built if the check fails
        "domain too wide": ("diffcheck", _set(diffcheck, ("function", "domain"), [1, MAX_WIDTH - 1]), "above the bound 1024"),
        "chart a string": ("atlas", {"charts": ["forward inverse domain"]}, "chart must be an object"),
        # refused by the size checks before any chart is listed or built
        "projective space too large": ("atlas", {"n": 2**40, "m": 1}, "above the bound %d" % MAX_CHARTS),
        "too many charts": ("atlas", {"charts": ["not a chart"] * (MAX_CHARTS + 1)}, "above the bound %d" % MAX_CHARTS),
    }


class TestMalformedInput:
    """Inputs that once ended in a traceback, a silent exit 0 or a
    misleading message: each is bad input, exit 2, with one error line
    naming what is wrong and no report."""

    @pytest.mark.parametrize("case", sorted(_malformed_cases()))
    def test_exits_two_with_one_error_line(self, tmp_path, capsys, case):
        name, doc, fragment = _malformed_cases()[case]
        code, out, err = run_doc(capsys, tmp_path, name, doc)
        assert code == 2, err
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err, err


# replacement values for the mutation fuzz; no number exceeds 8, since a
# large dimension is a valid input that can take unbounded time or memory
FUZZ_POOL = (
    None, True, False, 0, 1, -1, -7, 1.5, "x", "12",
    [], [1], [1.0, 2.0, 3.0], {}, {"op": "const"}, [[1.0]],
)


def mutations(doc, rng, count):
    """count (description, document) pairs, each doc with one node replaced
    by a FUZZ_POOL value or one object field deleted."""
    nodes = list(_nodes(doc))
    fields = [path for path, _ in nodes if path and isinstance(_parent(doc, path), dict)]
    for _ in range(count):
        if fields and rng.random() < 0.2:
            path = rng.choice(fields)
            mutated = copy.deepcopy(doc)
            del _parent(mutated, path)[path[-1]]
            yield "delete %r" % (path,), mutated
        else:
            path, _ = rng.choice(nodes)
            value = rng.choice(FUZZ_POOL)
            yield "set %r to %r" % (path, value), _set(doc, path, value)


class TestMutationFuzz:
    """Golden inputs with one node replaced or one field deleted: whatever
    the mutation, main returns 0, 1 or 2 without raising or reaching its
    last-resort handler, a report is strict JSON, and bad input gets one
    error line."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_mutated_golden_input(self, tmp_path, capsys, name):
        rng = random.Random(name)
        failures = []
        for what, doc in mutations(golden_input(name), rng, 100):
            try:
                code, out, err = run_doc(capsys, tmp_path, name, doc)
                assert code in (0, 1, 2), code
                assert "error: internal:" not in err, err
                if code == 2:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
                else:
                    strict_json(out)
            except Exception as exc:  # noqa: BLE001 - every escape is a finding
                failures.append("%s: %s: %s" % (what, type(exc).__name__, exc))
        assert failures == []
