import json

import numpy as np
import pytest

import dualmod.core as core
import dualmod.linalg as linalg
from dualmod.cli import main
from dualmod.core import DualNumber, basis_vector, sharp_action, vector
from dualmod.diff import DualFunc, coord, re_part
from dualmod.linalg import ModuleMap
from dualmod.manifold import ProjectiveAtlas
from dualmod.symplectic import standard_form


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

    def test_nonpositive_tolerance_rejected(self, capsys):
        for flag in ("--tol=-1e-9", "--tol=0"):
            code, _, err = run(capsys, ["selftest", flag])
            assert code == 2
            assert "tolerance" in err


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
        path = write_json(tmp_path / "atlas.json", ProjectiveAtlas(1, 0).to_json())
        code, out, _ = run(capsys, ["atlas", "--input", path, "--samples", "1"])
        assert code == 0
        checked = {e["axiom"]: e["checked"] for e in json.loads(out)["entries"]}
        assert checked == {"ii": 6, "iii": 1, "iv": 1}


class TestDarboux:
    def test_standard_form_round_trip(self, tmp_path, capsys):
        path = write_json(tmp_path / "form.json", standard_form(1, 1).to_json())
        code, out, _ = run(capsys, ["darboux", "--input", path])
        assert code == 0
        report = json.loads(out)
        assert report["verification"]["passed"] is True
        assert len(report["basis"]["pairs_head"]) == 1
        assert len(report["basis"]["pairs_tail"]) == 1

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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "dualmod" in capsys.readouterr().out
