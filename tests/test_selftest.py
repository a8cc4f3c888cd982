import json
import math

import dualmod.core as core
import dualmod.symplectic as symplectic
from dualmod.core import DualNumber
from dualmod.selftest import run_selftest


def test_clean_run_passes():
    report = run_selftest(samples=20, seed=0)
    assert report.passed
    assert len(report.checks) >= 15
    assert report.samples == 20 and report.seed == 0
    # appended after the other checks, so their draws are unchanged
    assert report.checks[-1].name == "diff.exact_jacobian_matches_numeric"


def test_checks_cover_every_module():
    report = run_selftest(samples=10, seed=1)
    prefixes = {c.name.split(".")[0] for c in report.checks}
    assert prefixes == {"core", "linalg", "diff", "manifold", "symplectic"}


def test_deterministic_for_fixed_seed():
    a = run_selftest(samples=15, seed=4)
    b = run_selftest(samples=15, seed=4)
    assert a.to_json() == b.to_json()


def test_broken_algebra_is_reported_not_raised(monkeypatch):
    orig = core.mul

    def broken(x, y):
        r = orig(x, y)
        return DualNumber(r.re, r.ze + 1e-6)

    monkeypatch.setattr(core, "mul", broken)
    report = run_selftest(samples=15, seed=0)
    assert not report.passed
    failing = [c.name for c in report.checks if not c.passed]
    assert "core.ring_laws" in failing
    # every check still produced a result despite downstream exceptions
    assert len(report.checks) >= 15


def test_nan_products_fail_their_checks(monkeypatch):
    # a NaN gap used to be skipped by the running maximum, so a check
    # whose every draw was NaN reported worst 0.0 and passed
    monkeypatch.setattr(core, "mul", lambda x, y: DualNumber(math.nan, math.nan))
    report = run_selftest(samples=20, seed=0)
    failing = {c.name: c for c in report.checks if not c.passed}
    for name in ("core.ring_laws", "core.inverse_round_trip", "core.zero_divisors_square_to_zero",
                 "core.norm_submultiplicative", "linalg.apply_matches_realified"):
        assert failing[name].worst is None
        assert failing[name].detail == "ValueError: draw 0 gave a NaN gap"
    json.dumps(report.to_json(), allow_nan=False)


def test_nan_pairing_residual_fails_the_pair_check(monkeypatch):
    nan_report = symplectic.DarbouxReport(False, math.nan, True, True)
    monkeypatch.setattr(symplectic, "verify_darboux", lambda basis, form: nan_report)
    check = next(c for c in run_selftest(samples=20, seed=0).checks
                 if c.name == "symplectic.pair_extraction_round_trip")
    assert not check.passed and check.worst is None
    assert check.detail == "ValueError: draw 0 gave a NaN gap"


def test_report_json_shape():
    data = run_selftest(samples=10, seed=2).to_json()
    assert set(data) == {"passed", "samples", "seed", "tolerance", "checks"}
    for check in data["checks"]:
        assert set(check) == {"name", "passed", "worst", "detail"}
