import dualmod.core as core
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


def test_report_json_shape():
    data = run_selftest(samples=10, seed=2).to_json()
    assert set(data) == {"passed", "samples", "seed", "tolerance", "checks"}
    for check in data["checks"]:
        assert set(check) == {"name", "passed", "worst", "detail"}
