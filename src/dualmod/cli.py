"""Command line front end.

Subcommands:

    selftest   run the installed-package sanity checks
    basis      reduce generators from a JSON file to a split basis
    solve      solve a module-map equation from a JSON file
    diffcheck  run the derivative block test on a function at sample points
    atlas      verify the axioms of an atlas description
    darboux    validate a Gram form and extract a normalized pair basis

diffcheck samples --samples points unless --input lists them: it screens
random_rows's candidates --samples at a time, in one batch each, and keeps
the first --samples where the function evaluates, from 50 x --samples at
most.  One batched block test then covers all points.  The finite-difference
numeric_jacobian is only an oracle, for the selftest and the tests.

Exit codes: 0 success, 1 a mathematical check failed or a computation could
not complete, 2 bad usage or unreadable input.  Any other exception is a
defect: it exits 1 with one "error: internal: <type>" line, not a
traceback.  Sizes are bounded, each checked as it is read, so a larger
one is bad input (exit 2) and nothing is built for it: a function's
realified domain width 2n + m is at most diff.MAX_WIDTH (1,024), an
atlas's chart count, and for a standard atlas (n + 1)(m + 1), at most
manifold.MAX_CHARTS (256), and --samples at most MAX_SAMPLES (10,000).
Reports are deterministic for a fixed seed: keys are sorted and no
timestamps are embedded.

The working tolerance is taken from --tol when given, else from the
DUALMOD_TOL environment variable, else from a per-command default (1e-4 for
the two derivative-based commands, 1e-9 otherwise).  It must be finite and
at least 2**-537, the floor core sets for a zero tolerance.

No numpy-backed module is imported here: each runner imports the modules
it uses once its input is read, so a subcommand's process loads only its
own modules and input that is not JSON, or holds NaN or Infinity, exits 2
before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile

from dualmod import __version__

COMMAND_TOL = {
    "selftest": 1e-9,
    "basis": 1e-9,
    "solve": 1e-9,
    "diffcheck": 1e-4,
    "atlas": 1e-4,
    "darboux": 1e-9,
}

# The largest --samples: diffcheck screens up to 50 x --samples candidate
# points and checks --samples of them in one batch, the selftest draws
# --samples cases per sampled check, and verify_atlas draws up to
# --samples points per chart pair.
MAX_SAMPLES = 10_000


class UsageFailure(Exception):
    """Bad input data or invocation: exit code 2."""


class ReportNotFinite(Exception):
    """The report holds a NaN or an infinity, so it is not JSON: exit code 1."""


class MathFailure(Exception):
    """A computation or check failed: exit code 1; carries a payload."""

    def __init__(self, payload):
        super().__init__("check failed")
        self.payload = payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualmod",
        description="Split-vector algebra toolkit: bases, solving, "
        "derivative checks, atlases, and pair-basis extraction.",
    )
    parser.add_argument(
        "--version", action="version", version="dualmod " + __version__
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "selftest": "run end-to-end sanity checks on the installed package",
        "basis": "reduce the generators in --input to a split basis",
        "solve": "solve map(v) = rhs for the map and rhs in --input",
        "diffcheck": "run the derivative block test on the function in --input",
        "atlas": "verify openness, injectivity, and transition smoothness",
        "darboux": "validate a Gram form and extract normalized pairs",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--input", help="path to the JSON input document")
        sp.add_argument("--output", help="write the report here instead of stdout")
        sp.add_argument(
            "--tol",
            type=float,
            default=None,
            help="working tolerance (default: DUALMOD_TOL or a per-command value)",
        )
        sp.add_argument(
            "--samples", type=int, default=100, help="sample count for randomized checks"
        )
        sp.add_argument("--seed", type=int, default=0, help="random seed")
        sp.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="report format (default json)",
        )
    return parser


def _resolve_tol(args) -> float:
    if args.tol is not None:
        tol = args.tol
    else:
        env = os.environ.get("DUALMOD_TOL")
        if env is None:
            return COMMAND_TOL[args.command]
        try:
            tol = float(env)
        except ValueError:
            raise UsageFailure("DUALMOD_TOL must be a number, got %r" % env)
    if not 2.0**-537 <= tol < math.inf:  # core._valid_tol's test, before numpy loads
        raise UsageFailure("tolerance must be finite and at least 2**-537, got %g" % tol)
    return tol


def _load_input(args) -> dict:
    if not args.input:
        raise UsageFailure("command %r requires --input" % args.command)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageFailure("cannot read %s: %s" % (args.input, exc.strerror or exc))

    def finite(parse):  # json.loads hook: NaN, Infinity and 1e400 are bad input
        def number(token):
            if math.isfinite(float(token)):
                return parse(token)
            raise UsageFailure("%s: %.20s is not a finite number" % (args.input, token))

        return number

    num, whole = finite(float), finite(int)
    try:
        return json.loads(text, parse_constant=num, parse_float=num, parse_int=whole)
    except json.JSONDecodeError as exc:
        raise UsageFailure(
            "%s: line %d column %d: %s" % (args.input, exc.lineno, exc.colno, exc.msg)
        )
    except RecursionError:
        raise UsageFailure("%s: input nests too deeply" % args.input) from None


def _parse(args, read, *params):
    """read(*params); input it rejects or that nests too deeply is bad input."""
    try:
        return read(*params)
    except (ValueError, TypeError) as exc:
        raise UsageFailure(str(exc))
    except RecursionError:
        raise UsageFailure("%s: input nests too deeply" % args.input) from None


def _vectors_from(args, data, key) -> list:
    import dualmod.core as core

    (items,) = _parse(args, core.json_fields, data, "input", (key,))
    items = _parse(args, core.json_list, items, "input field %r" % key)
    try:
        return [core.DualVector.from_json(item) for item in items]
    except (ValueError, TypeError) as exc:
        raise UsageFailure("bad vector in %r: %s" % (key, exc))


def _run_selftest(args, tol):
    import dualmod.selftest as selftest

    report = selftest.run_selftest(samples=args.samples, seed=args.seed, tol=tol)
    payload = report.to_json()
    if not report.passed:
        raise MathFailure(payload)
    return payload


def _run_basis(args, tol):
    data = _load_input(args)
    import dualmod.core as core
    import dualmod.linalg as linalg

    gens = _vectors_from(args, data, "generators")
    try:
        basis = linalg.extract_basis(gens, tol=tol)
    except core.ShapeMismatch as exc:
        raise UsageFailure(str(exc))
    except linalg.NumericalBreakdown as exc:
        raise MathFailure({"error": str(exc)})
    payload = basis.to_json()
    payload["dims"] = [len(basis.s1), len(basis.s2)]
    return payload


def _run_solve(args, tol):
    data = _load_input(args)
    import dualmod.core as core
    import dualmod.linalg as linalg

    lam, rhs = _parse(args, core.json_fields, data, "input", ("map", "rhs"))
    lam = _parse(args, linalg.ModuleMap.from_json, lam)
    rhs = _parse(args, core.DualVector.from_json, rhs)
    try:
        sol = linalg.solve(lam, rhs, tol=tol)
    except core.ShapeMismatch as exc:
        raise UsageFailure(str(exc))
    except linalg.NoSolution as exc:
        raise MathFailure({"solvable": False, "error": str(exc)})
    residual = linalg.residual_norm(lam, sol, rhs)
    return {
        "solvable": True,
        "solution": sol.to_json(),
        "residual": residual,
    }


def _diffcheck_points(args, data, func):
    """The points to check as realified rows, and whether the input
    supplied them; see the module docstring for how points are sampled."""
    import numpy as np

    import dualmod.diff as diff
    import dualmod.sampling as sampling

    n, m = func.domain
    width = 2 * n + m
    if "points" in data:
        points = _vectors_from(args, data, "points")
        for x in points:
            if x.shape != func.domain:
                raise UsageFailure("point shape %r does not match domain %r" % (x.shape, func.domain))
        return np.array([x.array for x in points]).reshape(len(points), width), True
    rng = sampling.rng_from(args.seed)
    kept = np.empty((0, width))
    for _ in range(50):
        rows = sampling.random_rows(rng, n, m, args.samples)
        kept = np.concatenate([kept, rows[~diff._eval_batch(func, rows)[1]]])
        if len(kept) >= args.samples:
            break
    return kept[: args.samples], False


def _run_diffcheck(args, tol):
    data = _load_input(args)
    import dualmod.core as core
    import dualmod.diff as diff
    import dualmod.linalg as linalg

    (func,) = _parse(args, core.json_fields, data, "input", ("function",))
    func = _parse(args, diff.DualFunc.from_json, func)
    points, explicit = _diffcheck_points(args, data, func)
    residuals, bad = diff._cr_rows(func, points)
    entries = []
    for row, values, failed in zip(points, residuals.tolist(), bad):
        x = linalg.unrealify(row, *func.domain)
        entry = {"point": x.to_json(), "passed": not failed and max(values) <= tol}
        if not failed:
            entry["residuals"] = dict(zip(diff._RESIDUAL_KEYS, values))
        else:  # replayed for cr_check's message
            try:
                diff.cr_check(func, x, tol=tol)
                raise AssertionError("a point fails in its batch but not alone")
            except diff.EvaluationFailed as exc:
                entry["error"] = str(exc)
        entries.append(entry)
    payload = {
        "checked": len(entries),
        "all_passed": bool(entries) and all(e["passed"] for e in entries),
        "entries": entries,
        "points_supplied": explicit,
    }
    if not payload["all_passed"]:
        raise MathFailure(payload)
    return payload


def _run_atlas(args, tol):
    data = _load_input(args)
    import dualmod.manifold as manifold

    atlas = _parse(args, manifold.atlas_from_json, data)
    report = manifold.verify_atlas(
        atlas, samples=args.samples, tol=tol, seed=args.seed
    )
    payload = report.to_json()
    if not report.passed:
        raise MathFailure(payload)
    return payload


def _run_darboux(args, tol):
    data = _load_input(args)
    import dualmod.symplectic as symplectic

    form = _parse(args, symplectic.GramForm.from_json, data)
    form_report = symplectic.check_form(form, tol=tol)
    if not form_report.passed:
        raise MathFailure({"form_report": form_report.to_json()})
    try:
        basis = symplectic.darboux_basis(form, tol=tol)
    except symplectic.NumericalBreakdown as exc:
        raise MathFailure(
            {"form_report": form_report.to_json(), "error": str(exc)}
        )
    verification = symplectic.verify_darboux(basis, form)
    payload = {
        "form_report": form_report.to_json(),
        "basis": basis.to_json(),
        "verification": verification.to_json(),
    }
    if not verification.passed:
        raise MathFailure(payload)
    return payload


RUNNERS = {
    "selftest": _run_selftest,
    "basis": _run_basis,
    "solve": _run_solve,
    "diffcheck": _run_diffcheck,
    "atlas": _run_atlas,
    "darboux": _run_darboux,
}


def _render_text(payload: dict) -> str:
    lines = [
        "command: %s (dualmod %s)" % (payload["command"], payload["version"]),
        "tolerance: %g  seed: %d  samples: %d"
        % (payload["tolerance"], payload["seed"], payload["samples"]),
    ]
    command = payload["command"]
    if command == "selftest":
        for c in payload["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            extra = " (%s)" % c["detail"] if c["detail"] else ""
            worst = "n/a" if c["worst"] is None else "%g" % c["worst"]
            lines.append("%s %s worst=%s%s" % (mark, c["name"], worst, extra))
        lines.append(
            "selftest: %s (%d/%d checks)"
            % (
                "PASS" if payload["passed"] else "FAIL",
                sum(c["passed"] for c in payload["checks"]),
                len(payload["checks"]),
            )
        )
    elif command == "basis":
        if "dims" in payload:
            lines.append(
                "basis dimensions: %d invertible-head, %d kernel" % tuple(payload["dims"])
            )
        else:
            lines.append("basis: FAIL (%s)" % payload["error"])
    elif command == "solve":
        if payload.get("solvable"):
            lines.append("solution found, residual %g" % payload["residual"])
        else:
            lines.append("no solution: %s" % payload.get("error", ""))
    elif command == "diffcheck":
        for e in payload["entries"]:
            mark = "PASS" if e["passed"] else "FAIL"
            worst = max(e.get("residuals", {"": 0.0}).values(), default=0.0)
            lines.append("%s point residual=%g" % (mark, worst))
        lines.append(
            "diffcheck: %s (%d points)"
            % ("PASS" if payload["all_passed"] else "FAIL", payload["checked"])
        )
    elif command == "atlas":
        for e in payload["entries"]:
            mark = "PASS" if e["passed"] else "FAIL"
            lines.append("%s axiom %s charts %r" % (mark, e["axiom"], e["chart_pair"]))
        lines.append("atlas: %s" % ("PASS" if payload["passed"] else "FAIL"))
    elif command == "darboux":
        report = payload.get("form_report", {})
        for c in report.get("checks", []):
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append("%s %s" % (mark, c["name"]))
        if "basis" in payload:
            lines.append(
                "pairs: %d head, %d kernel"
                % (len(payload["basis"]["pairs_head"]), len(payload["basis"]["pairs_tail"]))
            )
            lines.append(
                "darboux: %s"
                % ("PASS" if payload["verification"]["passed"] else "FAIL")
            )
        elif "error" in payload:
            lines.append("darboux: FAIL (%s)" % payload["error"])
        else:
            lines.append("darboux: FAIL (form rejected)")
    return "\n".join(lines) + "\n"


def _emit(payload: dict, args) -> None:
    if args.format == "text":
        text = _render_text(payload)
    else:
        try:
            text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise ReportNotFinite(str(exc)) from None
    if args.output:
        directory = os.path.dirname(os.path.abspath(args.output))
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, args.output)
        except OSError as exc:
            if tmp is not None:  # no stray temporary file after a failed write
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            raise UsageFailure(
                "cannot write %s: %s" % (args.output, exc.strerror or exc)
            )
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= args.samples <= MAX_SAMPLES:
            raise UsageFailure(
                "--samples must be between 1 and %d, got %d" % (MAX_SAMPLES, args.samples)
            )
        if args.seed < 0:
            raise UsageFailure("--seed must be at least 0, got %d" % args.seed)
        tol = _resolve_tol(args)
        payload = RUNNERS[args.command](args, tol)
        code = 0
    except UsageFailure as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except MathFailure as exc:
        payload = exc.payload
        code = 1
    except Exception as exc:  # a defect: one line, not a traceback
        sys.stderr.write("error: internal: %s\n" % type(exc).__name__)
        return 1
    payload = dict(payload)
    payload.update(
        {
            "command": args.command,
            "version": __version__,
            "tolerance": tol,
            "seed": args.seed,
            "samples": args.samples,
        }
    )
    try:
        _emit(payload, args)
    except UsageFailure as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ReportNotFinite as exc:
        sys.stderr.write("error: report holds a non-finite number (%s)\n" % exc)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
