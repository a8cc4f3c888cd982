"""Traced stand-in for ``python -m dualmod.cli``.

    python3 bench/cli_child.py TOTALS_JSON ARG...

Imports dualmod.cli, installs the tracer, runs ``main(ARGS)`` exactly as the
module entry point would (an uncaught exception prints its traceback and
exits 1), then writes the tracer totals to TOTALS_JSON and exits with
main's code.
"""

from __future__ import annotations

import json
import os
import sys
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import dualmod.cli
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        code = dualmod.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
