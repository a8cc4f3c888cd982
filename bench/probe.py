"""Host-speed probe, and latencies adjusted to a nominal host speed.

The guests this benchmark runs on change speed by up to a half for tens of
seconds at a time, whole runs included, which swamps any change worth
measuring.  So a short fixed piece of Python that shares no code with
dualmod runs right before every task: it unmarshals and runs a synthetic
module (defining functions and classes, calling them, building lists and
dicts), the work that both a CLI process start (imports) and the
in-process workloads (small objects, attribute reads, float products)
spend their time on.  A task's adjusted latency is its wall-clock latency
times NOMINAL_S over the median probe time of the tasks around it, i.e.
the time it would have taken on a host where the probe takes NOMINAL_S.
A change to dualmod cannot move the probe, so comparisons between commits
keep their meaning; raw wall-clock figures are reported next to the
adjusted ones.  The probe only tracks the CPU it runs on, so run.py keeps
the benchmark's processes on one CPU.
"""

from __future__ import annotations

import marshal
import statistics
import time

NOMINAL_S = 8e-4  # about the probe's time on the host the benchmark was defined on
WINDOW = 5  # probes on each side of a task in its local median

_SOURCE = "".join(
    "def f{0}(x, y={0}):\n"
    "    return [x * k + y for k in range({0} % 7 + 3)]\n"
    "class C{0}:\n"
    "    a = {0}\n"
    "    def m(self):\n"
    "        return {{'k': self.a, 'v': f{0}(0.5)}}\n"
    "r{0} = C{0}().m()\n".format(i)
    for i in range(40)
)
_CODE = marshal.dumps(compile(_SOURCE, "<probe>", "exec"))


def probe() -> float:
    """Seconds taken by the fixed reference work."""
    t0 = time.perf_counter()
    exec(marshal.loads(_CODE), {})
    return time.perf_counter() - t0


def adjusted(latencies, probes, window: int = WINDOW) -> list[float]:
    """Latencies scaled to NOMINAL_S by the median of nearby probe times."""
    if len(latencies) != len(probes):
        raise ValueError("one probe per latency expected")
    out = []
    for i, lat in enumerate(latencies):
        local = statistics.median(probes[max(0, i - window) : i + window + 1])
        out.append(lat * NOMINAL_S / local)
    return out
