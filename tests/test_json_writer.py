"""The records' JSON, written by core.json_writer: each key order and value
is pinned as a json.dumps string, and every call returns new containers."""

import json

import pytest

from dualmod.core import ONE, json_writer, vector
from dualmod.diff import CrReport, DualFunc, const, coord, re_part, sharp_expr, tail_coord
from dualmod.linalg import ModuleMap
from dualmod.manifold import AtlasCheck, AtlasReport, ExprAtlas, ExprChart
from dualmod.selftest import CheckResult, SelftestReport
from dualmod.symplectic import DarbouxBasis, DarbouxReport, FormCheck, FormReport


def records() -> dict:
    """One fixed instance of each record class written by json_writer."""
    x = coord("head", 0)
    point = vector([(0.5, -0.25)], [1.5])
    ident = DualFunc((1, 1), (1, 1), (x, tail_coord(0)))
    square = DualFunc((1, 1), (1, 1), (x * x + 2, sharp_expr(x)))
    chart = ExprChart(ident, ident, re_part(x))
    deriv = ModuleMap(1, 1, 1, 1, [[1.0]], [[0.5]], [[0.0]], [[0.0]], [[1.0]])
    ii = AtlasCheck("ii", ((0, 0),), True, None, 72)
    iv = AtlasCheck("iv", ((0, 1), (1, 0)), False, {"point": point.to_json(), "residuals": {"ze_match": 0.5}}, 3)
    antisym = FormCheck("antisymmetric", True, 0.0)
    degenerate = FormCheck("head_block_nondegenerate", False, 0.0, [0.6, -0.8])
    e = vector([(1.0, 0.0), (0.0, 0.5)], [0.0, 0.0])
    f = vector([(0.0, 0.0), (1.0, 0.0)], [0.0, 0.0])
    u = vector([(0.0, 0.0), (0.0, 0.0)], [1.0, 0.0])
    w = vector([(0.0, 0.0), (0.0, 0.0)], [0.0, 1.0])
    ok, failed = CheckResult("apply", True, 2.5e-16), CheckResult("solve", False, None, "NoSolution: residual")
    return {
        "CrReport": CrReport(point, True, {"head_re_dze": 0.0, "ze_match": 1e-12}, deriv),
        "DualFunc": square,
        "ExprChart": chart,
        "ExprAtlas": ExprAtlas((chart, ExprChart(square, ident, const(ONE)))),
        "AtlasCheck": iv,
        "AtlasReport": AtlasReport((ii, iv)),
        "FormCheck": degenerate,
        "FormReport": FormReport((2, 0), (antisym, degenerate)),
        "DarbouxBasis": DarbouxBasis(((e, f),), ((u, w),)),
        "DarbouxReport": DarbouxReport(True, 1e-16, True, False),
        "CheckResult": failed,
        "SelftestReport": SelftestReport(10, 3, 1e-9, (ok, failed)),
    }


# json.dumps(to_json()), unsorted: the key order is part of every report
WANT = {
    'CrReport': '{"point": {"n": 1, "m": 1, "head": [[0.5, -0.25]], "tail": [1.5]}, "passed": true, "residuals": {"head_re_dze": 0.0, "ze_match": 1e-12}, "derivative": {"n": 1, "m": 1, "s": 1, "t": 1, "C": [[[1.0, 0.5]]], "P": [[0.0]], "D": [[0.0]], "Q": [[1.0]]}}',
    'DualFunc': '{"domain": [1, 1], "codomain": [1, 1], "components": [{"op": "add", "args": [{"op": "mul", "args": [{"op": "coord", "part": "head", "slot": 0, "component": "full"}, {"op": "coord", "part": "head", "slot": 0, "component": "full"}]}, {"op": "const", "value": [2.0, 0.0]}]}, {"op": "sharp", "args": [{"op": "coord", "part": "head", "slot": 0, "component": "full"}]}]}',
    'ExprChart': '{"forward": {"domain": [1, 1], "codomain": [1, 1], "components": [{"op": "coord", "part": "head", "slot": 0, "component": "full"}, {"op": "coord", "part": "tail", "slot": 0, "component": "full"}]}, "inverse": {"domain": [1, 1], "codomain": [1, 1], "components": [{"op": "coord", "part": "head", "slot": 0, "component": "full"}, {"op": "coord", "part": "tail", "slot": 0, "component": "full"}]}, "domain": {"op": "re_part", "args": [{"op": "coord", "part": "head", "slot": 0, "component": "full"}]}}',
    'ExprAtlas': '{"charts": [{"forward": {"domain": [1, 1], "codomain": [1, 1], "components": [{"op": "coord", "part": "head", "slot": 0, "component": "full"}, {"op": "coord", "part": "tail", "slot": 0, "component": "full"}]}, "inverse": {"domain": [1, 1], "codomain": [1, 1], "components": [{"op": "coord", "part": "head", "slot": 0, "component": "full"}, {"op": "coord", "part": "tail", "slot": 0, "component": "full"}]}, "domain": {"op": "re_part", "args": [{"op": "coord", "part": "head", "slot": 0, "component": "full"}]}}, {"forward": {"domain": [1, 1], "codomain": [1, 1], "components": [{"op": "add", "args": [{"op": "mul", "args": [{"op": "coord", "part": "head", "slot": 0, "component": "full"}, {"op": "coord", "part": "head", "slot": 0, "component": "full"}]}, {"op": "const", "value": [2.0, 0.0]}]}, {"op": "sharp", "args": [{"op": "coord", "part": "head", "slot": 0, "component": "full"}]}]}, "inverse": {"domain": [1, 1], "codomain": [1, 1], "components": [{"op": "coord", "part": "head", "slot": 0, "component": "full"}, {"op": "coord", "part": "tail", "slot": 0, "component": "full"}]}, "domain": {"op": "const", "value": [1.0, 0.0]}}]}',
    'AtlasCheck': '{"axiom": "iv", "chart_pair": [[0, 1], [1, 0]], "passed": false, "witness": {"point": {"n": 1, "m": 1, "head": [[0.5, -0.25]], "tail": [1.5]}, "residuals": {"ze_match": 0.5}}, "checked": 3}',
    'AtlasReport': '{"passed": false, "entries": [{"axiom": "ii", "chart_pair": [[0, 0]], "passed": true, "witness": null, "checked": 72}, {"axiom": "iv", "chart_pair": [[0, 1], [1, 0]], "passed": false, "witness": {"point": {"n": 1, "m": 1, "head": [[0.5, -0.25]], "tail": [1.5]}, "residuals": {"ze_match": 0.5}}, "checked": 3}]}',
    'FormCheck': '{"name": "head_block_nondegenerate", "passed": false, "residual": 0.0, "witness": [0.6, -0.8]}',
    'FormReport': '{"shape": [2, 0], "passed": false, "checks": [{"name": "antisymmetric", "passed": true, "residual": 0.0, "witness": null}, {"name": "head_block_nondegenerate", "passed": false, "residual": 0.0, "witness": [0.6, -0.8]}]}',
    'DarbouxBasis': '{"pairs_head": [[{"n": 2, "m": 2, "head": [[1.0, 0.0], [0.0, 0.5]], "tail": [0.0, 0.0]}, {"n": 2, "m": 2, "head": [[0.0, 0.0], [1.0, 0.0]], "tail": [0.0, 0.0]}]], "pairs_tail": [[{"n": 2, "m": 2, "head": [[0.0, 0.0], [0.0, 0.0]], "tail": [1.0, 0.0]}, {"n": 2, "m": 2, "head": [[0.0, 0.0], [0.0, 0.0]], "tail": [0.0, 1.0]}]]}',
    'DarbouxReport': '{"passed": true, "pairing_residual": 1e-16, "independent": true, "complete": false}',
    'CheckResult': '{"name": "solve", "passed": false, "worst": null, "detail": "NoSolution: residual"}',
    'SelftestReport': '{"passed": false, "samples": 10, "seed": 3, "tolerance": 1e-09, "checks": [{"name": "apply", "passed": true, "worst": 2.5e-16, "detail": ""}, {"name": "solve", "passed": false, "worst": null, "detail": "NoSolution: residual"}]}',
}


@pytest.mark.parametrize("name", sorted(WANT))
def test_key_order_and_values_are_kept(name):
    assert json.dumps(records()[name].to_json()) == WANT[name]


def _containers(data):
    """Every list and dict inside data, data included."""
    found, stack = [], [data]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, dict)):
            found.append(item)
            stack.extend(item.values() if isinstance(item, dict) else item)
    return found


@pytest.mark.parametrize("name", sorted(WANT))
def test_changing_the_json_leaves_the_record(name):
    record = records()[name]
    for container in _containers(record.to_json()):
        container.clear()
    assert json.dumps(record.to_json()) == WANT[name]


def test_nested_values_are_converted():
    class Record:
        to_json = json_writer("items", "table", "plain")

        def __init__(self):
            self.items = ((ONE, (1, 2)), [vector([ONE], [])])
            self.table = {"point": (0.5, None)}
            self.plain = "text"

    assert Record().to_json() == {
        "items": [[[1.0, 0.0], [1, 2]], [{"n": 1, "m": 0, "head": [[1.0, 0.0]], "tail": []}]],
        "table": {"point": [0.5, None]},
        "plain": "text",
    }
