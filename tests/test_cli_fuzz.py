"""Malformed instance documents must end in a documented exit code.

Documents start as valid small instances of every function and matroid
kind, with extreme but finite magnitudes, and are then damaged: a value
replaced by junk, a key or list entry deleted, or the text cut short.
"""

import contextlib
import io
import json
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metasub import cli

MAGNITUDES = st.sampled_from([0.0, 1e-308, 1.0, 1e154, 1e300, 1e307, 1e308]) | st.floats(
    0.0, 1e308
)
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def valid_documents(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["diversity", "coverage", "table"]))
    if kind == "diversity":
        D = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                D[i][j] = D[j][i] = draw(MAGNITUDES)
        function = {"kind": kind, "distance": D}
        if draw(st.booleans()):
            function["weights"] = draw(st.lists(MAGNITUDES, min_size=n, max_size=n))
    elif kind == "coverage":
        m = draw(st.integers(1, 6))
        function = {
            "kind": kind,
            "incidence": draw(st.lists(st.lists(st.integers(0, m - 1), max_size=m),
                                       min_size=n, max_size=n)),
            "universe_weights": draw(st.lists(MAGNITUDES, min_size=m, max_size=m)),
        }
    else:
        values = draw(st.lists(st.floats(-1e308, 1e308), min_size=1 << n, max_size=1 << n))
        function = {"kind": kind, "values": [0.0] + values[1:]}
    matroid_kind = draw(st.sampled_from(["uniform", "partition", "graphic"]))
    if matroid_kind == "uniform":
        matroid = {"kind": matroid_kind, "r": draw(st.integers(0, n + 1))}
    elif matroid_kind == "partition":
        cut = draw(st.integers(1, n))
        blocks = [list(range(cut)), list(range(cut, n))] if cut < n else [list(range(n))]
        matroid = {"kind": matroid_kind, "blocks": blocks,
                   "caps": draw(st.lists(st.integers(0, 3), min_size=len(blocks),
                                         max_size=len(blocks)))}
    else:
        vertices = draw(st.integers(1, n + 1))
        vertex = st.integers(0, vertices - 1)
        matroid = {"kind": matroid_kind, "vertices": vertices,
                   "edges": draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=n))}
    doc = {"n": n, "function": function, "matroid": matroid}
    if draw(st.booleans()):
        doc["metadata"] = {"sigma": draw(MAGNITUDES), "gamma": draw(MAGNITUDES)}
    return doc


def _containers(doc, found):
    if isinstance(doc, (dict, list)) and doc:
        found.append(doc)
        for child in doc.values() if isinstance(doc, dict) else doc:
            _containers(child, found)
    return found


@st.composite
def instance_texts(draw):
    doc = draw(valid_documents())
    damage = draw(st.sampled_from(["none", "replace", "delete", "truncate"]))
    if damage in ("replace", "delete"):
        parent = draw(st.sampled_from(_containers(doc, [])))
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                   else range(len(parent))))
        if damage == "replace":
            parent[key] = draw(JUNK)
        else:
            del parent[key]
    text = json.dumps(doc)  # NaN and Infinity tokens pass through, as json.load accepts them
    if damage == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=instance_texts(), command=st.sampled_from(["solve", "analyze"]))
def test_malformed_instances_end_in_a_documented_exit_code(text, command):
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode()))
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, "-"])
    finally:
        sys.stdin = saved
    assert code in (0, 2, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        report = json.loads(stdout.getvalue(), parse_constant=_reject_constant)
        assert report["command"] == command
    else:
        assert stdout.getvalue() == ""
