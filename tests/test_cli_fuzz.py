"""Property test of the CLI boundary on generated JSON scenarios.

Every scenario, valid or not, must end in exit 0, 1 or 2 without a
traceback, and standard output must be strict JSON (no NaN or Infinity) or
empty.  Scenarios are valid ones with one field replaced or removed, or
random objects over the known field names; sizes stay small (n <= 6, short
arrays), and the `suite` kind is left out because its cost grows with
`trials`.
"""
import contextlib
import io
import json
import sys

import pytest

from nordenhyp import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = (
    "n", "n_prime", "g", "phi", "xi", "eta", "J", "N", "ambient", "x", "y", "class", "nu", "nu_tilde",
    "scalars", "t", "theta_xi", "theta_star_xi", "dt_xi", "epsilon", "Omega",
)
KINDS = ("validate", "induce", "classify", "curvature", "canonical", "solve", "theorem31")

scalars = st.one_of(
    st.integers(-2, 6), st.floats(-3.0, 3.0), st.floats(), st.booleans(), st.none(), st.sampled_from(["", "1", "F0"]),
    # integers past the double range, which float() cannot convert
    st.integers(2**1024, 2**1100), st.integers(-(2**1100), -(2**1024)),
)
vectors = st.lists(st.one_of(st.floats(-2.0, 2.0), st.integers(-1, 1), scalars), max_size=10)
values = st.one_of(
    scalars,
    vectors,
    st.lists(vectors, max_size=10),
    st.dictionaries(st.sampled_from(FIELDS), st.one_of(scalars, vectors), max_size=4),
)


def _standard(n: int) -> dict:
    d = 2 * n + 1
    g = [[float(i == j) * (1.0 if i < n or i == d - 1 else -1.0) for j in range(d)] for i in range(d)]
    phi = [[1.0 if (i == n + j and j < n) else -1.0 if (j == n + i and i < n) else 0.0 for j in range(d)] for i in range(d)]
    e = [0.0] * (d - 1) + [1.0]
    return {"n": n, "g": g, "phi": phi, "xi": e, "eta": e}


def _valid(n: int) -> list[dict]:
    scal = {"t": 0.3, "dt_xi": 0.2, "theta_xi": 1.0, "theta_star_xi": 0.7}
    hyper = {"nu": 1.5, "nu_tilde": -0.5, "scalars": scal}
    d = 2 * n + 1
    x = [0.3 * (i + 1) for i in range(d)]
    return [
        {"kind": "validate", **_standard(n)},
        {"kind": "classify", **_standard(n), "x": x, "y": [0.0] * (d - 1) + [1.0]},
        {"kind": "curvature", "class": "F4+F5", **_standard(n), **hyper},
        {"kind": "canonical", "class": "F11", **_standard(n), **hyper},
        {"kind": "solve", "n": n, "t": 0.1, "nu": 1.0, "nu_tilde": 0.5, "epsilon": -1},
        {"kind": "theorem31", "n": n, "theta_xi": 1.0, "theta_star_xi": 0.5, "t": 0.2},
        {"kind": "induce", "ambient": {"n_prime": 2}, "N": [0.0, 0.0, 1.0, 0.0]},
    ]


@st.composite
def mutated(draw) -> dict:
    doc = draw(st.sampled_from(_valid(draw(st.integers(1, 3)))))
    key = draw(st.sampled_from(sorted(doc) + list(FIELDS)))
    if draw(st.booleans()):
        doc.pop(key, None)
    else:
        doc[key] = draw(values)
    return doc


random_docs = st.builds(
    lambda kind, rest: {"kind": kind, **rest},
    st.one_of(st.sampled_from(KINDS), st.sampled_from(KINDS), scalars),
    st.dictionaries(st.sampled_from(FIELDS), values, max_size=8),
)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(mutated(), mutated(), random_docs))
def test_cli_never_crashes(doc):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["-", "--json"])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    if text.strip():
        json.loads(text, parse_constant=_reject_constant)
    else:
        assert code == 2
