"""Mutated ring, ideal and endomorphism specs, fed to every subcommand.

Whatever the input, a run ends with exit code 0, 1 or 2 and a message:
never a traceback.  Values that break ``int()`` in unusual ways (an
infinite float from ``Infinity`` or ``1e400``, NaN, huge integers) are
in the pool on purpose.
"""

import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hyperring import make_zn_multiplier_ring
from hyperring.cli import EXIT_OK, EXIT_PARSE, EXIT_SEMANTIC, main, ring_spec_document

NON_FINITE = (math.inf, -math.inf, math.nan, 10**400)
ODD_VALUES = (None, True, -1, 300, 2.5, "3", "x", "", [], [0], [1, 2], [[0]], {}, {"kind": "scale"})

BASE_RINGS = (
    {"kind": "zn_multiplier", "modulus": 6, "multipliers": [2], "name": "R6"},
    {"kind": "zn_multiplier", "modulus": 4, "multipliers": [1, 3]},
    ring_spec_document(make_zn_multiplier_ring(3, [1])),
)

odd = st.one_of(st.sampled_from(NON_FINITE), st.sampled_from(ODD_VALUES), st.integers(-3, 8))


@st.composite
def mutated(draw, base):
    """``base`` with one to three fields other than ``kind`` replaced,
    dropped, or reached into."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(set(base) - {"kind"})))
        if key not in doc:
            continue
        action = draw(st.sampled_from(("replace", "drop", "inner")))
        if action == "drop":
            del doc[key]
        elif action == "inner" and isinstance(doc[key], list) and doc[key]:
            items = doc[key]
            items[draw(st.integers(0, len(items) - 1))] = draw(odd)
        else:
            doc[key] = draw(odd)
    return doc


ring_docs = st.one_of(
    st.sampled_from(BASE_RINGS + ({"kind": "ring"}, {"kind": None}, [])),
    st.sampled_from(BASE_RINGS).flatmap(mutated),
)

ideal_specs = st.one_of(
    st.sampled_from(("0,3", "0", "gen:2", "gen:", "", "0,,3", "x", "9", "-1", "1e400", "{}")),
    mutated({"elements": [0, 3]}).map(json.dumps),
    mutated({"generators": [2]}).map(json.dumps),
)

alpha_specs = st.one_of(
    st.sampled_from(("id", "zero", "scale:3", "scale:x", "scale:1e400", "map:0,1,2", "map:", "?", '{"kind": 1}')),
    mutated({"kind": "scale", "factor": 3}).map(json.dumps),
    mutated({"kind": "map", "image": [0, 1, 2, 3, 4, 5]}).map(json.dumps),
)


def run(*argv):
    try:
        return main(list(argv), out=io.StringIO())
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ring=ring_docs, ring2=ring_docs, ideal=ideal_specs, alpha=alpha_specs)
def test_every_subcommand_exits_0_1_or_2(ring, ring2, ideal, alpha):
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp, "ring.json")
        second = Path(tmp, "ring2.json")
        corpus = Path(tmp, "corpus.json")
        first.write_text(json.dumps(ring))
        second.write_text(json.dumps(ring2))
        corpus.write_text(json.dumps([{"ring": ring, "ideal": ideal, "alpha": alpha}]))
        r, i, a = f"--ring={first}", f"--ideal={ideal}", f"--alpha={alpha}"
        runs = [
            ("validate", r), ("props", r), ("endos", r), ("nil", r), ("nil", r, a),
            ("classify", r, i), ("classify", r, i, a), ("radical", r, i, a),
            ("alpharadical", r, i, a), ("quotient", r, i), ("product", r, f"--ring2={second}"),
            ("verify", f"--corpus={corpus}"),
        ]
        for argv in runs:
            assert run(*argv) in (EXIT_OK, EXIT_SEMANTIC, EXIT_PARSE), argv


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize(
    "argv",
    [
        ("validate", '--ring={"kind": "zn_multiplier", "modulus": %s, "multipliers": [2]}'),
        ("validate", '--ring={"kind": "zn_multiplier", "modulus": 6, "multipliers": [%s]}'),
        ("validate", '--ring={"kind": "table", "order": %s, "zero": 0, "add": [], "neg": [], "hyp": []}'),
        ("classify", "--ring=R6", '--ideal={"elements": [0, %s]}'),
        ("classify", "--ring=R6", '--ideal={"generators": [%s]}'),
        ("classify", "--ring=R6", "--ideal=0", '--alpha={"kind": "scale", "factor": %s}'),
    ],
    ids=["modulus", "multipliers", "table-order", "elements", "generators", "factor"],
)
def test_non_finite_numbers_are_parse_errors(tmp_path, argv, text):
    r6 = tmp_path / "r6.json"
    r6.write_text(json.dumps(BASE_RINGS[0]))
    args = []
    for arg in argv:
        if arg.startswith("--ring={"):
            spec = tmp_path / "ring.json"
            spec.write_text(arg[len("--ring="):] % text)
            arg = f"--ring={spec}"
        elif arg == "--ring=R6":
            arg = f"--ring={r6}"
        elif "%s" in arg:
            arg = arg % text
        args.append(arg)
    out = io.StringIO()
    assert main(args, out=out) == EXIT_PARSE
    assert out.getvalue().startswith("parse error: ")
