"""Witness re-verification: soundness, the per-theorem references, the
claim shapes, and the run-time check in ``verifier.check``.

Every fails witness must re-verify on its own instance, and must not
re-verify on an instance of the same ring whose conclusion holds: a
recheck that accepts there has skipped part of the violated predicate.
Conclusions run with the hypotheses skipped, so the rechecks see many
more witness shapes than a verify run produces.
"""

import io
import json
from collections import defaultdict

import pytest

from hyperring import (
    as_hyperideal,
    catalog,
    check,
    enumerate_hyperideals,
    kernel,
    quotient_ring,
    reverify_witness,
    set_product,
    verifier,
)
from hyperring.cli import EXIT_SEMANTIC, main
from hyperring.corpus import generate_corpus
from hyperring.errors import CapExceeded, NotProper, NotZeroAbsorbing
from hyperring.ideals import ConsistencyError, hyperideal_violation
from hyperring.verifier import KIND_RING_ALPHA_IDEAL, STATUS_FAILS, Instance, TheoremCheck

import reference_rechecks
from test_verifier import SMALL_CONFIG

# Conclusions that need a proper ideal or a zero-absorbing ring raise on
# instances their hypotheses would have filtered out.
SKIPPED_HYPOTHESES = (NotProper, NotZeroAbsorbing, CapExceeded)


@pytest.fixture(scope="module")
def conclusions():
    """{tid: [(instance, ok, witness)]} with the hypotheses skipped."""
    corpus = generate_corpus(SMALL_CONFIG)
    out = {}
    for theorem in catalog():
        rows = []
        for inst in corpus:
            if inst.kind != theorem.signature:
                continue
            try:
                ok, witness = theorem.conclude(inst)
            except SKIPPED_HYPOTHESES:
                continue
            rows.append((inst, ok, witness))
        out[theorem.tid] = rows
    return out


@pytest.mark.parametrize("theorem", catalog(), ids=lambda t: t.tid)
def test_fails_witnesses_reverify_only_where_the_conclusion_fails(conclusions, theorem):
    rows = conclusions[theorem.tid]
    holding = defaultdict(list)
    for inst, ok, _witness in rows:
        if ok:
            holding[id(inst.ring)].append(inst)
    for inst, ok, witness in rows:
        if ok is not False:
            continue
        assert reverify_witness(inst, theorem, witness), (inst.uid, witness)
        for other in holding[id(inst.ring)]:
            assert not reverify_witness(other, theorem, witness), (inst.uid, other.uid, witness)


# ---------------------------------------------------------------------------
# differential: the claims' rechecks against the per-theorem references


def _carrier(ring):
    return range(ring.order)


def _pairs(tag, ring):
    return [(tag, x, y) for x in _carrier(ring) for y in _carrier(ring)]


def _elements(tags, *rings):
    return [(tag, x) for tag in tags for x in range(max(r.order for r in rings))]


def _ideal_sets(ring):
    return [tuple(sorted(i.elements)) for i in enumerate_hyperideals(ring)]


NOT_IDEAL = ("not_hyperideal", ("empty",))


def _t06(inst):
    # Subsets with equal residuals give equal rechecks: one subset per residual.
    ring, els = inst.ring, inst.ideal.elements
    family = [(s,) for s in _carrier(ring)] + [tuple(sorted(els)), tuple(_carrier(ring))]
    first = {}
    for subset in family:
        first.setdefault(verifier._colon_elements(ring, els, subset), subset)
    return [("colon_pair", s, x, y) for s in first.values() for _t, x, y in _pairs("", ring)]


def _t15(inst):
    ideals = _ideal_sets(inst.ring)
    return [(law, a, b) for law in ("monotone", "product_law", "sum_law") for a in ideals for b in ideals]


def _t16(inst):
    ring, els = inst.ring, inst.ideal.elements
    powers, acc = set(), els
    while acc not in powers:
        powers.add(acc)
        acc = set_product(ring, acc, els)
    sets = {tuple(sorted(p)) for p in powers} | set(_ideal_sets(ring))
    return [("fullness", tuple(sorted(els)))] + [("power_radical", s) for s in sorted(sets)]


def _t19(inst):
    return _pairs("pair", inst.ring) + _elements(("coset",), quotient_ring(inst.ring, inst.ideal).ring)


def _t23(inst):
    f = inst.hom
    own = verifier._t23_readings(inst)
    sides = _pairs("pair", f.source) + _pairs("image_pair", f.target)
    return [("readings", readings, *side) for readings in (own, ("kernel_of_map",)) for side in sides]


def _t24(inst):
    out = []
    for sub, qring, _star, _image in verifier._subideal_quotients(inst):
        sub = tuple(sorted(sub))
        out += [("subideal", sub, "pair", (x, y)) for _t, x, y in _pairs("", inst.ring)]
        out += [("subideal", sub, "quotient_pair", (x, y)) for _t, x, y in _pairs("", qring)]
    return out


CANDIDATES = {
    "T01": lambda i: _elements(("element",), i.ring),
    "T02": lambda i: [NOT_IDEAL] + _pairs("pair", i.ring),
    "T03": lambda i: [NOT_IDEAL] + _pairs("pair", i.ring) + _elements(("not_contained",), i.ring),
    "T04": lambda i: _pairs("pair", i.ring),
    "T05": lambda i: _pairs("pair", i.ring)
    + [("ideal_pair", a, b) for a in _ideal_sets(i.ring) for b in _ideal_sets(i.ring)],
    "T06": _t06,
    "T07": lambda i: _elements(("element",), i.ring),
    "T08": lambda i: _elements(("element",), i.ring),
    "T09": lambda i: [NOT_IDEAL],
    "T10": lambda i: [NOT_IDEAL] + _pairs("pair", i.ring),
    "T11": lambda i: _elements(("element",), i.ring),
    "T12": lambda i: _pairs("pair", i.ring),
    "T13": lambda i: _elements(("element",), i.ring),
    "T14": lambda i: _elements(("subset_violation", "equality_violation"), i.ring),
    "T15": _t15,
    "T16": _t16,
    "T17": lambda i: _elements(("image_law", "preimage_law", "iso_equality"), i.hom.source, i.hom.target),
    "T18": lambda i: [NOT_IDEAL] + _pairs("pair", i.ring),
    "T19": _t19,
    "T20": _t19,
    "T21": lambda i: _pairs("pair", i.ring)
    + _pairs("quotient_pair", quotient_ring(i.ring, kernel(i.alpha)).ring),
    "T22": lambda i: _pairs("pair", i.ring) + _pairs("quotient_pair", quotient_ring(i.ring, i.ideal).ring),
    "T23": _t23,
    "T24": _t24,
    "T25": lambda i: _pairs("factor_pair", i.product.left) + _pairs("product_pair", i.product.ring),
    "T26": lambda i: [("sides", "product_prime_but_factors_not")] + _pairs("product_pair", i.product.ring),
    "T27": lambda i: _elements(("subset_violation", "equality_violation"), i.ring),
    "T28": lambda i: [NOT_IDEAL] + _pairs("pair", i.ring),
}

# The references skip the other side of these biconditionals, and T16's
# takes any set for a power of I.
ONE_WAY = {"T05", "T16", "T23", "T24", "T25"}

# Tags asserted only under a condition, which the references leave out.
CONDITIONS = {
    ("T03", "not_contained"): lambda i: i.ring.props.identity is not None and i.ideal.c_status == "yes",
    ("T17", "iso_equality"): lambda i: i.hom.is_surjective and i.hom.is_injective,
}


# Each T24 recheck walks the subideal quotients; every eighth instance
# keeps the test short and still reaches both sides.
STRIDE = {"T24": 8}


@pytest.mark.parametrize("theorem", catalog(), ids=lambda t: t.tid)
def test_rechecks_match_the_references(conclusions, theorem):
    """Every candidate witness of every tag, on every small instance: the
    recheck agrees with the reference (or is stricter, where the reference
    skips part of the predicate) and never accepts where the conclusion holds."""
    reference = getattr(reference_rechecks, f"_r{theorem.tid[1:]}")
    for inst, ok, _witness in conclusions[theorem.tid][:: STRIDE.get(theorem.tid, 1)]:
        for witness in CANDIDATES[theorem.tid](inst):
            new = reverify_witness(inst, theorem, witness)
            old = bool(reference(inst, witness))
            # A witness that re-verifies refutes the conclusion.
            assert not (new and ok), (inst.uid, witness)
            cond = CONDITIONS.get((theorem.tid, witness[0]))
            if theorem.tid in ONE_WAY:
                assert not new or old, (inst.uid, witness)
            elif cond is not None:
                assert new == (old and cond(inst)), (inst.uid, witness)
            else:
                assert new == old, (inst.uid, witness)


def _shift(witness, offset):
    """The witness with every element moved by ``offset``."""
    if isinstance(witness, tuple):
        return tuple(_shift(w, offset) for w in witness)
    if isinstance(witness, int) and not isinstance(witness, bool):
        return witness + offset
    return witness


@pytest.mark.parametrize("theorem", catalog(), ids=lambda t: t.tid)
def test_out_of_carrier_witnesses_do_not_reverify(conclusions, theorem):
    # A witness that names no element, such as T26's sides, is unmoved by
    # the shift; test_bogus_fields_do_not_reverify covers its field.
    for inst, ok, witness in conclusions[theorem.tid]:
        if ok is not False or _shift(witness, 1) == witness:
            continue
        for offset in (-1000, 1000):
            assert not reverify_witness(inst, theorem, _shift(witness, offset)), (inst.uid, witness)


def _misfits(witness):
    """The witness cut short (down to nothing) and one field too long; for
    T24, also its pair one element short and one too long."""
    out = [witness[:cut] for cut in range(len(witness))] + [witness + witness[-1:]]
    if witness[0] == "subideal":
        *head, pair = witness
        out += [(*head, pair[:1]), (*head, pair + pair[-1:])]
    return out


@pytest.mark.parametrize("theorem", catalog(), ids=lambda t: t.tid)
def test_wrong_length_witnesses_do_not_reverify(conclusions, theorem):
    """Every tag (with T23's and T24's inner tags): a fails witness where
    one exists, else a candidate."""
    rows = conclusions[theorem.tid]
    first = {}
    for inst, witness in [(i, w) for i, ok, w in rows if ok is False] + [
        (i, w) for i, _ok, _w in rows for w in CANDIDATES[theorem.tid](i)
    ]:
        first.setdefault(tuple(f for f in witness if isinstance(f, str)), (inst, witness))
    assert first
    for inst, witness in first.values():
        for bad in _misfits(witness):
            assert not reverify_witness(inst, theorem, bad), (inst.uid, bad)


# A set- or pair-valued field given as an int, per tag that carries one.
MISTYPED = (
    ("T05", ("ideal_pair", 1, 2)),
    ("T06", ("colon_pair", 1, 2, 3)),
    ("T15", ("monotone", 1, 2)),
    ("T15", ("product_law", (0,), 2)),
    ("T15", ("sum_law", 1, (0,))),
    ("T16", ("power_radical", 5)),
    ("T23", ("readings", 5, "pair", 0, 0)),
    ("T24", ("subideal", 5, "pair", (0, 0))),
    ("T24", ("subideal", (0,), "quotient_pair", 5)),
)


@pytest.mark.parametrize("tid, witness", MISTYPED, ids=lambda v: v if isinstance(v, str) else v[0])
def test_mistyped_witness_fields_do_not_reverify(conclusions, tid, witness):
    theorem = {t.tid: t for t in catalog()}[tid]
    assert conclusions[tid]
    for inst, _ok, _witness in conclusions[tid]:
        assert not reverify_witness(inst, theorem, witness), inst.uid


# ---------------------------------------------------------------------------
# the shapes on hand-made subjects, where no corpus instance reaches them


@pytest.fixture()
def inst(r6, r6_scale3):
    return Instance(uid="r6", kind=KIND_RING_ALPHA_IDEAL, ring=r6, alpha=r6_scale3,
                    ideal=as_hyperideal(r6, {0, 3}))


def _claim_fails(claim, inst, witness):
    assert claim.conclude(inst) == (False, witness)
    assert claim.recheck(inst, witness)


def test_ideal_shapes(inst):
    odd = verifier._is_ideal(lambda i: (i.ring, frozenset({1})))
    _claim_fails(odd, inst, ("not_hyperideal", hyperideal_violation(inst.ring, {1})))
    ideal = verifier._ideal_absorbs(lambda i: (i.ring, i.ideal.elements))
    assert ideal.conclude(inst) == (True, None)
    assert not ideal.recheck(inst, ("not_hyperideal", ("empty",)))


def test_pair_shape(inst):
    # In R6, x o y = {2xy}: 1 o 1 = {2} lies in {0, 2, 4}, and 1 and 3 * 1 lie outside.
    pair = verifier._absorbs("pair", lambda i: (i.ring, frozenset({0, 2, 4})), lambda i: i.alpha)
    _claim_fails(pair, inst, ("pair", 1, 1))
    assert not pair.recheck(inst, ("pair", 2, 1))  # x inside
    assert not pair.recheck(inst, ("pair", 1, 2))  # alpha(y) = 0 inside
    assert not pair.recheck(inst, ("pair", 1, 6))  # outside the carrier
    assert not pair.recheck(inst, ("pair", -1, 1))
    prime = verifier._absorbs("pair", lambda i: (i.ring, i.ideal.elements))
    assert prime.conclude(inst) == (True, None)
    assert not prime.recheck(inst, ("pair", 1, 1))  # 1 o 1 = {2} is not inside {0, 3}
    assert not prime.recheck(inst, ("pair", 1, 3))  # y inside


def test_misshapen_witnesses_on_r6_do_not_reverify(inst):
    by_id = {t.tid: t for t in catalog()}
    for tid, witness in (("T04", ("pair", 1)), ("T01", ("element",)), ("T06", ("colon_pair", 1, 2, 3)),
                         ("T01", ("element", [1])), ("T13", ("element", [1])),
                         ("T27", ("subset_violation", [1])), ("T16", ("fullness", (9, 9)))):
        assert not reverify_witness(inst, by_id[tid], witness), (tid, witness)
    # The fullness witness names the ideal itself.
    assert verifier._c16(inst) == (False, ("fullness", (0, 3)))
    assert reverify_witness(inst, by_id["T16"], ("fullness", (0, 3)))


def test_bogus_fields_do_not_reverify(conclusions, inst):
    # Each recheck compares its field with the violation it names.
    bad = hyperideal_violation(inst.ring, {1})
    for claim in (verifier._is_ideal(lambda i: (i.ring, frozenset({1}))),
                  verifier._ideal_absorbs(lambda i: (i.ring, frozenset({1})), lambda i: i.alpha)):
        assert claim.recheck(inst, ("not_hyperideal", bad))
        for field in (("empty",), ("absorb_left", 0, 1), "anything", None):
            assert not claim.recheck(inst, ("not_hyperideal", field)), field
    t26 = next(t for t in catalog() if t.tid == "T26")
    sides = next(i for i, _ok, _w in conclusions["T26"] if i.uid == "(Z2[1]xZ3[1])|a=(zero,zero)|I1=0|I2=0")
    assert reverify_witness(sides, t26, ("sides", "product_prime_but_factors_not"))
    assert not reverify_witness(sides, t26, ("sides", "anything"))


def test_containment_shapes(inst):
    inside = verifier._inside("element", lambda i: {1, 2, 4}, lambda i: {2})
    _claim_fails(inside, inst, ("element", 1))
    assert [inside.recheck(inst, ("element", x)) for x in (1, 2, 3, 4)] == [True, False, False, True]
    equal = verifier._equal("element", lambda i: {1, 2}, lambda i: {2, 3})
    _claim_fails(equal, inst, ("element", 1))
    assert [equal.recheck(inst, ("element", x)) for x in (1, 2, 3)] == [True, False, True]


def test_combinators(inst):
    holds = verifier._inside("a", lambda i: {1}, lambda i: {1})
    fails = verifier._inside("b", lambda i: {1}, lambda i: set())
    assert verifier._first(holds, fails).conclude(inst) == (False, ("b", 1))
    assert verifier._first(holds, fails).recheck(inst, ("b", 1))
    assert not verifier._first(holds, fails).recheck(inst, ("c", 1))
    off = verifier._when(lambda i: False, fails)
    assert off.conclude(inst) == (True, None)
    assert not off.recheck(inst, ("b", 1))
    assert verifier._when(lambda i: True, fails).recheck(inst, ("b", 1))
    # a witness from one side re-verifies only while the other side holds
    assert verifier._iff(holds, fails).conclude(inst) == (False, ("b", 1))
    assert verifier._iff(holds, fails).recheck(inst, ("b", 1))
    assert verifier._iff(fails, fails).conclude(inst) == (True, None)
    assert not verifier._iff(fails, verifier._inside("c", lambda i: {1}, lambda i: set())).recheck(inst, ("b", 1))


# ---------------------------------------------------------------------------
# run-time re-verification


def _bogus_check(witness):
    """T04's recheck behind a conclusion that reports ``witness``."""
    t04 = next(t for t in catalog() if t.tid == "T04")
    return TheoremCheck("T04", KIND_RING_ALPHA_IDEAL, t04.statement, (),
                        lambda inst: (False, witness), t04.recheck)


def test_check_refuses_a_witness_that_does_not_reverify(inst):
    # {0, 3} is prime in R6, so no pair violates it.
    with pytest.raises(ConsistencyError, match=r"T04 witness \('pair', 1, 1\) does not re-verify on r6"):
        check(inst, _bogus_check(("pair", 1, 1)))
    # A genuine witness passes: {0, 2, 4} is not prime in R6.
    even = Instance(uid="even", kind=KIND_RING_ALPHA_IDEAL, ring=inst.ring, alpha=inst.alpha,
                    ideal=as_hyperideal(inst.ring, {0, 2, 4}))
    verdict = check(even, _bogus_check(("pair", 1, 1)))
    assert (verdict.status, verdict.witness) == (STATUS_FAILS, ("pair", 1, 1))


def test_verify_exits_1_on_a_witness_that_does_not_reverify(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([
        {"ring": {"kind": "zn_multiplier", "modulus": 6, "multipliers": [2]}, "ideal": "0,3", "alpha": "id"},
    ]))
    monkeypatch.setattr(verifier, "catalog", lambda: (_bogus_check(("pair", 1, 1)),))
    report = tmp_path / "report.json"
    out = io.StringIO()
    assert main(["verify", f"--corpus={corpus}", f"--report={report}"], out=out) == EXIT_SEMANTIC
    assert out.getvalue().startswith("invalid: T04 witness ('pair', 1, 1) does not re-verify on ")
    assert not report.exists()
