"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
suite asserts every criterion at its stated tolerance (all tolerances are
exact: the oracles are finite and discrete).
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hyperring
from hyperring import (
    RawRing,
    catalog,
    enumerate_endomorphisms,
    enumerate_hyperideals,
    identity_endomorphism,
    is_alpha_prime,
    is_prime,
    kernel,
    make_zn_multiplier_ring,
    nilradical,
    proper_hyperideals,
    radical_detail,
    reverify_witness,
    run_suite,
    scale_endomorphism,
    validate_structure,
)
from hyperring.corpus import (
    DEFAULT_CONFIG,
    corpus_rings,
    generate_corpus,
    large_product,
    worked_example_records,
)
from hyperring.errors import ForeignElement, ValidationError
from hyperring.ideals import alpha_prime_violation, alpha_prime_witness_ok, generate_hyperideal
from hyperring.verifier import STATUS_FAILS, STATUS_HOLDS, STATUS_UNDECIDED

GATED = (
    "T02", "T03", "T05", "T06", "T07", "T08", "T10", "T14", "T15", "T17",
    "T18", "T19", "T20", "T22", "T25", "T26", "T27", "T28",
)

MIN_NON_VACUOUS = {"T19": 10, "T22": 10, "T25": 10, "T26": 10}

REPORT_SHA256 = "5a3ecfcaa674ce3d270f5d9acf4878039dcb29b5d60e3e7a05ca1751823efd40"


def _raw_from(ring, hyp):
    return RawRing(
        order=ring.order, zero=ring.zero, add=ring.add, neg=ring.neg,
        hyp=hyp, name="corrupted",
    )


def test_c1_axiom_suite():
    start = time.time()
    rings = corpus_rings(DEFAULT_CONFIG)
    for ring in rings:
        again = validate_structure(
            RawRing(order=ring.order, zero=ring.zero, add=ring.add,
                    neg=ring.neg, hyp=ring.hyp, name=ring.name)
        )
        assert again.props == ring.props

    r6 = make_zn_multiplier_ring(6, [2])
    detected = 0
    for a in range(6):
        for b in range(6):
            original = r6.hyp[a][b]
            for size in range(1, 7):
                for subset in itertools.combinations(range(6), size):
                    cell = frozenset(subset)
                    if cell == original:
                        continue
                    hyp = [list(row) for row in r6.hyp]
                    hyp[a][b] = cell
                    raw = _raw_from(r6, tuple(tuple(r) for r in hyp))
                    with pytest.raises((ValidationError, ForeignElement)) as info:
                        validate_structure(raw)
                    # the reported witness must actually exhibit the failure
                    assert _axiom_witness_violates(raw, info.value)
                    detected += 1
    elapsed = time.time() - start
    assert detected == 2232
    assert elapsed < 60
    print(
        f"\nACCEPTANCE C1 (axiom suite): PASS "
        f"({len(rings)} rings validated, {detected} corruptions detected, {elapsed:.1f}s)"
    )


def _axiom_witness_violates(raw, err) -> bool:
    """Re-check the named axiom at the reported witness from the raw tables."""
    from hyperring.errors import (
        EmptyProduct,
        NotAssociative,
        NotDistributive,
        SignLawViolated,
    )

    hyp = raw.hyp
    add = raw.add
    neg = raw.neg
    witness = err.witness
    if isinstance(err, EmptyProduct):
        a, b = witness
        return len(frozenset(hyp[a][b])) == 0
    if isinstance(err, NotAssociative):
        a, b, c = witness
        left = set().union(*(hyp[x][c] for x in hyp[a][b]))
        right = set().union(*(hyp[a][y] for y in hyp[b][c]))
        return left != right
    if isinstance(err, NotDistributive):
        a, b, c = witness
        bc = add[b][c]
        left_ok = set(hyp[a][bc]) <= {
            add[x][y] for x in hyp[a][b] for y in hyp[a][c]
        }
        right_ok = set(hyp[bc][a]) <= {
            add[x][y] for x in hyp[b][a] for y in hyp[c][a]
        }
        return not (left_ok and right_ok)
    if isinstance(err, SignLawViolated):
        a, b = witness
        minus = {neg[t] for t in hyp[a][b]}
        return set(hyp[a][neg[b]]) != minus or set(hyp[neg[a]][b]) != minus
    return True  # group/foreign-element failures carry their own evidence


def test_c2_classical_collapse():
    start = time.time()
    pairs = 0
    for ring in corpus_rings(DEFAULT_CONFIG):
        ident = identity_endomorphism(ring)
        for ideal in proper_hyperideals(ring):
            assert is_alpha_prime(ring, ideal, ident) == is_prime(ring, ideal)
            pairs += 1
    elapsed = time.time() - start
    print(
        f"\nACCEPTANCE C2 (classical collapse): PASS "
        f"({pairs} (ring, ideal) pairs, zero mismatches, {elapsed:.1f}s)"
    )


def test_c3_radical_oracle_equivalence():
    start = time.time()
    checked = c_count = 0
    for ring in corpus_rings(DEFAULT_CONFIG):
        for ideal in enumerate_hyperideals(ring):
            inter, dset, status = radical_detail(ring, ideal.elements)
            assert dset <= inter
            if status == "yes":
                assert dset == inter
                c_count += 1
            checked += 1
    elapsed = time.time() - start
    print(
        f"\nACCEPTANCE C3 (radical oracle equivalence): PASS "
        f"({checked} ideals, {c_count} C-hyperideals agree exactly, {elapsed:.1f}s)"
    )


def test_c4_theorem_suite():
    start = time.time()
    corpus = generate_corpus(DEFAULT_CONFIG)
    reports = run_suite(corpus, selection=list(GATED))
    elapsed = time.time() - start
    failures = [r for r in reports if r.status == STATUS_FAILS]
    undecided = [r for r in reports if r.status == STATUS_UNDECIDED]
    assert failures == [], [
        (r.theorem, r.instance, r.witness) for r in failures[:5]
    ]
    assert undecided == []
    non_vacuous = {tid: 0 for tid in MIN_NON_VACUOUS}
    for record in reports:
        if record.status == STATUS_HOLDS and record.theorem in non_vacuous:
            non_vacuous[record.theorem] += 1
    for tid, minimum in MIN_NON_VACUOUS.items():
        assert non_vacuous[tid] >= minimum, (tid, non_vacuous[tid])
    assert elapsed < 600
    print(
        f"\nACCEPTANCE C4 (theorem suite): PASS "
        f"({len(reports)} verdicts across {len(GATED)} checks, zero failures, "
        f"non-vacuous {non_vacuous}, {elapsed:.1f}s)"
    )


def test_c5_worked_example_reproduction():
    r12 = make_zn_multiplier_ring(12, (2, 3))
    ident = identity_endomorphism(r12)
    two = generate_hyperideal(r12, (2,))
    three = generate_hyperideal(r12, (3,))
    assert two.elements == frozenset(range(0, 12, 2))
    assert three.elements == frozenset({0, 3, 6, 9})
    assert is_alpha_prime(r12, two, ident)
    assert is_alpha_prime(r12, three, ident)

    product = large_product()
    from hyperring import product_endomorphism, product_ideal

    abar = product_endomorphism(
        product,
        identity_endomorphism(product.left),
        identity_endomorphism(product.right),
    )
    box = product_ideal(
        product, frozenset(range(0, 35, 7)), frozenset(range(0, 35, 5))
    )
    violation = alpha_prime_violation(product.ring, box, abar)
    assert violation is not None
    # the pinned witness pair re-verifies independently of the search
    pinned = (product.pair_index(5, 0), product.pair_index(0, 7))
    assert alpha_prime_witness_ok(product.ring, box, abar, *pinned)
    assert alpha_prime_witness_ok(product.ring, box, abar, *violation)
    print(
        "\nACCEPTANCE C5 (worked example reproduction): PASS "
        f"(both generated ideals alpha-prime mod 12; product box not "
        f"alpha-prime, pinned witness {tuple(product.pair_of(p) for p in pinned)} re-verifies)"
    )


def test_c6_falsification_ledger():
    corpus = generate_corpus(DEFAULT_CONFIG)
    by_uid = {inst.uid: inst for inst in corpus}
    cat = {c.tid: c for c in catalog()}
    reports = run_suite(corpus, selection=["T11", "T13"])
    target_uid = "Z5[2]|a=zero"
    assert target_uid in by_uid
    wanted = {
        (r.theorem, r.instance): r
        for r in reports
        if r.instance == target_uid and r.theorem in ("T11", "T13")
    }
    assert wanted[("T11", target_uid)].status == STATUS_FAILS
    assert wanted[("T13", target_uid)].status == STATUS_FAILS
    for (tid, uid), record in wanted.items():
        assert reverify_witness(by_uid[uid], cat[tid], record.witness)

    examples = worked_example_records()
    discrepancy = next(r for r in examples if r.theorem == "P03")
    assert discrepancy.status == STATUS_FAILS
    assert discrepancy.witness == ("pair", 1, 1)
    ring = make_zn_multiplier_ring(8, (0, 2, 4, 6))
    tripling = scale_endomorphism(ring, 3)
    even = generate_hyperideal(ring, (2,))
    assert alpha_prime_witness_ok(ring, even, tripling, 1, 1)
    print(
        "\nACCEPTANCE C6 (falsification ledger): PASS "
        "(T11/T13 fail on the zero map over the 5-element ring with "
        "re-verified witnesses; the even-multiplier discrepancy is logged "
        "with witness (1,1))"
    )


# The smallest failing instance of each ledger entry in the default corpus.
SMALLEST_LEDGER_FAILURES = (
    ("T04", "Z2[0]|a=zero|I=0", ("pair", 1, 1)),
    ("T11", "Z2[0]|a=zero", ("element", 1)),
    ("T13", "Z2[1]|a=zero", ("element", 1)),
    ("T21", "Z4[0]|a=scale2|I=0.2", ("quotient_pair", 1, 1)),
)


def test_c6_smallest_ledger_witnesses():
    by_uid = {inst.uid: inst for inst in generate_corpus(DEFAULT_CONFIG)}
    cat = {c.tid: c for c in catalog()}
    for tid, uid, witness in SMALLEST_LEDGER_FAILURES:
        (record,) = run_suite([by_uid[uid]], selection=[tid])
        assert (record.status, record.witness) == (STATUS_FAILS, witness), tid
        assert reverify_witness(by_uid[uid], cat[tid], witness), tid


def test_c7_determinism(tmp_path):
    start = time.time()
    # The child runs in a fresh cwd, so a relative PYTHONPATH would not reach
    # the package; hand it the absolute source root.
    src = str(Path(hyperring.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for run in range(2):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "hyperring.cli", "verify",
             "--report", "report.json"],
            capture_output=True,
            text=True,
            timeout=1200,
            cwd=str(workdir),
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append((proc.stdout, (workdir / "report.json").read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    elapsed = time.time() - start
    size = len(outputs[0][1])
    # The default report is pinned, so a change that alters verdicts the
    # same way on every run fails here too.
    assert size == 90_447_002
    assert hashlib.sha256(outputs[0][1]).hexdigest() == REPORT_SHA256
    print(
        f"\nACCEPTANCE C7 (determinism): PASS "
        f"(two process-isolated runs byte-identical, report {size} bytes, {elapsed:.1f}s)"
    )


def test_c8_exact_counts():
    r6 = make_zn_multiplier_ring(6, [2])
    r5 = make_zn_multiplier_ring(5, [2])
    assert len(enumerate_hyperideals(r6)) == 4
    assert len(enumerate_endomorphisms(r6)) == 4
    assert len(enumerate_endomorphisms(r5)) == 2
    assert nilradical(r6) == frozenset({0, 3})
    assert kernel(scale_endomorphism(r6, 3)).elements == frozenset({0, 2, 4})
    print(
        "\nACCEPTANCE C8 (exact counts): PASS "
        "(4 hyperideals / 4 endomorphisms on the mod-6 ring, 2 endomorphisms "
        "on the mod-5 ring, nilradical {0,3}, tripling kernel {0,2,4})"
    )
