import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from hyperring import (
    alpha_radical,
    as_hyperideal,
    catalog,
    catalog_ids,
    check,
    enumerate_endomorphisms,
    enumerate_hyperideals,
    identity_endomorphism,
    iter_suite,
    make_zn_multiplier_ring,
    proper_hyperideals,
    render_report,
    reverify_witness,
    run_suite,
    scale_endomorphism,
    set_product,
    set_sum,
    summarize,
    unledgered_failures,
    write_report,
)
from hyperring.corpus import CorpusConfig, generate_corpus, worked_example_records
from hyperring.errors import SignatureMismatch
from hyperring.ideals import alpha_prime_violation
from hyperring import verifier
from hyperring.verifier import (
    Instance,
    KIND_RING_ALPHA,
    KIND_RING_ALPHA_IDEAL,
    KIND_RING_IDEAL,
    STATUS_FAILS,
    STATUS_HOLDS,
    STATUS_NOT_MET,
    VerdictReport,
    ledgered_theorems,
    report_record,
)

SMALL_CONFIG = CorpusConfig(
    modulus_min=2,
    modulus_max=6,
    include_large_product=False,
    product_pair_names=(("Z2[1]", "Z3[1]"), ("Z4[1,3]", "Z3[1]")),
    hom_ring_names=("Z5[2]", "Z6[2]"),
)


def _catalog_by_id():
    return {c.tid: c for c in catalog()}


def _rai_instance(ring, alpha, ideal_elements, uid="test"):
    return Instance(
        uid=uid,
        kind=KIND_RING_ALPHA_IDEAL,
        ring=ring,
        alpha=alpha,
        ideal=as_hyperideal(ring, ideal_elements),
    )


def _ra_instance(ring, alpha, uid="test"):
    return Instance(uid=uid, kind=KIND_RING_ALPHA, ring=ring, alpha=alpha)


class TestCatalog:
    def test_exactly_28_unique_ids(self):
        ids = catalog_ids()
        assert len(ids) == 28
        assert len(set(ids)) == 28
        assert ids == tuple(f"T{i:02d}" for i in range(1, 29))

    def test_every_entry_has_statement_and_recheck(self):
        for entry in catalog():
            assert entry.statement
            assert entry.hypotheses
            assert entry.recheck is not None

    def test_signatures_are_known_kinds(self):
        kinds = {c.signature for c in catalog()}
        assert kinds <= {"ring_ideal", "ring_alpha", "ring_alpha_ideal", "hom", "product"}


class TestCheck:
    def test_holds_on_known_instance(self, r6, r6_scale3):
        inst = _rai_instance(r6, r6_scale3, {0, 3})
        verdict = check(inst, _catalog_by_id()["T22"])
        assert verdict.status == STATUS_HOLDS

    def test_hypothesis_not_met_names_the_hypothesis(self, r6, r6_scale3):
        inst = _rai_instance(r6, r6_scale3, {0, 2, 4})
        verdict = check(inst, _catalog_by_id()["T02"])
        assert verdict.status == STATUS_NOT_MET
        assert verdict.witness == ("hypothesis", "ideal alpha-prime")
        met = dict(verdict.hypotheses)
        assert met["ideal alpha-prime"] == "false"
        assert met["ideal C-hyperideal"] == "skipped"

    def test_kernel_containment_fails_for_zero_map(self, r5):
        zero_map = scale_endomorphism(r5, 0)
        inst = _ra_instance(r5, zero_map)
        cat = _catalog_by_id()
        t11 = check(inst, cat["T11"])
        assert t11.status == STATUS_FAILS
        assert t11.witness == ("element", 1)
        assert reverify_witness(inst, cat["T11"], t11.witness)
        t13 = check(inst, cat["T13"])
        assert t13.status == STATUS_FAILS
        assert reverify_witness(inst, cat["T13"], t13.witness)

    def test_signature_mismatch(self, r6, r6_scale3):
        inst = _ra_instance(r6, r6_scale3)
        with pytest.raises(SignatureMismatch):
            check(inst, _catalog_by_id()["T01"])

    def test_even_multiplier_witness(self):
        ring = make_zn_multiplier_ring(8, [0, 2, 4, 6])
        tripling = scale_endomorphism(ring, 3)
        inst = _rai_instance(ring, tripling, {0, 2, 4, 6})
        from hyperring.ideals import alpha_prime_violation

        assert alpha_prime_violation(ring, inst.ideal, tripling) == (1, 1)


class TestRunSuite:
    def test_empty_corpus(self):
        assert run_suite([]) == []

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError):
            run_suite([], selection=["T99"])

    def test_iter_suite_rejects_unknown_ids_before_iteration(self):
        with pytest.raises(ValueError):
            iter_suite([], selection=["T99"])

    def test_iter_suite_is_lazy_and_matches_run_suite(self):
        corpus = generate_corpus(SMALL_CONFIG)
        records = iter_suite(corpus, selection=["T19", "T25"])
        assert not isinstance(records, list)
        assert list(records) == run_suite(corpus, selection=["T19", "T25"])

    def test_small_corpus_all_failures_ledgered(self):
        corpus = generate_corpus(SMALL_CONFIG)
        reports = run_suite(corpus)
        assert unledgered_failures(reports) == []
        counts = summarize(reports)
        assert counts["holds"] > 0
        assert counts["fails"] > 0

    def test_failures_reverify(self):
        corpus = generate_corpus(SMALL_CONFIG)
        by_uid = {i.uid: i for i in corpus}
        cat = _catalog_by_id()
        reports = run_suite(corpus)
        fails = [r for r in reports if r.status == STATUS_FAILS]
        assert fails
        for record in fails:
            inst = by_uid[record.instance]
            assert reverify_witness(inst, cat[record.theorem], record.witness), (
                record.theorem,
                record.instance,
                record.witness,
            )

    def test_selection_filters(self):
        corpus = generate_corpus(SMALL_CONFIG)
        reports = run_suite(corpus, selection=["T25", "T26"])
        assert {r.theorem for r in reports} == {"T25", "T26"}
        assert all(r.status != STATUS_FAILS for r in reports)

    def test_identity_collapse_between_t19_and_t20(self):
        # with the identity endomorphism, the zero-divisor characterizations
        # of alpha-primeness and primeness agree instance by instance
        corpus = generate_corpus(SMALL_CONFIG)
        cat = _catalog_by_id()
        for inst in corpus:
            if inst.kind != KIND_RING_ALPHA_IDEAL or not inst.alpha.is_identity:
                continue
            t19 = check(inst, cat["T19"])
            twin = Instance(
                uid=inst.uid, kind=KIND_RING_IDEAL, ring=inst.ring, ideal=inst.ideal
            )
            t20 = check(twin, cat["T20"])
            assert t19.status == t20.status


class TestReportRendering:
    def test_record_shape_and_order(self, r6, r6_scale3):
        inst = _rai_instance(r6, r6_scale3, {0, 3}, uid="sample")
        verdict = check(inst, _catalog_by_id()["T22"])
        doc = render_report([verdict])
        parsed = json.loads(doc)
        assert isinstance(parsed, list) and len(parsed) == 1
        record = parsed[0]
        assert list(record.keys()) == [
            "instance", "theorem", "status", "hypotheses", "witness", "anchors",
        ]
        assert record["instance"] == "sample"
        assert record["status"] == "holds"

    def test_empty_report(self):
        assert render_report([]) == "[]\n"

    @pytest.mark.parametrize("config", [SMALL_CONFIG, None], ids=["small", "empty"])
    def test_streamed_report_matches_joined_document(self, config):
        # The reference is the report format written out in full: records
        # joined by ",\n" inside "[\n" and "\n]\n", or "[]\n" when empty.
        corpus = generate_corpus(config) if config else []
        verdicts = run_suite(corpus)
        lines = [json.dumps(report_record(v), separators=(", ", ": ")) for v in verdicts]
        expected = "[\n" + ",\n".join(lines) + "\n]\n" if lines else "[]\n"
        handle = io.StringIO()
        write_report((v for v in verdicts), handle)
        assert handle.getvalue() == expected
        assert render_report(verdicts) == expected

    def test_shared_encodings_keep_the_record_format(self, r6, r6_scale3):
        # Every status, repeated and interleaved uids, and witnesses the
        # writer encodes once (none, a named hypothesis) beside ones it
        # encodes per record: a cap message, a list, unhashable fields.
        cat = _catalog_by_id()
        inst = _rai_instance(r6, r6_scale3, {0, 3}, uid="sample")
        checked = [check(inst, cat[tid]) for tid in ("T01", "T05", "T22", "T24")]
        assert {v.status for v in checked} >= {"holds", "hypotheses_not_met"}
        hyps = (("ring commutative", "true"),)
        made = [
            VerdictReport("x", "T05", "fails", hyps, ("pair", 1, 1), "stated"),
            VerdictReport("x", "T05", "undecided", hyps, ("cap", "capped at 16"), "stated"),
            VerdictReport("y", "T05", "fails", hyps, ["pair", 2, frozenset({3, 1})], "stated"),
            VerdictReport("x", "T05", "hypotheses_not_met", hyps, ("hypothesis", ["odd"]), "stated"),
            VerdictReport("x", "T05", "hypotheses_not_met", hyps, ("hypothesis", "ring commutative"), "stated"),
            VerdictReport("x", "T05", "hypotheses_not_met", hyps, ("hypothesis", "other"), "stated"),
            VerdictReport("x", "T05", "holds", hyps, None, "stated"),
        ]
        verdicts = checked + made + checked + made[::-1]
        lines = [json.dumps(report_record(v), separators=(", ", ": ")) for v in verdicts]
        assert render_report(verdicts) == "[\n" + ",\n".join(lines) + "\n]\n"

    def test_rendering_is_deterministic(self):
        corpus = generate_corpus(SMALL_CONFIG)
        first = render_report(run_suite(corpus, selection=["T19", "T25"]))
        second = render_report(run_suite(corpus, selection=["T19", "T25"]))
        assert first == second


class TestWorkedExampleRecords:
    def test_ids_and_statuses(self):
        records = worked_example_records()
        by_id = {r.theorem: r for r in records}
        assert set(by_id) == {"P01", "P02", "P03", "P04"}
        assert by_id["P01"].status == STATUS_HOLDS
        assert by_id["P02"].status == STATUS_HOLDS
        assert by_id["P03"].status == STATUS_FAILS
        assert by_id["P03"].witness == ("pair", 1, 1)
        assert by_id["P04"].status == STATUS_HOLDS

    def test_discrepancy_is_ledgered(self):
        assert "P03" in ledgered_theorems()
        records = worked_example_records()
        assert unledgered_failures(records) == []


# ---------------------------------------------------------------------------
# ring-level tables against the per-instance loops they replaced


def reference_c05(inst):
    ring, ideal, alpha = inst.ring, inst.ideal, inst.alpha
    els = ideal.elements
    amap = alpha.map
    lhs_pair = alpha_prime_violation(ring, ideal, alpha)
    rhs_witness = None
    for left in enumerate_hyperideals(ring):
        for right in enumerate_hyperideals(ring):
            if not set_product(ring, left.elements, right.elements) <= els:
                continue
            if left.elements <= els:
                continue
            if frozenset(amap[y] for y in right.elements) <= els:
                continue
            rhs_witness = ("ideal_pair", tuple(sorted(left.elements)), tuple(sorted(right.elements)))
            break
        if rhs_witness is not None:
            break
    lhs = lhs_pair is None
    rhs = rhs_witness is None
    if lhs == rhs:
        return True, None
    if lhs and not rhs:
        return False, rhs_witness
    return False, ("pair", lhs_pair[0], lhs_pair[1])


def reference_colon_family(inst):
    yield from (frozenset((s,)) for s in range(inst.ring.order))
    yield inst.ideal.elements
    yield inst.ring.carrier_set()


def reference_c06(inst):
    ring, alpha = inst.ring, inst.alpha
    els = inst.ideal.elements
    for subset in reference_colon_family(inst):
        res = verifier._colon_elements(ring, els, subset)
        if len(res) == ring.order:
            continue
        residual = as_hyperideal(ring, res)
        pair = alpha_prime_violation(ring, residual, alpha)
        if pair is not None:
            return False, ("colon_pair", tuple(sorted(subset)), pair[0], pair[1])
    return True, None


def reference_c15(inst):
    ring, alpha = inst.ring, inst.alpha
    ideals = enumerate_hyperideals(ring)
    rad = {i.elements: alpha_radical(ring, i.elements, alpha) for i in ideals}
    for a in ideals:
        ea = a.elements
        for b in ideals:
            eb = b.elements
            if ea <= eb and not rad[ea] <= rad[eb]:
                return False, ("monotone", tuple(sorted(ea)), tuple(sorted(eb)))
            prod_rad = alpha_radical(ring, set_product(ring, ea, eb), alpha)
            meet_rad = alpha_radical(ring, ea & eb, alpha)
            if not (prod_rad == meet_rad == rad[ea] & rad[eb]):
                return False, ("product_law", tuple(sorted(ea)), tuple(sorted(eb)))
            if verifier._alpha_invariant(alpha, ea) and verifier._alpha_invariant(alpha, eb):
                sum_rad = alpha_radical(ring, set_sum(ring, ea, eb), alpha)
                outer = alpha_radical(ring, set_sum(ring, rad[ea], rad[eb]), alpha)
                if not sum_rad <= outer:
                    return False, ("sum_law", tuple(sorted(ea)), tuple(sorted(eb)))
    return True, None


@st.composite
def residue_rings(draw, max_order=10):
    n = draw(st.integers(2, max_order))
    multipliers = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    return make_zn_multiplier_ring(n, sorted(multipliers))


class TestRingLevelTables:
    @settings(max_examples=40, deadline=None)
    @given(residue_rings())
    def test_ideal_pair_rows_equal_direct_computation(self, ring):
        ideals = [i.elements for i in enumerate_hyperideals(ring)]
        rows = verifier._ideal_pairs(ring)
        assert [(left, right) for left, right, *_ in rows] == [(a, b) for a in ideals for b in ideals]
        for left, right, prod, plus, meet in rows:
            assert prod == set_product(ring, left, right)
            assert plus == set_sum(ring, left, right)
            assert meet == left & right
            # Sums and meets of ideals are ideals: they share the ideals' sets.
            assert any(plus is s for s in ideals) and any(meet is s for s in ideals)

    @settings(max_examples=40, deadline=None)
    @given(residue_rings())
    def test_residuals_keep_the_first_subset(self, ring):
        for ideal in proper_hyperideals(ring):
            inst = _rai_instance(ring, None, ideal.elements)
            first = {}
            for subset in reference_colon_family(inst):
                res = verifier._colon_elements(ring, ideal.elements, subset)
                if len(res) < ring.order:
                    first.setdefault(res, subset)
            got = verifier._distinct_residuals(ring, ideal.elements)
            assert [(subset, residual.elements) for subset, residual in got] == [
                (tuple(sorted(subset)), res) for res, subset in first.items()
            ]

    def test_residuals_above_the_enumeration_cap(self):
        # Z18 is past the hyperideal enumeration cap; T06 still decides.
        ring = make_zn_multiplier_ring(18, [2])
        inst = _rai_instance(ring, identity_endomorphism(ring), frozenset(range(0, 18, 3)))
        assert verifier._c06(inst) == reference_c06(inst) == (True, None)

    @settings(max_examples=40, deadline=None)
    @given(residue_rings())
    def test_checks_match_the_per_instance_loops(self, ring):
        for alpha in enumerate_endomorphisms(ring):
            for ideal in proper_hyperideals(ring):
                inst = _rai_instance(ring, alpha, ideal.elements)
                assert verifier._c05(inst) == reference_c05(inst)
                assert verifier._c06(inst) == reference_c06(inst)
            if ring.props.zero_absorbing:
                inst = _ra_instance(ring, alpha)
                assert verifier._c15(inst) == reference_c15(inst)
