"""Structures trusted by construction; these tests re-check them.

Residue rings, quotients, products, box ideals and the maps between them
are built without re-validation: the axioms of a residue ring transfer
from the commutative ring Z_n, a surjective good homomorphism carries
every axiom over to its image, and a box of factor hyperideals is a
hyperideal componentwise.  Each check that the constructors no longer run
is asserted here instead, over random residue rings, the table fixtures
and random hyperideals: full validation accepts the trusted tables with
the same property record, every box passes the closure checks, and every
derived map is good.  The α-prime scan that the computed product backend
runs on the factors of a box returns the pair of the full scan on the
table backend.  The property record, hyperideal test, quotients,
hyperideals, good endomorphisms, product sets, C-status, residuals,
ideal-pair rows, alpha-prime pairs, alpha-radicals, T15's radical laws
and T21's and T24's quotient pairs of a residue ring come from closed
forms, which must equal the search on the same tables.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hyperring import (
    Homomorphism,
    HyperIdeal,
    RawRing,
    enumerate_endomorphisms,
    enumerate_hyperideals,
    induced_quotient_endo,
    is_good_homomorphism,
    make_zn_multiplier_ring,
    product_endomorphism,
    product_ideal,
    product_ring,
    proper_hyperideals,
    quotient_ring,
    structure_properties,
    validate_structure,
)
from hyperring.constructions import _derived_product_props
from hyperring import verifier
from hyperring.core import FLAVOR_WEAK, trusted_ring
from hyperring.errors import CapExceeded, HyperRingError, NotAHyperideal
from hyperring.ideals import (
    C_NO,
    C_UNKNOWN,
    _alpha_prime_violation,
    _alpha_radical,
    hyperideal_violation,
    is_c_hyperideal,
    product_set_closure,
)
from hyperring.morphisms import _endo_name
from hyperring.corpus import (
    fixture_even_multipliers,
    fixture_full_cell,
    fixture_inclusion_only,
    fixture_weak_identity,
)
from test_constructions import _computed_product

FIXTURES = (
    fixture_weak_identity,
    fixture_inclusion_only,
    fixture_full_cell,
    fixture_even_multipliers,
)


@st.composite
def residue_rings(draw, max_order=12, max_multipliers=3):
    n = draw(st.integers(2, max_order))
    multipliers = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=max_multipliers))
    return make_zn_multiplier_ring(n, sorted(multipliers))


@st.composite
def residue_maps(draw, kinds=("endo", "scale", "table")):
    """A residue ring and a self-map of its carrier: a good endomorphism,
    a scale map x -> kx that need not be good, or any table."""
    ring = draw(residue_rings(max_order=16))
    n = ring.order
    kind = draw(st.sampled_from(kinds))
    if kind == "endo":
        return ring, draw(st.sampled_from(enumerate_endomorphisms(ring))).map
    if kind == "scale":
        k = draw(st.integers(0, n - 1))
        return ring, tuple(k * x % n for x in range(n))
    return ring, tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))


def rings(max_order=12):
    fixtures = st.sampled_from(FIXTURES).map(lambda build: build())
    return st.one_of(residue_rings(max_order), fixtures.filter(lambda r: r.order <= max_order))


@st.composite
def rings_with_ideal(draw):
    ring = draw(rings())
    ideals = proper_hyperideals(ring)
    assume(ideals)
    return ring, draw(st.sampled_from(ideals))


def revalidated(ring):
    """Run the derived ring's tables through the full axiom validation."""
    return validate_structure(
        RawRing(order=ring.order, zero=ring.zero, add=ring.add, neg=ring.neg,
                hyp=ring.hyp, name=ring.name)
    )


def assert_good(endo):
    ok, witness = is_good_homomorphism(endo.map, endo.source, endo.target)
    assert ok, witness


class TestResidueRing:
    # The property record comes from a formula; the scan and validation are
    # the reference.
    @settings(max_examples=80, deadline=None)
    @given(residue_rings(max_order=20, max_multipliers=4))
    @example(make_zn_multiplier_ring(3, [0, 1, 2]))
    @example(make_zn_multiplier_ring(9, [2, 5]))
    def test_tables_pass_full_validation_with_same_props(self, ring):
        assert structure_properties(ring) == ring.props == revalidated(ring).props

    def test_props_by_formula(self):
        # Z3[0,1,2] has M + M = 2M, yet 1 o (1 + 2) = {0} while
        # 1 o 1 + 1 o 2 = Z_3.  Its unit multipliers 1 and 2 are their own
        # inverses; mod 9, 2 and 5 are each other's.
        z3, z9 = make_zn_multiplier_ring(3, [0, 1, 2]), make_zn_multiplier_ring(9, [2, 5])
        assert not z3.props.strongly_distributive
        assert (z3.props.identity, z3.props.identity_flavor) == (1, FLAVOR_WEAK)
        assert (z9.props.identity, z9.props.identity_flavor) == (2, FLAVOR_WEAK)


def searched(ring):
    """An untagged copy of the ring's tables: the enumerations search it."""
    return trusted_ring(ring.order, ring.zero, ring.add, ring.neg, ring.hyp, ring.name)


class TestResidueClosedForms:
    # Hyperideals and endomorphisms of Z_n[M] come from formulas; the search
    # on the same tables is the reference.  Z8[1,3] has k = 3 with
    # kM = k^2 M as sets but not elementwise.
    @settings(max_examples=150, deadline=None)
    @given(residue_rings(max_order=16))
    @example(make_zn_multiplier_ring(8, [1, 3]))
    def test_formulas_match_the_search(self, ring):
        copy = searched(ring)
        ideals = enumerate_hyperideals(ring)
        assert all(ideal.ring is ring for ideal in ideals)
        assert [(i.elements, i.proper) for i in ideals] == [
            (i.elements, i.proper) for i in enumerate_hyperideals(copy)
        ]
        endos = enumerate_endomorphisms(ring)
        assert all(alpha.source is alpha.target is ring for alpha in endos)
        assert [(alpha.map, alpha.name) for alpha in endos] == [
            (alpha.map, _endo_name(ring, alpha.map)) for alpha in enumerate_endomorphisms(copy)
        ]

    # Z8[1,2] has M^(j) = {1,2}, {1,2,4}, {0,1,2,4} and 25 product sets,
    # the search 8 * 25 operations.
    @settings(max_examples=150, deadline=None)
    @given(residue_rings(max_order=16), st.integers(1, 300), st.integers(1, 3000))
    @example(make_zn_multiplier_ring(8, [1, 2]), 25, 200)
    @example(make_zn_multiplier_ring(8, [1, 2]), 26, 199)
    @example(make_zn_multiplier_ring(8, [1, 2]), 26, 200)
    def test_product_sets_match_the_search(self, ring, max_sets, max_ops):
        # Under caps the search stops early with a part of the family; the
        # formula returns all of it, with the search's completeness flag.
        copy = searched(ring)
        assert product_set_closure(ring) == product_set_closure(copy)
        family, complete = product_set_closure(ring, max_sets, max_ops)
        part, searched_complete = product_set_closure(copy, max_sets, max_ops)
        assert complete == searched_complete
        assert part <= family and (part == family or not complete)

    @settings(max_examples=150, deadline=None)
    @given(residue_rings(max_order=16))
    @example(make_zn_multiplier_ring(12, [2, 6]))
    def test_residuals_and_ideal_pairs_match_the_search(self, ring):
        copy = searched(ring)
        for ideal in proper_hyperideals(ring):
            got = verifier._distinct_residuals(ring, ideal.elements)
            assert all(residual.ring is ring for _subset, residual in got)
            assert [(s, r.elements) for s, r in got] == [
                (s, r.elements) for s, r in verifier._distinct_residuals(copy, ideal.elements)
            ]
        assert verifier._ideal_pairs(ring) == verifier._ideal_pairs(copy)

    @settings(max_examples=150, deadline=None)
    @given(residue_rings(max_order=16), st.data())
    def test_hyperideal_violations_match_the_search(self, ring, data):
        copy = searched(ring)
        subsets = [i.elements for i in enumerate_hyperideals(ring)]
        subsets.append(data.draw(st.frozensets(st.integers(0, ring.order - 1))))
        for subset in subsets:
            assert hyperideal_violation(ring, subset) == hyperideal_violation(copy, subset)

    # A drawn table can move 0 outside the ideal: on Z4[1], (1, 0) is the
    # first pair for 2Z_4 with alpha(0) = 1.  The zero map has every
    # element in its alpha-radical.
    @settings(max_examples=300, deadline=None)
    @given(residue_maps())
    @example((make_zn_multiplier_ring(4, [1]), (1, 0, 0, 0)))
    @example((make_zn_multiplier_ring(4, [1]), (0, 0, 0, 0)))
    def test_alpha_prime_pairs_and_radicals_match_the_search(self, case):
        ring, table = case
        copy = searched(ring)
        alpha, twin = (Homomorphism(r, r, table, "drawn") for r in (ring, copy))
        for ideal in enumerate_hyperideals(ring):
            els = ideal.elements
            for mirrored in (False, True):
                assert _alpha_prime_violation(ring, els, alpha, mirrored) == _alpha_prime_violation(
                    copy, els, twin, mirrored
                ), (els, mirrored)
            assert _alpha_radical(ring, els, alpha) == _alpha_radical(copy, els, twin), els

    @settings(max_examples=150, deadline=None)
    @given(residue_rings(max_order=16), st.integers(1, 300), st.integers(1, 3000))
    @example(make_zn_multiplier_ring(8, [1, 2]), 25, 200)
    @example(make_zn_multiplier_ring(12, [2, 3]), 4096, 500_000)
    def test_c_status_matches_the_search(self, ring, max_sets, max_ops):
        # Under caps the search can leave unknown what the formula decides.
        copy = searched(ring)
        for ideal in enumerate_hyperideals(ring):
            els = ideal.elements
            assert is_c_hyperideal(ring, els) == is_c_hyperideal(copy, els)
            got = is_c_hyperideal(ring, els, max_sets, max_ops)
            expected = is_c_hyperideal(copy, els, max_sets, max_ops)
            assert got == expected or (expected, got) == (C_UNKNOWN, C_NO)

    # T24 holds for every scale map on a residue ring, good or not; a wrong
    # R/S, I/S or alpha* on the formula's side makes it fail there.
    @settings(max_examples=200, deadline=None)
    @given(residue_maps(kinds=("endo", "scale")))
    def test_subideal_quotient_pairs_match_the_search(self, case):
        ring, table = case
        copy = searched(ring)
        alpha, twin = (Homomorphism(r, r, table, "drawn") for r in (ring, copy))
        kind = verifier.KIND_RING_ALPHA_IDEAL
        for ideal in proper_hyperideals(ring):
            twin_ideal = HyperIdeal(copy, ideal.elements, True)
            got = verifier._c24(verifier.Instance("drawn", kind, ring, ideal=ideal, alpha=alpha))
            ref = verifier._c24(verifier.Instance("drawn", kind, copy, ideal=twin_ideal, alpha=twin))
            assert got == ref

    # T15 holds for every scale map on a residue ring; a wrong step law makes
    # it fail on the formula's side.  On Z12[2,3], 1Z o 1Z = 2Z_12 u 3Z_12 is
    # no ideal, so that product law compares sets.
    @settings(max_examples=200, deadline=None)
    @given(residue_maps(kinds=("endo", "scale")))
    @example((make_zn_multiplier_ring(12, [2, 3]), tuple(2 * x % 12 for x in range(12))))
    def test_alpha_radical_laws_match_the_search(self, case):
        ring, table = case
        copy = searched(ring)
        alpha, twin = (Homomorphism(r, r, table, "drawn") for r in (ring, copy))
        kind = verifier.KIND_RING_ALPHA
        got = verifier._c15(verifier.Instance("drawn", kind, ring, alpha=alpha))
        assert got == verifier._c15(verifier.Instance("drawn", kind, copy, alpha=twin))

    # On Z12[1,5], x -> 2x is not good and its kernel 6Z_12 lies in 2Z_12,
    # 3Z_12 and 6Z_12 but not in 4Z_12; the zero map's kernel is the ring.
    # Those keep the search, whose outcome may be an error.
    @settings(max_examples=200, deadline=None)
    @given(residue_maps(kinds=("endo", "scale")))
    @example((make_zn_multiplier_ring(12, [1, 5]), tuple(2 * x % 12 for x in range(12))))
    @example((make_zn_multiplier_ring(6, [1]), (0,) * 6))
    def test_kernel_quotient_pairs_match_the_search(self, case):
        ring, table = case
        copy = searched(ring)
        alpha, twin = (Homomorphism(r, r, table, "drawn") for r in (ring, copy))
        kind = verifier.KIND_RING_ALPHA_IDEAL

        def outcome(inst):
            try:
                return verifier._kernel_quotient_pair(inst)
            except HyperRingError as exc:
                return type(exc)

        for ideal in proper_hyperideals(ring):
            twin_ideal = HyperIdeal(copy, ideal.elements, True)
            got = outcome(verifier.Instance("drawn", kind, ring, ideal=ideal, alpha=alpha))
            ref = outcome(verifier.Instance("drawn", kind, copy, ideal=twin_ideal, alpha=twin))
            assert got == ref, ideal.elements

    @settings(max_examples=100, deadline=None)
    @given(residue_rings(max_order=16))
    def test_quotients_match_the_search(self, ring):
        copy = searched(ring)
        for ideal in proper_hyperideals(ring):
            got = quotient_ring(ring, ideal)
            ref = quotient_ring(copy, HyperIdeal(copy, ideal.elements, True))
            assert got.cosets == ref.cosets
            assert (got.projection.map, got.projection.name) == (ref.projection.map, ref.projection.name)
            assert got.projection.source is ring and got.projection.target is got.ring
            fields = ("name", "tags", "order", "zero", "add", "neg", "hyp", "props")
            assert [getattr(got.ring, f) for f in fields] == [getattr(ref.ring, f) for f in fields]

    @pytest.mark.parametrize("enumerate_", (enumerate_hyperideals, enumerate_endomorphisms))
    def test_cap_comes_before_the_formula(self, enumerate_):
        with pytest.raises(CapExceeded):
            enumerate_(make_zn_multiplier_ring(17, [1, 2]))
        with pytest.raises(CapExceeded):
            enumerate_(make_zn_multiplier_ring(6, [2]), 5)
        assert enumerate_(make_zn_multiplier_ring(6, [2]), 6)

    def test_validation_drops_the_residue_tags(self):
        # XOR tables tagged as a residue ring must not take the closed forms.
        ring = TRIANGULAR[0]
        tagged = validate_structure(
            RawRing(order=ring.order, zero=ring.zero, add=ring.add, neg=ring.neg, hyp=ring.hyp,
                    tags=("zn_multiplier", "degenerate_multiplier", "fixture"))
        )
        assert tagged.tags == ("fixture",)
        assert [i.elements for i in enumerate_hyperideals(tagged)] == [
            i.elements for i in enumerate_hyperideals(ring)
        ]
        assert [a.map for a in enumerate_endomorphisms(tagged)] == [
            a.map for a in enumerate_endomorphisms(ring)
        ]


class TestQuotient:
    @settings(max_examples=60, deadline=None)
    @given(rings_with_ideal())
    def test_tables_pass_full_validation_with_same_props(self, data):
        ring, ideal = data
        quotient = quotient_ring(ring, ideal)
        assert revalidated(quotient.ring).props == quotient.ring.props

    @settings(max_examples=60, deadline=None)
    @given(rings_with_ideal())
    def test_projection_is_good_and_surjective(self, data):
        ring, ideal = data
        quotient = quotient_ring(ring, ideal)
        proj = quotient.projection
        assert proj.source is ring and proj.target is quotient.ring
        assert proj.is_surjective
        assert_good(proj)

    @settings(max_examples=60, deadline=None)
    @given(rings_with_ideal())
    def test_cells_independent_of_representatives(self, data):
        # Every pair of the base, not just the coset minima, lands on the
        # cell: X o Y is the set of cosets meeting x o y + I.
        ring, ideal = data
        quotient = quotient_ring(ring, ideal)
        pi = quotient.projection.map
        q = quotient.ring
        assert frozenset().union(*quotient.cosets) == ring.carrier_set()
        assert [min(c) for c in quotient.cosets] == sorted(min(c) for c in quotient.cosets)
        for c, members in enumerate(quotient.cosets):
            assert all(pi[x] == c for x in members)
        for x in range(ring.order):
            for y in range(ring.order):
                assert pi[ring.add_of(x, y)] == q.add_of(pi[x], pi[y])
                shifted = {ring.add_of(t, i) for t in ring.product_of(x, y) for i in ideal.elements}
                meeting = frozenset(c for c, cs in enumerate(quotient.cosets) if cs & shifted)
                assert q.product_of(pi[x], pi[y]) == meeting
            assert pi[ring.neg_of(x)] == q.neg_of(pi[x])

    @settings(max_examples=40, deadline=None)
    @given(rings_with_ideal())
    def test_induced_endomorphisms_are_good(self, data):
        ring, ideal = data
        quotient = quotient_ring(ring, ideal)
        members = ideal.elements
        for alpha in enumerate_endomorphisms(ring):
            if alpha.image_of(members) <= members:
                assert_good(induced_quotient_endo(quotient, alpha))


def small_factor_pairs():
    return st.tuples(rings(max_order=8), rings(max_order=8)).filter(
        lambda pair: pair[0].order * pair[1].order <= 48
    )


class TestProduct:
    @settings(max_examples=30, deadline=None)
    @given(small_factor_pairs())
    def test_tables_pass_full_validation_with_same_props(self, pair):
        left, right = pair
        product = product_ring(left, right)
        assert product.ring.has_tables
        assert revalidated(product.ring).props == product.ring.props

    @settings(max_examples=30, deadline=None)
    @given(small_factor_pairs())
    def test_derived_props_agree_with_scan(self, pair):
        left, right = pair
        product = product_ring(left, right)
        assert _derived_product_props(left, right, right.order) == product.ring.props

    @settings(max_examples=20, deadline=None)
    @given(small_factor_pairs(), st.data())
    def test_componentwise_endomorphisms_are_good(self, pair, data):
        left, right = pair
        product = product_ring(left, right)
        alpha = data.draw(st.sampled_from(enumerate_endomorphisms(left)))
        beta = data.draw(st.sampled_from(enumerate_endomorphisms(right)))
        assert_good(product_endomorphism(product, alpha, beta))


@st.composite
def boxes(draw):
    """A product of order <= 48 and one hyperideal of each factor."""
    left, right = draw(small_factor_pairs())
    parts = [draw(st.sampled_from(enumerate_hyperideals(factor))) for factor in (left, right)]
    return product_ring(left, right), parts[0].elements, parts[1].elements


@st.composite
def boxes_with_a_non_ideal_part(draw):
    """A product and a factor part that is not a hyperideal of its factor."""
    left, right = draw(small_factor_pairs())
    side = draw(st.sampled_from((0, 1)))
    factor = (left, right)[side]
    part = draw(st.frozensets(st.sampled_from(range(factor.order))))
    assume(hyperideal_violation(factor, part) is not None)
    other = (right, left)[side].carrier_set()
    parts = (part, other) if side == 0 else (other, part)
    return product_ring(left, right), factor, part, parts


class TestBoxIdeal:
    @settings(max_examples=40, deadline=None)
    @given(boxes())
    def test_box_passes_closure_checks(self, data):
        product, left_els, right_els = data
        box = product_ideal(product, left_els, right_els)
        ring = product.ring
        assert box.ring is ring
        assert box.elements == frozenset(
            product.pair_index(x, y) for x in left_els for y in right_els
        )
        assert hyperideal_violation(ring, box.elements) is None
        assert box.proper == (box.elements != ring.carrier_set())

    @settings(max_examples=40, deadline=None)
    @given(boxes_with_a_non_ideal_part())
    def test_non_ideal_part_rejected_with_factor_witness(self, data):
        product, factor, part, parts = data
        with pytest.raises(NotAHyperideal) as caught:
            product_ideal(product, *parts)
        assert caught.value.witness == hyperideal_violation(factor, part)


@st.composite
def scan_cases(draw):
    """Both backends of one product, a subset, a map and a mirrored flag.

    The subset is a box of factor hyperideals (at most one side full) or
    any subset; the map is componentwise or any self-map of the carrier.
    """
    left, right = draw(
        st.tuples(residue_rings(8), residue_rings(8)).filter(
            lambda pair: pair[0].order * pair[1].order <= 48
        )
    )
    tabled, computed = product_ring(left, right), _computed_product(left, right)
    n = tabled.ring.order
    if draw(st.booleans()):
        parts = [draw(st.sampled_from(enumerate_hyperideals(f))).elements for f in (left, right)]
        assume(parts != [left.carrier_set(), right.carrier_set()])
        elements = product_ideal(tabled, *parts).elements
        assert computed.ring.box_absorbers(elements) is not None
    else:
        elements = draw(st.frozensets(st.integers(0, n - 1)))
    if draw(st.booleans()):
        alpha = product_endomorphism(
            tabled,
            draw(st.sampled_from(enumerate_endomorphisms(left))),
            draw(st.sampled_from(enumerate_endomorphisms(right))),
        )
        table = alpha.map
    else:
        table = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return tabled, computed, elements, table, draw(st.booleans())


class TestBoxAwareScan:
    @settings(max_examples=200, deadline=None)
    @given(scan_cases())
    def test_same_first_pair_on_both_backends(self, case):
        # Table rings keep the full scan, so they are the reference.
        tabled, computed, elements, table, mirrored = case
        expected = _alpha_prime_violation(
            tabled.ring, elements, Homomorphism(tabled.ring, tabled.ring, table, "drawn"), mirrored
        )
        got = _alpha_prime_violation(
            computed.ring, elements, Homomorphism(computed.ring, computed.ring, table, "drawn"), mirrored
        )
        assert got == expected


def triangular_ring(multipliers):
    """Upper-triangular 2x2 matrices over Z_2 with x o y = {x*m*y : m in M}.

    Index 4a + 2b + d stands for [[a, b], [0, d]].  The axioms follow from
    the matrix ring as they do for residue rings; validation checks them.
    """

    def mul(x, y):
        a, b, d = x >> 2, (x >> 1) & 1, x & 1
        e, f, h = y >> 2, (y >> 1) & 1, y & 1
        return (a & e) << 2 | ((a & f) ^ (b & h)) << 1 | (d & h)

    hyp = [[{mul(mul(x, m), y) for m in multipliers} for y in range(8)] for x in range(8)]
    add = [[x ^ y for y in range(8)] for x in range(8)]
    return validate_structure(
        RawRing(order=8, zero=0, add=add, neg=list(range(8)), hyp=hyp,
                name=f"UT2[{','.join(map(str, multipliers))}]")
    )


# M = {0}, {E22}, {I}, {0, I}, {E12, I}: 5 is the identity matrix.
TRIANGULAR = [triangular_ring(m) for m in ((0,), (1,), (5,), (0, 5), (2, 5))]
# Z2[0,1] is the one small residue ring whose strong distributivity fails
# only where b == c, at 1 o (1+1) = {0} against {0,1} + {0,1}.
SCANNED = TRIANGULAR + [make_zn_multiplier_ring(2, [0, 1])] + [build() for build in FIXTURES]


class TestPropertyScan:
    def test_triangular_rings_reach_both_branches(self):
        assert {r.props.strongly_distributive for r in TRIANGULAR} == {True, False}
        assert {r.props.commutative for r in TRIANGULAR} == {True, False}
        assert any(
            not r.props.commutative and r.props.strongly_distributive for r in TRIANGULAR
        )

    @pytest.mark.parametrize("ring", SCANNED, ids=lambda r: r.name)
    def test_scan_equals_props(self, ring):
        # Validation decides strong distributivity by its own sweep.
        assert structure_properties(ring) == ring.props == revalidated(ring).props
