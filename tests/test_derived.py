"""Derived structures are trusted by construction; these tests re-check them.

Quotients, products and the maps between them are built without
re-validation, because a surjective good homomorphism carries every axiom
over to its image.  Each check that the constructors no longer run is
asserted here instead, over random residue rings, the table fixtures and
random proper hyperideals: full validation accepts the derived tables with
the same property record, and every derived map is good.
"""

from hypothesis import assume, given, settings, strategies as st

from hyperring import (
    RawRing,
    enumerate_endomorphisms,
    induced_quotient_endo,
    is_good_homomorphism,
    make_zn_multiplier_ring,
    product_endomorphism,
    product_ring,
    proper_hyperideals,
    quotient_ring,
    validate_structure,
)
from hyperring.constructions import _derived_product_props
from hyperring.corpus import (
    fixture_even_multipliers,
    fixture_full_cell,
    fixture_inclusion_only,
    fixture_weak_identity,
)

FIXTURES = (
    fixture_weak_identity,
    fixture_inclusion_only,
    fixture_full_cell,
    fixture_even_multipliers,
)


@st.composite
def residue_rings(draw, max_order=12):
    n = draw(st.integers(2, max_order))
    multipliers = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    return make_zn_multiplier_ring(n, sorted(multipliers))


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
