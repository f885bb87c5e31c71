import pytest

from hyperring import (
    as_hyperideal,
    enumerate_endomorphisms,
    identity_endomorphism,
    induced_quotient_endo,
    is_alpha_prime,
    is_good_homomorphism,
    kernel,
    make_zn_multiplier_ring,
    product_endomorphism,
    product_ideal,
    product_ring,
    proper_hyperideals,
    quotient_ring,
    scale_endomorphism,
    trivial_ring,
)
from hyperring.constructions import ProductBackedRing, ProductRing, _derived_product_props
from hyperring.errors import (
    BadEndomorphism,
    CapExceeded,
    HyperRingError,
    NotAHyperideal,
    NotInvariant,
    NotProper,
)
from hyperring.ideals import HyperIdeal


def _computed_product(left, right):
    """The product on the computed backend, whatever its order."""
    props = _derived_product_props(left, right, right.order)
    ring = ProductBackedRing(left, right, f"({left.name}x{right.name})", props)
    return ProductRing(left, right, ring)


class TestQuotient:
    def test_mod_three_coset_structure(self, r6, i03):
        quotient = quotient_ring(r6, i03)
        assert quotient.ring.order == 3
        assert [sorted(c) for c in quotient.cosets] == [[0, 3], [1, 4], [2, 5]]
        assert quotient.cosets[quotient.ring.zero] == i03.elements

    def test_mod_two_products_collapse(self, r6, i024):
        quotient = quotient_ring(r6, i024)
        assert quotient.ring.order == 2
        zero = quotient.ring.zero
        for a in range(2):
            for b in range(2):
                assert quotient.ring.product_of(a, b) == frozenset({zero})

    def test_hand_built_non_ideal_rejected(self):
        ring = make_zn_multiplier_ring(4, [1])
        fake = HyperIdeal(ring, frozenset({0, 1}), proper=True)
        with pytest.raises(HyperRingError):
            quotient_ring(ring, fake)

    def test_equal_ideals_share_one_quotient(self, r12):
        # Each endomorphism builds its own kernel object; equal element sets
        # make equal ideals, which the memo serves one quotient.
        kernels = [kernel(alpha) for alpha in enumerate_endomorphisms(r12)]
        assert len({ker.elements for ker in kernels if ker.proper}) > 1
        for ker in filter(lambda ker: ker.proper, kernels):
            (ideal,) = [i for i in proper_hyperideals(r12) if i.elements == ker.elements]
            assert ker is not ideal and ker == ideal and hash(ker) == hash(ideal)
            assert quotient_ring(r12, ker) is quotient_ring(r12, ideal)

    def test_ideals_differ_by_ring_or_elements(self, r6, r12):
        ideal = as_hyperideal(r6, {0, 3})
        assert ideal != as_hyperideal(r6, {0, 2, 4})
        assert ideal != HyperIdeal(make_zn_multiplier_ring(6, [2]), ideal.elements, True)
        assert ideal != HyperIdeal(r12, ideal.elements, True)
        assert ideal != ideal.elements

    def test_non_ideal_rejected_beside_a_shared_quotient(self, r6, i03):
        quotient_ring(r6, i03)
        for fake in ({0, 1}, {0, 2}, {0, 3, 1}):
            with pytest.raises(NotAHyperideal):
                quotient_ring(r6, HyperIdeal(r6, frozenset(fake), proper=True))

    def test_quotient_by_zero_is_isomorphic_copy(self, r6):
        quotient = quotient_ring(r6, as_hyperideal(r6, {0}))
        assert quotient.ring.order == 6
        assert quotient.ring.props == r6.props

    def test_projection_is_good_epimorphism(self, r6, r12):
        for ring in (r6, r12):
            for ideal in proper_hyperideals(ring):
                quotient = quotient_ring(ring, ideal)
                assert quotient.projection.is_surjective
                ok, _ = is_good_homomorphism(
                    quotient.projection.map, ring, quotient.ring
                )
                assert ok
                assert ideal.elements <= kernel(quotient.projection).elements

    def test_improper_ideal_rejected(self, r6):
        with pytest.raises(NotProper):
            quotient_ring(r6, as_hyperideal(r6, set(range(6))))

    def test_zero_coset_bridge_for_c_ideals(self, r6, r12):
        # for a C-hyperideal: the zero coset lies in the coset product of
        # (x, y) exactly when x o y lands inside the ideal
        for ring in (r6, r12):
            for ideal in proper_hyperideals(ring):
                if ideal.c_status != "yes":
                    continue
                quotient = quotient_ring(ring, ideal)
                proj = quotient.projection.map
                zero = quotient.ring.zero
                for x in range(ring.order):
                    for y in range(ring.order):
                        in_product = zero in quotient.ring.product_of(proj[x], proj[y])
                        assert in_product == (ring.product_of(x, y) <= ideal.elements)


class TestInducedEndomorphism:
    def test_tripling_drops_to_zero_map(self, r6, i03, r6_scale3):
        quotient = quotient_ring(r6, i03)
        star = induced_quotient_endo(quotient, r6_scale3)
        c1 = quotient.coset_of(1)
        assert star.map[c1] == quotient.coset_of(3)

    def test_identity_induces_identity(self, r6, i03):
        quotient = quotient_ring(r6, i03)
        star = induced_quotient_endo(quotient, identity_endomorphism(r6))
        assert star.is_identity

    def test_scale4_induces_identity_like_map(self, r6, i03, r6_scale4):
        quotient = quotient_ring(r6, i03)
        star = induced_quotient_endo(quotient, r6_scale4)
        c1 = quotient.coset_of(1)
        assert star.map[c1] == quotient.coset_of(4)
        assert star.map[c1] == c1

    def test_non_invariant_rejected(self):
        ring = make_zn_multiplier_ring(8, [0, 2, 4, 6])
        ideal = as_hyperideal(ring, {0, 4})
        quotient = quotient_ring(ring, ideal)
        # x -> 3x sends 4 inside, so pick an alpha moving the ideal out:
        # scale by 2 maps 4 -> 0 (fine) but scale by primes keep it; build
        # a ring where invariance genuinely fails instead
        r9 = make_zn_multiplier_ring(9, [3])
        i3 = as_hyperideal(r9, {0, 3, 6})
        q9 = quotient_ring(r9, i3)
        bad = None
        for endo in enumerate_endomorphisms(r9):
            if not all(endo.map[x] in i3.elements for x in i3.elements):
                bad = endo
                break
        if bad is not None:
            with pytest.raises(NotInvariant):
                induced_quotient_endo(q9, bad)


class TestProduct:
    def test_trivial_factor_keeps_structure(self, r6):
        product = product_ring(r6, trivial_ring())
        assert product.ring.order == 6
        assert product.ring.props.commutative == r6.props.commutative
        assert product.ring.props.zero_absorbing == r6.props.zero_absorbing

    def test_square_product_properties(self, r6):
        product = product_ring(r6, r6)
        assert product.ring.order == 36
        assert product.ring.props.commutative
        assert product.ring.props.zero_absorbing

    def test_cap(self, r6):
        with pytest.raises(CapExceeded):
            product_ring(r6, r6, max_order=10)

    def test_pair_indexing_row_major(self, r6, r5):
        product = product_ring(r6, r5)
        assert product.pair_index(2, 3) == 2 * 5 + 3
        assert product.pair_of(13) == (2, 3)

    def test_computed_backend_matches_tables(self, r6, r5):
        full = product_ring(r6, r5)
        lazy = _computed_product(r6, r5)
        assert full.ring.has_tables and not lazy.ring.has_tables
        assert full.ring.props == lazy.ring.props
        for a in range(30):
            assert full.ring.neg_of(a) == lazy.ring.neg_of(a)
            for b in range(30):
                assert full.ring.add_of(a, b) == lazy.ring.add_of(a, b)
                assert full.ring.product_of(a, b) == lazy.ring.product_of(a, b)

    def test_alpha_prime_same_on_both_backends(self, r6, r5, i03):
        full = product_ring(r6, r5)
        lazy = _computed_product(r6, r5)
        for product in (full, lazy):
            box = product_ideal(product, i03.elements, frozenset(range(5)))
            abar = product_endomorphism(
                product, identity_endomorphism(r6), identity_endomorphism(r5)
            )
            assert is_alpha_prime(product.ring, box, abar) == is_alpha_prime(
                r6, i03, identity_endomorphism(r6)
            )

    def test_box_ideal_verified(self, r6, r5, i03):
        product = product_ring(r6, r5)
        box = product_ideal(product, i03.elements, frozenset({0}))
        assert len(box.elements) == 2
        assert box.proper


class TestProductEndomorphism:
    def test_identity_pair_is_identity(self, r6, r5):
        product = product_ring(r6, r5)
        abar = product_endomorphism(
            product, identity_endomorphism(r6), identity_endomorphism(r5)
        )
        assert abar.is_identity

    def test_componentwise_pair_verified_good(self, r6):
        product = product_ring(r6, r6)
        abar = product_endomorphism(
            product, scale_endomorphism(r6, 3), scale_endomorphism(r6, 4)
        )
        ok, _ = is_good_homomorphism(abar.map, product.ring, product.ring)
        assert ok

    def test_zero_pair_is_zero(self, r6):
        product = product_ring(r6, r6)
        abar = product_endomorphism(
            product, scale_endomorphism(r6, 0), scale_endomorphism(r6, 0)
        )
        assert abar.is_zero_map

    def test_commutes_with_projections(self, r6, r5):
        product = product_ring(r6, r5)
        a1 = scale_endomorphism(r6, 3)
        a2 = identity_endomorphism(r5)
        abar = product_endomorphism(product, a1, a2)
        for i in range(product.ring.order):
            x1, x2 = product.pair_of(i)
            y1, y2 = product.pair_of(abar.map[i])
            assert y1 == a1.map[x1]
            assert y2 == a2.map[x2]

    def test_printed_reading_rejected_when_not_good(self, r12):
        # with two-element cells the printed reading produces a diagonal
        # image where a cartesian one is required
        product = product_ring(r12, r12)
        with pytest.raises(BadEndomorphism):
            product_endomorphism(
                product,
                identity_endomorphism(r12),
                identity_endomorphism(r12),
                printed_reading=True,
            )

    def test_printed_reading_accepted_when_degenerate(self, r6):
        # singleton cells collapse the diagonal/cartesian distinction
        product = product_ring(r6, r6)
        abar = product_endomorphism(
            product,
            identity_endomorphism(r6),
            scale_endomorphism(r6, 3),
            printed_reading=True,
        )
        ok, _ = is_good_homomorphism(abar.map, product.ring, product.ring)
        assert ok
