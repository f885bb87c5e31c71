"""Memoized results live in the memo of the ring they describe.

Every memoized function keeps its results in ``ring.memo`` of the ring
that owns its first argument, so a ring's cached data is freed with the
ring: a long-lived process that builds and discards rings does not grow.
A repeated call returns the stored object, and omitted default arguments
share the entry of the explicit ones.
"""

import gc
import types
import weakref

from hypothesis import given, settings, strategies as st

from hyperring import (
    Homomorphism,
    HyperIdeal,
    QuotientRing,
    enumerate_endomorphisms,
    enumerate_hyperideals,
    induced_quotient_endo,
    kernel,
    make_zn_multiplier_ring,
    product_ring,
    proper_hyperideals,
    quotient_ring,
    radical_detail,
)
from hyperring import constructions, core, ideals, morphisms, verifier
from hyperring.errors import NotInvariant
from hyperring.ideals import (
    DEFAULT_CLOSURE_OPS,
    DEFAULT_CLOSURE_SETS,
    DEFAULT_ENUM_CAP,
    alpha_prime_violation,
)

MEMOIZED = {
    obj
    for module in (core, ideals, morphisms, constructions, verifier)
    for obj in vars(module).values()
    if isinstance(obj, types.FunctionType) and hasattr(obj, "cache_info")
}


def exercise(ring):
    """Fill the ring's memo through every layer that caches into it."""
    endos = enumerate_endomorphisms(ring)
    for ideal in proper_hyperideals(ring):
        radical_detail(ring, ideal)
        quotient = quotient_ring(ring, ideal)
        for alpha in endos:
            alpha_prime_violation(ring, ideal, alpha)
            try:
                induced_quotient_endo(quotient, alpha)
            except NotInvariant:
                pass
    for alpha in endos:
        kernel(alpha)


def test_every_cache_outside_the_corpus_is_a_ring_memo():
    assert len(MEMOIZED) == 23
    assert verifier.catalog not in MEMOIZED


def test_ring_is_freed_with_its_memo():
    ring = make_zn_multiplier_ring(12, [2, 3])
    exercise(ring)
    assert ring.memo
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None


def test_discard_loop_leaves_no_entries():
    watched = (core.power_orbit, ideals._alpha_prime_violation)
    gc.collect()
    before = [fn.cache_info().currsize for fn in watched]
    misses = [fn.cache_info().misses for fn in watched]
    refs = []
    for _ in range(600):
        ring = make_zn_multiplier_ring(12, [2, 3])
        exercise(ring)
        refs.append(weakref.ref(ring))
    del ring
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert [fn.cache_info().currsize for fn in watched] == before
    grown = [fn.cache_info().misses - m for fn, m in zip(watched, misses)]
    assert grown == [7200, 12000]


def plain(value):
    """A structural form of a memoized result, for comparison by value."""
    if isinstance(value, tuple):
        return tuple(plain(v) for v in value)
    if isinstance(value, HyperIdeal):
        return ("ideal", value.elements, value.proper)
    if isinstance(value, Homomorphism):
        return ("map", value.map, value.name)
    if isinstance(value, QuotientRing):
        ring = value.ring
        return ("quotient", value.cosets, ring.add, ring.neg, ring.hyp, plain(value.projection))
    return value


def memo_calls(ring):
    """(function, args, kwargs) for every memoized function on one ring."""
    endos = enumerate_endomorphisms(ring)
    proper = proper_hyperideals(ring)
    calls = [(core.power_orbit, (ring, x), {}) for x in ring.elements()]
    calls += [
        (ideals._generated_elements, (ring, frozenset((x,))), {}) for x in ring.elements()
    ]
    calls += [
        (enumerate_hyperideals, (ring,), {}),
        (enumerate_hyperideals, (ring, DEFAULT_ENUM_CAP), {}),
        (enumerate_hyperideals, (ring,), {"max_order": DEFAULT_ENUM_CAP}),
        (ideals.product_set_closure, (ring,), {}),
        (ideals.product_set_closure, (ring, DEFAULT_CLOSURE_SETS, DEFAULT_CLOSURE_OPS), {}),
        (ideals.prime_ideals, (ring,), {}),
        (ideals.prime_ideals, (ring, DEFAULT_ENUM_CAP), {}),
        (ideals._zero_divisors, (ring,), {}),
        (ideals._residue_radicals, (ring,), {}),
        (morphisms.identity_endomorphism, (ring,), {}),
        (enumerate_endomorphisms, (ring,), {}),
        (enumerate_endomorphisms, (ring,), {"max_order": DEFAULT_ENUM_CAP}),
        (verifier._ideal_pairs, (ring,), {}),
    ]
    for ideal in proper:
        els = ideal.elements
        quotient = quotient_ring(ring, ideal)
        calls += [
            (ideals._prime_violation, (ring, els), {}),
            (ideals._d_set, (ring, els), {}),
            (quotient_ring, (ring, ideal), {}),
            (verifier._quotient_image, (quotient, els), {}),
            (verifier._distinct_residuals, (ring, els), {}),
        ]
        for alpha in endos:
            calls += [
                (ideals._alpha_prime_violation, (ring, els, alpha, False), {}),
                (ideals._alpha_prime_violation, (ring, els, alpha, True), {}),
                (ideals._alpha_radical, (ring, els, alpha), {}),
            ]
            if alpha.image_of(els) <= els:
                calls.append((induced_quotient_endo, (quotient, alpha), {}))
    for alpha in endos:
        calls += [
            (ideals.alpha_nilradical, (ring, alpha), {}),
            (kernel, (alpha,), {}),
            (verifier._alpha_prime_proper_sets, (ring, alpha), {}),
        ]
    two = make_zn_multiplier_ring(2, [1])
    product = product_ring(ring, two)
    two_id = morphisms.identity_endomorphism(two)
    full = frozenset(two.elements())
    for alpha in endos[:2]:
        calls.append((constructions.product_endomorphism, (product, alpha, two_id), {}))
    for ideal in proper[:2]:
        calls.append((constructions.product_ideal, (product, ideal.elements, full), {}))
    return calls


@st.composite
def residue_rings(draw, max_order=12):
    n = draw(st.integers(2, max_order))
    multipliers = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    return make_zn_multiplier_ring(n, sorted(multipliers))


@settings(max_examples=25, deadline=None)
@given(residue_rings())
def test_memoized_results_equal_fresh_computations(ring):
    calls = memo_calls(ring)
    assert {fn for fn, _args, _kwargs in calls} == MEMOIZED
    for fn, args, kwargs in calls:
        first = fn(*args, **kwargs)
        assert fn(*args, **kwargs) is first
        assert plain(fn.__wrapped__(*args, **kwargs)) == plain(first)
    assert enumerate_hyperideals(ring) is enumerate_hyperideals(ring, DEFAULT_ENUM_CAP)
    assert enumerate_endomorphisms(ring, max_order=DEFAULT_ENUM_CAP) is enumerate_endomorphisms(ring)
    assert ideals.product_set_closure(ring) is ideals.product_set_closure(
        ring, DEFAULT_CLOSURE_SETS, DEFAULT_CLOSURE_OPS
    )
