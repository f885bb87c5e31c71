"""Deterministic instance corpus for the verification suite.

The default corpus sweeps every residue ring with modulus 2..12 and up to
three multipliers, pairs each with all of its good endomorphisms and
proper hyperideals, and adds hand-coded fixtures: table-form rings
exercising the table pathway, the order-8 even-multiplier ring with the
tripling endomorphism, and products of identity-bearing rings up to the
order-1225 pair of 35-element rings.

Rings are deduplicated by multiplier set mod n.  In Z_n[M] the cell
1 o 1 is {1*r*1 mod n : r in M} = M mod n, so two multiplier sets give the
same hyperoperation table exactly when they are equal mod n.

:func:`iter_corpus` builds one swept ring at a time and, once its
instances are consumed, empties its memo, so that reference counting
frees the ring before the next one is built; :func:`generate_corpus` is
the same instances as a cached tuple, whose rings keep their memos.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

from .constructions import (
    ProductRing, QuotientRing, product_endomorphism, product_ideal, product_ring, quotient_ring,
)
from .core import HyperRing, RawRing, make_zn_multiplier_ring, validate_structure
from .ideals import (
    HyperIdeal,
    alpha_prime_violation,
    alpha_prime_witness_ok,
    as_hyperideal,
    generate_hyperideal,
    proper_hyperideals,
)
from .morphisms import commutes, enumerate_endomorphisms
from .verifier import (
    KIND_HOM,
    KIND_PRODUCT,
    KIND_RING_ALPHA,
    KIND_RING_ALPHA_IDEAL,
    KIND_RING_IDEAL,
    Instance,
    STATUS_FAILS,
    STATUS_HOLDS,
    VerdictReport,
    iter_suite,
)


@dataclass(frozen=True)
class CorpusConfig:
    """Caps and seeds; every field has a deterministic default."""

    modulus_min: int = 2
    modulus_max: int = 12
    max_multipliers: int = 3
    multiplier_sets: tuple | None = None  # explicit family overriding the sweep
    include_fixtures: bool = True
    include_homs: bool = True
    include_products: bool = True
    include_large_product: bool = True
    hom_ring_names: tuple = (
        "Z4[1]",
        "Z5[2]",
        "Z6[2]",
        "Z8[0,2,4,6]",
        "Z12[2,3]",
    )
    product_pair_names: tuple = (
        ("Z2[1]", "Z3[1]"),
        ("Z3[1]", "Z2[1]"),
        ("Z3[1]", "Z5[1]"),
        ("Z4[1,3]", "Z3[1]"),
        ("Z4[1]", "Z4[1,3]"),
        ("Z6[1,5]", "Z2[1]"),
        ("Z5[2]", "Z7[3]"),
    )


DEFAULT_CONFIG = CorpusConfig()


def _ideal_key(elements) -> str:
    return ".".join(str(x) for x in sorted(elements))


# ---------------------------------------------------------------------------
# hand-coded fixtures


@lru_cache(maxsize=None)
def fixture_weak_identity() -> HyperRing:
    """Order-4 table ring with weak identity 1 (a o b = {ab, 3ab} mod 4)."""
    n = 4
    raw = RawRing(
        order=n,
        zero=0,
        add=tuple(tuple((a + b) % n for b in range(n)) for a in range(n)),
        neg=tuple((-a) % n for a in range(n)),
        hyp=tuple(
            tuple(frozenset(((a * b) % n, (3 * a * b) % n)) for b in range(n))
            for a in range(n)
        ),
        name="fix:weak-id",
        identity=1,
        identity_flavor="weak",
        tags=("fixture",),
    )
    return validate_structure(raw)


@lru_cache(maxsize=None)
def fixture_inclusion_only() -> HyperRing:
    """Order-12 table ring whose distributivity holds by inclusion only."""
    n = 12
    raw = RawRing(
        order=n,
        zero=0,
        add=tuple(tuple((a + b) % n for b in range(n)) for a in range(n)),
        neg=tuple((-a) % n for a in range(n)),
        hyp=tuple(
            tuple(frozenset(((2 * a * b) % n, (3 * a * b) % n)) for b in range(n))
            for a in range(n)
        ),
        name="fix:incl-only",
        tags=("fixture",),
    )
    return validate_structure(raw)


@lru_cache(maxsize=None)
def fixture_full_cell() -> HyperRing:
    """Order-2 ring where every product is the whole carrier.

    Valid, but not zero-absorbing: the ideal generated by zero is the full
    ring, which exercises the improper-kernel corners.
    """
    raw = RawRing(
        order=2,
        zero=0,
        add=((0, 1), (1, 0)),
        neg=(0, 1),
        hyp=((frozenset((0, 1)), frozenset((0, 1))),
             (frozenset((0, 1)), frozenset((0, 1)))),
        name="fix:full2",
        tags=("fixture",),
    )
    return validate_structure(raw)


@lru_cache(maxsize=None)
def fixture_even_multipliers() -> HyperRing:
    """Mod-8 ring with multipliers {0,2,4,6}: the tripling-map example ring."""
    return make_zn_multiplier_ring(8, (0, 2, 4, 6))


@lru_cache(maxsize=None)
def large_product() -> ProductRing:
    """The order-1225 product of the two 35-element multiplier rings."""
    left = make_zn_multiplier_ring(35, (1, 7))
    right = make_zn_multiplier_ring(35, (1, 5))
    return product_ring(left, right)


# ---------------------------------------------------------------------------
# corpus generation


def _swept_rings(config: CorpusConfig):
    """The swept residue rings, one per multiplier set mod n, each built
    when it is pulled."""
    for n in range(config.modulus_min, config.modulus_max + 1):
        if config.multiplier_sets is not None:
            families = [
                tuple(sorted({m % n for m in family}))
                for family in config.multiplier_sets
            ]
        else:
            families = [
                subset
                for size in range(1, min(config.max_multipliers, n) + 1)
                for subset in combinations(range(n), size)
            ]
        for subset in dict.fromkeys(families):
            if subset:
                yield make_zn_multiplier_ring(n, subset)


def _fixture_rings(config: CorpusConfig):
    if config.include_fixtures:
        yield fixture_weak_identity()
        yield fixture_inclusion_only()
        yield fixture_full_cell()
        yield fixture_even_multipliers()


@lru_cache(maxsize=None)
def corpus_rings(config: CorpusConfig = DEFAULT_CONFIG) -> tuple:
    return (*_swept_rings(config), *_fixture_rings(config))


def _named(config: CorpusConfig) -> set:
    """The names of the rings that the enabled hom and product sections use."""
    homs = config.hom_ring_names if config.include_homs else ()
    return set(homs).union(*(config.product_pair_names if config.include_products else ()))


def _released(rings, config: CorpusConfig):
    """``rings``, each released once the stream has moved past it, unless a
    later section names it.  Freed memo rows stay in CPython's free lists,
    which only a full collection empties: one runs after the last ring."""
    named = _named(config)
    for ring in rings:
        yield ring
        if ring.name not in named:
            _release(ring)
    gc.collect()


def _release(ring: HyperRing) -> None:
    """Empty the memo of ``ring`` and of the quotients stored in it.  Memo
    keys hold their ring, so a filled memo is a reference cycle that only
    the cyclic collector frees; emptied, the ring goes by reference count."""
    for value in ring.memo.values():
        if isinstance(value, QuotientRing):
            value.ring.memo.clear()
    ring.memo.clear()


def _ring_instances(ring: HyperRing) -> list:
    instances = []
    endos = enumerate_endomorphisms(ring)
    ideals = proper_hyperideals(ring)
    for alpha in endos:
        instances.append(
            Instance(
                uid=f"{ring.name}|a={alpha.name}",
                kind=KIND_RING_ALPHA,
                ring=ring,
                alpha=alpha,
            )
        )
    for ideal in ideals:
        instances.append(
            Instance(
                uid=f"{ring.name}|I={_ideal_key(ideal.elements)}",
                kind=KIND_RING_IDEAL,
                ring=ring,
                ideal=ideal,
            )
        )
    for alpha in endos:
        for ideal in ideals:
            instances.append(
                Instance(
                    uid=f"{ring.name}|a={alpha.name}|I={_ideal_key(ideal.elements)}",
                    kind=KIND_RING_ALPHA_IDEAL,
                    ring=ring,
                    alpha=alpha,
                    ideal=ideal,
                )
            )
    return instances


def _hom_instances(ring: HyperRing) -> list:
    """Self-maps plus quotient projections, with commuting endomorphisms."""
    instances = []
    endos = enumerate_endomorphisms(ring)
    ideals = proper_hyperideals(ring)
    for f in endos:
        for alpha in endos:
            if not commutes(f, alpha, alpha):
                continue
            for source_ideal in ideals:
                for target_ideal in ideals:
                    uid = (
                        f"{ring.name}|f={f.name}|a={alpha.name}"
                        f"|I1={_ideal_key(source_ideal.elements)}"
                        f"|I2={_ideal_key(target_ideal.elements)}"
                    )
                    instances.append(
                        Instance(
                            uid=uid,
                            kind=KIND_HOM,
                            ring=ring,
                            hom=f,
                            alpha=alpha,
                            alpha_target=alpha,
                            ideal=source_ideal,
                            ideal_target=target_ideal,
                        )
                    )
    for alpha in endos:
        for ideal in ideals:
            if not all(alpha.map[x] in ideal.elements for x in ideal.elements):
                continue
            quotient = quotient_ring(ring, ideal)
            from .constructions import induced_quotient_endo

            star = induced_quotient_endo(quotient, alpha)
            for source_ideal in ideals:
                if not ideal.elements <= source_ideal.elements:
                    continue
                image = as_hyperideal(
                    quotient.ring,
                    frozenset(quotient.projection.map[x] for x in source_ideal.elements),
                )
                uid = (
                    f"{ring.name}|f=proj[{_ideal_key(ideal.elements)}]|a={alpha.name}"
                    f"|I1={_ideal_key(source_ideal.elements)}"
                    f"|I2={_ideal_key(image.elements)}"
                )
                instances.append(
                    Instance(
                        uid=uid,
                        kind=KIND_HOM,
                        ring=ring,
                        hom=quotient.projection,
                        alpha=alpha,
                        alpha_target=star,
                        ideal=source_ideal,
                        ideal_target=image,
                    )
                )
    return instances


def _product_instances(product: ProductRing, alpha_pairs, tag="") -> list:
    """All box ideals I1 x I2 (skipping the improper full box) per alpha pair."""
    instances = []
    left, right = product.left, product.right
    left_options = list(proper_hyperideals(left)) + [
        HyperIdeal(left, left.carrier_set(), proper=False)
    ]
    right_options = list(proper_hyperideals(right)) + [
        HyperIdeal(right, right.carrier_set(), proper=False)
    ]
    for a1, a2 in alpha_pairs:
        abar = product_endomorphism(product, a1, a2)
        for l_ideal in left_options:
            for r_ideal in right_options:
                if not l_ideal.proper and not r_ideal.proper:
                    continue
                box = product_ideal(product, l_ideal.elements, r_ideal.elements)
                uid = (
                    f"{product.ring.name}{tag}|a=({a1.name},{a2.name})"
                    f"|I1={_ideal_key(l_ideal.elements)}"
                    f"|I2={_ideal_key(r_ideal.elements)}"
                )
                instances.append(
                    Instance(
                        uid=uid,
                        kind=KIND_PRODUCT,
                        ring=product.ring,
                        product=product,
                        ideal=box,
                        alpha=abar,
                        left_ideal=l_ideal,
                        right_ideal=r_ideal,
                        left_alpha=a1,
                        right_alpha=a2,
                    )
                )
    return instances


def iter_corpus(config: CorpusConfig = DEFAULT_CONFIG):
    """The instances of :func:`generate_corpus`, in the same order, built
    lazily: each swept ring is released once its instances are consumed,
    except the rings the hom and product sections name."""
    return _instances(config, chain(_released(_swept_rings(config), config), _fixture_rings(config)))


@lru_cache(maxsize=None)
def generate_corpus(config: CorpusConfig = DEFAULT_CONFIG) -> tuple:
    """The full deterministic instance list for a configuration."""
    return tuple(_instances(config, corpus_rings(config)))


def _instances(config: CorpusConfig, rings):
    """The corpus over ``rings``, holding on only to the rings it names."""
    named = _named(config)
    by_name = {}
    for ring in rings:
        if ring.name in named:
            by_name[ring.name] = ring
        yield from _ring_instances(ring)
    if config.include_homs:
        for name in config.hom_ring_names:
            ring = by_name.get(name)
            if ring is not None:
                yield from _hom_instances(ring)
    if config.include_products:
        for left_name, right_name in config.product_pair_names:
            left = by_name.get(left_name)
            right = by_name.get(right_name)
            if left is None or right is None:
                continue
            product = product_ring(left, right)
            endo_pairs = [
                (a1, a2)
                for a1 in enumerate_endomorphisms(left)
                for a2 in enumerate_endomorphisms(right)
            ]
            yield from _product_instances(product, endo_pairs)
    if config.include_large_product:
        product = large_product()
        from .morphisms import identity_endomorphism

        id_left = identity_endomorphism(product.left)
        id_right = identity_endomorphism(product.right)
        seven = frozenset(range(0, 35, 7))
        five = frozenset(range(0, 35, 5))
        lefts = [
            as_hyperideal(product.left, seven),
            HyperIdeal(product.left, product.left.carrier_set(), proper=False),
        ]
        rights = [
            as_hyperideal(product.right, five),
            HyperIdeal(product.right, product.right.carrier_set(), proper=False),
        ]
        abar = product_endomorphism(product, id_left, id_right)
        for l_ideal in lefts:
            for r_ideal in rights:
                if not l_ideal.proper and not r_ideal.proper:
                    continue
                box = product_ideal(product, l_ideal.elements, r_ideal.elements)
                uid = (
                    f"{product.ring.name}|a=(id,id)"
                    f"|I1={_ideal_key(l_ideal.elements)}"
                    f"|I2={_ideal_key(r_ideal.elements)}"
                )
                yield Instance(
                    uid=uid,
                    kind=KIND_PRODUCT,
                    ring=product.ring,
                    product=product,
                    ideal=box,
                    alpha=abar,
                    left_ideal=l_ideal,
                    right_ideal=r_ideal,
                    left_alpha=id_left,
                    right_alpha=id_right,
                )


def iter_suite_by_class(corpus, selection=None):
    """The records of :func:`iter_suite` over ``corpus``, with each class of
    isomorphic residue rings decided once.

    For a unit u of Z_n, x -> ux maps Z_n[M] onto Z_n[u^-1 M], since
    u(a*m*b) = ua * (u^-1 m) * ub.  It fixes every hyperideal dZ_n and
    commutes with every good endomorphism, a scale map, so it sends an
    instance to the instance of the other ring with the same endomorphism
    table and ideal set; the corpus lists both in the same place.  A class
    is keyed by n and the least sorted u*M.  The first ring of a class keeps
    the rows of its records whose witness names no element (holds, and
    hypotheses not met or undecided); a later ring takes those rows, place by
    place, while its components equal the first ring's, and checks every
    other record on its own instance, so each fails witness is still found
    and re-verified there.  The rows are kept for one modulus at a time, one
    bytearray of interned ids per class, and no ring is held.
    """
    iter_suite((), selection)  # an unknown id raises before any record
    modulus = ring = None
    for instance in corpus:
        if (instance.kind not in (KIND_RING_ALPHA, KIND_RING_IDEAL, KIND_RING_ALPHA_IDEAL)
                or "zn_multiplier" not in instance.ring.tags):
            modulus = ring = stored = classes = parts = rows = table = None
            yield from iter_suite((instance,), selection)
            continue
        if instance.ring is not ring:
            ring = instance.ring
            n = ring.order
            if n != modulus:
                modulus, classes, parts, rows, table = n, {}, {}, {}, []
                units = [u for u in range(1, n) if any(u * v % n == 1 for v in range(n))]
            key = min(tuple(sorted(u * m % n for m in ring.hyp[1][1])) for u in units)
            stored = classes.get(key)
            recording = stored is None
            if recording:
                stored = classes[key] = bytearray()
            at = 0
        alpha, ideal = instance.alpha, instance.ideal
        components = (instance.kind, alpha if alpha is None else alpha.map,
                      ideal if ideal is None else ideal.elements)
        part = parts.setdefault(components, len(parts))
        if recording:
            ids = []
            for verdict in iter_suite((instance,), selection):
                yield verdict
                witness = verdict.witness
                copied = witness is None or (isinstance(witness, tuple) and len(witness) == 2  # as in write_report
                                             and witness[0] == "hypothesis" and isinstance(witness[1], str))
                row = verdict[1:] if copied else (verdict.theorem,)  # a selection of one check
                rid = rows.get(row)
                if rid is None:
                    rid = rows[row] = len(table)
                    table.append(row)
                ids.append(rid)
            if max((part, *ids)) > 255:
                recording, stored = False, None  # the rest of this ring and class is checked
            else:
                stored.extend((part, len(ids), *ids))
        elif stored is not None and at < len(stored) and stored[at] == part:
            width = stored[at + 1]
            for rid in stored[at + 2:at + 2 + width]:
                row = table[rid]
                yield VerdictReport(instance.uid, *row) if len(row) > 1 else next(iter_suite((instance,), row))
            at += 2 + width
        else:
            stored = None  # the components part from the first ring's: check the rest
            yield from iter_suite((instance,), selection)


# ---------------------------------------------------------------------------
# classification checks for the worked examples


def worked_example_records() -> list:
    """Four pinned classification records (ids P01..P04).

    P01/P02: the two generated ideals of the {2,3}-multiplier mod-12 ring
    are alpha-prime under the identity.  P03: the even ideal of the
    even-multiplier mod-8 ring is NOT alpha-prime under tripling (a known
    discrepancy, kept as a fails record with its witness).  P04: the
    7-multiples x 5-multiples box in the big product is not alpha-prime
    under the identity, and the pinned witness pair re-verifies.
    """

    from .morphisms import identity_endomorphism, scale_endomorphism

    records = []

    r12 = make_zn_multiplier_ring(12, (2, 3))
    alpha = identity_endomorphism(r12)
    for pid, generator in (("P01", 2), ("P02", 3)):
        ideal = generate_hyperideal(r12, (generator,))
        pair = alpha_prime_violation(r12, ideal, alpha)
        records.append(
            VerdictReport(
                instance=f"{r12.name}|a=id|I=gen({generator})",
                theorem=pid,
                status=STATUS_HOLDS if pair is None else STATUS_FAILS,
                hypotheses=(("ideal proper", "true"),),
                witness=None if pair is None else ("pair", pair[0], pair[1]),
                statement=(
                    f"the ideal generated by {generator} in the {{2,3}}-multiplier "
                    "mod-12 ring is alpha-prime under the identity"
                ),
            )
        )

    z8 = fixture_even_multipliers()
    tripling = scale_endomorphism(z8, 3)
    even = generate_hyperideal(z8, (2,))
    pair = alpha_prime_violation(z8, even, tripling)
    records.append(
        VerdictReport(
            instance=f"{z8.name}|a=scale3|I=gen(2)",
            theorem="P03",
            status=STATUS_HOLDS if pair is None else STATUS_FAILS,
            hypotheses=(("ideal proper", "true"),),
            witness=None if pair is None else ("pair", pair[0], pair[1]),
            statement=(
                "the even ideal of the even-multiplier mod-8 ring is "
                "alpha-prime under tripling (expected to fail; ledgered)"
            ),
        )
    )

    product = large_product()
    abar = product_endomorphism(
        product,
        identity_endomorphism(product.left),
        identity_endomorphism(product.right),
    )
    box = product_ideal(
        product, frozenset(range(0, 35, 7)), frozenset(range(0, 35, 5))
    )
    pair = alpha_prime_violation(product.ring, box, abar)
    pinned = (product.pair_index(5, 0), product.pair_index(0, 7))
    pinned_ok = alpha_prime_witness_ok(product.ring, box, abar, *pinned)
    found_ok = pair is not None and alpha_prime_witness_ok(
        product.ring, box, abar, *pair
    )
    ok = pair is not None and pinned_ok and found_ok
    records.append(
        VerdictReport(
            instance=f"{product.ring.name}|a=(id,id)|I1=7Z|I2=5Z",
            theorem="P04",
            status=STATUS_HOLDS if ok else STATUS_FAILS,
            hypotheses=(("product ideal proper", "true"),),
            witness=(
                "pairs",
                ("found",) + (pair if pair else ()),
                ("pinned",) + pinned,
            ),
            statement=(
                "the 7-multiples x 5-multiples box in the product of the two "
                "mod-35 rings is not alpha-prime under the identity; the "
                "pinned and the canonically found witnesses both re-verify"
            ),
        )
    )
    return records
