"""Good homomorphisms between finite multiplicative hyperrings.

A map is good when it preserves addition pointwise and the hyperoperation
as set images.  Endomorphisms are homomorphisms with source = target; the
exhaustive enumeration drives the verification corpus.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

from .core import ElementSet, HyperRing, memoized
from .errors import BadHomomorphism, CapExceeded
from .ideals import (
    DEFAULT_ENUM_CAP,
    HyperIdeal,
    as_hyperideal,
    hyperideal_violation,
    zero_ideal,
)


class Homomorphism:
    """A validated good homomorphism, stored as a full image table.

    Hashable by identity; ``name`` is a stable label used in reports.
    """

    __slots__ = ("source", "target", "map", "name")

    def __init__(self, source: HyperRing, target: HyperRing, mapping: Sequence[int], name: str):
        self.source = source
        self.target = target
        self.map = tuple(mapping)
        self.name = name

    def __repr__(self):
        return f"Homomorphism({self.name}: {self.source.name} -> {self.target.name})"

    def __call__(self, x: int) -> int:
        return self.map[x]

    def image_of(self, xs: Iterable[int]) -> ElementSet:
        m = self.map
        return frozenset(m[x] for x in xs)

    def preimage_of(self, ys: Iterable[int]) -> ElementSet:
        yset = frozenset(ys)
        return frozenset(x for x in range(self.source.order) if self.map[x] in yset)

    @property
    def is_endo(self) -> bool:
        return self.source is self.target

    @property
    def is_identity(self) -> bool:
        return self.is_endo and all(self.map[x] == x for x in range(self.source.order))

    @property
    def is_zero_map(self) -> bool:
        z = self.target.zero
        return all(v == z for v in self.map)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.order

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.order


def good_homomorphism_violation(mapping: Sequence[int], source: HyperRing, target: HyperRing):
    """First violated law as a tagged witness, or None when the map is good."""
    n = source.order
    if len(mapping) != n:
        return ("length", len(mapping))
    for v in mapping:
        if not isinstance(v, int) or not 0 <= v < target.order:
            return ("range", v)
    add1, add2 = source.add_of, target.add_of
    for x in range(n):
        for y in range(n):
            if mapping[add1(x, y)] != add2(mapping[x], mapping[y]):
                return ("additive", x, y)
    prod1, prod2 = source.product_of, target.product_of
    for x in range(n):
        for y in range(n):
            image = frozenset(mapping[t] for t in prod1(x, y))
            if image != prod2(mapping[x], mapping[y]):
                return ("multiplicative", x, y)
    return None


def is_good_homomorphism(mapping: Sequence[int], source: HyperRing, target: HyperRing):
    """(ok, witness): both laws checked exhaustively."""
    witness = good_homomorphism_violation(mapping, source, target)
    return (witness is None, witness)


def good_homomorphism(
    source: HyperRing, target: HyperRing, mapping: Sequence[int], name: str | None = None
) -> Homomorphism:
    witness = good_homomorphism_violation(mapping, source, target)
    if witness is not None:
        raise BadHomomorphism(
            f"map is not a good homomorphism ({witness[0]} law at {witness[1:]})",
            witness=witness,
        )
    if name is None:
        name = "map[" + ".".join(str(v) for v in mapping) + "]"
    return Homomorphism(source, target, mapping, name)


@memoized
def identity_endomorphism(ring: HyperRing) -> Homomorphism:
    return Homomorphism(ring, ring, tuple(range(ring.order)), "id")


def compose(outer: Homomorphism, inner: Homomorphism, name: str | None = None) -> Homomorphism:
    """outer after inner; goodness is closed under composition, re-verified."""
    if inner.target is not outer.source:
        raise BadHomomorphism("composition mismatch: inner.target != outer.source")
    mapping = tuple(outer.map[inner.map[x]] for x in range(inner.source.order))
    return good_homomorphism(inner.source, outer.target, mapping, name)


def commutes(f: Homomorphism, alpha_src: Homomorphism, alpha_tgt: Homomorphism) -> bool:
    """Pointwise check that alpha_tgt(f(r)) = f(alpha_src(r)) for all r."""
    fm, am, bm = f.map, alpha_src.map, alpha_tgt.map
    return all(bm[fm[r]] == fm[am[r]] for r in range(f.source.order))


# ---------------------------------------------------------------------------
# enumeration


def additive_generators(ring: HyperRing) -> tuple:
    """A minimal generating set of (carrier, +), grown greedily."""
    span = {ring.zero}
    gens = []
    add = ring.add_of
    while len(span) < ring.order:
        g = min(x for x in range(ring.order) if x not in span)
        gens.append(g)
        new = set(span)
        frontier = list(new)
        while frontier:
            cur = frontier.pop()
            nxt = add(cur, g)
            if nxt not in new:
                new.add(nxt)
                frontier.append(nxt)
            for s in list(new):
                v = add(cur, s)
                if v not in new:
                    new.add(v)
                    frontier.append(v)
        span = new
    return tuple(gens)


def _additive_maps(ring: HyperRing) -> list:
    """All additive self-maps, as image tables, in canonical order.

    A candidate assigns images to the generators; the full table is grown
    by following addition, rejecting any assignment that hits an element
    through two inconsistent routes.
    """
    n = ring.order
    gens = additive_generators(ring)
    add = ring.add_of
    out = []

    def expand(images):
        table = {ring.zero: ring.zero}
        frontier = [ring.zero]
        while frontier:
            x = frontier.pop()
            for g, hg in zip(gens, images):
                y = add(x, g)
                fy = add(table[x], hg)
                if y in table:
                    if table[y] != fy:
                        return None
                else:
                    table[y] = fy
                    frontier.append(y)
        if len(table) != n:
            return None
        return tuple(table[x] for x in range(n))

    def rec(prefix):
        if len(prefix) == len(gens):
            table = expand(prefix)
            if table is not None:
                out.append(table)
            return
        for image in range(n):
            rec(prefix + (image,))

    rec(())
    return out


@memoized
def enumerate_endomorphisms(ring: HyperRing, max_order: int = DEFAULT_ENUM_CAP) -> tuple:
    """All good endomorphisms, canonically ordered by image table.

    On Z_n[M], with M = 1 o 1, they are the x -> kx with kM = k^2 M as sets:
    a = b = 1 gives the condition, and multiplying it by ab gives the law.
    """
    if ring.order > max_order:
        raise CapExceeded(
            f"endomorphism enumeration capped at order {max_order}, "
            f"{ring.name} has order {ring.order}"
        )
    if "zn_multiplier" in ring.tags:
        n, mult = ring.order, ring.hyp[1][1]
        found = sorted(tuple(k * x % n for x in range(n)) for k in range(n)
                       if {k * m % n for m in mult} == {k * k * m % n for m in mult})
    else:
        found = [table for table in sorted(set(_additive_maps(ring)))
                 if good_homomorphism_violation(table, ring, ring) is None]
    return tuple(Homomorphism(ring, ring, table, _endo_name(ring, table)) for table in found)


def _endo_name(ring: HyperRing, table: tuple) -> str:
    if all(table[x] == x for x in range(ring.order)):
        return "id"
    if all(v == ring.zero for v in table):
        return "zero"
    if "zn_multiplier" in ring.tags:
        k = table[1] if ring.order > 1 else 0
        if all(table[x] == (k * x) % ring.order for x in range(ring.order)):
            return f"scale{k}"
    return "map[" + ".".join(str(v) for v in table) + "]"


def scale_endomorphism(ring: HyperRing, k: int) -> Homomorphism:
    """x -> k*x on a residue ring; raises when the map is not good."""
    if "zn_multiplier" not in ring.tags:
        raise BadHomomorphism("scale endomorphisms are defined on residue rings only")
    n = ring.order
    table = tuple((k * x) % n for x in range(n))
    return good_homomorphism(ring, ring, table, _endo_name(ring, table))


# ---------------------------------------------------------------------------
# kernels, images, preimages


@memoized
def kernel(f: Homomorphism) -> HyperIdeal:
    """Preimage of the ideal generated by zero in the target.

    That generated ideal can exceed {0} when the target is not
    zero-absorbing, and the kernel can be improper (zero map).
    """
    zero_gen = zero_ideal(f.target)
    members = f.preimage_of(zero_gen.elements)
    return as_hyperideal(f.source, members)


def preimage_ideal(f: Homomorphism, target_ideal: HyperIdeal) -> HyperIdeal:
    """Elementwise preimage; always a hyperideal of the source (verified)."""
    if target_ideal.ring is not f.target:
        raise BadHomomorphism("ideal does not live in the map's target")
    return as_hyperideal(f.source, f.preimage_of(target_ideal.elements))


ImageResult = namedtuple("ImageResult", ["elements", "is_hyperideal", "violation"])


def image_ideal(f: Homomorphism, source_ideal: HyperIdeal) -> ImageResult:
    """Elementwise image with a verdict on hyperideal-ness in the target.

    Surjective maps always produce hyperideals; for the rest the verdict
    reports the first failed closure condition.
    """
    if source_ideal.ring is not f.source:
        raise BadHomomorphism("ideal does not live in the map's source")
    members = f.image_of(source_ideal.elements)
    witness = hyperideal_violation(f.target, members)
    return ImageResult(members, witness is None, witness)
