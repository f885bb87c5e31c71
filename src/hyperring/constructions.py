"""Quotients, binary products, and the endomorphisms they induce.

Derived structures are correct by construction, so none of them is
re-validated; full validation stays at the trust boundary (parsed table
specs and the table fixtures).  The transfer argument: a surjective good
homomorphism pi carries every axiom to its image, since
pi((x o y) o z) = (X o Y) o Z, pi(x o (y+z)) <= X o Y + X o Z and
pi(-t) = -pi(t).  The quotient projection is such a map.  A product
satisfies every axiom componentwise, because each of its cells is the
Cartesian product of two factor cells.  The test suite re-validates random
quotients and products and the maps built here.

Products above the table limit keep a computed backend whose cells come
straight from the factors, with properties derived componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FLAVOR_NONE,
    FLAVOR_SCALAR,
    FLAVOR_WEAK,
    HyperRing,
    StructureProps,
    fmt_set,
    memoized,
    residue_ring,
    trusted_ring,
)
from .errors import (
    BadEndomorphism,
    CapExceeded,
    NotAHyperideal,
    NotInvariant,
    NotProper,
)
from .ideals import HyperIdeal, _as_elements, _residue_step, as_hyperideal, hyperideal_violation
from .morphisms import Homomorphism, good_homomorphism_violation

PRODUCT_ORDER_CAP = 4096
PRODUCT_TABLE_LIMIT = 256  # larger products compute their cells on demand


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True, eq=False)
class QuotientRing:
    """R/I with cosets indexed by rank of their smallest member."""

    base: HyperRing
    ideal: HyperIdeal
    cosets: tuple
    ring: HyperRing
    projection: Homomorphism

    def coset_of(self, x: int) -> int:
        return self.projection.map[x]

    def coset_members(self, c: int) -> frozenset:
        return self.cosets[c]


@memoized
def quotient_ring(base: HyperRing, ideal: HyperIdeal) -> QuotientRing:
    """Build R/I from one representative per coset, without re-validation.

    X + Y = pi(x + y), X o Y = pi(x o y) and -X = pi(-x) for representatives
    x, y.  The cells do not depend on the representatives: for x' = x + i and
    y' = y + j, distributivity by inclusion puts x' o y' inside
    x o y + x o j + i o y + i o j, and absorption puts the last three terms in
    I, so pi(x' o y') <= pi(x o y) and, symmetrically, equality.  pi is then a
    surjective good homomorphism, which carries every axiom of R to R/I.  The
    ideal itself is checked on entry, since hand-built ideals are untrusted.

    On a residue ring Z_n[M], the quotient by dZ_n has the tables of
    Z_d[M mod d], the cosets range(c, n, d) and the projection x -> x mod d,
    since d | n; it is built directly, untagged.
    """
    if ideal.ring is not base:
        raise NotProper("ideal does not belong to the ring being quotiented")
    if not ideal.proper:
        raise NotProper(f"cannot quotient {base.name} by the full carrier")
    members = ideal.elements
    witness = hyperideal_violation(base, members)
    if witness is not None:
        raise NotAHyperideal(
            f"cannot quotient {base.name} by {fmt_set(members)}: {witness}",
            witness=witness,
        )
    name = f"{base.name}/{fmt_set(members)}"
    d = _residue_step(base, members)
    if d is not None:
        ring = residue_ring(d, base.hyp[1][1], name, ("quotient",))
        proj = [x % d for x in base.elements()]
        cosets = tuple(frozenset(range(c, base.order, d)) for c in range(d))
    else:
        add = base.add_of
        proj = [None] * base.order
        reps = []  # ascending, so each coset is ranked by its smallest member
        for x in base.elements():
            if proj[x] is None:
                for i in members:
                    proj[add(x, i)] = len(reps)
                reps.append(x)
        prod = base.product_of
        ring = trusted_ring(
            order=len(reps),
            zero=proj[base.zero],
            add=tuple(tuple(proj[add(x, y)] for y in reps) for x in reps),
            neg=tuple(proj[base.neg_of(x)] for x in reps),
            hyp=tuple(
                tuple(frozenset(proj[t] for t in prod(x, y)) for y in reps) for x in reps
            ),
            name=name,
            tags=("quotient",),
        )
        cosets = tuple(frozenset(add(x, i) for i in members) for x in reps)
    return QuotientRing(base, ideal, cosets, ring, Homomorphism(base, ring, proj, "proj"))


@memoized
def induced_quotient_endo(quotient: QuotientRing, alpha: Homomorphism) -> Homomorphism:
    """alpha* on R/J: alpha*(x + J) = alpha(x) + J.

    Requires alpha(J) <= J; anything else would make the induced map
    representative-dependent, and is reported as an error, never guessed
    around.  The map is good because alpha* o pi = pi o alpha and both are.
    """
    base = quotient.base
    if alpha.source is not base or alpha.target is not base:
        raise BadEndomorphism("alpha is not an endomorphism of the quotiented ring")
    members = quotient.ideal.elements
    if not alpha.image_of(members) <= members:
        raise NotInvariant(
            f"{alpha.name} does not preserve the ideal; no induced map exists"
        )
    proj = quotient.projection.map
    table = [None] * quotient.ring.order
    for x in range(base.order):
        c = proj[x]
        v = proj[alpha.map[x]]
        if table[c] is None:
            table[c] = v
        elif table[c] != v:
            raise NotInvariant(
                f"induced map of {alpha.name} is representative-dependent at {x}"
            )
    return Homomorphism(quotient.ring, quotient.ring, table, f"{alpha.name}*")


# ---------------------------------------------------------------------------
# binary products


class ProductBackedRing(HyperRing):
    """Computes cells from the factors; used above the table limit."""

    __slots__ = ("left", "right")

    def __init__(self, left: HyperRing, right: HyperRing, name: str, props: StructureProps):
        super().__init__(
            order=left.order * right.order,
            zero=left.zero * right.order + right.zero,
            add=None,
            neg=None,
            hyp=None,
            name=name,
            props=props,
            tags=("product", "computed_cells"),
        )
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def add_of(self, a: int, b: int) -> int:
        o2 = self.right.order
        a1, a2 = divmod(a, o2)
        b1, b2 = divmod(b, o2)
        return self.left.add_of(a1, b1) * o2 + self.right.add_of(a2, b2)

    def neg_of(self, a: int) -> int:
        o2 = self.right.order
        a1, a2 = divmod(a, o2)
        return self.left.neg_of(a1) * o2 + self.right.neg_of(a2)

    def product_of(self, a: int, b: int) -> frozenset:
        o2 = self.right.order
        a1, a2 = divmod(a, o2)
        b1, b2 = divmod(b, o2)
        lefts = self.left.product_of(a1, b1)
        rights = self.right.product_of(a2, b2)
        return frozenset(x * o2 + y for x in lefts for y in rights)

    def sub_of(self, a: int, b: int) -> int:
        return self.add_of(a, self.neg_of(b))

    def box_absorbers(self, elements):
        """Absorber rows of a box P1 x P2, built on the factors.

        Each cell is the Cartesian product of two nonempty factor cells, so
        x o y <= P1 x P2 iff x1 o y1 <= P1 and x2 o y2 <= P2; y1 then y2
        ascending is y ascending.  Not a box (|P1| |P2| != |I|): None.
        """
        left, right, o2 = self.left, self.right, self.right.order
        p1 = frozenset(x // o2 for x in elements)
        p2 = frozenset(x % o2 for x in elements)
        if len(p1) * len(p2) != len(elements):
            return None
        rows1 = [[y for y in left.elements() if left.product_of(x, y) <= p1] for x in left.elements()]
        rows2 = [[y for y in right.elements() if right.product_of(x, y) <= p2] for x in right.elements()]
        return lambda x: (y1 * o2 + y2 for y1 in rows1[x // o2] for y2 in rows2[x % o2])


@dataclass(frozen=True, eq=False)
class ProductRing:
    """R1 x R2 with row-major pair indexing (i1 * order2 + i2)."""

    left: HyperRing
    right: HyperRing
    ring: HyperRing

    def pair_index(self, i1: int, i2: int) -> int:
        return i1 * self.right.order + i2

    def pair_of(self, i: int) -> tuple:
        return divmod(i, self.right.order)

    def left_projection(self, i: int) -> int:
        return i // self.right.order

    def right_projection(self, i: int) -> int:
        return i % self.right.order


def _derived_product_props(left: HyperRing, right: HyperRing, order2: int) -> StructureProps:
    lp, rp = left.props, right.props
    if lp.identity is None or rp.identity is None:
        identity, flavor = None, FLAVOR_NONE
    else:
        identity = lp.identity * order2 + rp.identity
        if lp.identity_flavor == FLAVOR_SCALAR and rp.identity_flavor == FLAVOR_SCALAR:
            flavor = FLAVOR_SCALAR
        else:
            flavor = FLAVOR_WEAK
    return StructureProps(
        commutative=lp.commutative and rp.commutative,
        strongly_distributive=lp.strongly_distributive and rp.strongly_distributive,
        zero_absorbing=lp.zero_absorbing and rp.zero_absorbing,
        identity=identity,
        identity_flavor=flavor,
    )


def product_ring(
    left: HyperRing,
    right: HyperRing,
    max_order: int = PRODUCT_ORDER_CAP,
) -> ProductRing:
    """Componentwise product with (x1,x2) o (y1,y2) = (x1 o y1) x (x2 o y2).

    Every axiom holds componentwise, so the product is not re-validated.
    Products up to the table limit get tables and the scanned property
    record; larger ones keep the computed backend with componentwise
    derived properties.
    """
    order = left.order * right.order
    if order > max_order:
        raise CapExceeded(
            f"product order {order} exceeds the cap {max_order}"
        )
    o2 = right.order
    name = f"({left.name}x{right.name})"
    if order > PRODUCT_TABLE_LIMIT:
        ring = ProductBackedRing(left, right, name, _derived_product_props(left, right, o2))
        return ProductRing(left, right, ring)

    add = tuple(
        tuple(
            left.add_of(a // o2, b // o2) * o2 + right.add_of(a % o2, b % o2)
            for b in range(order)
        )
        for a in range(order)
    )
    neg = tuple(left.neg_of(a // o2) * o2 + right.neg_of(a % o2) for a in range(order))
    hyp = tuple(
        tuple(
            frozenset(
                x * o2 + y
                for x in left.product_of(a // o2, b // o2)
                for y in right.product_of(a % o2, b % o2)
            )
            for b in range(order)
        )
        for a in range(order)
    )
    ring = trusted_ring(order, left.zero * o2 + right.zero, add, neg, hyp, name, ("product",))
    return ProductRing(left, right, ring)


@memoized
def product_ideal(product: ProductRing, left_part, right_part) -> HyperIdeal:
    """I1 x I2 as a hyperideal of the product.

    Each part is checked on its factor, since a box of factor hyperideals
    is a hyperideal componentwise; a part that is not raises
    ``NotAHyperideal`` with the factor's witness.
    """
    o2 = product.right.order
    left_els = as_hyperideal(product.left, _as_elements(left_part)).elements
    right_els = as_hyperideal(product.right, _as_elements(right_part)).elements
    members = frozenset(x * o2 + y for x in left_els for y in right_els)
    return HyperIdeal(product.ring, members, proper=len(members) < product.ring.order)


@memoized
def product_endomorphism(
    product: ProductRing,
    left_alpha: Homomorphism,
    right_alpha: Homomorphism,
    printed_reading: bool = False,
) -> Homomorphism:
    """The componentwise endomorphism (r1, r2) -> (a1(r1), a2(r2)).

    It is good because both factor maps are.  ``printed_reading`` applies the second map to the first coordinate
    instead; it is only type-correct for equal factor orders and almost
    never yields a good endomorphism, so it is verified exhaustively and
    rejected when bad.
    """
    if left_alpha.source is not product.left or left_alpha.target is not product.left:
        raise BadEndomorphism("left map is not an endomorphism of the left factor")
    if right_alpha.source is not product.right or right_alpha.target is not product.right:
        raise BadEndomorphism("right map is not an endomorphism of the right factor")
    o2 = product.right.order
    order = product.ring.order
    am, bm = left_alpha.map, right_alpha.map
    if printed_reading:
        if product.left.order != product.right.order:
            raise BadEndomorphism(
                "the printed reading needs equal factor orders to type-check"
            )
        table = tuple(am[i // o2] * o2 + bm[i // o2] for i in range(order))
        witness = good_homomorphism_violation(table, product.ring, product.ring)
        if witness is not None:
            raise BadEndomorphism(
                f"printed reading is not a good endomorphism ({witness})",
                witness=witness,
            )
        return Homomorphism(
            product.ring, product.ring, table, f"({left_alpha.name},{right_alpha.name})@printed"
        )
    table = tuple(am[i // o2] * o2 + bm[i % o2] for i in range(order))
    return Homomorphism(product.ring, product.ring, table, f"({left_alpha.name},{right_alpha.name})")
