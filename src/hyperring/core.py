"""Finite multiplicative hyperrings over element indices 0..order-1.

A ring couples an abelian group (given by addition/negation tables) with a
hyperoperation table whose cells are nonempty subsets of the carrier.  All
set values are frozensets of indices, so equality is structural; anything
printed is sorted first.
"""

from __future__ import annotations

import functools
import inspect
import weakref
from collections import namedtuple
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    BadModulus,
    EmptyMultiplierSet,
    EmptyProduct,
    ForeignElement,
    IdentityClaimFalse,
    NoIdentity,
    NotAGroup,
    NotAssociative,
    NotDistributive,
    SignLawViolated,
)

ElementSet = frozenset  # subsets of a ring's carrier

FLAVOR_NONE = "none"
FLAVOR_WEAK = "weak"      # a in a o e for every a
FLAVOR_SCALAR = "scalar"  # e o a == {a} == a o e for every a


@dataclass(frozen=True)
class StructureProps:
    """Cached structural facts, determined exhaustively when a ring is built."""

    commutative: bool
    strongly_distributive: bool
    zero_absorbing: bool
    identity: int | None
    identity_flavor: str


@dataclass
class RawRing:
    """Unvalidated ring description, as parsed from an input document."""

    order: int
    zero: int
    add: Sequence[Sequence[int]]
    neg: Sequence[int]
    hyp: Sequence[Sequence[Iterable[int]]]
    name: str = "ring"
    identity: int | None = None
    identity_flavor: str | None = None
    tags: tuple = ()


class HyperRing:
    """A validated finite multiplicative hyperring.

    Instances are immutable after construction and hashable by identity;
    do not build them directly, use :func:`validate_structure` or one of
    the trusted constructors.  The one mutable part is ``memo``, where
    :func:`memoized` results for this ring live exactly as long as it does.
    """

    __slots__ = ("order", "zero", "name", "add", "neg", "hyp", "props", "tags", "memo", "__weakref__")

    def __init__(self, order, zero, add, neg, hyp, name, props, tags=()):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "neg", neg)
        object.__setattr__(self, "hyp", hyp)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "props", props)
        object.__setattr__(self, "tags", tuple(tags))
        object.__setattr__(self, "memo", {})

    def __setattr__(self, key, value):
        raise AttributeError("HyperRing is immutable")

    def __repr__(self):
        return f"HyperRing({self.name!r}, order={self.order})"

    # Cell accessors.  Table-backed here; derived rings may override to
    # compute cells on demand (large products never materialize tables).
    def add_of(self, a: int, b: int) -> int:
        return self.add[a][b]

    def neg_of(self, a: int) -> int:
        return self.neg[a]

    def product_of(self, a: int, b: int) -> ElementSet:
        return self.hyp[a][b]

    def sub_of(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def box_absorbers(self, elements: ElementSet):
        """``x -> ascending y with x o y <= elements``, where the backend can
        split ``elements`` into factors; None for table-backed rings."""
        return None

    def elements(self) -> range:
        return range(self.order)

    @property
    def has_tables(self) -> bool:
        return self.hyp is not None

    @property
    def identity(self) -> int | None:
        return self.props.identity

    @property
    def identity_flavor(self) -> str:
        return self.props.identity_flavor

    def carrier_set(self) -> ElementSet:
        return frozenset(range(self.order))

    def check_element(self, x: int) -> None:
        if not isinstance(x, int) or not 0 <= x < self.order:
            raise ForeignElement(f"element {x!r} outside carrier of {self.name}")

    def check_subset(self, xs: Iterable[int]) -> ElementSet:
        s = frozenset(xs)
        for x in s:
            self.check_element(x)
        return s


def fmt_set(xs: Iterable[int]) -> str:
    return "{" + ",".join(str(x) for x in sorted(xs)) + "}"


# ---------------------------------------------------------------------------
# per-ring memo


CacheInfo = namedtuple("CacheInfo", "hits misses currsize")
_MEMO_RINGS = weakref.WeakSet()  # rings whose memo holds an entry


def memoized(fn):
    """Keep ``fn(first, *rest)`` in the memo of the ring that owns ``first``:
    ``first`` itself, a homomorphism's ``source``, or the ``ring`` of a
    quotient or product.  Omitted arguments are keyed by their defaults.
    ``cache_info()`` counts hits, misses and the entries of live rings."""
    sig = inspect.signature(fn)
    defaults = tuple(p.default for p in sig.parameters.values())[1:]
    required = defaults.count(inspect.Parameter.empty)
    hits = misses = 0

    @functools.wraps(fn)
    def wrapper(first, *args, **kwargs):
        nonlocal hits, misses
        if kwargs or len(args) < required:
            bound = sig.bind(first, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        owner = first if isinstance(first, HyperRing) else getattr(first, "source", None) or first.ring
        memo = owner.memo
        key = (fn, first, *args, *defaults[len(args):])
        try:
            value = memo[key]
            hits += 1
        except KeyError:
            if not memo:
                _MEMO_RINGS.add(owner)
            value = memo[key] = fn(*key[1:])
            misses += 1
        return value

    wrapper.cache_info = lambda: CacheInfo(
        hits, misses, sum(key[0] is fn for ring in list(_MEMO_RINGS) for key in ring.memo)
    )
    return wrapper


# ---------------------------------------------------------------------------
# set-valued arithmetic


def set_product(ring: HyperRing, xs: Iterable[int], ys: Iterable[int]) -> ElementSet:
    """Union of x o y over all pairs; empty operands give the empty set."""
    xset = ring.check_subset(xs)
    yset = ring.check_subset(ys)
    if not xset or not yset:
        return frozenset()
    prod = ring.product_of
    out = set()
    for x in xset:
        for y in yset:
            out.update(prod(x, y))
    return frozenset(out)


def set_sum(ring: HyperRing, xs: Iterable[int], ys: Iterable[int]) -> ElementSet:
    """Elementwise group sum {x + y}."""
    add = ring.add_of
    return frozenset(add(x, y) for x in xs for y in ys)


def power(ring: HyperRing, x: int, n: int) -> ElementSet:
    """x^n as a set: x^1 = {x}, x^n = x^(n-1) o {x} (left association)."""
    if n < 1:
        raise ValueError("power exponent must be >= 1")
    ring.check_element(x)
    acc = frozenset((x,))
    prod = ring.product_of
    for _ in range(n - 1):
        out = set()
        for t in acc:
            out.update(prod(t, x))
        acc = frozenset(out)
    return acc


@memoized
def power_orbit(ring: HyperRing, x: int) -> tuple:
    """The sequence x^1, x^2, ... truncated at the first repeated set.

    Each power is a function of the previous one, so the sequence is
    eventually periodic and every later power equals one of the returned
    sets; existential quantifiers over all exponents are decided here.
    """
    ring.check_element(x)
    prod = ring.product_of
    seen = []
    seen_keys = set()
    acc = frozenset((x,))
    while acc not in seen_keys:
        seen.append(acc)
        seen_keys.add(acc)
        out = set()
        for t in acc:
            out.update(prod(t, x))
        acc = frozenset(out)
    return tuple(seen)


def is_nilpotent(ring: HyperRing, x: int) -> bool:
    """True iff 0 lies in some power of x."""
    zero = ring.zero
    return any(zero in p for p in power_orbit(ring, x))


def is_unit(ring: HyperRing, x: int) -> bool:
    """True iff e lies in x o y for some y, where e is the declared identity."""
    e = ring.props.identity
    if e is None:
        raise NoIdentity(f"{ring.name} has no identity element")
    ring.check_element(x)
    prod = ring.product_of
    return any(e in prod(x, y) for y in ring.elements())


# ---------------------------------------------------------------------------
# validation


def _check_group(raw: RawRing) -> None:
    n = raw.order
    add = raw.add
    neg = raw.neg
    zero = raw.zero
    if not 0 <= zero < n:
        raise NotAGroup(f"zero index {zero} outside carrier", witness=(zero,))
    for a in range(n):
        for b in range(n):
            v = add[a][b]
            if not isinstance(v, int) or not 0 <= v < n:
                raise NotAGroup(f"add[{a}][{b}] = {v!r} outside carrier", witness=(a, b))
    for a in range(n):
        if add[a][zero] != a or add[zero][a] != a:
            raise NotAGroup(f"{zero} is not an additive identity at {a}", witness=(a,))
        v = neg[a]
        if not isinstance(v, int) or not 0 <= v < n:
            raise NotAGroup(f"neg[{a}] = {v!r} outside carrier", witness=(a,))
        if add[a][v] != zero or add[v][a] != zero:
            raise NotAGroup(f"neg[{a}] = {v} is not an inverse", witness=(a,))
    for a in range(n):
        row = add[a]
        for b in range(n):
            if row[b] != add[b][a]:
                raise NotAGroup(f"addition not commutative at ({a},{b})", witness=(a, b))
            for c in range(n):
                if add[row[b]][c] != row[add[b][c]]:
                    raise NotAGroup(
                        f"addition not associative at ({a},{b},{c})", witness=(a, b, c)
                    )


def _freeze_hyp(raw: RawRing):
    n = raw.order
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            cell = frozenset(raw.hyp[a][b])
            if not cell:
                raise EmptyProduct(f"hyp[{a}][{b}] is empty", witness=(a, b))
            for v in cell:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ForeignElement(f"hyp[{a}][{b}] contains {v!r}")
            row.append(cell)
        rows.append(tuple(row))
    return tuple(rows)


def _check_associative(n, hyp) -> None:
    for a in range(n):
        hyp_a = hyp[a]
        for b in range(n):
            ab = hyp_a[b]
            hyp_b = hyp[b]
            for c in range(n):
                left = set()
                for x in ab:
                    left.update(hyp[x][c])
                right = set()
                for y in hyp_b[c]:
                    right.update(hyp_a[y])
                if left != right:
                    raise NotAssociative(
                        f"(a o b) o c != a o (b o c) at ({a},{b},{c})", witness=(a, b, c)
                    )


def _check_distributive(n, add, hyp) -> tuple:
    """Verify both inclusion laws; return (holds_with_equality_everywhere,)."""
    strongly = True
    for a in range(n):
        hyp_a = hyp[a]
        for b in range(n):
            for c in range(n):
                bc = add[b][c]
                left = hyp_a[bc]
                rhs = {add[x][y] for x in hyp_a[b] for y in hyp_a[c]}
                if not left <= rhs:
                    raise NotDistributive(
                        f"a o (b+c) not within a o b + a o c at ({a},{b},{c})",
                        witness=(a, b, c),
                    )
                if left != rhs:
                    strongly = False
                left2 = hyp[bc][a]
                rhs2 = {add[x][y] for x in hyp[b][a] for y in hyp[c][a]}
                if not left2 <= rhs2:
                    raise NotDistributive(
                        f"(b+c) o a not within b o a + c o a at ({a},{b},{c})",
                        witness=(a, b, c),
                    )
                if left2 != rhs2:
                    strongly = False
    return (strongly,)


def _check_sign_law(n, neg, hyp) -> None:
    for a in range(n):
        na = neg[a]
        for b in range(n):
            ab = hyp[a][b]
            minus_ab = frozenset(neg[t] for t in ab)
            if hyp[a][neg[b]] != minus_ab or hyp[na][b] != minus_ab:
                raise SignLawViolated(
                    f"sign law fails at ({a},{b})", witness=(a, b)
                )


def _flavor_at(n, cell, e: int) -> str:
    scalar = True
    weak = True
    for a in range(n):
        ea = cell(e, a)
        ae = cell(a, e)
        if ea != frozenset((a,)) or ae != frozenset((a,)):
            scalar = False
        if a not in ae:
            weak = False
        if not scalar and not weak:
            return FLAVOR_NONE
    if scalar:
        return FLAVOR_SCALAR
    return FLAVOR_WEAK if weak else FLAVOR_NONE


def identity_flavor_at(ring: HyperRing, e: int) -> str:
    """Classify candidate identity e: scalar beats weak beats none."""
    return _flavor_at(ring.order, ring.product_of, e)


def validate_structure(raw: RawRing) -> HyperRing:
    """Exhaustively verify every axiom and return the validated ring.

    Raises the first violated axiom with a witness tuple; the property
    record is populated as a side effect of the same sweeps.  The residue
    tags, which select closed-form enumerations, are dropped.
    """
    n = raw.order
    if n < 1:
        raise ValueError("order must be positive")
    if len(raw.add) != n or any(len(r) != n for r in raw.add):
        raise ValueError("add table dimensions inconsistent with order")
    if len(raw.neg) != n:
        raise ValueError("neg table dimensions inconsistent with order")
    if len(raw.hyp) != n or any(len(r) != n for r in raw.hyp):
        raise ValueError("hyp table dimensions inconsistent with order")

    _check_group(raw)
    add = tuple(tuple(row) for row in raw.add)
    neg = tuple(raw.neg)
    hyp = _freeze_hyp(raw)
    _check_associative(n, hyp)
    (strongly,) = _check_distributive(n, add, hyp)
    _check_sign_law(n, neg, hyp)

    if raw.identity is not None:
        if not isinstance(raw.identity, int) or not 0 <= raw.identity < n:
            raise ForeignElement(f"declared identity {raw.identity!r} outside the carrier")
        claimed_flavor = raw.identity_flavor or FLAVOR_WEAK
        actual = _flavor_at(n, lambda a, b: hyp[a][b], raw.identity)
        ok = actual == claimed_flavor or (
            claimed_flavor == FLAVOR_WEAK and actual == FLAVOR_SCALAR
        )
        if not ok:
            raise IdentityClaimFalse(
                f"declared identity {raw.identity} is not {claimed_flavor}",
                witness=(raw.identity,),
            )

    props = _scan_properties(n, raw.zero, add, hyp, strongly=strongly)
    tags = tuple(t for t in raw.tags if t not in ("zn_multiplier", "degenerate_multiplier"))
    return HyperRing(n, raw.zero, add, neg, hyp, raw.name, props, tags)


def _strongly_distributive(n, add, hyp, commutative) -> bool:
    """Whether both distributive inclusions hold with equality everywhere.

    Addition commutes, so (b, c) and (c, b) give the same equation; on a
    commutative ring the right law is the left one.
    """
    for a in range(n):
        hyp_a = hyp[a]
        for b in range(n):
            ab, ba, add_b = hyp_a[b], hyp[b][a], add[b]
            for c in range(b, n):
                bc = add_b[c]
                if hyp_a[bc] != {add[x][y] for x in ab for y in hyp_a[c]}:
                    return False
                if not commutative and hyp[bc][a] != {add[x][y] for x in ba for y in hyp[c][a]}:
                    return False
    return True


def _scan_properties(n, zero, add, hyp, strongly=None) -> StructureProps:
    """The property record of valid tables.

    ``strongly`` is passed in by :func:`validate_structure`, whose
    distributivity sweep has already decided it.
    """
    commutative = all(hyp[a][b] == hyp[b][a] for a in range(n) for b in range(a + 1, n))
    if strongly is None:
        strongly = _strongly_distributive(n, add, hyp, commutative)
    zset = frozenset((zero,))
    absorbing = all(hyp[zero][r] == zset and hyp[r][zero] == zset for r in range(n))
    best = (None, FLAVOR_NONE)
    for e in range(n):
        flavor = _flavor_at(n, lambda a, b: hyp[a][b], e)
        if flavor == FLAVOR_SCALAR:
            best = (e, FLAVOR_SCALAR)
            break
        if flavor == FLAVOR_WEAK and best[1] == FLAVOR_NONE:
            best = (e, FLAVOR_WEAK)
    return StructureProps(
        commutative=commutative,
        strongly_distributive=strongly,
        zero_absorbing=absorbing,
        identity=best[0],
        identity_flavor=best[1],
    )


def structure_properties(ring: HyperRing) -> StructureProps:
    """Recompute the property record of a table-backed ring exhaustively.

    Validation is idempotent: this equals ``ring.props``.
    """
    return _scan_properties(ring.order, ring.zero, ring.add, ring.hyp)


def trusted_ring(order, zero, add, neg, hyp, name, tags=()) -> HyperRing:
    """Wrap tables that satisfy every axiom by construction, unvalidated.

    For structures whose axioms follow from a transfer argument:
    quotients and small products.  Tables parsed from outside input
    go through :func:`validate_structure`.  The property record still comes
    from the exhaustive scan.
    """
    return HyperRing(order, zero, add, neg, hyp, name, _scan_properties(order, zero, add, hyp), tags)


# ---------------------------------------------------------------------------
# the residue-ring family


def make_zn_multiplier_ring(n: int, multipliers: Iterable[int], name: str | None = None) -> HyperRing:
    """Residues mod n with a o b = {a*r*b mod n : r in multipliers}.

    Every axiom transfers from the commutative ring Z_n, so the tables are
    not validated: (a o b) o c = {a*r*b*s*c} = a o (b o c),
    a o (b+c) <= a o b + a o c, (-a) o b = -(a o b), and cells are nonempty
    because the multiplier set is.

    A single multiplier degenerates the hyperoperation to ordinary scaled
    multiplication; such rings are tagged ``degenerate_multiplier`` because
    they are the ones that can carry a scalar identity.
    """
    if not isinstance(n, int) or n < 2:
        raise BadModulus(f"modulus must be an integer >= 2, got {n!r}")
    mult = sorted({m % n for m in multipliers})
    if not mult:
        raise EmptyMultiplierSet("multiplier set is empty")
    if name is None:
        name = f"Z{n}[{','.join(str(m) for m in mult)}]"
    tags = ("zn_multiplier",) + (("degenerate_multiplier",) if len(mult) == 1 else ())
    return residue_ring(n, mult, name, tags)


def residue_ring(n: int, multipliers: Iterable[int], name: str, tags: tuple) -> HyperRing:
    """The tables of Z_n[M], M the multipliers mod n, with the property
    record by formula rather than by scan.

    a o b = {a*m*b} = b o a, and 0 o a = {0}.  Strong distributivity holds
    exactly when |M| = 1: for m1 != m2 in M, 1 o (1 + -1) = {0} while
    1 o 1 + 1 o -1 holds m1 - m2 != 0.  e is a weak identity exactly when
    e*m = 1 for some m in M (take a = 1 in a in a o e); it is scalar
    exactly when |M| = 1, since {e*m} = {1} forces one multiplier.  The
    scan takes the least weak e, or a scalar one, which is then unique.
    """
    mult = {m % n for m in multipliers}
    add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    neg = tuple((-a) % n for a in range(n))
    hyp = tuple(
        tuple(frozenset((a * r * b) % n for r in mult) for b in range(n))
        for a in range(n)
    )
    identity = min((pow(m, -1, n) for m in mult if gcd(m, n) == 1), default=None)
    flavor = FLAVOR_NONE if identity is None else FLAVOR_SCALAR if len(mult) == 1 else FLAVOR_WEAK
    props = StructureProps(
        commutative=True,
        strongly_distributive=len(mult) == 1,
        zero_absorbing=True,
        identity=identity,
        identity_flavor=flavor,
    )
    return HyperRing(n, 0, add, neg, hyp, name, props, tags)


def trivial_ring(name: str = "Z1") -> HyperRing:
    """The one-element ring {0} with 0 o 0 = {0}."""
    raw = RawRing(
        order=1,
        zero=0,
        add=((0,),),
        neg=(0,),
        hyp=(((0,),),),
        name=name,
    )
    return validate_structure(raw)
