"""Hyperideals: construction, classification predicates, and radicals.

All predicates are pure functions of immutable inputs.  The expensive
enumerations (hyperideal lattice, product-set closure, power orbits) are
memoized in their ring's memo and freed with it; rings hash by identity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .core import (
    ElementSet,
    HyperRing,
    memoized,
    power_orbit,
    set_sum,
)
from .errors import (
    CapExceeded,
    EmptySet,
    HyperRingError,
    NotAHyperideal,
    NotProper,
    NotZeroAbsorbing,
    BadEndomorphism,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .morphisms import Homomorphism

DEFAULT_ENUM_CAP = 16
DEFAULT_CLOSURE_SETS = 4096
DEFAULT_CLOSURE_OPS = 500_000

C_YES = "yes"
C_NO = "no"
C_UNKNOWN = "unknown"


class ConsistencyError(HyperRingError):
    """An internal cross-check between two independent computations failed."""


class HyperIdeal:
    """A subset validated to be closed under subtraction and absorption.

    ``proper`` records whether the elements fall short of the full carrier;
    improper ideals are legal values (colon ideals and kernels can be
    improper) but primeness predicates refuse them.  The C-status is
    decided lazily on first use and cached.
    """

    __slots__ = ("ring", "elements", "proper", "_c_status")

    def __init__(self, ring: HyperRing, elements: ElementSet, proper: bool):
        self.ring = ring
        self.elements = elements
        self.proper = proper
        self._c_status = None

    def __repr__(self):
        from .core import fmt_set

        return f"HyperIdeal({self.ring.name}, {fmt_set(self.elements)})"

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    @property
    def c_status(self) -> str:
        if self._c_status is None:
            self._c_status = is_c_hyperideal(self.ring, self.elements)
        return self._c_status

    @property
    def is_zero(self) -> bool:
        return self.elements == frozenset((self.ring.zero,))


def _as_elements(ideal_or_set) -> ElementSet:
    if isinstance(ideal_or_set, HyperIdeal):
        return ideal_or_set.elements
    return frozenset(ideal_or_set)


# ---------------------------------------------------------------------------
# membership and construction


def hyperideal_violation(ring: HyperRing, subset: Iterable[int]):
    """First violated closure condition, or None if subset is a hyperideal."""
    s = ring.check_subset(subset)
    if not s:
        return ("empty",)
    sub = ring.sub_of
    for a in sorted(s):
        for b in sorted(s):
            if sub(a, b) not in s:
                return ("subtraction", a, b)
    prod = ring.product_of
    for x in sorted(s):
        for r in ring.elements():
            if not prod(r, x) <= s:
                return ("absorb_left", r, x)
            if not prod(x, r) <= s:
                return ("absorb_right", x, r)
    return None


def is_hyperideal(ring: HyperRing, subset: Iterable[int]) -> bool:
    return hyperideal_violation(ring, subset) is None


def as_hyperideal(ring: HyperRing, subset: Iterable[int]) -> HyperIdeal:
    """Validate and wrap a subset; raises NotAHyperideal with a witness."""
    s = ring.check_subset(subset)
    witness = hyperideal_violation(ring, s)
    if witness is not None:
        raise NotAHyperideal(
            f"{sorted(s)} is not a hyperideal of {ring.name}: {witness}",
            witness=witness,
        )
    return HyperIdeal(ring, s, proper=len(s) < ring.order)


@memoized
def _generated_elements(ring: HyperRing, seed: ElementSet) -> ElementSet:
    cur = set(seed)
    cur.add(ring.zero)
    sub = ring.sub_of
    prod = ring.product_of
    carrier = range(ring.order)
    while True:
        new = set()
        items = sorted(cur)
        for a in items:
            for b in items:
                v = sub(a, b)
                if v not in cur:
                    new.add(v)
        for x in items:
            for r in carrier:
                new.update(prod(r, x) - cur)
                new.update(prod(x, r) - cur)
        if not new:
            return frozenset(cur)
        cur |= new


def generate_hyperideal(ring: HyperRing, subset: Iterable[int]) -> HyperIdeal:
    """Least hyperideal containing the subset (monotone fixed point)."""
    seed = ring.check_subset(subset)
    els = _generated_elements(ring, seed)
    return HyperIdeal(ring, els, proper=len(els) < ring.order)


def zero_ideal(ring: HyperRing) -> HyperIdeal:
    """The hyperideal generated by {0}; exceeds {0} when 0 fails to absorb."""
    return generate_hyperideal(ring, (ring.zero,))


# ---------------------------------------------------------------------------
# enumeration


def _subgroup_closure(ring: HyperRing, seed: frozenset) -> frozenset:
    cur = set(seed)
    cur.add(ring.zero)
    sub = ring.sub_of
    while True:
        new = set()
        items = sorted(cur)
        for a in items:
            for b in items:
                v = sub(a, b)
                if v not in cur:
                    new.add(v)
        if not new:
            return frozenset(cur)
        cur |= new


@memoized
def enumerate_hyperideals(ring: HyperRing, max_order: int = DEFAULT_ENUM_CAP) -> tuple:
    """All hyperideals (including the improper full ring), canonically sorted.

    Additive subgroups are grown by closing generators; the absorption test
    filters them down to hyperideals.
    """
    if ring.order > max_order:
        raise CapExceeded(
            f"hyperideal enumeration capped at order {max_order}, "
            f"{ring.name} has order {ring.order}"
        )
    base = frozenset((ring.zero,))
    found = {base}
    frontier = [base]
    while frontier:
        group = frontier.pop()
        for g in range(ring.order):
            if g in group:
                continue
            bigger = _subgroup_closure(ring, group | {g})
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    ideals = []
    for group in found:
        if hyperideal_violation(ring, group) is None:
            ideals.append(group)
    ideals.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(
        HyperIdeal(ring, s, proper=len(s) < ring.order) for s in ideals
    )


def proper_hyperideals(ring: HyperRing, max_order: int = DEFAULT_ENUM_CAP) -> tuple:
    return tuple(i for i in enumerate_hyperideals(ring, max_order) if i.proper)


# ---------------------------------------------------------------------------
# C-hyperideals


@memoized
def product_set_closure(
    ring: HyperRing,
    max_sets: int = DEFAULT_CLOSURE_SETS,
    max_ops: int = DEFAULT_CLOSURE_OPS,
) -> tuple:
    """(family, complete): all finite product-sets, by right extension.

    Every product of length k+1 is a length-k product extended by one
    element, so closing the singletons under one-step extension reaches the
    whole family.  ``complete`` is False when a cap stopped the search.
    """
    n = ring.order
    prod = ring.product_of
    singles = [frozenset((r,)) for r in range(n)]
    family = set(singles)
    queue = list(singles)
    head = 0
    ops = 0
    complete = True
    while head < len(queue) and complete:
        current = queue[head]
        head += 1
        for r in range(n):
            ops += 1
            if ops > max_ops or len(family) >= max_sets:
                complete = False
                break
            out = set()
            for x in current:
                out.update(prod(x, r))
            nxt = frozenset(out)
            if nxt not in family:
                family.add(nxt)
                queue.append(nxt)
    return (frozenset(family), complete)


def is_c_hyperideal(
    ring: HyperRing,
    ideal_or_set,
    max_sets: int = DEFAULT_CLOSURE_SETS,
    max_ops: int = DEFAULT_CLOSURE_OPS,
) -> str:
    """'yes' / 'no' / 'unknown': does every product-set meeting I lie in I?

    A 'no' from a capped closure is still definite; 'yes' needs the full
    family, so a cap hit downgrades it to 'unknown'.
    """
    elements = _as_elements(ideal_or_set)
    family, complete = product_set_closure(ring, max_sets, max_ops)
    for pset in family:
        if pset & elements and not pset <= elements:
            return C_NO
    return C_YES if complete else C_UNKNOWN


# ---------------------------------------------------------------------------
# primeness predicates


def _require_proper(ideal: HyperIdeal) -> None:
    if not ideal.proper:
        raise NotProper(
            f"{ideal!r} is the full carrier; primeness predicates need a proper ideal"
        )


def _check_endo(ring: HyperRing, alpha) -> None:
    if alpha.source is not ring or alpha.target is not ring:
        raise BadEndomorphism(
            f"{alpha!r} is not an endomorphism of {ring.name}"
        )


@memoized
def _prime_violation(ring: HyperRing, elements: ElementSet):
    prod = ring.product_of
    n = ring.order
    outside = [y for y in range(n) if y not in elements]
    for x in outside:
        for y in outside:
            if prod(x, y) <= elements:
                return (x, y)
    return None


def prime_violation(ring: HyperRing, ideal: HyperIdeal):
    """First pair (x, y) with x o y inside I but x, y both outside, if any."""
    _require_proper(ideal)
    return _prime_violation(ring, ideal.elements)


def is_prime(ring: HyperRing, ideal: HyperIdeal) -> bool:
    return prime_violation(ring, ideal) is None


@memoized
def _alpha_prime_violation(ring: HyperRing, elements: ElementSet, alpha, mirrored: bool):
    n = ring.order
    amap = alpha.map
    outside = [x not in elements for x in range(n)]
    image_outside = [amap[x] not in elements for x in range(n)]
    x_out, y_out = (image_outside, outside) if mirrored else (outside, image_outside)
    xs = [x for x in range(n) if x_out[x]]
    absorbers = ring.box_absorbers(elements)
    if absorbers is not None:
        for x in xs:
            for y in absorbers(x):
                if y_out[y]:
                    return (x, y)
        return None
    prod = ring.product_of
    ys = [y for y in range(n) if y_out[y]]
    for x in xs:
        for y in ys:
            if prod(x, y) <= elements:
                return (x, y)
    return None


def alpha_prime_violation(ring: HyperRing, ideal: HyperIdeal, alpha, mirrored: bool = False):
    """First pair violating x o y <= I  =>  x in I or alpha(y) in I.

    The definition is order-asymmetric; ``mirrored`` checks the swapped
    form (y in I or alpha(x) in I) for diagnostics.
    """
    _require_proper(ideal)
    _check_endo(ring, alpha)
    return _alpha_prime_violation(ring, ideal.elements, alpha, mirrored)


def is_alpha_prime(ring: HyperRing, ideal: HyperIdeal, alpha) -> bool:
    return alpha_prime_violation(ring, ideal, alpha) is None


def alpha_prime_witness_ok(ring: HyperRing, ideal_or_set, alpha, x: int, y: int) -> bool:
    """Re-verify a claimed violation pair independently of the search."""
    elements = _as_elements(ideal_or_set)
    return (
        ring.product_of(x, y) <= elements
        and x not in elements
        and alpha.map[y] not in elements
    )


def is_maximal(ring: HyperRing, ideal: HyperIdeal, max_order: int = DEFAULT_ENUM_CAP) -> bool:
    """No proper hyperideal strictly contains the ideal."""
    _require_proper(ideal)
    for other in enumerate_hyperideals(ring, max_order):
        if other.proper and ideal.elements < other.elements:
            return False
    return True


# ---------------------------------------------------------------------------
# radicals


@memoized
def _d_set(ring: HyperRing, elements: ElementSet) -> ElementSet:
    out = set()
    for r in range(ring.order):
        if any(p <= elements for p in power_orbit(ring, r)):
            out.add(r)
    return frozenset(out)


def d_radical_set(ring: HyperRing, ideal_or_set) -> ElementSet:
    """{r : some power-set of r lies inside I} (decided over power orbits)."""
    return _d_set(ring, _as_elements(ideal_or_set))


@memoized
def prime_ideals(ring: HyperRing, max_order: int = DEFAULT_ENUM_CAP) -> tuple:
    primes = []
    for ideal in enumerate_hyperideals(ring, max_order):
        if ideal.proper and _prime_violation(ring, ideal.elements) is None:
            primes.append(ideal.elements)
    return tuple(primes)


def radical_detail(ring: HyperRing, ideal_or_set, max_order: int = DEFAULT_ENUM_CAP):
    """(intersection_form, d_set, c_status) with the cross-checks applied.

    The intersection over no primes is the full carrier by convention.
    D sits inside the intersection always; with a definite 'yes' C-status
    the two must agree, and disagreement is an internal error.
    """
    elements = _as_elements(ideal_or_set)
    primes = [p for p in prime_ideals(ring, max_order) if elements <= p]
    if primes:
        inter = frozenset.intersection(*primes)
    else:
        inter = ring.carrier_set()
    d = _d_set(ring, elements)
    if not d <= inter:
        raise ConsistencyError(
            f"D-set escapes the prime intersection for {sorted(elements)} in {ring.name}"
        )
    c = is_c_hyperideal(ring, elements)
    if c == C_YES and d != inter:
        raise ConsistencyError(
            f"radical forms disagree on the C-hyperideal {sorted(elements)} in {ring.name}"
        )
    return inter, d, c


def prime_radical(ring: HyperRing, ideal_or_set, max_order: int = DEFAULT_ENUM_CAP) -> ElementSet:
    """Intersection of all primes containing I (the full carrier if none)."""
    inter, _d, _c = radical_detail(ring, ideal_or_set, max_order)
    return inter


def is_primary(
    ring: HyperRing,
    ideal: HyperIdeal,
    allow_zero_primary: bool = False,
    max_order: int = DEFAULT_ENUM_CAP,
) -> bool:
    """x o y <= Q forces x in Q or y in the radical of Q.

    The zero ideal is excluded by default ("nonzero" is part of the
    definition here); pass allow_zero_primary=True to classify it anyway.
    """
    _require_proper(ideal)
    if ideal.is_zero and not allow_zero_primary:
        return False
    elements = ideal.elements
    root = prime_radical(ring, elements, max_order)
    prod = ring.product_of
    n = ring.order
    for x in range(n):
        if x in elements:
            continue
        for y in range(n):
            if y in root:
                continue
            if prod(x, y) <= elements:
                return False
    return True


@memoized
def _alpha_radical(ring: HyperRing, elements: ElementSet, alpha) -> ElementSet:
    amap = alpha.map
    out = set()
    for r in range(ring.order):
        for p in power_orbit(ring, r):
            if frozenset(amap[t] for t in p) <= elements:
                out.add(r)
                break
    return frozenset(out)


def alpha_radical(ring: HyperRing, subset, alpha) -> ElementSet:
    """{r : the alpha-image of some power-set of r lies inside J}.

    Defined only on zero-absorbing rings.  J may be any subset: the
    product/intersection law applies this to raw set products.
    """
    if not ring.props.zero_absorbing:
        raise NotZeroAbsorbing(
            f"{ring.name} lacks the zero-absorbing property"
        )
    _check_endo(ring, alpha)
    return _alpha_radical(ring, _as_elements(subset), alpha)


def nilradical(ring: HyperRing) -> ElementSet:
    """All nilpotent elements: 0 lies in some power of x."""
    zero = ring.zero
    return frozenset(
        x for x in range(ring.order)
        if any(zero in p for p in power_orbit(ring, x))
    )


@memoized
def alpha_nilradical(ring: HyperRing, alpha) -> ElementSet:
    """All alpha-nilpotent elements: 0 lies in the alpha-image of some power."""
    _check_endo(ring, alpha)
    zero = ring.zero
    amap = alpha.map
    out = set()
    for x in range(ring.order):
        for p in power_orbit(ring, x):
            if any(amap[t] == zero for t in p):
                out.add(x)
                break
    return frozenset(out)


# ---------------------------------------------------------------------------
# arithmetic on ideals


def colon(ring: HyperRing, ideal: HyperIdeal, subset) -> HyperIdeal:
    """Residual {r : r o s <= I for every s in S}; may be improper."""
    s = ring.check_subset(subset)
    if not s:
        raise EmptySet("colon requires a nonempty subset")
    elements = ideal.elements
    prod = ring.product_of
    members = frozenset(
        r for r in range(ring.order)
        if all(prod(r, x) <= elements for x in s)
    )
    return as_hyperideal(ring, members)


def sum_ideals(ring: HyperRing, left: HyperIdeal, right: HyperIdeal) -> HyperIdeal:
    """Elementwise sum {a + b}; verified to be a hyperideal, not assumed."""
    members = set_sum(ring, left.elements, right.elements)
    return as_hyperideal(ring, members)


# ---------------------------------------------------------------------------
# zero divisors and integral hyperdomains


@memoized
def _zero_divisors(ring: HyperRing) -> ElementSet:
    zero = ring.zero
    prod = ring.product_of
    n = ring.order
    out = set()
    for a in range(n):
        for b in range(n):
            if b != zero and zero in prod(a, b):
                out.add(a)
                break
    return frozenset(out)


def zero_divisors(ring: HyperRing, exclude_zero: bool = False) -> ElementSet:
    """{a : 0 in a o b for some b != 0}.

    The defining formula does not exclude a = 0; the diagnostic variant
    (exclude_zero=True) drops it for comparison with classical usage.
    """
    zd = _zero_divisors(ring)
    if exclude_zero:
        return zd - frozenset((ring.zero,))
    return zd


def alpha_integral_violation(ring: HyperRing, alpha):
    """First pair with 0 in x o y, x != 0 and alpha(y) != 0, if any."""
    _check_endo(ring, alpha)
    zero = ring.zero
    prod = ring.product_of
    amap = alpha.map
    n = ring.order
    for x in range(n):
        if x == zero:
            continue
        for y in range(n):
            if amap[y] == zero:
                continue
            if zero in prod(x, y):
                return (x, y)
    return None


def is_alpha_integral_hyperdomain(ring: HyperRing, alpha) -> bool:
    return alpha_integral_violation(ring, alpha) is None
