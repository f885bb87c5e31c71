"""Catalog of verification properties and the machinery to run them.

Each catalog entry packages named hypotheses and a conclusion over one
instance (a ring with whatever ideals/endomorphisms/maps the entry
consumes).  Hypotheses the source statements leave implicit (properness
of derived ideals, zero absorption wherever a radical appears, identity
fixing for the product biconditional) are materialized as named
hypotheses so "fails" always means the conclusion itself failed.

Each conclusion is a claim built from a few witness shapes (a pair test,
a hyperideal test, containment, equality) and combinators (first
failure, conditional, biconditional); the claim gives both the check and
the re-verification of its witnesses.  Verdicts are deterministic:
witnesses are the first violation in canonical element order, and every
fails witness is re-verified before its verdict is reported.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .core import (
    FLAVOR_NONE,
    FLAVOR_SCALAR,
    HyperRing,
    identity_flavor_at,
    memoized,
    set_product,
    set_sum,
)
from .errors import CapExceeded, SignatureMismatch
from .constructions import (
    ProductRing,
    induced_quotient_endo,
    product_ideal,
    quotient_ring,
)
from .ideals import (
    HyperIdeal,
    _residue_pair,
    _residue_radicals,
    _residue_step,
    _scale,
    alpha_integral_violation,
    alpha_prime_violation,
    alpha_radical,
    alpha_nilradical,
    as_hyperideal,
    ConsistencyError,
    d_radical_set,
    enumerate_hyperideals,
    hyperideal_violation,
    is_alpha_prime,
    is_primary,
    prime_violation,
    radical_detail,
    zero_divisors,
    zero_ideal,
    C_NO,
    C_YES,
)
from .morphisms import Homomorphism, commutes, kernel

KIND_RING_IDEAL = "ring_ideal"
KIND_RING_ALPHA = "ring_alpha"
KIND_RING_ALPHA_IDEAL = "ring_alpha_ideal"
KIND_HOM = "hom"
KIND_PRODUCT = "product"

STATUS_HOLDS = "holds"
STATUS_FAILS = "fails"
STATUS_NOT_MET = "hypotheses_not_met"
STATUS_UNDECIDED = "undecided"


@dataclass(frozen=True, eq=False)
class Instance:
    """One bundle of validated components consumed by checks."""

    uid: str
    kind: str
    ring: HyperRing
    ideal: HyperIdeal | None = None
    alpha: Homomorphism | None = None
    hom: Homomorphism | None = None
    alpha_target: Homomorphism | None = None
    ideal_target: HyperIdeal | None = None
    product: ProductRing | None = None
    left_ideal: HyperIdeal | None = None
    right_ideal: HyperIdeal | None = None
    left_alpha: Homomorphism | None = None
    right_alpha: Homomorphism | None = None
    tags: tuple = ()


@dataclass(frozen=True, eq=False)
class TheoremCheck:
    """A decidable (hypotheses, conclusion) pair over one instance kind.

    Verdicts share the hypotheses readings built here: ``met`` when all
    hold, ``blocked[i][refuted]`` = (status, readings, witness) when
    hypothesis i reads false (``refuted``) or unknown.
    """

    tid: str
    signature: str
    statement: str
    hypotheses: tuple
    conclude: object
    recheck: object
    met: tuple = field(init=False, repr=False)
    blocked: tuple = field(init=False, repr=False)

    def __post_init__(self):
        names = [name for name, _fn in self.hypotheses]

        def stop(i, status, reading):
            hyps = [(n, "true") for n in names[:i]] + [(names[i], reading)]
            return status, tuple(hyps + [(n, "skipped") for n in names[i + 1:]]), ("hypothesis", names[i])

        object.__setattr__(self, "met", tuple((n, "true") for n in names))
        object.__setattr__(self, "blocked", tuple(
            (stop(i, STATUS_UNDECIDED, "unknown"), stop(i, STATUS_NOT_MET, "false")) for i in range(len(names))
        ))


class VerdictReport(NamedTuple):
    instance: str
    theorem: str
    status: str
    hypotheses: tuple  # ((name, "true"|"false"|"unknown"|"skipped"), ...)
    witness: object
    statement: str


# ---------------------------------------------------------------------------
# shared memoized helpers


@memoized
def _alpha_prime_proper_sets(ring: HyperRing, alpha: Homomorphism) -> tuple:
    out = []
    for ideal in enumerate_hyperideals(ring):
        if ideal.proper and alpha_prime_violation(ring, ideal, alpha) is None:
            out.append(ideal.elements)
    return tuple(out)


@memoized
def _ideal_pairs(ring: HyperRing) -> tuple:
    """(L, R, L o R, L + R, L & R) for every ordered pair of hyperideals.

    Equal sets share one object; sums and meets of ideals are ideals, so
    the ideals' own sets cover them.  On a residue ring Z_n[M], with
    I = dZ_n and J = eZ_n, I + J = gcd(d, e)Z_n, I & J = lcm(d, e)Z_n and
    I o J is the union of gcd(d*e*m, n)Z_n over m in M.
    """
    ideals = [i.elements for i in enumerate_hyperideals(ring)]
    shared = {s: s for s in ideals}

    def intern(s):
        return shared.setdefault(s, s)

    if "zn_multiplier" not in ring.tags:
        return tuple(
            (ea, eb, intern(set_product(ring, ea, eb)), intern(set_sum(ring, ea, eb)), intern(ea & eb))
            for ea in ideals for eb in ideals
        )
    n = ring.order
    by_step = {n // len(s): s for s in ideals}
    return tuple(
        (ea, eb, intern(frozenset().union(*(range(0, n, gcd(d * e * m, n)) for m in ring.hyp[1][1]))),
         by_step[gcd(d, e)], by_step[lcm(d, e)])
        for d, ea in by_step.items()
        for e, eb in by_step.items()
    )


@memoized
def _quotient_image(quotient, elements: frozenset) -> HyperIdeal:
    proj = quotient.projection.map
    return as_hyperideal(quotient.ring, frozenset(proj[x] for x in elements))


def _alpha_invariant(alpha: Homomorphism, elements: frozenset) -> bool:
    amap = alpha.map
    return all(amap[x] in elements for x in elements)


def _has_fixed_identity(ring: HyperRing, alpha: Homomorphism) -> bool:
    amap = alpha.map
    for e in range(ring.order):
        if amap[e] == e and identity_flavor_at(ring, e) != FLAVOR_NONE:
            return True
    return False


# ---------------------------------------------------------------------------
# hypothesis helpers (True / False / None=undecidable)


def h_commutative(inst):
    if inst.kind == KIND_HOM:
        return inst.ring.props.commutative and inst.hom.target.props.commutative
    if inst.kind == KIND_PRODUCT:
        return (
            inst.product.left.props.commutative
            and inst.product.right.props.commutative
        )
    return inst.ring.props.commutative


def h_proper(inst):
    return inst.ideal.proper


def h_alpha_prime(inst):
    return alpha_prime_violation(inst.ring, inst.ideal, inst.alpha) is None


_C_VALUE = {C_YES: True, C_NO: False}  # an unknown C-status is undecided


def h_c_ideal(inst):
    return _C_VALUE.get(inst.ideal.c_status)


def h_zero_absorbing(inst):
    return inst.ring.props.zero_absorbing


def h_has_identity(inst):
    return inst.ring.props.identity is not None


def h_scalar_identity(inst):
    return inst.ring.props.identity_flavor == FLAVOR_SCALAR


def h_alpha_fixes_identity(inst):
    e = inst.ring.props.identity
    return e is not None and inst.alpha.map[e] == e


def h_radical_proper(inst):
    inter, _d, _c = radical_detail(inst.ring, inst.ideal.elements)
    return len(inter) < inst.ring.order


def h_alpha_radical_proper(inst):
    rad = alpha_radical(inst.ring, inst.ideal.elements, inst.alpha)
    return len(rad) < inst.ring.order


def h_alpha_preimage_proper(inst):
    pre = inst.alpha.preimage_of(inst.ideal.elements)
    return len(pre) < inst.ring.order


def h_invariance_maximal(inst):
    els = inst.ideal.elements
    if not _alpha_invariant(inst.alpha, els):
        return False
    for other in enumerate_hyperideals(inst.ring):
        if other.proper and els < other.elements and _alpha_invariant(inst.alpha, other.elements):
            return False
    return True


def h_zero_ideal_proper(inst):
    return zero_ideal(inst.ring).proper


def h_zero_ideal_prime(inst):
    zi = zero_ideal(inst.ring)
    return prime_violation(inst.ring, zi) is None


def h_zero_ideal_c(inst):
    return _C_VALUE.get(zero_ideal(inst.ring).c_status)


def h_kernel_proper(inst):
    return kernel(inst.alpha).proper


def h_kernel_inside_ideal(inst):
    return kernel(inst.alpha).elements <= inst.ideal.elements


def h_alpha_preserves_kernel(inst):
    return _alpha_invariant(inst.alpha, kernel(inst.alpha).elements)


def h_alpha_preserves_ideal(inst):
    return _alpha_invariant(inst.alpha, inst.ideal.elements)


def h_t18_premise(inst):
    ring, ideal, alpha = inst.ring, inst.ideal, inst.alpha
    els = ideal.elements
    rad = alpha_radical(ring, els, alpha)
    prod = ring.product_of
    n = ring.order
    for a in range(n):
        if a in els:
            continue
        for b in range(n):
            if b in rad:
                continue
            if prod(a, b) <= els:
                return False
    return True


def h_primary(inst):
    return is_primary(inst.ring, inst.ideal)


# hom-instance hypotheses


def h_commutes(inst):
    return commutes(inst.hom, inst.alpha, inst.alpha_target)


def h_target_ideal_proper(inst):
    return inst.ideal_target.proper


def h_target_ideal_alpha_prime(inst):
    return (
        alpha_prime_violation(inst.hom.target, inst.ideal_target, inst.alpha_target)
        is None
    )


def h_hom_preimage_proper(inst):
    pre = inst.hom.preimage_of(inst.ideal_target.elements)
    return len(pre) < inst.ring.order


def h_hom_zero_absorbing(inst):
    return inst.ring.props.zero_absorbing and inst.hom.target.props.zero_absorbing


def h_surjective(inst):
    return inst.hom.is_surjective


def h_image_proper(inst):
    img = inst.hom.image_of(inst.ideal.elements)
    return len(img) < inst.hom.target.order


def h_kernel_containment_any(inst):
    els = inst.ideal.elements
    ka = kernel(inst.alpha).elements <= els
    kf = kernel(inst.hom).elements <= els
    return ka or kf


# product-instance hypotheses


def h_factors_identities(inst):
    return (
        inst.product.left.props.identity is not None
        and inst.product.right.props.identity is not None
    )


def h_alpha_fixes_factor_identities(inst):
    return _has_fixed_identity(inst.product.left, inst.left_alpha) and _has_fixed_identity(
        inst.product.right, inst.right_alpha
    )


def h_product_ideal_proper(inst):
    return inst.ideal.proper


def h_left_ideal_proper(inst):
    return inst.left_ideal.proper


# ---------------------------------------------------------------------------
# claims: a conclusion and the re-verification of its witnesses, per shape


@dataclass(frozen=True)
class Claim:
    """``conclude(inst)`` gives (ok, witness); a witness is the first
    violation in canonical order, a tuple led by one of ``tags``.
    ``recheck(inst, witness)`` plugs it back into the predicate and
    recomputes every set it names; a witness of the wrong length does
    not re-verify.
    """

    tags: tuple
    conclude: object
    recheck: object


def _pair_search(ring, elements, twist):
    ideal = HyperIdeal(ring, elements, len(elements) < ring.order)
    if twist is None:
        return prime_violation(ring, ideal)
    return alpha_prime_violation(ring, ideal, twist)


def _pair_holds(ring, elements, amap, x, y):
    """x o y inside the set with x outside, and y (its amap-image) outside."""
    carrier = range(ring.order)
    return (
        x in carrier
        and y in carrier
        and ring.product_of(x, y) <= elements
        and x not in elements
        and (y if amap is None else amap[y]) not in elements
    )


def _sized(n, recheck, tuples=(), ints=()):
    """``recheck``, refusing any witness that is not ``n`` fields long, whose
    set- or pair-valued fields (at positions ``tuples``) are not tuples, or
    whose element fields (at positions ``ints``) are not ints."""
    return lambda inst, witness: (
        len(witness) == n and all(isinstance(witness[i], tuple) for i in tuples)
        and all(isinstance(witness[i], int) for i in ints)
        and recheck(inst, witness)
    )


def _absorbs(tag, subject, twist=None, ideal=False):
    """The pair test on ``subject(inst) = (ring, S)``: x o y inside S forces
    x in S or twist(y) in S; with no twist it tests primeness.  With
    ``ideal``, S must first be a hyperideal."""

    def conclude(inst):
        ring, els = subject(inst)
        if ideal:
            bad = hyperideal_violation(ring, els)
            if bad is not None:
                return False, ("not_hyperideal", bad)
        pair = _pair_search(ring, els, twist and twist(inst))
        return (True, None) if pair is None else (False, (tag, *pair))

    def recheck(inst, witness):
        ring, els = subject(inst)
        if witness[0] == "not_hyperideal":
            return len(witness) == 2 and _names_violation(ring, els, witness[1])
        amap = twist(inst).map if twist else None
        return len(witness) == 3 and _pair_holds(ring, els, amap, *witness[1:])

    return Claim(("not_hyperideal", tag) if ideal else (tag,), conclude, recheck)


def _ideal_absorbs(subject, twist=None):
    return _absorbs("pair", subject, twist, ideal=True)


def _is_ideal(subject):
    """S is a hyperideal; the witness is the first violated closure law."""

    def conclude(inst):
        bad = hyperideal_violation(*subject(inst))
        return (True, None) if bad is None else (False, ("not_hyperideal", bad))

    def recheck(inst, witness):
        return len(witness) == 2 and _names_violation(*subject(inst), witness[1])

    return Claim(("not_hyperideal",), conclude, recheck)


def _names_violation(ring, els, bad):
    """``bad`` is the first violated closure law of the set."""
    return bad is not None and bad == hyperideal_violation(ring, els)


def _smallest(tag, elements):
    return (False, (tag, min(elements))) if elements else (True, None)


def _inside(tag, sub, sup):
    """sub(inst) lies inside sup(inst); the witness is the smallest element
    of the difference."""
    return Claim(
        (tag,),
        lambda inst: _smallest(tag, sub(inst) - sup(inst)),
        _sized(2, lambda inst, witness: witness[1] in sub(inst) and witness[1] not in sup(inst), ints=(1,)),
    )


def _equal(tag, a, b):
    """a(inst) equals b(inst); the witness is the smallest element of the
    symmetric difference."""
    return Claim(
        (tag,),
        lambda inst: _smallest(tag, a(inst) ^ b(inst)),
        _sized(2, lambda inst, witness: (witness[1] in a(inst)) != (witness[1] in b(inst)), ints=(1,)),
    )


def _first(*claims):
    """Every claim holds; the first that fails gives the witness."""

    def conclude(inst):
        for claim in claims:
            ok, witness = claim.conclude(inst)
            if not ok:
                return ok, witness
        return True, None

    def recheck(inst, witness):
        return any(witness[0] in c.tags and c.recheck(inst, witness) for c in claims)

    return Claim(sum((c.tags for c in claims), ()), conclude, recheck)


def _when(cond, claim):
    """The claim, asserted only where ``cond(inst)`` holds."""
    return Claim(
        claim.tags,
        lambda inst: claim.conclude(inst) if cond(inst) else (True, None),
        lambda inst, witness: cond(inst) and claim.recheck(inst, witness),
    )


def _iff(lhs, rhs):
    """lhs holds exactly when rhs does.  The witness is the failing side's;
    it re-verifies only while the other side holds."""

    def conclude(inst):
        lok, lwit = lhs.conclude(inst)
        rok, rwit = rhs.conclude(inst)
        if lok == rok:
            return True, None
        return False, (rwit if lok else lwit)

    def recheck(inst, witness):
        side, other = (lhs, rhs) if witness[0] in lhs.tags else (rhs, lhs)
        return (
            witness[0] in side.tags
            and side.recheck(inst, witness)
            and other.conclude(inst)[0] is True
        )

    return Claim(lhs.tags + rhs.tags, conclude, recheck)


# subjects and twists


def _ideal(inst):
    return inst.ring, inst.ideal.elements


def _alpha(inst):
    return inst.alpha


def _alpha_preimage(inst):
    return inst.alpha.preimage_of(inst.ideal.elements)


def _power_members(inst):
    return d_radical_set(inst.ring, inst.ideal.elements)


def _radical(inst):
    return inst.ring, radical_detail(inst.ring, inst.ideal.elements)[0]


def _nil(inst):
    return alpha_nilradical(inst.ring, inst.alpha)


def _alpha_prime_meet(inst):
    """The intersection of the proper alpha-prime hyperideals (R if none)."""
    sets = _alpha_prime_proper_sets(inst.ring, inst.alpha)
    return frozenset.intersection(*sets) if sets else inst.ring.carrier_set()


def _zero_radical(inst):
    return alpha_radical(inst.ring, zero_ideal(inst.ring).elements, inst.alpha)


def _source_radical_image(inst):
    """f(rad(I1)) along a hom instance."""
    f = inst.hom
    return f.image_of(alpha_radical(f.source, inst.ideal.elements, inst.alpha))


def _image_radical(inst):
    """rad(f(I1)) along a hom instance."""
    f = inst.hom
    return alpha_radical(f.target, f.image_of(inst.ideal.elements), inst.alpha_target)


def _hom_preimage(inst):
    return inst.hom.preimage_of(inst.ideal_target.elements)


def _quotient_zero_divisors(inst):
    return zero_divisors(quotient_ring(inst.ring, inst.ideal).ring)


def _cosets_in_alpha_preimage(inst):
    pre = _alpha_preimage(inst)
    cosets = quotient_ring(inst.ring, inst.ideal).cosets
    return frozenset(c for c, members in enumerate(cosets) if members <= pre)


def _image_mod_kernel(inst):
    """The image of I in R / ker(alpha)."""
    quotient = quotient_ring(inst.ring, kernel(inst.alpha))
    return quotient.ring, _quotient_image(quotient, inst.ideal.elements).elements


_QUOTIENT_PAIRS = _absorbs("quotient_pair", _image_mod_kernel)


def _kernel_quotient_pair(inst):
    """The quotient side of T21.  On Z_n[M] with alpha = x -> kx, ker(alpha)
    is cZ_n with c = n / gcd(n, k); when it lies in the proper I = dZ_n
    (1 < d | c), R/ker(alpha) = Z_c[M mod c] and I/ker(alpha) = dZ_c, so the
    prime pair comes from the alpha-prime form with the identity table."""
    ring = inst.ring
    d = _residue_step(ring, inst.ideal.elements)
    k = None if d is None else _scale(inst.alpha)
    if k is not None:
        c = ring.order // gcd(ring.order, k)
        if 1 < d and c % d == 0:
            pair = _residue_pair(c, gcd(c, *ring.hyp[1][1]), d, range(c), False)
            return (True, None) if pair is None else (False, ("quotient_pair", *pair))
    return _QUOTIENT_PAIRS.conclude(inst)


def _cylinder(inst):
    """I1 x R2 in the product."""
    product = inst.product
    lifted = product_ideal(product, inst.left_ideal.elements, product.right.carrier_set())
    return product.ring, lifted.elements


def _ideal_pair_violation(inst):
    els, amap = inst.ideal.elements, inst.alpha.map
    for left, right, prod, _sum, _meet in _ideal_pairs(inst.ring):
        if prod <= els and not left <= els and not all(amap[y] in els for y in right):
            return False, ("ideal_pair", tuple(sorted(left)), tuple(sorted(right)))
    return True, None


def _ideal_pair_holds(inst, witness):
    ring, els, amap = inst.ring, inst.ideal.elements, inst.alpha.map
    left, right = frozenset(witness[1]), frozenset(witness[2])
    ideals = {i.elements for i in enumerate_hyperideals(ring)}
    return (
        left in ideals and right in ideals and set_product(ring, left, right) <= els
        and not left <= els and not frozenset(amap[y] for y in right) <= els
    )


# L o R inside I forces L inside I or alpha(R) inside I, over hyperideals L, R.
_IDEAL_PAIRS = Claim(("ideal_pair",), _ideal_pair_violation, _sized(3, _ideal_pair_holds, (1, 2)))

_T05 = _iff(_absorbs("pair", _ideal, _alpha), _IDEAL_PAIRS)
_c05 = _T05.conclude


def _quotient_star(inst):
    quotient = quotient_ring(inst.ring, inst.ideal)
    return quotient.ring, induced_quotient_endo(quotient, inst.alpha)


def _integral_violation(inst):
    ring, star = _quotient_star(inst)
    pair = alpha_integral_violation(ring, star)
    return (True, None) if pair is None else (False, ("quotient_pair", *pair))


def _integral_pair_holds(inst, witness):
    ring, star = _quotient_star(inst)
    _tag, x, y = witness
    zero, carrier = ring.zero, range(ring.order)
    return (
        x in carrier and y in carrier and zero in ring.product_of(x, y)
        and x != zero and star.map[y] != zero
    )


# 0 in x o y forces x = 0 or alpha*(y) = 0 in R/I.
_INTEGRAL_QUOTIENT = Claim(
    ("quotient_pair",), _integral_violation, _sized(3, _integral_pair_holds)
)


def _t23_readings(inst):
    els = inst.ideal.elements
    return tuple(
        name
        for name, f in (("kernel_of_alpha", inst.alpha), ("kernel_of_map", inst.hom))
        if kernel(f).elements <= els
    )


def _with_readings(claim):
    """The claim, its witness prefixed with the kernel-containment readings."""

    def conclude(inst):
        ok, witness = claim.conclude(inst)
        return (True, None) if ok else (False, ("readings", _t23_readings(inst), *witness))

    def recheck(inst, witness):
        return (
            len(witness) > 2 and witness[1] == _t23_readings(inst)
            and claim.recheck(inst, witness[2:])
        )

    return Claim(("readings",), conclude, recheck)


def _t26_rhs(inst):
    """One side of the box is full and the other a proper alpha-prime ideal."""
    product = inst.product
    return any(
        not full.proper and other.proper and alpha_prime_violation(ring, other, alpha) is None
        for full, other, ring, alpha in (
            (inst.left_ideal, inst.right_ideal, product.right, inst.right_alpha),
            (inst.right_ideal, inst.left_ideal, product.left, inst.left_alpha),
        )
    )


_ONE_SIDE_FULL = Claim(
    ("sides",),
    lambda inst: (True, None) if _t26_rhs(inst) else (False, ("sides", "product_prime_but_factors_not")),
    _sized(2, lambda inst, witness: witness[1] == "product_prime_but_factors_not" and not _t26_rhs(inst)),
)


# custom claims: residuals, radical laws, powers, subideal quotients, D-sets


def _colon_elements(ring, els, subset):
    prod = ring.product_of
    return frozenset(
        r for r in range(ring.order) if all(prod(r, s) <= els for s in subset)
    )


@memoized
def _distinct_residuals(ring: HyperRing, elements: frozenset) -> tuple:
    """One (S, I : S) per distinct proper residual, S the first subset (as a
    sorted tuple) among the singletons, then I, then R; equal residuals give
    equal verdicts.  A residual among the enumerated hyperideals is one; any
    other, and any residual of a ring above the enumeration cap, is checked.

    On a residue ring Z_n[M], r o s <= dZ_n exactly when d | r*s*g for
    g = gcd(M + {n}), so (dZ_n : S) = (d / gcd(d, g * gcd(S + {n})))Z_n.
    """
    try:
        known = {i.elements: i for i in enumerate_hyperideals(ring)}
    except CapExceeded:
        known = {}
    family = [frozenset((s,)) for s in range(ring.order)] + [elements, ring.carrier_set()]
    n = ring.order
    if "zn_multiplier" in ring.tags:
        d, g = n // len(elements), gcd(n, *ring.hyp[1][1])
        residuals = (frozenset(range(0, n, d // gcd(d, g * gcd(n, *s)))) for s in family)
    else:
        residuals = (_colon_elements(ring, elements, s) for s in family)
    found = {}
    for subset, res in zip(family, residuals):
        if len(res) < ring.order and res not in found:
            found[res] = (tuple(sorted(subset)), known[res] if res in known else as_hyperideal(ring, res))
    return tuple(found.values())


def _c06(inst):
    ring, alpha = inst.ring, inst.alpha
    for subset, residual in _distinct_residuals(ring, inst.ideal.elements):
        pair = alpha_prime_violation(ring, residual, alpha)
        if pair is not None:
            return False, ("colon_pair", subset, pair[0], pair[1])
    return True, None


def _r06(inst, witness):
    _tag, subset, x, y = witness
    if not set(subset) <= inst.ring.carrier_set():
        return False
    res = _colon_elements(inst.ring, inst.ideal.elements, subset)
    return _pair_holds(inst.ring, res, inst.alpha.map, x, y)


def _c15(inst):
    ring, alpha = inst.ring, inst.alpha
    k = _scale(alpha) if "zn_multiplier" in ring.tags else None
    if k is not None:
        return _residue_c15(ring, alpha, k)
    radicals = {}
    outer = {}  # (rad(A), rad(B)) -> rad(rad(A) + rad(B)); ideal pairs repeat radical pairs

    def rad(subset):
        if subset not in radicals:
            radicals[subset] = alpha_radical(ring, subset, alpha)
        return radicals[subset]

    invariant = {i.elements: _alpha_invariant(alpha, i.elements) for i in enumerate_hyperideals(ring)}
    for ea, eb, prod, plus, meet in _ideal_pairs(ring):
        ra, rb = rad(ea), rad(eb)
        if ea <= eb and not ra <= rb:
            return False, ("monotone", tuple(sorted(ea)), tuple(sorted(eb)))
        if not (rad(prod) == rad(meet) == ra & rb):
            return False, ("product_law", tuple(sorted(ea)), tuple(sorted(eb)))
        if invariant[ea] and invariant[eb]:
            if (ra, rb) not in outer:
                outer[ra, rb] = rad(set_sum(ring, ra, rb))
            if not rad(plus) <= outer[ra, rb]:
                return False, ("sum_law", tuple(sorted(ea)), tuple(sorted(eb)))
    return True, None


def _residue_c15(ring, alpha, k):
    """On Z_n[M] with alpha = x -> kx, every alpha-radical is an ideal tZ_n:
    q | gcd(p + {n}) for a power p of x exactly when every prime of q that
    does not divide g divides x.  sZ_n lies in tZ_n exactly when t | s, so
    the laws compare steps; a product I o J that is no ideal keeps the sets.
    """
    n = ring.order
    table = _residue_radicals(ring)
    radical = {t: table[t // gcd(t, k)] for t in table}  # t -> rad(tZ_n)
    step = {t: n // len(r) for t, r in radical.items()}
    ideal_step = {i.elements: n // len(i) for i in enumerate_hyperideals(ring)}
    for ea, eb, prod, _plus, _meet in _ideal_pairs(ring):
        d, e = ideal_step[ea], ideal_step[eb]
        r_d, r_e, m = step[d], step[e], lcm(d, e)
        if d % e == 0 and r_d % r_e:
            return False, ("monotone", tuple(sorted(ea)), tuple(sorted(eb)))
        p = ideal_step.get(prod)
        if p is None:
            law = alpha_radical(ring, prod, alpha) == radical[m] == radical[d] & radical[e]
        else:
            law = step[p] == step[m] == lcm(r_d, r_e)
        if not law:
            return False, ("product_law", tuple(sorted(ea)), tuple(sorted(eb)))
        if step[gcd(d, e)] % step[gcd(r_d, r_e)]:
            return False, ("sum_law", tuple(sorted(ea)), tuple(sorted(eb)))
    return True, None


def _r15(inst, witness):
    ring, alpha = inst.ring, inst.alpha
    law, ea, eb = witness
    ea, eb = frozenset(ea), frozenset(eb)
    if not ea | eb <= ring.carrier_set():
        return False
    ra = alpha_radical(ring, ea, alpha)
    rb = alpha_radical(ring, eb, alpha)
    if law == "monotone":
        return ea <= eb and not ra <= rb
    if law == "product_law":
        prod_rad = alpha_radical(ring, set_product(ring, ea, eb), alpha)
        meet_rad = alpha_radical(ring, ea & eb, alpha)
        return not (prod_rad == meet_rad == ra & rb)
    sum_rad = alpha_radical(ring, set_sum(ring, ea, eb), alpha)
    outer = alpha_radical(ring, set_sum(ring, ra, rb), alpha)
    return not sum_rad <= outer


def _powers(inst):
    """I, I o I, ... up to the first repeat, for a proper alpha-prime I."""
    ring, els = inst.ring, inst.ideal.elements
    if not inst.ideal.proper or alpha_prime_violation(ring, inst.ideal, inst.alpha) is not None:
        return []
    powers, acc = [], els
    while acc not in powers:
        powers.append(acc)
        acc = set_product(ring, acc, els)
    return powers


def _c16(inst):
    ring, alpha = inst.ring, inst.alpha
    els = inst.ideal.elements
    rad = alpha_radical(ring, els, alpha)
    full = ring.order
    if (len(rad) == full) != (len(els) == full):
        return False, ("fullness", tuple(sorted(els)))
    for power in _powers(inst):
        if alpha_radical(ring, power, alpha) != rad:
            return False, ("power_radical", tuple(sorted(power)))
    return True, None


def _r16(inst, witness):
    ring, alpha, els = inst.ring, inst.alpha, inst.ideal.elements
    rad = alpha_radical(ring, els, alpha)
    if witness[0] == "fullness":
        return witness[1] == tuple(sorted(els)) and (len(rad) == ring.order) != (len(els) == ring.order)
    power = frozenset(witness[1])
    return power in _powers(inst) and alpha_radical(ring, power, alpha) != rad


def _subideal_quotients(inst):
    """(S, R/S, alpha*, I/S) for each proper alpha-invariant subideal S of I."""
    ring, alpha, els = inst.ring, inst.alpha, inst.ideal.elements
    for sub in enumerate_hyperideals(ring):
        if sub.proper and sub.elements <= els and _alpha_invariant(alpha, sub.elements):
            quotient = quotient_ring(ring, sub)
            star = induced_quotient_endo(quotient, alpha)
            yield sub.elements, quotient.ring, star, _quotient_image(quotient, els)


def _subideal_pairs(inst):
    """(S, the first alpha*-prime violation of I/S in R/S) per subideal
    quotient of :func:`_subideal_quotients`.

    On Z_n[M] with I = eZ_n and alpha = x -> kx, which keeps every sZ_n,
    the subideals are the proper S = sZ_n with e | s, and R/S = Z_s[M mod s]
    (whose g is gcd(g, s)), I/S = eZ_s and alpha* = x -> kx mod s, so the
    quotients are not built; alpha's own table stands for alpha*, since
    kx mod n mod e = kx mod s mod e when e | s | n.
    """
    ring, alpha = inst.ring, inst.alpha
    e = _residue_step(ring, inst.ideal.elements)
    k = None if e is None else _scale(alpha)
    if k is None:
        for sub, qring, star, image in _subideal_quotients(inst):
            yield sub, alpha_prime_violation(qring, image, star)
        return
    n = ring.order
    g = gcd(n, *ring.hyp[1][1])
    for sub in enumerate_hyperideals(ring):
        s = n // len(sub)
        if sub.proper and s % e == 0:
            yield sub.elements, _residue_pair(s, gcd(g, s), e, alpha.map, False)


def _c24(inst):
    lhs_pair = alpha_prime_violation(inst.ring, inst.ideal, inst.alpha)
    for sub, rhs_pair in _subideal_pairs(inst):
        if (lhs_pair is None) != (rhs_pair is None):
            side = "quotient_pair" if lhs_pair is None else "pair"
            return False, ("subideal", tuple(sorted(sub)), side, rhs_pair or lhs_pair)
    return True, None


def _r24(inst, witness):
    """The pair re-verifies on its side while the other side holds."""
    _tag, sub_els, side, pair = witness
    lhs = (inst.ring, inst.ideal, inst.alpha)
    for sub, qring, star, image in _subideal_quotients(inst):
        if sub == frozenset(sub_els):
            rhs = (qring, image, star)
            (ring, ideal, alpha), other = (rhs, lhs) if side == "quotient_pair" else (lhs, rhs)
            return (
                len(pair) == 2 and _pair_holds(ring, ideal.elements, alpha.map, *pair)
                and is_alpha_prime(*other)
            )
    return False


def _c27(inst):
    inter, d, c = radical_detail(inst.ring, inst.ideal.elements)
    if not d <= inter:
        return _smallest("subset_violation", d - inter)
    if d == inter or c == C_NO:
        return True, None
    if c == C_YES:
        return _smallest("equality_violation", inter - d)
    return None, ("cap", "product-set closure capped; C-status unknown")


def _r27(inst, witness):
    inter, d, _c = radical_detail(inst.ring, inst.ideal.elements)
    x = witness[1]
    if witness[0] == "subset_violation":
        return x in d and x not in inter
    return (x in inter) != (x in d)


# ---------------------------------------------------------------------------
# the catalog


def _mk(tid, sig, statement, hyps, claim):
    def recheck(inst, witness):
        return bool(witness) and witness[0] in claim.tags and claim.recheck(inst, witness)

    return TheoremCheck(tid, sig, statement, tuple(hyps), claim.conclude, recheck)


_COMM = ("ring commutative", h_commutative)
_PROPER = ("ideal proper", h_proper)
_APRIME = ("ideal alpha-prime", h_alpha_prime)
_CSTAT = ("ideal C-hyperideal", h_c_ideal)
_ABSORB = ("ring zero-absorbing", h_zero_absorbing)


@lru_cache(maxsize=None)
def catalog() -> tuple:
    """The 28 checks, in id order."""
    rai = KIND_RING_ALPHA_IDEAL
    ra = KIND_RING_ALPHA
    ri = KIND_RING_IDEAL
    return (
        _mk(
            "T01", rai,
            "an alpha-prime hyperideal is carried into itself by alpha",
            (_COMM, _PROPER, _APRIME, ("ring has identity", h_has_identity)),
            _inside("element", lambda i: i.ideal.elements, _alpha_preimage),
        ),
        _mk(
            "T02", rai,
            "the prime radical of an alpha-prime C-hyperideal is alpha-prime",
            (_COMM, _PROPER, _APRIME, _CSTAT, ("radical proper", h_radical_proper)),
            _ideal_absorbs(_radical, _alpha),
        ),
        _mk(
            "T03", rai,
            "the alpha-preimage of an alpha-prime hyperideal is alpha-prime "
            "(and contains it, given an identity and C-status)",
            (_COMM, _PROPER, _APRIME, ("alpha-preimage proper", h_alpha_preimage_proper)),
            _first(
                _ideal_absorbs(lambda i: (i.ring, _alpha_preimage(i)), _alpha),
                _when(
                    lambda i: i.ring.props.identity is not None and i.ideal.c_status == C_YES,
                    _inside("not_contained", lambda i: i.ideal.elements, _alpha_preimage),
                ),
            ),
        ),
        _mk(
            "T04", rai,
            "an alpha-prime hyperideal maximal among alpha-invariant proper "
            "hyperideals is prime",
            (_COMM, _PROPER, _APRIME, ("maximal among alpha-invariant", h_invariance_maximal)),
            _absorbs("pair", _ideal),
        ),
        _mk(
            "T05", rai,
            "alpha-primeness is equivalent to the ideal-pair absorption law",
            (_COMM, _PROPER),
            _T05,
        ),
        _mk(
            "T06", rai,
            "every proper residual of an alpha-prime hyperideal is alpha-prime",
            (_COMM, _PROPER, _APRIME),
            Claim(("colon_pair",), _c06, _sized(4, _r06, (1,))),
        ),
        _mk(
            "T07", rai,
            "powers falling into an alpha-prime C-hyperideal force the "
            "alpha-image of the base inside",
            (_COMM, _PROPER, _APRIME, _CSTAT),
            _inside("element", _power_members, _alpha_preimage),
        ),
        _mk(
            "T08", rai,
            "powers of alpha-images falling inside force the squared image in",
            (_COMM, _PROPER, _APRIME, _CSTAT),
            _inside(
                "element",
                lambda i: i.alpha.preimage_of(_power_members(i)),
                lambda i: i.alpha.preimage_of(_alpha_preimage(i)),
            ),
        ),
        _mk(
            "T09", ra,
            "with a scalar identity, the alpha-nilradical is a hyperideal",
            (_COMM, ("ring has scalar identity", h_scalar_identity)),
            _is_ideal(lambda i: (i.ring, _nil(i))),
        ),
        _mk(
            "T10", KIND_HOM,
            "preimages of alpha-prime hyperideals along commuting good maps "
            "are alpha-prime",
            (
                _COMM,
                ("maps commute", h_commutes),
                ("target ideal proper", h_target_ideal_proper),
                ("target ideal alpha-prime", h_target_ideal_alpha_prime),
                ("preimage proper", h_hom_preimage_proper),
            ),
            _ideal_absorbs(lambda i: (i.ring, _hom_preimage(i)), _alpha),
        ),
        _mk(
            "T11", ra,
            "the kernel of alpha lies inside every alpha-prime hyperideal",
            (_COMM,),
            _inside("element", lambda i: kernel(i.alpha).elements, _alpha_prime_meet),
        ),
        _mk(
            "T12", ra,
            "if the zero ideal is prime, kernels of endomorphisms are prime",
            (
                _COMM,
                ("zero ideal proper", h_zero_ideal_proper),
                ("zero ideal prime", h_zero_ideal_prime),
                ("kernel proper", h_kernel_proper),
            ),
            _absorbs("pair", lambda i: (i.ring, kernel(i.alpha).elements)),
        ),
        _mk(
            "T13", ra,
            "with absorption and a prime zero ideal, the alpha-nilradical is "
            "the intersection of all alpha-prime hyperideals",
            (
                _COMM,
                _ABSORB,
                ("zero ideal proper", h_zero_ideal_proper),
                ("zero ideal prime", h_zero_ideal_prime),
            ),
            _equal("element", _nil, _alpha_prime_meet),
        ),
        _mk(
            "T14", ra,
            "the alpha-nilradical equals the alpha-radical of the zero ideal",
            (_COMM, _ABSORB, ("zero ideal C-hyperideal", h_zero_ideal_c)),
            _first(
                _inside("subset_violation", _nil, _zero_radical),
                _equal("equality_violation", _nil, _zero_radical),
            ),
        ),
        _mk(
            "T15", ra,
            "alpha-radicals are monotone and satisfy the sum and "
            "product/intersection laws",
            (_COMM, _ABSORB),
            Claim(("monotone", "product_law", "sum_law"), _c15, _sized(3, _r15, (1, 2))),
        ),
        _mk(
            "T16", rai,
            "with a fixed scalar identity the alpha-radical detects fullness "
            "and is constant on powers of alpha-prime hyperideals",
            (
                _COMM,
                _ABSORB,
                ("ring has scalar identity", h_scalar_identity),
                ("alpha fixes the identity", h_alpha_fixes_identity),
            ),
            Claim(("fullness", "power_radical"), _c16, _sized(2, _r16, (1,))),
        ),
        _mk(
            "T17", KIND_HOM,
            "alpha-radicals respect images and preimages along commuting "
            "good maps, with equality under isomorphisms",
            (
                _COMM,
                ("rings zero-absorbing", h_hom_zero_absorbing),
                ("maps commute", h_commutes),
            ),
            _first(
                _inside("image_law", _source_radical_image, _image_radical),
                _inside(
                    "preimage_law",
                    lambda i: alpha_radical(i.hom.source, _hom_preimage(i), i.alpha),
                    lambda i: i.hom.preimage_of(
                        alpha_radical(i.hom.target, i.ideal_target.elements, i.alpha_target)
                    ),
                ),
                _when(
                    lambda i: i.hom.is_surjective and i.hom.is_injective,
                    _inside("iso_equality", _image_radical, _source_radical_image),
                ),
            ),
        ),
        _mk(
            "T18", rai,
            "if products collapse into the alpha-radical, the alpha-radical "
            "is an alpha-prime hyperideal",
            (
                _COMM,
                _ABSORB,
                _PROPER,
                ("premise: products collapse into the radical", h_t18_premise),
                ("alpha-radical proper", h_alpha_radical_proper),
            ),
            _ideal_absorbs(lambda i: (i.ring, alpha_radical(i.ring, i.ideal.elements, i.alpha)), _alpha),
        ),
        _mk(
            "T19", rai,
            "alpha-primeness is equivalent to every zero-divisor coset of "
            "the quotient having its alpha-image inside the ideal",
            (_COMM, _PROPER, _CSTAT),
            _iff(
                _absorbs("pair", _ideal, _alpha),
                _inside("coset", _quotient_zero_divisors, _cosets_in_alpha_preimage),
            ),
        ),
        _mk(
            "T20", ri,
            "primeness is equivalent to the quotient having no nonzero "
            "zero divisors",
            (_COMM, _PROPER, _CSTAT),
            _iff(
                _absorbs("pair", _ideal),
                _inside(
                    "coset",
                    _quotient_zero_divisors,
                    lambda i: {quotient_ring(i.ring, i.ideal).ring.zero},
                ),
            ),
        ),
        _mk(
            "T21", rai,
            "alpha-primeness is equivalent to primeness of the image in the "
            "quotient by the kernel of alpha",
            (
                _COMM,
                ("kernel proper", h_kernel_proper),
                ("kernel inside ideal", h_kernel_inside_ideal),
                ("alpha preserves kernel", h_alpha_preserves_kernel),
                _PROPER,
            ),
            _iff(
                _absorbs("pair", _ideal, _alpha),
                Claim(_QUOTIENT_PAIRS.tags, _kernel_quotient_pair, _QUOTIENT_PAIRS.recheck),
            ),
        ),
        _mk(
            "T22", rai,
            "alpha-primeness is equivalent to the quotient being an "
            "alpha-star integral hyperdomain",
            (_COMM, _PROPER, _CSTAT, ("alpha preserves ideal", h_alpha_preserves_ideal)),
            _iff(_absorbs("pair", _ideal, _alpha), _INTEGRAL_QUOTIENT),
        ),
        _mk(
            "T23", KIND_HOM,
            "along a good epimorphism with a kernel-containment condition, "
            "alpha-primeness transfers to the image and back",
            (
                _COMM,
                ("map surjective", h_surjective),
                ("maps commute", h_commutes),
                _PROPER,
                ("image proper", h_image_proper),
                ("kernel containment (either reading)", h_kernel_containment_any),
            ),
            _with_readings(
                _iff(
                    _absorbs("pair", _ideal, _alpha),
                    _absorbs(
                        "image_pair",
                        lambda i: (i.hom.target, i.hom.image_of(i.ideal.elements)),
                        lambda i: i.alpha_target,
                    ),
                )
            ),
        ),
        _mk(
            "T24", rai,
            "alpha-primeness passes to and from quotients by invariant "
            "subideals",
            (_COMM, _PROPER),
            Claim(("subideal",), _c24, _sized(4, _r24, (1, 3))),
        ),
        _mk(
            "T25", KIND_PRODUCT,
            "a factor ideal is alpha-prime exactly when its cylinder in the "
            "product is",
            (
                ("factors commutative", h_commutative),
                ("factors have identities", h_factors_identities),
                ("left ideal proper", h_left_ideal_proper),
            ),
            _iff(
                _absorbs(
                    "factor_pair",
                    lambda i: (i.product.left, i.left_ideal.elements),
                    lambda i: i.left_alpha,
                ),
                _absorbs("product_pair", _cylinder, _alpha),
            ),
        ),
        _mk(
            "T26", KIND_PRODUCT,
            "a box ideal is alpha-prime exactly when one side is full and "
            "the other alpha-prime",
            (
                ("factors commutative", h_commutative),
                ("factors have identities", h_factors_identities),
                ("alpha fixes factor identities", h_alpha_fixes_factor_identities),
                ("product ideal proper", h_product_ideal_proper),
            ),
            _iff(_absorbs("product_pair", _ideal, _alpha), _ONE_SIDE_FULL),
        ),
        _mk(
            "T27", ri,
            "the power-membership set sits inside the prime radical, with "
            "equality for C-hyperideals",
            (_COMM,),
            Claim(("subset_violation", "equality_violation"), _c27, _sized(2, _r27, ints=(1,))),
        ),
        _mk(
            "T28", ri,
            "the radical of a primary C-hyperideal is prime",
            (
                _COMM,
                ("ideal primary", h_primary),
                _CSTAT,
                ("radical proper", h_radical_proper),
            ),
            _ideal_absorbs(_radical),
        ),
    )


def catalog_ids() -> tuple:
    return tuple(c.tid for c in catalog())


# ---------------------------------------------------------------------------
# evaluation


def check(instance: Instance, theorem: TheoremCheck) -> VerdictReport:
    """Hypotheses first, in order; the conclusion only runs when all hold."""
    if instance.kind != theorem.signature:
        raise SignatureMismatch(
            f"{theorem.tid} needs a {theorem.signature} instance, got {instance.kind}"
        )
    for i, (_name, fn) in enumerate(theorem.hypotheses):
        try:
            value = fn(instance)
        except CapExceeded:
            value = None
        if value is not True:
            status, hypotheses, witness = theorem.blocked[i][value is False]
            return VerdictReport(instance.uid, theorem.tid, status, hypotheses, witness, theorem.statement)
    met = theorem.met
    try:
        ok, witness = theorem.conclude(instance)
    except CapExceeded as exc:
        return VerdictReport(instance.uid, theorem.tid, STATUS_UNDECIDED, met, ("cap", str(exc)), theorem.statement)
    if ok is None:
        return VerdictReport(instance.uid, theorem.tid, STATUS_UNDECIDED, met, witness, theorem.statement)
    if ok:
        return VerdictReport(instance.uid, theorem.tid, STATUS_HOLDS, met, None, theorem.statement)
    if not theorem.recheck(instance, witness):
        raise ConsistencyError(
            f"{theorem.tid} witness {witness!r} does not re-verify on {instance.uid}"
        )
    return VerdictReport(instance.uid, theorem.tid, STATUS_FAILS, met, witness, theorem.statement)


def reverify_witness(instance: Instance, theorem: TheoremCheck, witness) -> bool:
    """Plug a fails-witness back into the violated predicate."""
    return bool(theorem.recheck(instance, witness))


def iter_suite(corpus, selection=None):
    """Evaluate every selected check on every instance of matching kind, lazily.

    Records appear in corpus order, catalog order within an instance;
    pairs whose instance does not carry the check's components are
    skipped as inapplicable.  Output is deterministic for a fixed corpus.
    ``selection`` is checked here, so unknown ids raise ``ValueError``
    before any record is produced.
    """
    checks = catalog()
    if selection is not None:
        wanted = set(selection)
        unknown = wanted - set(catalog_ids())
        if unknown:
            raise ValueError(f"unknown theorem ids: {sorted(unknown)}")
        checks = tuple(c for c in checks if c.tid in wanted)
    return (
        check(instance, theorem)
        for instance in corpus
        for theorem in checks
        if instance.kind == theorem.signature
    )


def run_suite(corpus, selection=None):
    """Every record of :func:`iter_suite`, as a list."""
    return list(iter_suite(corpus, selection))


# ---------------------------------------------------------------------------
# report rendering


def _json_witness(witness):
    if witness is None:
        return None
    if isinstance(witness, (tuple, list)):
        return [_json_witness(w) for w in witness]
    if isinstance(witness, frozenset):
        return sorted(witness)
    return witness


def report_record(verdict: VerdictReport) -> dict:
    return {
        "instance": verdict.instance,
        "theorem": verdict.theorem,
        "status": verdict.status,
        "hypotheses": [{"name": n, "met": m} for n, m in verdict.hypotheses],
        "witness": _json_witness(verdict.witness),
        "anchors": verdict.statement,
    }


def write_report(verdicts, handle) -> None:
    """Write the report document to ``handle`` one record at a time.

    The document is one stable JSON array of fixed-field-order records,
    one per line.  ``verdicts`` may be a one-shot iterable: no record is
    kept after it is written.  The fields that depend only on (theorem,
    status, hypotheses, statement) are encoded once per call, together with
    the witness when it is None or names a hypothesis, as in most records.
    A uid is encoded once per run of its records.
    """
    written = False
    fragments = {}
    uid = object()
    for verdict in verdicts:
        handle.write(",\n" if written else "[\n")
        if verdict.instance != uid:
            uid = verdict.instance
            head = '{"instance": ' + json.dumps(uid)
        witness = verdict.witness
        shared = witness is None or (isinstance(witness, tuple) and len(witness) == 2
                                     and witness[0] == "hypothesis" and isinstance(witness[1], str))
        key = (verdict.theorem, verdict.status, verdict.hypotheses, verdict.statement,
               witness if shared else ...)
        if key not in fragments:
            fields = json.dumps(report_record(verdict), separators=(", ", ": "))
            anchors = fields.rindex(', "anchors": ')
            cut = anchors if shared else fields.index(', "witness": ') + len(', "witness": ')
            fragments[key] = (fields[fields.index(', "theorem": '):cut], fields[anchors:])
        middle, tail = fragments[key]
        handle.write(head + middle + ("" if shared else json.dumps(_json_witness(witness))) + tail)
        written = True
    handle.write("\n]\n" if written else "[]\n")


def render_report(verdicts) -> str:
    """The report document of :func:`write_report`, as a string."""
    buffer = io.StringIO()
    write_report(verdicts, buffer)
    return buffer.getvalue()


def summarize(verdicts) -> dict:
    counts = {
        STATUS_HOLDS: 0,
        STATUS_FAILS: 0,
        STATUS_NOT_MET: 0,
        STATUS_UNDECIDED: 0,
    }
    for v in verdicts:
        counts[v.status] += 1
    return counts


# ---------------------------------------------------------------------------
# known-discrepancy ledger


@dataclass(frozen=True)
class LedgerEntry:
    theorem: str
    reason: str


KNOWN_DISCREPANCIES = (
    LedgerEntry(
        "T04",
        "the maximality argument needs the enlarged ideal to stay proper, "
        "which fails for degenerate endomorphisms",
    ),
    LedgerEntry(
        "T11",
        "kernel containment is derived from the preimage transfer in a "
        "direction that fails for non-injective endomorphisms",
    ),
    LedgerEntry(
        "T13",
        "one inclusion rests on the kernel containment above and fails for "
        "degenerate maps and for rings whose zero ideal is not a "
        "C-hyperideal (an element can be nilpotent through a fat power set "
        "that never collapses into the zero ideal)",
    ),
    LedgerEntry(
        "T21",
        "the image of the ideal in the quotient by the kernel can lose "
        "primeness when alpha collapses the complement of the ideal",
    ),
    LedgerEntry(
        "P03",
        "the claimed alpha-primeness of the even ideal fails on the "
        "residue surrogate: the pair (1,1) violates it",
    ),
)


def ledgered_theorems() -> frozenset:
    return frozenset(entry.theorem for entry in KNOWN_DISCREPANCIES)


def unledgered_failures(verdicts) -> list:
    allowed = ledgered_theorems()
    return [
        v for v in verdicts if v.status == STATUS_FAILS and v.theorem not in allowed
    ]
