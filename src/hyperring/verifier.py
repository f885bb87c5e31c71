"""Catalog of verification properties and the machinery to run them.

Each catalog entry packages named hypotheses and a conclusion over one
instance (a ring with whatever ideals/endomorphisms/maps the entry
consumes).  Hypotheses the source statements leave implicit (properness
of derived ideals, zero absorption wherever a radical appears, identity
fixing for the product biconditional) are materialized as named
hypotheses so "fails" always means the conclusion itself failed.

Verdicts are deterministic: witnesses are the first violation in
canonical element order and every fails verdict can be re-verified by
plugging the witness back into the violated predicate.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    FLAVOR_NONE,
    FLAVOR_SCALAR,
    HyperRing,
    identity_flavor_at,
    memoized,
    power_orbit,
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
    alpha_integral_violation,
    alpha_prime_violation,
    alpha_radical,
    alpha_nilradical,
    as_hyperideal,
    enumerate_hyperideals,
    hyperideal_violation,
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
    """A decidable (hypotheses, conclusion) pair over one instance kind."""

    tid: str
    signature: str
    statement: str
    hypotheses: tuple
    conclude: object
    recheck: object = None


@dataclass(frozen=True)
class VerdictReport:
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


def _alpha_prime_intersection(ring: HyperRing, alpha: Homomorphism) -> frozenset:
    sets = _alpha_prime_proper_sets(ring, alpha)
    if not sets:
        return ring.carrier_set()
    return frozenset.intersection(*sets)


@memoized
def _ideal_pairs(ring: HyperRing) -> tuple:
    """(L, R, L o R, L + R, L & R) for every ordered pair of hyperideals.

    Equal sets share one object; sums and meets of ideals are ideals, so
    the ideals' own sets cover them.
    """
    ideals = [i.elements for i in enumerate_hyperideals(ring)]
    shared = {s: s for s in ideals}

    def intern(s):
        return shared.setdefault(s, s)

    return tuple(
        (ea, eb, intern(set_product(ring, ea, eb)), intern(set_sum(ring, ea, eb)), intern(ea & eb))
        for ea in ideals
        for eb in ideals
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


def _violation_element(sub: frozenset, sup: frozenset):
    """Smallest element of sub outside sup, if any."""
    out = sorted(sub - sup)
    return out[0] if out else None


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


def h_c_ideal(inst):
    status = inst.ideal.c_status
    if status == C_YES:
        return True
    if status == C_NO:
        return False
    return None


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
    status = zero_ideal(inst.ring).c_status
    if status == C_YES:
        return True
    if status == C_NO:
        return False
    return None


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
# conclusions (return (ok_or_None, witness))


def _c01(inst):
    els = inst.ideal.elements
    amap = inst.alpha.map
    for x in sorted(els):
        if amap[x] not in els:
            return False, ("element", x)
    return True, None


def _r01(inst, witness):
    x = witness[1]
    return x in inst.ideal.elements and inst.alpha.map[x] not in inst.ideal.elements


def _c02(inst):
    inter, _d, _c = radical_detail(inst.ring, inst.ideal.elements)
    bad = hyperideal_violation(inst.ring, inter)
    if bad is not None:
        return False, ("not_hyperideal", bad)
    root = as_hyperideal(inst.ring, inter)
    pair = alpha_prime_violation(inst.ring, root, inst.alpha)
    if pair is not None:
        return False, ("pair", pair[0], pair[1])
    return True, None


def _r02(inst, witness):
    inter, _d, _c = radical_detail(inst.ring, inst.ideal.elements)
    if witness[0] == "not_hyperideal":
        return hyperideal_violation(inst.ring, inter) is not None
    _tag, x, y = witness
    amap = inst.alpha.map
    return inst.ring.product_of(x, y) <= inter and x not in inter and amap[y] not in inter


def _c03(inst):
    ring, ideal, alpha = inst.ring, inst.ideal, inst.alpha
    pre = alpha.preimage_of(ideal.elements)
    bad = hyperideal_violation(ring, pre)
    if bad is not None:
        return False, ("not_hyperideal", bad)
    e_ideal = as_hyperideal(ring, pre)
    pair = alpha_prime_violation(ring, e_ideal, alpha)
    if pair is not None:
        return False, ("pair", pair[0], pair[1])
    if ring.props.identity is not None and ideal.c_status == C_YES:
        missing = _violation_element(ideal.elements, pre)
        if missing is not None:
            return False, ("not_contained", missing)
    return True, None


def _r03(inst, witness):
    pre = inst.alpha.preimage_of(inst.ideal.elements)
    if witness[0] == "not_hyperideal":
        return hyperideal_violation(inst.ring, pre) is not None
    if witness[0] == "not_contained":
        return witness[1] in inst.ideal.elements and witness[1] not in pre
    _tag, x, y = witness
    amap = inst.alpha.map
    return inst.ring.product_of(x, y) <= pre and x not in pre and amap[y] not in pre


def _c04(inst):
    pair = prime_violation(inst.ring, inst.ideal)
    if pair is not None:
        return False, ("pair", pair[0], pair[1])
    return True, None


def _r04(inst, witness):
    _tag, x, y = witness
    els = inst.ideal.elements
    return inst.ring.product_of(x, y) <= els and x not in els and y not in els


def _c05(inst):
    ring, ideal, alpha = inst.ring, inst.ideal, inst.alpha
    els = ideal.elements
    amap = alpha.map
    lhs_pair = alpha_prime_violation(ring, ideal, alpha)
    rhs_witness = None
    for left, right, prod, _sum, _meet in _ideal_pairs(ring):
        if prod <= els and not left <= els and not all(amap[y] in els for y in right):
            rhs_witness = ("ideal_pair", tuple(sorted(left)), tuple(sorted(right)))
            break
    lhs = lhs_pair is None
    rhs = rhs_witness is None
    if lhs == rhs:
        return True, None
    if lhs and not rhs:
        return False, rhs_witness
    return False, ("pair", lhs_pair[0], lhs_pair[1])


def _r05(inst, witness):
    ring, els, amap = inst.ring, inst.ideal.elements, inst.alpha.map
    if witness[0] == "ideal_pair":
        left = frozenset(witness[1])
        right = frozenset(witness[2])
        return (
            set_product(ring, left, right) <= els
            and not left <= els
            and not frozenset(amap[y] for y in right) <= els
        )
    _tag, x, y = witness
    return ring.product_of(x, y) <= els and x not in els and amap[y] not in els


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
    """
    try:
        known = {i.elements: i for i in enumerate_hyperideals(ring)}
    except CapExceeded:
        known = {}
    family = [frozenset((s,)) for s in range(ring.order)] + [elements, ring.carrier_set()]
    found = {}
    for subset in family:
        res = _colon_elements(ring, elements, subset)
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
    res = _colon_elements(inst.ring, inst.ideal.elements, frozenset(subset))
    amap = inst.alpha.map
    return inst.ring.product_of(x, y) <= res and x not in res and amap[y] not in res


def _c07(inst):
    ring, els, amap = inst.ring, inst.ideal.elements, inst.alpha.map
    for x in range(ring.order):
        if amap[x] in els:
            continue
        if any(p <= els for p in power_orbit(ring, x)):
            return False, ("element", x)
    return True, None


def _r07(inst, witness):
    x = witness[1]
    els = inst.ideal.elements
    return (
        any(p <= els for p in power_orbit(inst.ring, x))
        and inst.alpha.map[x] not in els
    )


def _c08(inst):
    ring, els, amap = inst.ring, inst.ideal.elements, inst.alpha.map
    for y in range(ring.order):
        if amap[amap[y]] in els:
            continue
        if any(p <= els for p in power_orbit(ring, amap[y])):
            return False, ("element", y)
    return True, None


def _r08(inst, witness):
    y = witness[1]
    els = inst.ideal.elements
    amap = inst.alpha.map
    return (
        any(p <= els for p in power_orbit(inst.ring, amap[y]))
        and amap[amap[y]] not in els
    )


def _c09(inst):
    nil = alpha_nilradical(inst.ring, inst.alpha)
    bad = hyperideal_violation(inst.ring, nil)
    if bad is not None:
        return False, ("not_hyperideal", bad)
    return True, None


def _r09(inst, witness):
    nil = alpha_nilradical(inst.ring, inst.alpha)
    return hyperideal_violation(inst.ring, nil) is not None


def _c10(inst):
    f = inst.hom
    src = inst.ring
    pre = f.preimage_of(inst.ideal_target.elements)
    bad = hyperideal_violation(src, pre)
    if bad is not None:
        return False, ("not_hyperideal", bad)
    pre_ideal = as_hyperideal(src, pre)
    pair = alpha_prime_violation(src, pre_ideal, inst.alpha)
    if pair is not None:
        return False, ("pair", pair[0], pair[1])
    return True, None


def _r10(inst, witness):
    pre = inst.hom.preimage_of(inst.ideal_target.elements)
    if witness[0] == "not_hyperideal":
        return hyperideal_violation(inst.ring, pre) is not None
    _tag, x, y = witness
    amap = inst.alpha.map
    return inst.ring.product_of(x, y) <= pre and x not in pre and amap[y] not in pre


def _c11(inst):
    ker = kernel(inst.alpha)
    inter = _alpha_prime_intersection(inst.ring, inst.alpha)
    x = _violation_element(ker.elements, inter)
    if x is not None:
        return False, ("element", x)
    return True, None


def _r11(inst, witness):
    x = witness[1]
    if x not in kernel(inst.alpha).elements:
        return False
    for ideal in enumerate_hyperideals(inst.ring):
        if (
            ideal.proper
            and alpha_prime_violation(inst.ring, ideal, inst.alpha) is None
            and x not in ideal.elements
        ):
            return True
    return False


def _c12(inst):
    ker = kernel(inst.alpha)
    pair = prime_violation(inst.ring, ker)
    if pair is not None:
        return False, ("pair", pair[0], pair[1])
    return True, None


def _r12(inst, witness):
    _tag, x, y = witness
    ker = kernel(inst.alpha).elements
    return inst.ring.product_of(x, y) <= ker and x not in ker and y not in ker


def _c13(inst):
    nil = alpha_nilradical(inst.ring, inst.alpha)
    inter = _alpha_prime_intersection(inst.ring, inst.alpha)
    if nil != inter:
        diff = sorted(nil.symmetric_difference(inter))
        return False, ("element", diff[0])
    return True, None


def _r13(inst, witness):
    x = witness[1]
    nil = alpha_nilradical(inst.ring, inst.alpha)
    inter = _alpha_prime_intersection(inst.ring, inst.alpha)
    return (x in nil) != (x in inter)


def _c14(inst):
    ring, alpha = inst.ring, inst.alpha
    nil = alpha_nilradical(ring, alpha)
    rad = alpha_radical(ring, zero_ideal(ring).elements, alpha)
    missing = _violation_element(nil, rad)
    if missing is not None:
        return False, ("subset_violation", missing)
    if nil != rad:
        extra = _violation_element(rad, nil)
        return False, ("equality_violation", extra)
    return True, None


def _r14(inst, witness):
    nil = alpha_nilradical(inst.ring, inst.alpha)
    rad = alpha_radical(inst.ring, zero_ideal(inst.ring).elements, inst.alpha)
    x = witness[1]
    if witness[0] == "subset_violation":
        return x in nil and x not in rad
    return (x in nil) != (x in rad)


def _c15(inst):
    ring, alpha = inst.ring, inst.alpha
    radicals = {}

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
            if not rad(plus) <= rad(set_sum(ring, ra, rb)):
                return False, ("sum_law", tuple(sorted(ea)), tuple(sorted(eb)))
    return True, None


def _r15(inst, witness):
    ring, alpha = inst.ring, inst.alpha
    law, ea, eb = witness
    ea, eb = frozenset(ea), frozenset(eb)
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


def _c16(inst):
    ring, alpha = inst.ring, inst.alpha
    els = inst.ideal.elements
    rad = alpha_radical(ring, els, alpha)
    full = ring.order
    if (len(rad) == full) != (len(els) == full):
        return False, ("fullness", tuple(sorted(els)))
    if inst.ideal.proper and alpha_prime_violation(ring, inst.ideal, alpha) is None:
        seen = set()
        acc = els
        while acc not in seen:
            seen.add(acc)
            if alpha_radical(ring, acc, alpha) != rad:
                return False, ("power_radical", tuple(sorted(acc)))
            acc = set_product(ring, acc, els)
    return True, None


def _r16(inst, witness):
    ring, alpha = inst.ring, inst.alpha
    els = inst.ideal.elements
    if witness[0] == "fullness":
        rad = alpha_radical(ring, els, alpha)
        return (len(rad) == ring.order) != (len(els) == ring.order)
    power = frozenset(witness[1])
    return alpha_radical(ring, power, alpha) != alpha_radical(ring, els, alpha)


def _c17(inst):
    f = inst.hom
    src, tgt = f.source, f.target
    a_src, a_tgt = inst.alpha, inst.alpha_target
    i1 = inst.ideal.elements
    i2 = inst.ideal_target.elements
    rad_i1 = alpha_radical(src, i1, a_src)
    f_i1 = f.image_of(i1)
    rad_f_i1 = alpha_radical(tgt, f_i1, a_tgt)
    bad = _violation_element(f.image_of(rad_i1), rad_f_i1)
    if bad is not None:
        return False, ("image_law", bad)
    pre_i2 = f.preimage_of(i2)
    rad_pre = alpha_radical(src, pre_i2, a_src)
    pre_rad = f.preimage_of(alpha_radical(tgt, i2, a_tgt))
    bad = _violation_element(rad_pre, pre_rad)
    if bad is not None:
        return False, ("preimage_law", bad)
    if f.is_surjective and f.is_injective:
        if f.image_of(rad_i1) != rad_f_i1:
            extra = _violation_element(rad_f_i1, f.image_of(rad_i1))
            return False, ("iso_equality", extra)
    return True, None


def _r17(inst, witness):
    f = inst.hom
    src, tgt = f.source, f.target
    tag, x = witness
    if tag == "image_law":
        rad_i1 = alpha_radical(src, inst.ideal.elements, inst.alpha)
        rad_f = alpha_radical(tgt, f.image_of(inst.ideal.elements), inst.alpha_target)
        return x in f.image_of(rad_i1) and x not in rad_f
    if tag == "preimage_law":
        rad_pre = alpha_radical(src, f.preimage_of(inst.ideal_target.elements), inst.alpha)
        pre_rad = f.preimage_of(alpha_radical(tgt, inst.ideal_target.elements, inst.alpha_target))
        return x in rad_pre and x not in pre_rad
    rad_i1 = alpha_radical(src, inst.ideal.elements, inst.alpha)
    rad_f = alpha_radical(tgt, f.image_of(inst.ideal.elements), inst.alpha_target)
    return x in rad_f and x not in f.image_of(rad_i1)


def _c18(inst):
    ring, alpha = inst.ring, inst.alpha
    rad = alpha_radical(ring, inst.ideal.elements, alpha)
    bad = hyperideal_violation(ring, rad)
    if bad is not None:
        return False, ("not_hyperideal", bad)
    root = as_hyperideal(ring, rad)
    pair = alpha_prime_violation(ring, root, alpha)
    if pair is not None:
        return False, ("pair", pair[0], pair[1])
    return True, None


def _r18(inst, witness):
    rad = alpha_radical(inst.ring, inst.ideal.elements, inst.alpha)
    if witness[0] == "not_hyperideal":
        return hyperideal_violation(inst.ring, rad) is not None
    _tag, x, y = witness
    amap = inst.alpha.map
    return inst.ring.product_of(x, y) <= rad and x not in rad and amap[y] not in rad


def _t19_rhs_violation(inst):
    quotient = quotient_ring(inst.ring, inst.ideal)
    amap = inst.alpha.map
    els = inst.ideal.elements
    for c in sorted(zero_divisors(quotient.ring)):
        members = quotient.cosets[c]
        if not all(amap[x] in els for x in members):
            return c
    return None


def _c19(inst):
    lhs_pair = alpha_prime_violation(inst.ring, inst.ideal, inst.alpha)
    rhs_coset = _t19_rhs_violation(inst)
    lhs = lhs_pair is None
    rhs = rhs_coset is None
    if lhs == rhs:
        return True, None
    if lhs:
        return False, ("coset", rhs_coset)
    return False, ("pair", lhs_pair[0], lhs_pair[1])


def _r19(inst, witness):
    if witness[0] == "coset":
        c = witness[1]
        quotient = quotient_ring(inst.ring, inst.ideal)
        if c not in zero_divisors(quotient.ring):
            return False
        amap = inst.alpha.map
        els = inst.ideal.elements
        bad_rep = any(amap[x] not in els for x in quotient.cosets[c])
        return bad_rep and alpha_prime_violation(inst.ring, inst.ideal, inst.alpha) is None
    _tag, x, y = witness
    els = inst.ideal.elements
    amap = inst.alpha.map
    return (
        inst.ring.product_of(x, y) <= els
        and x not in els
        and amap[y] not in els
        and _t19_rhs_violation(inst) is None
    )


def _t20_rhs_violation(inst):
    quotient = quotient_ring(inst.ring, inst.ideal)
    zero_c = quotient.ring.zero
    zds = sorted(c for c in zero_divisors(quotient.ring) if c != zero_c)
    return zds[0] if zds else None


def _c20(inst):
    lhs_pair = prime_violation(inst.ring, inst.ideal)
    rhs_coset = _t20_rhs_violation(inst)
    lhs = lhs_pair is None
    rhs = rhs_coset is None
    if lhs == rhs:
        return True, None
    if lhs:
        return False, ("coset", rhs_coset)
    return False, ("pair", lhs_pair[0], lhs_pair[1])


def _r20(inst, witness):
    if witness[0] == "coset":
        c = witness[1]
        quotient = quotient_ring(inst.ring, inst.ideal)
        return (
            c != quotient.ring.zero
            and c in zero_divisors(quotient.ring)
            and prime_violation(inst.ring, inst.ideal) is None
        )
    _tag, x, y = witness
    els = inst.ideal.elements
    return (
        inst.ring.product_of(x, y) <= els
        and x not in els
        and y not in els
        and _t20_rhs_violation(inst) is None
    )


def _c21(inst):
    ring, alpha = inst.ring, inst.alpha
    ker = kernel(alpha)
    quotient = quotient_ring(ring, ker)
    image = _quotient_image(quotient, inst.ideal.elements)
    lhs_pair = alpha_prime_violation(ring, inst.ideal, alpha)
    rhs_pair = prime_violation(quotient.ring, image)
    lhs = lhs_pair is None
    rhs = rhs_pair is None
    if lhs == rhs:
        return True, None
    if lhs:
        return False, ("quotient_pair", rhs_pair[0], rhs_pair[1])
    return False, ("pair", lhs_pair[0], lhs_pair[1])


def _r21(inst, witness):
    ring, alpha = inst.ring, inst.alpha
    ker = kernel(alpha)
    quotient = quotient_ring(ring, ker)
    image = _quotient_image(quotient, inst.ideal.elements).elements
    if witness[0] == "quotient_pair":
        _tag, x, y = witness
        return (
            quotient.ring.product_of(x, y) <= image
            and x not in image
            and y not in image
            and alpha_prime_violation(ring, inst.ideal, alpha) is None
        )
    _tag, x, y = witness
    els = inst.ideal.elements
    amap = alpha.map
    return (
        ring.product_of(x, y) <= els
        and x not in els
        and amap[y] not in els
        and prime_violation(quotient.ring, _quotient_image(quotient, els)) is None
    )


def _c22(inst):
    ring, alpha = inst.ring, inst.alpha
    quotient = quotient_ring(ring, inst.ideal)
    star = induced_quotient_endo(quotient, alpha)
    lhs_pair = alpha_prime_violation(ring, inst.ideal, alpha)
    rhs_pair = alpha_integral_violation(quotient.ring, star)
    lhs = lhs_pair is None
    rhs = rhs_pair is None
    if lhs == rhs:
        return True, None
    if lhs:
        return False, ("quotient_pair", rhs_pair[0], rhs_pair[1])
    return False, ("pair", lhs_pair[0], lhs_pair[1])


def _r22(inst, witness):
    ring, alpha = inst.ring, inst.alpha
    quotient = quotient_ring(ring, inst.ideal)
    star = induced_quotient_endo(quotient, alpha)
    if witness[0] == "quotient_pair":
        _tag, x, y = witness
        zero_c = quotient.ring.zero
        return (
            zero_c in quotient.ring.product_of(x, y)
            and x != zero_c
            and star.map[y] != zero_c
            and alpha_prime_violation(ring, inst.ideal, alpha) is None
        )
    _tag, x, y = witness
    els = inst.ideal.elements
    amap = alpha.map
    return (
        ring.product_of(x, y) <= els
        and x not in els
        and amap[y] not in els
        and alpha_integral_violation(quotient.ring, star) is None
    )


def _t23_sides(inst):
    f = inst.hom
    src, tgt = f.source, f.target
    image = as_hyperideal(tgt, f.image_of(inst.ideal.elements))
    lhs_pair = alpha_prime_violation(src, inst.ideal, inst.alpha)
    rhs_pair = alpha_prime_violation(tgt, image, inst.alpha_target)
    return lhs_pair, rhs_pair


def _c23(inst):
    els = inst.ideal.elements
    readings = []
    if kernel(inst.alpha).elements <= els:
        readings.append("kernel_of_alpha")
    if kernel(inst.hom).elements <= els:
        readings.append("kernel_of_map")
    lhs_pair, rhs_pair = _t23_sides(inst)
    lhs = lhs_pair is None
    rhs = rhs_pair is None
    if lhs == rhs:
        return True, None
    pair = rhs_pair if lhs else lhs_pair
    side = "image_pair" if lhs else "pair"
    return False, ("readings", tuple(readings), side, pair[0], pair[1])


def _r23(inst, witness):
    _tag, _readings, side, x, y = witness
    f = inst.hom
    if side == "image_pair":
        image = f.image_of(inst.ideal.elements)
        amap = inst.alpha_target.map
        return (
            f.target.product_of(x, y) <= image
            and x not in image
            and amap[y] not in image
        )
    els = inst.ideal.elements
    amap = inst.alpha.map
    return inst.ring.product_of(x, y) <= els and x not in els and amap[y] not in els


def _c24(inst):
    ring, alpha = inst.ring, inst.alpha
    els = inst.ideal.elements
    lhs_pair = alpha_prime_violation(ring, inst.ideal, alpha)
    lhs = lhs_pair is None
    for sub in enumerate_hyperideals(ring):
        if not sub.proper or not sub.elements <= els:
            continue
        if not _alpha_invariant(alpha, sub.elements):
            continue
        quotient = quotient_ring(ring, sub)
        star = induced_quotient_endo(quotient, alpha)
        image = _quotient_image(quotient, els)
        rhs_pair = alpha_prime_violation(quotient.ring, image, star)
        rhs = rhs_pair is None
        if lhs != rhs:
            return False, (
                "subideal",
                tuple(sorted(sub.elements)),
                "quotient_pair" if lhs else "pair",
                rhs_pair if lhs else lhs_pair,
            )
    return True, None


def _r24(inst, witness):
    _tag, sub_els, side, pair = witness
    ring, alpha = inst.ring, inst.alpha
    sub = as_hyperideal(ring, frozenset(sub_els))
    quotient = quotient_ring(ring, sub)
    star = induced_quotient_endo(quotient, alpha)
    image = _quotient_image(quotient, inst.ideal.elements).elements
    x, y = pair
    if side == "quotient_pair":
        return (
            quotient.ring.product_of(x, y) <= image
            and x not in image
            and star.map[y] not in image
        )
    els = inst.ideal.elements
    amap = alpha.map
    return ring.product_of(x, y) <= els and x not in els and amap[y] not in els


def _c25(inst):
    product = inst.product
    left = product.left
    lhs = alpha_prime_violation(left, inst.left_ideal, inst.left_alpha) is None
    lifted = product_ideal(
        product, inst.left_ideal.elements, product.right.carrier_set()
    )
    rhs_pair = alpha_prime_violation(product.ring, lifted, inst.alpha)
    rhs = rhs_pair is None
    if lhs == rhs:
        return True, None
    if rhs_pair is not None:
        return False, ("product_pair", rhs_pair[0], rhs_pair[1])
    pair = alpha_prime_violation(left, inst.left_ideal, inst.left_alpha)
    return False, ("factor_pair", pair[0], pair[1])


def _r25(inst, witness):
    product = inst.product
    tag, x, y = witness
    if tag == "product_pair":
        lifted = product_ideal(
            product, inst.left_ideal.elements, product.right.carrier_set()
        ).elements
        amap = inst.alpha.map
        return (
            product.ring.product_of(x, y) <= lifted
            and x not in lifted
            and amap[y] not in lifted
        )
    els = inst.left_ideal.elements
    amap = inst.left_alpha.map
    return (
        product.left.product_of(x, y) <= els and x not in els and amap[y] not in els
    )


def _t26_rhs(inst):
    product = inst.product
    left_full = not inst.left_ideal.proper
    right_full = not inst.right_ideal.proper
    case_a = (
        left_full
        and inst.right_ideal.proper
        and alpha_prime_violation(product.right, inst.right_ideal, inst.right_alpha) is None
    )
    case_b = (
        right_full
        and inst.left_ideal.proper
        and alpha_prime_violation(product.left, inst.left_ideal, inst.left_alpha) is None
    )
    return case_a or case_b


def _c26(inst):
    product = inst.product
    lhs_pair = alpha_prime_violation(product.ring, inst.ideal, inst.alpha)
    lhs = lhs_pair is None
    rhs = _t26_rhs(inst)
    if lhs == rhs:
        return True, None
    if lhs:
        return False, ("sides", "product_prime_but_factors_not")
    return False, ("product_pair", lhs_pair[0], lhs_pair[1])


def _r26(inst, witness):
    if witness[0] == "sides":
        return (
            alpha_prime_violation(inst.product.ring, inst.ideal, inst.alpha) is None
            and not _t26_rhs(inst)
        )
    _tag, x, y = witness
    els = inst.ideal.elements
    amap = inst.alpha.map
    return (
        inst.product.ring.product_of(x, y) <= els
        and x not in els
        and amap[y] not in els
        and _t26_rhs(inst)
    )


def _c27(inst):
    inter, d, c = radical_detail(inst.ring, inst.ideal.elements)
    missing = _violation_element(d, inter)
    if missing is not None:
        return False, ("subset_violation", missing)
    if d == inter:
        return True, None
    if c == C_YES:
        return False, ("equality_violation", _violation_element(inter, d))
    if c == C_NO:
        return True, None
    return None, ("cap", "product-set closure capped; C-status unknown")


def _r27(inst, witness):
    inter, d, _c = radical_detail(inst.ring, inst.ideal.elements)
    x = witness[1]
    if witness[0] == "subset_violation":
        return x in d and x not in inter
    return (x in inter) != (x in d)


def _c28(inst):
    inter, _d, _c = radical_detail(inst.ring, inst.ideal.elements)
    bad = hyperideal_violation(inst.ring, inter)
    if bad is not None:
        return False, ("not_hyperideal", bad)
    root = as_hyperideal(inst.ring, inter)
    pair = prime_violation(inst.ring, root)
    if pair is not None:
        return False, ("pair", pair[0], pair[1])
    return True, None


def _r28(inst, witness):
    inter, _d, _c = radical_detail(inst.ring, inst.ideal.elements)
    if witness[0] == "not_hyperideal":
        return hyperideal_violation(inst.ring, inter) is not None
    _tag, x, y = witness
    return inst.ring.product_of(x, y) <= inter and x not in inter and y not in inter


# ---------------------------------------------------------------------------
# the catalog


def _mk(tid, sig, statement, hyps, conclude, recheck):
    return TheoremCheck(
        tid=tid,
        signature=sig,
        statement=statement,
        hypotheses=tuple(hyps),
        conclude=conclude,
        recheck=recheck,
    )


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
            _c01, _r01,
        ),
        _mk(
            "T02", rai,
            "the prime radical of an alpha-prime C-hyperideal is alpha-prime",
            (_COMM, _PROPER, _APRIME, _CSTAT, ("radical proper", h_radical_proper)),
            _c02, _r02,
        ),
        _mk(
            "T03", rai,
            "the alpha-preimage of an alpha-prime hyperideal is alpha-prime "
            "(and contains it, given an identity and C-status)",
            (_COMM, _PROPER, _APRIME, ("alpha-preimage proper", h_alpha_preimage_proper)),
            _c03, _r03,
        ),
        _mk(
            "T04", rai,
            "an alpha-prime hyperideal maximal among alpha-invariant proper "
            "hyperideals is prime",
            (_COMM, _PROPER, _APRIME, ("maximal among alpha-invariant", h_invariance_maximal)),
            _c04, _r04,
        ),
        _mk(
            "T05", rai,
            "alpha-primeness is equivalent to the ideal-pair absorption law",
            (_COMM, _PROPER),
            _c05, _r05,
        ),
        _mk(
            "T06", rai,
            "every proper residual of an alpha-prime hyperideal is alpha-prime",
            (_COMM, _PROPER, _APRIME),
            _c06, _r06,
        ),
        _mk(
            "T07", rai,
            "powers falling into an alpha-prime C-hyperideal force the "
            "alpha-image of the base inside",
            (_COMM, _PROPER, _APRIME, _CSTAT),
            _c07, _r07,
        ),
        _mk(
            "T08", rai,
            "powers of alpha-images falling inside force the squared image in",
            (_COMM, _PROPER, _APRIME, _CSTAT),
            _c08, _r08,
        ),
        _mk(
            "T09", ra,
            "with a scalar identity, the alpha-nilradical is a hyperideal",
            (_COMM, ("ring has scalar identity", h_scalar_identity)),
            _c09, _r09,
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
            _c10, _r10,
        ),
        _mk(
            "T11", ra,
            "the kernel of alpha lies inside every alpha-prime hyperideal",
            (_COMM,),
            _c11, _r11,
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
            _c12, _r12,
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
            _c13, _r13,
        ),
        _mk(
            "T14", ra,
            "the alpha-nilradical equals the alpha-radical of the zero ideal",
            (_COMM, _ABSORB, ("zero ideal C-hyperideal", h_zero_ideal_c)),
            _c14, _r14,
        ),
        _mk(
            "T15", ra,
            "alpha-radicals are monotone and satisfy the sum and "
            "product/intersection laws",
            (_COMM, _ABSORB),
            _c15, _r15,
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
            _c16, _r16,
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
            _c17, _r17,
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
            _c18, _r18,
        ),
        _mk(
            "T19", rai,
            "alpha-primeness is equivalent to every zero-divisor coset of "
            "the quotient having its alpha-image inside the ideal",
            (_COMM, _PROPER, _CSTAT),
            _c19, _r19,
        ),
        _mk(
            "T20", ri,
            "primeness is equivalent to the quotient having no nonzero "
            "zero divisors",
            (_COMM, _PROPER, _CSTAT),
            _c20, _r20,
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
            _c21, _r21,
        ),
        _mk(
            "T22", rai,
            "alpha-primeness is equivalent to the quotient being an "
            "alpha-star integral hyperdomain",
            (_COMM, _PROPER, _CSTAT, ("alpha preserves ideal", h_alpha_preserves_ideal)),
            _c22, _r22,
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
            _c23, _r23,
        ),
        _mk(
            "T24", rai,
            "alpha-primeness passes to and from quotients by invariant "
            "subideals",
            (_COMM, _PROPER),
            _c24, _r24,
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
            _c25, _r25,
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
            _c26, _r26,
        ),
        _mk(
            "T27", ri,
            "the power-membership set sits inside the prime radical, with "
            "equality for C-hyperideals",
            (_COMM,),
            _c27, _r27,
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
            _c28, _r28,
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
    results = []
    blocker = None
    for name, fn in theorem.hypotheses:
        if blocker is not None:
            results.append((name, "skipped"))
            continue
        try:
            value = fn(instance)
        except CapExceeded:
            value = None
        if value is True:
            results.append((name, "true"))
        elif value is False:
            results.append((name, "false"))
            blocker = (STATUS_NOT_MET, name)
        else:
            results.append((name, "unknown"))
            blocker = (STATUS_UNDECIDED, name)
    if blocker is not None:
        status, name = blocker
        return VerdictReport(
            instance.uid, theorem.tid, status, tuple(results),
            ("hypothesis", name), theorem.statement,
        )
    try:
        ok, witness = theorem.conclude(instance)
    except CapExceeded as exc:
        return VerdictReport(
            instance.uid, theorem.tid, STATUS_UNDECIDED, tuple(results),
            ("cap", str(exc)), theorem.statement,
        )
    if ok is None:
        return VerdictReport(
            instance.uid, theorem.tid, STATUS_UNDECIDED, tuple(results),
            witness, theorem.statement,
        )
    if ok:
        return VerdictReport(
            instance.uid, theorem.tid, STATUS_HOLDS, tuple(results),
            None, theorem.statement,
        )
    return VerdictReport(
        instance.uid, theorem.tid, STATUS_FAILS, tuple(results),
        witness, theorem.statement,
    )


def reverify_witness(instance: Instance, theorem: TheoremCheck, witness) -> bool:
    """Plug a fails-witness back into the violated predicate."""
    if theorem.recheck is None:
        return False
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
    status, hypotheses, statement) are encoded once per call.
    """
    written = False
    fragments = {}
    for verdict in verdicts:
        handle.write(",\n" if written else "[\n")
        key = (verdict.theorem, verdict.status, verdict.hypotheses, verdict.statement)
        if key not in fragments:
            fields = json.dumps(report_record(verdict), separators=(", ", ": "))
            fragments[key] = (
                fields[fields.index(', "theorem": '):fields.index(', "witness": ')] + ', "witness": ',
                fields[fields.rindex(', "anchors": '):],
            )
        middle, tail = fragments[key]
        handle.write(f'{{"instance": {json.dumps(verdict.instance)}{middle}'
                     f'{json.dumps(_json_witness(verdict.witness))}{tail}')
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
