"""The per-theorem witness rechecks as they stood before the claims of
``hyperring.verifier`` replaced them, kept verbatim as a reference.

``test_witnesses`` compares the claims' rechecks with these on drawn
witnesses.  Several of them skip part of the violated predicate (T05,
T23, T24 and T25 ignore the other side of their biconditional), so for
those the claims may only be stricter.
"""

from hyperring.constructions import induced_quotient_endo, product_ideal, quotient_ring
from hyperring.core import power_orbit, set_product, set_sum
from hyperring.ideals import (
    alpha_integral_violation,
    alpha_nilradical,
    alpha_prime_violation,
    alpha_radical,
    as_hyperideal,
    enumerate_hyperideals,
    hyperideal_violation,
    prime_violation,
    radical_detail,
    zero_divisors,
    zero_ideal,
)
from hyperring.morphisms import kernel
from hyperring.verifier import _alpha_prime_proper_sets, _colon_elements, _quotient_image


def _alpha_prime_intersection(ring, alpha) -> frozenset:
    sets = _alpha_prime_proper_sets(ring, alpha)
    if not sets:
        return ring.carrier_set()
    return frozenset.intersection(*sets)


def _r01(inst, witness):
    x = witness[1]
    return x in inst.ideal.elements and inst.alpha.map[x] not in inst.ideal.elements


def _r02(inst, witness):
    inter, _d, _c = radical_detail(inst.ring, inst.ideal.elements)
    if witness[0] == "not_hyperideal":
        return hyperideal_violation(inst.ring, inter) is not None
    _tag, x, y = witness
    amap = inst.alpha.map
    return inst.ring.product_of(x, y) <= inter and x not in inter and amap[y] not in inter


def _r03(inst, witness):
    pre = inst.alpha.preimage_of(inst.ideal.elements)
    if witness[0] == "not_hyperideal":
        return hyperideal_violation(inst.ring, pre) is not None
    if witness[0] == "not_contained":
        return witness[1] in inst.ideal.elements and witness[1] not in pre
    _tag, x, y = witness
    amap = inst.alpha.map
    return inst.ring.product_of(x, y) <= pre and x not in pre and amap[y] not in pre


def _r04(inst, witness):
    _tag, x, y = witness
    els = inst.ideal.elements
    return inst.ring.product_of(x, y) <= els and x not in els and y not in els


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


def _r06(inst, witness):
    _tag, subset, x, y = witness
    res = _colon_elements(inst.ring, inst.ideal.elements, frozenset(subset))
    amap = inst.alpha.map
    return inst.ring.product_of(x, y) <= res and x not in res and amap[y] not in res


def _r07(inst, witness):
    x = witness[1]
    els = inst.ideal.elements
    return (
        any(p <= els for p in power_orbit(inst.ring, x))
        and inst.alpha.map[x] not in els
    )


def _r08(inst, witness):
    y = witness[1]
    els = inst.ideal.elements
    amap = inst.alpha.map
    return (
        any(p <= els for p in power_orbit(inst.ring, amap[y]))
        and amap[amap[y]] not in els
    )


def _r09(inst, witness):
    nil = alpha_nilradical(inst.ring, inst.alpha)
    return hyperideal_violation(inst.ring, nil) is not None


def _r10(inst, witness):
    pre = inst.hom.preimage_of(inst.ideal_target.elements)
    if witness[0] == "not_hyperideal":
        return hyperideal_violation(inst.ring, pre) is not None
    _tag, x, y = witness
    amap = inst.alpha.map
    return inst.ring.product_of(x, y) <= pre and x not in pre and amap[y] not in pre


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


def _r12(inst, witness):
    _tag, x, y = witness
    ker = kernel(inst.alpha).elements
    return inst.ring.product_of(x, y) <= ker and x not in ker and y not in ker


def _r13(inst, witness):
    x = witness[1]
    nil = alpha_nilradical(inst.ring, inst.alpha)
    inter = _alpha_prime_intersection(inst.ring, inst.alpha)
    return (x in nil) != (x in inter)


def _r14(inst, witness):
    nil = alpha_nilradical(inst.ring, inst.alpha)
    rad = alpha_radical(inst.ring, zero_ideal(inst.ring).elements, inst.alpha)
    x = witness[1]
    if witness[0] == "subset_violation":
        return x in nil and x not in rad
    return (x in nil) != (x in rad)


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


def _r16(inst, witness):
    ring, alpha = inst.ring, inst.alpha
    els = inst.ideal.elements
    if witness[0] == "fullness":
        rad = alpha_radical(ring, els, alpha)
        return (len(rad) == ring.order) != (len(els) == ring.order)
    power = frozenset(witness[1])
    return alpha_radical(ring, power, alpha) != alpha_radical(ring, els, alpha)


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


def _r27(inst, witness):
    inter, d, _c = radical_detail(inst.ring, inst.ideal.elements)
    x = witness[1]
    if witness[0] == "subset_violation":
        return x in d and x not in inter
    return (x in inter) != (x in d)


def _r28(inst, witness):
    inter, _d, _c = radical_detail(inst.ring, inst.ideal.elements)
    if witness[0] == "not_hyperideal":
        return hyperideal_violation(inst.ring, inter) is not None
    _tag, x, y = witness
    return inst.ring.product_of(x, y) <= inter and x not in inter and y not in inter
