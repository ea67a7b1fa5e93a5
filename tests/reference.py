"""Plain references that the tests check src against and that nothing at
runtime calls: ring arithmetic on gf.Poly, and the Hartmann-Tzeng search
over every inner step m2.

The polynomial operations are functions rather than a Poly subclass: the
frozen dataclass compares equal only within one class, so a subclass
instance would never equal a Poly returned by src.
"""

import math

from cycbound import cyclic
from cycbound.gf import FieldMismatch, Poly


def _same_field(a: Poly, b: Poly):
    if a.field is not b.field:
        raise FieldMismatch("polynomials over different field contexts")
    return a.field


def pone(field) -> Poly:
    return Poly(field, (1,))


def padd(a: Poly, b: Poly) -> Poly:
    f = _same_field(a, b)
    x, y = a.coeffs, b.coeffs
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] = f.add(out[i], c)
    return Poly(f, out)


def pneg(a: Poly) -> Poly:
    return Poly(a.field, [a.field.neg(c) for c in a.coeffs])


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, pneg(b))


def pmul(a: Poly, b: Poly) -> Poly:
    f = _same_field(a, b)
    if a.is_zero() or b.is_zero():
        return Poly.zero(f)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return Poly(f, out)


def pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(quotient, remainder) by schoolbook long division."""
    f = _same_field(a, b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a.coeffs)
    dd = b.degree
    lead_inv = f.inv(b.coeffs[-1])
    quo = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1 - dd, -1, -1):
        qc = f.mul(rem[i + dd], lead_inv)
        quo[i] = qc
        for j, c in enumerate(b.coeffs):
            rem[i + j] = f.sub(rem[i + j], f.mul(qc, c))
    return Poly(f, quo), Poly(f, rem)


def pmod(a: Poly, b: Poly) -> Poly:
    return pdivmod(a, b)[1]


def ht_every_m2(spec) -> cyclic.HtWitness:
    """The best HT template over the full (m1, m2) family, m2 every unit:
    cyclic.ht_bound searches m2 = 1 only, and the full family can be
    stronger.  Ties go to the smallest nu, b1, m1 and then m2."""
    n = spec.n
    if not spec.defining_set:
        return cyclic.HtWitness(1, None, None, None, None, None)
    mask = sum(1 << i for i in spec.defining_set)
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    neg_value, nu, b1, m1, m2 = min(cyclic._ht_template(mask, n, units, m2) for m2 in units)
    return cyclic.HtWitness(-neg_value, b1, m1, m2, -neg_value - nu, nu)
