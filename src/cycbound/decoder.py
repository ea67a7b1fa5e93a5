"""Syndrome decoding up to half the certified locator bound.

Given a code, a locator and a certificate (e, w, t_l, mu), the decoder
works in the combined field GF(q^r) that houses both an order-n root alpha
and an order-n_l root beta.  a is the locator's stored codeword (the
generator polynomial for Reed-Solomon), its digits mapped into GF(q^r);
alpha is the first order-n root at which g vanishes on D_C, and beta the
first order-n_l root at which a vanishes on D_L.  Syndromes are
S_j = r(alpha^(w*j+e)) * a(beta^(j+t_l)).  r is evaluated only where
a(beta^(j+t_l)) != 0, and there the certificate puts w*j+e in D_C, where
the generator g vanishes; so each syndrome is that of s = r mod g, of
fewer than n - k terms.  s is summed from precomputed packed rows
c * (x^i mod g) (gf.remainder_rows, gf.PackedWords over GF(q)), once per
word: the syndromes, the zero-syndrome test and the final re-encoding
check all read it.  The Key Equation S = Omega / Lambda mod x^(mu-1) is
solved with the extended Euclidean algorithm; error positions come from a
root scan of Lambda and error values from a generalized Forney formula.
The root scan runs on packed rows too: for every power i up to
floor((mu - 1) / 2), the largest degree of Lambda, every place b < m of
GF(p^m) and every digit d of GF(p), the context packs d * x^b * gamma_p^i
over the n Chien points gamma_p (gf.PackedLanes), so Lambda at all n points
is a sum of one such row per nonzero digit of its coefficients.
The locator enters the Forney formula only as f'(beta^-kappa) /
h(beta^-kappa), kappa the smallest support index: every term of f' and h
but kappa's vanishes there, which leaves the constant -beta^kappa /
c_kappa, c_kappa the twisted locator coefficient at kappa.  The syndromes,
the Forney formula and the context's own evaluations go through the
field's kernel FieldCtx.evaluate.
Up to floor((d_star - 1) / 2) errors are corrected, and every decode ends
with a re-encoding check, the corrected word mod g must vanish, so a
miscorrection outside the code is reported as a failure instead of
returned silently; so is a word outside the code whose syndromes all
vanish.  r mod g is linear, so the corrected word's remainder is s plus
the rows -v * (x^p mod g) of the corrections v at positions p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from . import cyclic
from .gf import (
    FieldCtx,
    PackedLanes,
    PackedWords,
    Poly,
    build_field,
    combined_degree,
    extended_euclid_step_sequence,
    min_extension_degree,
    nth_root_of_unity,
    prime_power,
    remainder_rows,
    subfield_digit_maps,
)
from .nzl import LocatorSpec, NzlCertificate, _locator_codeword_elements, verify_certificate
from .cyclic import PreconditionViolated


class LengthMismatch(ValueError):
    """Received word has the wrong length."""


class DecoderError(Exception):
    """Base of the failures reported inside DecodeResult."""


class ZeroSyndrome(DecoderError):
    """All syndromes vanish; nothing to solve."""


class InconsistentLocator(DecoderError):
    """The locator polynomial does not describe a correctable pattern."""


class EvaluatorSingular(DecoderError):
    """A Forney denominator vanished."""


class ValueOutsideBaseField(DecoderError):
    """A computed error value is not a base-field element."""


@dataclass(frozen=True, eq=False)
class DecoderContext:
    """Everything precomputed for decoding one (code, locator, certificate).

    Immutable and shareable; decode() is a pure function of (context, word).
    """

    code: cyclic.CyclicCodeSpec
    locator: LocatorSpec
    cert: NzlCertificate
    field: FieldCtx
    alpha: int
    beta: int
    alpha_w: int
    kappa: int
    support: tuple[int, ...]
    coeffs: tuple[int, ...]
    forney: int
    a_evals: tuple[int, ...]
    chien: tuple[int, ...]  # chien[p] = log(beta^-kappa * alpha^(-w*p)), p < n
    to_elt: tuple[int, ...]
    to_digit: dict[int, int]
    words: PackedWords  # words over the n - k coordinates of a remainder mod g
    rows: tuple[tuple[int, ...], ...]  # rows[i][c] packs c * (x^i mod g)
    points: PackedLanes  # words of GF(p^m) elements over the n Chien points
    scan: tuple[tuple[tuple[int, ...], ...], ...]  # scan[i][b][d] packs d * x^b * gamma_p^i


@dataclass
class DecodeResult:
    status: str  # "success" | "failure"
    reason: str | None
    positions: tuple[int, ...]
    values: dict[int, int]
    corrected: tuple[int, ...] | None


def _aligned_root(field: FieldCtx, n: int, terms, zeros) -> int:
    """zeta^t for the first unit t = 1, 2, ... mod n at which the polynomial
    with (i, log c_i) terms vanishes at zeta^(t*z) for every z in `zeros`,
    zeta the canonical order-n root of the field.  A generator polynomial
    or a stored locator word pins its code to such a root, and an
    independently built field has its own tables, so the root is searched
    for rather than assumed."""
    l_zeta = field.log[nth_root_of_unity(field, n)]
    for t in range(1, n + 1):
        if math.gcd(t, n) != 1:
            continue
        if not any(field.evaluate(terms, [l_zeta * t * z for z in zeros])):
            return field.exp(l_zeta * t)
    raise PreconditionViolated(f"the word vanishes on {tuple(zeros)} at no root of order {n}")


def _scan_rows(field: FieldCtx, points: PackedLanes, chien, count: int):
    """rows[i][b][d] packs d * x^b * gamma_p^i over the points p, gamma_p =
    g^chien[p], for i < count, b < m and every digit d of GF(p), x = g the
    generator; Lambda(0) = 1, so power 0 has place 0 only.  x times a row
    moves every point's digits up one lane and folds each top digit t back
    as t * (x^m - f) over all points at once, f the primitive polynomial;
    the multiples d are lane adds.  gamma_p^(i+1) is the sum over places b
    of the rows (i, b, d) restricted to the points whose gamma_p has digit d
    at place b.  So only gamma itself is packed from the antilog table, and
    every other row costs a few int operations.
    """
    p, m, b = field.p, field.m, points.lane_bits
    every, full = points.every, (1 << points.width) - 1
    low, top = every * ((1 << b) - 1), (m - 1) * b
    keep = every * ((1 << top) - 1)  # all lanes but the top one
    # x^m = sum_j c_j x^j, c_j = -f_j: spread[c] has a 1 in every lane j with c_j = c
    spread = [0] * p
    for j, c in enumerate(field.spec.prim_poly[:m]):
        spread[-c % p] |= 1 << j * b

    def times_x(x: int) -> int:
        t = x >> top & low
        t_times = points.multiples(t)
        # t * spread[c] copies t into the lanes j, disjoint, with no carry
        fold = sum(t_times[c] * spread[c] for c in range(1, p) if spread[c])
        return points.add((x & keep) << b, fold)

    gamma = points.pack_elements([field.antilog[l] for l in chien])
    pick = []  # pick[j][d]: all bits of the points whose gamma has digit d >= 1 at place j
    for j in range(m):
        t = gamma >> j * b & low
        # bit 0 of a point is set where its digit t is at least d
        at_least = [(t + every * ((1 << b - 1) - d)) >> b - 1 & every for d in range(1, p)] + [0]
        pick.append([0] + [(at_least[d - 1] ^ at_least[d]) * full for d in range(1, p)])
    rows, row = [(tuple(points.multiples(every)),)], gamma
    for i in range(1, count):
        if i > 1:
            row = reduce(points.add, [r[d] & pick[j][d]
                                      for j, r in enumerate(rows[-1]) for d in range(1, p)], 0)
        per_place = [tuple(points.multiples(row))]
        for _ in range(m - 1):
            row = times_x(row)
            per_place.append(tuple(points.multiples(row)))
        rows.append(tuple(per_place))
    return tuple(rows)


def build_context(
    code: cyclic.CyclicCodeSpec, locator: LocatorSpec, cert: NzlCertificate
) -> DecoderContext:
    """Combined-field context for (code, locator, certificate)."""
    if cert.locator != locator:
        raise PreconditionViolated("certificate was issued for a different locator")
    if cert.mu < 2:
        raise PreconditionViolated("certificate must have mu >= 2")
    if not verify_certificate(code.defining_set, code.n, cert):
        raise PreconditionViolated("certificate does not verify against the code")
    if len(locator.support) != locator.d_l:
        raise PreconditionViolated("locator codeword weight differs from d_l")
    q = code.q
    p, a = prime_power(q)
    s = min_extension_degree(q, code.n)
    q_l = q**locator.u
    s_l = min_extension_degree(q_l, locator.n_l)
    r = combined_degree(s, locator.u, s_l)
    field = build_field(p, a * r)
    to_elt, to_digit = subfield_digit_maps(field, q)
    log = field.log
    g = cyclic.generator_polynomial(code)
    alpha = _aligned_root(field, code.n, [(i, log[to_elt[d]]) for i, d in enumerate(g) if d],
                          code.coset_reps)
    support, base_coeffs = _locator_codeword_elements(
        field, nth_root_of_unity(field, locator.n_l), locator, q)
    beta = _aligned_root(field, locator.n_l, [(z, log[c]) for z, c in zip(support, base_coeffs)],
                         locator.defining_set)
    # The certificate shift twists the codeword: coefficients pick up
    # beta^(z * t_l) so that the twisted word evaluated at beta^j equals
    # a(beta^(j + t_l)).
    coeffs = tuple(
        field.mul(cz, field.pow(beta, z * cert.t_l)) for z, cz in zip(support, base_coeffs)
    )
    kappa = min(support)
    a_evals = tuple(field.evaluate([(z, log[cz]) for z, cz in zip(support, coeffs)],
                                   [j * log[beta] for j in range(locator.n_l)]))
    for i in locator.defining_set:
        if a_evals[(i - cert.t_l) % locator.n_l] != 0:
            raise AssertionError("locator codeword does not vanish on its defining set")
    # f'(beta^-kappa) / h(beta^-kappa) of the Forney formula (see error_values)
    forney = field.neg(field.div(field.pow(beta, kappa), coeffs[support.index(kappa)]))
    words = PackedWords(q, len(g) - 1)
    alpha_w = field.pow(alpha, cert.w)
    l_start, l_step = log[field.pow(beta, -kappa)], log[field.inv(alpha_w)]
    chien = tuple((l_start + p * l_step) % field.n_units for p in range(code.n))
    points = PackedLanes(field.p, field.m, code.n)
    return DecoderContext(
        code=code,
        locator=locator,
        cert=cert,
        field=field,
        alpha=alpha,
        beta=beta,
        alpha_w=alpha_w,
        kappa=kappa,
        support=support,
        coeffs=coeffs,
        forney=forney,
        a_evals=a_evals,
        chien=chien,
        to_elt=to_elt,
        to_digit=to_digit,
        words=words,
        rows=tuple(remainder_rows(words, g, code.n)),
        points=points,
        # solve_key_equation keeps deg Lambda <= floor((mu - 1) / 2)
        scan=_scan_rows(field, points, chien, (cert.mu - 1) // 2 + 1),
    )


def remainder(ctx: DecoderContext, word) -> int:
    """The word's remainder mod g, packed: the sum of rows[i][digit i]."""
    rows = ctx.rows
    if len(word) != len(rows):
        raise LengthMismatch(f"expected {len(rows)} digits, got {len(word)}")
    try:
        if min(word, default=0) >= 0:
            return reduce(ctx.words.add, [row[d] for row, d in zip(rows, word) if d], 0)
    except (IndexError, TypeError):
        pass
    raise ValueError(f"digits must be integers in [0, {ctx.code.q})")


def syndromes(ctx: DecoderContext, s: int) -> Poly:
    """S_j = r(alpha^(w*j+e)) * a(beta^(j+t_l)) for j = 0..mu-2, from the
    packed remainder s = r mod g of the received word r (see remainder).

    r is evaluated only where a(beta^(j+t_l)) != 0, and there the
    certificate puts w*j+e in D_C, where g vanishes; so r may be replaced
    by s, whose nonzero terms are evaluated."""
    field = ctx.field
    if not s:
        return Poly(field, ())
    log, to_elt = field.log, ctx.to_elt
    terms = [(i, log[to_elt[d]]) for i, d in enumerate(ctx.words.digits(s)) if d]
    cert = ctx.cert
    n_l = ctx.locator.n_l
    js = [j for j in range(cert.mu - 1) if ctx.a_evals[j % n_l]]
    l_alpha = field.log[ctx.alpha]
    values = field.evaluate(terms, [(cert.w * j + cert.e) % ctx.code.n * l_alpha for j in js])
    out = [0] * (cert.mu - 1)
    for j, v in zip(js, values):
        out[j] = field.mul(v, ctx.a_evals[j % n_l])
    return Poly(field, tuple(out))


def solve_key_equation(S: Poly, mu: int) -> tuple[Poly, Poly]:
    """(Lambda, Omega) with S*Lambda = Omega mod x^(mu-1), Lambda(0) = 1.

    Decoding t <= floor((d_star - 1)/2) errors needs deg Lambda = t*d_l and
    deg Omega <= t*d_l - 1, and d_star = ceil(mu/d_l) forces
    (d_star - 1)*d_l < mu, hence 2*t*d_l <= (d_star - 1)*d_l <= mu - 1.
    So the locator degree stays <= floor((mu-1)/2) and the evaluator degree
    strictly below ceil((mu-1)/2): the Euclidean remainder sequence on
    (x^(mu-1), S) crosses that split exactly once, at the sought pair.
    ceil((mu-1)/2) == mu // 2 for both parities.
    """
    if S.is_zero():
        raise ZeroSyndrome("syndrome polynomial is zero")
    field = S.field
    omega_raw, lam_raw = extended_euclid_step_sequence(Poly.monomial(field, mu - 1), S, mu // 2)
    c = lam_raw(0)
    if c == 0:
        raise InconsistentLocator("locator polynomial vanishes at zero")
    cinv = field.inv(c)
    return lam_raw.scale(cinv), omega_raw.scale(cinv)


def find_error_positions(ctx: DecoderContext, lam: Poly) -> tuple[int, ...]:
    """Positions p with Lambda(beta^-kappa * alpha^(-w*p)) = 0; the count
    must tile deg Lambda into d_l-sized blocks.  The root scan (Chien) sums,
    for every nonzero base-p digit d at place b of every coefficient
    lambda_i, the packed row d * x^b * gamma_p^i of all n points at once;
    the points where the sum is zero are the roots."""
    if lam.is_zero() or lam(0) != 1:
        raise InconsistentLocator("locator polynomial must satisfy Lambda(0) = 1")
    if lam.degree >= len(ctx.scan):
        raise InconsistentLocator(
            f"degree {lam.degree} exceeds the correctable {len(ctx.scan) - 1}")
    p, add = ctx.field.p, ctx.points.add
    acc = 0
    for rows, c in zip(ctx.scan, lam.coeffs):
        for row in rows:
            if not c:
                break
            c, d = divmod(c, p)
            if d:
                acc = add(acc, row[d])
    positions = ctx.points.zeros(acc)
    if len(positions) * ctx.locator.d_l != lam.degree:
        raise InconsistentLocator(
            f"{len(positions)} roots cannot account for degree {lam.degree}"
        )
    return tuple(positions)


def error_values(ctx: DecoderContext, lam: Poly, omega: Poly, positions) -> dict[int, int]:
    """Generalized Forney formula.

    e_p = Omega(gamma_p) * alpha^(w*p) * f'(beta^-kappa) /
          (Lambda'(gamma_p) * alpha^(p*e) * h(beta^-kappa)),
    gamma_p = beta^-kappa * alpha^(-w*p), f = prod_z (1 - beta^z x) and
    h = sum_z c_z prod_{z' != z} (1 - beta^z' x) over the locator support z
    with twisted coefficients c_z.  The factor alpha^(w*p) is the inner
    derivative of f(x * alpha^(w*p)) inside Lambda'.  At beta^-kappa every
    term carrying the factor 1 - beta^(kappa - kappa) vanishes, so with
    P = prod_{z != kappa} (1 - beta^(z - kappa)), nonzero as the support is
    distinct mod n_l, f'(beta^-kappa) = -beta^kappa * P and
    h(beta^-kappa) = c_kappa * P: their quotient is the constant
    ctx.forney = -beta^kappa / c_kappa.  Every value must land in the base
    field.
    """
    field = ctx.field
    gammas = [ctx.chien[p] for p in positions]
    dens = field.evaluate(lam.derivative().log_terms(), gammas)
    nums = field.evaluate(omega.log_terms(), gammas)
    out = {}
    for p, num, den in zip(positions, nums, dens):
        if den == 0:
            raise EvaluatorSingular(f"Lambda' vanishes at the root for position {p}")
        num = field.mul(num, field.mul(field.pow(ctx.alpha_w, p), ctx.forney))
        den = field.mul(den, field.pow(ctx.alpha, p * ctx.cert.e))
        val = field.div(num, den)
        digit = ctx.to_digit.get(val)
        if digit is None:
            raise ValueOutsideBaseField(f"error value at position {p} is not in GF({ctx.code.q})")
        if digit == 0:
            raise InconsistentLocator(f"zero error value at claimed position {p}")
        out[p] = digit
    return out


def decode(ctx: DecoderContext, received) -> DecodeResult:
    """Bounded-distance decode; failures are reported in the result, never
    raised (length/digit misuse excepted)."""
    received = tuple(received)
    s = remainder(ctx, received)
    S = syndromes(ctx, s)
    try:
        if S.is_zero():
            # the syndromes see D_C only in part, so a word of weight at
            # least d_star can zero them all without being a codeword
            if s:
                raise ZeroSyndrome("syndromes vanish on a word outside the code")
            return DecodeResult("success", None, (), {}, received)
        lam, omega = solve_key_equation(S, ctx.cert.mu)
        if not omega.degree < lam.degree:
            raise InconsistentLocator("evaluator degree not below locator degree")
        positions = find_error_positions(ctx, lam)
        if not positions:
            raise InconsistentLocator("nonzero syndrome but no error positions")
        values = error_values(ctx, lam, omega, positions)
        df, add = ctx.words.df, ctx.words.add
        corrected = list(received)
        for p, v in values.items():
            corrected[p] = df.sub(corrected[p], v)
            s = add(s, ctx.rows[p][df.neg(v)])  # r mod g is linear
        if s:  # g divides exactly the codewords
            raise InconsistentLocator("corrected word fails the defining-set recheck")
    except DecoderError as err:
        return DecodeResult("failure", f"{type(err).__name__}: {err}", (), {}, None)
    return DecodeResult("success", None, positions, values, tuple(corrected))
