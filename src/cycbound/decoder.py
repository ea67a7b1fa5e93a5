"""Syndrome decoding up to half the certified locator bound.

Given a code, a locator and a certificate (e, w, t_l, mu), the decoder
works in the combined field GF(q^r) that houses both an order-n root alpha
and an order-n_l root beta.  a is the locator's stored codeword (the
generator polynomial for Reed-Solomon), its digits mapped into GF(q^r);
alpha is the first order-n root at which g vanishes on D_C, and beta the
first order-n_l root at which a vanishes on D_L.  Syndromes are
S_j = r(alpha^(w*j+e)) * a_j, a_j = a(beta^(j+t_l)), for j < mu - 1.
Both S and the remainder r mod g are GF(q)-linear in the digits of the
received word r, so one packed row per position i and digit c holds
c * (x^i mod g) over the n - k coordinates of a remainder (gf.PackedWords)
and, above them, c * alpha^((w*j+e)*i) * a_j for every j: one sum of the
rows the word's digits select gives both.  As in table-driven CRC
(Sarwate 1988) the rows are summed a chunk of positions at a time: one
table per 4 positions for q = 2 and per 2 for q = 3 holds the sum of
its positions' rows for every digit pattern, and for larger q a table is
one position's rows.  The word is read once as bytes (q <= 256); for
q <= 3 it is read as one int in base 2 or 4 whose hex digits are the
table indices, so the interpreter never steps through the word.
In odd characteristic every base-p digit of a row has a byte lane when a
byte holds four digits (p < 65): the table entries are summed as plain ints
by the built-in sum and each byte is then reduced mod p by one
bytes.translate.  The syndromes, the zero-syndrome test and the final
re-encoding check all read that one reduced sum.  The Key Equation
S = Omega / Lambda mod x^(mu-1) is solved by Berlekamp-Massey, equivalent
to the paper's Euclidean formulation (Dornstetter 1987); error positions
come from a root scan of Lambda and error values from a generalized Forney
formula.  The root scan runs on packed rows too: for every power i up to
floor((mu - 1) / 2), the largest degree of Lambda, every place b < m of
GF(p^m) and every digit d of GF(p), d * x^b * gamma_p^i is packed over the
n Chien points gamma_p (gf.PackedLanes), and these rows are chunked like
the remainder's, 4 places per table for p = 2 and 2 for p = 3, so Lambda at
all n points is a sum of one table entry per nonzero chunk of base-p digits
of its coefficients.
The locator enters the Forney formula only as f'(beta^-kappa) /
h(beta^-kappa), kappa the smallest support index: every term of f' and h
but kappa's vanishes there, which leaves the constant -beta^kappa /
c_kappa, c_kappa the twisted locator coefficient at kappa.  The Forney
formula and the context's own evaluations go through the field's kernel
FieldCtx.evaluate.
Up to floor((d_star - 1) / 2) errors are corrected, and every decode ends
with a re-encoding check, the corrected word mod g must vanish, so a
miscorrection outside the code is reported as a failure instead of
returned silently; so is a word outside the code whose syndromes all
vanish.  r mod g is linear, so the corrected word's remainder is the sum
plus the rows -v * (x^p mod g) of the corrections v at positions p.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from functools import cache, reduce
from itertools import islice
from typing import Callable, Iterable

from . import cyclic
from .gf import (
    FieldCtx,
    PackedLanes,
    PackedWords,
    build_field,
    combined_degree,
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
    words: PackedWords  # over the n - k coordinates of a remainder mod g, in the rows' lanes
    # the row of digit c at position i packs c * (x^i mod g) in its low `high`
    # bits and, above, the syndrome row c * alpha^((w*j+e)*i) * a_j in fields
    # of syn_width bits; tables[k][x] is the reduced sum of the rows of the
    # positions i = size*k + s, s < size, at the digits x_s of
    # x = sum_s x_s * radix^s, (size, radix) = _POSITIONS[q] or (1, q)
    tables: tuple[tuple[int, ...], ...]
    high: int
    syn_width: int
    syn_low: int  # odd p: the bits of lane 0 of every syndrome field
    # sum_rows(rows, count, s) = s plus the rows, at most count of them, lane
    # by lane (see _sum_rows)
    sum_rows: Callable[[Iterable[int], int, int], int]
    points: PackedLanes  # words of GF(p^m) elements over the n Chien points
    # scan[i][k][x] packs the sum of x_s * x^b * gamma_p^i over the places
    # b = size*k + s, s < size, x = sum_s x_s * p^s, size = _PLACES[p] or 1
    scan: tuple[tuple[tuple[int, ...], ...], ...]


_BYTES = bytes(range(256))
# (positions per remainder table, radix of its index) by q: for q <= 3 an
# index is one hex digit of the word read in base 2 or 4 (see remainder)
_POSITIONS = {2: (4, 2), 3: (2, 4)}
# base-p places per root-scan table by p; other p take one place per table
_PLACES = {2: 4, 3: 2}
_ASCII = bytes.maketrans(bytes(range(3)), b"012")  # the digits d < 3 as ASCII
_HEX = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))  # hex digit -> value


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
    every other row costs a few int operations.  build_context chunks each
    power's places into the tables of DecoderContext.scan (_chunk_tables).
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


def _rows(field: FieldCtx, words: PackedWords, g, n: int, to_elt, l_alpha: int, cert, a_j,
          width: int, row_lanes: PackedLanes) -> list[tuple[int, ...]]:
    """rows[i][c] for i < n and every digit c of GF(q): c * (x^i mod g) over
    the coordinates of `words` in the low bits, and above them, in field j
    of `width` bits, c * alpha^((w*j+e)*i) * a_j for j < mu - 1, log alpha
    = l_alpha: the element itself for p = 2, its base-p digits in m lanes of
    row_lanes otherwise, lanes as wide as those of `words` (a byte each
    where the decoder folds its sums bytewise).  Where a_j = 0 the field
    stays 0.  The element at (i, j) is the antilog of log c + log a_j +
    i*(w*j+e)*l_alpha, so a column j is one stride through the antilog
    table, and the fields are disjoint, so a row is their sum.  For prime q
    the digits c > 1 are lane multiples of c = 1."""
    p, m, n_units = field.p, field.m, field.n_units
    log, antilog = field.log, field.antilog
    q, high, b = words.df.q, words.n * words.width, words.lane_bits

    @cache
    def lanes_of(e: int) -> int:
        return sum(e // p**t % p << t * b for t in range(m))

    def column(l_c: int, j: int) -> list[int]:
        start, shift = l_c + log[a_j[j]], high + j * width
        # a step of 0 (w*j+e = 0 mod n) walks by n_units: k % n_units stays put
        step = (cert.w * j + cert.e) * l_alpha % n_units or n_units
        ks = range(start, start + n * step, step)
        if p == 2:
            return [antilog[k % n_units] << shift for k in ks]
        return [lanes_of(antilog[k % n_units]) << shift for k in ks]

    remainders = remainder_rows(words, g, range(n))

    def digit_rows(c: int) -> list[int]:
        columns = [column(log[to_elt[c]], j) for j, a in enumerate(a_j) if a]
        return list(map(sum, zip([r[c] for r in remainders], *columns)))

    if q == p:
        return [tuple(row_lanes.multiples(row)) for row in digit_rows(1)]
    return [(0, *row) for row in zip(*[digit_rows(c) for c in range(1, q)])]


def _chunk_tables(rows, size: int, radix: int, add) -> tuple[tuple[int, ...], ...]:
    """One table per `size` consecutive members of `rows`, the last one
    taking what is left: table[x] is the sum by `add` of rows[s][x_s] over
    the slots s of its chunk, x = sum_s x_s * radix^s, slot 0 lowest.  A
    row lists the rows of the digits 0, 1, ..., row[0] = 0, and one shorter
    than radix is read as zero rows above.  The table of a chunk's first
    s + 1 slots is radix copies of the table of its first s, copy c each
    entry plus rows[s][c]: one add per entry where neither is 0, and the
    other one itself where one is, so a one-slot table holds the rows."""
    tables = []
    for start in range(0, len(rows), size):
        table = [0]
        for row in rows[start:start + size]:
            table = [add(t, r) if t and r else t or r for r in (*row, *[0] * (radix - len(row)))
                     for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def _sum_rows(p: int, size: int, add) -> Callable[[Iterable[int], int, int], int]:
    """sum_rows(rows, count, s): s plus the rows, at most count of them, lane
    by lane mod p, s and the result reduced.  On byte lanes (size > 0, the
    bytes of a row) the built-in sum adds the rows as plain ints, and one
    translate then reduces every byte of the total mod p.  A byte holds a
    reduced sum plus `every` rows of digits at most p - 1, so a long sum is
    reduced every `every` rows.  Otherwise `add` reduces the rows pairwise,
    XOR for p = 2."""
    if not size:
        return lambda rows, count, s: reduce(add, rows, s)
    mod_p = bytes(i % p for i in range(256))
    every = 255 // (p - 1) - 1

    def sum_rows(rows: Iterable[int], count: int, s: int) -> int:
        rows = iter(rows)
        for _ in range(0, count, every):
            total = sum(islice(rows, every), s).to_bytes(size, "little")
            s = int.from_bytes(total.translate(mod_p), "little")
        return s

    return sum_rows


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
    # odd p: one byte lane per GF(p) digit of a row where a byte holds four
    # digits, so that a sum of rows folds mod p bytewise at most every three
    # rows (_sum_rows); folding more often is no faster than the lane add
    lane_bits = 8 if p != 2 and 4 * (p - 1) < 256 else None
    words = PackedWords(q, len(g) - 1, lane_bits)
    alpha_w = field.pow(alpha, cert.w)
    l_start, l_step = log[field.pow(beta, -kappa)], log[field.inv(alpha_w)]
    chien = tuple((l_start + p * l_step) % field.n_units for p in range(code.n))
    points = PackedLanes(field.p, field.m, code.n)
    a_j = [a_evals[j % locator.n_l] for j in range(cert.mu - 1)]
    row_lanes = PackedLanes(p, 1, words.n * a + len(a_j) * field.m, lane_bits)
    b = words.lane_bits
    width = field.m if p == 2 else field.m * b  # m plain bits, or m lanes
    high = words.n * words.width
    rows = _rows(field, words, g, code.n, to_elt, log[alpha], cert, a_j, width, row_lanes)
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
        tables=_chunk_tables(rows, *_POSITIONS.get(q, (1, q)), row_lanes.add),
        high=high,
        syn_width=width,
        syn_low=0 if p == 2 else PackedLanes(p, field.m, len(a_j), b).every * ((1 << b) - 1),
        sum_rows=_sum_rows(p, (high + len(a_j) * width) // 8 if lane_bits else 0, row_lanes.add),
        points=points,
        # solve_key_equation keeps deg Lambda <= floor((mu - 1) / 2)
        scan=tuple(_chunk_tables(per_place, _PLACES.get(p, 1), p, points.add)
                   for per_place in _scan_rows(field, points, chien, (cert.mu - 1) // 2 + 1)),
    )


def _digits(word, q: int):
    """The word's digits as bytes (q <= 256) or as an unsigned array, read in
    one C-level pass; ValueError unless every digit is an integer in
    [0, q).  remainder would read an out-of-range byte as another digit or
    past a table, so the valid bytes are deleted and nothing may remain."""
    try:
        digits = bytes(word) if q <= 256 else array("L", word)
    except (TypeError, ValueError, OverflowError):
        digits = None
    if digits is None or (digits.translate(None, _BYTES[:q]) if q <= 256
                          else max(digits, default=0) >= q):
        raise ValueError(f"digits must be integers in [0, {q})")
    return digits


def remainder(ctx: DecoderContext, word) -> int:
    """The word's packed row sum, the sum of the rows of its digits: its
    remainder mod g in the low ctx.high bits and its syndromes above (see
    syndromes), every lane reduced.  One entry of each table ctx.tables is
    picked by one map of operator.getitem, so the interpreter never steps
    through the word.  For q > 3 the digits are the indices.  For q <= 3
    the digits, position 0 last, are read as ASCII by one int in base 2 or
    4, so that each hex digit of that int holds the digits of one table's
    4 or 2 positions, the lowest position in its low bits; the hex string,
    low digit first, is turned into the indices by one bytes.translate."""
    n, q = ctx.code.n, ctx.code.q
    if len(word) != n:
        raise LengthMismatch(f"expected {n} digits, got {len(word)}")
    digits = _digits(word, q)
    tables = ctx.tables
    if q <= 3:
        x = int(digits[::-1].translate(_ASCII), 2 if q == 2 else 4)
        digits = format(x, f"0{len(tables)}x")[::-1].encode().translate(_HEX)
    return ctx.sum_rows(map(operator.getitem, tables, digits), len(tables), 0)


def syndromes(ctx: DecoderContext, s: int) -> list[int]:
    """S_j = r(alpha^(w*j+e)) * a(beta^(j+t_l)) for j = 0..mu-2, read out of
    the high bits of the packed row sum s of the received word r (see
    remainder).  In odd characteristic each field holds the base-p digits
    of its element in m lanes (bytes for p < 65), each reduced mod p by the
    row pass, and they are folded here into sum_i d_i * p^i."""
    y = s >> ctx.high
    p = ctx.field.p
    if p != 2:
        b, low = ctx.words.lane_bits, ctx.syn_low
        y = sum((y >> i * b & low) * p**i for i in range(ctx.field.m))
    width = ctx.syn_width
    mask = (1 << width) - 1
    return [y >> j * width & mask for j in range(ctx.cert.mu - 1)]


def solve_key_equation(field: FieldCtx, S, mu: int) -> tuple[list[int], list[int]]:
    """(Lambda, Omega) with S*Lambda = Omega mod x^(mu-1) and Lambda(0) = 1,
    as coefficient lists, x^0 first and no trailing zeros, from the
    syndromes S_0..S_(mu-2) (missing ones are 0), by Berlekamp-Massey:
    Lambda is the shortest linear recurrence that generates S, of length L,
    and deg Omega < L.

    Decoding t <= floor((d_star - 1)/2) errors needs deg Lambda = t*d_l and
    deg Omega <= t*d_l - 1, and d_star = ceil(mu/d_l) forces
    (d_star - 1)*d_l < mu, hence 2*t*d_l <= (d_star - 1)*d_l <= mu - 1.
    A recurrence of length at most (mu - 1)/2 that generates mu - 1 terms is
    the only shortest one, so within the radius Lambda is the error
    pattern's locator, the pair the Euclidean algorithm on (x^(mu-1), S)
    returns (Dornstetter 1987).  L never decreases, and no pattern within
    the radius needs L > floor((mu - 1)/2), so the solver stops there.
    Products are antilog lookups on sums of logarithms; a subtraction adds
    a product that carries log(-1) = (p^m - 1)/2 in odd characteristic.
    """
    count = mu - 1
    S = [*S, *[0] * (count - len(S))]
    if not any(S):
        raise ZeroSyndrome("syndrome polynomial is zero")
    log, antilog, n_units = field.log, field.antilog, field.n_units
    add = operator.xor if field.p == 2 else field.add
    l_neg = 0 if field.p == 2 else n_units // 2
    top = count // 2
    # lam generates S_0..S_(r-1) with length `length`; prev is lam before its
    # last length change, when its discrepancy had log l_prev
    lam, prev, length, shift, l_prev = [1], [1], 0, 1, 0
    for r in range(count):
        d = S[r]
        for i in range(1, len(lam)):
            c, s = lam[i], S[r - i]
            if c and s:
                d = add(d, antilog[(log[c] + log[s]) % n_units])
        if not d:
            shift += 1
            continue
        l_q = log[d] - l_prev + l_neg  # lam - (d / d_prev) * x^shift * prev
        new = lam + [0] * (len(prev) + shift - len(lam))
        for j, c in enumerate(prev, shift):
            if c:
                new[j] = add(new[j], antilog[(l_q + log[c]) % n_units])
        if 2 * length <= r:
            length, prev, l_prev, shift = r + 1 - length, lam, log[d], 1
            if length > top:
                raise InconsistentLocator(f"degree {length} exceeds the correctable {top}")
        else:
            shift += 1
        lam = new
    while not lam[-1]:
        lam.pop()
    omega = []
    for k in range(length):
        v = 0
        for i, c in enumerate(lam[:k + 1]):
            s = S[k - i]
            if c and s:
                v = add(v, antilog[(log[c] + log[s]) % n_units])
        omega.append(v)
    while omega and not omega[-1]:
        omega.pop()
    return lam, omega


def find_error_positions(ctx: DecoderContext, lam) -> tuple[int, ...]:
    """Positions p with Lambda(beta^-kappa * alpha^(-w*p)) = 0, Lambda a
    coefficient list; the count must tile deg Lambda into d_l-sized blocks.
    The root scan (Chien) sums, for every coefficient lambda_i and every
    chunk of its base-p places that holds a nonzero digit, the entry of the
    chunk's table ctx.scan[i][k] at those digits, the packed sum of the rows
    d * x^b * gamma_p^i of all n points at once; divmod by p^size splits
    off one chunk's digits.  The points where the sum is zero are the
    roots."""
    if not lam or lam[0] != 1:
        raise InconsistentLocator("locator polynomial must satisfy Lambda(0) = 1")
    degree = len(lam) - 1
    if degree >= len(ctx.scan):
        raise InconsistentLocator(f"degree {degree} exceeds the correctable {len(ctx.scan) - 1}")
    p, add = ctx.field.p, ctx.points.add
    radix = p ** _PLACES.get(p, 1)
    acc = 0
    for tables, c in zip(ctx.scan, lam):
        for table in tables:
            if not c:
                break
            c, d = divmod(c, radix)
            if d:
                acc = add(acc, table[d])
    positions = ctx.points.zeros(acc)
    if len(positions) * ctx.locator.d_l != degree:
        raise InconsistentLocator(f"{len(positions)} roots cannot account for degree {degree}")
    return tuple(positions)


def error_values(ctx: DecoderContext, lam, omega, positions) -> dict[int, int]:
    """Generalized Forney formula, on the coefficient lists Lambda and Omega.

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
    field, e = ctx.field, ctx.cert.e
    log, antilog, n_units, char = field.log, field.antilog, field.n_units, field.p
    gammas = [ctx.chien[p] for p in positions]
    # Lambda' = sum_i (i mod p) * lambda_i * x^(i-1), i mod p an element of GF(p)
    dens = field.evaluate([(i - 1, log[c] + log[i % char]) for i, c in enumerate(lam)
                           if c and i % char], gammas)
    nums = field.evaluate([(i, log[c]) for i, c in enumerate(omega) if c], gammas)
    l_alpha_w, l_alpha, l_forney = log[ctx.alpha_w], log[ctx.alpha], log[ctx.forney]
    out = {}
    for p, num, den in zip(positions, nums, dens):
        if den == 0:
            raise EvaluatorSingular(f"Lambda' vanishes at the root for position {p}")
        # num * alpha_w^p * forney / (den * alpha^(p*e))
        l_val = log[num] + p * l_alpha_w + l_forney - log[den] - p * e * l_alpha
        digit = ctx.to_digit.get(antilog[l_val % n_units] if num else 0)
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
        if not any(S):
            # the syndromes see D_C only in part, so a word of weight at
            # least d_star can zero them all without being a codeword
            if s:
                raise ZeroSyndrome("syndromes vanish on a word outside the code")
            return DecodeResult("success", None, (), {}, received)
        lam, omega = solve_key_equation(ctx.field, S, ctx.cert.mu)
        if not len(omega) < len(lam):
            raise InconsistentLocator("evaluator degree not below locator degree")
        positions = find_error_positions(ctx, lam)
        if not positions:
            raise InconsistentLocator("nonzero syndrome but no error positions")
        values = error_values(ctx, lam, omega, positions)
        df, tables = ctx.words.df, ctx.tables
        size, radix = _POSITIONS.get(df.q, (1, df.q))
        corrected = list(received)
        for p, v in values.items():
            corrected[p] = df.sub(corrected[p], v)
        # the row sum is linear: add the rows of the corrections -v at p, each
        # the entry of p's table with -v in p's slot and 0 in the others
        s = ctx.sum_rows([tables[p // size][df.neg(v) * radix ** (p % size)]
                          for p, v in values.items()], len(values), s)
        if s & (1 << ctx.high) - 1:  # g divides exactly the codewords
            raise InconsistentLocator("corrected word fails the defining-set recheck")
    except DecoderError as err:
        return DecodeResult("failure", f"{type(err).__name__}: {err}", (), {}, None)
    return DecodeResult("success", None, positions, values, tuple(corrected))
