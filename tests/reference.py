"""Plain references that the tests check src against and that nothing at
runtime calls: the coset layer built on cyclotomic_coset alone
(coset_reps, coset_partition and build_code, one coset walk per
representative), the dense polynomial Poly over a FieldCtx with its ring
arithmetic, the extended Euclidean Key Equation solver that the decoder's
Berlekamp-Massey is checked against, the Hartmann-Tzeng search over every
inner step m2 and the unseeded template search it used to run on, the
q-ary distance oracle that rebuilds every w-row sum, the locator scan that
builds the cover of every step, the one that tests each step's own
Hartmann-Tzeng layers before building its cover, and the full ranking of
every candidate locator's certificate, which nzl.best_certificate must top;
the schoolbook digit product behind generator_polynomial and encode; and
small_codes, every cyclic code of a few short lengths, for the tests that
walk all of them.
"""

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product

from cycbound import cyclic, nzl
from cycbound.gf import DigitField, FieldCtx, FieldMismatch, NotCoprime, PackedWords, prime_power, remainder_rows


def small_codes(q: int, lengths):
    """Every q-ary cyclic code of each length coprime to q."""
    for n in lengths:
        if math.gcd(n, q) != 1:
            continue
        cosets = cyclic.coset_partition(n, q)
        for chosen in range(1 << len(cosets)):
            yield cyclic.build_code(q, n, [min(c) for i, c in enumerate(cosets) if chosen >> i & 1])


def _mul_digits(df: DigitField, m, g, n: int) -> list[int]:
    """Digits of m(x)g(x) over GF(q), padded to length n: one DigitField
    add and mul per pair of nonzero terms."""
    out = [0] * n
    for i, mi in enumerate(m):
        if mi:
            for j, gj in enumerate(g):
                if gj:
                    out[i + j] = df.add(out[i + j], df.mul(mi, gj))
    return out


def generator_polynomial(spec) -> tuple[int, ...]:
    """cyclic.generator_polynomial as the schoolbook product of the cosets'
    minimal polynomials."""
    df, digits = DigitField(spec.q), (1,)
    for rep in spec.coset_reps:
        m = cyclic._minimal_polynomial(spec.n, spec.q, rep)
        digits = tuple(_mul_digits(df, digits, m, len(digits) + len(m) - 1))
    return digits


def encode(spec, message) -> tuple[int, ...]:
    """cyclic.encode as the schoolbook product m(x)g(x)."""
    return tuple(_mul_digits(DigitField(spec.q), message, generator_polynomial(spec), spec.n))


def coset_reps(n: int, q: int, exponents) -> tuple[int, ...]:
    """cyclic._coset_reps with one cyclotomic_coset per exponent."""
    return tuple(sorted({min(cyclic.cyclotomic_coset(n, q, i)) for i in exponents}))


def coset_partition(n: int, q: int) -> list[frozenset[int]]:
    """cyclic.coset_partition walking the residues in order."""
    seen = set()
    cosets = []
    for r in range(n):
        if r not in seen:
            c = cyclic.cyclotomic_coset(n, q, r)
            seen |= c
            cosets.append(c)
    return cosets


def build_code(q: int, n: int, reps, name=None) -> cyclic.CyclicCodeSpec:
    """cyclic.build_code with one cyclotomic_coset per representative, and
    the same errors in the same order."""
    prime_power(q)
    if n < 1:
        raise ValueError("length must be positive")
    if math.gcd(n, q) != 1:
        raise NotCoprime(f"gcd({n}, {q}) != 1")
    seen: set[int] = set()
    mins = []
    for r in reps:
        if r % n in seen:
            raise cyclic.DuplicateCoset(f"representative {r} repeats a coset")
        c = cyclic.cyclotomic_coset(n, q, r)
        seen |= c
        mins.append(min(c))
    defining = tuple(sorted(seen))
    return cyclic.CyclicCodeSpec(q, n, tuple(sorted(mins)), defining, n - len(defining), name)


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial over a FieldCtx; coeffs[i] multiplies x^i.

    The zero polynomial has an empty coefficient tuple and degree -inf.
    """

    field: FieldCtx
    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = self.coeffs
        if not isinstance(c, tuple):
            c = tuple(c)
            object.__setattr__(self, "coeffs", c)
        if c and c[-1] == 0:
            i = len(c)
            while i and c[i - 1] == 0:
                i -= 1
            object.__setattr__(self, "coeffs", c[:i])

    @classmethod
    def zero(cls, field: FieldCtx) -> "Poly":
        return cls(field, ())

    @classmethod
    def monomial(cls, field: FieldCtx, degree: int) -> "Poly":
        return cls(field, (0,) * degree + (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, c: int) -> "Poly":
        f = self.field
        if c == 0:
            return Poly.zero(f)
        return Poly(f, tuple(f.mul(a, c) for a in self.coeffs))

    def log_terms(self) -> list[tuple[int, int]]:
        """The (i, log c_i) pairs of the nonzero coefficients, the form in
        which FieldCtx.evaluate takes a polynomial."""
        log = self.field.log
        return [(i, log[c]) for i, c in enumerate(self.coeffs) if c]

    def __call__(self, x: int) -> int:
        if x == 0:
            return self.coeffs[0] if self.coeffs else 0
        return self.field.evaluate(self.log_terms(), (self.field.log[x],))[0]

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            k = i % f.p
            out.append(f.mul(self.coeffs[i], k) if k else 0)
        return Poly(f, tuple(out))


def extended_euclid_step_sequence(A: Poly, B: Poly, stop_degree: int) -> tuple[Poly, Poly]:
    """Remainder sequence r_{-1}=A, r_0=B with B-cofactors u_j.

    Returns the first pair (r_j, u_j) with deg r_j < stop_degree, where
    u_j * B = r_j (mod A).  Should the sequence hit a zero remainder before
    crossing the threshold, the last nonzero pair (the gcd and its
    cofactor) is returned, so stop_degree=0 yields the gcd up to a unit.

    The steps run on coefficient lists: every product is one antilog lookup
    on a sum of logarithms, and a subtraction is an addition whose product
    carries log(-1) = (p^m - 1)/2 in odd characteristic.
    """
    if A.field is not B.field:
        raise FieldMismatch("polynomials over different field contexts")
    if B.is_zero() or not A.degree > B.degree:
        raise ValueError("need deg A > deg B >= 0")
    f = A.field
    log, antilog, n_units = f.log, f.antilog, f.n_units
    add = operator.xor if f.p == 2 else f.add
    l_neg = 0 if f.p == 2 else n_units // 2

    def submul(acc: list[int], shift: int, l_c: int, terms) -> None:
        # acc -= c * x^shift * (the polynomial of terms), c = g^l_c
        for j, l in terms:
            acc[shift + j] = add(acc[shift + j], antilog[(l_c + l + l_neg) % n_units])

    def trim(c: list[int]) -> list[int]:
        while c and not c[-1]:
            c.pop()
        return c

    r_prev, r_cur = list(A.coeffs), list(B.coeffs)
    u_prev, u_cur = [], [1]
    while len(r_cur) > stop_degree:  # deg r_cur >= stop_degree
        rem, dd = r_prev[:], len(r_cur) - 1
        l_lead = log[r_cur[-1]]
        cur_terms = [(j, log[c]) for j, c in enumerate(r_cur) if c]
        u_terms = [(j, log[c]) for j, c in enumerate(u_cur) if c]
        u_new = u_prev + [0] * (len(rem) - dd - 1 + len(u_cur) - len(u_prev))
        for i in range(len(rem) - 1 - dd, -1, -1):
            c = rem[i + dd]
            if c:
                l_q = log[c] - l_lead  # quotient coefficient of x^i
                submul(rem, i, l_q, cur_terms)
                submul(u_new, i, l_q, u_terms)
        if not trim(rem):
            break
        r_prev, r_cur = r_cur, rem
        u_prev, u_cur = u_cur, trim(u_new)
    return Poly(f, tuple(r_cur)), Poly(f, tuple(u_cur))


def euclid_key_equation(field: FieldCtx, S, mu: int) -> tuple[Poly, Poly]:
    """The Key Equation solved as the decoder solved it before
    Berlekamp-Massey: the Euclidean remainder sequence on (x^(mu-1), S),
    stopped at the first remainder of degree below mu // 2 =
    ceil((mu - 1)/2), normalized so that Lambda(0) = 1.  Returns
    (Lambda, Omega), or raises ValueError where Lambda(0) = 0."""
    omega, lam = extended_euclid_step_sequence(Poly.monomial(field, mu - 1), Poly(field, S), mu // 2)
    c = lam(0)
    if c == 0:
        raise ValueError("locator polynomial vanishes at zero")
    return lam.scale(field.inv(c)), omega.scale(field.inv(c))


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
            rem[i + j] = f.add(rem[i + j], f.neg(f.mul(qc, c)))
    return Poly(f, quo), Poly(f, rem)


def pmod(a: Poly, b: Poly) -> Poly:
    return pdivmod(a, b)[1]


def ht_every_m2(spec) -> cyclic.HtWitness:
    """The best HT template over the full (m1, m2) family, m2 every unit:
    cyclic.ht_bound searches m2 = 1 only, and the full family can be
    stronger.  Ties go to the smallest nu, b1, m1 and then m2.  The bottom
    layer of every m2 is D itself, so its longest runs, found here by plain
    _longest_run calls, seed the search of every m2."""
    n = spec.n
    if not spec.defining_set:
        return cyclic.HtWitness(1, None, None, None, None, None)
    mask = sum(1 << i for i in spec.defining_set)
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    half = [u for u in units if 2 * u <= n]
    first = [cyclic._longest_run(mask, n, u)[0] for u in half]
    neg_value, nu, b1, m1, m2 = min(cyclic._ht_template(mask, n, half, first, m2) for m2 in units)
    return cyclic.HtWitness(-neg_value, b1, m1, m2, -neg_value - nu, nu)


def ht_template(mask: int, n: int, units, m2: int) -> tuple[int, ...]:
    """cyclic._ht_template as it was before its seed: every layer T_r is
    built, and the layers are scanned from the top down, each at every
    stride m1 <= n/2 unless r + |T_r| cannot beat the best value so far;
    a strictly better value replaces the best, so the highest layer that
    reaches it wins.  Same key (-value, nu, b1, m1, m2)."""
    layers = []
    t = mask
    while t:
        layers.append(t)
        t &= (t >> m2) | (t << (n - m2))
    half = [u for u in units if 2 * u <= n]
    value, top, top_runs = 0, 0, ()
    for r in range(len(layers), 0, -1):
        t = layers[r - 1]
        if r + t.bit_count() <= value:
            continue
        runs = [cyclic._longest_run(t, n, m1)[0] for m1 in half]
        if r + max(runs) > value:
            value, top, top_runs = r + max(runs), r, runs
    need = value - top
    strides = sorted({m for u, run in zip(half, top_runs) if run == need for m in (u, n - u)})
    starts = {m1: cyclic._longest_run(layers[top - 1], n, m1)[1] for m1 in strides}
    b1 = min(cyclic._lowest_bit(s) for s in starts.values())
    m1 = next(m for m in strides if starts[m] >> b1 & 1)
    return (-value, need - 1, b1, m1, m2)


def qary_oracle(spec) -> tuple[int, tuple[int, ...], int]:
    """(d, codeword, w) of the information-set pass of
    cyclic.min_distance_oracle with every w-row sum rebuilt by
    reduce(add, ...): the same rows, the first row's digit fixed to 1, and
    the same stop rule; w is the number of rows in the codeword's sum.  A
    level is weighed in the oracle's documented order, by the first w - 2
    rows, each row's digit before the next row, then by the last two rows,
    then their digits; min keeps the first lightest word, so this is the
    first one in that order."""
    q, n, k = spec.q, spec.n, spec.k
    r = n - k
    words = PackedWords(q, n)
    add, weight, neg = words.add, words.weight, words.df.neg
    # rows[i][c - 1] is c * x^(r+i) - c * (x^(r+i) mod g)
    rows = [
        [words.pack([c]) << (r + i) * words.width | rem[neg(c)] for c in range(1, q)]
        for i, rem in enumerate(remainder_rows(words, cyclic.generator_polynomial(spec), range(n))[r:])
    ]

    def terms(start, left):
        """The sums' other `left` terms, rows from `start` on times a digit,
        as tuples in that order."""
        if left <= 2:
            for picked in combinations(range(start, k), left):
                yield from product(*(rows[i] for i in picked))
            return
        for i in range(start, k - left + 1):
            for x in rows[i]:
                for tail in terms(i + 1, left - 1):
                    yield (x, *tail)

    def lightest(w):
        return min(
            (reduce(add, tail, rows[first][0]) for first in range(k) for tail in terms(first + 1, w - 1)),
            key=weight,
        )

    w, best, found = 1, lightest(1), 1
    while weight(best) * k > n * (w + 1) + k - 1:
        w += 1
        best, found = min((best, found), (lightest(w), w), key=lambda x: weight(x[0]))
    return weight(best), tuple(words.digits(best)), found


def scan_code_rows(defining_set, n: int, search_w: bool):
    """([(w, D_C row stepped by w)], stabilizer) as nzl._code_rows builds
    them, with the rows as 0/1 bytes in place of its digits "0"/"1" and
    without the layers: one step per orbit of the stabilizer, which is found
    by testing every member of D_C."""
    in_c = bytearray(n)
    for i in defining_set:
        in_c[i % n] = 1
    in_c = bytes(in_c)
    if not (search_w and n > 1):
        return [(1 % n, in_c)], (1,)
    stab = [s for s in range(1, n) if math.gcd(s, n) == 1]
    for i in range(n):
        if in_c[i]:
            stab = [s for s in stab if in_c[s * i % n]]
    stab = tuple(stab)
    return [(w, (in_c * w)[::w]) for w in cyclic._orbit_reps(n, stab)], stab


def scan(n: int, code_rows, locator, floor: int):
    """nzl._scan without the Hartmann-Tzeng layer test: the cover of every
    step is built, and DegenerateCover is raised when a cover has no gap."""
    n_l = locator.n_l
    if math.gcd(n, n_l) != 1:
        raise NotCoprime(f"gcd({n}, {n_l}) != 1")
    in_l = {i % n_l for i in locator.defining_set}
    rows, stab = code_rows
    total = n * n_l
    ones = b"\1" * n
    best = None  # (-mu, e, t_l, w)
    longest = b"\1" * max(floor, 1)
    for w, code_row in rows:
        cover = bytearray(code_row * n_l)
        for t in in_l:
            cover[t::n_l] = ones
        z = cover.find(0)
        if z < 0:
            raise nzl.DegenerateCover("the code and locator zero sets cover every index")
        cover = cover[z:] + cover[:z]
        if longest not in cover:
            continue
        while longest + b"\1" in cover:
            longest += b"\1"
        mu = len(longest) + 1
        run = b"\0" + longest
        at = cover.find(run)
        while at >= 0:
            first = (z + at + 1) % total
            e, t_l = w * first % n, first % n_l
            for s in stab:
                cand = (-mu, s * e % n, t_l, s * w % n)
                if best is None or cand < best:
                    best = cand
            at = cover.find(run, at + mu)
    if best is None:
        if floor:
            return None
        return nzl.NzlCertificate(0, 1 % n, 0, 1, nzl.nzl_bound(1, locator.d_l), locator)
    neg_mu, e, t_l, w = best
    mu = -neg_mu
    return nzl.NzlCertificate(e, w, t_l, mu, nzl.nzl_bound(mu, locator.d_l), locator)


def mu_search(defining_set, n: int, locator, *, search_w: bool = True):
    """nzl.mu_search on the reference scan."""
    return scan(n, scan_code_rows(defining_set, n, search_w), locator, 0)


def ranked_certificates(code, *, search_w: bool = True):
    """The certificate of every locator of nzl.candidate_locators on the
    reference scan at floor 0, sorted by nzl.certificate_rank, ties in
    candidate order: nzl.best_certificate gives the first, and decode's
    walk past locators over the field cap gives them in this order."""
    rows = scan_code_rows(code.defining_set, code.n, search_w)
    certs = (scan(code.n, rows, loc, 0) for loc in nzl.candidate_locators(code.n, code.q))
    return sorted(certs, key=nzl.certificate_rank)


def layer_code_rows(defining_set, n: int, search_w: bool):
    """The rows of nzl._code_rows as the per-step layer test read them:
    ([(w, D_C row stepped by w as 0/1 bytes, layers)], stabilizer), with
    layers[r - 1] the n-bit step-w Hartmann-Tzeng layer
    T_r(w) = {a : a, a + w, ..., a + (r - 1)w in D_C} of D_C itself, for
    r = 1 .. nzl.MAX_N_L, 0 once empty."""
    rows, stab = scan_code_rows(defining_set, n, search_w)
    mask = sum(1 << a for a in range(n) if rows[0][1][a])
    out = []
    for w, row in rows:
        layers, t = [0] * nzl.MAX_N_L, mask
        for r in range(nzl.MAX_N_L):
            if not t:
                break
            layers[r] = t
            t &= (t >> w) | (t << (n - w))
        out.append((w, row, layers))
    return out, stab


def layer_scan(n: int, code_rows, locator, floor: int, built: list):
    """nzl._scan with its layer tests run step by step, on each step's own
    layers T_r(w) of D_C, with L the run still needed when the step comes
    up, m the longest block of residues outside D_L, p the period of D_L
    and k = floor((L - m + 1)/p):
    - k > 0: the step is skipped when T_m(w) has no k-run at step w*p;
    - k = 0: it is skipped when T_s(w) is empty, s = s[L] the stretch
      outside D_L that every window of L residues holds (s = 0 skips none).
    The scan opens at the longest D_C run that some step's own layers show,
    as nzl._scan opens at its number of nonempty packed layers.
    `code_rows` come from layer_code_rows.  Appends to `built` the step of
    each cover it builds."""
    n_l = locator.n_l
    if math.gcd(n, n_l) != 1:
        raise NotCoprime(f"gcd({n}, {n_l}) != 1")
    in_l, m, p, stretch = nzl._locator_zeros(n_l, tuple(locator.defining_set))
    rows, stab = code_rows
    if not m or 0 not in rows[0][1]:
        raise nzl.DegenerateCover("the code and locator zero sets cover every index")
    m = min(m, nzl.MAX_N_L)
    total = n * n_l
    ones = b"\1" * n
    best = None  # (-mu, e, t_l, w)
    top = max(sum(1 for t in layers if t) for _, _, layers in rows)
    longest = b"\1" * max(floor, 1, top)
    for w, code_row, layers in rows:
        k = (len(longest) - m + 1) // p
        if k > 0:
            t, step = layers[m - 1], w * p % n
            back = n - step
            while t and k > 1:
                t &= (t >> step) | (t << back)
                k -= 1
            if not t:
                continue
        elif stretch[len(longest)] and not layers[min(stretch[len(longest)], nzl.MAX_N_L) - 1]:
            continue
        built.append(w)
        cover = bytearray(code_row * n_l)
        for t in in_l:
            cover[t::n_l] = ones
        z = cover.find(0)
        cover = cover[z:] + cover[:z]
        if longest not in cover:
            continue
        while longest + b"\1" in cover:
            longest += b"\1"
        mu = len(longest) + 1
        run = b"\0" + longest
        at = cover.find(run)
        while at >= 0:
            first = (z + at + 1) % total
            e, t_l = w * first % n, first % n_l
            for s in stab:
                cand = (-mu, s * e % n, t_l, s * w % n)
                if best is None or cand < best:
                    best = cand
            at = cover.find(run, at + mu)
    if best is None:
        if floor:
            return None
        return nzl.NzlCertificate(0, 1 % n, 0, 1, nzl.nzl_bound(1, locator.d_l), locator)
    neg_mu, e, t_l, w = best
    mu = -neg_mu
    return nzl.NzlCertificate(e, w, t_l, mu, nzl.nzl_bound(mu, locator.d_l), locator)
