"""Table-based finite fields GF(p^m) and packed words over them.

Field elements are integers in [0, p^m): the base-p digits of the integer
are the coordinates in the polynomial basis, digit i holding the
coefficient of x^i for x a fixed root of the chosen primitive polynomial.
The multiplicative group goes through log/antilog tables with respect to
the generator x, so mul/div/pow are table lookups.  Addition is XOR in
characteristic two.  In odd characteristic it goes through Zech logarithms,
z[i] = log(1 + x^i), so that a + b = a * (1 + b/a) is three table lookups;
the Zech table is built on the first odd-characteristic addition.
Every polynomial evaluation goes through one kernel, FieldCtx.evaluate,
which sums the terms of a polynomial given by the logarithms of its
nonzero coefficients at many points given by their logarithms, except the
decoder's syndromes and root scan, which sum packed rows built once per
decoding context; and every polynomial with given roots is built by
root_product.  PackedLanes
packs a word of GF(p^a) elements into one int, one bit per GF(2) digit and
a few bits (or, on request, a byte) per base-p digit otherwise, with
lane-wise addition and scaling by GF(p), a weight and a zero-coordinate
test; PackedWords does so for a word over GF(q), read back by digits, and
scales one by every digit (for prime q the lane multiples of one pack);
remainder_rows builds the packed rows c * (x^i mod g) that the oracle (i
from deg g) and the decoder (i from 0) sum.

Primitive polynomials are found by exhaustive search in lexicographic
order (coefficients compared constant term first), over the constant terms
whose norm is primitive in GF(p) only.  A candidate is
accepted when the residue class of x has multiplicative order p^m - 1 in
the quotient ring; that order forces the quotient to be a field, so no
separate irreducibility test is needed; for m >= 3 a root test in GF(p)
and the test x^(p^m - 1) = 1 reject most candidates before it.  For p = 2
the residues are ints, bit i the x^i coefficient, multiplied by
shift-and-XOR as the table loop of FieldCtx steps x; odd p works on digit
lists.
Construction is deterministic and kept in one bounded cache per (p, m),
and the resulting context is immutable apart from the lazily built Zech
table and subfield digit maps, hence safe to share between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product, repeat

MAX_FIELD_SIZE = 1 << 20
# Fields build_field keeps: a sweep over small codes reads about a dozen, and
# GF(2^20) alone takes 80 MB, so the bound decides how many tables stay alive.
MAX_FIELDS = 16


class CompositeCharacteristic(ValueError):
    """The requested characteristic is not a prime."""


class FieldTooLarge(ValueError):
    """p^m exceeds the table-based representation bound."""


class OrderDoesNotDivide(ValueError):
    """Asked for an n-th root of unity with n not dividing p^m - 1."""


class FieldMismatch(ValueError):
    """A field is not a subfield of the given field context."""


class NotCoprime(ValueError):
    """Two integers that must be coprime are not."""


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^a with p prime; raises ValueError otherwise."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    ps = prime_factors(q)
    if len(ps) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = ps[0]
    a = 0
    while q > 1:
        q //= p
        a += 1
    return p, a


@dataclass(frozen=True)
class FieldSpec:
    """Construction data of GF(p^m): prim_poly[i] is the x^i coefficient."""

    p: int
    m: int
    prim_poly: tuple[int, ...]


def _mulmod(a: list[int], b: list[int], f: tuple[int, ...], p: int, m: int) -> list[int]:
    # Schoolbook product of two residues (length-m digit lists) mod the
    # monic polynomial f of degree m.
    res = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    for d in range(2 * m - 2, m - 1, -1):
        c = res[d]
        if c:
            res[d] = 0
            for j in range(m):
                res[d - m + j] = (res[d - m + j] - c * f[j]) % p
    return res[:m]


def _x_power(e: int, f: tuple[int, ...], p: int, m: int) -> list[int]:
    # x^e in GF(p)[x]/(f) by square and multiply.
    if m == 1:
        base = [(-f[0]) % p]
    else:
        base = [0] * m
        base[1] = 1
    result = [0] * m
    result[0] = 1
    while e:
        if e & 1:
            result = _mulmod(result, base, f, p, m)
        base = _mulmod(base, base, f, p, m)
        e >>= 1
    return result


def _mulmod_gf2(a: int, b: int, f: int, m: int) -> int:
    # Product of two residues of GF(2)[x] mod f of degree m, each an int with
    # bit i the x^i coefficient: shift-and-XOR, a times x reduced as
    # FieldCtx's table loop steps it.
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= f
    return res


def _x_power_gf2(e: int, f: int, m: int) -> int:
    # x^e in GF(2)[x]/(f) by square and multiply, on ints.
    base = 2 if m > 1 else 1  # x, which is 1 mod x + 1
    result = 1
    while e:
        if e & 1:
            result = _mulmod_gf2(result, base, f, m)
        base = _mulmod_gf2(base, base, f, m)
        e >>= 1
    return result


def _has_root_in_prime_field(coeffs: tuple[int, ...], p: int) -> bool:
    for a in range(p):
        v = 0
        for c in reversed(coeffs):
            v = (v * a + c) % p
        if v == 0:
            return True
    return False


def _is_primitive_poly(coeffs: tuple[int, ...], p: int, m: int) -> bool:
    # Only called with a constant term that passes the norm test of build_field.
    n_units = p**m - 1
    if p == 2:
        x_power, one = partial(_x_power_gf2, f=sum(c << i for i, c in enumerate(coeffs)), m=m), 1
    else:
        x_power, one = partial(_x_power, f=coeffs, p=p, m=m), [1] + [0] * (m - 1)
    # From degree 3 on, two cheaper necessary conditions reject most
    # candidates first: no root in GF(p) (a reducible f leaves fewer than
    # p^m - 1 units) and x^(p^m - 1) = 1.  Quadratics skip them: for odd p
    # the first order test below (ell = 2) already rejects (x - a)(x - b)
    # with a != b.
    if m >= 3 and (_has_root_in_prime_field(coeffs, p) or x_power(n_units) != one):
        return False
    for ell in prime_factors(n_units):
        if x_power(n_units // ell) == one:
            return False
    return x_power(n_units) == one


class FieldCtx:
    """Arithmetic context for GF(p^m).  Obtain instances via build_field.

    For odd p, add and neg work on logarithms.  The Zech table z[i] =
    log(1 + x^i), with -1 where 1 + x^i = 0, is built by zech() on first use
    (binary fields never build it), and so are the subfield_digit_maps of
    each subfield.  The builds are deterministic, so two threads racing on
    one only duplicate work.
    """

    __slots__ = ("spec", "p", "m", "order", "n_units", "log", "antilog", "_zech", "_digit_maps")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        p, m = spec.p, spec.m
        self.p = p
        self.m = m
        self.order = p**m
        self.n_units = self.order - 1
        n_units = self.n_units
        antilog = [0] * max(n_units, 1)
        log = [0] * self.order
        if p == 2:
            prim_int = 0
            for i, c in enumerate(spec.prim_poly):
                prim_int |= c << i
            v = 1
            for i in range(n_units):
                antilog[i] = v
                log[v] = i
                v <<= 1
                if (v >> m) & 1:
                    v ^= prim_int
            if n_units and v != 1:
                raise AssertionError("generator cycle did not close")
        else:
            cur = [0] * m
            cur[0] = 1
            f = spec.prim_poly
            for i in range(n_units):
                enc = 0
                for d in reversed(cur):
                    enc = enc * p + d
                antilog[i] = enc
                log[enc] = i
                top = cur[-1]
                cur = [0] + cur[:-1]
                if top:
                    for j in range(m):
                        cur[j] = (cur[j] - top * f[j]) % p
            if n_units and (cur[0] != 1 or any(cur[1:])):
                raise AssertionError("generator cycle did not close")
        if n_units == 0:
            antilog[0] = 1
        self.log = log
        self.antilog = antilog
        self._zech = None
        self._digit_maps = {}

    def __repr__(self) -> str:
        return f"FieldCtx(GF({self.p}^{self.m}))"

    def exp(self, i: int) -> int:
        return self.antilog[i % self.n_units] if self.n_units else 1

    def zech(self) -> list[int]:
        """The Zech table of an odd-characteristic field, built on first call."""
        z = self._zech
        if z is None:
            # 1 + x^i differs from x^i in digit 0 only, so each entry is O(1).
            p, log = self.p, self.log
            z = []
            for v in self.antilog:
                w = v + 1 if v % p != p - 1 else v + 1 - p
                z.append(log[w] if w else -1)
            self._zech = z
        return z

    def evaluate(self, terms, points) -> list[int]:
        """The polynomial sum of c_i * x^i, given as the (i, log c_i) pairs of
        its nonzero terms, evaluated at each x = g^l for l in points (g the
        generator): every term is one antilog lookup, and the terms are summed
        by XOR in characteristic 2 and by Zech logarithms otherwise."""
        antilog, n_units = self.antilog, self.n_units
        out = []
        if self.p == 2:
            for lx in points:
                acc = 0
                for i, l in terms:
                    acc ^= antilog[(l + i * lx) % n_units]
                out.append(acc)
            return out
        z = self.zech()
        for lx in points:
            acc = -1
            for i, l in terms:
                t = (l + i * lx) % n_units
                if acc < 0:
                    acc = t
                else:
                    k = z[(t - acc) % n_units]
                    acc = (acc + k) % n_units if k >= 0 else -1
            out.append(antilog[acc] if acc >= 0 else 0)
        return out

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        n, log = self.n_units, self.log
        la = log[a]
        k = (self._zech or self.zech())[(log[b] - la) % n]
        return self.antilog[(la + k) % n] if k >= 0 else 0

    def neg(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        # -1 = x^(N/2) for N = p^m - 1 even
        return self.antilog[(self.log[a] + self.n_units // 2) % self.n_units]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.antilog[(self.log[a] + self.log[b]) % self.n_units]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.antilog[(-self.log[a]) % self.n_units]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 1 if e == 0 else 0
        return self.antilog[(self.log[a] * e) % self.n_units]

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("the zero element has no multiplicative order")
        return self.n_units // math.gcd(self.n_units, self.log[a])


@lru_cache(maxsize=MAX_FIELDS)
def build_field(p: int, m: int = 1) -> FieldCtx:
    """GF(p^m) with the lexicographically smallest primitive polynomial.

    Coefficient tuples are compared constant term first, which makes the
    chosen polynomial (and so every downstream table) reproducible.
    """
    if not is_prime(p):
        raise CompositeCharacteristic(f"characteristic {p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be at least 1")
    if p**m > MAX_FIELD_SIZE:
        raise FieldTooLarge(f"{p}^{m} exceeds the table bound 2^20")
    # The product of the roots, (-1)^m f(0), is the norm of a root, and the
    # norm of a primitive element of GF(p^m) is a primitive element of GF(p)
    # (Lidl & Niederreiter, Finite Fields, Thm 3.18).  So only the phi(p - 1)
    # constant terms of primitive norm are enumerated, in ascending order,
    # each followed by the higher coefficients in lexicographic order.
    ells = prime_factors(p - 1)
    for low in range(1, p):
        norm = low if m % 2 == 0 else p - low
        if any(pow(norm, (p - 1) // ell, p) == 1 for ell in ells):
            continue
        for high in product(range(p), repeat=m - 1):
            cand = (low, *high, 1)
            if _is_primitive_poly(cand, p, m):
                return FieldCtx(FieldSpec(p, m, cand))
    raise AssertionError("no primitive polynomial found")  # unreachable


def min_extension_degree(q: int, n: int) -> int:
    """Multiplicative order of q modulo n (smallest s with n | q^s - 1)."""
    if n < 1:
        raise ValueError("length must be positive")
    if n == 1:
        return 1
    if math.gcd(q, n) != 1:
        raise NotCoprime(f"gcd({n}, {q}) != 1")
    t = q % n
    s = 1
    while t != 1:
        t = t * q % n
        s += 1
    return s


def combined_degree(s: int, u: int, s_l: int) -> int:
    """lcm(s, u*s_l): extension degree housing both root orders at once."""
    if min(s, u, s_l) < 1:
        raise ValueError("degrees must be positive")
    return math.lcm(s, u * s_l)


def nth_root_of_unity(ctx: FieldCtx, n: int) -> int:
    """An element of multiplicative order exactly n (n must divide p^m - 1)."""
    if n < 1 or (ctx.n_units % n and n != 1):
        raise OrderDoesNotDivide(f"{n} does not divide {ctx.n_units}")
    if n == 1:
        return 1
    return ctx.exp(ctx.n_units // n)


def root_product(ctx: FieldCtx, root: int, exponents) -> tuple[int, ...]:
    """Coefficients, x^0 first, of the monic prod (x - root^i) over i in
    exponents."""
    coeffs = [1]
    for i in exponents:
        z = ctx.neg(ctx.pow(root, i))  # times x + z
        coeffs = [ctx.add(lo, ctx.mul(z, hi)) for lo, hi in zip([0, *coeffs], [*coeffs, 0])]
    return tuple(coeffs)


class DigitField:
    """GF(q) on digit encodings 0..q-1.

    Prime q uses the natural residue encoding.  For q = p^a the nonzero
    digit d stands for w^(d-1), w the canonical generator of build_field(p, a);
    subfield_digit_maps embeds the same convention into larger contexts, so
    digit arithmetic agrees everywhere.
    """

    __slots__ = ("q", "p", "a", "_ctx")

    def __init__(self, q: int):
        self.p, self.a = prime_power(q)
        self.q = q
        self._ctx = None if self.a == 1 else build_field(self.p, self.a)

    def _to(self, d: int) -> int:
        return 0 if d == 0 else self._ctx.antilog[d - 1]

    def _fr(self, e: int) -> int:
        return 0 if e == 0 else self._ctx.log[e] + 1

    def add(self, x: int, y: int) -> int:
        if self.a == 1:
            return (x + y) % self.p
        return self._fr(self._ctx.add(self._to(x), self._to(y)))

    def neg(self, x: int) -> int:
        if self.a == 1:
            return (-x) % self.p
        return self._fr(self._ctx.neg(self._to(x)))

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.a == 1:
            return x * y % self.p
        return self._fr(self._ctx.mul(self._to(x), self._to(y)))


class PackedLanes:
    """Words of n coordinates in GF(p^a) packed into one int each, so that
    adding two words or finding their zero coordinates costs a few int
    operations.

    Coordinate i holds the a base-p digits of its element (the FieldCtx
    encoding of GF(p^a)), digit j in lane i*a + j of b bits.  Over GF(2)
    b = 1, as the bit is its own nonzero test.  Otherwise b =
    bit_length(2p - 2) + 1: a lane holds the sum of two digits, at most
    2p - 2 < 2^(b-1), so its top bit is clear.  A caller may ask for wider
    lanes: the decoder's rows for p < 65 take lane_bits = 8, one byte per
    digit, and reduce their sums mod p byte by byte.  In characteristic 2
    words add by XOR.  Otherwise two words are added as ints, and p is subtracted
    from each lane whose sum s is at least p, which is where s + 2^(b-1) - p
    sets the top bit.  A coordinate of a*b bits is nonzero exactly when its
    value plus 2^(ab-1) - 1 sets its top bit, so the weight is one masked add
    and a bit count, or a bit count alone when b = 1.
    """

    __slots__ = ("p", "a", "n", "lane_bits", "width", "every", "add", "weight", "_nz_bias", "_nz_top")

    def __init__(self, p: int, a: int, n: int, lane_bits: int | None = None):
        self.p, self.a, self.n = p, a, n
        if lane_bits is None:
            lane_bits = 1 if (p, a) == (2, 1) else (2 * p - 2).bit_length() + 1
        self.lane_bits = b = lane_bits
        self.width = width = a * b
        # 1 in each coordinate, as a repunit in base 2^width (linear time)
        self.every = every = ((1 << n * width) - 1) // ((1 << width) - 1)
        self._nz_bias = nz_bias = every * ((1 << width - 1) - 1)
        self._nz_top = nz_top = every << width - 1
        self.weight = int.bit_count if width == 1 else lambda x: ((x + nz_bias) & nz_top).bit_count()
        if p == 2:
            self.add = operator.xor
            return
        lane = every * sum(1 << j * b for j in range(a))  # 1 in each lane
        bias, top, shift = lane * ((1 << b - 1) - p), lane << b - 1, b - 1

        def add(x: int, y: int) -> int:
            s = x + y
            return s - ((s + bias & top) >> shift) * p

        self.add = add

    def pack_elements(self, elements) -> int:
        """The word whose coordinate i holds elements[i], in linear time.  In
        characteristic 2 the elements are read as one binary string of
        width-bit fields and each digit plane is shifted into its lane;
        otherwise each coordinate's lanes are written out as binary."""
        p, a, b, width = self.p, self.a, self.lane_bits, self.width
        if p == 2:
            spec = f"0{width}b"
            staged = int("".join([format(e, spec) for e in reversed(elements)]) or "0", 2)
            return sum((staged >> j & self.every) << j * b for j in range(a))
        lane = f"0{b}b"
        bits = "".join([format(e // p**j % p, lane)
                        for e in reversed(elements) for j in range(a - 1, -1, -1)])
        return int(bits or "0", 2)

    def multiples(self, x: int) -> list[int]:
        """c * x, every lane times c in GF(p), for c = 0, ..., p - 1."""
        out = [0, x]
        for _ in range(self.p - 2):
            out.append(self.add(out[-1], x))
        return out

    def times(self, x: int, c: int) -> int:
        """c * x, every lane times c in GF(p), for c >= 1: doubled and added
        from the top bit of c down, so O(log c) lane adds."""
        out = x
        for bit in format(c, "b")[1:]:
            out = self.add(out, out)
            if bit == "1":
                out = self.add(out, x)
        return out

    def zeros(self, x: int) -> list[int]:
        """The coordinates of x that are zero, ascending."""
        z = self._nz_top & ~(x + self._nz_bias)
        out = []
        while z:
            low = z & -z
            out.append(low.bit_length() // self.width - 1)
            z ^= low
        return out


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class PackedWords(PackedLanes):
    """Words of length n over GF(q) packed as PackedLanes words, coordinate i
    holding the element of GF(p^a) that its DigitField digit stands for."""

    __slots__ = ("df", "units", "_bits", "_digit_of")

    def __init__(self, q: int, n: int, lane_bits: int | None = None):
        self.df = df = DigitField(q)
        super().__init__(df.p, df.a, n, lane_bits)
        p, a, b = df.p, df.a, self.lane_bits
        elements = range(q) if a == 1 else map(df._to, range(q))
        # units[d] = pack([d]), digit d at coordinate 0
        self.units = units = [sum(e // p**j % p << j * b for j in range(a)) for e in elements]
        self._bits = [format(u, f"0{self.width}b") for u in units]
        self._digit_of = {u: d for d, u in enumerate(units)}

    def pack(self, digits) -> int:
        """The word of a sequence of digits, written out as binary."""
        bits = self._bits
        return int("".join([bits[d] for d in reversed(digits)]) or "0", 2)

    def digits(self, x: int) -> list[int]:
        """The n digits of a packed word, the inverse of pack.  With one bit
        per coordinate (GF(2)) they are the binary string of x, read from
        its low end below a marker bit at n, as 0/1 bytes."""
        digit_of, width = self._digit_of, self.width
        if width == 1:
            return list(format(x | 1 << self.n, "b")[:0:-1].encode().translate(_BIT_BYTES))
        mask = (1 << width) - 1
        return [digit_of[x >> i * width & mask] for i in range(self.n)]

    def scaled(self, digits) -> list[int]:
        """pack(c * digits) for c = 1, ..., q - 1.  For prime q a digit is its
        element, so these are the lane multiples of one pack; otherwise
        only the digits that occur are multiplied, so the cost is (q - 1)
        times their number."""
        if self.a == 1:
            return self.multiples(self.pack(digits))[1:]
        mul, occurring = self.df.mul, set(digits)
        out = []
        for c in range(1, self.df.q):
            times = {d: mul(c, d) for d in occurring}
            out.append(self.pack([times[d] for d in digits]))
        return out


def remainder_rows(words: PackedWords, g, exponents: range) -> list[tuple[int, ...]]:
    """rows[j][c] = words.pack(c * (x^i mod g)) for i the j-th member of
    `exponents`, a range of step 1 starting at most at r = deg g, and every
    digit c of GF(q), g monic in GF(q) digits and `words` over at least r
    coordinates.  A range from r starts at the row x^r mod g, which is
    also the fold: x times a row moves it up one coordinate and folds its
    top digit t back as the row t * (x^r mod g), so a row costs q - 1
    shifts and adds, made one digit c at a time."""
    r, q = len(g) - 1, words.df.q
    add, width, units = words.add, words.width, words.units
    g_rows = words.scaled(g[:r])
    x_r = (0, *[g_rows[words.df.neg(c) - 1] for c in range(1, q)])
    fold = dict(zip(units, x_r))
    top = max(r - 1, 0) * width
    low, i = (1 << top) - 1, exponents.start
    columns = []
    for x in x_r[1:] if i == r else [u << i * width for u in units[1:]]:
        column = []
        for _ in exponents:
            column.append(x)
            x = add((x & low) << width, fold[x >> top])
        columns.append(column)
    return list(zip(repeat(0), *columns))


def neg_one_digit(p: int, m: int) -> int:
    """The DigitField(p^m) digit of -1, without building the field: 1 in
    characteristic 2, the residue p - 1 in a prime field, otherwise the
    digit (p^m + 1)/2 of -1 = w^((p^m - 1)/2)."""
    if p == 2:
        return 1
    if m == 1:
        return p - 1
    return (p**m + 1) // 2


def subfield_digit_maps(ctx: FieldCtx, q: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """(digit -> element, element -> digit) tables for the order-q subfield,
    built once per field and q.

    The embedding is aligned with DigitField(q): for prime powers the digit
    generator w is located inside ctx as a root of DigitField(q)'s primitive
    polynomial, so the digit arithmetic transfers as a field isomorphism and
    not merely a multiplicative one.
    """
    if q in ctx._digit_maps:
        return ctx._digit_maps[q]
    p, a = prime_power(q)
    if p != ctx.p or ctx.m % a:
        raise FieldMismatch(f"GF({q}) is not a subfield of GF({ctx.p}^{ctx.m})")
    if a == 1:
        to_elt = tuple(range(p))
    else:
        pi = build_field(p, a).spec.prim_poly
        step = ctx.n_units // (q - 1)
        points = [step * t for t in range(1, q - 1)]
        values = ctx.evaluate([(i, ctx.log[c]) for i, c in enumerate(pi) if c], points)
        if 0 not in values:
            raise AssertionError("subfield generator not found")  # unreachable
        w = ctx.exp(points[values.index(0)])
        to_elt = (0, *(ctx.pow(w, d - 1) for d in range(1, q)))
    return ctx._digit_maps.setdefault(q, (to_elt, {e: d for d, e in enumerate(to_elt)}))


def digit_elements(to_elt, word) -> list[int]:
    """The elements of a word of base-q digits under the digit -> element
    table of subfield_digit_maps; ValueError unless every digit is an
    integer in [0, q)."""
    try:
        elts = [to_elt[d] for d in word]
    except (IndexError, TypeError):
        elts = None
    if elts is None or min(word, default=0) < 0:
        raise ValueError(f"digits must be integers in [0, {len(to_elt)})")
    return elts
