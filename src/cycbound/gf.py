"""Table-based finite fields GF(p^m) and polynomial arithmetic over them.

Field elements are integers in [0, p^m): the base-p digits of the integer
are the coordinates in the polynomial basis, digit i holding the
coefficient of x^i for x a fixed root of the chosen primitive polynomial.
The multiplicative group goes through log/antilog tables with respect to
the generator x, so mul/div/pow are table lookups.  Addition is XOR in
characteristic two.  In odd characteristic it goes through Zech logarithms,
z[i] = log(1 + x^i), so that a + b = a * (1 + b/a) is three table lookups;
the Zech table is built on the first odd-characteristic addition.

Primitive polynomials are found by exhaustive search in lexicographic
order (coefficients compared constant term first).  A candidate is
accepted when the residue class of x has multiplicative order p^m - 1 in
the quotient ring; that order forces the quotient to be a field, so no
separate irreducibility test is needed; for m >= 3 a root test in GF(p)
and the test x^(p^m - 1) = 1 reject most candidates before it.
Construction is deterministic, cached per (p, m), and the resulting context
is immutable apart from the lazily built Zech table, hence safe to share
between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

MAX_FIELD_SIZE = 1 << 20


class CompositeCharacteristic(ValueError):
    """The requested characteristic is not a prime."""


class FieldTooLarge(ValueError):
    """p^m exceeds the table-based representation bound."""


class OrderDoesNotDivide(ValueError):
    """Asked for an n-th root of unity with n not dividing p^m - 1."""


class FieldMismatch(ValueError):
    """Operands belong to different field contexts."""


class NotCoprime(ValueError):
    """Two integers that must be coprime are not."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


def _has_root_in_prime_field(coeffs: tuple[int, ...], p: int) -> bool:
    for a in range(p):
        v = 0
        for c in reversed(coeffs):
            v = (v * a + c) % p
        if v == 0:
            return True
    return False


def _is_primitive_poly(coeffs: tuple[int, ...], p: int, m: int) -> bool:
    # The product of the roots, (-1)^m f(0), is the norm of a root, and the
    # norm of a primitive element of GF(p^m) is a primitive element of GF(p)
    # (Lidl & Niederreiter, Finite Fields, Thm 3.18).  This O(1) test keeps
    # phi(p - 1) of the p constant terms, before any x-power.
    norm = coeffs[0] if m % 2 == 0 else -coeffs[0] % p
    if norm == 0 or any(pow(norm, (p - 1) // ell, p) == 1 for ell in prime_factors(p - 1)):
        return False
    n_units = p**m - 1
    one = [0] * m
    one[0] = 1
    # From degree 3 on, two cheaper necessary conditions reject most
    # candidates first: no root in GF(p) (a reducible f leaves fewer than
    # p^m - 1 units) and x^(p^m - 1) = 1.  Quadratics skip them: for odd p
    # the first order test below (ell = 2) already rejects (x - a)(x - b)
    # with a != b.
    if m >= 3 and (_has_root_in_prime_field(coeffs, p) or _x_power(n_units, coeffs, p, m) != one):
        return False
    for ell in prime_factors(n_units):
        if _x_power(n_units // ell, coeffs, p, m) == one:
            return False
    return _x_power(n_units, coeffs, p, m) == one


class FieldCtx:
    """Arithmetic context for GF(p^m).  Obtain instances via build_field.

    For odd p, add/neg/sub work on logarithms.  The Zech table z[i] =
    log(1 + x^i), with -1 where 1 + x^i = 0, is built by zech() on first use
    (binary fields never build it).  The build is deterministic, so two
    threads racing on it only duplicate work.
    """

    __slots__ = ("spec", "p", "m", "order", "n_units", "log", "antilog", "_zech")

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

    def __repr__(self) -> str:
        return f"FieldCtx(GF({self.p}^{self.m}))"

    @property
    def generator(self) -> int:
        return self.exp(1)

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

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

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


_FIELD_CACHE: dict[tuple[int, int], FieldCtx] = {}


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
    key = (p, m)
    ctx = _FIELD_CACHE.get(key)
    if ctx is not None:
        return ctx
    for low in product(range(p), repeat=m):
        cand = (*low, 1)
        if _is_primitive_poly(cand, p, m):
            ctx = FieldCtx(FieldSpec(p, m, cand))
            _FIELD_CACHE[key] = ctx
            return ctx
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


def horner(ctx: FieldCtx, coeffs, x: int) -> int:
    """Evaluate a low-to-high coefficient sequence of field elements at x."""
    if x == 0:
        return coeffs[0] if len(coeffs) else 0
    log, antilog, n = ctx.log, ctx.antilog, ctx.n_units
    lx = log[x]
    if ctx.p == 2:
        acc = 0
        for c in reversed(coeffs):
            acc = (antilog[(log[acc] + lx) % n] ^ c) if acc else c
        return acc
    # Odd p: carry log(acc), -1 for zero, and add c by its Zech logarithm.
    z = ctx.zech()
    la = -1
    for c in reversed(coeffs):
        if la < 0:
            if c:
                la = log[c]
        elif c:
            la += lx
            k = z[(log[c] - la) % n]
            la = (la + k) % n if k >= 0 else -1
        else:
            la = (la + lx) % n
    return antilog[la] if la >= 0 else 0


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


def neg_one_digit(p: int, m: int) -> int:
    """The DigitField(p^m) digit of -1, without building the field: 1 in
    characteristic 2, the residue p - 1 in a prime field, otherwise the
    digit (p^m + 1)/2 of -1 = w^((p^m - 1)/2)."""
    if p == 2:
        return 1
    if m == 1:
        return p - 1
    return (p**m + 1) // 2


_SUBFIELD_CACHE: dict[tuple[int, int, int], tuple[tuple[int, ...], dict[int, int]]] = {}


def subfield_digit_maps(ctx: FieldCtx, q: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """(digit -> element, element -> digit) tables for the order-q subfield.

    The embedding is aligned with DigitField(q): for prime powers the digit
    generator w is located inside ctx as a root of DigitField(q)'s primitive
    polynomial, so the digit arithmetic transfers as a field isomorphism and
    not merely a multiplicative one.
    """
    key = (ctx.p, ctx.m, q)
    cached = _SUBFIELD_CACHE.get(key)
    if cached is not None:
        return cached
    p, a = prime_power(q)
    if p != ctx.p or ctx.m % a:
        raise FieldMismatch(f"GF({q}) is not a subfield of GF({ctx.p}^{ctx.m})")
    if a == 1:
        to_elt = tuple(range(p))
    else:
        small = build_field(p, a)
        pi = small.spec.prim_poly
        step = ctx.n_units // (q - 1)
        w = 0
        for t in range(1, q - 1):
            x = ctx.exp(step * t)
            if horner(ctx, pi, x) == 0:
                w = x
                break
        if w == 0:
            raise AssertionError("subfield generator not found")  # unreachable
        elems = [0] * q
        cur = 1
        for d in range(1, q):
            elems[d] = cur
            cur = ctx.mul(cur, w)
        to_elt = tuple(elems)
    to_digit = {e: d for d, e in enumerate(to_elt)}
    result = (to_elt, to_digit)
    _SUBFIELD_CACHE[key] = result
    return result


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
    def one(cls, field: FieldCtx) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldCtx) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field: FieldCtx, degree: int, coeff: int = 1) -> "Poly":
        return cls(field, (0,) * degree + (coeff,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "Poly"):
        if self.field is not other.field:
            raise FieldMismatch("polynomials over different field contexts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, tuple(out))

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, tuple(f.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Poly(f, tuple(out))

    def scale(self, c: int) -> "Poly":
        f = self.field
        if c == 0:
            return Poly.zero(f)
        return Poly(f, tuple(f.mul(a, c) for a in self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        f = self.field
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        lead_inv = f.inv(other.coeffs[-1])
        quo = [0] * max(dn - dd + 1, 0)
        for i in range(dn - dd, -1, -1):
            c = rem[i + dd]
            if c:
                qc = f.mul(c, lead_inv)
                quo[i] = qc
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] = f.sub(rem[i + j], f.mul(qc, oc))
        return Poly(f, tuple(quo)), Poly(f, tuple(rem))

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        return horner(self.field, self.coeffs, x)

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            k = i % f.p
            out.append(f.mul(self.coeffs[i], k) if k else 0)
        return Poly(f, tuple(out))

    def monic(self) -> "Poly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    a._check(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def extended_euclid_step_sequence(A: Poly, B: Poly, stop_degree: int) -> tuple[Poly, Poly]:
    """Remainder sequence r_{-1}=A, r_0=B with B-cofactors u_j.

    Returns the first pair (r_j, u_j) with deg r_j < stop_degree, where
    u_j * B = r_j (mod A).  Should the sequence hit a zero remainder before
    crossing the threshold, the last nonzero pair (the gcd and its
    cofactor) is returned, so stop_degree=0 yields the gcd up to a unit.
    """
    A._check(B)
    if B.is_zero() or not A.degree > B.degree:
        raise ValueError("need deg A > deg B >= 0")
    r_prev, r_cur = A, B
    u_prev, u_cur = Poly.zero(A.field), Poly.one(A.field)
    while r_cur.degree >= stop_degree:
        q, rem = divmod(r_prev, r_cur)
        if rem.is_zero():
            break
        r_prev, r_cur = r_cur, rem
        u_prev, u_cur = u_cur, u_prev - q * u_cur
    return r_cur, u_cur
