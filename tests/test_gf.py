import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbound import gf
from cycbound.gf import (
    CompositeCharacteristic,
    FieldTooLarge,
    NotCoprime,
    OrderDoesNotDivide,
    build_field,
    min_extension_degree,
    nth_root_of_unity,
)
from reference import Poly, extended_euclid_step_sequence, padd, pdivmod, pmod, pmul, pone, psub


def test_prime_field_degenerates():
    f = build_field(2, 1)
    assert f.order == 2
    assert f.spec.prim_poly == (1, 1)
    assert f.add(1, 1) == 0 and f.mul(1, 1) == 1


def test_gf16_primitive_root_order():
    f = build_field(2, 4)
    # exhaustive powering: the root x (encoded 2) must have order 15
    x = 2
    acc = 1
    seen = set()
    for _ in range(15):
        acc = f.mul(acc, x)
        seen.add(acc)
    assert acc == 1 and len(seen) == 15


def test_gf64_contains_order_21_element():
    f = build_field(2, 6)
    a = nth_root_of_unity(f, 21)
    assert f.element_order(a) == 21
    assert f.pow(a, 21) == 1
    assert all(f.pow(a, k) != 1 for k in range(1, 21))


def test_build_field_errors():
    with pytest.raises(CompositeCharacteristic):
        build_field(4, 2)
    with pytest.raises(CompositeCharacteristic):
        build_field(1, 3)
    with pytest.raises(FieldTooLarge):
        build_field(2, 21)


@pytest.mark.parametrize("p,m", [(2, 6), (3, 3), (5, 2), (2, 10)])
def test_tables_against_polynomial_multiplication(p, m):
    # tables must agree with schoolbook multiplication mod the primitive
    # polynomial on every pair (exhaustive up to 2^10)
    f = build_field(p, m)
    coeffs = f.spec.prim_poly

    def digits(v):
        out = []
        for _ in range(m):
            out.append(v % p)
            v //= p
        return out

    def undigits(ds):
        v = 0
        for d in reversed(ds):
            v = v * p + d
        return v

    import random

    rng = random.Random(1)
    pairs = (
        [(a, b) for a in range(f.order) for b in range(f.order)]
        if f.order <= 128
        else [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(4000)]
    )
    for a, b in pairs:
        ref = undigits(gf._mulmod(digits(a), digits(b), coeffs, p, m))
        assert f.mul(a, b) == ref


@pytest.mark.parametrize("p,m", [(2, 8), (3, 4), (7, 2)])
def test_log_law(p, m):
    f = build_field(p, m)
    import random

    rng = random.Random(7)
    for _ in range(500):
        x = rng.randrange(1, f.order)
        y = rng.randrange(1, f.order)
        assert f.log[f.mul(x, y)] == (f.log[x] + f.log[y]) % f.n_units
        assert f.antilog[f.log[x]] == x


def test_min_extension_degree():
    assert min_extension_degree(2, 21) == 6
    assert min_extension_degree(2, 5) == 4
    assert min_extension_degree(2, 1) == 1
    assert min_extension_degree(4, 5) == 2
    with pytest.raises(NotCoprime):
        min_extension_degree(2, 6)


def test_combined_degree():
    assert gf.combined_degree(6, 1, 4) == 12
    assert gf.combined_degree(12, 2, 1) == 12
    assert gf.combined_degree(1, 1, 1) == 1


def test_nth_root_of_unity_orders():
    f = build_field(2, 4)
    assert nth_root_of_unity(f, 1) == 1
    b = nth_root_of_unity(f, 5)
    assert b == f.pow(f.exp(1), 3)  # gamma^(15/5)
    assert f.element_order(b) == 5
    with pytest.raises(OrderDoesNotDivide):
        nth_root_of_unity(f, 7)


_F16 = build_field(2, 4)
_elt = st.integers(min_value=0, max_value=15)
_poly = st.lists(_elt, min_size=0, max_size=8).map(lambda c: Poly(_F16, tuple(c)))

# The ring-law tests run in characteristic 2 (XOR addition) and in odd
# characteristic (Zech-log addition, where neg and sub are not the identity).
_POLY_FIELDS = {"gf16": _F16, "gf27": build_field(3, 3)}


def _elts(field):
    return st.integers(min_value=0, max_value=field.order - 1)


def _polys(field, min_size=0, max_size=8):
    return st.lists(_elts(field), min_size=min_size, max_size=max_size).map(
        lambda c: Poly(field, tuple(c))
    )


@given(_poly, _poly)
@settings(max_examples=200, deadline=None)
def test_poly_degree_law(a, b):
    prod = pmul(a, b)
    if a.is_zero() or b.is_zero():
        assert prod.is_zero()
    else:
        assert prod.degree == a.degree + b.degree


@pytest.mark.parametrize("name", sorted(_POLY_FIELDS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_poly_eval_is_ring_homomorphism(name, data):
    field = _POLY_FIELDS[name]
    a, b = data.draw(_polys(field)), data.draw(_polys(field))
    x = data.draw(_elts(field))
    assert padd(a, b)(x) == field.add(a(x), b(x))
    assert psub(a, b)(x) == field.add(a(x), field.neg(b(x)))
    assert pmul(a, b)(x) == field.mul(a(x), b(x))


@pytest.mark.parametrize("name", sorted(_POLY_FIELDS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_poly_division_algorithm(name, data):
    field = _POLY_FIELDS[name]
    a, b = data.draw(_polys(field)), data.draw(_polys(field))
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            pdivmod(a, b)
        return
    q, r = pdivmod(a, b)
    assert padd(pmul(q, b), r) == a
    assert r.is_zero() or r.degree < b.degree


def test_derivative_characteristic_aware():
    f2 = build_field(2, 1)
    assert Poly(f2, (0, 0, 1)).derivative().is_zero()
    f9 = build_field(3, 2)
    # d/dx of x^3 vanishes in characteristic 3; d/dx of x^2 is 2x
    assert Poly(f9, (0, 0, 0, 1)).derivative().is_zero()
    assert Poly(f9, (0, 0, 1)).derivative() == Poly(f9, (0, 2))


def test_eea_trivial_cases():
    f = build_field(2, 4)
    A = Poly.monomial(f, 3)
    B = Poly(f, (0, 1))
    r, u = extended_euclid_step_sequence(A, B, 2)
    assert r == B and u == pone(f)
    # stop_degree 0 completes to the gcd (up to a unit)
    a = Poly(f, (1, 0, 1))
    b = Poly(f, (1, 1))
    r, u = extended_euclid_step_sequence(pmul(a, b), pmul(b, Poly(f, (3, 1))), 0)
    assert r.scale(f.inv(r.coeffs[-1])) == b.scale(f.inv(b.coeffs[-1]))


def test_field_mismatch_raised():
    # operands from two field contexts are refused, not read with the wrong
    # tables; B's coefficients are valid digits of A's field as well
    A = Poly.monomial(build_field(2, 4), 3)
    B = Poly(build_field(2, 3), (1, 1))
    with pytest.raises(gf.FieldMismatch):
        extended_euclid_step_sequence(A, B, 1)
    with pytest.raises(gf.FieldMismatch):
        gf.subfield_digit_maps(build_field(2, 4), 3)


@pytest.mark.parametrize("name", sorted(_POLY_FIELDS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_eea_invariants(name, data):
    field = _POLY_FIELDS[name]
    A = data.draw(_polys(field, 2, 9))
    B = data.draw(_polys(field, 1, 6))
    stop = data.draw(st.integers(min_value=0, max_value=6))
    if A.is_zero() or B.is_zero() or not A.degree > B.degree:
        return
    # replay the remainder sequence tracking both cofactors
    r_prev, r_cur = A, B
    u_prev, u_cur = Poly.zero(field), pone(field)
    v_prev, v_cur = pone(field), Poly.zero(field)
    while not r_cur.is_zero():
        assert padd(pmul(u_cur, B), pmul(v_cur, A)) == r_cur
        assert u_cur.degree + r_prev.degree == A.degree
        q, rem = pdivmod(r_prev, r_cur)
        r_prev, r_cur = r_cur, rem
        u_prev, u_cur = u_cur, psub(u_prev, pmul(q, u_cur))
        v_prev, v_cur = v_cur, psub(v_prev, pmul(q, v_cur))
    r, u = extended_euclid_step_sequence(A, B, stop)
    assert pmod(pmul(u, B), A) == pmod(r, A)
    assert r.is_zero() is False  # never returns the zero remainder


def test_digit_field_matches_subfield_embedding():
    d4 = gf.DigitField(4)
    big = build_field(2, 6)
    to_elt, to_digit = gf.subfield_digit_maps(big, 4)
    for x in range(4):
        for y in range(4):
            assert to_digit[big.add(to_elt[x], to_elt[y])] == d4.add(x, y)
            assert to_digit[big.mul(to_elt[x], to_elt[y])] == d4.mul(x, y)


def test_digit_field_prime():
    d3 = gf.DigitField(3)
    assert d3.add(2, 2) == 1 and d3.mul(2, 2) == 1 and d3.neg(1) == 2
    big = build_field(3, 2)
    to_elt, _ = gf.subfield_digit_maps(big, 3)
    assert list(to_elt) == [0, 1, 2]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_packed_words_match_digit_field(q, data):
    # the oracle's rows: pack, add, scaled rows and weight against
    # DigitField digit by digit; q = 9 and 25 have odd p and two lanes
    p, a = gf.prime_power(q)
    n = data.draw(st.integers(min_value=0, max_value=30))
    us = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=2, max_size=6))
    df, words = gf.DigitField(q), gf.PackedWords(q, n)
    pack = words.pack
    # coordinate i, lane j holds base-p digit j of the element of digit u[i]
    to_elt, _ = gf.subfield_digit_maps(build_field(p, a), q)
    # of b bits: one bit for a GF(2) digit, room for the sum of two otherwise
    b = 1 if q == 2 else (2 * p - 2).bit_length() + 1
    u = us[0]
    assert pack(u) == sum(to_elt[d] // p**j % p << (i * a + j) * b for i, d in enumerate(u) for j in range(a))
    assert words.scaled(u) == [pack([df.mul(c, d) for d in u]) for c in range(1, q)]
    assert words.units == [pack([d]) for d in range(q)]
    assert words.weight(pack(u)) == n - u.count(0)
    # sums of several words stay reduced lane by lane
    total, packed = us[0], pack(us[0])
    for v in us[1:]:
        total = [df.add(x, y) for x, y in zip(total, v)]
        packed = words.add(packed, pack(v))
        assert packed == pack(total)
        assert words.weight(packed) == n - total.count(0)


@pytest.mark.parametrize("q, lane_bits", [(2, None), (3, None), (5, None), (61, None), (4, None), (9, None),
                                           (25, None), (3, 8), (5, 8), (61, 8), (9, 8), (25, 8)])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_scaled_matches_digit_field_mul(q, lane_bits, data):
    # scaled(u)[c - 1] packs c * u: lane multiples of one pack for prime q,
    # the digits multiplied one by one otherwise; on the default lanes (the
    # oracle's) and on the decoder's byte lanes for odd p < 65
    n = data.draw(st.integers(min_value=0, max_value=30))
    u = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    df, words = gf.DigitField(q), gf.PackedWords(q, n, lane_bits)
    if lane_bits:
        assert words.lane_bits == lane_bits
    scaled = words.scaled(u)
    assert scaled == [words.pack([df.mul(c, d) for d in u]) for c in range(1, q)]
    assert [words.digits(x) for x in scaled] == [[df.mul(c, d) for d in u] for c in range(1, q)]


def _lane_digits(words, x):
    # the per-coordinate lane lookup that digits makes for q > 2
    mask = (1 << words.width) - 1
    return [words._digit_of[x >> i * words.width & mask] for i in range(words.n)]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_binary_digits_match_the_lane_lookup(data):
    # over GF(2) digits is one string conversion, not n dict lookups
    n = data.draw(st.integers(min_value=0, max_value=300))
    x = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    words = gf.PackedWords(2, n)
    assert words.digits(x) == _lane_digits(words, x)


def test_binary_digits_on_every_short_word():
    for n in range(11):
        words = gf.PackedWords(2, n)
        for x in range(1 << n):
            assert words.digits(x) == _lane_digits(words, x) == [x >> i & 1 for i in range(n)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_packed_words_digits_invert_pack(q, data):
    # digits reads the lane layout back; the decoder takes a remainder's
    # terms from it
    n = data.draw(st.integers(min_value=0, max_value=40))
    word = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    words = gf.PackedWords(q, n)
    assert words.digits(words.pack(word)) == word
    assert words.digits(0) == [0] * n


def test_is_prime_matches_sieve():
    limit = 10_000
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, limit):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, limit, i))
    assert [gf.is_prime(n) for n in range(limit)] == sieve
    assert not any(gf.is_prime(n) for n in (-1, -2, -3, -7, -10_007))


def test_neg_one_digit_matches_digit_field():
    # the closed form spc_locator uses instead of building GF(q)
    qs = [q for q in range(2, (1 << 14) + 1) if len(gf.prime_factors(q)) == 1]
    assert len(qs) == 1961
    for q in qs:
        assert gf.neg_one_digit(*gf.prime_power(q)) == gf.DigitField(q).neg(1), q


# --- addition against the digit-wise definition ---------------------------


def _digit_add(p, a, b):
    # GF(p^m) addition by definition: base-p digits added mod p
    r, place = 0, 1
    while a or b:
        r += (a % p + b % p) % p * place
        a, b, place = a // p, b // p, place * p
    return r


def _digit_neg(p, a):
    r, place = 0, 1
    while a:
        r += (-a) % p * place
        a, place = a // p, place * p
    return r


_SMALL_ODD_FIELDS = [
    (p, m) for p in range(3, 244) if gf.is_prime(p) for m in range(1, 6) if p**m <= 243
]


@pytest.mark.parametrize("p,m", _SMALL_ODD_FIELDS)
def test_zech_arithmetic_exhaustive(p, m):
    f = build_field(p, m)
    q = f.order
    neg = [_digit_neg(p, a) for a in range(q)]
    assert [f.neg(a) for a in range(q)] == neg
    for a in range(q):
        assert [f.add(a, b) for b in range(q)] == [_digit_add(p, a, b) for b in range(q)], a
        assert [f.add(a, f.neg(b)) for b in range(q)] == [_digit_add(p, a, neg[b]) for b in range(q)], a


@pytest.mark.parametrize("p,m", [(3, 8), (5, 4), (7, 3)])
def test_zech_arithmetic_sampled(p, m):
    f = build_field(p, m)
    rng = random.Random(p * 100 + m)
    for _ in range(20_000):
        a, b = rng.randrange(f.order), rng.randrange(f.order)
        assert f.add(a, b) == _digit_add(p, a, b)
        assert f.neg(b) == _digit_neg(p, b)
        assert f.add(a, f.neg(b)) == _digit_add(p, a, _digit_neg(p, b))


def test_binary_field_never_builds_zech_table():
    f = build_field(2, 8)
    for a in range(0, 256, 7):
        for b in range(0, 256, 11):
            assert f.add(a, b) == f.add(a, f.neg(b)) == a ^ b and f.neg(a) == a
    assert f.evaluate([(0, 0), (1, 0)], [f.log[3]]) == [2]
    assert Poly(f, (1, 1))(3) == 2
    assert psub(Poly(f, (1, 2, 3)), Poly(f, (1, 2))) == Poly(f, (0, 0, 3))
    assert f._zech is None


def test_horner_matches_plain_evaluation():
    # the evaluation kernel, at many points at once and through Poly.__call__,
    # against Horner's rule on digit vectors; coefficients are zero half the
    # time, and the empty polynomial and x = 0 are among the cases
    rng = random.Random(5)
    for p, m in [(2, 6), (3, 4), (5, 3)]:
        f = build_field(p, m)
        for trial in range(300):
            size = 0 if trial % 50 == 0 else rng.randrange(1, 12)
            coeffs = [rng.randrange(f.order) if rng.random() < 0.5 else 0 for _ in range(size)]
            xs = [0] + [rng.randrange(1, f.order) for _ in range(4)]
            plain = []
            for x in xs:
                acc = 0
                for c in reversed(coeffs):
                    acc = _digit_add(p, f.mul(acc, x), c)
                plain.append(acc)
                assert Poly(f, tuple(coeffs))(x) == acc
            terms = [(i, f.log[c]) for i, c in enumerate(coeffs) if c]
            assert f.evaluate(terms, [f.log[x] for x in xs[1:]]) == plain[1:]


# --- primitive polynomial search against the plain definition ---------------


def _primitive_by_order(coeffs, p, m):
    # x has order exactly p^m - 1: no maximal proper divisor is an order
    if coeffs[0] == 0:
        return False
    n_units = p**m - 1
    one = [1] + [0] * (m - 1)
    for ell in gf.prime_factors(n_units):
        if gf._x_power(n_units // ell, coeffs, p, m) == one:
            return False
    return gf._x_power(n_units, coeffs, p, m) == one


def _reference_primitive(p, m):
    return next((*low, 1) for low in product(range(p), repeat=m) if _primitive_by_order((*low, 1), p, m))


def test_primitive_poly_matches_reference_search():
    fields = [
        (p, m) for p in range(2, 4097) if gf.is_prime(p) for m in range(1, 13) if p**m <= 4096
    ]
    assert len(fields) == 604
    for p, m in fields:
        # the uncached build: the several hundred tables would only evict
        # the session's fields from the bounded field cache
        assert build_field.__wrapped__(p, m).spec.prim_poly == _reference_primitive(p, m), (p, m)


@pytest.mark.parametrize("m", range(13, 21))
def test_binary_primitive_poly_matches_reference_search_past_gf4096(m):
    # the int search of p = 2 against the digit-list _x_power and _mulmod,
    # up to the table cap GF(2^20)
    assert build_field.__wrapped__(2, m).spec.prim_poly == _reference_primitive(2, m)
