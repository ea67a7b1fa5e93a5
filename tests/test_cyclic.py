import gc
import hashlib
import math
import random
import tracemalloc
import weakref
from functools import cache, reduce
from itertools import combinations
from operator import xor

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from cycbound import cyclic, nzl
from cycbound.cyclic import (
    DuplicateCoset,
    PreconditionViolated,
    TooManyCodewords,
    bch_bound,
    build_code,
    cyclotomic_coset,
    distance_three_witness,
    has_distance_two,
    ht_bound,
    lowest_rate_d2_code,
    lowest_rate_d3_code,
    min_distance_oracle,
    verify_bch_witness,
    verify_ht_witness,
)
from cycbound.gf import (
    DigitField,
    NotCoprime,
    PackedWords,
    build_field,
    min_extension_degree,
    prime_power,
    remainder_rows,
    root_product,
    subfield_digit_maps,
)
import reference
from reference import Poly, ht_every_m2, pmod, pmul, pone, qary_oracle


def test_cyclotomic_cosets():
    assert cyclotomic_coset(21, 2, 7) == frozenset({7, 14})
    assert cyclotomic_coset(21, 2, 0) == frozenset({0})
    assert cyclotomic_coset(119, 2, 51) == frozenset({51, 102, 85})
    with pytest.raises(NotCoprime):
        cyclotomic_coset(6, 2, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_coset_table_matches_cyclotomic_coset(q):
    # one table per (n, q): each residue's coset, and its mask, as
    # cyclotomic_coset gives it; coset_partition reads the same table
    for n in range(1, 201):
        if math.gcd(n, q) != 1:
            continue
        table, masks = cyclic._coset_table(n, q), cyclic._coset_masks(n, q)
        assert len(table) == len(masks) == n
        for r in range(n):
            c = cyclotomic_coset(n, q, r)
            assert table[r] == c, (n, r)
            assert masks[r] == sum(1 << i for i in c), (n, r)
        assert cyclic.coset_partition(n, q) == reference.coset_partition(n, q)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as err:
        return type(err), str(err)


@given(q=st.sampled_from([2, 3, 4, 5, 6, 7, 9]), n=st.integers(-2, 200), data=st.data())
@settings(max_examples=300, deadline=None)
def test_coset_layer_matches_reference(q, n, data):
    # build_code, _coset_reps and coset_partition on the table against the
    # cyclotomic_coset-only references, errors included: random exponents
    # (repeats raise DuplicateCoset), then a random member of each of a set
    # of distinct cosets, shifted by a multiple of n
    span = 3 * max(n, 1)
    exponents = data.draw(st.lists(st.integers(-span, span), max_size=12))
    cosets = _outcome(reference.coset_partition, n, q)
    assert _outcome(cyclic.coset_partition, n, q) == cosets
    if isinstance(cosets, list) and cosets:
        chosen = data.draw(st.lists(st.sampled_from(cosets), unique=True))
        members = [data.draw(st.sampled_from(sorted(c))) + n * data.draw(st.integers(-2, 2)) for c in chosen]
    else:
        members = exponents
    for exps in (exponents, members):
        assert _outcome(cyclic._coset_reps, n, q, exps) == _outcome(reference.coset_reps, n, q, exps)
        assert _outcome(build_code, q, n, exps) == _outcome(reference.build_code, q, n, exps)


@pytest.mark.parametrize("f, args, err", [
    (build_code, (2, 21, (1, 2)), DuplicateCoset),
    (build_code, (2, 21, (3, 24)), DuplicateCoset),
    (build_code, (3, 26, (-1, 25)), DuplicateCoset),
    (build_code, (2, 8, (1,)), NotCoprime),
    (build_code, (2, 8, ()), NotCoprime),
    (cyclic._coset_reps, (8, 2, [1]), NotCoprime),
    (cyclic.coset_partition, (9, 3), NotCoprime),
    (build_code, (2, 0, ()), ValueError),
    (build_code, (2, -3, (1,)), ValueError),
    (cyclic._coset_reps, (0, 2, [1]), ValueError),
    (cyclic._coset_reps, (-4, 3, [0]), ValueError),
])
def test_coset_layer_errors_match_reference(f, args, err):
    ref = {build_code: reference.build_code, cyclic._coset_reps: reference.coset_reps,
           cyclic.coset_partition: reference.coset_partition}[f]
    got = _outcome(f, *args)
    assert got == _outcome(ref, *args)
    assert got[0] is err


def test_coset_layer_without_residues_matches_reference():
    # n < 1 has no residues: no cosets, and no representatives of nothing
    for n in (0, -1):
        assert cyclic.coset_partition(n, 2) == reference.coset_partition(n, 2) == []
        assert cyclic._coset_reps(n, 2, []) == reference.coset_reps(n, 2, []) == ()


def _length_parts(q, n):
    """Every part the Lengths of (q, n) and (None, n) keep, with the field
    they read."""
    ctx, alpha = cyclic._code_field(q, n)
    return (cyclic._coset_table(n, q), cyclic._coset_masks(n, q), cyclic._strides(n, q),
            cyclic._units(n), cyclic._orbit_reps(n, frozenset({1, 4, 16})),
            [cyclic._minimal_polynomial(n, q, r) for r in (0, 1, 3, 5, 7, 9)], ctx.spec, alpha,
            nzl.candidate_locators(n, q))


def test_coset_tables_are_bounded():
    # the coset tables and masks, like every part of a length, live on a
    # Length of the bounded length cache: past MAX_LENGTHS lengths the first
    # ones are freed, and their parts are rebuilt equal.  One Length can
    # hold a coset table of n entries and O(q) packed-word tables, so the
    # bound stays small
    assert cyclic.MAX_LENGTHS <= 64
    parts = _length_parts(2, 21)
    refs = [weakref.ref(cyclic.length(q, 21)) for q in (2, None)]
    for n in range(23, 23 + 2 * cyclic.MAX_LENGTHS + 2, 2):
        cyclic._coset_masks(n, 2)
        assert cyclic.length.cache_info().currsize <= cyclic.MAX_LENGTHS
    gc.collect()
    assert cyclic.length.cache_info().currsize == cyclic.MAX_LENGTHS
    assert [ref() for ref in refs] == [None, None]
    assert _length_parts(2, 21) == parts


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_stride_runs_mask_is_the_defining_set(data):
    # _stride_runs sums the per-coset masks of the representatives
    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    n = data.draw(st.integers(2, 200).filter(lambda n: math.gcd(n, q) == 1))
    cosets = cyclic.coset_partition(n, q)
    chosen = data.draw(st.lists(st.sampled_from(cosets), min_size=1, max_size=len(cosets) - 1, unique=True))
    code = build_code(q, n, [data.draw(st.sampled_from(sorted(c))) for c in chosen])
    assert cyclic._stride_runs(code)[0] == sum(1 << i for i in code.defining_set)


def test_build_code_example21(example21):
    assert example21.defining_set == (1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 14, 15, 16, 18)
    assert example21.k == 7
    assert example21.coset_reps == (1, 3, 7, 9)


def test_build_code_65(code65):
    assert code65.k == 41
    assert len(code65.defining_set) == 24


def test_build_code_trivial_cases():
    c = build_code(2, 9, ())
    assert c.k == 9 and cyclic.generator_polynomial(c) == (1,)
    with pytest.raises(DuplicateCoset):
        build_code(2, 21, (1, 2))
    with pytest.raises(NotCoprime):
        build_code(2, 8, (1,))


def test_generator_polynomial_divides_whole_space(example21):
    # g(x) * h(x) = x^n - 1 over GF(2)
    g = cyclic.generator_polynomial(example21)
    f2 = build_field(2, 1)
    gp = Poly(f2, g)
    xn1 = Poly(f2, (1,) + (0,) * 20 + (1,))
    assert pmod(xn1, gp).is_zero()


@pytest.mark.parametrize("q, n, reps", [(2, 21, (1, 3, 7, 9)), (2, 63, (1, 5, 21)), (3, 26, (1, 2, 13)),
                                        (4, 21, (1, 3, 7)), (5, 24, (1, 2)), (8, 9, (0, 1)), (9, 20, (1, 5))])
def test_generator_polynomial_matches_linear_factors(q, n, reps):
    # the product of the minimal polynomials equals prod (x - alpha^i) over
    # D_C, multiplied out in the code field
    code = build_code(q, n, reps)
    ctx, alpha = cyclic.code_field(code)
    g = pone(ctx)
    for i in code.defining_set:
        g = pmul(g, Poly(ctx, (ctx.neg(ctx.pow(alpha, i)), 1)))
    _, to_digit = subfield_digit_maps(ctx, q)
    assert cyclic.generator_polynomial(code) == tuple(to_digit[c] for c in g.coeffs)
    # the helper behind the minimal and locator polynomials, on the whole set
    assert root_product(ctx, alpha, code.defining_set) == g.coeffs
    assert root_product(ctx, alpha, ()) == (1,)


@pytest.mark.parametrize("q, n, reps", [(2, 21, (1, 3, 7, 9)), (2, 7, ()), (3, 80, (1, 2, 4, 5)),
                                        (4, 21, (1, 3)), (5, 24, (1, 2)), (9, 10, (1,))])
def test_remainder_rows_match_poly_divmod(q, n, reps):
    _check_remainder_rows(q, n, reps, None)


@pytest.mark.parametrize("q, n, reps", [(3, 80, (1, 2, 4, 5)), (61, 12, (1, 2, 3, 4))])
def test_remainder_rows_match_poly_divmod_on_byte_lanes(q, n, reps):
    # the decoder's lanes for odd p < 65, one byte per digit
    _check_remainder_rows(q, n, reps, 8)


def _check_remainder_rows(q, n, reps, lane_bits):
    # rows[i][c] packs c * (x^i mod g), the remainder taken by Poly divmod
    code = build_code(q, n, reps)
    g_digits = cyclic.generator_polynomial(code)
    r = len(g_digits) - 1
    words = PackedWords(q, r, lane_bits)
    rows = remainder_rows(words, g_digits, range(n))
    # a range from r = deg g starts at x^r mod g, the oracle's rows
    assert remainder_rows(words, g_digits, range(r, n)) == rows[r:]
    p, a = prime_power(q)
    small = build_field(p, a)
    to_elt, to_digit = subfield_digit_maps(small, q)
    g = Poly(small, [to_elt[d] for d in g_digits])
    assert len(rows) == n
    for i, row in enumerate(rows):
        rem = pmod(Poly.monomial(small, i), g)
        for c in range(q):
            coeffs = rem.scale(to_elt[c]).coeffs
            assert row[c] == words.pack([to_digit[e] for e in coeffs] + [0] * (r - len(coeffs)))


# The six codes of the decode workload and a long sparse binary code.
_PRODUCT_CODES = [(2, 21, (1, 3, 7, 9)), (2, 65, (1, 5)), (2, 127, (7, 15, 21, 23, 29)),
                  (2, 255, (1, 3, 5, 7)), (3, 80, (1, 2, 4, 5)), (3, 121, (1, 2, 4, 5)),
                  (2, 4095, (1, 3, 5, 7, 9, 11))]


def _check_against_schoolbook_product(code, rng):
    g = cyclic.generator_polynomial(code)
    assert g == reference.generator_polynomial(code), code
    assert len(g) == code.n - code.k + 1 and g[-1] == 1
    for message in ([rng.randrange(code.q) for _ in range(code.k)], [code.q - 1] * code.k):
        assert cyclic.encode(code, message) == reference.encode(code, message), code


@pytest.mark.parametrize("q, lengths", [(2, range(1, 22, 2)), (3, range(1, 15)), (4, range(1, 16, 2)),
                                        (5, range(1, 13))])
def test_generator_polynomial_and_encode_match_schoolbook_product_on_every_small_code(q, lengths):
    # the packed products against one DigitField add and mul per pair of
    # terms; q = 4 takes the digit path of _times, and the whole defining
    # set (k = 0) gives x^n - 1, one digit more than the packed words hold
    rng = random.Random(q)
    codes = list(cyclic.enumerate_small_codes(q, lengths, range(max(lengths) + 1)))
    assert any(code.k == 0 and code.n > 1 for code in codes)
    for code in codes:
        _check_against_schoolbook_product(code, rng)


@pytest.mark.parametrize("q, n, reps", _PRODUCT_CODES)
def test_generator_polynomial_and_encode_match_schoolbook_product_on_long_codes(q, n, reps):
    _check_against_schoolbook_product(build_code(q, n, reps), random.Random(n))


def test_encode_produces_codewords(example21):
    rng = random.Random(5)
    for _ in range(25):
        cw = cyclic.random_codeword(example21, rng)
        assert cyclic.is_codeword(example21, cw)


@pytest.mark.parametrize("q, n, reps, message", [(2, 7, (1,), (7, 0, 0, 0)), (2, 7, (1,), (-1, 0, 0, 0)),
                                                  (4, 5, (1,), (-2, 0, 0)), (4, 5, (1,), (5, 0, 0))])
def test_encode_rejects_digits_outside_the_field(q, n, reps, message):
    # the same check and message as is_codeword's
    with pytest.raises(ValueError, match=rf"digits must be integers in \[0, {q}\)"):
        cyclic.encode(build_code(q, n, reps), message)


def test_bch_bound_example21(example21):
    w = bch_bound(example21)
    assert (w.value, w.b, w.m1) == (5, 1, 1)


def test_bch_bound_edges():
    assert bch_bound(build_code(2, 9, ())).value == 1
    rep = build_code(2, 7, (1, 3))  # defining set {1..6}: repetition code
    w = bch_bound(rep)
    assert w.value == 7
    assert min_distance_oracle(rep).d == 7


def test_ht_bound_example21(example21):
    w = ht_bound(example21)
    assert (w.value, w.b1, w.m1, w.m2, w.d0, w.nu) == (6, 1, 5, 1, 5, 1)
    assert verify_ht_witness(example21, w)


def test_ht_bound_65(code65):
    # the documented template (b2=-5, stride 3, d0=5, nu=1) certifies 6; the
    # search finds a strictly better verified template of value 7
    w = ht_bound(code65)
    assert verify_ht_witness(code65, w)
    assert w.value == 7


def test_ht_bound_empty_and_long():
    assert ht_bound(build_code(2, 9, ())).value == 1
    code = build_code(2, 257, (1,))
    assert verify_ht_witness(code, ht_bound(code))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_seeded_ht_template_matches_unseeded(data):
    # the BCH stride pass seeds layer 1 of every inner step m2; the seeded
    # climb keeps the unseeded top-down search's key, tie-break included
    q = data.draw(st.sampled_from([2, 3, 4, 5]), label="q")
    n = data.draw(st.integers(2, 70).filter(lambda n: math.gcd(n, q) == 1), label="n")
    cosets = cyclic.coset_partition(n, q)
    chosen = data.draw(st.sets(st.sampled_from(range(len(cosets))), min_size=1), label="cosets")
    code = build_code(q, n, [min(cosets[i]) for i in chosen])
    assume(code.k > 0)
    mask, key, lengths = cyclic._stride_runs(code)
    reps, half, orbit = cyclic._strides(n, q)
    first = [lengths[j] for j in orbit]
    assert first == [cyclic._longest_run(mask, n, u)[0] for u in half]
    runs = [cyclic._longest_run(mask, n, c) for c in reps]
    assert key == min((-(length + 1), cyclic._lowest_bit(starts), c) for (length, starts), c in zip(runs, reps))
    units = cyclic._units(n)
    for m2 in (1, data.draw(st.sampled_from(units), label="m2")):
        assert cyclic._ht_template(mask, n, half, first, m2) == reference.ht_template(mask, n, units, m2), m2


def test_ht_exhaustive_cross_validation():
    # the normalized search is a lower bound for the two-multiplier search;
    # witnesses of both must verify
    count_lt = 0
    for spec in cyclic.enumerate_small_codes(2, [7, 9, 15, 17, 21], range(1, 17)):
        if not spec.defining_set:
            continue
        a = ht_bound(spec)
        b = ht_every_m2(spec)
        assert verify_ht_witness(spec, a)
        assert verify_ht_witness(spec, b)
        assert a.value <= b.value
        count_lt += a.value < b.value
    # on this fixture range the two agree almost everywhere
    assert count_lt <= 5


def test_ht_at_least_bch():
    for spec in cyclic.enumerate_small_codes(2, [7, 9, 15, 21], range(1, 17)):
        if spec.defining_set:
            assert ht_bound(spec).value >= bch_bound(spec).value


def test_verify_bch_witness(example21):
    assert verify_bch_witness(example21, bch_bound(example21))
    assert verify_bch_witness(example21, cyclic.BchWitness(5, 1, 1))
    assert not verify_bch_witness(example21, cyclic.BchWitness(6, 1, 1))  # 5 is a gap
    assert not verify_bch_witness(example21, cyclic.BchWitness(3, 3, 7))  # gcd(7, 21) > 1
    assert not verify_bch_witness(example21, cyclic.BchWitness(1, 1, 1))
    assert not verify_bch_witness(example21, cyclic.BchWitness(1, None, None))
    assert verify_bch_witness(build_code(2, 9, ()), cyclic.BchWitness(1, None, None))


def _reference_runs(member, n, step):
    """R[a] = max r with a, a+step, ..., a+(r-1)step all members."""
    return [next(r for r in range(n + 1) if not member[(a + r * step) % n]) for a in range(n)]


def _reference_bch(code):
    """BchWitness by a scan of every maximal run, keyed (-value, b, m1)."""
    n, q = code.n, code.q
    member = [i in set(code.defining_set) for i in range(n)]
    if not any(member):
        return cyclic.BchWitness(1, None, None)
    best = None
    for c in cyclic._orbit_reps(n, cyclotomic_coset(n, q, 1)):
        R = _reference_runs(member, n, c)
        for b in range(n):
            if R[b] and not member[(b - c) % n]:
                best = min(best or (n + 1,), (-(R[b] + 1), b, c))
    return cyclic.BchWitness(-best[0], best[1], best[2])


def _reference_ht(code, exhaustive):
    """HtWitness by a scan of every template: per start b and strides
    (m1, m2), nu grows while the step-m2 runs at b, b+m1, ... stay nonempty;
    keyed (-value, nu, b1, m1, m2)."""
    n = code.n
    member = [i in set(code.defining_set) for i in range(n)]
    if not any(member):
        return cyclic.HtWitness(1, None, None, None, None, None)
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    best = None
    for m2 in units if exhaustive else (1,):
        R = _reference_runs(member, n, m2)
        for m1 in units:
            for b in (b for b in range(n) if member[b]):
                runmin, j = R[b], 0
                while runmin and j < n:
                    best = min(best or (n + 1,), (-(runmin + 1 + j), j, b, m1, m2))
                    j += 1
                    runmin = min(runmin, R[(b + j * m1) % n])
    value, nu = -best[0], best[1]
    return cyclic.HtWitness(value, best[2], best[3], best[4], value - nu, nu)


@pytest.mark.parametrize("q, max_n", [(2, 31), (3, 26), (4, 13), (5, 16)])
def test_bch_and_ht_witnesses_match_reference(q, max_n):
    # the whole witness, tie-break included; exhaustive HT up to length 15
    exhaustive = 0
    for code in cyclic.enumerate_small_codes(q, range(1, max_n + 1), range(max_n + 1)):
        if len(code.defining_set) == code.n:
            with pytest.raises(ValueError):
                bch_bound(code)
            with pytest.raises(ValueError):
                ht_bound(code)
            continue
        assert bch_bound(code) == _reference_bch(code), code
        assert ht_bound(code) == _reference_ht(code, False), code
        if code.n <= 15:
            assert ht_every_m2(code) == _reference_ht(code, True), code
            exhaustive += 1
    assert exhaustive


def test_oracle_example21(example21):
    w = min_distance_oracle(example21)
    assert w.d == 8
    assert sum(1 for c in w.codeword if c) == 8
    assert cyclic.is_codeword(example21, w.codeword)


def test_oracle_hamming_like():
    c = build_code(2, 21, (1,))
    w = min_distance_oracle(c)
    assert w.d >= bch_bound(c).value
    assert w.d == 3  # frozen from enumeration
    assert cyclic.is_codeword(c, w.codeword)


def test_oracle_caps(code65):
    with pytest.raises(TooManyCodewords):
        min_distance_oracle(code65)
    with pytest.raises(ValueError):
        min_distance_oracle(build_code(2, 7, (0, 1, 3)))  # zero code


def test_oracle_nonbinary():
    c = build_code(4, 5, (1, 2))
    assert min_distance_oracle(c).d == 5
    c3 = build_code(3, 4, (1, 2))
    assert min_distance_oracle(c3).d == 4
    c13 = build_code(3, 13, (1,))
    w = min_distance_oracle(c13)
    assert w.d == 3 and sum(1 for c in w.codeword if c) == 3
    assert cyclic.is_codeword(c13, w.codeword)


def _reference_distance(code):
    """Least weight over the q^k - 1 nonzero codewords m(x)g(x).

    A word is an int with one byte per position.  The byte holds the a
    base-p digits of the position's element of GF(p^a) (the FieldCtx
    encoding of build_field, whose digits add mod p) as digits in base
    B = k(p - 1) + 1.  Words add as ints and a digit is reduced mod p only
    when the word is read; a digit sums at most k terms below p, so none
    carries into the next, and B^a <= 256 keeps a byte from overflowing.
    """
    q, n, k = code.q, code.n, code.k
    p, a = prime_power(q)
    B = k * (p - 1) + 1
    assert B**a <= 256
    g = cyclic.generator_polynomial(code)
    df = DigitField(q)
    to_elt, _ = subfield_digit_maps(build_field(p, a), q)
    lane = [sum(e // p**j % p * B**j for j in range(a)) for e in to_elt]
    words = [0]
    for i in range(k):
        row = [sum(lane[df.mul(c, gt)] << 8 * (i + t) for t, gt in enumerate(g)) for c in range(q)]
        words = [w + s for w in words for s in row]
    nonzero = bytes(int(any(v // B**j % B % p for j in range(a))) for v in range(256))
    return n - max(w.to_bytes(n, "little").translate(nonzero).count(0) for w in words[1:])


def _few_word_codes(q, lengths):
    """The codes of `lengths` with 1 <= k and q^k <= 2^12, which the oracle tests weigh whole."""
    return list(cyclic.enumerate_small_codes(q, lengths, [k for k in range(1, 13) if q**k <= 1 << 12]))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_oracle_matches_full_enumeration(q):
    # Binary codes run to n = 63: a stop rule one too weak passes every
    # shorter code and fails on (2; 63) codes with k = 12.
    max_n, max_field = (63, 1 << 20) if q == 2 else (31, 1 << 16)
    lengths = [n for n in range(1, max_n + 1) if math.gcd(n, q) == 1 and q ** min_extension_degree(q, n) <= max_field]
    codes = _few_word_codes(q, lengths)
    # the edge cases of the information-set stop rule are all present
    assert any(c.k == c.n for c in codes)  # empty defining set, d = 1
    assert any(c.k == 1 and c.n > 1 for c in codes)  # repetition code, d = n
    assert any(c.n // c.k == 1 and c.k < c.n for c in codes)
    for code in codes:
        w = min_distance_oracle(code)
        assert w.d == _reference_distance(code), code
        if q > 2:  # the binary walk has its own reference below
            assert (w.d, w.codeword) == qary_oracle(code)[:2], code
        assert sum(1 for c in w.codeword if c) == w.d, code
        assert cyclic.is_codeword(code, w.codeword), code
        if code.k == code.n:
            assert w.d == 1
        if code.k == 1:
            assert w.d == code.n


def _reference_binary_oracle(code):
    """(d, codeword, last w) of the binary information-set pass with each
    w-row sum built from scratch by reduce(xor, ...) over combinations, and
    the same rows and stop rule as min_distance_oracle: min keeps the first
    lightest word, so this is the lexicographically first one."""
    n, k = code.n, code.k
    r = n - k
    gmask = sum(gi << i for i, gi in enumerate(cyclic.generator_polynomial(code)))
    rows, rem = [], gmask ^ (1 << r)
    for i in range(k):
        rows.append(rem | 1 << (r + i))
        rem <<= 1
        if rem >> r & 1:
            rem ^= gmask
    weight = int.bit_count

    def lightest(w):
        return min((reduce(xor, rs) for rs in combinations(rows, w)), key=weight)

    w, best = 1, lightest(1)
    while weight(best) * k > n * (w + 1) + k - 1:
        w += 1
        best = min(best, lightest(w), key=weight)
    return weight(best), tuple(best >> i & 1 for i in range(n)), w


def test_binary_oracle_word_matches_lex_first_reference():
    codes = _few_word_codes(2, [n for n in range(1, 64, 2) if 2 ** min_extension_degree(2, n) <= 1 << 20])
    stops = {}
    for code in codes:
        d, word, stop = _reference_binary_oracle(code)
        got = min_distance_oracle(code)
        assert (got.d, got.codeword) == (d, word), code
        stops[code] = stop
    # the tail table is empty (k = 1), holds one pair (k = 2) or every pair
    # of the whole space (k = n), and the walk reaches depth >= 2 (w >= 4)
    assert any(c.k == 1 and c.n > 1 for c in codes)
    assert any(c.k == 2 for c in codes)
    assert any(c.k == c.n and c.n > 2 for c in codes)
    assert max(stops.values()) >= 4


@pytest.mark.parametrize("q, n, k, rows", [(3, 40, 9, 3), (3, 40, 10, 4), (5, 24, 6, 3), (9, 40, 4, 3),
                                           (5, 24, 7, 3)])
def test_qary_oracle_word_matches_reference_past_two_rows(q, n, k, rows):
    # the full-enumeration codes find every q-ary witness within two rows;
    # these codes find some with three (the table of two-row sums) and,
    # for (3; 40) at k = 10, four (the walk's prefix, whose digit runs
    # before the next row); at (5; 24) with k = 7 one code's witness is a
    # tie that only the digit order of the table's second row breaks
    cosets = cyclic.coset_partition(n, q)
    found = set()
    for t in range(1, k + 1):
        for kept in combinations(cosets, t):  # the nonzeros of a code of dimension k
            if sum(map(len, kept)) == k:
                code = build_code(q, n, [min(c) for c in cosets if c not in kept])
                d, word, w = qary_oracle(code)
                got = min_distance_oracle(code)
                assert (got.d, got.codeword) == (d, word), code
                found.add(w)
    assert max(found) == rows


@st.composite
def _long_binary_codes(draw):
    """Binary cyclic codes of length 127 or 255 with 1 <= k <= 16: the
    cosets kept as nonzeros are drawn one by one while they fit."""
    n = draw(st.sampled_from([127, 255]))
    cosets = cyclic.coset_partition(n, 2)
    picks = draw(st.lists(st.integers(0, len(cosets) - 1), min_size=1, max_size=6))
    kept, k = set(), 0
    for i in picks:
        if i not in kept and k + len(cosets[i]) <= 16:
            kept.add(i)
            k += len(cosets[i])
    return build_code(2, n, [min(c) for i, c in enumerate(cosets) if i not in kept])


@seed(2012)
@settings(max_examples=50, deadline=None)
@given(_long_binary_codes())
def test_binary_oracle_word_matches_reference_long_codes(code):
    d, word, _ = _reference_binary_oracle(code)
    got = min_distance_oracle(code)
    assert (got.d, got.codeword) == (d, word)


@pytest.mark.parametrize("n, k, d, last", [(511, 10, 255, 4), (257, 17, 113, 7), (273, 13, 120, 5)])
def test_binary_oracle_word_matches_reference_past_255_coordinates(n, k, d, last):
    # the codes whose nonzeros are C0 and C1: past 255 coordinates a
    # weight takes two bytes, and the (2; 511) code's level words weigh 255
    # or more, which one byte would wrap to light weights
    cosets = cyclic.coset_partition(n, 2)
    code = build_code(2, n, [min(c) for c in cosets if not c & {0, 1}])
    got = min_distance_oracle(code)
    assert (code.k, got.d) == (k, d)
    assert (got.d, got.codeword, last) == _reference_binary_oracle(code)


@pytest.mark.parametrize("q, n", [(2, 21), (3, 21), (4, 15), (2, 255)])
def test_sums_add_each_head_to_every_word_of_its_segment(q, n):
    # the oracle's pieces: each prefix added to each word of its table
    # suffix, in order, at most `limit` words a piece, empty suffixes too;
    # (2; 255) keeps its words one per list item, the others side by side
    rng = random.Random(q * n)
    words = cyclic._packed_words(n, q)
    assert words.side_by_side == (n < 255)
    table_words = [words.pack([rng.randrange(q) for _ in range(n)]) for _ in range(30)]
    table = words.join(words.runs(table_words))
    at = sorted(rng.randrange(31) for _ in range(8)) + [30]
    prefixes, expected = [], []
    for _ in range(12):
        s = rng.randrange(len(at))
        head = words.pack([rng.randrange(q) for _ in range(n)])
        prefixes.append((head, s))
        expected += [words.add(head, x) for x in table_words[at[s]:]]
    for limit in (1, 4, 7, 1000):
        pieces = list(cyclic._sums(words, prefixes, table, at, limit))
        assert all(0 < len(piece) <= limit * words.unit for piece in pieces)
        assert words.join(pieces) == words.join(words.runs(expected))


# codes whose last level w is past the oracle's table budget: the table of
# depth w, C(k, w - 1) (q - 1)^(w - 1) words, is never built, so that level
# carries its outer rows as a prefix over a shallower table
DEEP_BINARY = (2, 127, (1, 3, 5, 7, 11, 13, 19, 21, 23, 27, 29, 31, 47, 55, 63))  # k = 22, w = 7
DEEP_TERNARY = (3, 80, (4, 5, 7, 11, 13, 14, 16, 17, 20, 22, 23, 25, 26, 40, 41, 44, 50, 53))  # k = 15, w = 6


@pytest.mark.parametrize("q, n, reps", [DEEP_BINARY, DEEP_TERNARY])
def test_oracle_word_matches_reference_past_the_table_budget(q, n, reps):
    code = build_code(q, n, reps)
    d, word, _ = (_reference_binary_oracle if q == 2 else qary_oracle)(code)
    got = min_distance_oracle(code)
    assert (got.d, got.codeword) == (d, word)
    k = code.k
    found = sum(1 for c in word[n - k:] if c)  # the rows in the witness's sum
    last = next(v for v in range(found, k + 1) if d * k <= n * (v + 1) + k - 1)
    assert math.comb(k, last - 1) * (q - 1) ** (last - 1) > cyclic.MAX_TABLE_WORDS
    if q == 3:  # the witness is found on that last level, in the prefix pass
        assert (d, found, last) == (32, 6, 6)


def test_oracle_tables_stay_within_their_budget():
    # unbounded, the tables of DEEP_BINARY's levels 6 and 7 reach 12.8 MB;
    # DEEP_TERNARY's words take 40 bytes each, and its depth-5 table 0.9 MB
    for spec in (DEEP_BINARY, DEEP_TERNARY):
        code = build_code(*spec)
        expected = min_distance_oracle(code)  # the code's rows and words, built untraced
        tracemalloc.start()
        try:
            got = min_distance_oracle(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected and peak < 4_000_000, (spec, peak)


def test_qary_reference_weighs_in_the_oracle_order():
    # d = 20 at w = 5 on a tie that only the order of a prefix row's digits
    # before the next row breaks: weighed in (rows, then digits) order, the
    # first lightest word is another one, of support 0, 1, 2, 5, 11, ...
    code = build_code(3, 56, (4, 5, 7, 8, 10, 11, 28, 29, 35))
    d, word, w = qary_oracle(code)
    assert (code.k, d, w) == (15, 20, 5)
    assert [i for i, c in enumerate(word) if c][:5] == [0, 1, 3, 4, 9]
    got = min_distance_oracle(code)
    assert (got.d, got.codeword) == (d, word)


def test_oracle_word_does_not_depend_on_the_table_budget(monkeypatch):
    # with no table past depth 3, every level from w = 4 on is a prefix
    # pass over the pair table; each word found stays the one the tables
    # find.  These (3; 56) codes of dimension 15 have d = 20 on a tie at
    # w = 5 that only the order of a prefix row's digits before the next
    # row breaks, and DEEP_TERNARY's last level carries four rows.
    codes = [build_code(3, 56, reps) for reps in [(4, 5, 7, 8, 10, 11, 28, 29, 35),
                                                  (1, 4, 5, 7, 8, 10, 28, 29, 35)]]
    codes.append(build_code(*DEEP_TERNARY))
    expected = [min_distance_oracle(code) for code in codes]
    monkeypatch.setattr(cyclic, "MAX_TABLE_WORDS", 0)
    assert [min_distance_oracle(code) for code in codes] == expected


@cache
def _reference_oracle(code):
    return (_reference_binary_oracle if code.q == 2 else qary_oracle)(code)[:2]


@pytest.mark.parametrize("q, n", [(2, 21), (3, 13)])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_oracle_words_shared_across_codes_leak_nothing(q, n, data):
    # the oracle's per-length words serve every code of one (q, n): codes
    # of that length in any order, repeats included, each give the
    # reference's (d, codeword), and one PackedWords serves them all
    codes = _few_word_codes(q, [n])
    order = data.draw(st.lists(st.sampled_from(codes), min_size=2, max_size=10))
    built = []

    class Counted(PackedWords):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    cyclic.length.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclic, "PackedWords", Counted)
        for code in order:
            got = min_distance_oracle(code)
            assert (got.d, got.codeword) == _reference_oracle(code), code
    assert built == [(q, n)]


def test_oracle_words_cache_is_bounded():
    # PackedWords(65536, n) holds O(q) tables, so at most 64 lengths keep
    # their words: the words live on the Length of the bounded length cache
    # and go with an evicted length
    assert cyclic.MAX_LENGTHS <= 64
    ref, words = weakref.ref(cyclic.length(2, 1)), cyclic._packed_words(1, 2)
    for n in range(3, 2 * cyclic.MAX_LENGTHS + 2, 2):
        cyclic._packed_words(n, 2)
    gc.collect()
    assert cyclic.length.cache_info().currsize == cyclic.MAX_LENGTHS
    assert ref() is None
    again = cyclic._packed_words(1, 2)
    assert again is not words and (again.n, again.df.q, again.units) == (words.n, words.df.q, words.units)


def test_has_distance_two():
    assert has_distance_two(21, (3, 9))
    assert not has_distance_two(119, (1, 11, 51))
    assert has_distance_two(15, (0,))
    # cross-check against the oracle: gcd test iff a weight-2 word exists
    spec = build_code(2, 21, (3, 9))
    assert min_distance_oracle(spec).d == 2


def test_distance_two_iff_oracle():
    for spec in cyclic.enumerate_small_codes(2, [7, 9, 15, 21], range(1, 17)):
        if not spec.defining_set:
            continue
        expected = min_distance_oracle(spec).d == 2
        assert has_distance_two(spec.n, spec.coset_reps) == expected


def test_distance_three_witness_small():
    # n=21, reps {1,5}: every element reduces into the coset of 1 mod 3
    wit = distance_three_witness(21, (1, 5), 2, 1)
    assert wit.d == 3 and wit.method == "weight3-construction"
    assert sum(wit.codeword) == 3
    spec = build_code(2, 21, (1, 5))
    assert cyclic.is_codeword(spec, wit.codeword)
    assert min_distance_oracle(spec).d == 3


def test_distance_three_witness_primitive_case():
    # n = 2^g - 1 (u = 1): the construction degenerates to the classical
    # primitive-length one; the witness is a weight-3 Hamming codeword
    wit = distance_three_witness(7, (1,), 3, 1)
    spec = build_code(2, 7, (1,))
    assert cyclic.is_codeword(spec, wit.codeword)
    assert sum(wit.codeword) == 3
    assert min_distance_oracle(spec).d == 3


def test_distance_three_witness_15():
    code = lowest_rate_d3_code(5, 2, 1)
    assert (code.n, code.k) == (15, 5)
    wit = distance_three_witness(15, code.coset_reps, 2, 1)
    assert cyclic.is_codeword(code, wit.codeword)
    assert min_distance_oracle(code).d == 3


def test_distance_three_witness_119():
    code = lowest_rate_d3_code(17, 3, 1)
    assert (code.n, code.k) == (119, 68)
    wit = distance_three_witness(119, code.coset_reps, 3, 1)
    assert wit.d == 3
    support = tuple(i for i, c in enumerate(wit.codeword) if c)
    assert len(support) == 3 and support[0] == 0
    assert all(s % 17 == 0 for s in support)  # exponents are multiples of u = 17


def test_distance_three_witness_preconditions():
    with pytest.raises(PreconditionViolated):
        distance_three_witness(21, (1, 5), 1, 1)  # g too small
    with pytest.raises(PreconditionViolated):
        distance_three_witness(22, (1,), 2, 1)  # even length
    with pytest.raises(PreconditionViolated):
        distance_three_witness(21, (1, 3), 2, 1)  # 3 = 0 mod 3 not in C_1
    with pytest.raises(PreconditionViolated):
        distance_three_witness(21, (3, 9), 2, 1)  # gcd > 1


def test_lowest_rate_d2():
    code = lowest_rate_d2_code(7, 3)
    assert (code.n, code.k) == (21, 14)
    assert code.defining_set == (0, 3, 6, 9, 12, 15, 18)
    assert min_distance_oracle(code).d == 2
    with pytest.raises(NotCoprime):
        lowest_rate_d2_code(2, 2)
    with pytest.raises(PreconditionViolated):
        lowest_rate_d2_code(1, 3)


def test_lowest_rate_d2_statement_vs_selection_warning():
    with pytest.warns(UserWarning):
        lowest_rate_d2_code(5, 9)  # gcd(3, 9) > 1 but 9 does not divide 3


def test_lowest_rate_d3():
    code = lowest_rate_d3_code(17, 3, 1)
    assert (code.n, code.k) == (119, 68)
    D = set(code.defining_set)
    assert all(2 * i % 119 in D for i in D)  # coset-closed, asserted
    # r=1 gives the repetition of the Hamming zero pattern {1, 2, 4}
    assert all({7 * j + t for t in (1, 2, 4)} <= D for j in range(17))
    assert math.gcd(68, 119) == 17  # rate 68/119 in lowest terms 4/7


def test_lowest_rate_d3_small_oracle():
    code = lowest_rate_d3_code(5, 2, 1)
    assert min_distance_oracle(code).d == 3
    assert code.k == 5 * (3 - 2)


@pytest.mark.parametrize("q, lengths", [(2, [7, 9, 10, 15, 17, 21]), (3, [4, 13, 6, 8]), (4, [5, 7, 6]),
                                        (5, [4, 10, 6])])
def test_enumerate_small_codes_walks_every_subset_of_cosets(q, lengths):
    # per length coprime to q, in the given order, the code of every subset
    # of its cosets in increasing mask order: D = {} first, each coset alone
    # at mask 2^i, D = Z_n last, no defining set twice; the length not
    # coprime to q gives none, and ks filters as a filter afterwards would
    every = list(cyclic.enumerate_small_codes(q, lengths, range(max(lengths) + 1)))
    coprime = [n for n in lengths if math.gcd(n, q) == 1]
    assert [c.n for c in every] == [n for n in coprime for _ in range(2 ** len(cyclic.coset_partition(n, q)))]
    for n in coprime:
        codes, cosets = [c for c in every if c.n == n], cyclic.coset_partition(n, q)
        assert codes[0].defining_set == () and codes[-1].defining_set == tuple(range(n))
        assert [codes[1 << i].coset_reps for i in range(len(cosets))] == [(min(c),) for c in cosets]
        assert len({c.defining_set for c in codes}) == len(codes)
    for ks in ([0], range(1, 4), {2, 3, 6}, range(max(lengths) + 1), ()):
        assert list(cyclic.enumerate_small_codes(q, lengths, ks)) == [c for c in every if c.k in ks]
    if q == 2:  # the HT cross-validation's walk, as the binary walk from mask 1 gave it
        keys = [(c.n, c.coset_reps) for c in cyclic.enumerate_small_codes(q, lengths, range(1, 17)) if c.defining_set]
        assert len(keys) == 103
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == (
            "d41a09e0785d9e93a5485b4d5558543c5a628d9bc2adf753d096154f36410dc9")
