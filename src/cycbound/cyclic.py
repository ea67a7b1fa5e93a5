"""Cyclic-code structure and minimum-distance machinery.

Covers cyclotomic cosets and defining sets, generator polynomials, the BCH
and Hartmann-Tzeng bounds with explicit witnesses, an exact
minimum-distance oracle, and the distance-two / distance-three
characterizations of binary cyclic codes together with the lowest-rate
constructions built from them.  What the codes of one (q, n) share, their
cosets first, is kept on their Length, held by the bounded cache
length(q, n), and what one code derives on its CyclicCodeSpec (see kept).

The oracle is one information-set pass: it weighs the systematic
codewords of low message weight on one window, which the cyclic shifts make
stand for all n cyclic windows of k positions, and the lightest word seen
is both the proof of d and its witness.  Its rows are gf.PackedWords words,
one bit per coordinate over GF(2), built on the rows c * (x^i mod g) of
gf.remainder_rows, which the decoder also sums to reduce a received word
mod g; the PackedWords of a length is built once and shared by its codes.
One loop serves every q: the sums of w rows are weighed from a flat table
of the (w - 1)-row sums, one pass per first row, and kept, grouped by first
row, as the next level's table, which over GF(2) costs no further add.

A code here is pinned down by (q, n, defining set) plus the canonical
primitive n-th root of unity alpha of its construction field GF(q^s),
s the multiplicative order of q mod n; the generator polynomial is the
product of (x - alpha^i) over the defining set, built as the product of
the cosets' minimal polynomials (gf.root_product).  Bounds and the
distance-2/3 logic never touch the field, so codes too long for the field
table cap can still be constructed, bounded and certified.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import accumulate, chain, cycle, repeat

from .gf import (
    FieldCtx,
    MAX_FIELD_SIZE,
    PackedWords,
    build_field,
    digit_elements,
    min_extension_degree,
    NotCoprime,
    nth_root_of_unity,
    prime_power,
    remainder_rows,
    root_product,
    subfield_digit_maps,
)


class DuplicateCoset(ValueError):
    """Two representatives name the same cyclotomic coset."""


class TooManyCodewords(ValueError):
    """The code has more codewords (q^k) than the oracle's cap admits."""


class SearchCapExceeded(ValueError):
    """A bounded search was asked to exceed its configured cap.  Nothing in
    src raises it; it stays because perfbench/workloads.py (Certify.probe)
    imports it."""


class PreconditionViolated(ValueError):
    """A construction hypothesis does not hold for the given parameters."""


def kept(owner, used: int):
    """Decorator: build(*args) runs once per args, and its result is kept in
    the instance dict of owner(*args), a Length or a code spec named by the
    first `used` args, under the other args, so a part lives exactly as
    long as its owner."""
    def decorate(build):
        slot = build.__name__ + "()"  # a key no attribute can take
        @wraps(build)
        def part(*args):
            state, key = vars(owner(*args)), args[used:]
            parts = state.get(slot)
            if parts is None:
                parts = state[slot] = {}
            if key not in parts:
                parts[key] = build(*args)
            return parts[key]
        return part
    return decorate


# The owners: a code spec keeps what one code derives, length(q, n) what the
# codes of (q, n) share, and length(None, n) what depends on n alone.
on_spec = kept(lambda spec, *_: spec, 1)
on_length = kept(lambda n, q, *_: length(q, n), 2)
on_n = kept(lambda n, *_: length(None, n), 1)


@dataclass(frozen=True)
class CyclicCodeSpec:
    """A q-ary cyclic code of length n given by its defining set.  Its
    @on_spec parts live in its instance dict, outside equality and hash."""

    q: int
    n: int
    coset_reps: tuple[int, ...]
    defining_set: tuple[int, ...]
    k: int
    name: str | None = None


@dataclass(frozen=True)
class DistanceWitness:
    d: int
    codeword: tuple[int, ...] | None
    method: str  # "oracle" | "weight3-construction"


@dataclass(frozen=True)
class BchWitness:
    """d >= value thanks to the run {b + i*m1 : 0 <= i <= value-2} in D_C."""

    value: int
    b: int | None
    m1: int | None


@dataclass(frozen=True)
class HtWitness:
    """d >= value = d0 + nu.

    Witness template: {b1 + i1*m1 + i2*m2 : 0 <= i1 <= nu, 0 <= i2 <= d0-2}
    is contained in the defining set, with gcd(n, m1) = gcd(n, m2) = 1.
    So m2 steps along each length-(d0-1) run and m1 stacks nu+1 of them.
    """

    value: int
    b1: int | None
    m1: int | None
    m2: int | None
    d0: int | None
    nu: int | None


def cyclotomic_coset(n: int, q: int, r: int) -> frozenset[int]:
    """The orbit {r*q^j mod n} of r under multiplication by q."""
    if n < 1:
        raise ValueError("length must be positive")
    if math.gcd(n, q) != 1:
        raise NotCoprime(f"gcd({n}, {q}) != 1")
    r %= n
    out = {r}
    t = r * q % n
    while t != r:
        out.add(t)
        t = t * q % n
    return frozenset(out)


# Lengths length() keeps: the sweep workload reads 48 (q, n) and (None, n),
# and one can hold O(q) packed-word tables, 20 MB at q = 65536.
MAX_LENGTHS = 64


class Length:
    """The codes of length n over GF(q), owner of their @on_length parts, or
    with q = None of the @on_n parts.  length(q, n) gives the one of (q, n)
    among the MAX_LENGTHS last used; an evicted one is rebuilt equal."""

    def __init__(self, q: int | None, n: int):
        self.q, self.n = q, n


length = lru_cache(maxsize=MAX_LENGTHS)(Length)


@on_length
def _coset_table(n: int, q: int) -> tuple[frozenset[int], ...]:
    """table[r] = cyclotomic_coset(n, q, r) for every residue r mod n, each
    coset one shared object; the errors are cyclotomic_coset's."""
    if n < 1:
        raise ValueError("length must be positive")
    table: list = [None] * n
    for r in range(n):
        if table[r] is None:
            c = cyclotomic_coset(n, q, r)
            for i in c:
                table[i] = c
    return tuple(table)


@on_length
def _coset_masks(n: int, q: int) -> tuple[int, ...]:
    """masks[r] has bit i for each member i of the coset of r, so a
    defining set's mask is the sum of its representatives' masks."""
    table = _coset_table(n, q)
    masks = {c: sum(1 << i for i in c) for c in dict.fromkeys(table)}
    return tuple([masks[c] for c in table])


def _coset_reps(n: int, q: int, exponents) -> tuple[int, ...]:
    """Smallest members of the cosets meeting `exponents`: the coset
    representatives of their closure under multiplication by q."""
    exponents = list(exponents)
    table = _coset_table(n, q) if exponents else ()  # no exponents: () for any n, q
    return tuple(sorted(map(min, {table[i % n] for i in exponents})))


def coset_partition(n: int, q: int) -> list[frozenset[int]]:
    """All cyclotomic cosets mod n, sorted by smallest member; none for
    n < 1, which has no residues."""
    return list(dict.fromkeys(_coset_table(n, q))) if n >= 1 else []


def build_code(q: int, n: int, coset_reps, name: str | None = None) -> CyclicCodeSpec:
    """Cyclic code from coset representatives; k = n - |defining set|."""
    prime_power(q)  # raises ValueError for non prime powers
    table = _coset_table(n, q)  # raises for n < 1 and gcd(n, q) != 1
    cosets: set[frozenset[int]] = set()
    for r in coset_reps:
        c = table[r % n]
        if c in cosets:  # cosets are disjoint or equal
            raise DuplicateCoset(f"representative {r} repeats a coset")
        cosets.add(c)
    defining = tuple(sorted(chain.from_iterable(cosets)))
    return CyclicCodeSpec(q, n, tuple(sorted(map(min, cosets))), defining, n - len(defining), name)


def code_field(spec: CyclicCodeSpec) -> tuple[FieldCtx, int]:
    """(construction field GF(q^s), canonical element alpha of order n)."""
    return _code_field(spec.q, spec.n)


def _code_field(q: int, n: int) -> tuple[FieldCtx, int]:
    """code_field of (q, n), from build_field's cache, which alone keeps fields."""
    p, a = prime_power(q)
    ctx = build_field(p, a * min_extension_degree(q, n))
    return ctx, nth_root_of_unity(ctx, n)


@on_spec
def generator_polynomial(spec: CyclicCodeSpec) -> tuple[int, ...]:
    """Base-q digit coefficients of prod_{i in D_C} (x - alpha^i); monic.

    D_C is the union of the cosets of the representatives, so the product is
    that of their minimal polynomials, which have GF(q) coefficients.  The
    running product is a word of the length's _packed_words, times each
    minimal polynomial by _times.  Its degree n - k is at most n, and the
    words read back their n coordinates only, so the top digit, 1, is
    appended: at k = 0 it sits just past them."""
    words, x = _packed_words(spec.n, spec.q), 1  # the packed constant 1
    for rep in spec.coset_reps:
        x = _times(words, x, _minimal_polynomial(spec.n, spec.q, rep))
    return (*words.digits(x)[:spec.n - spec.k], 1)


def _times(words: PackedWords, x: int, poly) -> int:
    """The packed product of the packed word x and the polynomial of base-q
    digits poly, low degree first: the sum over the nonzero digits c =
    poly[i] of c * x shifted up i coordinates.  Each digit c > 1 that occurs
    is multiplied in once, by lane adds for prime q (PackedLanes.times) and
    on x's digits otherwise, so the cost does not grow with q.  Lanes past the
    n coordinates are not reduced; they carry only upward, so the n
    coordinates of a product of degree n still read back right."""
    scales = set(poly) - {0, 1}
    if words.a == 1:
        by = {c: words.times(x, c) for c in scales}
    else:
        digits, mul = words.digits(x), words.df.mul
        by = {c: words.pack([mul(c, d) for d in digits]) for c in scales}
    by[1] = x
    add, width = words.add, words.width
    out = 0
    for i, c in enumerate(poly):
        if c:
            out = add(out, by[c] << i * width)
    return out


@on_length
def _minimal_polynomial(n: int, q: int, rep: int) -> tuple[int, ...]:
    """Base-q digits of prod_{i in C_rep} (x - alpha^i), alpha the root of
    code_field."""
    ctx, alpha = _code_field(q, n)
    _, to_digit = subfield_digit_maps(ctx, q)
    try:
        return tuple(to_digit[c] for c in root_product(ctx, alpha, cyclotomic_coset(n, q, rep)))
    except KeyError:  # pragma: no cover - a coset is closed under x -> x^q
        raise AssertionError("minimal polynomial coefficients left the base field")


def encode(spec: CyclicCodeSpec, message) -> tuple[int, ...]:
    """message (k base-q digits, low degree first) -> codeword m(x)g(x);
    ValueError unless every digit is an integer in [0, q)."""
    message = tuple(message)
    if len(message) != spec.k:
        raise ValueError(f"message must have {spec.k} digits")
    message = digit_elements(range(spec.q), message)  # each digit as itself
    words = _packed_words(spec.n, spec.q)
    return tuple(words.digits(_times(words, words.pack(message), generator_polynomial(spec))))


def random_codeword(spec: CyclicCodeSpec, rng) -> tuple[int, ...]:
    return encode(spec, tuple(rng.randrange(spec.q) for _ in range(spec.k)))


def is_codeword(spec: CyclicCodeSpec, word) -> bool:
    """True when the word vanishes at alpha^r for every coset representative."""
    word = tuple(word)
    if len(word) != spec.n:
        raise ValueError("word length mismatch")
    ctx, alpha = code_field(spec)
    to_elt, _ = subfield_digit_maps(ctx, spec.q)
    log = ctx.log
    terms = [(i, log[e]) for i, e in enumerate(digit_elements(to_elt, word)) if e]
    return not any(ctx.evaluate(terms, [r * log[alpha] for r in spec.coset_reps]))


@on_n
def _units(n: int) -> tuple[int, ...]:
    """The units of Z_n in [1, n), increasing."""
    return tuple(u for u in range(1, n) if math.gcd(u, n) == 1)


@on_n
def _orbit_reps(n: int, group) -> tuple[int, ...]:
    """Smallest member of each orbit of the units mod n under multiplication
    by `group`, a subgroup of the units given as a tuple or frozenset."""
    seen: set[int] = set()
    reps = []
    for u in _units(n):
        if u not in seen:
            reps.append(u)
            seen.update(s * u % n for s in group)
    return tuple(reps)


def _longest_run(x: int, n: int, step: int) -> tuple[int, int]:
    """(L, starts) for the set x of residues mod n held as an n-bit mask:
    L is the length of the longest run {a, a+step, ..., a+(L-1)step} in x
    (step a unit, x not all of Z_n) and starts the mask of the a opening
    one.

    While x holds the starts of the runs of length >= l, one AND with x
    rotated down by step, x & rot(x, step) with bit a of rot(x, step) the
    bit a+step of x, leaves the starts of the runs of length >= l + 1; the
    number of steps until x is empty is L, the last nonzero x its starts.
    """
    back = n - step
    length, starts = 0, 0
    while x:
        length, starts = length + 1, x
        x &= (x >> step) | (x << back)  # the AND drops the bits above n
    return length, starts


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


@on_length
def _strides(n: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(reps, half, orbit) for the unit strides mod n: reps holds the
    smallest member of each orbit of the units under x -> q*x, half the
    units m1 <= n/2, and orbit[i] the position in reps of the orbit of
    half[i]."""
    powers = cyclotomic_coset(n, q, 1)
    reps = _orbit_reps(n, powers)
    where = {s * c % n: j for j, c in enumerate(reps) for s in powers}
    half = tuple(u for u in _units(n) if 2 * u <= n)
    return reps, half, tuple(where[u] for u in half)


@on_spec
def _stride_runs(spec: CyclicCodeSpec) -> tuple[int, tuple[int, int, int], tuple[int, ...]]:
    """(mask, BCH key, lengths) for a defining set D neither empty nor all
    of Z_n: mask holds bit i for each exponent i of D (the sum of its
    cosets' masks from _coset_masks), lengths[j] is
    L_1(c), the length of the longest step-c run in D, for the j-th stride
    c of _strides(n, q)[0], and the key (-(L + 1), b, c) is the least over
    those strides of the longest run L, its lowest start b and c.

    Scaling by q permutes D, so the step-q*c runs are the step-c runs
    scaled by q and L_1(q*c) = L_1(c): one `_longest_run` per orbit of the
    units under x -> q*x gives L_1 of every unit stride.  bch_bound reads
    the key and ht_bound the lengths, the bottom layer of its search, so
    one `cycbound bound` makes one pass for both.
    """
    n, masks = spec.n, _coset_masks(spec.n, spec.q)
    mask = sum([masks[r] for r in spec.coset_reps])
    lengths = []
    best = None
    for c in _strides(n, spec.q)[0]:
        length, starts = _longest_run(mask, n, c)
        key = (-(length + 1), _lowest_bit(starts), c)
        if best is None or key < best:
            best = key
        lengths.append(length)
    return mask, best, tuple(lengths)


@on_spec
def bch_bound(spec: CyclicCodeSpec) -> BchWitness:
    """Longest arithmetic run in the defining set, as d >= run + 1.

    The witness is the longest run with the smallest start b, then the
    smallest step; `_stride_runs` scans one step per class of units modulo
    the powers of q, since scaling D by q permutes it.
    """
    if not spec.defining_set:
        return BchWitness(1, None, None)
    if len(spec.defining_set) == spec.n:
        raise ValueError("the zero code has no minimum distance")
    neg_value, b, m1 = _stride_runs(spec)[1]
    return BchWitness(-neg_value, b, m1)


@on_spec
def ht_bound(spec: CyclicCodeSpec) -> HtWitness:
    """Hartmann-Tzeng bound: best d0 + nu over witness templates (see HtWitness).

    The search uses the normalized single-multiplier family (m2 = 1:
    consecutive runs of length d0-1 stacked nu+1 times at a unit stride
    m1), which costs a factor phi(n) less than the raw two-multiplier
    family and still dominates the BCH bound, since a plain arithmetic run
    is the d0 = 2 case.  The full (m1, m2) family can be strictly stronger
    (a handful of length-31 codes reach 8 versus the normalized 7).

    Among the templates of the best value the witness has the smallest
    nu, then the smallest b1 and m1; `_ht_template` finds it.  Its bottom
    layer is D itself, whose longest runs L_1(m1) the BCH pass
    `_stride_runs` has already found for every stride, so the search
    starts from the BCH value and rescans only the strides that can still
    reach the best value on a higher layer.  The search is index
    arithmetic on the defining set alone, with no field and no length cap.
    """
    n = spec.n
    if not spec.defining_set:
        return HtWitness(1, None, None, None, None, None)
    if len(spec.defining_set) == n:
        raise ValueError("the zero code has no minimum distance")
    mask, _, lengths = _stride_runs(spec)
    _, half, orbit = _strides(n, spec.q)
    neg_value, nu, b1, m1, m2 = _ht_template(mask, n, half, [lengths[j] for j in orbit], 1)
    return HtWitness(-neg_value, b1, m1, m2, -neg_value - nu, nu)


def _ht_template(mask: int, n: int, half, first, m2: int) -> tuple[int, ...]:
    """Key (-value, nu, b1, m1, m2) of the best HT template with inner step
    m2 over the unit strides m1, for the defining set `mask` (an n-bit
    mask, neither empty nor all of Z_n).  `half` holds the unit strides
    m1 <= n/2 and first[i] = L_1(half[i]), the length of the longest
    step-half[i] run in D.

    Layer T_r holds the starts of the step-m2 runs of length >= r in D
    (T_1 = D, T_(r+1) = T_r & rot(T_r, m2)).  A template with d0 - 1 = r
    stacks nu + 1 of their starts at stride m1, so the best value is the
    maximum over r and m1 of r + L_r(m1), with L_r(m1) the longest step-m1
    run in T_r.  A run read backwards is a run of step n - m1, so only the
    strides m1 <= n/2 are read.  At the best value nu = value - r - 1, so
    the smallest nu comes from the highest layer that reaches it; b1 is
    then the lowest start of a longest run there over all strides m1, and
    m1 the smallest stride with a run opening at b1.

    The layers are climbed from T_1 = D, whatever m2 is, so `first` gives
    layer 1 without a scan and the value starts at 1 + max L_1, the BCH
    value.  Pruning: T_r is in T_(r-1), so L_r(m1) is at most ub(m1), the
    run of m1 on the last layer where it was scanned, and layer r rescans
    m1 only when r + ub(m1) >= value, the best value so far; a stride left
    out cannot reach value on layer r.  A layer that reaches value (>=,
    ties go up) becomes the top and keeps its rescanned runs and their
    starts, which hold every stride with L_r(m1) = value - r; the run
    {a, a + m1, ..., a + (L - 1)m1} read backwards is a step-(n - m1) run
    opening at a + (L - 1)m1, so the starts of n - m1 are those of m1
    rotated by (L - 1)m1.

    Stopping: T_(r+1) is a proper subset of T_r (a nonempty set closed
    under + m2, a unit, is all of Z_n), so r + |T_r| never grows with r,
    and the climb stops at the first layer where it is below value, or
    empty: no later layer can tie.  A layer of one member is therefore the
    last, and its member is a run of length 1 at every stride, so it
    reaches value, r + 1 >= value, without a scan.  When the longest runs
    of the top layer have length 1, every stride ties and every member of
    the layer opens one, so b1 is its lowest member and m1 = 1.
    """
    ub = list(first)
    value = 1 + max(ub)
    top, top_layer, top_runs = 1, mask, [(u, run, None) for u, run in zip(half, ub)]
    t, r, back = mask, 1, n - m2
    while True:
        t &= (t >> m2) | (t << back)  # the AND drops the bits above n
        r += 1
        size = t.bit_count()
        if not t or r + size < value:
            break
        if size == 1:  # the last layer, a 1-run at every stride
            value, top, top_layer = r + 1, r, t
            break
        scanned = []
        for i, u in enumerate(ub):
            if r + u >= value:
                run, starts = _longest_run(t, n, half[i])
                ub[i] = run
                scanned.append((half[i], run, starts))
        longest = max((run for _, run, _ in scanned), default=0)
        if r + longest >= value:  # r < value when no stride is rescanned
            value, top, top_layer, top_runs = r + longest, r, t, scanned
    need = value - top
    if need == 1:  # every stride ties, every member of the layer a start
        return (-value, 0, _lowest_bit(top_layer), 1, m2)
    starts = {}
    for u, run, x in top_runs:
        if run == need:
            if x is None:  # layer 1, known by its lengths alone
                x = _longest_run(top_layer, n, u)[1]
            c = (need - 1) * u % n  # a run read backwards opens c further on
            starts[u], starts[n - u] = x, (x << c | x >> (n - c)) & ((1 << n) - 1)
    b1 = min(map(_lowest_bit, starts.values()))
    m1 = min(m for m, x in starts.items() if x >> b1 & 1)
    return (-value, need - 1, b1, m1, m2)


def verify_bch_witness(spec: CyclicCodeSpec, wit: BchWitness) -> bool:
    """Independent re-check of a BchWitness run against the defining set."""
    if wit.b is None:
        return wit.value == 1 and not spec.defining_set
    n = spec.n
    if math.gcd(n, wit.m1) != 1 or wit.value < 2:
        return False
    D = set(spec.defining_set)
    return all((wit.b + i * wit.m1) % n in D for i in range(wit.value - 1))


def verify_ht_witness(spec: CyclicCodeSpec, wit: HtWitness) -> bool:
    """Independent re-check of an HtWitness template against the defining set."""
    if wit.b1 is None:
        return wit.value == 1 and not spec.defining_set
    n = spec.n
    if math.gcd(n, wit.m1) != 1 or math.gcd(n, wit.m2) != 1:
        return False
    if wit.value != wit.d0 + wit.nu or wit.d0 < 2 or wit.nu < 0:
        return False
    D = set(spec.defining_set)
    return all(
        (wit.b1 + i1 * wit.m1 + i2 * wit.m2) % n in D
        for i1 in range(wit.nu + 1)
        for i2 in range(wit.d0 - 1)
    )


@on_length
def _packed_words(n: int, q: int) -> PackedWords:
    """PackedWords(q, n), shared by every oracle call at length n over GF(q):
    it is read-only once built."""
    return PackedWords(q, n)


# Words one table of min_distance_oracle may hold past depth 3: the sweep
# workload's deepest table holds 2,380, and a word of n = 255 bits takes
# about 72 bytes with its slot, so the table read and the one built stay
# within 5 MB.
MAX_TABLE_WORDS = 1 << 15


def min_distance_oracle(spec: CyclicCodeSpec, cap: int = 1 << 24) -> DistanceWitness:
    """Exact minimum distance d with a codeword of weight d, over codes with
    at most `cap` codewords (q^k), from the low-weight messages of one
    information set (the Brouwer-Zimmermann bound).

    Systematic row i is x^(r+i) - (x^(r+i) mod g), r = n - k: the unit
    vector at position r + i of the window {r, ..., n-1} plus a parity
    part.  For w = 1, 2, ... every sum of w rows is weighed, its first
    coefficient fixed to 1 (a scalar multiple has the same weight) and the
    others over all nonzero digits; the lightest sum seen is the witness.

    Soundness: any k consecutive positions of a cyclic code form an
    information set, and each of the n cyclic windows {j, ..., j+k-1 mod n}
    is carried onto {r, ..., n-1} by a cyclic shift, which keeps the weight.
    Once every word with at most w nonzeros in the window is weighed, take a
    word c lighter than all of them.  None of its n shifts is weighed, so c
    has more than w nonzeros in each of the n windows; each position lies in
    exactly k windows, so k * wt(c) >= n(w + 1).  The least weight seen is
    therefore d as soon as it is at most ceil(n(w + 1) / k).  At w = k every
    word has been weighed and the Singleton bound d <= r + 1 <= ceil(n(k + 1)
    / k) ends the loop.

    A row is a gf.PackedWords word, one bit per GF(2) digit, so a sum is
    one words.add and a weight one words.weight; the words of length n
    over GF(q) come from _packed_words, kept on the Length of (q, n), and
    rows[i][c - 1] is c * x^(r+i) above the gf.remainder_rows entry for
    -c.  The table of depth t holds the sums of t - 1 rows over every digit,
    in one flat list grouped by first row: table[at[s]:] holds those whose
    first row is s or later, and the table of depth 2 is the rows.  Level w
    adds rows[i][0] to each entry of table[at[i + 1]:] of the table of depth
    w, one C-level pass per first row i, so one add and one weight per word;
    these sums, grouped by i, are the digit-1 part of the table of depth
    w + 1.  Over GF(2) they are that table and cost no add.  For q > 2 the
    first rows' other digits are added when the next level is needed, and
    the table of depth 3 is always built afresh, in the order (i, j, a, b),
    rows before digits.  Any other table is built only if it holds at most
    MAX_TABLE_WORDS words; once one is not, the outer rows of each level
    are carried as a prefix sum over the deepest table built, the first
    with digit 1 and each later one over its digits before the next row.
    So every level weighs its words in one order: by the first w - 2 rows,
    each row's digit before the next row, then by the last two rows, then
    their digits.  Only a strictly lighter word replaces the best, so the
    first lightest word in that order wins.
    """
    if spec.k == 0:
        raise ValueError("the zero code has no minimum distance")
    if spec.q**spec.k > cap:
        raise TooManyCodewords(f"{spec.q}^{spec.k} codewords exceed the cap {cap}")
    q, n, k = spec.q, spec.n, spec.k
    r, m = n - k, q - 1
    words = _packed_words(n, q)
    add, weight, width = words.add, words.weight, words.width
    rems = remainder_rows(words, generator_polynomial(spec), range(r, n))
    shifts = range(r * width, n * width, width)
    # columns[c - 1][i] = rows[i][c - 1] is c * x^(r+i) - c * (x^(r+i) mod g)
    columns = [[u << shift | rem[neg_c] for shift, rem in zip(shifts, rems)]
               for u, neg_c in zip(words.units[1:], map(words.df.neg, range(1, q)))]
    rows = list(zip(*columns))
    table, at, t = [y for row in rows for y in row], range(0, k * m + 1, m), 2
    level = None
    best = min(columns[0], key=weight)
    w, least = 1, weight(best)
    while least * k > n * (w + 1) + k - 1:
        if w == 2 < q:  # depth 3 afresh: spread[s] repeats each rows[s][a] and
            # tiled each row q - 1 times, so cycling spread[s] along tiled
            # pairs them in the order (j, a, b)
            spread = list(zip(*[column for column in columns for _ in range(m)]))
            tiled = [y for row in rows for y in row * m]
            level, marks = [], [0, 0]
            for s in range(1, k - 1):
                level += map(add, cycle(spread[s]), tiled[(s + 1) * m * m:])
                marks.append(len(level))
        elif level is not None and m > 1:  # the first rows' other digits
            ones, ends, level, marks = level, marks, [], [0, 0]
            for s in range(1, len(ends) - 1):
                level += ones[ends[s]:ends[s + 1]]
                for x in rows[s][1:]:
                    level += map(add, repeat(x), table[at[s + 1]:])
                marks.append(len(level))
        if level is not None:
            table, at, t = level, marks, w + 1
        w += 1
        prefixes = zip(columns[0], range(1, k - w + 2))  # (rows[i][0], i + 1)
        for stop in range(k - w + 2, k - t + 2):  # the rows past the table's depth
            prefixes = _grown(prefixes, rows, add, stop)
        sums = chain.from_iterable(map(add, repeat(prefix), table[at[s]:]) for prefix, s in prefixes)
        # with t == w the sums of first row i are the next table's group i
        sizes = [len(table) - a for a in at[1:k - w + 2]]
        level = list(sums) if t == w and m * sum(sizes) <= MAX_TABLE_WORDS else None
        marks = [*accumulate(sizes, initial=0)]
        word = min(sums if level is None else level, key=weight)
        if weight(word) < least:
            best, least = word, weight(word)
    return DistanceWitness(least, tuple(words.digits(best)), "oracle")


def _grown(prefixes, rows, add, stop: int):
    """The (prefix sum, next row) pairs of `prefixes`, each grown by one row
    j, from its next row up to stop - 1, over j's digits: lazily, in that
    order."""
    return ((add(prefix, x), j + 1) for prefix, s in prefixes for j in range(s, stop) for x in rows[j])


def has_distance_two(n: int, coset_reps) -> bool:
    """Binary codes: minimum distance two iff gcd(n, reps...) > 1.

    A binomial x^a + x^b lies in the code exactly when n / gcd(n, reps...)
    divides a - b, so the gcd test decides the existence of weight-2 words.
    """
    reps = tuple(r % n for r in coset_reps)
    if not reps:
        raise ValueError("need at least one coset representative")
    return math.gcd(n, *reps) > 1


def distance_three_witness(n: int, coset_reps, g: int, r: int) -> DistanceWitness:
    """Weight-3 codeword 1 + x^(u/r) + x^(ub/r) for binary codes whose
    defining-set cosets all reduce into C_r mod 2^g - 1 (exponent quotients
    taken mod 2^g - 1, u = n / (2^g - 1), b solving 1 + beta + beta^b = 0).

    Together with the distance-two gcd test being false this pins d = 3.
    For lengths whose splitting field exceeds the table cap, the vanishing
    check runs inside GF(2^g) through the identity
    c(alpha^i) = 1 + beta^(i/r) + beta^(ib/r), which is exact for the code
    whose alpha satisfies alpha^u = beta.
    """
    if g < 2:
        raise PreconditionViolated("need g >= 2")
    G = (1 << g) - 1
    if n % G:
        raise PreconditionViolated(f"2^{g}-1 = {G} does not divide n = {n}")
    if n % 2 == 0:
        raise PreconditionViolated("binary cyclic codes need odd length")
    r %= G
    if r == 0 or math.gcd(r, G) != 1:
        raise PreconditionViolated(f"r must be a unit mod {G}")
    reps = tuple(x % n for x in coset_reps)
    if not reps:
        raise PreconditionViolated("need at least one coset representative")
    if math.gcd(n, *reps) != 1:
        raise PreconditionViolated("gcd(n, reps...) > 1: the code has weight-2 words")
    Cr = cyclotomic_coset(G, 2, r)
    defining: set[int] = set()
    for rep in reps:
        if rep % G not in Cr:
            raise PreconditionViolated(f"representative {rep} not in the coset of {r} mod {G}")
        defining |= cyclotomic_coset(n, 2, rep)
    u = n // G
    if (1 << min_extension_degree(2, n)) <= MAX_FIELD_SIZE:
        (ctx, root), scale = _code_field(2, n), 1
        beta = ctx.pow(root, u)
    else:
        ctx, beta = _code_field(2, G)
        root, scale = beta, u
    # b solves 1 + beta + beta^b = 0; exponent quotients are taken mod G
    target = ctx.add(1, beta)
    b = next(k for k in range(1, G) if ctx.pow(beta, k) == target)
    rinv = pow(r, -1, G)
    support = tuple(sorted({0, u * rinv, u * (b * rinv % G)}))
    if len(support) != 3:
        raise AssertionError("degenerate support")  # impossible: b != 0, 1
    for i in sorted(defining):
        val = 0
        for z in support:  # alpha^(i*z), read as beta^(i*z/u) in the small field
            val = ctx.add(val, ctx.pow(root, i * z // scale))
        if val != 0:
            raise AssertionError(f"witness does not vanish at exponent {i}")
    word = [0] * n
    for z in support:
        word[z] = 1
    return DistanceWitness(3, tuple(word), "weight3-construction")


def lowest_rate_d2_code(a: int, g: int) -> CyclicCodeSpec:
    """Binary code of length a*g whose defining set is the multiples of g:
    largest defining set (smallest dimension a*(g-1)) with distance two."""
    if a < 2 or g < 2:
        raise PreconditionViolated("need a > 1 and g > 1")
    n = a * g
    if n % 2 == 0:
        raise NotCoprime("binary cyclic codes need odd length")
    D = {j * g for j in range(a)}
    gcd_based = {i for i in range(n) if math.gcd(i, g) > 1 or i == 0}
    if gcd_based != D:
        warnings.warn(
            "gcd-based coset selection differs from the evenly spaced defining set; "
            "using the evenly spaced set",
            stacklevel=2,
        )
    spec = build_code(2, n, _coset_reps(n, 2, D), name=f"lowest-rate-d2({a},{g})")
    if set(spec.defining_set) != D or spec.k != a * (g - 1):
        raise PreconditionViolated("defining set is not coset-closed for these parameters")
    return spec


def lowest_rate_d3_code(a: int, g: int, r: int = 1) -> CyclicCodeSpec:
    """Binary code of length a*(2^g - 1) with the largest defining set
    (dimension a*(2^g-1-g)) still having distance three: the r-scaled
    a-fold repetition of the Hamming zero pattern {1, 2, 4, ..., 2^(g-1)}."""
    if a < 2 or g < 2:
        raise PreconditionViolated("need a > 1 and g > 1")
    G = (1 << g) - 1
    if not 0 < r < G or math.gcd(r, G) != 1:
        raise PreconditionViolated(f"r must be a unit mod {G}")
    n = a * G
    if n % 2 == 0:
        raise NotCoprime("binary cyclic codes need odd length")
    D = sorted({r * (j * G + (1 << t)) % n for j in range(a) for t in range(g)})
    if n - len(D) != a * (G - g):
        raise PreconditionViolated("scaling by r collapses the defining set")
    spec = build_code(2, n, _coset_reps(n, 2, D), name=f"lowest-rate-d3({a},{g},{r})")
    if list(spec.defining_set) != D:
        raise AssertionError("construction produced an unexpected defining set")
    return spec


def enumerate_small_codes(lengths, max_k: int, limit: int = 5000):
    """All binary cyclic codes over the given lengths with 1 <= k <= max_k,
    one per coset-rep subset, in deterministic order, capped at `limit`."""
    count = 0
    for n in lengths:
        cosets = coset_partition(n, 2)
        reps = [min(c) for c in cosets]
        sizes = [len(c) for c in cosets]
        for mask in range(1, 1 << len(cosets)):
            total = sum(sizes[i] for i in range(len(cosets)) if mask >> i & 1)
            k = n - total
            if k < 1 or k > max_k:
                continue
            chosen = [reps[i] for i in range(len(cosets)) if mask >> i & 1]
            yield build_code(2, n, chosen)
            count += 1
            if count >= limit:
                return
