"""The non-zero-locator bound engine.

A non-zero-locator code is a small auxiliary cyclic code L of length n_l
coprime to n whose defining set fills the gaps of the defining set of the
code under study: whenever, for j = 0..mu-2, each index is covered either
by D_C (shifted by e, stepped by a unit w) or by D_L (shifted by t_l), the
minimum distance satisfies d >= ceil(mu / d_l).  This module searches for
the best such certificate, knows the closed forms for single-parity-check
and Reed-Solomon locators, generates candidate locator codes, and emits
the bound-to-HT ratio grids as CSV.

The search itself is pure modular-index combinatorics.  Each locator
stores one nonzero codeword of weight d_l when its spec is built, as
base-q^u digits; the decoder maps those digits into its own field.  Only
Reed-Solomon locators store none: their word is the generator polynomial,
expanded in whatever field is in use (see `min_weight_codeword` and the
decoder module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

from . import cyclic
from .gf import (
    NotCoprime,
    build_field,
    digit_elements,
    min_extension_degree,
    neg_one_digit,
    nth_root_of_unity,
    prime_power,
    root_product,
    subfield_digit_maps,
)
from .cyclic import PreconditionViolated

MAX_N_L = 12  # longest candidate locator
MAX_U = 4  # largest extension degree of a Reed-Solomon candidate
LOCATOR_SEARCH_CAP = 1 << 20  # codewords q_l^k_l the oracle may weigh for a custom locator

LOCATOR_KINDS = (
    "trivial",
    "spc",
    "rs",
    "hamming",
    "lowest-rate-d3",
    "custom",
)


class DegenerateCover(ValueError):
    """Every index is covered: the joint zero set leaves no gap to certify."""


@dataclass(frozen=True)
class LocatorSpec:
    """A non-zero-locator code over GF(q^u), q_l = q^u.

    support/coeffs are the one nonzero codeword of weight d_l that the
    bound and the decoder use, chosen when the spec is built: coeffs are
    its nonzero coefficients as base-q_l digits, a polynomial over GF(q_l)
    that vanishes on D_L at some order-n_l root of unity.  Reed-Solomon
    locators store coeffs = None: their word is the generator polynomial,
    all d_l coefficients nonzero by the MDS property, expanded at whatever
    root is in use.
    """

    kind: str
    u: int
    n_l: int
    defining_set: tuple[int, ...]
    d_l: int
    support: tuple[int, ...]
    coeffs: tuple[int, ...] | None

    def __post_init__(self):
        if self.kind not in LOCATOR_KINDS:
            raise ValueError(f"unknown locator kind {self.kind!r}")
        if self.u < 1 or self.n_l < 1 or self.d_l < 1:
            raise ValueError("locator parameters must be positive")
        if (self.coeffs is None) != (self.kind == "rs"):
            raise ValueError("Reed-Solomon locators store no codeword; every other kind stores one")
        if list(self.support) != sorted(set(range(self.n_l)).intersection(self.support)):
            raise ValueError("support must be increasing exponents in [0, n_l)")
        if self.coeffs is not None and (len(self.coeffs) != len(self.support) or 0 in self.coeffs):
            raise ValueError("coeffs must give one nonzero digit per support index")


@dataclass(frozen=True)
class NzlCertificate:
    """Witness that d >= d_star = ceil(mu / d_l).

    For every j in [0, mu-2]: (e + w*j) mod n is in D_C or (j + t_l) mod n_l
    is in D_L; the condition fails at j = mu-1.
    """

    e: int
    w: int
    t_l: int
    mu: int
    d_star: int
    locator: LocatorSpec


def nzl_bound(mu: int, d_l: int) -> int:
    """ceil(mu / d_l)."""
    if mu < 1 or d_l < 1:
        raise ValueError("need mu >= 1 and d_l >= 1")
    return -(-mu // d_l)


def _stepped(row: bytes, w: int) -> bytes:
    """The row read at stride w: out[i] = row[w*i mod len(row)], for w >= 1."""
    return (row * w)[::w]


def _step_orbits(in_c: bytes, reps, n: int):
    """(orbit representatives, stabilizer) for the unit steps w mod n, n > 1.

    The stabilizer S = {s unit : s*D_C = D_C} acts on the steps by
    multiplication; each representative is the smallest w of its orbit S*w.
    A unit s is in S when s*D_C lies in D_C, since multiplying by a unit is
    a bijection.  `reps` holds one member of each coset of D_C under x -> q*x
    (D_C itself always qualifies): s*(r*q^j) = (s*r)*q^j and D_C is closed
    under x -> q*x, so s*D_C lies in D_C once s*r is in D_C for every r of
    reps, and the units are filtered by one r after another.  _code_rows
    computes this once per code, for every locator scanned against it.
    """
    stab = cyclic._units(n)
    for r in reps:
        stab = [s for s in stab if in_c[s * r % n]]
    stab = tuple(stab)
    return cyclic._orbit_reps(n, stab), stab


def _code_rows(defining_set, reps, n: int, search_w: bool):
    """The per-code half of the locator scan: (rows, stabilizer, layers,
    ones, rotations).  rows holds (w, D_C row stepped by w), one step w per
    stabilizer orbit (w = 1 alone when `search_w` is off); the stepped row
    is M_w = {a : w*a in D_C} as a string of n digits "0" and "1".  `reps`
    are as in _step_orbits.

    layers[r - 1], r = 1 .. MAX_N_L, packs one field per step: field i,
    bits i*(n + 1) .. i*(n + 1) + n - 1, holds the step-1 Hartmann-Tzeng
    layer T_r(M_w) = {a : a, a + 1, ..., a + r - 1 in M_w} of the i-th
    step's row, and bit i*(n + 1) + n is a guard bit, always 0; `ones`
    has bit 0 of every field.  Since w*(a + i) = w*a + i*w, this field is
    w^-1 * T_r(w), with T_r(w) = {a : a, a + w, ..., a + (r - 1)w in D_C}
    the step-w layer of D_C.  A run {a, a + w*p, ...} of T_r(w) is w times
    a run {b, b + p, ...} of field i, so the layer test of mu_search, a
    k-run of T_m(w) at step w*p, p the period of the locator's zeros, is a
    k-run at step p in field i: the same step in every field.  Layer 1 is
    the rows read as one binary numeral, and T_(r+1) = T_r & rot(T_r, 1)
    in every field at once by _field_rotation.  `rotations` caches the
    rotation by p for _scan, keyed by p and shared by every locator of
    that period.
    The rows depend only on the code, so one code's rows serve every
    locator."""
    in_c = bytearray(n)
    for i in defining_set:
        in_c[i % n] = 1
    in_c = bytes(in_c)
    if search_w and n > 1:
        ws, stab = _step_orbits(in_c, reps, n)
    else:
        ws, stab = [1 % n], (1,)
    digits = in_c.translate(_DIGITS)
    rows = [(w, _stepped(digits, w or 1)) for w in ws]  # w = 0 only when n = 1
    ones, fields = 1, 1
    while fields < len(rows):  # doubling, then cut to one bit per step
        ones |= ones << fields * (n + 1)
        fields *= 2
    ones &= (1 << len(rows) * (n + 1)) - 1
    # the highest field first, each as its guard bit and then bits n - 1 .. 0
    t = int(b"".join([b"0" + row[::-1] for _, row in reversed(rows)]), 2)
    rotate = _field_rotation(n, 1 % n, ones)
    layers = [0] * MAX_N_L
    for r in range(MAX_N_L):
        if not t:
            break
        layers[r] = t
        t &= rotate(t)
    return rows, stab, layers, ones, {}


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _field_rotation(n: int, s: int, ones: int):
    """The map rotating every field of a packed int down by s, 0 <= s < n:
    each field is n bits with a zero guard bit above (see _code_rows),
    `ones` has bit 0 of every field, and field value t goes to
    (t >> s) | (t << (n - s)) cut to n bits.  The two shifts of the whole
    int carry bits across fields; the masks lo (bits 0 .. n - s - 1 of each
    field) and hi (bits n - s .. n - 1) keep only the bits of each half
    that come from the field itself, so the guard bits stay 0."""
    back = n - s
    lo, hi = (ones << back) - ones, (ones << n) - (ones << back)
    return lambda x: x >> s & lo | x << back & hi


@lru_cache(maxsize=1024)
def _locator_zeros(n_l: int, defining_set) -> tuple[frozenset[int], int, int, tuple[int, ...]]:
    """(D_L as residues mod n_l, m, p, s) for the layer tests of _scan.

    m is the length of the longest cyclic block of consecutive residues
    outside D_L, n_l when D_L is empty and 0 when D_L is all of Z_(n_l).
    p is the period of D_L, the least p >= 1 with D_L + p = D_L; it divides
    n_l, and the blocks outside D_L repeat every p residues.  s[L], for
    L < m + p - 1, is the least over the n_l phases t of the longest block
    of residues outside D_L among the window t, t + 1, ..., t + L - 1: every
    L consecutive residues hold a block of s[L] outside D_L, and s[L] never
    falls as L grows, since a longer window holds the shorter one."""
    in_l = frozenset(i % n_l for i in defining_set)
    gaps = "".join("0" if t in in_l else "1" for t in range(n_l))
    m = min(n_l, max(map(len, (gaps * 2).split("0"))))
    p = next(d for d in range(1, n_l + 1) if gaps[d:] + gaps[:d] == gaps)
    tiled = gaps * 3  # every window opens below n_l and is shorter than 2*n_l
    stretch = tuple(
        min(max(map(len, tiled[t : t + L].split("0"))) for t in range(n_l)) for L in range(m + p - 1)
    )
    return in_l, m, p, stretch


def _cover(code_row: bytes, in_l, n_l: int) -> tuple[bytearray, int]:
    """(cover, z) for one step w: the n*n_l cycle indices j, digit "1" when
    w*j mod n is in D_C (code_row, the stepped row, tiled n_l times) or
    j mod n_l is in D_L (the indices t, t + n_l, ... of each locator zero
    t), rotated to open at z, the first uncovered index.  mu_search builds
    it only for the steps that pass the layer test."""
    cover = bytearray(code_row * n_l)
    covered = b"1" * len(code_row)  # the n cycle indices of one locator residue
    for t in in_l:
        cover[t::n_l] = covered
    z = cover.find(b"0")
    return cover[z:] + cover[:z], z


def _scan(n: int, code_rows, locator: LocatorSpec, floor: int) -> NzlCertificate | None:
    """The mu_search certificate of `locator` from the code's _code_rows, or
    None when no run of covered indices is at least `floor` long.  Floor 0
    always gives the certificate: mu = 1, the empty run, when no index is
    covered.  The scan, the degeneracy test, the layer tests (Lemmas 1 and
    2) and the opening length r0 are those of mu_search.

    Step i reads field i of a packed layer (see _code_rows), with L the
    run still needed when the step comes up and m, p, s from
    _locator_zeros: runs[k - 1], T_m after k - 1 AND-rotations by p, when
    k = floor((L - m + 1)/p) > 0, and layer s[L] when k = 0 (s[L] = 0
    rules out no step).  These are the k and s[L] of a test of the step's
    own layers alone, so the same covers are built; neither falls as L
    grows, so once the layer read is 0 no later step can pass."""
    n_l = locator.n_l
    if math.gcd(n, n_l) != 1:
        raise NotCoprime(f"gcd({n}, {n_l}) != 1")
    in_l, m, p, stretch = _locator_zeros(n_l, tuple(locator.defining_set))
    rows, stab, layers, ones, rotations = code_rows
    if not m or b"0" not in rows[0][1]:
        raise DegenerateCover("the code and locator zero sets cover every index")
    m = min(m, MAX_N_L)  # the layers kept
    total = n * n_l
    best = None  # (-mu, e, t_l, w)
    # the longest run found so far, or the least that counts (r0 as below)
    longest = b"1" * max(floor, 1, MAX_N_L - layers.count(0))
    rotate = rotations.get(p)
    if rotate is None:
        rotate = rotations[p] = _field_rotation(n, p % n, ones)
    field = (1 << n) - 1
    runs = [layers[m - 1]]
    for i, (w, code_row) in enumerate(rows):
        k = (len(longest) - m + 1) // p
        if k > 0:  # does field i of T_m hold a k-run at step p?
            while len(runs) < k and runs[-1]:
                runs.append(runs[-1] & rotate(runs[-1]))
            x = runs[min(k, len(runs)) - 1]  # 0 when the runs die out before k
        else:  # does field i hold a D_C run of the stretch s[L]?
            span = stretch[len(longest)]
            x = layers[min(span, MAX_N_L) - 1] if span else ones  # s[L] = 0 rules out no step
        if not x:
            break
        if not x >> i * (n + 1) & field:
            continue
        cover, z = _cover(code_row, in_l, n_l)
        if longest not in cover:
            continue
        while longest + b"1" in cover:
            longest += b"1"
        mu = len(longest) + 1
        # cover opens with an uncovered index and holds no longer run, so
        # each match of this pattern is one longest run, opening at at + 1
        run = b"0" + longest
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
        return NzlCertificate(0, 1 % n, 0, 1, nzl_bound(1, locator.d_l), locator)
    neg_mu, e, t_l, w = best
    mu = -neg_mu
    return NzlCertificate(e, w, t_l, mu, nzl_bound(mu, locator.d_l), locator)


def mu_search(
    defining_set,
    n: int,
    locator: LocatorSpec,
    *,
    search_w: bool = True,
) -> NzlCertificate:
    """Best certificate for the given locator: maximal mu over offsets e,
    locator shifts t_l, and (optionally) unit steps w, ties broken by
    smaller (e, t_l, w).  With no covered index at all, mu = 1 at
    (e, t_l, w) = (0, 0, 1 mod n).

    For fixed w the pairs ((e + w*j) mod n, (j + t_l) mod n_l) walk a single
    cycle of length n*n_l, so the run maximization is one circular scan of
    that cycle per w.  The cover of the cycle is built at bytes level: the
    code row stepped by w is tiled n_l times, the cycle indices t mod n_l of
    each locator zero t are set by one strided slice assignment, and the
    cover is rotated to start at an uncovered index.  Substring tests then
    skip a step whose longest run is shorter than the best so far, and find
    the starts of its longest runs.

    Degeneracy: by the CRT, cycle index j is uncovered exactly when
    w*j mod n is outside D_C and j mod n_l is outside D_L, and such a j
    exists for every unit w unless D_C = Z_n or D_L = Z_(n_l).  On that
    condition DegenerateCover is raised before any step is scanned.

    Most steps are ruled out before their n*n_l-byte cover is built, by
    Hartmann-Tzeng layers of D_C (Hartmann & Tzeng, IEEE Trans. IT 18(2),
    1972).  Let T_r(w) = {a : a, a + w, ..., a + (r - 1)w in D_C}.  Let
    b, b + 1, ..., b + m - 1 be a cyclic block of m >= 1 residues mod n_l
    outside D_L; the scan takes the longest, which for the trivial, SPC and
    RS locators (D_L = [0, n_l - k_l)) is every residue outside D_L.  Let p
    be the period of D_L, the least p >= 1 with D_L + p = D_L: p divides
    n_l, so it is a unit mod n, and the block repeats every p residues.
    For the length-9 lowest-rate distance-three locator, D_L = {1, 2, 4, 5,
    7, 8}, m = 1 and p = 3.

    Lemma 1.  If cycle indices c .. c + L - 1 are all covered, T_m(w) holds
    a run of length k = floor((L - m + 1)/p) at the step s = w*p mod n.
    Proof: let j in [c, c + L - m] with j = b mod p.  Indices j .. j + m - 1
    are covered and their residues lie in a block outside D_L, so D_C
    covers them: w*j, w*j + w, ..., w*j + (m - 1)w are in D_C, that is w*j
    is in T_m(w).  The interval holds L - m + 1 consecutive integers, so at
    least k such j, j_0 + i*p for i < k, whose indices w*j_0 + i*s form
    a run of T_m(w) at step s.

    Lemma 2.  Let s[L] be the least, over the phases t, of the longest
    block of residues outside D_L among t, t + 1, ..., t + L - 1.  If cycle
    indices c .. c + L - 1 are all covered, T_(s[L])(w) is not empty.
    Proof: their residues, L consecutive ones, hold a block of s[L]
    outside D_L, at some indices j .. j + s[L] - 1 of the run, so D_C
    covers w*j, w*j + w, ..., w*j + (s[L] - 1)w.  Lemma 2 serves where
    k = 0, that is L < m + p - 1; from there on every window holds a whole
    block, s[L] = m, and Lemma 1 at k >= 1 is as strong.

    So a step w that fails the test of Lemma 1 (k > 0) or Lemma 2 (k = 0),
    with L the length of the run the scan still needs, holds no such run,
    and is skipped before its cover is built; the substring test would
    have skipped it too, so no certificate and no tie-break changes.  In
    packed form (see _code_rows), T_r(w) = w * T_r(M_w) with M_w the
    stepped row, and a k-run at step w*p is w times a k-run of T_m(M_w) at
    step p: the same step for every w, so the k - 1 AND-rotations of one
    int holding every step's T_m(M_w) are made once per locator, and each
    step reads its own field of the result, or of layer s[L].  For the
    trivial locator (n_l = m = p = 1, k = L) the test is exact.  The proofs
    hold for any block outside D_L, so a block longer than the MAX_N_L
    layers that _code_rows keeps is read as one of MAX_N_L residues.

    Opening length.  Let r0 be the number of nonempty layers, the largest
    r <= MAX_N_L with T_r(w) nonempty for some scanned step w.  The cover
    of that w holds a covered run of length r0 whatever D_L is, so the
    longest run is at least r0, and the scan looks only for runs of at
    least max(r0, 1): a step with no run that long cannot hold a longest
    run, and the certificate and tie-break are those of the longest runs.

    Steps are scanned one per orbit of the multiplier stabilizer
    S = {s unit mod n : s*D_C = D_C}: the step s*w sees the same cover as w,
    with every run start e moved to s*e and t_l unchanged, so each longest
    run of a representative w stands for the certificates (s*e, t_l, s*w),
    s in S, and the tie-break is taken over all of them.  For a cyclic code
    S contains the powers of q.  `search_w=False` scans w = 1 alone, the
    paper's form of the bound.

    The stepped code rows, their layers and the orbits depend only on the
    code; they are built by _code_rows, which best_certificate calls once
    per code for all its locators.
    """
    defining_set = tuple(defining_set)
    return _scan(n, _code_rows(defining_set, defining_set, n, search_w), locator, 0)


def verify_certificate(defining_set, n: int, cert: NzlCertificate) -> bool:
    """Re-check a certificate by direct scan, independently of the searcher."""
    loc = cert.locator
    if math.gcd(n, loc.n_l) != 1 or math.gcd(cert.w, n) != 1:
        return False
    if cert.d_star != nzl_bound(max(cert.mu, 1), loc.d_l):
        return False
    D = {i % n for i in defining_set}
    DL = {i % loc.n_l for i in loc.defining_set}

    def covered(j):
        return (cert.e + cert.w * j) % n in D or (j + cert.t_l) % loc.n_l in DL

    if any(not covered(j) for j in range(cert.mu - 1)):
        return False
    return not covered(cert.mu - 1)


def spc_closed_form(d0: int, nu: int) -> int:
    """ceil(d0 + nu*(d0-1)/2): the bound from a single-parity-check locator
    aligned with a normalized HT template of stride m = nu + 2."""
    if d0 < 2 or nu < 0:
        raise ValueError("need d0 >= 2 and nu >= 0")
    return -(-(2 * d0 + nu * (d0 - 1)) // 2)


class InvalidGeometry(ValueError):
    """Reed-Solomon locator shape needs m > nu + 1."""


def rs_closed_form(d0: int, nu: int, m: int) -> int:
    """ceil((m*d0 - nu)/(m - nu)): the bound from a cyclic Reed-Solomon
    locator of length m and distance m - nu on a normalized HT template."""
    if m <= nu + 1:
        raise InvalidGeometry(f"need m > nu + 1, got m={m}, nu={nu}")
    if d0 < 2:
        raise ValueError("need d0 >= 2")
    return -(-(m * d0 - nu) // (m - nu))


def ht_improvement_predicate(d0: int, nu: int, m: int) -> bool:
    """True exactly when the Reed-Solomon closed form beats d0 + nu.

    For nu >= 1 this is d0 > m - nu + 1; at nu = 0 the closed form always
    collapses to d0 (the BCH case), so no improvement is possible there
    whatever d0 is.
    """
    if m <= nu + 1:
        raise InvalidGeometry(f"need m > nu + 1, got m={m}, nu={nu}")
    return nu > 0 and d0 > m - nu + 1


def trivial_locator() -> LocatorSpec:
    """Length-1 full-space locator (codeword 1): degenerates to the BCH run."""
    return LocatorSpec("trivial", 1, 1, (), 1, (0,), (1,))


def spc_locator(n_l: int, q: int) -> LocatorSpec:
    """Single parity check code of length n_l over the splitting field
    GF(q^u), u the order of q mod n_l, so its root beta lives in the
    locator's own field; codeword 1 - x, its -1 digit found without a field."""
    if n_l < 2:
        raise ValueError("need n_l >= 2")
    u = min_extension_degree(q, n_l)  # raises NotCoprime for bad q
    p, a = prime_power(q)
    return LocatorSpec("spc", u, n_l, (0,), 2, (0, 1), (1, neg_one_digit(p, a * u)))


def rs_locator(n_l: int, k_l: int, q: int) -> LocatorSpec:
    """Cyclic Reed-Solomon locator of length n_l and dimension k_l over
    GF(q^u) (u minimal with n_l | q^u - 1), zeros at exponents 0..n_l-k_l-1;
    the minimum-weight codeword is the generator polynomial itself, its d_l
    coefficients nonzero by the MDS property (asserted where a field is built)."""
    if not 1 <= k_l < n_l:
        raise ValueError("need 1 <= k_l < n_l")
    u = min_extension_degree(q, n_l)
    d_l = n_l - k_l + 1
    return LocatorSpec("rs", u, n_l, tuple(range(n_l - k_l)), d_l, tuple(range(d_l)), None)


def hamming_locator() -> LocatorSpec:
    """The binary (7, 4, 3) Hamming code with defining set {3, 5, 6}."""
    return replace(custom_locator(2, 1, 7, (3, 5, 6)), kind="hamming")


def d3_locator(a: int, g: int, r: int = 1) -> LocatorSpec:
    """Lowest-rate distance-three binary locator of length a*(2^g - 1), with
    the weight-3 word of cyclic.distance_three_witness."""
    code = cyclic.lowest_rate_d3_code(a, g, r)
    wit = cyclic.distance_three_witness(code.n, code.coset_reps, g, r)
    support = tuple(i for i, c in enumerate(wit.codeword) if c)
    return LocatorSpec("lowest-rate-d3", 1, code.n, code.defining_set, wit.d, support, (1,) * wit.d)


def custom_locator(q: int, u: int, n_l: int, defining_set) -> LocatorSpec:
    """Locator from an explicit defining set, closed under multiplication by
    q_l = q^u.  Its minimum distance and its stored word both come from one
    min_distance_oracle pass, capped at LOCATOR_SEARCH_CAP codewords; the
    word is a codeword of that code, so it vanishes on D_L at the canonical
    root of cyclic.code_field."""
    q_l = q**u
    code = cyclic.build_code(q_l, n_l, cyclic._coset_reps(n_l, q_l, defining_set))
    if set(code.defining_set) != {i % n_l for i in defining_set}:
        raise PreconditionViolated("defining set is not closed under multiplication by q_l")
    wit = cyclic.min_distance_oracle(code, cap=LOCATOR_SEARCH_CAP)
    support = tuple(i for i, c in enumerate(wit.codeword) if c)
    coeffs = tuple(wit.codeword[i] for i in support)
    return LocatorSpec("custom", u, n_l, code.defining_set, wit.d, support, coeffs)


def min_weight_codeword(q: int, locator: LocatorSpec):
    """(support, base-q_l digit coefficients) of the locator's codeword: the
    stored word, or for Reed-Solomon the generator polynomial in the
    locator's canonical splitting field."""
    if locator.coeffs is not None:
        return locator.support, locator.coeffs
    q_l = q**locator.u
    p, a = prime_power(q_l)
    s_l = min_extension_degree(q_l, locator.n_l)
    ctx = build_field(p, a * s_l)
    beta = nth_root_of_unity(ctx, locator.n_l)
    _, to_digit = subfield_digit_maps(ctx, q_l)
    support, elts = _locator_codeword_elements(ctx, beta, locator, q)
    return support, tuple(to_digit[e] for e in elts)


def _locator_codeword_elements(ctx, beta, locator: LocatorSpec, q: int):
    """The locator's codeword as (support, elements of ctx): the stored
    digits through subfield_digit_maps, or the Reed-Solomon generator
    polynomial at the order-n_l root beta."""
    if locator.coeffs is not None:
        to_elt, _ = subfield_digit_maps(ctx, q**locator.u)
        return locator.support, tuple(digit_elements(to_elt, locator.coeffs))
    g = root_product(ctx, beta, locator.defining_set)
    if not all(g):
        raise AssertionError("Reed-Solomon generator with zero coefficient")
    return tuple(range(len(g))), g


@lru_cache(maxsize=256)
def candidate_locators(n: int, q: int) -> tuple[LocatorSpec, ...]:
    """Deterministic, deduplicated locator candidates for length n, each of
    length n_l <= MAX_N_L = 12 coprime to n: the trivial locator, single
    parity checks, cyclic Reed-Solomon codes over GF(q^u), u <= MAX_U = 4,
    and for q = 2 only the Hamming (7,4,3) and the lowest-rate
    distance-three code of length 9, the only kinds that build a field.
    The candidates are built once per (n, q)."""
    out: list[LocatorSpec] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()

    def emit(loc: LocatorSpec):
        key = (loc.n_l, loc.defining_set)
        if key not in seen:
            seen.add(key)
            out.append(loc)

    emit(trivial_locator())
    for n_l in range(2, MAX_N_L + 1):
        if math.gcd(n_l, n) == 1 and math.gcd(n_l, q) == 1:
            emit(spc_locator(n_l, q))
    for n_l in range(2, MAX_N_L + 1):
        if math.gcd(n_l, n) != 1 or math.gcd(n_l, q) != 1:
            continue
        if min_extension_degree(q, n_l) > MAX_U:
            continue
        for k_l in range(1, n_l):
            emit(rs_locator(n_l, k_l, q))
    if q == 2 and math.gcd(n, 7) == 1:
        emit(hamming_locator())
    if q == 2 and math.gcd(n, 9) == 1:  # the one odd a*(2^g - 1) <= MAX_N_L, a >= 2
        emit(d3_locator(3, 2))
    return tuple(out)


def certificate_rank(cert: NzlCertificate) -> tuple:
    """Ranking key of candidate certificates, best first: larger d_star,
    then smaller (d_l, n_l, e, t_l, w)."""
    return (-cert.d_star, cert.locator.d_l, cert.locator.n_l, cert.e, cert.t_l, cert.w)


def best_certificate(code: cyclic.CyclicCodeSpec, locators, *, search_w: bool = True):
    """The first of the mu_search certificates of `locators` for the code
    when they are sorted by certificate_rank, ties to the earlier locator;
    None when there is no locator.  `search_w` is as in mu_search.

    The locators are scanned in order against the code's shared
    _code_rows, keeping the best certificate so far, the incumbent, of
    value d*.  A later locator L of distance d_l is scanned only for runs
    of at least (d* - 1)*d_l covered indices when (d_l, n_l) is at most
    the incumbent's, and of at least d* * d_l otherwise.  This is exact.
    A longest run r < (d* - 1)*d_l gives mu = r + 1 <= (d* - 1)*d_l, so
    ceil(mu/d_l) < d*; r < d* * d_l gives at most d*, which then loses the
    tie-break on (d_l, n_l).  Either way L cannot outrank the incumbent.
    A locator that reaches its floor gets its full mu_search certificate,
    since a floor at or below its longest run changes neither that run nor
    the tie-break.  DegenerateCover is tested once per locator, before any
    step, as in mu_search.  The floor is what makes the layer tests of
    mu_search pay: the run still needed sets how many steps they rule out
    before a cover is built.
    """
    n = code.n
    rows = _code_rows(code.defining_set, code.coset_reps, n, search_w)
    best = None
    for loc in locators:
        if best is None:
            floor = 0
        elif (loc.d_l, loc.n_l) <= (best.locator.d_l, best.locator.n_l):
            floor = (best.d_star - 1) * loc.d_l
        else:
            floor = best.d_star * loc.d_l
        # at floor 0 (the first locator, or d* = 1) even mu = 1 can rank first
        cert = _scan(n, rows, loc, floor)
        if cert is not None and (best is None or certificate_rank(cert) < certificate_rank(best)):
            best = cert
    return best


def best_bound(code: cyclic.CyclicCodeSpec, *, search_w: bool = True):
    """Best certificate over the fixed candidate family of
    candidate_locators, with the BCH and HT values for comparison.  Returns
    (certificate, {"bch", "ht", "d_star"}); no field is built unless q = 2.
    The search is best_certificate's, whose floors let the layer tests of
    mu_search (Lemmas 1 and 2) rule out most steps."""
    bch = cyclic.bch_bound(code).value
    ht = cyclic.ht_bound(code).value
    best = best_certificate(code, candidate_locators(code.n, code.q), search_w=search_w)
    return best, {"bch": bch, "ht": ht, "d_star": best.d_star}


def ratio_grid(nu_range, d0_range, m_rule):
    """Rows (nu, d0, m, d_star, ht, ratio) over the grid; m_rule maps nu to
    an iterable of locator lengths m (each must exceed nu + 1)."""
    for nu in nu_range:
        for d0 in d0_range:
            for m in m_rule(nu):
                d_star = rs_closed_form(d0, nu, m)
                ht = d0 + nu
                yield (nu, d0, m, d_star, ht, d_star / ht)


def ratio_grid_csv(nu_range, d0_range, m_rule, out):
    """Write the ratio grid as CSV (header nu,d0,m,d_star,ht,ratio)."""
    out.write("nu,d0,m,d_star,ht,ratio\n")
    for nu, d0, m, d_star, ht, ratio in ratio_grid(nu_range, d0_range, m_rule):
        out.write(f"{nu},{d0},{m},{d_star},{ht},{ratio!r}\n")

