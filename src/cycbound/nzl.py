"""The non-zero-locator bound engine.

A non-zero-locator code is a small auxiliary cyclic code L of length n_l
coprime to n whose defining set fills the gaps of the defining set of the
code under study: whenever, for j = 0..mu-2, each index is covered either
by D_C (shifted by e, stepped by a unit w) or by D_L (shifted by t_l), the
minimum distance satisfies d >= ceil(mu / d_l).  This module searches for
the best such certificate, knows the closed forms for single-parity-check
and Reed-Solomon locators, generates candidate locator codes, and emits
the bound-to-HT ratio grids as CSV.

The search itself is pure modular-index combinatorics; fields only enter
when locator codewords are realized (see `min_weight_codeword` and the
decoder module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import cyclic
from .gf import (
    NotCoprime,
    Poly,
    build_field,
    min_extension_degree,
    neg_one_digit,
    nth_root_of_unity,
    prime_power,
    subfield_digit_maps,
)
from .cyclic import SearchCapExceeded, PreconditionViolated

MAX_N_L = 12  # longest candidate locator
MAX_U = 4  # largest extension degree of a Reed-Solomon candidate
LOCATOR_SEARCH_CAP = 1 << 20  # messages a locator brute force may enumerate

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
    """A non-zero-locator code over GF(q^u).

    support/coeffs describe a verified minimum-weight codeword in the
    locator's canonical splitting field (coeffs as base-q_l digits; None
    for Reed-Solomon locators, whose codeword is the generator polynomial
    and is re-expanded from the defining set in whatever field is in use).
    meta carries construction parameters for kinds that need them.
    """

    kind: str
    u: int
    n_l: int
    defining_set: tuple[int, ...]
    d_l: int
    support: tuple[int, ...]
    coeffs: tuple[int, ...] | None
    meta: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in LOCATOR_KINDS:
            raise ValueError(f"unknown locator kind {self.kind!r}")
        if self.u < 1 or self.n_l < 1 or self.d_l < 1:
            raise ValueError("locator parameters must be positive")


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


def _step_orbits(in_c: bytes, n: int):
    """(orbit representatives, stabilizer) for the unit steps w mod n, n > 1.

    The stabilizer S = {s unit : s*D_C = D_C} acts on the steps by
    multiplication; each representative is the smallest w of its orbit S*w.
    A unit s is in S when s*D_C lies in D_C, since multiplying by a unit is
    a bijection, so the units are filtered by s*i in D_C for one i of D_C
    after another.  _code_rows computes this once per code, for every
    locator scanned against it.
    """
    stab = [s for s in range(1, n) if math.gcd(s, n) == 1]
    for i in range(n):
        if in_c[i]:
            stab = [s for s in stab if in_c[s * i % n]]
    return cyclic._orbit_reps(n, stab), tuple(stab)


def _code_rows(defining_set, n: int, search_w: bool):
    """The per-code half of the locator scan: ([(w, D_C row stepped by w)],
    stabilizer), one step w per stabilizer orbit (w = 1 alone when
    `search_w` is off).  It depends only on (D_C, n), so one code's rows
    serve every locator."""
    in_c = bytearray(n)
    for i in defining_set:
        in_c[i % n] = 1
    in_c = bytes(in_c)
    if search_w and n > 1:
        ws, stab = _step_orbits(in_c, n)
    else:
        ws, stab = [1 % n], (1,)
    return [(w, _stepped(in_c, w or 1)) for w in ws], stab  # w = 0 only when n = 1


def _scan(n: int, code_rows, locator: LocatorSpec, floor: int) -> NzlCertificate | None:
    """The mu_search certificate of `locator` from the code's _code_rows, or
    None when no run of covered indices is at least `floor` long.  Floor 0
    always gives the certificate: mu = 1, the empty run, when no index is
    covered."""
    n_l = locator.n_l
    if math.gcd(n, n_l) != 1:
        raise NotCoprime(f"gcd({n}, {n_l}) != 1")
    in_l = {i % n_l for i in locator.defining_set}
    rows, stab = code_rows
    total = n * n_l
    ones = b"\1" * n  # the n cycle indices of one locator residue
    best = None  # (-mu, e, t_l, w)
    longest = b"\1" * max(floor, 1)  # the longest run found so far, or the least that counts
    for w, code_row in rows:
        cover = bytearray(code_row * n_l)
        for t in in_l:
            cover[t::n_l] = ones
        z = cover.find(0)
        if z < 0:
            raise DegenerateCover("the code and locator zero sets cover every index")
        cover = cover[z:] + cover[:z]
        if longest not in cover:
            continue
        while longest + b"\1" in cover:
            longest += b"\1"
        mu = len(longest) + 1
        # cover opens with an uncovered index and holds no longer run, so
        # each match of this pattern is one longest run, opening at at + 1
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

    Steps are scanned one per orbit of the multiplier stabilizer
    S = {s unit mod n : s*D_C = D_C}: the step s*w sees the same cover as w,
    with every run start e moved to s*e and t_l unchanged, so each longest
    run of a representative w stands for the certificates (s*e, t_l, s*w),
    s in S, and the tie-break is taken over all of them.  For a cyclic code
    S contains the powers of q.  `search_w=False` scans w = 1 alone, the
    paper's form of the bound.

    The stepped code rows and the orbits depend only on the code; they are
    built by _code_rows, which ranked_certificates and best_bound call once
    per code for all their locators.
    """
    return _scan(n, _code_rows(defining_set, n, search_w), locator, 0)


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
    spec = LocatorSpec("hamming", 1, 7, (3, 5, 6), 3, (), None)
    support, coeffs = min_weight_codeword(2, spec)
    return replace(spec, support=support, coeffs=coeffs)


def d3_locator(a: int, g: int, r: int = 1) -> LocatorSpec:
    """Lowest-rate distance-three binary locator of length a*(2^g - 1)."""
    code = cyclic.lowest_rate_d3_code(a, g, r)
    spec = LocatorSpec(
        "lowest-rate-d3", 1, code.n, code.defining_set, 3, (), None, meta=(a, g, r)
    )
    support, coeffs = min_weight_codeword(2, spec)
    return replace(spec, support=support, coeffs=coeffs)


def custom_locator(q: int, u: int, n_l: int, defining_set) -> LocatorSpec:
    """Locator from an explicit defining set; its minimum distance and a
    minimum-weight codeword are established by brute force, never trusted."""
    q_l = q**u
    code = cyclic.build_code(q_l, n_l, cyclic._coset_reps(n_l, q_l, defining_set))
    if set(code.defining_set) != {i % n_l for i in defining_set}:
        raise PreconditionViolated("defining set is not closed under multiplication by q_l")
    wit = cyclic.min_distance_oracle(code, cap=LOCATOR_SEARCH_CAP)
    support = tuple(i for i, c in enumerate(wit.codeword) if c)
    coeffs = tuple(wit.codeword[i] for i in support)
    return LocatorSpec("custom", u, n_l, code.defining_set, wit.d, support, coeffs)


def min_weight_codeword(q: int, locator: LocatorSpec):
    """(support, digit coefficients) of a minimum-weight locator codeword,
    realized in the locator's canonical splitting field.

    single parity check -> 1 - x; Reed-Solomon -> the generator polynomial
    (all d_l coefficients nonzero by the MDS property); lowest-rate
    distance-three -> the ternomial construction; anything else by brute
    force over at most LOCATOR_SEARCH_CAP messages q_l^k_l."""
    q_l = q**locator.u
    p, a = prime_power(q_l)
    s_l = min_extension_degree(q_l, locator.n_l)
    ctx = build_field(p, a * s_l)
    beta = nth_root_of_unity(ctx, locator.n_l)
    _, to_digit = subfield_digit_maps(ctx, q_l)
    support, elts = _locator_codeword_elements(ctx, beta, locator, q)
    return support, tuple(to_digit[e] for e in elts)


def _locator_codeword_elements(ctx, beta, locator: LocatorSpec, q: int):
    """Minimum-weight locator codeword (support, field elements) for the
    concrete order-n_l root beta of ctx.  The codeword of a binary kind
    depends on which root is in play, so it is re-derived per context."""
    kind = locator.kind
    if kind == "trivial":
        return (0,), (1,)
    if kind == "spc":
        return (0, 1), (1, ctx.neg(1))
    if kind == "lowest-rate-d3":
        _, g, r = locator.meta
        u = locator.n_l // ((1 << g) - 1)
        return cyclic._weight3_support(ctx, ctx.pow(beta, u), g, u, r), (1,) * 3
    g = Poly.one(ctx)
    for i in locator.defining_set:
        g = g * Poly(ctx, (ctx.neg(ctx.pow(beta, i)), 1))
    if kind == "rs":
        if not all(g.coeffs):
            raise AssertionError("Reed-Solomon generator with zero coefficient")
        return tuple(range(len(g.coeffs))), g.coeffs
    # hamming / custom: brute force against this beta, on digits, which
    # subfield_digit_maps carries over as a field isomorphism
    q_l = q**locator.u
    k_l = locator.n_l - len(locator.defining_set)
    if q_l**k_l > LOCATOR_SEARCH_CAP:
        raise SearchCapExceeded(f"{q_l}^{k_l} messages exceed the cap {LOCATOR_SEARCH_CAP}")
    to_elt, to_digit = subfield_digit_maps(ctx, q_l)
    if any(c not in to_digit for c in g.coeffs):
        raise PreconditionViolated("defining set is not closed under multiplication by q_l")
    g_digits = tuple(to_digit[c] for c in g.coeffs)
    best, word = cyclic._first_min_weight_word(q_l, g_digits, k_l, stop=locator.d_l)
    if best != locator.d_l:
        raise AssertionError("no codeword of the declared minimum weight found")
    support = tuple(i for i, c in enumerate(word) if c)
    return support, tuple(to_elt[word[i]] for i in support)


def candidate_locators(n: int, q: int):
    """Deterministic, deduplicated list of locator candidates for length n,
    each of length n_l <= MAX_N_L = 12 coprime to n: the trivial locator,
    single parity checks, cyclic Reed-Solomon codes over GF(q^u), u <= MAX_U
    = 4, and for q = 2 only the Hamming (7,4,3) and the lowest-rate
    distance-three code of length 9, the only kinds that build a field."""
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
    return out


def certificate_rank(cert: NzlCertificate) -> tuple:
    """Ranking key of candidate certificates, best first: larger d_star,
    then smaller (d_l, n_l, e, t_l, w)."""
    return (-cert.d_star, cert.locator.d_l, cert.locator.n_l, cert.e, cert.t_l, cert.w)


def ranked_certificates(
    code: cyclic.CyclicCodeSpec, *, search_w: bool = True
) -> list[NzlCertificate]:
    """One certificate per candidate locator of candidate_locators(n, q),
    each the one mu_search gives, sorted by certificate_rank.  The code's
    stepped rows are built once and shared by all candidates; `search_w` is
    as in mu_search."""
    rows = _code_rows(code.defining_set, code.n, search_w)
    cands = candidate_locators(code.n, code.q)
    return sorted((_scan(code.n, rows, loc, 0) for loc in cands), key=certificate_rank)


def best_bound(code: cyclic.CyclicCodeSpec, *, search_w: bool = True):
    """Best certificate over the fixed candidate family of
    candidate_locators, with the BCH and HT values for comparison.  Returns
    (certificate, {"bch", "ht", "d_star"}); no field is built unless q = 2.
    The certificate is ranked_certificates(code, search_w=...)[0].

    The candidates are scanned in order against the code's shared stepped
    rows, keeping the best certificate so far, the incumbent, of value d*.
    A later locator L of distance d_l is scanned only for runs of at least
    (d* - 1)*d_l covered indices when (d_l, n_l) is at most the incumbent's,
    and of at least d* * d_l otherwise.  This is exact.  A longest run
    r < (d* - 1)*d_l gives mu = r + 1 <= (d* - 1)*d_l, so ceil(mu/d_l) < d*;
    r < d* * d_l gives at most d*, which then loses the tie-break on
    (d_l, n_l).  Either way L cannot outrank the incumbent.  A locator that
    reaches its floor gets its full mu_search certificate, since a floor at
    or below its longest run changes neither that run nor the tie-break.
    Each cover is tested for DegenerateCover before the floor, as in
    mu_search.
    """
    bch = cyclic.bch_bound(code).value
    ht = cyclic.ht_bound(code).value
    n = code.n
    rows = _code_rows(code.defining_set, n, search_w)
    best = None
    for loc in candidate_locators(n, code.q):
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


def sweep_soundness(lengths, max_k: int = 16, limit: int = 5000):
    """Yield (code, bch, ht, certificate, oracle_distance) over all small
    binary cyclic codes; consumers assert every bound <= oracle distance."""
    for code in cyclic.enumerate_small_codes(lengths, max_k, limit):
        cert, comparison = best_bound(code)
        oracle = cyclic.min_distance_oracle(code)
        yield code, comparison["bch"], comparison["ht"], cert, oracle.d
