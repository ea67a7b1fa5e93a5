import ast
import functools
import inspect
import operator
import pathlib
import random
import re
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycbound import cli, cyclic, decoder, nzl
from cycbound.cyclic import PreconditionViolated
from cycbound.decoder import (
    InconsistentLocator,
    LengthMismatch,
    ZeroSyndrome,
    build_context,
    decode,
    error_values,
    find_error_positions,
    remainder,
    solve_key_equation,
    syndromes,
)
from cycbound.gf import (
    combined_degree,
    min_extension_degree,
    prime_power,
    subfield_digit_maps,
)
from cycbound.nzl import verify_certificate
from reference import Poly, euclid_key_equation, padd, pdivmod, pmod, pmul, pone, psub, small_codes


@pytest.fixture(scope="module")
def ctx21(example21, spc5):
    cert = nzl.mu_search(example21.defining_set, 21, spc5)
    return build_context(example21, spc5, cert)


@pytest.fixture(scope="module")
def ctx65(code65, spc3):
    cert = nzl.mu_search(code65.defining_set, 65, spc3, search_w=False)
    return build_context(code65, spc3, cert)


def _key_equation(field, S, mu):
    """solve_key_equation's coefficient lists as reference Polys."""
    lam, omega = solve_key_equation(field, S, mu)
    return Poly(field, lam), Poly(field, omega)


def _plant(rng, code, t):
    cw = cyclic.random_codeword(code, rng)
    word = list(cw)
    positions = rng.sample(range(code.n), t)
    for p in positions:
        word[p] = rng.choice([d for d in range(code.q) if d != word[p]])
    return cw, word, positions


def _forney_polys(ctx):
    """f = prod_z (1 - beta^z x) and h = sum_z c_z prod_{z' != z} (1 - beta^z' x)
    over the locator support z with twisted coefficients c_z, built from
    their definitions."""
    field = ctx.field
    lin = {z: Poly(field, (1, field.neg(field.pow(ctx.beta, z)))) for z in ctx.support}
    f = pone(field)
    for z in ctx.support:
        f = pmul(f, lin[z])
    h = Poly.zero(field)
    for z, c in zip(ctx.support, ctx.coeffs):
        term = Poly(field, (c,))
        for other in ctx.support:
            if other != z:
                term = pmul(term, lin[other])
        h = padd(h, term)
    return f, h


def test_context_structure(ctx21, spc5):
    field = ctx21.field
    assert (field.p, field.m) == (2, 12)
    assert field.element_order(ctx21.alpha) == 21
    assert field.element_order(ctx21.beta) == 5
    assert ctx21.kappa == 0
    f, h = _forney_polys(ctx21)
    assert f.degree == 2 and h.degree <= 1
    # f(x) = (1 - x)(1 - x*beta) for the parity-check codeword 1 + x,
    # h(x) = a_0*(1 - x*beta) + a_1*(1 - x) with a = (1, 1) and shift 0
    beta = ctx21.beta
    assert ctx21.support == (0, 1) and ctx21.coeffs == (1, 1)
    assert f == pmul(Poly(field, (1, 1)), Poly(field, (1, beta)))
    assert h == padd(Poly(field, (1, beta)), Poly(field, (1, 1)))
    assert f(field.pow(beta, -ctx21.kappa)) == 0


# One code per q, each with custom locators coprime to its length; every
# candidate locator whose combined field has at most 2^13 elements is tried.
_FORNEY_CODES = {
    2: ((65, (1, 5)), [(1, 7, (1, 2, 4)), (1, 3, (1, 2))]),
    3: ((13, (1,)), [(1, 4, (1, 3)), (1, 2, (0,))]),
    4: ((5, (1,)), [(1, 3, (1,)), (2, 3, (0,))]),
    5: ((4, (1,)), [(1, 3, (1, 2)), (1, 3, (0,))]),
}


@functools.lru_cache(maxsize=None)
def _candidate_contexts(q):
    """Contexts of the _FORNEY_CODES code over GF(q) for every candidate and
    custom locator with mu >= 2 whose combined field has at most 2^13
    elements."""
    (n, reps), customs = _FORNEY_CODES[q]
    code = cyclic.build_code(q, n, reps)
    p, a = prime_power(q)
    s = min_extension_degree(q, n)
    locators = [*nzl.candidate_locators(n, q), *(nzl.custom_locator(q, *c) for c in customs)]
    out = []
    for loc in locators:
        s_l = min_extension_degree(q**loc.u, loc.n_l)
        if p ** (a * combined_degree(s, loc.u, s_l)) > 1 << 13:
            continue
        cert = nzl.mu_search(code.defining_set, n, loc)
        if cert.mu >= 2:
            out.append(build_context(code, loc, cert))
    return tuple(out)


@pytest.mark.parametrize("q", sorted(_FORNEY_CODES))
def test_forney_constant_matches_definitions(q):
    # the stored constant equals f'(beta^-kappa) / h(beta^-kappa) with f and
    # h built from their definitions, for every locator kind
    kinds = set()
    for ctx in _candidate_contexts(q):
        field = ctx.field
        f, h = _forney_polys(ctx)
        ref = field.pow(ctx.beta, -ctx.kappa)
        assert h(ref) != 0
        assert ctx.forney == field.div(f.derivative()(ref), h(ref)), ctx.locator
        kinds.add(ctx.locator.kind)
    expected = {"trivial", "spc", "rs", "custom"} | ({"hamming", "lowest-rate-d3"} if q == 2 else set())
    assert kinds == expected


def _untwisted_word(ctx):
    """The context's locator word before the certificate shift twisted it,
    as (support, base-q_l digits)."""
    field, loc = ctx.field, ctx.locator
    _, to_digit = subfield_digit_maps(field, ctx.code.q**loc.u)
    return ctx.support, tuple(
        to_digit[field.div(c, field.pow(ctx.beta, z * ctx.cert.t_l))]
        for z, c in zip(ctx.support, ctx.coeffs)
    )


@pytest.mark.parametrize("q", sorted(_FORNEY_CODES))
def test_context_word_is_the_stored_word(q):
    # the decoder uses the word its locator spec stores (and `bound`
    # prints), for every kind that stores one; on (2; 3; 1) and (2; 9; 1)
    # the canonical order-7 root is not the one the Hamming word needs
    contexts = list(_candidate_contexts(q))
    if q == 2:
        for n in (3, 9):
            code, loc = cyclic.build_code(2, n, (1,)), nzl.hamming_locator()
            contexts.append(build_context(code, loc, nzl.mu_search(code.defining_set, n, loc)))
    kinds = set()
    for ctx in contexts:
        loc = ctx.locator
        if loc.coeffs is not None:
            assert _untwisted_word(ctx) == (loc.support, loc.coeffs), (ctx.code, loc)
            kinds.add(loc.kind)
    binary_only = {"hamming", "lowest-rate-d3"} if q == 2 else set()
    assert kinds == {"trivial", "spc", "custom"} | binary_only


def test_context_refuses_a_word_outside_the_locator():
    # 1 + x + x^2 vanishes on {3, 5, 6} at no root of order 7, so no beta
    # makes it a Hamming codeword: the context is refused, nothing decoded
    code = cyclic.build_code(2, 9, (1,))
    bad = nzl.LocatorSpec("hamming", 1, 7, (3, 5, 6), 3, (0, 1, 2), (1, 1, 1))
    cert = nzl.mu_search(code.defining_set, 9, bad)
    assert cert.mu >= 2 and verify_certificate(code.defining_set, 9, cert)
    with pytest.raises(PreconditionViolated, match="no root of order 7"):
        build_context(code, bad, cert)


def test_context_rejects_bad_certificate(example21, spc5, spc3):
    cert = nzl.mu_search(example21.defining_set, 21, spc5)
    with pytest.raises(PreconditionViolated):
        build_context(example21, spc3, cert)  # locator mismatch
    import dataclasses

    broken = dataclasses.replace(cert, mu=cert.mu + 2)
    with pytest.raises(PreconditionViolated):
        build_context(example21, spc5, broken)


def test_trivial_locator_reduces_to_classical(example21):
    loc = nzl.trivial_locator()
    cert = nzl.mu_search(example21.defining_set, 21, loc, search_w=False)
    ctx = build_context(example21, loc, cert)
    f, h = _forney_polys(ctx)
    assert f == Poly(ctx.field, (1, 1))  # 1 - x in characteristic 2
    assert h == pone(ctx.field)
    assert ctx.forney == 1  # -beta^0 / 1 in characteristic 2
    assert cert.d_star == 5  # the BCH bound


def test_syndromes_vanish_on_codewords(ctx21, example21):
    rng = random.Random(101)
    for _ in range(1000):
        cw = cyclic.random_codeword(example21, rng)
        assert not any(syndromes(ctx21, remainder(ctx21, cw)))


def test_syndromes_vanish_on_codewords_65(ctx65, code65):
    rng = random.Random(102)
    for _ in range(1000):
        cw = cyclic.random_codeword(code65, rng)
        assert not any(syndromes(ctx65, remainder(ctx65, cw)))


def test_syndromes_zero_word_and_length(ctx21):
    assert remainder(ctx21, (0,) * 21) == 0
    assert not any(syndromes(ctx21, 0))
    with pytest.raises(LengthMismatch):
        remainder(ctx21, (0,) * 20)


@pytest.mark.parametrize("digit", [-1, "q", 256, 1.0], ids=["minus-one", "q", "256", "float"])
@pytest.mark.parametrize("check", ["syndromes", "is_codeword"])
def test_digits_outside_range_rejected(check, digit):
    # -1 must not be read as the digit q - 1 by negative indexing, and a
    # byte outside [0, q) must not be read as another digit or index past a
    # remainder table; on (2; 21), (3; 80) and GF(4), and past either side
    # of the byte lanes
    for key in [_CONTEXTS["binary-21"], _CONTEXTS["ternary-80"], (4, 21, (1, 2, 3)), *_EDGE_CODES]:
        ctx = _context(*key)
        q = ctx.code.q
        if digit == 256 and q > 256:
            continue
        # position 3, and n - 1, in the last remainder table, partial where
        # q <= 3 and the table size does not divide n
        for position in (3, ctx.code.n - 1):
            word = [0] * ctx.code.n
            word[position] = q if digit == "q" else digit
            with pytest.raises(ValueError, match=rf"digits must be integers in \[0, {q}\)"):
                if check == "syndromes":
                    remainder(ctx, word)
                else:
                    cyclic.is_codeword(ctx.code, word)


def test_syndromes_single_error_closed_form(ctx21):
    # one error of value 1 at position p: S_j = alpha^(p*(w*j+e)) * a(beta^(j+t))
    field = ctx21.field
    cert = ctx21.cert
    for p in (0, 5, 13):
        word = [0] * 21
        word[p] = 1
        S = syndromes(ctx21, remainder(ctx21, word))
        for j in range(cert.mu - 1):
            expect = field.mul(
                field.pow(ctx21.alpha, p * (cert.w * j + cert.e) % 21),
                ctx21.a_evals[j % 5],
            )
            got = S[j]
            assert got == expect


def test_key_equation_matches_constructed_locator(ctx21, example21):
    # Lambda from Berlekamp-Massey equals prod f(x * alpha^(w*p))
    rng = random.Random(7)
    field = ctx21.field
    f, _ = _forney_polys(ctx21)
    for t in (1, 2, 3):
        cw, word, positions = _plant(rng, example21, t)
        S = syndromes(ctx21, remainder(ctx21, word))
        lam, omega = _key_equation(field, S, ctx21.cert.mu)
        expected = pone(field)
        for p in positions:
            shift = field.pow(ctx21.alpha_w, p)
            parts = tuple(
                field.mul(c, field.pow(shift, i)) for i, c in enumerate(f.coeffs)
            )
            expected = pmul(expected, Poly(field, parts))
        assert lam == expected
        assert lam.degree == t * 2 and omega.degree < lam.degree


def test_key_equation_rejects_zero_syndrome(ctx21):
    for S in (Poly.zero(ctx21.field).coeffs, [0] * (ctx21.cert.mu - 1)):
        with pytest.raises(ZeroSyndrome):
            solve_key_equation(ctx21.field, S, ctx21.cert.mu)


def test_key_equation_smallest_instance():
    from cycbound.gf import build_field

    f = build_field(2, 4)
    S = Poly(f, (3,))  # S_0 != 0, everything else 0, mu = 3
    lam, omega = _key_equation(f, S.coeffs, 3)
    assert lam(0) == 1
    assert omega == pmod(pmul(S, lam), Poly.monomial(f, 2))


def test_find_error_positions_roundtrip(ctx21, example21):
    rng = random.Random(8)
    field = ctx21.field
    for t in (1, 2, 3):
        cw, word, positions = _plant(rng, example21, t)
        S = syndromes(ctx21, remainder(ctx21, word))
        lam, _ = solve_key_equation(ctx21.field, S, ctx21.cert.mu)
        assert sorted(find_error_positions(ctx21, lam)) == sorted(positions)


def test_find_error_positions_trivial(ctx21):
    assert find_error_positions(ctx21, pone(ctx21.field).coeffs) == ()
    with pytest.raises(InconsistentLocator):
        # degree 1 cannot be tiled by d_l = 2 roots
        find_error_positions(ctx21, Poly(ctx21.field, (1, ctx21.alpha)).coeffs)


def test_error_values_binary(ctx21, example21):
    rng = random.Random(9)
    cw, word, positions = _plant(rng, example21, 3)
    S = syndromes(ctx21, remainder(ctx21, word))
    lam, omega = solve_key_equation(ctx21.field, S, ctx21.cert.mu)
    E = find_error_positions(ctx21, lam)
    values = error_values(ctx21, lam, omega, E)
    assert all(v == 1 for v in values.values())


def test_decode_roundtrip_21(ctx21, example21):
    rng = random.Random(10)
    for trial in range(120):
        t = rng.choice((1, 2, 3))
        cw, word, positions = _plant(rng, example21, t)
        res = decode(ctx21, word)
        assert res.status == "success", (trial, res.reason)
        assert res.corrected == cw
        assert sorted(res.positions) == sorted(positions)
        assert all(v == 1 for v in res.values.values())


def test_decode_identity(ctx21, example21):
    rng = random.Random(11)
    cw = cyclic.random_codeword(example21, rng)
    res = decode(ctx21, cw)
    assert res.status == "success" and res.corrected == cw and not res.positions


def test_decode_beyond_capacity_never_silent(ctx21, example21):
    # weight-4 patterns: either a reported failure or a valid codeword
    rng = random.Random(12)
    outcomes = {"failure": 0, "success": 0}
    for _ in range(60):
        cw, word, _ = _plant(rng, example21, 4)
        res = decode(ctx21, word)
        outcomes[res.status] += 1
        if res.status == "success":
            assert cyclic.is_codeword(example21, res.corrected)
        else:
            assert res.reason
    assert outcomes["failure"] > 0


def test_decode_w_certificates(code65, spc3):
    # the unit-step generalization must decode for any searched w
    rng = random.Random(13)
    cert = nzl.mu_search(code65.defining_set, 65, spc3, search_w=True)
    assert cert.w != 1  # the maximal run for this code is found off the unit step
    ctx = build_context(code65, spc3, cert)
    for trial in range(60):
        t = rng.choice((1, 2, 3))
        cw, word, positions = _plant(rng, code65, t)
        res = decode(ctx, word)
        assert res.status == "success" and res.corrected == cw, (trial, res.reason)


def test_decode_gf4_with_locator():
    rng = random.Random(14)
    code = cyclic.build_code(4, 5, (1,))
    loc = nzl.spc_locator(3, 4)
    cert = nzl.mu_search(code.defining_set, 5, loc)
    assert cert.d_star == 3
    ctx = build_context(code, loc, cert)
    for trial in range(80):
        cw, word, positions = _plant(rng, code, 1)
        res = decode(ctx, word)
        assert res.status == "success" and res.corrected == cw, (trial, res.reason)
        assert res.values and all(1 <= v < 4 for v in res.values.values())


def test_decode_with_d3_locator():
    # decodes end to end with the stored weight-3 word 1 + x^3 + x^6 of
    # the lowest-rate distance-3 locator
    rng = random.Random(3)
    code = cyclic.build_code(2, 7, (1,))
    loc = nzl.d3_locator(3, 2, 1)
    cert = nzl.mu_search(code.defining_set, 7, loc)
    assert (cert.mu, cert.d_star) == (9, 3) and cert.w != 1
    ctx = build_context(code, loc, cert)
    assert len(ctx.support) == 3
    for trial in range(50):
        cw, word, positions = _plant(rng, code, 1)
        res = decode(ctx, word)
        assert res.status == "success" and res.corrected == cw, (trial, res.reason)


def test_decode_gf3_repetition():
    rng = random.Random(15)
    code = cyclic.build_code(3, 4, (1, 2))
    loc = nzl.trivial_locator()
    cert = nzl.mu_search(code.defining_set, 4, loc, search_w=False)
    ctx = build_context(code, loc, cert)
    for _ in range(40):
        cw, word, positions = _plant(rng, code, 1)
        res = decode(ctx, word)
        assert res.status == "success" and res.corrected == cw


def test_decode_random_noise_never_silent(ctx21, example21):
    # arbitrary words: every success must land exactly on a codeword
    rng = random.Random(16)
    for _ in range(150):
        word = [rng.randrange(2) for _ in range(21)]
        res = decode(ctx21, word)
        if res.status == "success":
            assert cyclic.is_codeword(example21, res.corrected)
            diffs = sum(a != b for a, b in zip(word, res.corrected))
            assert diffs == len(res.positions) <= 3
        else:
            assert res.reason and res.corrected is None


@pytest.mark.parametrize("q, n, reps", [(2, 33, (0, 3, 5, 11)), (2, 127, (7, 15, 21, 23, 29))])
def test_decode_zero_syndrome_outside_code_fails(q, n, reps):
    # the syndromes evaluate a proper subset of D_C on these codes: a word of
    # the larger code with only that subset as zeros has zero syndromes but
    # is no codeword, and must not be returned as one
    ctx = _context(q, n, reps)
    cert = ctx.cert
    seen = {(cert.e + cert.w * j) % n for j in range(cert.mu - 1) if ctx.a_evals[j % ctx.locator.n_l]}
    larger = cyclic.build_code(q, n, cyclic._coset_reps(n, q, seen))
    assert larger.k > ctx.code.k
    rng = random.Random(3)
    word = next(w for w in iter(lambda: cyclic.random_codeword(larger, rng), None)
                if not cyclic.is_codeword(ctx.code, w))
    assert not any(syndromes(ctx, remainder(ctx, word)))
    res = decode(ctx, word)
    assert res.status == "failure" and res.corrected is None
    assert res.reason == "ZeroSyndrome: syndromes vanish on a word outside the code"


def test_position_map_injective(ctx21, ctx65):
    for ctx in (ctx21, ctx65):
        field = ctx.field
        ref = field.pow(ctx.beta, -ctx.kappa)
        seen = set()
        for p in range(ctx.code.n):
            seen.add(field.mul(ref, field.pow(ctx.alpha_w, -p)))
        assert len(seen) == ctx.code.n


# --- independent textbook BCH decoder (classical reduction oracle) -------


def _bch_textbook_decode(field, alpha, n, b, delta, word_elts):
    """Plain narrow-sense-style BCH decoder: syndromes at alpha^(b+i),
    Euclidean solver on the reference Poly arithmetic, root scan, Forney."""

    def peval(a, x):
        acc = 0
        for coef in reversed(a):
            acc = field.add(field.mul(acc, x), coef)
        return acc

    S = [peval(word_elts, field.pow(alpha, b + i)) for i in range(delta - 1)]
    if not any(S):
        return []
    # Euclidean algorithm on (x^(delta-1), S)
    r_prev, r_cur = Poly.monomial(field, delta - 1), Poly(field, S)
    u_prev, u_cur = Poly.zero(field), pone(field)
    while r_cur.degree >= (delta - 1) / 2:
        q, rem = pdivmod(r_prev, r_cur)
        r_prev, r_cur = r_cur, rem
        u_prev, u_cur = u_cur, psub(u_prev, pmul(q, u_cur))
    sigma, omega = list(u_cur.coeffs), list(r_cur.coeffs)
    if not sigma or sigma[0] == 0:
        return None
    c0inv = field.inv(sigma[0])
    sigma = [field.mul(c, c0inv) for c in sigma]
    omega = [field.mul(c, c0inv) for c in omega]
    positions = [p for p in range(n) if peval(sigma, field.pow(alpha, -p)) == 0]
    if len(positions) != len(sigma) - 1:
        return None
    sigma_d = [field.mul(sigma[i], i % field.p) for i in range(1, len(sigma))]
    out = []
    for p in positions:
        x = field.pow(alpha, -p)
        # sigma has roots alpha^-p with factors (1 - x*alpha^p), so the
        # derivative carries a factor -alpha^p that the numerator repays
        num = field.mul(peval(omega, x), field.neg(field.pow(alpha, p)))
        den = field.mul(peval(sigma_d, x), field.pow(alpha, p * b))
        if den == 0:
            return None
        out.append((p, field.div(num, den)))
    return out


def test_classical_reduction_matches_textbook(example21):
    loc = nzl.trivial_locator()
    cert = nzl.mu_search(example21.defining_set, 21, loc, search_w=False)
    ctx = build_context(example21, loc, cert)
    assert (cert.e, cert.w, cert.mu) == (1, 1, 5)
    rng = random.Random(20)
    for trial in range(100):
        t = rng.choice((1, 2))
        cw, word, positions = _plant(rng, example21, t)
        res = decode(ctx, word)
        word_elts = [ctx.to_elt[d] for d in word]
        ref = _bch_textbook_decode(ctx.field, ctx.alpha, 21, cert.e, cert.mu, word_elts)
        assert res.status == "success"
        assert ref is not None
        ref_positions = sorted(p for p, _ in ref)
        assert sorted(res.positions) == ref_positions == sorted(positions)
        for p, v in ref:
            assert ctx.to_digit[v] == res.values[p]
        assert res.corrected == cw


def test_classical_reduction_matches_textbook_65(code65):
    # the length-65 fixture only has a run of two, so the trivial locator
    # decodes single errors; the textbook decoder must agree on all of them
    loc = nzl.trivial_locator()
    cert = nzl.mu_search(code65.defining_set, 65, loc, search_w=False)
    ctx = build_context(code65, loc, cert)
    assert cert.d_star == 3
    rng = random.Random(21)
    for trial in range(100):
        cw, word, positions = _plant(rng, code65, 1)
        res = decode(ctx, word)
        ref = _bch_textbook_decode(
            ctx.field, ctx.alpha, 65, cert.e, cert.mu, [ctx.to_elt[d] for d in word]
        )
        assert res.status == "success" and res.corrected == cw
        assert ref is not None and sorted(res.positions) == sorted(p for p, _ in ref)


# --- log-domain kernels against plain evaluation -----------------------------


@functools.lru_cache(maxsize=None)
def _context(q, n, reps, spc=None):
    # spc=None: the best_bound certificate; otherwise a parity-check locator
    code = cyclic.build_code(q, n, reps)
    if spc is None:
        cert, _ = nzl.best_bound(code)
        loc = cert.locator
    else:
        loc = nzl.spc_locator(spc, q)
        cert = nzl.mu_search(code.defining_set, n, loc)
    return build_context(code, loc, cert)


# The six codes of the benchmark's decode workload, with their best_bound
# certificates, a GF(4) code, and two codes decoded in the prime fields
# GF(7) and GF(13), where a point is a single lane.
_SCAN_CODES = [
    (2, 21, (1, 3, 7, 9)), (2, 65, (1, 5)), (2, 127, (7, 15, 21, 23, 29)),
    (2, 255, (1, 3, 5, 7)), (3, 80, (1, 2, 4, 5)), (3, 121, (1, 2, 4, 5)), (4, 21, (1, 2, 3)),
    (7, 6, (1, 2)), (13, 12, (1, 2, 3)),
]


# GF(q) digits that span several lanes of a row: (8; 9; 1,3), d* = 5 in
# GF(2^6), and (9; 10; 1,2,3), d* = 4 in GF(3^4), whose syndromes sit next to
# the remainder in odd characteristic.
_MULTI_LANE_CODES = [(8, 9, (1, 3)), (9, 10, (1, 2, 3))]
# Both sides of the decoder's byte lanes: GF(61), the largest p whose byte
# holds four digits, which folds its row sums every three rows; GF(67), the
# smallest p that keeps its own lanes and their lane add, and GF(131), whose
# byte would not hold the sum of two digits; GF(256), the largest q whose
# digits fit a byte; and GF(257), whose digits do not.
_EDGE_CODES = [(61, 12, (1, 2, 3, 4)), (67, 11, (1, 2, 3)), (131, 13, (1, 2, 3)),
               (256, 17, (1, 2, 3)), (257, 16, (1, 2, 3, 4))]
_SYNDROME_KEYS = {str(key): key for key in _SCAN_CODES + _MULTI_LANE_CODES + _EDGE_CODES}

# (2; 21) with SPC(5), (3; 80) with the trivial locator and t = 3,
# (3; 13; 1,4) with SPC(2) and w = 3, (3; 13; 1) with SPC(4) and t_l = 2
_CONTEXTS = {
    "binary-21": (2, 21, (1, 3, 7, 9), 5),
    "ternary-80": (3, 80, (1, 2, 4, 5), None),
    "ternary-13-spc2": (3, 13, (1, 4), 2),
    "ternary-13-spc4": (3, 13, (1,), 4),
}


@pytest.mark.parametrize("name", sorted(_CONTEXTS))
def test_chien_points_match_definition(name):
    # chien[p] is the log of gamma_p = beta^-kappa * alpha^(-w*p), the point
    # at which the root scan and the Forney formula evaluate for position p
    ctx = _context(*_CONTEXTS[name])
    field = ctx.field
    assert len(ctx.chien) == ctx.code.n
    for p in range(ctx.code.n):
        gamma = field.div(field.pow(ctx.beta, -ctx.kappa), field.pow(ctx.alpha, ctx.cert.w * p))
        assert ctx.chien[p] == field.log[gamma]


def _digit_add(p, a, b):
    r, place = 0, 1
    while a or b:
        r += (a % p + b % p) % p * place
        a, b, place = a // p, b // p, place * p
    return r


def _plain_horner(field, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = _digit_add(field.p, field.mul(acc, x), c)
    return acc


@pytest.mark.parametrize(
    "name", sorted(_CONTEXTS) + [f"candidates-q{q}" for q in sorted(_FORNEY_CODES)] + list(_SYNDROME_KEYS))
def test_syndromes_match_plain_evaluation(name):
    # the syndromes read out of the packed row sum equal r itself evaluated
    # by Horner's rule, on arbitrary words and on codewords with 0..5 errors
    if name in _CONTEXTS:
        contexts = [_context(*_CONTEXTS[name])]
    elif name in _SYNDROME_KEYS:
        contexts = [_context(*_SYNDROME_KEYS[name])]
    else:
        contexts = _candidate_contexts(int(name.removeprefix("candidates-q")))
    rng = random.Random(31)
    for ctx in contexts:
        field, cert, loc, code = ctx.field, ctx.cert, ctx.locator, ctx.code
        support, base = nzl._locator_codeword_elements(field, ctx.beta, loc, code.q)
        a = [0] * (max(support) + 1)
        for z, c in zip(support, base):
            a[z] = c
        words = [_plant(rng, code, t)[1] for t in range(min(6, code.n + 1)) for _ in range(5)]
        words += [[rng.randrange(code.q) for _ in range(code.n)] for _ in range(10)]
        for word in words:
            r = [ctx.to_elt[d] for d in word]
            expect = [
                field.mul(
                    _plain_horner(field, r, field.pow(ctx.alpha, cert.w * j + cert.e)),
                    _plain_horner(field, a, field.pow(ctx.beta, j + cert.t_l)),
                )
                for j in range(cert.mu - 1)
            ]
            assert syndromes(ctx, remainder(ctx, word)) == expect, (loc, word)


@pytest.mark.parametrize("key, field, d_star", zip(_MULTI_LANE_CODES, [(2, 6), (3, 4)], [5, 4]), ids=str)
def test_decode_roundtrip_multi_lane_digits(key, field, d_star):
    ctx = _context(*key)
    assert (ctx.field.p, ctx.field.m) == field and ctx.cert.d_star == d_star
    t = (d_star - 1) // 2
    rng = random.Random(33)
    for trial in range(60):
        cw, word, positions = _plant(rng, ctx.code, 1 + trial % t)
        res = decode(ctx, word)
        assert res.status == "success" and res.corrected == cw, (trial, res.reason)
        assert res.positions == tuple(sorted(positions))


@pytest.mark.parametrize("key, lane_bits", zip(_EDGE_CODES, [8, 9, 10, 3, 11]), ids=str)
def test_decode_roundtrip_either_side_of_the_byte_lanes(key, lane_bits):
    ctx = _context(*key)
    assert ctx.words.lane_bits == lane_bits
    t = (ctx.cert.d_star - 1) // 2
    rng = random.Random(35)
    for trial in range(20):
        cw, word, positions = _plant(rng, ctx.code, trial % (t + 1))
        res = decode(ctx, word)
        assert res.status == "success" and res.corrected == cw, (trial, res.reason)
        assert res.positions == tuple(sorted(positions))


@pytest.mark.parametrize("key", _SCAN_CODES + _MULTI_LANE_CODES + _EDGE_CODES, ids=str)
def test_remainder_half_is_the_word_mod_g(key):
    # the low ctx.high bits of the row sum, read back by words.digits, are r
    # mod g by long division, on random words and on codewords with 0..t + 1
    # errors
    ctx = _context(*key)
    code, field, to_elt = ctx.code, ctx.field, ctx.to_elt
    g = Poly(field, [to_elt[d] for d in cyclic.generator_polynomial(code)])
    t = (ctx.cert.d_star - 1) // 2
    rng = random.Random(36)
    words = [_plant(rng, code, e)[1] for e in range(t + 2) for _ in range(3)]
    words += [[rng.randrange(code.q) for _ in range(code.n)] for _ in range(6)]
    for word in words:
        rem = pmod(Poly(field, [to_elt[d] for d in word]), g).coeffs
        expect = [ctx.to_digit[c] for c in rem] + [0] * (g.degree - len(rem))
        assert ctx.words.digits(remainder(ctx, word) & (1 << ctx.high) - 1) == expect, word


def _position_row(ctx, i, c):
    """The row of digit c at position i from its definition: c * (x^i mod g)
    by long division, packed by ctx.words in the low ctx.high bits, and in
    field j above them c * alpha^((w*j+e)*i) * a(beta^(j+t_l)), as its bits
    for p = 2 and as its base-p digits in lanes of words.lane_bits
    otherwise."""
    field, cert, words, to_elt = ctx.field, ctx.cert, ctx.words, ctx.to_elt
    g = Poly(field, [to_elt[d] for d in cyclic.generator_polynomial(ctx.code)])
    rem = pmod(Poly(field, (0,) * i + (to_elt[c],)), g).coeffs
    row = words.pack([ctx.to_digit[e] for e in rem] + [0] * (g.degree - len(rem)))
    p, b = field.p, words.lane_bits
    for j in range(cert.mu - 1):
        a = ctx.a_evals[j % ctx.locator.n_l]
        e = field.mul(field.mul(to_elt[c], field.pow(ctx.alpha, (cert.w * j + cert.e) * i)), a)
        if p != 2:
            e = sum(e // p**t % p << t * b for t in range(field.m))
        row |= e << ctx.high + j * ctx.syn_width
    return row


def _lane_sum(ctx, rows):
    """The rows added lane by lane mod p: XOR for p = 2, otherwise as ints,
    each lane of words.lane_bits bits then reduced mod p."""
    p, b = ctx.field.p, ctx.words.lane_bits
    if p == 2:
        return functools.reduce(operator.xor, rows, 0)
    total, out, shift = sum(rows), 0, 0
    while total >> shift:
        out |= (total >> shift & (1 << b) - 1) % p << shift
        shift += b
    return out


@pytest.mark.parametrize("key", _SCAN_CODES + _MULTI_LANE_CODES + _EDGE_CODES, ids=str)
def test_remainder_tables_sum_their_positions_rows(key):
    # every entry of the first and the last (partial where the table size
    # does not divide n) table is the reduced sum of the rows of its
    # positions at the digits of its index, the lowest position in the
    # lowest index digit
    ctx = _context(*key)
    q, n, tables = ctx.code.q, ctx.code.n, ctx.tables
    size, radix = decoder._POSITIONS.get(q, (1, q))
    assert len(tables) == -(-n // size)
    for k in (0, len(tables) - 1):
        positions = range(k * size, min(n, k * size + size))
        assert len(tables[k]) == radix ** len(positions)
        rows = {(i, c): _position_row(ctx, i, c) for i in positions for c in range(q)}
        for digits in product(range(q), repeat=len(positions)):
            x = sum(c * radix**s for s, c in enumerate(digits))
            want = _lane_sum(ctx, [rows[i, c] for i, c in zip(positions, digits)])
            assert tables[k][x] == want, (k, digits)


@pytest.mark.parametrize("key", _SCAN_CODES + _MULTI_LANE_CODES + _EDGE_CODES, ids=str)
def test_scan_tables_sum_their_places_rows(key):
    # every entry of each power's root-scan tables is the sum of the
    # per-place rows of _scan_rows at the base-p digits of its index
    ctx = _context(*key)
    p, add = ctx.field.p, ctx.points.add
    size = decoder._PLACES.get(p, 1)
    per_place = decoder._scan_rows(ctx.field, ctx.points, ctx.chien, len(ctx.scan))
    assert len(per_place) == len(ctx.scan)
    for i, (tables, rows) in enumerate(zip(ctx.scan, per_place)):
        assert len(tables) == -(-len(rows) // size)
        for k, table in enumerate(tables):
            chunk = rows[k * size:k * size + size]
            assert len(table) == p ** len(chunk)
            for x, entry in enumerate(table):
                want = functools.reduce(add, [row[x // p**s % p] for s, row in enumerate(chunk)], 0)
                assert entry == want, (i, k, x)


# bytes that build_context keeps: 146.7 kB and 64.3 kB measured with one
# table per 4 binary or 2 ternary positions and places, plus 25 % headroom
@pytest.mark.parametrize("key, limit", [((2, 255, (1, 3, 5, 7)), 184_000),
                                        ((3, 121, (1, 2, 4, 5)), 81_000)], ids=str)
def test_build_context_memory_bound(key, limit):
    code = cyclic.build_code(*key)
    cert, _ = nzl.best_bound(code)
    build_context(code, cert.locator, cert)  # the field and the code's state
    tracemalloc.start()
    try:
        ctx = build_context(code, cert.locator, cert)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.tables and size <= limit, size


def test_decode_rechecks_the_corrected_word(monkeypatch):
    # a wrong error value leaves a word outside the code, which the final
    # re-encoding check must refuse rather than return
    ctx = _context(*_CONTEXTS["ternary-80"])
    code = ctx.code
    cw, word, _ = _plant(random.Random(5), code, 2)
    assert decode(ctx, word).corrected == cw
    real = decoder.error_values

    def wrong(*args):
        values = real(*args)
        p = min(values)
        return {**values, p: 3 - values[p]}  # swaps the nonzero digits 1 and 2

    monkeypatch.setattr(decoder, "error_values", wrong)
    res = decode(ctx, word)
    assert res.status == "failure" and res.corrected is None
    assert res.reason == "InconsistentLocator: corrected word fails the defining-set recheck"


@pytest.mark.parametrize("name", ["binary-21", "ternary-80", "ternary-13-spc2"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_decode_beyond_radius_returns_codeword_or_failure(name, data):
    ctx = _context(*_CONTEXTS[name])
    code = ctx.code
    t = (ctx.cert.d_star - 1) // 2
    msg = data.draw(st.lists(st.integers(0, code.q - 1), min_size=code.k, max_size=code.k))
    word = list(cyclic.encode(code, tuple(msg)))
    positions = data.draw(st.sets(st.integers(0, code.n - 1), min_size=t + 1, max_size=2 * t + 2))
    for p in positions:
        word[p] = (word[p] + data.draw(st.integers(1, code.q - 1))) % code.q
    res = decode(ctx, word)
    if res.status == "success":
        assert cyclic.is_codeword(code, res.corrected)
        diffs = [i for i, (x, y) in enumerate(zip(word, res.corrected)) if x != y]
        assert diffs == sorted(res.positions) and len(diffs) <= t
    else:
        assert res.status == "failure" and res.reason and res.corrected is None


def test_find_error_positions_ternary_roundtrip():
    ctx = _context(*_CONTEXTS["ternary-80"])
    rng = random.Random(32)
    for t in (1, 2, 3):
        for _ in range(20):
            cw, word, positions = _plant(rng, ctx.code, t)
            lam, _ = solve_key_equation(ctx.field, syndromes(ctx, remainder(ctx, word)), ctx.cert.mu)
            assert sorted(find_error_positions(ctx, lam)) == sorted(positions)
            res = decode(ctx, word)
            assert res.status == "success" and res.corrected == cw


# --- packed root scan and the single remainder pass --------------------------


def _reference_positions(ctx, lam):
    """The root scan point by point: Lambda evaluated at every Chien point by
    FieldCtx.evaluate.  Returns the positions, or the message with which
    find_error_positions refuses their count."""
    values = ctx.field.evaluate(lam.log_terms(), ctx.chien)
    positions = tuple(p for p, v in enumerate(values) if v == 0)
    if len(positions) * ctx.locator.d_l != lam.degree:
        return f"{len(positions)} roots cannot account for degree {lam.degree}"
    return positions


def _scan_outcome(ctx, lam):
    try:
        return find_error_positions(ctx, lam.coeffs)
    except InconsistentLocator as err:
        return str(err)


@pytest.mark.parametrize(
    "key", [_CONTEXTS[name] for name in sorted(_CONTEXTS)] + _SCAN_CODES, ids=str)
def test_find_error_positions_matches_per_point_scan(key):
    # random Lambda with Lambda(0) = 1 of every degree the packed rows cover,
    # and Lambda with roots at chosen positions, simple ones and ones of
    # multiplicity d_l (which pass the count check)
    ctx = _context(*key)
    field, d_l = ctx.field, ctx.locator.d_l
    top = (ctx.cert.mu - 1) // 2
    assert len(ctx.scan) == top + 1
    rng = random.Random(41)
    lams = []
    for degree in range(top + 1):
        for _ in range(6):
            tail = [rng.randrange(field.order) for _ in range(degree - 1)]
            lams.append(Poly(field, (1, *tail, rng.randrange(1, field.order))[:degree + 1]))
    for count in range(1, top + 1):
        for mult in sorted({1, d_l}):
            if count * mult > top:
                continue
            for _ in range(4):
                lam = pone(field)
                for p in rng.sample(range(ctx.code.n), count):
                    root = Poly(field, (1, field.neg(field.exp(-ctx.chien[p]))))
                    for _ in range(mult):
                        lam = pmul(lam, root)
                ref = _reference_positions(ctx, lam)
                assert len(ref) == count if mult == d_l else ref.startswith(f"{count} roots")
                lams.append(lam)
    for lam in lams:
        assert _scan_outcome(ctx, lam) == _reference_positions(ctx, lam), lam


def test_find_error_positions_refuses_degree_beyond_rows(ctx21):
    # solve_key_equation never returns such a Lambda (see the hypothesis test
    # below); a hand-built one is refused instead of read past the rows
    lam = padd(Poly.monomial(ctx21.field, len(ctx21.scan)), pone(ctx21.field))
    with pytest.raises(InconsistentLocator, match="exceeds the correctable"):
        find_error_positions(ctx21, lam.coeffs)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_key_equation_degree_bound(data):
    # the packed scan rows stop at floor((mu - 1) / 2), the largest degree of
    # Lambda that solve_key_equation can return on any nonzero syndromes
    field = _context(*data.draw(st.sampled_from(sorted(_CONTEXTS.values())))).field
    mu = data.draw(st.integers(2, 20))
    coeffs = data.draw(st.lists(st.integers(0, field.order - 1), min_size=mu - 1, max_size=mu - 1)
                       .filter(any))
    S = Poly(field, tuple(coeffs))
    try:
        lam, omega = _key_equation(field, coeffs, mu)
    except InconsistentLocator:
        return
    assert lam(0) == 1 and lam.degree <= (mu - 1) // 2
    assert pmod(pmul(S, lam), Poly.monomial(field, mu - 1)) == omega


# every candidate context of the q = 5 code has t = 0
@pytest.mark.parametrize("key", _SCAN_CODES + ["candidates-q2", "candidates-q3", "candidates-q4"], ids=str)
def test_berlekamp_massey_matches_euclid(key):
    # on 1..t planted errors Berlekamp-Massey returns the normalized pair of
    # the Euclidean solver that it replaced
    if isinstance(key, str):
        contexts = _candidate_contexts(int(key.removeprefix("candidates-q")))
    else:
        contexts = [_context(*key)]
    rng = random.Random(51)
    checked = 0
    for ctx in contexts:
        field, mu = ctx.field, ctx.cert.mu
        for errors in range(1, (ctx.cert.d_star - 1) // 2 + 1):
            for _ in range(4):
                _, word, _ = _plant(rng, ctx.code, errors)
                S = syndromes(ctx, remainder(ctx, word))
                assert _key_equation(field, S, mu) == euclid_key_equation(field, S, mu), (ctx.code, S)
                checked += 1
    assert checked


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_berlekamp_massey_agrees_with_euclid_on_any_syndromes(data):
    # beyond the radius too: where the Euclidean pair passes decode's check
    # deg Omega < deg Lambda, Berlekamp-Massey returns that pair, and where
    # it fails (Lambda(0) = 0 or the degree check), Berlekamp-Massey fails
    field = _context(*data.draw(st.sampled_from(sorted(_CONTEXTS.values())))).field
    mu = data.draw(st.integers(2, 16))
    S = data.draw(st.lists(st.sampled_from([0, 0, 1, field.order - 1]) | st.integers(0, field.order - 1),
                           min_size=mu - 1, max_size=mu - 1).filter(any))
    try:
        lam, omega = euclid_key_equation(field, S, mu)
        reference = (lam, omega) if omega.degree < lam.degree else None
    except ValueError:
        reference = None
    try:
        lam, omega = _key_equation(field, S, mu)
        ours = (lam, omega) if omega.degree < lam.degree else None
    except InconsistentLocator:
        ours = None
    assert ours == reference


def _reference_decode(ctx, received):
    """decode with the per-point root scan and a recheck that reduces the
    corrected word mod g from scratch."""
    s = remainder(ctx, received)
    S = syndromes(ctx, s)
    try:
        if not any(S):
            if s:
                raise ZeroSyndrome("syndromes vanish on a word outside the code")
            return decoder.DecodeResult("success", None, (), {}, tuple(received))
        lam, omega = solve_key_equation(ctx.field, S, ctx.cert.mu)
        if not len(omega) < len(lam):
            raise InconsistentLocator("evaluator degree not below locator degree")
        positions = _reference_positions(ctx, Poly(ctx.field, lam))
        if isinstance(positions, str):
            raise InconsistentLocator(positions)
        if not positions:
            raise InconsistentLocator("nonzero syndrome but no error positions")
        values = error_values(ctx, lam, omega, positions)
        corrected = list(received)
        for p, v in values.items():
            corrected[p] = ctx.words.df.sub(corrected[p], v)
        if remainder(ctx, corrected):
            raise InconsistentLocator("corrected word fails the defining-set recheck")
    except decoder.DecoderError as err:
        return decoder.DecodeResult("failure", f"{type(err).__name__}: {err}", (), {}, None)
    return decoder.DecodeResult("success", None, positions, values, tuple(corrected))


@functools.lru_cache(maxsize=None)
def _trivial_context_21():
    code = cyclic.build_code(2, 21, (1, 3, 7, 9))
    loc = nzl.trivial_locator()
    return build_context(code, loc, nzl.mu_search(code.defining_set, 21, loc, search_w=False))


def _beyond_radius_word(ctx, seed):
    """A seeded codeword with t + 1 + seed % 3 errors."""
    rng = random.Random(seed)
    code = ctx.code
    word = list(cyclic.random_codeword(code, rng))
    for p in rng.sample(range(code.n), (ctx.cert.d_star - 1) // 2 + 1 + seed % 3):
        word[p] = (word[p] + rng.randrange(1, code.q)) % code.q
    return word


def test_recheck_example_ends_in_recheck():
    # pins the explicit example of the next test to the recheck failure
    res = decode(_trivial_context_21(), _beyond_radius_word(_trivial_context_21(), 1))
    assert res.reason == "InconsistentLocator: corrected word fails the defining-set recheck"


@pytest.mark.parametrize("name", ["trivial-21", "binary-21", "ternary-80", "ternary-13-spc2"])
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=1)
@settings(max_examples=80, deadline=None)
def test_decode_matches_scratch_remainder_reference(name, seed):
    # t + 1 .. t + 3 errors: every outcome, the defining-set recheck included
    # (about a third of the trivial-21 words end there), equals the reference
    ctx = _trivial_context_21() if name == "trivial-21" else _context(*_CONTEXTS[name])
    word = _beyond_radius_word(ctx, seed)
    assert decode(ctx, word) == _reference_decode(ctx, word)


@pytest.mark.parametrize("q, n, reps", [(2, 1023, (1, 3, 5)), (2, 4095, (1, 3, 5, 7, 9, 11))])
def test_decode_roundtrip_longest_lengths(q, n, reps):
    # t errors at the longest decodable lengths, where the packed rows are
    # widest
    ctx = _context(q, n, reps)
    t = (ctx.cert.d_star - 1) // 2
    assert t >= 3
    rng = random.Random(42)
    for _ in range(4):
        cw, word, positions = _plant(rng, ctx.code, t)
        res = decode(ctx, word)
        assert res.status == "success" and res.corrected == cw
        assert res.positions == tuple(sorted(positions))


# --- decode's own path on every pattern of small codes -----------------------


@pytest.mark.parametrize("q, n, counts", [(2, 15, (25, 21_643, 19_343)), (3, 10, (7, 9_320, 17_808))])
def test_decode_every_pattern_within_and_one_past_the_radius(q, n, counts):
    # the certificate and context that `cycbound decode` takes, on every code
    # of the length with t >= 1: from one seeded codeword every error pattern
    # of weight 1..t, with every nonzero value, decodes to that codeword, and
    # every pattern of weight t + 1 gives a codeword or a failure
    rng = random.Random(17)
    codes, patterns = 0, [0, 0]  # within the radius, one past it
    locators = nzl.candidate_locators(n, q)
    for code in small_codes(q, [n]):
        # the zero code has no certificate, and below d* = 3 no context
        if not code.k or nzl.best_certificate(code, locators).d_star < 3:
            continue
        cert, ctx = cli._decodable_certificate(code, locators, True)
        t = (cert.d_star - 1) // 2
        codes += 1
        cw = cyclic.random_codeword(code, rng)
        for weight in range(1, t + 2):
            for positions in combinations(range(n), weight):
                for values in product(range(1, q), repeat=weight):
                    word = list(cw)
                    for p, v in zip(positions, values):
                        word[p] = (word[p] + v) % q
                    res = decode(ctx, word)
                    if weight <= t:
                        assert res.status == "success" and res.corrected == cw, (code, word)
                    elif res.status == "success":
                        assert cyclic.is_codeword(code, res.corrected), (code, word)
                    else:
                        assert res.corrected is None and res.reason, (code, word)
                    patterns[weight > t] += 1
    assert (codes, *patterns) == counts


# --- the contract with the benchmark's tracer --------------------------------


def _traced_decoder_names():
    """TRACED["decoder"] of perfbench/spans.py, read from the source file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)["decoder"]
    raise AssertionError("perfbench/spans.py assigns no TRACED table")


def test_traced_names_are_module_functions_that_decode_calls(monkeypatch):
    # the tracer rebinds each name in the module namespace, so each must be a
    # module-level function, and decode must reach the per-word ones through
    # the module globals
    names = _traced_decoder_names()
    assert "decode" in names
    for name in names:
        assert inspect.isfunction(getattr(decoder, name, None)), name
    calls = dict.fromkeys(set(names) - {"build_context", "decode"}, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(decoder, name, counted(name, getattr(decoder, name)))
    ctx = _context(*_SCAN_CODES[0])
    cw, word, _ = _plant(random.Random(61), ctx.code, 2)
    assert decode(ctx, word).corrected == cw
    assert all(calls.values()), calls


_REASON = re.compile(r"(ZeroSyndrome|InconsistentLocator|EvaluatorSingular|ValueOutsideBaseField): \S.*")


@pytest.mark.parametrize("key", _SCAN_CODES[:6], ids=str)
def test_failure_reasons_are_class_and_message(key):
    # the tracer splits a reason on ":" and counts the class before it; on
    # the benchmark's decode codes with 0..t+2 errors every failure names one
    # of the four failure classes
    ctx = _context(*key)
    t = (ctx.cert.d_star - 1) // 2
    rng = random.Random(62)
    seen = set()
    for errors in range(t + 3):
        for _ in range(24):
            _, word, _ = _plant(rng, ctx.code, errors)
            res = decode(ctx, word)
            if res.status == "success":
                assert res.reason is None
            else:
                assert _REASON.fullmatch(res.reason), res.reason
                seen.add(res.reason.split(":", 1)[0])
    assert seen
