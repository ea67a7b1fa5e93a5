import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycbound import cyclic, gf, nzl
from cycbound.gf import (
    NotCoprime,
    build_field,
    min_extension_degree,
    nth_root_of_unity,
    prime_power,
    subfield_digit_maps,
)
from cycbound.nzl import (
    DegenerateCover,
    InvalidGeometry,
    LocatorSpec,
    best_bound,
    candidate_locators,
    d3_locator,
    hamming_locator,
    ht_improvement_predicate,
    min_weight_codeword,
    mu_search,
    nzl_bound,
    ratio_grid,
    rs_closed_form,
    rs_locator,
    spc_closed_form,
    spc_locator,
    trivial_locator,
    verify_certificate,
)
import reference
from reference import ht_every_m2


def test_mu_search_example21(example21, spc5):
    cert = mu_search(example21.defining_set, 21, spc5)
    assert (cert.e, cert.t_l, cert.mu - 1, cert.d_star) == (0, 0, 13, 7)
    assert verify_certificate(example21.defining_set, 21, cert)


def test_mu_search_65(code65, spc3):
    cert = mu_search(code65.defining_set, 65, spc3)
    assert cert.d_star == 7
    assert spc3.u == 2  # single parity check over GF(4)
    assert verify_certificate(code65.defining_set, 65, cert)


def test_mu_search_family_hamming():
    D = (1, 2, 4, 7, 8, 9, 11, 14, 15, 16, 18)
    cert = mu_search(D, 23, hamming_locator())
    assert (cert.mu, cert.d_star) == (21, 7)


def test_mu_search_errors(example21):
    with pytest.raises(NotCoprime):
        mu_search(example21.defining_set, 21, spc_locator(7, 2))
    full = LocatorSpec("custom", 1, 5, (0, 1, 2, 3, 4), 1, (0,), (1,))
    with pytest.raises(DegenerateCover):
        mu_search(example21.defining_set, 21, full)


def test_mu_search_no_cover_returns_mu_one():
    loc = trivial_locator()
    cert = mu_search((), 9, loc)
    assert cert.mu == 1 and cert.d_star == 1


def test_certificate_verifier_rejects_tampering(example21, spc5):
    cert = mu_search(example21.defining_set, 21, spc5)
    import dataclasses

    longer = dataclasses.replace(cert, mu=cert.mu + 1)
    assert not verify_certificate(example21.defining_set, 21, longer)
    shorter = dataclasses.replace(cert, mu=cert.mu - 1, d_star=nzl_bound(cert.mu - 1, 2))
    assert not verify_certificate(example21.defining_set, 21, shorter)  # not maximal
    shifted = dataclasses.replace(cert, e=(cert.e + 1) % 21)
    assert not verify_certificate(example21.defining_set, 21, shifted)


def test_nzl_bound_values():
    assert nzl_bound(14, 2) == 7
    assert nzl_bound(19, 3) == 7
    assert nzl_bound(9, 1) == 9
    with pytest.raises(ValueError):
        nzl_bound(0, 2)


def test_spc_closed_form():
    assert spc_closed_form(5, 1) == 7
    assert spc_closed_form(9, 0) == 9
    assert spc_closed_form(4, 2) == 7


def test_rs_closed_form():
    assert rs_closed_form(5, 1, 3) == 7
    assert rs_closed_form(6, 2, 5) == 10
    assert rs_closed_form(7, 0, 4) == 7
    with pytest.raises(InvalidGeometry):
        rs_closed_form(5, 2, 3)


def test_closed_forms_agree_at_spc_geometry():
    for nu in range(0, 7):
        for d0 in range(2, 21):
            assert spc_closed_form(d0, nu) == rs_closed_form(d0, nu, nu + 2)


def test_improvement_predicate():
    assert ht_improvement_predicate(5, 1, 3)
    assert not ht_improvement_predicate(3, 1, 3)
    assert not ht_improvement_predicate(4, 0, 2)
    for nu in range(0, 7):
        for d0 in range(2, 21):
            for m in range(nu + 2, nu + 7):
                assert ht_improvement_predicate(d0, nu, m) == (
                    rs_closed_form(d0, nu, m) > d0 + nu
                )


def _table_pattern(d0, nu, m):
    n = m * (d0 + 1) + 1
    D = sorted({(1 + i1 * m + i2) % n for i1 in range(d0 - 1) for i2 in range(nu + 1)})
    return n, D


def _rs_shape(m, nu):
    if m == nu + 2:
        return LocatorSpec("spc", 1, m, (0,), 2, (0, 1), (1, 1))
    return LocatorSpec("rs", 1, m, tuple(range(m - nu - 1)), m - nu, tuple(range(m - nu)), None)


@pytest.mark.parametrize("nu", range(0, 7))
def test_search_matches_closed_form_on_synthetic_patterns(nu):
    for d0 in (2, 5, 11, 20):
        for m in range(nu + 2, nu + 7):
            n, D = _table_pattern(d0, nu, m)
            cert = mu_search(D, n, _rs_shape(m, nu), search_w=False)
            assert cert.d_star == rs_closed_form(d0, nu, m), (nu, d0, m, cert)


def test_candidate_locators_example21():
    cands = candidate_locators(21, 2)
    spc_lengths = sorted(c.n_l for c in cands if c.kind == "spc")
    assert 5 in spc_lengths
    assert 3 not in spc_lengths and 7 not in spc_lengths and 9 not in spc_lengths
    assert any(c.kind == "trivial" for c in cands)
    assert not any(c.kind == "hamming" for c in cands)  # 7 | 21
    # deterministic
    again = candidate_locators(21, 2)
    assert cands == again


def test_candidate_locators_65():
    cands = candidate_locators(65, 2)
    spc3s = [c for c in cands if c.kind == "spc" and c.n_l == 3]
    assert len(spc3s) == 1 and spc3s[0].u == 2  # over GF(4)
    rs = [c for c in cands if c.kind == "rs" and c.defining_set == (0, 1)]
    assert rs and all(c.d_l == 3 for c in rs)
    assert any(c.kind == "hamming" for c in cands)
    d3s = [c for c in cands if c.kind == "lowest-rate-d3"]
    assert all(c.n_l == 9 and c.d_l == 3 for c in d3s) and d3s


def test_candidate_locators_never_duplicate_defining_sets():
    for n in (21, 65, 37):
        seen = set()
        for c in candidate_locators(n, 2):
            key = (c.n_l, c.defining_set)
            assert key not in seen
            seen.add(key)
            assert math.gcd(c.n_l, n) == 1


def test_min_weight_codeword_spc():
    support, coeffs = min_weight_codeword(2, spc_locator(5, 2))
    assert support == (0, 1) and coeffs == (1, 1)


def test_min_weight_codeword_rs():
    loc = rs_locator(4, 2, 5)
    support, coeffs = min_weight_codeword(5, loc)
    assert support == (0, 1, 2)
    assert all(coeffs)
    assert loc.d_l == 3


def test_min_weight_codeword_hamming():
    loc = hamming_locator()
    assert loc.support == (0, 1, 3)  # the oracle's word: g = 1 + x + x^3 itself
    support, coeffs = min_weight_codeword(2, loc)
    assert len(support) == 3 and coeffs == (1, 1, 1)
    # weight-3 word must vanish on the defining set in the canonical field
    ctx = build_field(2, 3)
    beta = nth_root_of_unity(ctx, 7)
    for i in loc.defining_set:
        acc = 0
        for z in support:
            acc = ctx.add(acc, ctx.pow(beta, i * z))
        assert acc == 0


def test_min_weight_codeword_d3():
    loc = d3_locator(3, 2, 1)
    assert loc.n_l == 9 and loc.d_l == 3
    support, coeffs = min_weight_codeword(2, loc)
    assert len(support) == 3 and coeffs == (1, 1, 1)


def test_custom_locator_distance_from_oracle():
    loc = nzl.custom_locator(2, 1, 7, (3, 5, 6))
    assert loc.d_l == 3  # computed, not trusted
    assert len(loc.support) == 3
    # the stored word is the one min_weight_codeword and the decoder use
    assert min_weight_codeword(2, loc) == (loc.support, loc.coeffs)
    # a locator over GF(4)
    loc4 = nzl.custom_locator(2, 2, 5, (1, 4))
    assert (loc4.d_l, loc4.support, loc4.coeffs) == (3, (0, 1, 2), (1, 2, 1))
    assert min_weight_codeword(2, loc4) == (loc4.support, loc4.coeffs)
    # 1 + w x + x^2 vanishes on {1, 4} at the canonical order-5 root of GF(16)
    word = [0] * 5
    for z, c in zip(loc4.support, loc4.coeffs):
        word[z] = c
    assert cyclic.is_codeword(cyclic.build_code(4, 5, (1,)), word)


def test_min_weight_codeword_search_cap():
    # the binary (31, 26) Hamming code: its 2^26 codewords exceed the cap
    # of the oracle pass that custom_locator takes its distance and word from
    c1 = tuple(sorted(cyclic.cyclotomic_coset(31, 2, 1)))
    assert 2 ** (31 - len(c1)) > nzl.LOCATOR_SEARCH_CAP
    with pytest.raises(cyclic.TooManyCodewords):
        nzl.custom_locator(2, 1, 31, c1)
    # {1} is not closed under doubling mod 7: no binary code to search
    with pytest.raises(nzl.PreconditionViolated):
        nzl.custom_locator(2, 1, 7, (1,))


def test_locator_kind_validation():
    with pytest.raises(ValueError):
        LocatorSpec("parity", 1, 5, (0,), 2, (0, 1), (1, 1))
    # only a Reed-Solomon spec goes without a stored word, and it has none
    with pytest.raises(ValueError):
        LocatorSpec("custom", 1, 7, (1, 2, 4), 3, (0, 1, 3), None)
    with pytest.raises(ValueError):
        LocatorSpec("rs", 1, 4, (0, 1), 3, (0, 1, 2), (1, 1, 1))
    # a stored word has one nonzero digit per support index
    with pytest.raises(ValueError):
        LocatorSpec("custom", 1, 7, (1, 2, 4), 3, (0, 1, 3), (1, 1))
    with pytest.raises(ValueError):
        LocatorSpec("custom", 1, 7, (1, 2, 4), 3, (0, 1, 3), (1, 0, 1))
    # ... at distinct exponents below n_l: 1 + x^5 is 1 + 1 = 0 mod x^5 - 1
    with pytest.raises(ValueError):
        LocatorSpec("spc", 4, 5, (0,), 2, (0, 5), (1, 1))
    with pytest.raises(ValueError):
        LocatorSpec("custom", 1, 7, (1, 2, 4), 3, (0, 3, 1), (1, 1, 1))


def test_candidate_locators_carry_minimum_weight_codewords():
    # every emitted candidate has |support| = d_l and the codeword vanishes
    # on the locator defining set inside its canonical splitting field; a
    # Reed-Solomon generator has no zero coefficient in that field.  Every
    # such field of these q fits the table cap.
    for q, loc in [(q, loc) for q in (2, 3, 4, 5) for loc in candidate_locators(37, q)]:
        assert len(loc.support) == loc.d_l
        if loc.kind == "trivial":
            continue
        p, a = prime_power(q)
        q_l = q**loc.u
        s_l = min_extension_degree(q_l, loc.n_l)
        ctx = build_field(p, a * loc.u * s_l)
        beta = nth_root_of_unity(ctx, loc.n_l)
        if loc.coeffs is None:  # Reed-Solomon: the generator polynomial
            support, elts = nzl._locator_codeword_elements(ctx, beta, loc, q)
            assert loc.kind == "rs" and support == loc.support and all(elts)
        else:
            to_elt, _ = subfield_digit_maps(ctx, q_l)
            support, elts = loc.support, [to_elt[c] for c in loc.coeffs]
        for i in loc.defining_set:
            acc = 0
            for z, c in zip(support, elts):
                acc = ctx.add(acc, ctx.mul(c, ctx.pow(beta, i * z)))
            assert acc == 0, (loc.kind, loc.n_l, i)


def test_best_bound_example21(example21):
    cert, comp = best_bound(example21)
    assert comp == {"bch": 5, "ht": 6, "d_star": 7}
    assert cert.locator.kind == "spc" and cert.locator.n_l == 5
    assert verify_certificate(example21.defining_set, 21, cert)


def test_best_bound_65(code65):
    cert, comp = best_bound(code65)
    assert comp["d_star"] == 7
    assert cert.locator.n_l == 3


def test_best_bound_consecutive_only_equals_bch():
    # defining set {1..6} of the length-7 repetition code: trivial locator wins
    code = cyclic.build_code(2, 7, (1, 3))
    cert, comp = best_bound(code)
    assert comp["d_star"] >= comp["bch"] == 7
    assert cert.d_star == 7 and cert.locator.kind == "trivial"


@pytest.mark.parametrize("n", [1, 9])
def test_best_bound_empty_defining_set(n):
    # the candidate scan finds no covered index: mu = 1 through the trivial
    # locator, with the step w = 1 (w = 0 when n = 1)
    code = cyclic.build_code(2, n, ())
    cert, comp = best_bound(code)
    assert comp == {"bch": 1, "ht": 1, "d_star": 1}
    assert (cert.e, cert.w, cert.t_l, cert.mu, cert.d_star, cert.locator.kind) == (
        0, 1 % n, 0, 1, 1, "trivial"
    )


def test_best_bound_long_code_compares_ht():
    code = cyclic.build_code(2, 1023, (1, 3, 5))
    cert, comp = best_bound(code)
    assert comp["ht"] == 7 and comp["bch"] == 7
    assert comp["d_star"] == cert.d_star >= comp["bch"]
    assert verify_certificate(code.defining_set, 1023, cert)


_CLOSED_CODE_LENGTHS = {q: [n for n in range(2, 131) if math.gcd(n, q) == 1] for q in (2, 3, 4, 5)}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_best_bound_is_first_ranked_certificate(data):
    # the incumbent-pruned scan returns the top of the full ranking
    q = data.draw(st.sampled_from([2, 3, 4, 5]), label="q")
    n = data.draw(st.sampled_from(_CLOSED_CODE_LENGTHS[q]), label="n")
    cosets = cyclic.coset_partition(n, q)
    chosen = data.draw(st.lists(st.booleans(), min_size=len(cosets), max_size=len(cosets)))
    if all(chosen):
        chosen[0] = False  # the zero code has no distance to certify
    code = cyclic.build_code(q, n, [min(c) for c, keep in zip(cosets, chosen) if keep])
    for search_w in (True, False):
        cert, comp = best_bound(code, search_w=search_w)
        assert cert == reference.ranked_certificates(code, search_w=search_w)[0]
        assert comp["d_star"] == cert.d_star


@pytest.mark.parametrize(
    "q, n, reps, search_w, winner",
    [
        (5, 24, (0, 1, 2, 3, 4, 7, 8, 9, 14), True, (23, 8, 4, 3, 5)),
        (3, 40, (2, 4, 7, 10, 11, 13, 20), False, (19, 7, 6, 3, 1)),
    ],
)
def test_best_bound_ties_on_locator_shape(monkeypatch, q, n, reps, search_w, winner):
    # RS(7, 5) becomes the incumbent, and Hamming (7, 4, 3), of the same
    # (d_l, n_l) = (3, 7), reaches the same d* with a smaller t_l: its
    # floor must be (d* - 1)*d_l, since d* * d_l would prune the winner
    rs, hamming = rs_locator(7, 5, 2), hamming_locator()
    assert (rs.d_l, rs.n_l) == (hamming.d_l, hamming.n_l) == (3, 7)
    monkeypatch.setattr(nzl, "candidate_locators", lambda n, q: [trivial_locator(), rs, hamming])
    code = cyclic.build_code(q, n, reps)
    ranked = reference.ranked_certificates(code, search_w=search_w)
    assert [c.locator.kind for c in ranked] == ["hamming", "rs", "trivial"]
    assert ranked[0].d_star == ranked[1].d_star
    cert, _ = best_bound(code, search_w=search_w)
    assert cert == ranked[0]
    assert (cert.mu, cert.d_star, cert.e, cert.t_l, cert.w) == winner


@pytest.mark.parametrize("d_l", [1, 5])
def test_best_bound_raises_degenerate_cover(monkeypatch, example21, spc5, d_l):
    # a locator whose zero set is all of Z_5 covers every index, so no
    # certificate exists; the cover is tested before any floor prunes it
    full = LocatorSpec("custom", 1, 5, (0, 1, 2, 3, 4), d_l, (0,), (1,))
    monkeypatch.setattr(nzl, "candidate_locators", lambda n, q: [trivial_locator(), spc5, full])
    for search_w in (True, False):
        with pytest.raises(DegenerateCover):
            best_bound(example21, search_w=search_w)
        with pytest.raises(DegenerateCover):
            reference.ranked_certificates(example21, search_w=search_w)


def test_soundness_every_binary_code_of_length_257():
    # the first length above 255: k is 1, 16 or 17 for every code with k <= 20
    seen = []
    for code in cyclic.enumerate_small_codes([257], 20, 5000):
        cert, comparison = best_bound(code)
        bch, ht = comparison["bch"], comparison["ht"]
        d = cyclic.min_distance_oracle(code).d
        seen.append(code.k)
        assert bch <= d and ht <= d and cert.d_star <= d, (code.coset_reps, bch, ht, cert, d)
        assert cyclic.verify_bch_witness(code, cyclic.bch_bound(code))
        assert cyclic.verify_ht_witness(code, cyclic.ht_bound(code))
        assert verify_certificate(code.defining_set, 257, cert)
    assert len(seen) == 33 and set(seen) == {1, 16, 17}


def test_soundness_small_codes_over_gf7_gf11_gf13():
    # every code with 3 <= n <= 20, a nonempty defining set, a code field of
    # at most 2^16 and at most 2^10 codewords; many of their SPC candidates
    # live in a field over the table cap
    count = 0
    for q in (7, 11, 13):
        for n in range(3, 21):
            if math.gcd(n, q) != 1 or q ** min_extension_degree(q, n) > 1 << 16:
                continue
            cosets = cyclic.coset_partition(n, q)
            for mask in range(1, 1 << len(cosets)):
                code = cyclic.build_code(q, n, [min(c) for i, c in enumerate(cosets) if mask >> i & 1])
                if code.k < 1 or q**code.k > 1 << 10:
                    continue
                count += 1
                cert, comp = best_bound(code)
                d = cyclic.min_distance_oracle(code).d
                assert comp["bch"] <= d and comp["ht"] <= d and cert.d_star <= d, (code, comp, d)
                assert verify_certificate(code.defining_set, n, cert)
    assert count == 615


def test_candidate_locators_build_no_field(monkeypatch):
    def refuse(*args):
        raise AssertionError("candidate_locators built a field")

    monkeypatch.setattr(gf, "build_field", refuse)
    monkeypatch.setattr(cyclic, "build_field", refuse)
    cyclic.length.cache_clear()  # build the candidates, not recall them
    cands = {(n, q): candidate_locators(n, q) for n, q in [(80, 3), (124, 5), (10, 7)]}
    # SPC(11) over GF(7^10), beyond the table cap
    assert any(7**loc.u > gf.MAX_FIELD_SIZE for loc in cands[10, 7])


def test_ratio_grid_rows():
    rows = list(ratio_grid([0], range(2, 21), lambda nu: [nu + 2]))
    assert all(r[5] == 1.0 for r in rows)
    rows1 = list(ratio_grid(range(1, 7), range(2, 21), lambda nu: [nu + 2]))
    assert all((r[5] > 1) == (r[1] > 3) for r in rows1)


def test_ratio_grid_csv_shape(tmp_path):
    out = tmp_path / "grid.csv"
    with out.open("w") as fh:
        nzl.ratio_grid_csv(range(1, 3), range(2, 5), lambda nu: [nu + 2], fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "nu,d0,m,d_star,ht,ratio"
    assert len(lines) == 1 + 2 * 3
    nu, d0, m, d_star, ht, ratio = lines[1].split(",")
    assert float(ratio) == int(d_star) / int(ht)


def _combined_field(n, n_l):
    r = math.lcm(min_extension_degree(2, n), min_extension_degree(2, n_l))
    ctx = build_field(2, r)
    return ctx, nth_root_of_unity(ctx, n), nth_root_of_unity(ctx, n_l)


_COPRIME_POOL = [
    (n, n_l)
    for n in (7, 9, 15, 17, 21, 31, 33, 63, 73, 85, 89, 93)
    for n_l in (3, 5, 7, 9, 11, 13, 15, 17, 31, 33)
    if math.gcd(n, n_l) == 1
    and math.lcm(min_extension_degree(2, n), min_extension_degree(2, n_l)) <= 18
]

_SHARED_POOL = [
    (n, n_l)
    for n in (9, 15, 21, 33, 63, 93, 105)
    for n_l in (3, 5, 7, 9, 15, 21, 33)
    if math.gcd(n, n_l) > 1
    and n != n_l
    and math.lcm(min_extension_degree(2, n), min_extension_degree(2, n_l)) <= 18
]


def _naive_mu_search(D, n, locator, ws):
    """Reference searcher: direct prefix-run scan over every (e, t, w)."""
    DC = {i % n for i in D}
    DL = {i % locator.n_l for i in locator.defining_set}
    total = n * locator.n_l
    best = None
    for w in ws:
        for e in range(n):
            for t in range(locator.n_l):
                run = 0
                while run < total and (
                    (e + w * run) % n in DC or (run + t) % locator.n_l in DL
                ):
                    run += 1
                cand = (-(run + 1), e, t, w)
                if best is None or cand < best:
                    best = cand
    neg_mu, e, t, w = best
    return -neg_mu, e, t, w


def test_mu_search_matches_naive_reference():
    # the cycle-scan searcher must agree with the obvious cubic-time search,
    # both on the maximum and on the tie-broken representative
    rng = random.Random(77)
    for trial in range(40):
        n = rng.choice([7, 9, 11, 13, 15, 17, 19])
        n_l = rng.choice([2, 3, 4, 5, 7])
        if math.gcd(n, n_l) != 1:
            continue
        D = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        dl_size = rng.randint(1, n_l - 1) if n_l > 1 else 0
        DL = tuple(sorted(rng.sample(range(n_l), dl_size))) if dl_size else ()
        loc = LocatorSpec("custom", 1, n_l, DL, max(1, len(DL)), (0,), (1,))
        ws = [w for w in range(1, n) if math.gcd(w, n) == 1]
        cert = mu_search(D, n, loc, search_w=True)
        mu, e, t, w = _naive_mu_search(D, n, loc, ws)
        assert (cert.mu, cert.e, cert.t_l, cert.w) == (mu, e, t, w), (trial, n, n_l, D, DL)
        if cert.mu >= 2:
            assert verify_certificate(D, n, cert)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_mu_search_property(data):
    n = data.draw(st.sampled_from([5, 7, 9, 11, 13]), label="n")
    n_l = data.draw(st.sampled_from([2, 3, 4, 5]), label="n_l")
    if math.gcd(n, n_l) != 1:
        return
    D = data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1), label="D"
    )
    DL = data.draw(st.sets(st.integers(0, n_l - 1), max_size=n_l - 1), label="DL")
    loc = LocatorSpec("custom", 1, n_l, tuple(sorted(DL)), max(1, len(DL)), (0,), (1,))
    ws = [w for w in range(1, n) if math.gcd(w, n) == 1]
    cert = mu_search(sorted(D), n, loc, search_w=True)
    mu, e, t, w = _naive_mu_search(sorted(D), n, loc, ws)
    assert (cert.mu, cert.e, cert.t_l, cert.w) == (mu, e, t, w)
    if cert.mu >= 2:
        assert verify_certificate(sorted(D), n, cert)


def _stabilizer(D, n):
    DC = {i % n for i in D}
    return {s for s in range(1, n) if math.gcd(s, n) == 1 and {s * i % n for i in DC} == DC}


def _q_powers(q, n):
    return {pow(q, i, n) for i in range(n)}


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_mu_search_orbit_reduction_on_cyclic_codes(data):
    # for a cyclic code the steps w and q*w share a cover, so only one step
    # per multiplier orbit is scanned; the certificate must not change
    q = data.draw(st.sampled_from([2, 3]), label="q")
    n = data.draw(st.sampled_from([n for n in range(4, 32) if n % q]), label="n")
    cosets = cyclic.coset_partition(n, q)
    chosen = data.draw(st.sets(st.sampled_from(cosets), min_size=1), label="cosets")
    if sum(len(c) for c in chosen) == n:
        return
    code = cyclic.build_code(q, n, [min(c) for c in chosen])
    n_l = data.draw(st.sampled_from([m for m in (2, 3, 4, 5, 7) if math.gcd(m, n) == 1]), label="n_l")
    DL = data.draw(st.sets(st.integers(0, n_l - 1), max_size=n_l - 1), label="DL")
    loc = LocatorSpec("custom", 1, n_l, tuple(sorted(DL)), max(1, len(DL)), (0,), (1,))
    assert _q_powers(q, n) <= _stabilizer(code.defining_set, n)
    ws = [w for w in range(1, n) if math.gcd(w, n) == 1]
    cert = mu_search(code.defining_set, n, loc)
    mu, e, t, w = _naive_mu_search(code.defining_set, n, loc, ws)
    assert (cert.mu, cert.e, cert.t_l, cert.w) == (mu, e, t, w)
    if cert.mu >= 2:
        assert verify_certificate(code.defining_set, n, cert)


def test_mu_search_stabilizer_larger_than_q_powers():
    # D = C_1 u C_7 mod 15 is closed under x -> -x as well as x -> 2x, so all
    # eight units stabilize it and a single step w = 1 is scanned
    code = cyclic.build_code(2, 15, (1, 7))
    S = _stabilizer(code.defining_set, 15)
    assert len(S) == 8 and S > _q_powers(2, 15)
    ws = [w for w in range(1, 15) if math.gcd(w, 15) == 1]
    for loc in [loc for loc in candidate_locators(15, 2) if loc.n_l <= 8]:
        cert = mu_search(code.defining_set, 15, loc)
        assert (cert.mu, cert.e, cert.t_l, cert.w) == _naive_mu_search(
            code.defining_set, 15, loc, ws
        ), loc


def _outcome(f):
    """f()'s value, or the class and text of what it raised."""
    try:
        return f()
    except ValueError as exc:
        return type(exc), str(exc)


def _digits(row):
    """A 0/1 byte row as the "0"/"1" digits that nzl._code_rows keeps."""
    return bytes(row).translate(bytes.maketrans(b"\0\1", b"01"))


def _scan_building(n, code_rows, locator, floor):
    """(nzl._scan's outcome, the steps whose cover it builds, in order)."""
    built, real = [], nzl._cover

    def cover(code_row, in_l, n_l):
        built.append(next(w for w, row in code_rows[0] if row is code_row))
        return real(code_row, in_l, n_l)

    nzl._cover = cover
    try:
        return _outcome(lambda: nzl._scan(n, code_rows, locator, floor)), built
    finally:
        nzl._cover = real


def _best_bound_scans(code, search_w):
    """(best_bound's result, the (locator, floor) pairs it scans, in order)."""
    calls, real = [], nzl._scan

    def scan(n, rows, loc, floor):
        calls.append((loc, floor))
        return real(n, rows, loc, floor)

    nzl._scan = scan
    try:
        return best_bound(code, search_w=search_w), calls
    finally:
        nzl._scan = real


def _assert_search_matches_reference(code, mu_search_too):
    # the layer tests and the opening length only skip covers that the
    # reference builds in vain, so every certificate, tie-break and
    # exception is the reference's; the packed tests build the covers of
    # exactly the steps that the per-step tests pass (with one step the
    # two are one), and at p = 1, where the certificate is read off the
    # layers, none
    n, D = code.n, code.defining_set
    for search_w in (True, False):
        code_rows = nzl._code_rows(D, code.coset_reps, n, search_w)
        ref_rows = reference.scan_code_rows(D, n, search_w)
        assert code_rows[1] == ref_rows[1], code
        assert code_rows[0] == [(w, _digits(row)) for w, row in ref_rows[0]], code
        layer_rows = reference.layer_code_rows(D, n, search_w) if len(code_rows[0]) > 1 else None
        ranked = _outcome(lambda: reference.ranked_certificates(code, search_w=search_w))
        if not isinstance(ranked, list):
            cands = candidate_locators(n, code.q)
            assert _outcome(lambda: nzl.best_certificate(code, cands, search_w=search_w)) == ranked, code
            continue
        bound, scans = _best_bound_scans(code, search_w)
        assert bound[0] == ranked[0], code
        # at floor 0 each locator gets its certificate in the ranking; at a
        # floor of mu - 1 the run is found, at mu it is not
        first = {cert.locator: cert for cert in ranked}
        edges = dict.fromkeys((cert.locator, floor) for cert in ranked for floor in (0, cert.mu - 1, cert.mu))
        for loc, floor in dict.fromkeys(scans + list(edges)):
            got, built = _scan_building(n, code_rows, loc, floor)
            read_off = loc._zeros[2] == 1
            assert not (read_off and built), (code, loc, floor)
            if layer_rows:
                ref_built = []
                want = _outcome(lambda: reference.layer_scan(n, layer_rows, loc, floor, ref_built))
                assert got == want and (read_off or built == ref_built), (code, loc, floor)
            if floor == 0:
                assert got == first[loc], (code, loc)
            elif (loc, floor) in edges:
                assert got == reference.scan(n, ref_rows, loc, floor), (code, loc, floor)
        if not mu_search_too:
            continue
        for loc in candidate_locators(n, code.q):
            got = _outcome(lambda: mu_search(D, n, loc, search_w=search_w))
            assert got == _outcome(lambda: reference.mu_search(D, n, loc, search_w=search_w)), (code, loc)


@pytest.mark.parametrize("q, lengths", [(2, range(1, 22, 2)), (3, range(1, 15)), (4, range(1, 16, 2)), (5, range(1, 13))])
def test_search_matches_reference_scan_on_every_small_code(q, lengths):
    for code in reference.small_codes(q, lengths):
        _assert_search_matches_reference(code, True)


@pytest.mark.parametrize("q, n", [(2, 127), (2, 255), (3, 121)])
def test_search_matches_reference_scan_on_long_codes(q, n):
    # random codes with about 40 % of the indices as zeros, as in certify
    rng = random.Random(n)
    cosets = cyclic.coset_partition(n, q)[1:]
    for _ in range(3):
        rng.shuffle(cosets)
        reps, size = [], 0
        for c in cosets:
            if size + len(c) <= 0.4 * n:
                reps.append(min(c))
                size += len(c)
        _assert_search_matches_reference(cyclic.build_code(q, n, reps), False)


def test_read_off_matches_reference_scan():
    # at p = 1 (the trivial locator, and an empty zero set of length 3) the
    # certificate is read off the layers; (2; 255; 1,3,...,21) has a BCH run
    # of 22, past the MAX_N_L kept layers
    long_code = cyclic.build_code(2, 255, range(1, 22, 2))
    locators = [trivial_locator(), nzl.custom_locator(2, 1, 3, ())]
    for code in [*reference.small_codes(2, range(1, 22, 2)), long_code]:
        n, D = code.n, code.defining_set
        for loc in locators:
            assert loc._zeros[2] == 1
            for search_w in (True, False):
                want = _outcome(lambda: reference.mu_search(D, n, loc, search_w=search_w))
                assert _outcome(lambda: mu_search(D, n, loc, search_w=search_w)) == want, (code, loc)
                if not isinstance(want, nzl.NzlCertificate):
                    continue
                code_rows = nzl._code_rows(D, code.coset_reps, n, search_w)
                ref_rows = reference.scan_code_rows(D, n, search_w)
                for floor in (0, want.mu - 1, want.mu):
                    got, built = _scan_building(n, code_rows, loc, floor)
                    assert (got, built) == (reference.scan(n, ref_rows, loc, floor), []), (code, loc, floor)
    assert mu_search(long_code.defining_set, 255, locators[0]).mu == 23 > nzl.MAX_N_L + 1


def _gap(D_L, n_l):
    """Length of the longest cyclic block of residues mod n_l outside D_L."""
    return max(
        next((r for r in range(n_l) if (b + r) % n_l in D_L), n_l) for b in range(n_l)
    )


def _layer(D, n, w, m):
    """T_m(w) = {a : a, a + w, ..., a + (m - 1)w in D}."""
    return {a for a in range(n) if all((a + i * w) % n in D for i in range(m))}


def _has_run(T, n, step, k):
    return any(all((a + i * step) % n in T for i in range(k)) for a in range(n))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_ht_layer_lemma(data):
    # a covered run of length L on the step-w cycle forces a run of length
    # floor((L - m + 1)/n_l) at step w*n_l in the layer T_m(w), m the longest
    # block of locator residues outside D_L
    n = data.draw(st.integers(2, 40), label="n")
    D = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1), label="D")
    n_ls = [m for m in range(1, 16) if math.gcd(m, n) == 1]
    candidates = [loc for q in (2, 3) if math.gcd(n, q) == 1 for loc in candidate_locators(n, q)]
    if candidates and data.draw(st.booleans(), label="candidate"):
        loc = data.draw(st.sampled_from(candidates), label="locator")
    else:
        n_l = data.draw(st.sampled_from(n_ls), label="n_l")
        DL = data.draw(st.sets(st.integers(0, n_l - 1), max_size=n_l - 1), label="DL")
        loc = LocatorSpec("custom", 1, n_l, tuple(sorted(DL)), 1, (0,), (1,))
    n_l, DL = loc.n_l, set(loc.defining_set)
    w = data.draw(st.sampled_from(cyclic._units(n)), label="w")
    m = _gap(DL, n_l)
    assert nzl._locator_zeros(n_l, loc.defining_set)[:2] == (frozenset(DL), m)
    for L in range(1, _longest_covered(D, n, DL, n_l, w) + 1):
        k = (L - m + 1) // n_l
        assert k < 1 or _has_run(_layer(D, n, w, m), n, w * n_l % n, k), (L, k, m)
    # field i of packed layer r is w_i^-1 * T_r(w_i) with its guard bit 0,
    # and after k - 1 AND-rotations by n_l of T_m field i is nonzero exactly
    # when T_m(w_i) has a k-run at step w_i*n_l
    rows, _, layers, ones, *_ = nzl._code_rows(sorted(D), sorted(D), n, True)
    width = n + 1
    assert ones == sum(1 << i * width for i in range(len(rows)))
    for i, (step, row) in enumerate(rows):
        assert row == bytes(48 + ((step * a) % n in D) for a in range(n)), step
    for r, t in enumerate(layers, 1):
        assert t >> len(rows) * width == 0, r
        for i, (step, _) in enumerate(rows):
            inv = pow(step, -1, n)
            assert t >> i * width & ((1 << width) - 1) == sum(
                1 << inv * a % n for a in _layer(D, n, step, r)), (step, r)
    m = min(m, nzl.MAX_N_L)
    rotate = nzl._field_rotation(n, n_l % n, ones)
    x, tops = layers[m - 1], [_layer(D, n, step, m) for step, _ in rows]
    for k in range(1, n + 2):
        want = [i for i, (step, _) in enumerate(rows) if _has_run(tops[i], n, step * n_l % n, k)]
        assert [i for i in range(len(rows)) if x >> i * width & ((1 << n) - 1)] == want, k
        if not want:  # no k-run, so no longer run either
            assert x == 0
            break
        x &= rotate(x)
    # the scan built on the lemma, also where m exceeds the MAX_N_L layers kept
    assert mu_search(sorted(D), n, loc) == reference.mu_search(sorted(D), n, loc)


def _period(DL, n_l):
    """The least p >= 1 with D_L + p = D_L."""
    return next(p for p in range(1, n_l + 1) if {(t + p) % n_l for t in DL} == DL)


def _stretch(DL, n_l, L):
    """The least, over the phases t, of the longest block of residues
    outside D_L among t, t + 1, ..., t + L - 1."""

    def longest(t):
        best = run = 0
        for j in range(t, t + L):
            run = 0 if j % n_l in DL else run + 1
            best = max(best, run)
        return best

    return min(longest(t) for t in range(n_l))


def _longest_covered(D, n, DL, n_l, w):
    """The longest run of covered indices on the step-w cycle of length n*n_l."""
    covered = [(w * j) % n in D or j % n_l in DL for j in range(n * n_l)]
    longest = run = 0
    for c in covered * 2:  # twice round, for the run that wraps
        run = run + 1 if c else 0
        longest = max(longest, run)
    return longest


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_period_stretch_and_opening_lemmas(data):
    # with m the longest block of residues outside D_L and p the period of
    # D_L, a covered run of length L on the step-w cycle forces a run of
    # length k = floor((L - m + 1)/p) at step w*p in the layer T_m(w), and
    # for k = 0 a D_C run at step w of s[L], the stretch outside D_L that
    # every L consecutive residues hold; no covered run is shorter than r0,
    # the number of nonempty layers, on every step
    n = data.draw(st.integers(2, 40), label="n")
    D = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1), label="D")
    n_ls = [m for m in range(1, 16) if math.gcd(m, n) == 1]
    shapes = ["periodic", "any"] + ["d3"] * (math.gcd(n, 9) == 1)
    shape = data.draw(st.sampled_from(shapes), label="shape")
    if shape == "d3":  # D_L = {1, 2, 4, 5, 7, 8} mod 9, period 3
        loc = d3_locator(3, 2)
    else:
        n_l = data.draw(st.sampled_from(n_ls), label="n_l")
        if shape == "periodic":
            p = data.draw(st.sampled_from([p for p in range(1, n_l + 1) if n_l % p == 0]), label="p")
            base = data.draw(st.sets(st.integers(0, p - 1), max_size=p - 1), label="base")
            DL = {b + i * p for b in base for i in range(n_l // p)}
        else:
            DL = data.draw(st.sets(st.integers(0, n_l - 1), max_size=n_l - 1), label="DL")
        loc = LocatorSpec("custom", 1, n_l, tuple(sorted(DL)), 1, (0,), (1,))
    n_l, DL = loc.n_l, set(loc.defining_set)
    m, p = _gap(DL, n_l), _period(DL, n_l)
    stretch = tuple(_stretch(DL, n_l, L) for L in range(m + p - 1))
    assert nzl._locator_zeros(n_l, loc.defining_set) == (frozenset(DL), m, p, stretch)
    w = data.draw(st.sampled_from(cyclic._units(n)), label="w")
    for L in range(1, _longest_covered(D, n, DL, n_l, w) + 1):
        for top in {m, min(m, nzl.MAX_N_L)}:  # the lemma holds for any block outside D_L
            k = (L - top + 1) // p
            if k > 0:
                assert _has_run(_layer(D, n, w, top), n, w * p % n, k), (L, k, top, p)
            else:
                assert not stretch[L] or _layer(D, n, w, stretch[L]), (L, stretch[L])
    rows, _, layers, _, _, r0, *_ = nzl._code_rows(sorted(D), sorted(D), n, True)
    assert r0 == nzl.MAX_N_L - layers.count(0)
    assert r0 <= max(_longest_covered(D, n, DL, n_l, step) for step, _ in rows)
    # the scan built on the three tests
    for search_w in (True, False):
        assert mu_search(sorted(D), n, loc, search_w=search_w) == reference.mu_search(
            sorted(D), n, loc, search_w=search_w)


@st.composite
def _packed(draw):
    """(n, s, fields): a field length n, a rotation 0 <= s < n and field values."""
    n = draw(st.integers(1, 40), label="n")
    s = draw(st.integers(0, n - 1), label="s")
    return n, s, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8), label="fields")


def _pack(n, fields):
    return sum(t << i * (n + 1) for i, t in enumerate(fields))


@given(_packed())
@example((1, 0, [1, 0, 1]))
@example((9, 0, [0b101000011, 0, 0b111111111]))
@settings(max_examples=100, deadline=None)
def test_field_rotation_rotates_each_field(case):
    n, s, fields = case
    ones = _pack(n, [1] * len(fields))
    want = [((t >> s) | (t << (n - s))) & ((1 << n) - 1) for t in fields]
    assert nzl._field_rotation(n, s, ones)(_pack(n, fields)) == _pack(n, want)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_mu_search_degenerate_exactly_when_a_zero_set_is_full(data):
    # by the CRT some cycle index is uncovered unless D_C = Z_n or D_L = Z_(n_l)
    n = data.draw(st.integers(1, 30), label="n")
    n_l = data.draw(st.sampled_from([m for m in range(1, 13) if math.gcd(m, n) == 1]), label="n_l")
    D = data.draw(st.sets(st.integers(0, n - 1)), label="D")
    DL = data.draw(st.sets(st.integers(0, n_l - 1)), label="DL")
    loc = LocatorSpec("custom", 1, n_l, tuple(sorted(DL)), 1, (0,), (1,))
    search_w = data.draw(st.booleans(), label="search_w")
    if len(D) == n or len(DL) == n_l:
        with pytest.raises(DegenerateCover):
            mu_search(sorted(D), n, loc, search_w=search_w)
    else:
        assert mu_search(sorted(D), n, loc, search_w=search_w).mu >= 1


def _naive_ht(D, n):
    """Reference search: every (b1, m1, m2) with direct template membership."""
    DC = set(D)
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    best = 1
    for m1 in units:
        for m2 in units:
            for b1 in range(n):
                if b1 not in DC:
                    continue
                nu = 0
                while True:
                    # largest d0 for rows 0..nu
                    d0 = None
                    for i1 in range(nu + 1):
                        row = 0
                        while (b1 + i1 * m1 + row * m2) % n in DC and row < n:
                            row += 1
                        d0 = row + 1 if d0 is None else min(d0, row + 1)
                    if d0 < 2:
                        break
                    best = max(best, d0 + nu)
                    nu += 1
                    if (b1 + nu * m1) % n not in DC or nu >= n:
                        break
    return best


def test_ht_exhaustive_matches_naive_reference():
    rng = random.Random(78)
    for n in (7, 9, 11, 13):
        for _ in range(8):
            cosets = cyclic.coset_partition(n, 2)
            chosen = [c for c in cosets if rng.random() < 0.5]
            if not chosen or sum(len(c) for c in chosen) == n:
                continue
            code = cyclic.build_code(2, n, [min(c) for c in chosen])
            got = ht_every_m2(code).value
            assert got == _naive_ht(code.defining_set, n), code


def test_factor_sets_disjoint_when_coprime():
    # the per-position factor sets {alpha^i * beta^m : m in Z} never collide
    # across positions when gcd(n, n_l) = 1
    rng = random.Random(42)
    for _ in range(300):
        n, n_l = rng.choice(_COPRIME_POOL)
        ctx, alpha, beta = _combined_field(n, n_l)
        z_size = rng.randint(1, min(5, n_l))
        Z = rng.sample(range(n_l), z_size)
        i, j = rng.sample(range(n), 2)
        set_i = {ctx.mul(ctx.pow(alpha, i), ctx.pow(beta, m)) for m in Z}
        set_j = {ctx.mul(ctx.pow(alpha, j), ctx.pow(beta, m)) for m in Z}
        assert not set_i & set_j, (n, n_l, i, j, Z)


def test_factor_sets_collide_when_not_coprime():
    # converse: a shared divisor d yields alpha^(n/d) = beta^(n_l/d), so
    # supports containing {0, n_l/d} collide at some position pair
    rng = random.Random(43)
    for _ in range(60):
        n, n_l = rng.choice(_SHARED_POOL)
        d = math.gcd(n, n_l)
        ctx, alpha, beta = _combined_field(n, n_l)
        Z = {0, n_l // d}
        while len(Z) < min(4, n_l):
            Z.add(rng.randrange(n_l))
        collision = False
        sets = [
            {ctx.mul(ctx.pow(alpha, i), ctx.pow(beta, m)) for m in Z} for i in range(n)
        ]
        for i in range(n):
            for j in range(i + 1, n):
                if sets[i] & sets[j]:
                    collision = True
                    break
            if collision:
                break
        assert collision, (n, n_l, sorted(Z))
