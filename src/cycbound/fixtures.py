"""Built-in regression fixtures for the `check` subcommand.

Each fixture recomputes one known reference value (or a structural
claim) for the bundled example codes and reports expected versus computed.
The test suite runs the same table, so `cycbound check` doubles as a
self-test of an installed copy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import cyclic, decoder, gf, nzl

EXAMPLE21 = (2, 21, (1, 3, 7, 9))
EXAMPLE21_DEFINING = (1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 14, 15, 16, 18)
CODE65 = (2, 65, (1, 5))

# Family fixtures: defining-set patterns paired with their locator shapes.
FAMILY_SPC3 = (49, tuple(sorted({x % 49 for x in (1, 2, 4, 5, 7, 8, 10, -1, -2, -4, -5, -7, -8, -10)})))
FAMILY_HAMMING = (23, (1, 2, 4, 7, 8, 9, 11, 14, 15, 16, 18))
FAMILY_RS = (37, tuple(sorted({x % 37 for x in (3, 5, 11, 13, -3, -5, -11, -13)})))


@dataclass
class FixtureResult:
    name: str
    expected: object
    computed: object

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


def _example21():
    return cyclic.build_code(*EXAMPLE21)


def _code65():
    return cyclic.build_code(*CODE65)


def _fixture_table() -> list[tuple[str, callable]]:
    def coset_21_7():
        return {7, 14}, set(cyclic.cyclotomic_coset(21, 2, 7))

    def coset_21_9():
        return {9, 15, 18}, set(cyclic.cyclotomic_coset(21, 2, 9))

    def min_extension_degrees():
        return (6, 4), (gf.min_extension_degree(2, 21), gf.min_extension_degree(2, 5))

    def order_21_element():
        ctx = gf.build_field(2, 6)
        return 21, ctx.element_order(gf.nth_root_of_unity(ctx, 21))

    def example21_defining_set():
        return EXAMPLE21_DEFINING, _example21().defining_set

    def example21_dimension():
        return 7, _example21().k

    def example21_bch():
        return 5, cyclic.bch_bound(_example21()).value

    def example21_ht():
        w = cyclic.ht_bound(_example21())
        return (6, 1, 5, 1, 5, 1), (w.value, w.b1, w.m1, w.m2, w.d0, w.nu)

    def example21_oracle():
        return 8, cyclic.min_distance_oracle(_example21()).d

    def example21_spc5():
        cert = nzl.mu_search(EXAMPLE21_DEFINING, 21, nzl.spc_locator(5, 2))
        return (0, 0, 13, 7), (cert.e, cert.t_l, cert.mu - 1, cert.d_star)

    def example21_best():
        cert, comp = nzl.best_bound(_example21())
        return (5, 6, 7, "spc", 5), (comp["bch"], comp["ht"], comp["d_star"], cert.locator.kind, cert.locator.n_l)

    def code65_dimension():
        return 41, _code65().k

    def code65_ht_template():
        # the documented normalized template {-5 + 3*i1 + i2 : i1 <= 3, i2 <= 1}
        # (b1 = 60, m1 = 3, m2 = 1, d0 = 3, nu = 3) gives 6; the searched
        # optimum is at least as large
        code = _code65()
        template_ok = cyclic.verify_ht_witness(code, cyclic.HtWitness(6, 60, 3, 1, 3, 3))
        value = cyclic.ht_bound(code).value
        return ("template holds, value >= 6", True), ("template holds, value >= 6", template_ok and value >= 6)

    def code65_spc3():
        cert = nzl.mu_search(_code65().defining_set, 65, nzl.spc_locator(3, 2))
        return (7, 2), (cert.d_star, cert.locator.u)

    def code65_best():
        _, comp = nzl.best_bound(_code65())
        return 7, comp["d_star"]

    def spc_closed_form():
        return 7, nzl.spc_closed_form(5, 1)

    def rs_closed_form_match():
        return nzl.spc_closed_form(5, 1), nzl.rs_closed_form(5, 1, 3)

    def nzl_bound_values():
        return (7, 7), (nzl.nzl_bound(14, 2), nzl.nzl_bound(19, 3))

    def improvement_predicate():
        fig1 = all(
            nzl.ht_improvement_predicate(d0, nu, nu + 2) == (d0 > 3)
            for nu in range(1, 7)
            for d0 in range(2, 21)
        )
        return (True, True, False), (fig1, nzl.ht_improvement_predicate(5, 1, 3), nzl.ht_improvement_predicate(3, 1, 3))

    def family_spc3():
        n, D = FAMILY_SPC3
        cert = nzl.mu_search(D, n, nzl.spc_locator(3, 2))
        return (22, 11), (cert.mu, cert.d_star)

    def family_hamming():
        n, D = FAMILY_HAMMING
        cert = nzl.mu_search(D, n, nzl.hamming_locator())
        return (21, 7), (cert.mu, cert.d_star)

    def family_rs():
        n, D = FAMILY_RS
        cert = nzl.mu_search(D, n, nzl.rs_locator(4, 2, 5))
        return (19, 7), (cert.mu, cert.d_star)

    def candidates_65():
        cands = nzl.candidate_locators(65, 2)
        spc3 = [c for c in cands if c.kind == "spc" and c.n_l == 3]
        rs_entries = [c for c in cands if c.kind == "rs" and c.defining_set == (0, 1) and c.d_l == 3]
        return (1, 2, True), (len(spc3), spc3[0].u if spc3 else None, bool(rs_entries))

    def candidates_21():
        lengths = {c.n_l for c in nzl.candidate_locators(21, 2) if c.kind == "spc"}
        return (True, False, False), (5 in lengths, 3 in lengths, 7 in lengths)

    def d3_code_119():
        code = cyclic.lowest_rate_d3_code(17, 3, 1)
        return (119, 68), (code.n, code.k)

    def d3_witness_119():
        code = cyclic.lowest_rate_d3_code(17, 3, 1)
        wit = cyclic.distance_three_witness(119, code.coset_reps, 3, 1)
        return (3, 3), (wit.d, sum(wit.codeword))

    def d2_check_119():
        return False, cyclic.has_distance_two(119, (1, 11, 51))

    def d3_hamming_pattern():
        # with r = 1 the defining set repeats the Hamming zero pattern
        code = cyclic.lowest_rate_d3_code(17, 3, 1)
        D = set(code.defining_set)
        return True, all({7 * j + t for t in (1, 2, 4)} <= D for j in range(17))

    def d2_lowest_rate():
        code = cyclic.lowest_rate_d2_code(7, 3)
        return (21, 14, 2), (code.n, code.k, cyclic.min_distance_oracle(code).d)

    def hamming_min_weight():
        support, coeffs = nzl.min_weight_codeword(2, nzl.hamming_locator())
        return (3, (1, 1, 1)), (len(support), coeffs)

    def decode_roundtrip():
        code = _example21()
        loc = nzl.spc_locator(5, 2)
        cert = nzl.mu_search(code.defining_set, 21, loc)
        ctx = decoder.build_context(code, loc, cert)
        rng = random.Random(2024)
        hits = 0
        for _ in range(10):
            cw = cyclic.random_codeword(code, rng)
            word = list(cw)
            for p in rng.sample(range(21), 3):
                word[p] ^= 1
            res = decoder.decode(ctx, word)
            hits += res.status == "success" and res.corrected == cw
        return 10, hits

    def classical_syndromes():
        code = _example21()
        loc = nzl.trivial_locator()
        cert = nzl.mu_search(code.defining_set, 21, loc, search_w=False)
        ctx = decoder.build_context(code, loc, cert)
        rng = random.Random(99)
        zeros = not any(
            any(decoder.syndromes(ctx, decoder.remainder(ctx, cw)))
            for cw in (cyclic.random_codeword(code, rng) for _ in range(25))
        )
        return (5, True), (cert.d_star, zeros)

    def fig1_threshold():
        rows = list(nzl.ratio_grid(range(1, 7), range(2, 21), lambda nu: [nu + 2]))
        return True, all((r[5] > 1) == (r[1] > 3) for r in rows)

    def fig2_monotone():
        ok = True
        for d0 in range(2, 21):
            ratios = [r[5] for r in nzl.ratio_grid([6], [d0], lambda nu: range(nu + 2, nu + 7))]
            ok = ok and all(a >= b for a, b in zip(ratios, ratios[1:]))
        return True, ok

    # a fixture's name is its function's, with dashes
    return [(fn.__name__.replace("_", "-"), fn) for fn in (
        coset_21_7, coset_21_9, min_extension_degrees, order_21_element,
        example21_defining_set, example21_dimension, example21_bch, example21_ht,
        example21_oracle, example21_spc5, example21_best, code65_dimension,
        code65_ht_template, code65_spc3, code65_best, spc_closed_form,
        rs_closed_form_match, nzl_bound_values, improvement_predicate, family_spc3,
        family_hamming, family_rs, candidates_65, candidates_21, d3_code_119,
        d3_witness_119, d2_check_119, d3_hamming_pattern, d2_lowest_rate,
        hamming_min_weight, decode_roundtrip, classical_syndromes, fig1_threshold,
        fig2_monotone,
    )]


def run_fixtures(only: str | None = None) -> list[FixtureResult]:
    out = []
    for name, fn in _fixture_table():
        if only and only not in name:
            continue
        expected, computed = fn()
        out.append(FixtureResult(name, expected, computed))
    return out
