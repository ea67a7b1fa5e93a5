"""The three benchmark workloads: input generation, the timed call, the check.

Each workload is built from a seed.  `setup()` imports cycbound, generates
the inputs and warms what the timed operations reuse; it is what `setup_s`
times.  `call(op)` is the one timed operation; `check(op, result)` runs
after the clock stops and returns (passed, bound) where bound is
max(bch, ht, d*) for the workloads that certify bounds.

cycbound is imported inside `setup()` only, so that the import is part of
the set-up time and a tracer can rebind module attributes before any call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import asdict

import checks

# Oracle enumeration cap of `cycbound bound` (its --cap default, 2^24).
ORACLE_CAP = 1 << 24


def _random_code(rng, q, n, target_bch, fill=0.4, tries=2000):
    """Coset representatives of a random code whose defining set covers about
    `fill` of the indices and whose BCH value is `target_bch`.  Fixing the BCH
    value per slot keeps the certified bounds, and with them bound_mean,
    comparable from seed to seed."""
    nonzero = [c for c in checks.cosets(q, n) if 0 not in c]
    for _ in range(tries):
        rng.shuffle(nonzero)
        reps, size = [], 0
        for c in nonzero:
            if size + len(c) <= fill * n:
                reps.append(min(c))
                size += len(c)
        if target_bch is None or checks.bch_value(checks.closure(q, n, reps), n, q) == target_bch:
            return sorted(reps)
    raise RuntimeError(f"no ({q}; {n}) code with BCH value {target_bch} in {tries} draws")


class Certify:
    """In-process `cycbound bound <spec.json>` with default flags.

    Per round: the fixture codes (2; 21; 1,3,7,9) and (2; 65; 1,5), and random
    codes: one each of (2; 65), (3; 80) and (5; 124), four each of (2; 127)
    and (2; 255), and two of (3; 121).  k is large for every random code, so
    the oracle section is capped at once and nzl.mu_search does nearly all
    the work.  The round has five light operations (under about 0.1 s) and
    ten heavy ones (0.5 to 0.9 s), so the median and the 75th percentile
    both fall among the heavy ones, away from the jump between the two.  The
    length-1023 input is run once per run as a probe of the known n > 255
    defect (see `probe`).
    """

    name = "certify"
    tail_percentile = 75
    # (q, n, BCH value of the drawn code); the value is the commonest one
    # among random codes of that length with 40 % of the indices as zeros.
    SLOTS = ((2, 65, 5), (3, 80, 6), (5, 124, 7)) + ((2, 127, 7),) * 4 + ((2, 255, 8),) * 4 \
        + ((3, 121, 7),) * 2
    FIXTURES = ((2, 21, (1, 3, 7, 9), "example-21"), (2, 65, (1, 5), "example-65"))
    PROBE = (2, 1023)
    # Each round draws fresh codes for the slots, so a run averages the
    # search cost, which depends on the drawn defining set, over many codes.
    ROUNDS = 6

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def _write(self, idx, q, n, reps, name):
        path = os.path.join(self.workdir, f"certify-{idx}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"q": q, "n": n, "coset_reps": list(reps), "name": name}, fh)
        return path

    def setup(self):
        from cycbound import cli, nzl

        self.cli = cli
        rng = random.Random(self.seed)
        self.rounds = []
        for r in range(self.ROUNDS):
            specs = [(q, n, _random_code(rng, q, n, b), None) for q, n, b in self.SLOTS]
            specs += list(self.FIXTURES)
            self.rounds.append([(q, n, self._write(f"{r}-{i}", q, n, reps, name))
                                for i, (q, n, reps, name) in enumerate(specs)])
        q, n = self.PROBE
        self.probe_op = (q, n, self._write("probe", q, n, _random_code(rng, q, n, None), None))
        for q, n in sorted({(q, n) for q, n, _ in self.rounds[0]}):
            nzl.candidate_locators(n, q)

    def call(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["bound", op[2]])
        return rc, buf.getvalue()

    def check(self, op, result):
        rc, out = result
        if rc != 0:
            return False, None
        rep = json.loads(out)
        code = rep["code"]
        q, n = code["q"], code["n"]
        if (q, n) != op[:2]:
            return False, None
        member = checks.closure(q, n, code["coset_reps"])
        if sorted(member) != code["defining_set"] or code["k"] != n - len(member):
            return False, None
        bch = {"value": rep["bch"]["value"], **rep["bch"]["witness"]}
        ht = None if rep["ht"]["value"] is None else {"value": rep["ht"]["value"], **rep["ht"]["witness"]}
        cert = rep["nzl"]["certificate"]
        ok = rep["nzl"]["d_star"] == cert["d_star"] and checks.claims_ok(
            member, n, checks.bch_value(member, n, q), bch, ht, cert)
        values = [bch["value"], cert["d_star"]] + ([ht["value"]] if ht else [])
        oracle = rep["oracle"]
        ok = ok and oracle["capped"] == (q ** code["k"] > ORACLE_CAP)
        if not oracle["capped"]:
            ok = ok and max(values) <= oracle["d"]
        return ok, max(values)

    def probe(self):
        """Run `cycbound bound` on the length-1023 input.  Today it dies with
        an uncaught SearchCapExceeded from ht_bound (the n > 255 defect);
        a clean report that passes the checks is the fixed behaviour.
        Returns (outcome, acceptable)."""
        from cycbound.cyclic import SearchCapExceeded

        try:
            result = self.call(self.probe_op)
        except SearchCapExceeded:
            return "raised SearchCapExceeded", True
        except Exception as exc:  # any other escape is a new defect
            return f"raised {type(exc).__name__}", False
        ok, _ = self.check(self.probe_op, result)
        return f"exit {result[0]}", ok


def _pool(q, lengths, k_range, max_field=1 << 12):
    """All q-ary cyclic codes with the given lengths and dimensions whose code
    field GF(q^s) has at most `max_field` elements, as (n, k, reps, bch).
    Larger fields are left out because their cold tables (GF(3^8) takes
    about a second) would make setup_s depend on which lengths a seed draws."""
    out = []
    for n in lengths:
        if math.gcd(n, q) != 1 or q ** checks.order_mod(q, n) > max_field:
            continue
        cs = checks.cosets(q, n)
        for mask in range(1, 1 << len(cs)):
            chosen = [c for i, c in enumerate(cs) if mask >> i & 1]
            k = n - sum(len(c) for c in chosen)
            if k in k_range:
                member = frozenset().union(*chosen)
                out.append((n, k, tuple(sorted(min(c) for c in chosen)), checks.bch_value(member, n, q)))
    return out


class Sweep:
    """Soundness sweep: bch_bound, ht_bound, best_bound and the exhaustive
    oracle on small codes, each bound checked against the oracle distance.

    Binary codes have odd n <= 51 and k = 14..20, so the Gray-code oracle
    dominates; ternary codes have k = 5..8 and run the q-ary product path.
    The draw is stratified: per (q, k) stratum the codes are ordered by
    (BCH value, n, reps) and per_k * ROUNDS of them are taken systematically
    from a seeded start, so the draw spans the whole stratum.  Consecutive
    picks go to different rounds, so every round, like every seed, gets the
    same mix of sizes and bound levels.
    """

    name = "sweep"
    tail_percentile = 90
    STRATA = ((2, range(15, 52, 2), range(14, 21), 2), (3, range(4, 41), range(5, 9), 2))
    ROUNDS = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        from cycbound import cyclic, nzl

        self.cyclic, self.nzl = cyclic, nzl
        rng = random.Random(self.seed)
        self.setup_ok = True
        pools = [(q, k_range, per_k, _pool(q, lengths, k_range))
                 for q, lengths, k_range, per_k in self.STRATA]
        self.rounds = [[] for _ in range(self.ROUNDS)]
        for q, k_range, per_k, pool in pools:
            for k in k_range:
                stratum = sorted((bch, n, reps) for n, kk, reps, bch in pool if kk == k)
                picks = per_k * self.ROUNDS
                step = len(stratum) / picks
                start = rng.random() * step
                for i in range(picks):
                    _, n, reps = stratum[int(start + i * step)]
                    self.rounds[i % self.ROUNDS].append(cyclic.build_code(q, n, reps))
        for ops in self.rounds:
            rng.shuffle(ops)
        self.generators = {}
        for code in dict.fromkeys(c for ops in self.rounds for c in ops):
            g = cyclic.generator_polynomial(code)
            self.generators[code] = g
            self.setup_ok &= checks.generator_ok(g, code.n, code.k, code.q)
        for q, n in sorted({(c.q, c.n) for c in self.generators}):
            nzl.candidate_locators(n, q)

    def call(self, code):
        bch = self.cyclic.bch_bound(code)
        ht = self.cyclic.ht_bound(code)
        cert, comparison = self.nzl.best_bound(code)
        oracle = self.cyclic.min_distance_oracle(code)
        return bch, ht, cert, comparison, oracle

    def check(self, code, result):
        bch, ht, cert, comparison, oracle = result
        member = checks.closure(code.q, code.n, code.coset_reps)
        n, d = code.n, oracle.d
        word = oracle.codeword
        ok = (
            set(code.defining_set) == member
            and checks.claims_ok(member, n, checks.bch_value(member, n, code.q),
                                 asdict(bch), asdict(ht), asdict(cert))
            and comparison == {"bch": bch.value, "ht": ht.value, "d_star": cert.d_star}
            and max(bch.value, ht.value, cert.d_star) <= d
            and sum(1 for x in word if x) == d
            and self.cyclic.is_codeword(code, word)
            and checks.is_multiple(word, self.generators[code], code.q)
        )
        return ok, max(bch.value, ht.value, cert.d_star)


class Decode:
    """decoder.decode of seeded received words.

    Set-up builds one DecoderContext per code from its best_bound
    certificate.  Received words are random codewords (made here as
    message * g) plus e errors, with e cycling through 0..t+1 so that the
    zero-syndrome path, the correction path and the beyond-radius path all
    run in fixed proportions.
    """

    name = "decode"
    tail_percentile = 99
    WORDS_PER_WEIGHT = 48
    # Fixed codes: the paper's two examples, a length-127 code whose best
    # certificate uses a parity-check locator (d* 8 against HT 6), and
    # narrow-sense BCH codes of length 255, 80 and 121.
    CODES = ((2, 21, (1, 3, 7, 9)), (2, 65, (1, 5)), (2, 127, (7, 15, 21, 23, 29)),
             (2, 255, (1, 3, 5, 7)), (3, 80, (1, 2, 4, 5)), (3, 121, (1, 2, 4, 5)))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        from cycbound import cyclic, decoder, nzl

        self.decoder = decoder
        rng = random.Random(self.seed)
        self.setup_ok = True
        self.contexts, self.bounds, ops = [], [], []
        for q, n, reps in self.CODES:
            code = cyclic.build_code(q, n, reps)
            g = cyclic.generator_polynomial(code)
            cert, comparison = nzl.best_bound(code)
            self.setup_ok &= checks.generator_ok(g, n, code.k, q) and checks.nzl_certificate_ok(
                checks.closure(q, n, reps), n, asdict(cert))
            ctx = decoder.build_context(code, cert.locator, cert)
            t = (cert.d_star - 1) // 2
            self.contexts.append((ctx, g, t))
            self.bounds.append(max(comparison.values()))
            for j in range(self.WORDS_PER_WEIGHT * (t + 2)):
                e = j % (t + 2)
                cw = checks.multiply([rng.randrange(q) for _ in range(code.k)], g, q, n)
                word = list(cw)
                for p in rng.sample(range(n), e):
                    word[p] = (word[p] + rng.randrange(1, q)) % q
                ops.append((len(self.contexts) - 1, cw, tuple(word), e))
        rng.shuffle(ops)
        self.rounds = [ops]

    def call(self, op):
        return self.decoder.decode(self.contexts[op[0]][0], op[2])

    def check(self, op, result):
        ctx, g, t = self.contexts[op[0]]
        _, cw, _, e = op
        if result.status == "success":
            if result.corrected is None or not checks.is_multiple(result.corrected, g, ctx.code.q):
                return False, None
        elif result.status != "failure":
            return False, None
        if e <= t and (result.status != "success" or result.corrected != cw):
            return False, None
        return True, None


WORKLOADS = {w.name: w for w in (Certify, Sweep, Decode)}
