"""Output checks written for the benchmark alone.

Nothing here imports cycbound: each claim the program emits (a BCH run, a
Hartmann-Tzeng template, a non-zero-locator certificate, a codeword) is
re-checked from its definition, so a defect shared by the program and its
own verifier cannot hide.  All alphabets the workloads use are prime, so
digit arithmetic is arithmetic mod q.
"""

from __future__ import annotations

import math


def closure(q: int, n: int, reps) -> frozenset[int]:
    """The union of the q-cyclotomic cosets mod n of the given representatives."""
    out: set[int] = set()
    for r in reps:
        t = r % n
        while t not in out:
            out.add(t)
            t = t * q % n
    return frozenset(out)


def cosets(q: int, n: int) -> list[frozenset[int]]:
    """All q-cyclotomic cosets mod n, by smallest member."""
    seen: set[int] = set()
    out = []
    for r in range(n):
        if r not in seen:
            c = closure(q, n, (r,))
            seen |= c
            out.append(c)
    return out


def order_mod(q: int, n: int) -> int:
    """Multiplicative order of q mod n (the extension degree of the code field)."""
    s, t = 1, q % n
    while t != 1 % n:
        t = t * q % n
        s += 1
    return s


def longest_run(member, n: int, step: int) -> int:
    """Longest circular run b, b+step, ... inside `member` (a set), step a unit."""
    walk = [i * step % n for i in range(n)]
    inside = [x in member for x in walk]
    if all(inside):
        return n
    start = inside.index(False)
    best = run = 0
    for i in range(1, n + 1):
        if inside[(start + i) % n]:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


def bch_value(member, n: int, q: int = 1) -> int:
    """1 + the longest arithmetic run with unit step in the defining set.

    When the set is closed under multiplication by q, steps c and q*c give
    runs of the same length, so one step per q-orbit of units is scanned."""
    if not member:
        return 1
    seen: set[int] = set()
    best = 0
    for c in range(1, n):
        if c in seen or math.gcd(c, n) != 1:
            continue
        t = c
        while t not in seen:
            seen.add(t)
            t = t * q % n
        best = max(best, longest_run(member, n, c))
    return 1 + best


def bch_witness_ok(member, n: int, value: int, b, m1) -> bool:
    if b is None:
        return value == 1 and not member
    return math.gcd(m1, n) == 1 and all((b + i * m1) % n in member for i in range(value - 1))


def ht_witness_ok(member, n: int, value: int, b1, m1, m2, d0, nu) -> bool:
    """The template {b1 + i1*m1 + i2*m2 : i1 <= nu, i2 <= d0-2} lies in the set."""
    if b1 is None:
        return value == 1 and not member
    if math.gcd(m1, n) != 1 or math.gcd(m2, n) != 1:
        return False
    if d0 < 2 or nu < 0 or value != d0 + nu:
        return False
    return all(
        (b1 + i1 * m1 + i2 * m2) % n in member for i1 in range(nu + 1) for i2 in range(d0 - 1)
    )


def nzl_certificate_ok(member, n: int, cert) -> bool:
    """Re-scan a certificate (a mapping with e, w, t_l, mu, d_star and a
    locator with n_l, defining_set, d_l): for j in [0, mu-2] either e + w*j
    is a zero of the code or j + t_l one of the locator, the run stops at
    j = mu - 1, and the claimed locator distance is no more than the
    locator's own BCH value, so d_star = ceil(mu / d_l) is a sound bound."""
    e, w, t_l, mu = cert["e"], cert["w"], cert["t_l"], cert["mu"]
    n_l, d_l = cert["locator"]["n_l"], cert["locator"]["d_l"]
    if n_l < 1 or math.gcd(n, n_l) != 1 or math.gcd(w, n) != 1 or mu < 1 or d_l < 1:
        return False
    if cert["d_star"] != -(-mu // d_l):
        return False
    loc = {i % n_l for i in cert["locator"]["defining_set"]}
    if d_l > bch_value(loc, n_l):  # locator sets need not be q-closed
        return False

    def covered(j):
        return (e + w * j) % n in member or (j + t_l) % n_l in loc

    return all(covered(j) for j in range(mu - 1)) and not covered(mu - 1)


def claims_ok(member, n: int, bch_expected: int, bch, ht, cert) -> bool:
    """All three emitted bounds hold up: the BCH value is the true longest
    run and its run lies in the set, the HT template (None when skipped)
    lies in the set, and the NZL certificate re-scans.  bch is a mapping
    with value, b, m1; ht one with value, b1, m1, m2, d0, nu."""
    return (
        bch["value"] == bch_expected
        and bch_witness_ok(member, n, **bch)
        and (ht is None or ht_witness_ok(member, n, **ht))
        and nzl_certificate_ok(member, n, cert)
    )


def poly_mod(word, g, p: int) -> list[int]:
    """Remainder of word(x) by the monic g(x) over GF(p), coefficients low first."""
    r = [d % p for d in word]
    dg = len(g) - 1
    for top in range(len(r) - 1, dg - 1, -1):
        c = r[top]
        if c:
            base = top - dg
            for i, gi in enumerate(g):
                if gi:
                    r[base + i] = (r[base + i] - c * gi) % p
    return r[:dg]


def generator_ok(g, n: int, k: int, p: int) -> bool:
    """g is monic of degree n - k and divides x^n - 1 over GF(p)."""
    if len(g) - 1 != n - k or g[-1] != 1:
        return False
    return not any(poly_mod([p - 1] + [0] * (n - 1) + [1], g, p))


def is_multiple(word, g, p: int) -> bool:
    """word(x) is a multiple of g(x): the word is a codeword of the code g generates."""
    if p == 2:
        w = sum(1 << i for i, d in enumerate(word) if d)
        gi = sum(1 << i for i, d in enumerate(g) if d)
        dg = len(g) - 1
        while w.bit_length() > dg:
            w ^= gi << (w.bit_length() - 1 - dg)
        return w == 0
    return not any(poly_mod(word, g, p))


def multiply(msg, g, p: int, n: int) -> tuple[int, ...]:
    """The codeword msg(x) * g(x) over GF(p), length n (deg msg < n - deg g)."""
    out = [0] * n
    for i, mi in enumerate(msg):
        if mi:
            for j, gj in enumerate(g):
                if gj:
                    out[i + j] = (out[i + j] + mi * gj) % p
    return tuple(out)
