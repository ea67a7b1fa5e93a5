#!/usr/bin/env python3
"""Sweep all small binary cyclic codes and check every emitted bound
against the exact minimum-distance oracle.

Walks the codes of cyclic.enumerate_small_codes with a nonempty defining
set and 1 <= k <= --max-k, and refuses a --lengths entry that does not fit.
Prints one row per code (length, dimension, bch, ht, d_star, oracle) and
exits nonzero if any bound exceeds the oracle, the oracle's word is not a
codeword of weight d, or a BCH witness, HT witness or locator certificate
fails independent re-verification.  The summary line ends with the sha256
of the rows and the blank line above it, as printed without --quiet, so a
re-run can be compared with an earlier one by that line alone.
"""

import argparse
import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cycbound import cyclic, nzl  # noqa: E402
from cycbound.gf import MAX_FIELD_SIZE  # noqa: E402


def fits(n: int) -> bool:
    """n >= 1 is odd and its code field GF(2^s) fits the field table cap:
    n divides 2^s - 1 for some 2^s <= MAX_FIELD_SIZE."""
    return n >= 1 and any((2**s - 1) % n == 0 for s in range(1, MAX_FIELD_SIZE.bit_length()))


DEFAULT_LENGTHS = [n for n in range(3, 64, 2) if fits(n)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--lengths",
        default=",".join(map(str, DEFAULT_LENGTHS)),
        help="comma-separated code lengths (default: every odd length up to 63 "
        "whose code field fits the field table cap)",
    )
    parser.add_argument("--max-k", type=int, default=24)
    parser.add_argument("--quiet", action="store_true", help="print only the summary")
    args = parser.parse_args()
    entries = args.lengths.split(",")
    bad = [x for x in entries if not (x.strip().isdecimal() and fits(int(x)))]
    if bad:
        parser.error(f"--lengths: {bad[0]} is not an odd length >= 1 whose code field GF(2^s) fits the table cap 2^20")
    lengths = [int(x) for x in entries]

    t0 = time.monotonic()
    oracle_s = 0.0
    violations = 0
    count = 0
    rows = hashlib.sha256()  # of the output above the summary line, without --quiet
    for code in cyclic.enumerate_small_codes(2, lengths, range(1, args.max_k + 1)):
        if not code.defining_set:
            continue
        count += 1
        cert, comparison = nzl.best_bound(code)
        bch, ht = comparison["bch"], comparison["ht"]
        t = time.monotonic()
        oracle = cyclic.min_distance_oracle(code)
        oracle_s += time.monotonic() - t
        d = oracle.d
        sound = bch <= d and ht <= d and cert.d_star <= d
        bch_wit, ht_wit = cyclic.bch_bound(code), cyclic.ht_bound(code)
        verified = (
            sum(1 for x in oracle.codeword if x) == d
            and cyclic.is_codeword(code, oracle.codeword)
            and (bch_wit.value, ht_wit.value) == (bch, ht)
            and cyclic.verify_bch_witness(code, bch_wit)
            and cyclic.verify_ht_witness(code, ht_wit)
            and nzl.verify_certificate(code.defining_set, code.n, cert)
        )
        if not (sound and verified):
            violations += 1
        flag = "" if sound and verified else "  <-- VIOLATION"
        row = (
            f"n={code.n:>3} k={code.k:>2} reps={list(code.coset_reps)!s:<24} "
            f"bch={bch:>2} ht={ht:>2} d*={cert.d_star:>2} "
            f"({cert.locator.kind}/{cert.locator.n_l}) oracle={d:>2}{flag}"
        )
        rows.update(row.encode() + b"\n")
        if not args.quiet or not (sound and verified):
            print(row)
    elapsed = time.monotonic() - t0
    rows.update(b"\n")  # the blank line before this one
    print(f"\n{count} codes checked in {elapsed:.1f}s (oracle {oracle_s:.1f}s), {violations} violations, "
          f"rows sha256 {rows.hexdigest()}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
