#!/usr/bin/env python3
"""Sweep all small binary cyclic codes and check every emitted bound
against the exact minimum-distance oracle.

Prints one row per code (length, dimension, bch, ht, d_star, oracle) and
exits nonzero if any bound exceeds the oracle, the oracle's word is not a
codeword of weight d, or a BCH witness, HT witness or locator certificate
fails independent re-verification.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cycbound import cyclic, nzl  # noqa: E402
from cycbound.gf import MAX_FIELD_SIZE, min_extension_degree  # noqa: E402

# odd lengths up to 63 whose code field GF(2^s) fits the field table cap
DEFAULT_LENGTHS = [n for n in range(3, 64, 2) if 2 ** min_extension_degree(2, n) <= MAX_FIELD_SIZE]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--lengths",
        default=",".join(map(str, DEFAULT_LENGTHS)),
        help="comma-separated code lengths (default: every odd length up to 63 "
        "whose code field fits the field table cap)",
    )
    parser.add_argument("--max-k", type=int, default=24)
    parser.add_argument("--limit", type=int, default=5000)
    parser.add_argument("--quiet", action="store_true", help="print only the summary")
    args = parser.parse_args()
    lengths = [int(x) for x in args.lengths.split(",")]

    t0 = time.monotonic()
    oracle_s = 0.0
    violations = 0
    count = 0
    for code in cyclic.enumerate_small_codes(lengths, args.max_k, args.limit):
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
        if not args.quiet or not (sound and verified):
            flag = "" if sound and verified else "  <-- VIOLATION"
            print(
                f"n={code.n:>3} k={code.k:>2} reps={list(code.coset_reps)!s:<24} "
                f"bch={bch:>2} ht={ht:>2} d*={cert.d_star:>2} "
                f"({cert.locator.kind}/{cert.locator.n_l}) oracle={d:>2}{flag}"
            )
    elapsed = time.monotonic() - t0
    print(f"\n{count} codes checked in {elapsed:.1f}s (oracle {oracle_s:.1f}s), {violations} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
