"""Command line interface.

Subcommands: cosets, bound, decode, check, ratio-grid.  Machine output is
JSON on stdout (CSV for grids); --human switches to aligned text where
available.  Exit codes: 0 = ran (including decode failures reported in the
JSON), 1 = usage, parse or library error, 2 = internal invariant violation.

Code spec files are JSON documents with keys q, n, and exactly one of
coset_reps / defining_set (lists of integers; negative exponents allowed,
canonicalized mod n), plus an optional name.  A defining_set that is not
closed under multiplication by q is closed with a warning on stderr.  Here
and in cosets, q must be a prime power of at most 2^20 and 1 <= n <= 4095.
bound computes the BCH, HT and NZL bounds for every (q, n) it accepts, the
NZL bound over the fixed locator family of nzl.candidate_locators; its
oracle takes codes of at most 2^24 codewords, and its word of weight d is
re-checked as a codeword before d is printed.

Received words are strings of base-q digits with the coefficient of x^0
first (use comma-separated digits when q > 10).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _json_str

from . import cyclic, decoder, fixtures, nzl
from .cyclic import TooManyCodewords
from .gf import MAX_FIELD_SIZE, FieldTooLarge, prime_power

MAX_N = 4095  # longest code length a spec file or cosets may give


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _check_q_n(q: int, n: int) -> None:
    """Reject a length outside [1, MAX_N] and a q that is not a prime power
    of at most MAX_FIELD_SIZE, before any arithmetic on q: factoring a huge q
    would not finish."""
    if n > MAX_N:
        raise UsageError(f"code length {n} is above the limit {MAX_N}")
    if q > MAX_FIELD_SIZE:
        raise UsageError(f"field size {q} is above the limit 2^20")
    prime_power(q)  # ValueError unless q is a prime power
    if n < 1:
        raise UsageError("length must be positive")


def _is_int(x) -> bool:
    """A JSON integer: Python reads true and false as ints, JSON does not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _dumps(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2) for the types the CLI prints, matched
    exactly: dict with str keys, list, str, int, bool and None; TypeError
    on anything else.  `pad` is the newline and indent of obj's own level.
    json.dumps with indent runs the pure-Python encoder item by item; here
    a list of ints is one C-level join."""
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _json_str(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = pad + "  "
    sep = "," + inner
    if kind is list:
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            return "[" + inner + sep.join(map(int.__repr__, obj)) + pad + "]"
        return "[" + inner + sep.join([_dumps(x, inner) for x in obj]) + pad + "]"
    if kind is dict:
        if not obj:
            return "{}"
        # _json_str raises TypeError on a key that is not a str
        return "{" + inner + sep.join([_json_str(k) + ": " + _dumps(v, inner)
                                       for k, v in obj.items()]) + pad + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def load_code_spec(path: str) -> cyclic.CyclicCodeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UsageError("code spec must be a JSON object")
    for key in ("q", "n"):
        if not _is_int(doc.get(key)):
            raise UsageError(f"code spec needs integer '{key}'")
    q, n = doc["q"], doc["n"]
    _check_q_n(q, n)
    has_reps = "coset_reps" in doc
    has_def = "defining_set" in doc
    if has_reps == has_def:
        raise UsageError("exactly one of coset_reps / defining_set is required")
    key = "coset_reps" if has_reps else "defining_set"
    entries = doc[key]
    if not isinstance(entries, list) or not all(map(_is_int, entries)):
        raise UsageError(f"code spec needs '{key}' as a list of integers")
    if not isinstance(doc.get("name"), (str, type(None))):
        raise UsageError("code spec needs 'name' as a string")
    reps = entries if has_reps else cyclic._coset_reps(n, q, entries)
    code = cyclic.build_code(q, n, reps, name=doc.get("name"))
    if not has_reps:
        added = sorted(set(code.defining_set) - {i % n for i in entries})
        if added:
            print(
                f"warning: defining_set was not closed under multiplication by {q}; "
                f"closed it ({added} added)",
                file=sys.stderr,
            )
    return code


def _code_json(code: cyclic.CyclicCodeSpec) -> dict:
    return {
        "name": code.name,
        "q": code.q,
        "n": code.n,
        "k": code.k,
        "coset_reps": list(code.coset_reps),
        "defining_set": list(code.defining_set),
    }


def _cert_json(cert: nzl.NzlCertificate) -> dict:
    loc = cert.locator
    return {
        "e": cert.e,
        "w": cert.w,
        "t_l": cert.t_l,
        "mu": cert.mu,
        "d_star": cert.d_star,
        "locator": {
            "kind": loc.kind,
            "u": loc.u,
            "n_l": loc.n_l,
            "defining_set": list(loc.defining_set),
            "d_l": loc.d_l,
            "support": list(loc.support),
            "coeffs": None if loc.coeffs is None else list(loc.coeffs),
        },
    }


def cmd_cosets(args) -> int:
    _check_q_n(args.q, args.n)
    cosets = cyclic.coset_partition(args.n, args.q)
    if args.json:
        print(_dumps({"n": args.n, "q": args.q, "cosets": [sorted(c) for c in cosets]}))
    else:
        for c in cosets:
            members = sorted(c)
            print(f"C_{min(members)} = {{{', '.join(map(str, members))}}}")
    return 0


def _unverified(what: str) -> int:
    print(f"internal error: emitted {what} failed re-verification", file=sys.stderr)
    return 2


def cmd_bound(args) -> int:
    code = load_code_spec(args.spec)
    want_all = not (args.bch or args.ht or args.nzl or args.oracle)
    record: dict = {"code": _code_json(code)}
    if args.bch or want_all:
        w = cyclic.bch_bound(code)
        if not cyclic.verify_bch_witness(code, w):
            return _unverified("BCH witness")
        record["bch"] = {"value": w.value, "witness": {"b": w.b, "m1": w.m1}}
    if args.ht or want_all:
        w = cyclic.ht_bound(code)
        if not cyclic.verify_ht_witness(code, w):
            return _unverified("HT witness")
        record["ht"] = {
            "value": w.value,
            "witness": {"b1": w.b1, "m1": w.m1, "m2": w.m2, "d0": w.d0, "nu": w.nu},
        }
    if args.nzl or want_all:
        cert, comparison = nzl.best_bound(code, search_w=args.search_w)
        if not nzl.verify_certificate(code.defining_set, code.n, cert):
            return _unverified("certificate")
        record["nzl"] = {"d_star": comparison["d_star"], "certificate": _cert_json(cert)}
    if args.oracle or want_all:
        try:
            wit = cyclic.min_distance_oracle(code)
        except TooManyCodewords:
            record["oracle"] = {"d": None, "capped": True}
        except FieldTooLarge as err:
            record["oracle"] = {"d": None, "capped": True, "skipped": str(err)}
        else:
            weight = sum(1 for c in wit.codeword if c)
            if weight != wit.d or not cyclic.is_codeword(code, wit.codeword):
                return _unverified("oracle word")
            record["oracle"] = {"d": wit.d, "capped": False}
    if args.human:
        name = code.name or f"({code.q}; {code.n}, {code.k})"
        print(f"code       {name}")
        print(f"defining   {list(code.defining_set)}")
        for key in ("bch", "ht", "nzl", "oracle"):
            if key in record:
                entry = record[key]
                value = entry.get("value", entry.get("d_star", entry.get("d")))
                if entry.get("capped"):
                    value = f"skipped: {entry['skipped']}" if "skipped" in entry else "capped"
                print(f"{key:<10} {value}")
    else:
        print(_dumps(record))
    return 0


def _parse_word(text: str, q: int, n: int) -> list[int]:
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text.strip())
    try:
        word = [int(p) for p in parts]
    except ValueError:
        raise UsageError("received word must be base-q digits")
    if len(word) != n:
        raise UsageError(f"received word must have exactly {n} digits")
    if any(not 0 <= d < q for d in word):
        raise UsageError(f"digits must lie in [0, {q})")
    return word


def _decodable_certificate(code: cyclic.CyclicCodeSpec, locators, search_w: bool):
    """(certificate, decoding context) for the best certificate of
    `locators` whose combined field fits the table cap.  A locator over the
    cap is passed over and nzl.best_certificate is asked again on the
    locators that remain, which searches the rows the code already keeps.
    The skipped locators are named on stderr; when none fits, the first
    one's error is raised."""
    skipped = []
    while locators:
        cert = nzl.best_certificate(code, locators, search_w=search_w)
        try:
            ctx = decoder.build_context(code, cert.locator, cert)
        except FieldTooLarge as err:
            skipped.append((cert.locator, err))
            locators = [loc for loc in locators if loc is not cert.locator]
            continue
        if skipped:
            names = ", ".join(f"{loc.kind} n_l={loc.n_l} u={loc.u}" for loc, _ in skipped)
            print(f"warning: combined field over the table cap, skipped locators: {names}",
                  file=sys.stderr)
        return cert, ctx
    raise skipped[0][1]


def cmd_decode(args) -> int:
    code = load_code_spec(args.spec)
    word = _parse_word(args.received, code.q, code.n)
    if args.trivial:
        locators = [nzl.trivial_locator()]
    elif args.spc is not None:
        locators = [nzl.spc_locator(args.spc, code.q)]
    else:
        locators = nzl.candidate_locators(code.n, code.q)
    cert, ctx = _decodable_certificate(code, locators, args.search_w)
    result = decoder.decode(ctx, word)
    doc = {
        "status": result.status,
        "reason": result.reason,
        "d_star": cert.d_star,
        "correctable": (cert.d_star - 1) // 2,
        "positions": list(result.positions),
        "values": {str(p): v for p, v in result.values.items()},
        "corrected": None if result.corrected is None else list(result.corrected),
    }
    print(_dumps(doc))
    return 0


def cmd_check(args) -> int:
    results = fixtures.run_fixtures(only=args.only)
    if not results:
        raise UsageError(f"no fixture matches {args.only!r}")
    failed = [r for r in results if not r.ok]
    if args.json:
        print(_dumps([
            {"name": r.name, "ok": r.ok, "expected": repr(r.expected), "computed": repr(r.computed)}
            for r in results
        ]))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            mark = "pass" if r.ok else "FAIL"
            line = f"{r.name:<{width}}  {mark}"
            if not r.ok:
                line += f"  expected {r.expected!r}, computed {r.computed!r}"
            print(line)
        print(f"{len(results) - len(failed)}/{len(results)} fixtures pass")
    return 1 if failed else 0


def _parse_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise UsageError(f"range must look like LO:HI, got {text!r}")


def _parse_m_rule(text: str):
    # accepted forms: "nu+K" or "nu+K1..nu+K2"
    def offset(part: str) -> int:
        part = part.strip()
        if not part.startswith("nu+"):
            raise UsageError(f"m rule terms must look like nu+K, got {part!r}")
        try:
            return int(part[3:])
        except ValueError:
            raise UsageError(f"bad m rule term {part!r}")

    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = offset(lo_s), offset(hi_s)
        if lo < 2 or hi < lo:
            raise UsageError("m rule offsets must satisfy 2 <= K1 <= K2")
        return lambda nu: range(nu + lo, nu + hi + 1)
    k = offset(text)
    if k < 2:
        raise UsageError("m rule offset must be at least 2")
    return lambda nu: [nu + k]


def cmd_ratio_grid(args) -> int:
    nu_range = _parse_range(args.nu_range)
    d0_range = _parse_range(args.d0_range)
    if len(d0_range) == 0 or len(nu_range) == 0 or d0_range[0] < 2 or nu_range[0] < 0:
        raise UsageError("need nu >= 0 and d0 >= 2 with nonempty ranges")
    m_rule = _parse_m_rule(args.m_rule)
    if args.out == "-":
        nzl.ratio_grid_csv(nu_range, d0_range, m_rule, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            nzl.ratio_grid_csv(nu_range, d0_range, m_rule, fh)
    return 0


@functools.cache  # parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="cycbound", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cosets", help="list the cyclotomic cosets mod n over GF(q)")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cosets)

    p = sub.add_parser("bound", help="compute distance bounds for a code spec file")
    p.add_argument("spec", help="path to a JSON code spec")
    p.add_argument("--bch", action="store_true")
    p.add_argument("--ht", action="store_true")
    p.add_argument("--nzl", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--search-w", action=argparse.BooleanOptionalAction, default=True,
                   help="search unit steps w (default: on)")
    p.add_argument("--human", action="store_true", help="aligned text instead of JSON")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("decode", help="decode a received word")
    p.add_argument("spec", help="path to a JSON code spec")
    p.add_argument("--received", required=True,
                   help="base-q digit string, coefficient of x^0 first (commas for q > 10)")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--spc", type=int, default=None, help="use a single-parity-check locator of this length")
    which.add_argument("--trivial", action="store_true", help="use the trivial locator (classical decoding)")
    p.add_argument("--search-w", action=argparse.BooleanOptionalAction, default=True,
                   help="search unit steps w (default: on)")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("check", help="run the built-in reference fixtures")
    p.add_argument("--only", default=None, help="run only fixtures whose name contains this substring")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("ratio-grid", help="emit the bound/HT ratio grid as CSV")
    p.add_argument("--nu-range", default="1:6", help="LO:HI (default 1:6)")
    p.add_argument("--d0-range", default="2:20", help="LO:HI (default 2:20)")
    p.add_argument("--m-rule", default="nu+2", help="nu+K or nu+K1..nu+K2 (default nu+2)")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(fn=cmd_ratio_grid)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, OSError, ValueError) as err:  # every library error is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 1
    except AssertionError as err:
        print(f"internal invariant violation: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
