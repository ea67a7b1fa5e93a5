#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

Each pair runs `perfbench/run.py --trace 0` once from the parent tree and
once from the change tree, on one seed.  The parent runs first on the 1st,
3rd, ... pair of a workload and the change first on the others, so a slow
spell of the host falls on both sides alike.  Each row gives, per
end-to-end metric of BENCHMARK.json, each side's q1, median and q3
(inclusive-method quantiles over its runs) and the number of pairs the
change won and lost (ties count in neither).

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --runs certify:3001:10 --runs sweep:3011:5 --seconds 30 --pr N \\
        --change "what the change does" --raw runs.jsonl

`--runs WORKLOAD:FIRST_SEED:PAIRS` gives the pairs of one workload, with
seeds FIRST_SEED, FIRST_SEED + 1, ...  Each run's result line is appended
to the `--raw` file as soon as it ends; `--from-raw` rebuilds the JSON from
such a file without running anything.  BENCH_<pr>.json is written to the
current directory.  Stdlib only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one `perfbench/run.py` run from `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values) -> dict:
    """q1, median and q3 by the inclusive method, rounded to 4 places."""
    values = list(values)
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return dict(zip(("q1", "median", "q3"), (round(v, 4) for v in q)))


def aggregate(workload: str, pairs, end_to_end) -> dict:
    """One BENCH row from `pairs`, a list of (seed, parent result, change
    result) with results as `perfbench/run.py` prints them, and
    `end_to_end`, the metric list of BENCHMARK.json."""
    seeds = [seed for seed, _, _ in pairs]
    metrics = {}
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        parent = [p["metrics"][name]["value"] for _, p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, _, c in pairs]
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_better_in": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "change_worse_in": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        }
    return {
        "workload": workload,
        "pairs": len(pairs),
        "failed_ops": sum(p["failed"] + c["failed"] for _, p, c in pairs),
        "seed_range": [min(seeds), max(seeds)],
        "metrics": metrics,
    }


def rows_from_raw(lines, end_to_end) -> list:
    """BENCH rows from raw lines {"workload", "seed", "side", "result"}, one
    row per workload in order of first appearance; a seed counts only when
    both sides ran it."""
    runs = {}
    for line in lines:
        rec = json.loads(line)
        runs.setdefault(rec["workload"], {}).setdefault(rec["seed"], {})[rec["side"]] = rec["result"]
    return [aggregate(w, [(s, r["parent"], r["change"]) for s, r in sorted(by_seed.items())
                          if len(r) == 2], end_to_end)
            for w, by_seed in runs.items()]


def _parse_runs(text: str):
    workload, first, pairs = text.split(":")
    return workload, int(first), int(pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", help="root of the parent tree")
    ap.add_argument("change", nargs="?", help="root of the change tree")
    ap.add_argument("--runs", type=_parse_runs, action="append", default=[],
                    help="WORKLOAD:FIRST_SEED:PAIRS, repeatable")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--pr", required=True, help="writes BENCH_<pr>.json")
    ap.add_argument("--change", dest="change_text", default="", help="the change, in one sentence")
    ap.add_argument("--raw", help="append each run's result line to this file")
    ap.add_argument("--from-raw", help="aggregate this raw file instead of running")
    args = ap.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    if args.from_raw:
        with open(args.from_raw, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
    else:
        if not (args.parent and args.change and args.runs):
            ap.error("give PARENT_TREE, CHANGE_TREE and at least one --runs, or --from-raw")
        lines = []
        trees = {"parent": args.parent, "change": args.change}
        for workload, first, pairs in args.runs:
            for i in range(pairs):
                seed = first + i
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result = run_once(trees[side], workload, seed, args.seconds)
                    line = json.dumps({"workload": workload, "seed": seed, "side": side, "result": result})
                    lines.append(line)
                    if args.raw:
                        with open(args.raw, "a", encoding="utf-8") as fh:
                            fh.write(line + "\n")
                    metrics = result["metrics"]
                    print(f"{workload} seed {seed} {side}: ops_per_s {metrics['ops_per_s']['value']:.6g}"
                          f" setup_s {metrics['setup_s']['value']:.4g}", file=sys.stderr)
    rows = rows_from_raw(lines, end_to_end)
    doc = {
        "change": args.change_text,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "method": "alternating parent/change pairs, one seed per pair, the parent first on the 1st, 3rd, "
                  "... pair of each workload; q1, median and q3 are inclusive-method quantiles over each "
                  "side's runs; change_better_in and change_worse_in count pairs, ties in neither "
                  "(scripts/bench_pairs.py)",
        "host": f"{platform.system()} host, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "rows": rows,
    }
    with open(f"BENCH_{args.pr}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
