#!/usr/bin/env python3
"""cycbound benchmark: one seeded, single-threaded, closed-loop workload per run.

    python3 perfbench/run.py --workload certify|sweep|decode --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree holding src/cycbound.  The run imports
cycbound from that tree, sets up (timed, three times in fresh processes,
median reported as setup_s), then issues operations one after another,
each only after the previous one has finished, in whole passes over the
generated inputs until S seconds have gone by.  A fixed reference kernel
that uses no cycbound code is timed between operations, and every time is
scaled to a host on which that kernel takes REF_NOMINAL_S (see
`_adjusted`).  Every output is checked by perfbench/checks.py.  With
--trace 0 the end-to-end metrics are reported; with --trace 1 the first
half of the time runs untraced, the second half with spans, then one pass
counts FieldCtx calls, and the per-layer metrics are reported.  The last
line of stdout is the JSON result; the run record and the spans are
written under .perfbench/ in the tree.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import array
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 3
# The reference kernel is timed before the first operation, after the last,
# and between two operations whenever REF_EVERY_S has gone by since the last
# sample.  REF_NOMINAL_S is its time on the baseline host when that host is
# quiet (2-vCPU Intel Xeon, Python 3.11.7), so adjusted times read as
# milliseconds on that host.
REF_EVERY_S = 0.1
REF_NOMINAL_S = 1.6e-3
_REF_MOD, _REF_LOC = 257, 61
_REF_SET = bytes(x % 3 == 0 for x in range(_REF_MOD))

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)
# The thread pool knob would change what a run measures; runs are serial.
os.environ.pop("CYCLIC_BOUND_THREADS", None)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _declared_metrics(kind):
    """{name: unit} of the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _reference_s():
    """One timing of the reference kernel: a bytearray scan with modular
    indexing and an integer loop, the two kinds of interpreter work the
    workloads do, in about a 4:1 ratio of time.  (On traces of `certify`
    and `decode` that ratio tracked the host better than either part
    alone.)  It uses no cycbound code, so its time tracks the speed of the
    host and nothing else."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i
    good = bytearray(_REF_MOD * _REF_LOC)
    for j in range(_REF_MOD * _REF_LOC):
        if _REF_SET[5 * j % _REF_MOD] or j % _REF_LOC == 0:
            good[j] = 1
    return time.perf_counter() - t0


def _adjusted(durations, starts, refs):
    """Each duration scaled by REF_NOMINAL_S / r, where r is the mean of the
    reference samples taken just before and just after the operation.

    A shared 2-vCPU host can spend seconds to minutes at a time running
    pure-Python code up to 1.8 times slower than when it is quiet; raw wall
    times of whole runs then spread by a quarter or more.  The kernel slows with the host, so the
    scaled times keep the program's cost and drop most of the host's.
    `refs` are (end time, kernel time) pairs in time order, one at or before
    the first start and one after the last operation."""
    ends = [t for t, _ in refs]
    out = []
    for t0, d in zip(starts, durations):
        i = bisect.bisect_right(ends, t0)
        out.append(d * REF_NOMINAL_S * 2 / (refs[i - 1][1] + refs[i][1]))
    return out


def _ref_sample(refs):
    r = _reference_s()
    refs.append((time.perf_counter(), r))


def _setup(workload, seed, workdir):
    """Fresh-process set-up: import cycbound, generate inputs, warm caches.
    Returns the workload and the set-up time, adjusted like the operations."""
    refs = []
    _ref_sample(refs)
    t0 = time.perf_counter()
    import cycbound  # noqa: F401

    if not os.path.abspath(cycbound.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"cycbound imported from {cycbound.__file__}, not from {SRC}")
    w = WORKLOADS[workload](seed, workdir)
    w.setup()
    elapsed = time.perf_counter() - t0
    _ref_sample(refs)
    return w, _adjusted([elapsed], [t0], refs)[0]


def _setup_in_child(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=150, cwd=ROOT, env=os.environ.copy(),
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up in a child process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def _timed_passes(w, seconds, tracer=None):
    """Whole rounds of w.rounds, cycling, until `seconds` of wall time have
    gone by.  Returns per-op durations (raw), their start times, the
    reference samples, failures, attempts, and the bound of each distinct
    operation."""
    # Compact per-op storage, so that peak_rss_mb hardly depends on how
    # many operations a run gets through.
    durations, starts, refs, bounds = array.array("d"), array.array("d"), [], {}
    failed = attempted = 0
    clock = time.perf_counter
    _ref_sample(refs)
    deadline = clock() + seconds
    r = 0
    while r == 0 or clock() < deadline:
        for i, op in enumerate(w.rounds[r % len(w.rounds)]):
            if clock() - refs[-1][0] >= REF_EVERY_S:
                _ref_sample(refs)
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            t0 = clock()
            try:
                result = w.call(op)
            except Exception as exc:
                durations.append(clock() - t0)
                starts.append(t0)
                failed += 1
                print(f"# operation {attempted - 1} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            durations.append(clock() - t0)
            starts.append(t0)
            try:
                ok, bound = w.check(op, result)
            except Exception as exc:  # a malformed output is a failed check
                ok, bound = False, None
                print(f"# check of operation {attempted - 1} raised {exc!r}", file=sys.stderr)
            failed += not ok
            if bound is not None:
                bounds[r % len(w.rounds), i] = bound
        r += 1
    _ref_sample(refs)
    return durations, starts, refs, failed, attempted, list(bounds.values())


def _timing_metrics(durations, passed, tail_pct):
    ordered = sorted(durations)
    return {
        "ops_per_s": passed / sum(durations),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": _percentile(ordered, tail_pct) * 1e3,
    }


def _record(args):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit, "CYCLIC_BOUND_THREADS": os.environ.get("CYCLIC_BOUND_THREADS"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cycbound", "__init__.py")):
        print(f"error: no cycbound sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    if args.setup_only:
        _, setup_s = _setup(args.workload, args.seed, workdir)
        print(setup_s)
        return 0

    setup_samples = [] if args.trace else [
        _setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    tracer = None
    if args.trace:
        import cycbound  # noqa: F401  (so the tracer can rebind it before set-up)

        tracer = spans.Tracer()
        tracer.install()
    w, setup_s = _setup(args.workload, args.seed, workdir)
    setup_samples.append(setup_s)
    setup_ok = getattr(w, "setup_ok", True)

    record = _record(args)
    if args.trace:
        tracer.uninstall()
        untraced = _timed_passes(w, args.seconds / 2)
        plain, (f1, a1) = _adjusted(*untraced[:3]), untraced[3:5]
        tracer.install()
        durations, starts, refs, failed, attempted, _ = _timed_passes(w, args.seconds / 2, tracer)
        tracer.op = spans.PROBE
        probe = w.probe() if hasattr(w, "probe") else None
        tracer.uninstall()
        tracer.install_counters()
        f2, a2 = _timed_passes(w, 0)[3:5]
        tracer.uninstall()
        metrics = spans.layer_metrics(tracer, len(durations), sum(durations), tracer.counts, a2)
        traced = _adjusted(durations, starts, refs)
        metrics["trace.overhead_ratio"] = (sum(traced) / len(traced)) / (sum(plain) / len(plain))
        metrics.update(spans.gf_micro_ns(args.seed))
        failed += f1 + f2
        attempted += a1 + a2
    else:
        raw, starts, refs, failed, attempted, bounds = _timed_passes(w, args.seconds)
        probe = w.probe() if hasattr(w, "probe") else None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passed = attempted - failed
        tail_pct = w.tail_percentile
        # decode certifies no bounds per operation: use those that set its radii
        bounds = bounds or getattr(w, "bounds", [])
        metrics = {
            "setup_s": statistics.median(setup_samples),
            **_timing_metrics(_adjusted(raw, starts, refs), passed, tail_pct),
            "ok_ratio": passed / attempted,
            "peak_rss_mb": peak_rss_mb,
            "bound_mean": statistics.fmean(bounds) if bounds else 0.0,
        }
        record["raw"] = _timing_metrics(raw, passed, tail_pct)
        record["tail"] = {"percentile": tail_pct, "samples": len(raw),
                          "beyond": len(raw) - int(len(raw) * tail_pct / 100)}
        record["setup_samples_s"] = setup_samples
        kernel = sorted(r for _, r in refs)
        record["reference_ms"] = {"samples": len(kernel), "min": kernel[0] * 1e3,
                                  "median": statistics.median(kernel) * 1e3, "max": kernel[-1] * 1e3}
    probe_ok = True
    if probe is not None:
        record["probe"] = {"input": "(2; 1023) random code", "outcome": probe[0], "acceptable": probe[1]}
        probe_ok = probe[1]
    record["setup_ok"] = setup_ok

    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    result_metrics = {k: {"value": metrics[k], "unit": declared[k]} for k in declared}
    result = {"correct": bool(failed == 0 and setup_ok and probe_ok), "attempted": attempted,
              "failed": failed, "metrics": result_metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT, tag + ".spans.jsonl"))
    print("# run " + json.dumps(record))
    for k, v in result_metrics.items():
        print(f"# {k:<40} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
