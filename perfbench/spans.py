"""Spans around the calls into cycbound's layers, and the per-layer metrics.

The tracer wraps the public functions of gf, cyclic, nzl, decoder and cli
from outside: each wrapper is bound in every cycbound module namespace that
binds the original, so calls that go through another module's globals
(best_bound -> mu_search, build_context -> verify_certificate) are seen
too.  A span is (name, start, end, parent span, operation id, info) and is
kept in memory until the run ends.  FieldCtx methods are far too frequent
to span; they are counted.
"""

from __future__ import annotations

import functools
import importlib
import json
import random
import statistics
import sys
import time

SETUP, PROBE = -1, -2

TRACED = {
    "gf": ("build_field",),
    "cyclic": ("bch_bound", "ht_bound", "min_distance_oracle"),
    "nzl": ("mu_search", "verify_certificate", "candidate_locators", "best_bound"),
    "decoder": ("build_context", "syndromes", "solve_key_equation", "find_error_positions",
                "error_values", "decode"),
    "cli": ("main", "load_code_spec"),
}
COUNTED = ("add", "mul", "pow")


def _info(name, args, result):
    """The small fact about a call that a per-layer metric needs."""
    if name == "cyclic.min_distance_oracle":
        return (args[0].q, args[0].k)
    if name == "nzl.mu_search":
        return result.d_star
    if name == "nzl.best_bound":
        return result[0].d_star
    if name == "nzl.candidate_locators":
        return len(result)
    if name == "decoder.decode":
        if result.status == "success":
            return "success" if result.positions else "zero_syndrome"
        return (result.reason or "other").split(":", 1)[0]
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = SETUP
        self.counts = dict.fromkeys(COUNTED, 0)
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = info = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                info = "raised:" + type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                if info is None:
                    info = _info(name, args, result)
                spans[idx] = (name, start, end, parent, self.op, info)

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def install(self):
        """Wrap the traced functions in spans, in every module that binds them."""
        targets = {name: importlib.import_module("cycbound." + name) for name in TRACED}
        modules = [m for k, m in sys.modules.items() if k == "cycbound" or k.startswith("cycbound.")]
        for mod_name, names in TRACED.items():
            mod = targets[mod_name]
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = self._wrap(f"{mod_name}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, orig))

    def install_counters(self):
        """Count FieldCtx calls.  Counting a field operation costs more than
        the operation, so the counters run in a pass of their own."""
        from cycbound.gf import FieldCtx

        for key in COUNTED:
            orig = FieldCtx.__dict__[key]
            setattr(FieldCtx, key, self._count(key, orig))
            self._undo.append((FieldCtx, key, orig))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                name, start, end, parent, op, info = s
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")


def gf_micro_ns(seed, fields=((2, 8), (2, 12), (2, 14), (3, 4), (3, 5)), pairs=2048, repeats=7):
    """ns per direct FieldCtx.add / mul call, per characteristic: the mean
    over the fields the decode contexts use of the median over repeats,
    with the cost of the bare loop subtracted."""
    from cycbound.gf import build_field

    rng = random.Random(seed)
    clock = time.perf_counter
    out: dict[str, list[float]] = {}
    for p, m in fields:
        ctx = build_field(p, m)
        xs = [(rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)) for _ in range(pairs)]
        for meth in ("add", "mul"):
            f = getattr(ctx, meth)
            samples = []
            for _ in range(repeats):
                t0 = clock()
                for a, b in xs:
                    pass
                t1 = clock()
                for a, b in xs:
                    f(a, b)
                t2 = clock()
                samples.append(((t2 - t1) - (t1 - t0)) / pairs * 1e9)
            out.setdefault(f"gf.{meth}.ns.p{p}", []).append(statistics.median(samples))
    return {k: statistics.fmean(v) for k, v in out.items()}


DECODE_OUTCOMES = ("success", "zero_syndrome", "ZeroSyndrome", "InconsistentLocator",
                   "EvaluatorSingular", "ValueOutsideBaseField", "other")


def layer_metrics(tracer, n_ops, op_seconds, counts, count_ops):
    """Per-layer metrics of the traced timed pass (spans with op >= 0) and of
    set-up (op == SETUP).  Times are per timed operation unless named
    otherwise; `op_seconds` is the summed duration of the timed operations.
    `counts` are the FieldCtx calls of a separate pass of `count_ops`
    operations."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    setup_t: dict[str, float] = {}
    setup_calls: dict[str, int] = {}
    words = {2: [0, 0.0], 3: [0, 0.0]}
    useful = [0, 0]
    cands = []
    outcomes = dict.fromkeys(DECODE_OUTCOMES, 0)
    raised = 0
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        dur = end - start
        if name == "cli.main" and isinstance(info, str) and info.startswith("raised:"):
            raised += 1
        if op == SETUP:
            setup_t[name] = setup_t.get(name, 0.0) + dur
            setup_calls[name] = setup_calls.get(name, 0) + 1
        if op < 0:
            continue
        total[name] = total.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "cyclic.min_distance_oracle" and isinstance(info, tuple) and info[0] in words:
            q, k = info
            words[q][0] += q**k - 1
            words[q][1] += dur
        elif name == "nzl.mu_search" and parent >= 0 and spans[parent][0] == "nzl.best_bound":
            useful[1] += 1
            useful[0] += info == spans[parent][5]
        elif name == "nzl.candidate_locators":
            cands.append(info)
        elif name == "decoder.decode":
            outcomes[info if info in outcomes else "other"] += 1

    per_op = max(n_ops, 1)
    decodes = sum(outcomes.values())
    m = {
        "gf.build_field.s": setup_t.get("gf.build_field", 0.0),
        "gf.build_field.calls": setup_calls.get("gf.build_field", 0),
        "gf.add.per_op": counts["add"] / count_ops,
        "gf.mul.per_op": counts["mul"] / count_ops,
        "gf.pow.per_op": counts["pow"] / count_ops,
        "cyclic.oracle.words_per_s.q2": words[2][0] / words[2][1] if words[2][1] else 0.0,
        "cyclic.oracle.words_per_s.q3": words[3][0] / words[3][1] if words[3][1] else 0.0,
        "nzl.mu_search.useful_ratio": useful[0] / useful[1] if useful[1] else 0.0,
        "nzl.candidates.per_code": statistics.fmean(cands) if cands else 0.0,
        "decoder.build_context.s": setup_t.get("decoder.build_context", 0.0),
        "cli.main.raised": raised,
    }
    for name in ("cyclic.bch_bound", "cyclic.ht_bound", "cyclic.min_distance_oracle",
                 "nzl.mu_search", "nzl.candidate_locators", "nzl.verify_certificate",
                 "decoder.syndromes", "decoder.solve_key_equation",
                 "decoder.find_error_positions", "decoder.error_values", "cli.load_code_spec"):
        m[name + ".s"] = total.get(name, 0.0) / per_op
    for name in ("nzl.best_bound", "decoder.decode", "cli.main"):
        m[name + ".self_s"] = self_t.get(name, 0.0) / per_op
    for name in ("cyclic.min_distance_oracle", "nzl.mu_search"):
        m[name + ".calls"] = calls.get(name, 0) / per_op
    for name in ("nzl.mu_search", "cyclic.min_distance_oracle", "decoder.decode"):
        m[name + ".share"] = total.get(name, 0.0) / op_seconds if op_seconds else 0.0
    for key in DECODE_OUTCOMES:
        m["decoder.outcome." + key] = outcomes[key] / decodes if decodes else 0.0
    return m
