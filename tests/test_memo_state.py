"""The memo state of src: which caches exist, and that the field cache
stays bounded (the length cache's bound is tested in test_cyclic).

Per-length state lives on the Length objects of cyclic.length, fields in
the cache of gf.build_field, and per-code state on the code's own spec.
"""

import ast
import gc
import os
import weakref

from cycbound import cyclic, gf, nzl

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "cycbound")

# the only functools caches and module-level cache dicts src may hold
ALLOWED = {
    "cyclic.length",  # the bounded per-length cache
    "gf.build_field",  # the bounded field cache
    "cli._build_parser",  # one parser, which parse_args does not change
    "decoder._rows.lanes_of",  # per call: freed when _rows returns
}


def _name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _is_cache(node) -> bool:
    """functools.cache or lru_cache, bare or called with its options."""
    return _name(node) in ("cache", "lru_cache")


def _memo_state(tree, prefix: str) -> set[str]:
    """Qualified names of the functions under `tree` decorated with
    functools.cache or lru_cache, of its module-level names bound to such a
    cache (f = lru_cache(...)(g)), and of its empty module-level dicts."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if any(map(_is_cache, node.decorator_list)):
                found.add(name)
            found |= _memo_state(node, name)
        elif isinstance(tree, ast.Module) and isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            empty = (isinstance(value, ast.Dict) and not value.keys) or (
                isinstance(value, ast.Call) and _name(value) == "dict" and not value.args)
            cached = isinstance(value, ast.Call) and (
                _is_cache(value.func) or (_is_cache(value) and value.args))
            if empty or cached:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {f"{prefix}.{t.id}" for t in targets if isinstance(t, ast.Name)}
        else:
            found |= _memo_state(node, prefix)
    return found


def test_src_holds_only_the_allowed_caches():
    found = set()
    for entry in sorted(os.listdir(SRC)):
        if entry.endswith(".py"):
            with open(os.path.join(SRC, entry), encoding="utf-8") as fh:
                found |= _memo_state(ast.parse(fh.read()), entry[:-3])
    assert found == ALLOWED


def test_memo_guard_sees_every_cache_form():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@cache\ndef a(): pass\n"
        "@functools.lru_cache(maxsize=4)\ndef b(): pass\n"
        "c = lru_cache(maxsize=4)(int)\n"
        "d = functools.cache(int)\n"
        "E: dict = {}\n"
        "F = dict()\n"
        "class G:\n    @lru_cache\n    def h(self): pass\n"
        "def i():\n    @cache\n    def j(): pass\n"
        "K = lru_cache\n"
    )
    assert _memo_state(tree, "m") == {"m.a", "m.b", "m.c", "m.d", "m.E", "m.F", "m.G.h", "m.i.j"}


def test_kept_parts_do_not_pin_their_spec():
    # a spec keeps its parts in its own dict, keyed without the spec, so
    # with the cycle collector off it still goes with its last reference
    code = cyclic.build_code(2, 31, [1, 5])
    nzl.best_bound(code)
    cyclic.generator_polynomial(code)
    assert {"bch_bound()", "ht_bound()", "_rows_of()"} <= set(vars(code))
    ref = weakref.ref(code)
    gc.disable()
    try:
        del code
        assert ref() is None
    finally:
        gc.enable()


def test_locator_zeros_are_shared_across_code_lengths():
    # the zeros depend on (n_l, D_L) alone, so the locators of two code
    # lengths share them, and each locator object keeps what it read
    first = {(loc.n_l, loc.defining_set): loc for loc in nzl.candidate_locators(23, 2)}
    pairs = [(first[loc.n_l, loc.defining_set], loc) for loc in nzl.candidate_locators(25, 2)
             if (loc.n_l, loc.defining_set) in first]
    assert pairs
    for a, b in pairs:
        assert a is not b and a._zeros is b._zeros and "_zeros" in vars(a)


def _field_parts(ctx):
    return ctx.spec, ctx.log, ctx.antilog, gf.subfield_digit_maps(ctx, 4)


def test_field_cache_is_bounded_and_rebuilds_equal(monkeypatch):
    # a table near the 2^20 cap takes up to 80 MB, so the count stays small
    assert gf.MAX_FIELDS <= 16
    old = gf.build_field(2, 6)
    parts = _field_parts(old)
    real, seen = gf.prime_power, []
    monkeypatch.setattr(gf, "prime_power", lambda q: seen.append(q) or real(q))
    assert gf.subfield_digit_maps(old, 4) is parts[-1] and not seen  # kept on the field
    monkeypatch.undo()
    for p in [p for p in range(3, 400) if gf.is_prime(p)][:gf.MAX_FIELDS]:
        gf.build_field(p, 1)
        assert gf.build_field.cache_info().currsize <= gf.MAX_FIELDS
    again = gf.build_field(2, 6)
    assert again is not old  # evicted, then built anew
    assert _field_parts(again) == parts
