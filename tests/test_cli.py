import contextlib
import importlib.util
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cycbound import cli, cyclic, nzl
from cycbound.cyclic import BchWitness, DistanceWitness, HtWitness
from cycbound.gf import FieldTooLarge

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "cycbound", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


@pytest.fixture(scope="module")
def spec21(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "example21.json"
    path.write_text(json.dumps({"q": 2, "n": 21, "coset_reps": [1, 3, 7, 9], "name": "example-21"}))
    return str(path)


@pytest.fixture(scope="module")
def spec65(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "code65.json"
    path.write_text(json.dumps({"q": 2, "n": 65, "coset_reps": [1, 5]}))
    return str(path)


_LAZY_IMPORT_SCRIPT = """
import contextlib, io, sys
import cycbound, cycbound.cli
lazy = {"cycbound.decoder", "cycbound.fixtures"}
with contextlib.redirect_stdout(io.StringIO()):
    assert cycbound.cli.main(["bound", sys.argv[1]]) == 0
assert not lazy & set(sys.modules), sorted(lazy & set(sys.modules))
names = {}
exec("from cycbound import *", names)
assert all(getattr(cycbound, name) is names[name] for name in cycbound.__all__)
assert cycbound.decode is cycbound.decoder.decode
assert "cycbound.decoder" in sys.modules and "cycbound.fixtures" not in sys.modules
try:
    cycbound.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("cycbound.no_such_name resolved")
"""


def test_bound_loads_neither_decoder_nor_fixtures(spec21):
    # a fresh process that imports the package and the CLI and runs bound
    # never imports the decoder or the fixtures, and the decoder's names
    # still resolve, through import * too, from the one decoder module
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-c", _LAZY_IMPORT_SCRIPT, str(spec21)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr


def test_cosets_text():
    res = run_cli("cosets", "21", "2")
    assert res.returncode == 0
    assert "C_9 = {9, 15, 18}" in res.stdout


def test_cosets_json_roundtrip():
    res = run_cli("cosets", "7", "2", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["cosets"] == [[0], [1, 2, 4], [3, 5, 6]]
    assert json.loads(json.dumps(doc)) == doc


def test_cosets_sizes_divide_order():
    res = run_cli("cosets", "5", "4", "--json")
    doc = json.loads(res.stdout)
    assert all(2 % len(c) == 0 for c in doc["cosets"] if c != [0])


def test_cosets_not_coprime():
    res = run_cli("cosets", "8", "2")
    assert res.returncode == 1
    assert "error" in res.stderr


@pytest.mark.parametrize("n", ["0", "-5"])
def test_cosets_length_not_positive(n):
    res = run_cli("cosets", n, "2")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "error: length must be positive\n"


def test_bound_example21(spec21):
    res = run_cli("bound", spec21)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["bch"]["value"] == 5
    assert doc["ht"]["value"] == 6
    assert doc["ht"]["witness"] == {"b1": 1, "m1": 5, "m2": 1, "d0": 5, "nu": 1}
    assert doc["nzl"]["d_star"] == 7
    assert doc["nzl"]["certificate"]["mu"] == 14
    assert doc["nzl"]["certificate"]["locator"]["n_l"] == 5
    assert doc["oracle"] == {"d": 8, "capped": False}
    assert json.loads(json.dumps(doc)) == doc


def test_bound_65_oracle_capped(spec65):
    res = run_cli("bound", spec65, "--ht", "--nzl", "--oracle")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert "bch" not in doc
    assert doc["nzl"]["d_star"] == 7
    assert doc["oracle"] == {"d": None, "capped": True}  # 2^41 codewords


def test_bound_empty_defining_set(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"q": 2, "n": 9, "coset_reps": []}))
    doc = json.loads(run_cli("bound", str(path)).stdout)
    assert doc["bch"]["value"] == 1
    assert doc["ht"]["value"] == 1
    assert doc["nzl"]["d_star"] == 1
    assert doc["oracle"]["d"] == 1


def test_bound_defining_set_closure_warning(tmp_path):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"q": 2, "n": 21, "defining_set": [1, 3]}))
    res = run_cli("bound", str(path), "--bch")
    assert res.returncode == 0
    assert "closed it" in res.stderr
    doc = json.loads(res.stdout)
    assert doc["code"]["defining_set"] == [1, 2, 3, 4, 6, 8, 11, 12, 16]


def test_bound_negative_defining_set(tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"q": 2, "n": 65, "defining_set": [-5, -1, 1, 5]}))
    res = run_cli("bound", str(path), "--bch")
    doc = json.loads(res.stdout)
    assert res.returncode == 0
    assert 60 in doc["code"]["defining_set"] and 64 in doc["code"]["defining_set"]


# entries that are not integers (JSON booleans included), a zero length, a
# length not coprime to q and a name that is not a string
MALFORMED = [
    {"q": 2, "n": 7, "coset_reps": [1.5]},
    {"q": 2, "n": 7, "defining_set": [1.5]},
    {"q": 2, "n": 7, "coset_reps": "ab"},
    {"q": 2, "n": 0, "defining_set": [1]},
    {"q": 2, "n": 4, "defining_set": [1]},
    {"q": 2, "n": 7, "coset_reps": [1], "name": [1, 2]},
    {"q": 2, "n": 7, "coset_reps": [1], "name": {"a": 1}},
    {"q": True, "n": 7, "coset_reps": [1]},
    {"q": 2, "n": True, "coset_reps": []},
    {"q": 2, "n": 7, "coset_reps": [True]},
]


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    # the exit-code contract of cli.main, in process, where an exception
    # that escapes main fails the test: 0 when the command ran, 1 for a
    # usage, parse or library error, 2 when an emitted result fails its
    # re-verification
    from cycbound import cli

    spec = tmp_path / "example21.json"
    spec.write_text(json.dumps(EXAMPLE21))
    assert cli.main(["bound", str(spec)]) == 0
    assert cli.main(["decode", str(spec), "--received", "0" * 21]) == 0
    capsys.readouterr()
    # a missing file, both zero-set keys, text that is not JSON and the
    # malformed specs: each a clean error, never a traceback or a hang
    both = tmp_path / "both.json"
    both.write_text(json.dumps({"q": 2, "n": 21, "coset_reps": [1], "defining_set": [1]}))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths = [tmp_path / "missing.json", both, bad]
    for i, doc in enumerate(MALFORMED):
        paths.append(tmp_path / f"malformed{i}.json")
        paths[-1].write_text(json.dumps(doc))
    for path in paths:
        for argv in (["bound", "--bch"], ["decode", "--received", "0000000"]):
            assert cli.main([argv[0], str(path), *argv[1:]]) == 1, (path.name, argv)
            out = capsys.readouterr()
            assert out.out == "" and "error:" in out.err, (path.name, argv, out)
    monkeypatch.setattr(nzl, "verify_certificate", lambda *args: False)
    assert cli.main(["bound", str(spec)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "certificate failed re-verification" in out.err
    # the python -m cycbound entry passes main's code on as its exit status
    res = run_cli("bound", str(tmp_path / "missing.json"), timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr, res.stderr


_ATOMS = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(-2, 40), st.text(max_size=2))
_ZEROS = st.one_of(st.lists(st.integers(-20, 20), max_size=5), st.lists(_ATOMS, max_size=3), _ATOMS)
_SPEC_DOCS = st.one_of(
    # well-formed documents, some of them codes that do not exist
    st.builds(
        lambda q, n, key, zeros, name: {"q": q, "n": n, key: zeros, **name},
        st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
        st.integers(1, 16),
        st.sampled_from(["coset_reps", "defining_set"]),
        st.lists(st.integers(-20, 20), max_size=5),
        st.one_of(st.just({}), st.builds(lambda name: {"name": name}, st.text(max_size=3))),
    ),
    st.fixed_dictionaries({}, optional={
        "q": st.one_of(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 0, 1, 6, -2, 1 << 21, 2**61 - 1]), _ATOMS),
        "n": st.one_of(st.integers(-1, 16), st.just(4096), _ATOMS),
        "coset_reps": _ZEROS,
        "defining_set": _ZEROS,
        "name": st.one_of(st.text(max_size=3), _ATOMS),
    }),
    st.lists(_ATOMS, max_size=3),
    _ATOMS,
)


@given(doc=_SPEC_DOCS, flags=st.sampled_from([[], ["--trivial"], ["--spc", "3"], ["--no-search-w"]]),
       digit=st.sampled_from("01"))
@settings(max_examples=200, deadline=None)
def test_fuzzed_spec_documents_exit_zero_or_one(tmp_path_factory, doc, flags, digit):
    # valid lengths stay at most 16, so bound's oracle finishes at once
    from cycbound import cli

    path = tmp_path_factory.getbasetemp() / "fuzzed_spec.json"
    path.write_text(json.dumps(doc))
    n = doc.get("n") if isinstance(doc, dict) else None
    word = digit * n if type(n) is int and 0 < n <= 16 else digit
    for argv in (["bound", str(path)], ["decode", str(path), "--received", word, *flags]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1), (doc, argv, err.getvalue())
        if code == 1:
            assert out.getvalue() == "" and "error:" in err.getvalue(), (doc, argv, out.getvalue())
        else:
            assert isinstance(json.loads(out.getvalue()), dict), (doc, argv)


ZERO_CODE = {"q": 5, "n": 17, "coset_reps": [0, 1]}
CODE65 = {"q": 2, "n": 65, "coset_reps": [1, 5]}
EMPTY15 = {"q": 2, "n": 15, "coset_reps": []}
EXAMPLE21 = {"q": 2, "n": 21, "coset_reps": [1, 3, 7, 9]}


@pytest.mark.parametrize(
    "doc, argv",
    [
        (ZERO_CODE, ["bound"]),
        (ZERO_CODE, ["decode"]),
        (ZERO_CODE, ["decode", "--trivial"]),
        (ZERO_CODE, ["decode", "--spc", "2"]),
        (CODE65, ["decode", "--spc", "5"]),
        (CODE65, ["decode", "--spc", "2"]),
        (EMPTY15, ["decode"]),
        (EXAMPLE21, ["decode", "--spc", "0"]),
        (EXAMPLE21, ["decode", "--spc", "5", "--trivial"]),
    ],
    ids=["zero-bound", "zero-decode", "zero-trivial", "zero-spc2", "65-spc5", "65-spc2", "empty-decode",
         "21-spc0", "21-spc5-trivial"],
)
def test_library_errors_exit_one(tmp_path, doc, argv):
    # a zero code, a locator length not coprime to n or q, and a code with no
    # certificate to decode by: each raises a library error, which the CLI
    # reports as `error: ...` with exit 1; so do a parity-check length of 0,
    # which is not an unset --spc, and --spc with --trivial, two locators
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    if argv[0] == "decode":
        argv = argv + ["--received", "0" * doc["n"]]
    res = run_cli(argv[0], str(path), *argv[1:], timeout=60)
    assert res.returncode == 1, res.stderr
    assert "error:" in res.stderr and "Traceback" not in res.stderr, res.stderr


def test_bound_oracle_over_field_table_cap(tmp_path):
    # 3^5 codewords are under the oracle cap, but GF(3^20) is over the table cap
    path = tmp_path / "code25.json"
    path.write_text(json.dumps({"q": 3, "n": 25, "coset_reps": [1]}))
    res = run_cli("bound", str(path), timeout=60)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["oracle"]["d"] is None and doc["oracle"]["capped"] is True
    assert "table bound" in doc["oracle"]["skipped"]
    assert doc["bch"]["value"] >= 2 and doc["ht"]["value"] >= 2 and doc["nzl"]["d_star"] >= 2


def _two_gigabytes_of_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("args, reps", [(("decode", "--received", "1,0,0"), [1]), (("bound",), [1, 2])])
def test_large_field_runs_in_two_gigabytes(tmp_path, args, reps):
    # a (q - 1) x q table of GF(65536) digit products would not fit; bound
    # runs the oracle here (k = 1), and both build remainder rows over GF(q)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"q": 65536, "n": 3, "coset_reps": reps}))
    res = run_cli(args[0], str(spec), *args[1:], timeout=120,
                  preexec_fn=_two_gigabytes_of_address_space)
    assert res.returncode == 0, res.stderr


# Received words of the decode goldens: three errors on example-21, which
# --trivial (d* 5) cannot correct, and three and four errors on code 65 (d* 7).
W21 = "101000000000000000100"
W65_3 = "".join("1" if i in (0, 10, 61) else "0" for i in range(65))
W65_4 = "".join("1" if i in (0, 1, 10, 61) else "0" for i in range(65))
# Seeded codewords of the narrow-sense BCH codes (3; 80; 1,2,4,5) and
# (2; 255; 1,3,5,7) with t = 3 and t = 4 errors.
W80 = "02011200022221122112001002102210220111002112011212001211010110010001020110000101"
W255 = (
    "0010111011010010010110000011000101000110001100000011010011000100010010000110101100001"
    "1011100111010011111001010000000010000001111100010110011110110000101101101011101110110"
    "1100011110100111010001101011101010110111101001101001011000010110010011010100110101100"
)
# Seeded codewords with t = 3 and t + 1 = 4 errors of (2; 127; 7,15,21,23,29),
# decoded with a parity-check locator (d_l = 2) in GF(2^14), and of the
# narrow-sense BCH code (3; 121; 1,2,4,5).
W127_3 = ("0101111011000011110010101101010000100110100011110010011001111010010011010100000010101"
          "011011110000001011011010101010001011111110")
W127_4 = ("1000010100101111001000000011101000010111010100011111011100010110100111100100110110100"
          "111101010111011011011110101010010000110010")
W121_3 = ("2010012020011210002012000021100022210212221122211220200012010011200211100012112122210"
          "012002011112122222200112011102101101")
W121_4 = ("0122111222212120022221011220102000000122210000020110111110000120101201022021100221121"
          "100212212000200220002020022002020021")


GOLDENS = [
        (["check", "--json"], "check.json"),
        (["bound", "spec_example21.json"], "bound_example21.json"),
        (["bound", "spec_code65.json"], "bound_code65.json"),
        (["decode", "spec_example21.json", "--received", W21], "decode_example21.json"),
        (["decode", "spec_example21.json", "--received", W21, "--trivial"],
         "decode_example21_trivial.json"),
        (["decode", "spec_code65.json", "--received", W65_3], "decode_code65_3err.json"),
        (["decode", "spec_code65.json", "--received", W65_4], "decode_code65_4err.json"),
        (["decode", "spec_bch80.json", "--received", W80], "decode_bch80.json"),
        (["decode", "spec_bch255.json", "--received", W255], "decode_bch255.json"),
        (["bound", "spec_q4_21.json"], "bound_q4_21.json"),
        (["bound", "spec_bch80.json"], "bound_bch80.json"),
        (["decode", "spec_code127.json", "--received", W127_3], "decode_code127_3err.json"),
        (["decode", "spec_code127.json", "--received", W127_4], "decode_code127_4err.json"),
        (["decode", "spec_bch121.json", "--received", W121_3], "decode_bch121_3err.json"),
        (["decode", "spec_bch121.json", "--received", W121_4], "decode_bch121_4err.json"),
]


@pytest.mark.parametrize("argv, golden", GOLDENS)
def test_output_matches_golden(argv, golden):
    # the golden files hold the output of an earlier version; refactors must
    # keep it byte for byte
    res = run_cli(*argv, cwd=DATA, timeout=120)
    assert res.returncode == 0, res.stderr
    with open(os.path.join(DATA, golden), encoding="utf-8") as fh:
        assert res.stdout == fh.read()


def _no_json_dumps(*args, **kwargs):
    raise AssertionError("json.dumps called")


@pytest.mark.parametrize("argv, golden", GOLDENS)
def test_output_matches_golden_without_json_dumps(argv, golden, monkeypatch, capsys):
    # every record goes through cli._dumps: the goldens hold byte for byte
    # with json.dumps made to raise
    with open(os.path.join(DATA, golden), encoding="utf-8") as fh:
        want = fh.read()
    monkeypatch.chdir(DATA)
    monkeypatch.setattr(json, "dumps", _no_json_dumps)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("n, q", [(21, 2), (80, 3), (1, 5), (63, 4)])
def test_cosets_json_without_json_dumps(n, q, monkeypatch, capsys):
    want = json.dumps({"n": n, "q": q, "cosets": [sorted(c) for c in reference.coset_partition(n, q)]},
                      indent=2) + "\n"
    monkeypatch.setattr(json, "dumps", _no_json_dumps)
    assert cli.main(["cosets", str(n), str(q), "--json"]) == 0
    assert capsys.readouterr().out == want


_JSON_INTS = st.integers() | st.integers(min_value=2**64, max_value=2**200) | st.integers(-2**200, -2**64)
_JSON_STRINGS = st.text() | st.sampled_from(['"', "\\", '\\"x"', "\x00\x1f\x7f\n\t", "é ü", "\U0001d11e", "\u2028"])
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | _JSON_INTS | _JSON_STRINGS | st.lists(_JSON_INTS | st.booleans()),
    lambda kids: st.lists(kids, max_size=6) | st.dictionaries(_JSON_STRINGS, kids, max_size=6),
    max_leaves=40,
)


@given(doc=_JSON_DOCS)
@settings(max_examples=150, deadline=None)
def test_dumps_matches_json_dumps(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], [[]], [{}], {"a": {}, "b": []}, [0, -1, 2**64, -2**64 - 1, 10**30],
    [1, True, 0, False], [True], [None, 1], {"": None}, '"\\\x00\x1f\x7fé\U0001d11e',
    {'k"\\\n\U0001f600': [{"x": [1, [2, [3]]]}]},
])
def test_dumps_matches_json_dumps_on_edge_cases(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [1.5, (1, 2), {1: 2}, {"a": {None: 0}}, [1, 2.0], {"a": {1, 2}}, b"x"])
def test_dumps_refuses_types_the_cli_does_not_print(doc):
    with pytest.raises(TypeError):
        cli._dumps(doc)


def _count_calls(monkeypatch, module, name):
    """Wrap module.name to append each call's result to a list, returned."""
    results = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, counted)
    return results


def test_bound_computes_ht_once(tmp_path, monkeypatch):
    # cmd_bound and best_bound both ask for the HT witness: one template
    # search, and the second call returns the witness the spec keeps
    from cycbound import cli, cyclic

    path = tmp_path / "fresh.json"
    path.write_text(json.dumps({"q": 2, "n": 31, "coset_reps": [1, 5], "name": "ht-once"}))
    witnesses = _count_calls(monkeypatch, cyclic, "ht_bound")
    searches = _count_calls(monkeypatch, cyclic, "_ht_template")
    assert cli.main(["bound", str(path)]) == 0
    assert len(searches) == 1
    assert len(witnesses) == 2 and witnesses[0] is witnesses[1]


def test_bound_makes_one_stride_pass(tmp_path, monkeypatch):
    # bch_bound and ht_bound share the pass over the unit strides of D_C:
    # one pass, which alone reads the coset masks, and the second request
    # returns the result the spec keeps
    from cycbound import cli, cyclic

    path = tmp_path / "fresh.json"
    path.write_text(json.dumps({"q": 2, "n": 31, "coset_reps": [1, 5], "name": "stride-once"}))
    runs = _count_calls(monkeypatch, cyclic, "_stride_runs")
    passes = _count_calls(monkeypatch, cyclic, "_coset_masks")
    assert cli.main(["bound", str(path)]) == 0
    assert len(passes) == 1
    assert len(runs) == 2 and runs[0] is runs[1]


def test_bound_computes_bch_once(tmp_path, monkeypatch):
    # cmd_bound and best_bound both ask for the BCH witness: the second
    # call returns the witness the spec keeps
    from cycbound import cli, cyclic

    path = tmp_path / "fresh.json"
    path.write_text(json.dumps({"q": 2, "n": 31, "coset_reps": [1, 5], "name": "bch-once"}))
    witnesses = _count_calls(monkeypatch, cyclic, "bch_bound")
    assert cli.main(["bound", str(path)]) == 0
    assert len(witnesses) == 2 and witnesses[0] is witnesses[1]


def test_decode_spc_searches_steps_like_bound(tmp_path, capsys):
    # --spc and --trivial take the same step-search default as bound, on;
    # w = 1 alone certifies only d* 6 for this code
    from cycbound import cli

    path = tmp_path / "code33.json"
    path.write_text(json.dumps({"q": 2, "n": 33, "coset_reps": [0, 3, 5, 11]}))
    d_star = {}
    for flag in ([], ["--search-w"], ["--no-search-w"]):
        argv = ["decode", str(path), "--spc", "5", "--received", "0" * 33, *flag]
        assert cli.main(argv) == 0
        d_star[tuple(flag)] = json.loads(capsys.readouterr().out)["d_star"]
    assert d_star == {(): 7, ("--search-w",): 7, ("--no-search-w",): 6}


@pytest.mark.parametrize(
    "name, bad",
    [
        ("bch_bound", BchWitness(9, 1, 1)),
        ("ht_bound", HtWitness(9, 1, 5, 1, 8, 1)),
        # weight 1 = d, but x^0 is no codeword of a code with zeros
        ("min_distance_oracle", DistanceWitness(1, (1,) + (0,) * 20, "oracle")),
    ],
    ids=["bch", "ht", "oracle"],
)
def test_bound_unverified_witness_exits_two(spec21, capsys, monkeypatch, name, bad):
    # a witness that fails its independent re-check is never emitted
    from cycbound import cli, cyclic

    monkeypatch.setattr(cyclic, name, lambda code: bad)
    assert cli.main(["bound", spec21]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "internal error: emitted" in out.err and "failed re-verification" in out.err


@pytest.fixture(scope="module")
def spec1023(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "code1023.json"
    path.write_text(json.dumps({"q": 2, "n": 1023, "coset_reps": [1, 3, 5]}))
    return str(path)


def _certificate_verifies(doc) -> bool:
    """Rebuild the `bound` report's NZL certificate and re-check it."""
    from cycbound import nzl

    c = doc["nzl"]["certificate"]
    loc = c["locator"]
    locator = nzl.LocatorSpec(
        loc["kind"], loc["u"], loc["n_l"], tuple(loc["defining_set"]), loc["d_l"],
        tuple(loc["support"]), None if loc["coeffs"] is None else tuple(loc["coeffs"]),
    )
    cert = nzl.NzlCertificate(c["e"], c["w"], c["t_l"], c["mu"], c["d_star"], locator)
    return nzl.verify_certificate(doc["code"]["defining_set"], doc["code"]["n"], cert)


def test_bound_long_code_reports_verified_ht(spec1023):
    from cycbound import cyclic

    res = run_cli("bound", spec1023)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["ht"]["value"] == 7
    code = cyclic.build_code(2, 1023, (1, 3, 5))
    assert cyclic.verify_ht_witness(code, HtWitness(7, **doc["ht"]["witness"]))
    assert _certificate_verifies(doc)
    assert doc["nzl"]["d_star"] >= doc["bch"]["value"]


def test_bound_and_decode_need_no_locator_field(tmp_path):
    # SPC(11) over GF(7) lives in GF(7^10), over the table cap; the
    # certificate search needs no field, so both commands run
    path = tmp_path / "gf7.json"
    path.write_text(json.dumps({"q": 7, "n": 10, "coset_reps": [1]}))
    res = run_cli("bound", str(path), timeout=60)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert _certificate_verifies(doc)
    assert doc["nzl"]["d_star"] <= doc["oracle"]["d"]
    res = run_cli("decode", str(path), "--received", "0" * 10, timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["status"] == "success"


@pytest.mark.parametrize("command", ["bound", "decode"])
def test_spec_field_above_the_limit_exits_one(tmp_path, command):
    # a prime q this large would hang in trial division if it got that far
    path = tmp_path / "huge_q.json"
    path.write_text(json.dumps({"q": 2**61 - 1, "n": 7, "coset_reps": [1]}))
    extra = ["--received", "0" * 7] if command == "decode" else []
    res = run_cli(command, str(path), *extra, timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


def test_cosets_length_above_the_limit_exits_one():
    res = run_cli("cosets", "4097", "2", timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "4095" in res.stderr


def test_cli_options_of_bound_and_decode():
    # every flag is a configuration to test: a new one must change this list
    from cycbound import cli

    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    options = {
        name: sorted(s for a in sub.choices[name]._actions for s in a.option_strings)
        for name in ("bound", "decode")
    }
    assert options == {
        "bound": sorted(["-h", "--help", "--bch", "--ht", "--nzl", "--oracle",
                         "--search-w", "--no-search-w", "--human"]),
        "decode": sorted(["-h", "--help", "--received", "--spc", "--trivial",
                          "--search-w", "--no-search-w"]),
    }


@pytest.mark.parametrize("command", ["bound", "decode"])
def test_spec_length_above_the_limit_exits_one(tmp_path, command):
    path = tmp_path / "code4097.json"
    path.write_text(json.dumps({"q": 2, "n": 4097, "coset_reps": [1]}))
    extra = ["--received", "0" * 4097] if command == "decode" else []
    res = run_cli(command, str(path), *extra, timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "4095" in res.stderr
    assert "Traceback" not in res.stderr


def test_spec_length_at_the_limit_is_accepted(tmp_path):
    path = tmp_path / "code4095.json"
    path.write_text(json.dumps({"q": 2, "n": 4095, "coset_reps": [1, 3, 5]}))
    res = run_cli("bound", str(path), "--bch", timeout=60)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["bch"]["value"] == 7


def test_repeated_main_calls_reuse_the_parser(spec21, capsys):
    from cycbound import cli

    assert cli.main(["bound", spec21, "--bch"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"code", "bch"}
    assert cli.main(["bound", spec21]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"code", "bch", "ht", "nzl", "oracle"}


def test_decode_above_ht_cap(spec1023):
    word = ["0"] * 1023
    word[700] = "1"
    res = run_cli("decode", spec1023, "--received", "".join(word))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["status"] == "success" and doc["positions"] == [700]
    assert doc["corrected"] == [0] * 1023


_CODE255_SKIPPING_HAMMING = [1, 5, 15, 17, 21, 23, 25, 29, 45, 51, 85, 87, 91, 95, 119]


def test_decode_skips_locators_over_the_field_cap(tmp_path):
    # best_bound certifies d* = 9 with the Hamming (7,4,3) locator, whose
    # combined field GF(2^lcm(8, 3)) is over the table cap; decode falls back
    # to the best-ranked certificate whose field fits and says so on stderr
    from cycbound import cyclic

    spec = tmp_path / "code255.json"
    reps = _CODE255_SKIPPING_HAMMING
    spec.write_text(json.dumps({"q": 2, "n": 255, "coset_reps": reps}))
    bound = json.loads(run_cli("bound", str(spec), "--nzl").stdout)
    assert bound["nzl"]["d_star"] == 9
    assert bound["nzl"]["certificate"]["locator"]["kind"] == "hamming"
    code = cyclic.build_code(2, 255, reps)
    codeword = cyclic.random_codeword(code, random.Random(5))
    word = list(codeword)
    for p in (3, 100, 250):
        word[p] ^= 1
    res = run_cli("decode", str(spec), "--received", "".join(map(str, word)))
    assert res.returncode == 0, res.stderr
    assert "skipped locators: hamming n_l=7 u=1" in res.stderr
    doc = json.loads(res.stdout)
    assert sorted(doc) == ["correctable", "corrected", "d_star", "positions", "reason", "status", "values"]
    assert doc["d_star"] == 8 and doc["correctable"] == 3
    assert doc["status"] == "success" and sorted(doc["positions"]) == [3, 100, 250]
    assert doc["corrected"] == list(codeword)


_CLOSED_LENGTHS = {q: [n for n in range(2, 64) if math.gcd(n, q) == 1] for q in (2, 3, 4, 5)}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_decode_walks_the_ranking_past_locators_over_the_field_cap(data):
    # decode drops a locator whose combined field is over the table cap and
    # asks best_certificate again, so the certificates it tries come in the
    # order of the full ranking of every candidate's certificate
    from cycbound import cli, decoder

    q = data.draw(st.sampled_from([2, 3, 4, 5]), label="q")
    n = data.draw(st.sampled_from(_CLOSED_LENGTHS[q]), label="n")
    cosets = cyclic.coset_partition(n, q)
    chosen = data.draw(st.lists(st.booleans(), min_size=len(cosets), max_size=len(cosets)))
    if all(chosen):
        chosen[0] = False  # the zero code has no distance to certify
    code = cyclic.build_code(q, n, [min(c) for c, keep in zip(cosets, chosen) if keep])
    search_w = data.draw(st.booleans(), label="search_w")
    ranked = reference.ranked_certificates(code, search_w=search_w)
    fits = data.draw(st.integers(0, len(ranked)), label="fits")  # len(ranked): none fits
    tried = []

    def build_context(code, locator, cert):
        tried.append(cert)
        if len(tried) > fits:
            return "context"
        raise FieldTooLarge(f"field {len(tried)}")

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(decoder, "build_context", build_context)
        try:
            got = cli._decodable_certificate(code, nzl.candidate_locators(n, q), search_w)
        except FieldTooLarge as exc:
            got = str(exc)
    assert tried == ranked[:fits + 1], code
    if fits == len(ranked):
        assert got == "field 1" and err.getvalue() == ""
        return
    assert got == (ranked[fits], "context")
    names = ", ".join(f"{c.locator.kind} n_l={c.locator.n_l} u={c.locator.u}" for c in ranked[:fits])
    assert err.getvalue() == (f"warning: combined field over the table cap, skipped locators: {names}\n"
                              if fits else "")


def test_decode_with_every_locator_over_the_field_cap(tmp_path, capsys):
    # (2; 47; 1) lives in GF(2^23), so no locator's combined field fits:
    # decode names no skipped locator and exits 1 with the error of the
    # best-ranked certificate
    from cycbound import cli, decoder

    code = cyclic.build_code(2, 47, [1])
    best = reference.ranked_certificates(code)[0]
    with pytest.raises(FieldTooLarge) as first:
        decoder.build_context(code, best.locator, best)
    assert str(first.value) == "2^92 exceeds the table bound 2^20"
    path = tmp_path / "code47.json"
    path.write_text(json.dumps({"q": 2, "n": 47, "coset_reps": [1]}))
    assert cli.main(["decode", str(path), "--received", "0" * 47]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {first.value}\n"


@pytest.mark.parametrize("n, reps, code, err", [
    (47, [1], 1, "error: 2^92 exceeds the table bound 2^20\n"),
    (255, _CODE255_SKIPPING_HAMMING, 0,
     "warning: combined field over the table cap, skipped locators: hamming n_l=7 u=1\n"),
], ids=["every-locator-over-the-cap", "one-locator-skipped"])
def test_decode_builds_the_code_rows_once(tmp_path, capsys, monkeypatch, n, reps, code, err):
    # a locator dropped for its field is searched past on the same code
    # rows: one _code_rows per decode, whatever the number of re-searches
    from cycbound import cli

    calls = []
    code_rows = nzl._code_rows

    def counted(*args):
        calls.append(args)
        return code_rows(*args)

    monkeypatch.setattr(nzl, "_code_rows", counted)
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"q": 2, "n": n, "coset_reps": reps}))
    assert cli.main(["decode", str(path), "--received", "0" * n]) == code
    out = capsys.readouterr()
    assert len(calls) == 1
    assert out.err == err
    assert (out.out == "") == (code == 1)


def test_bound_human(spec21):
    res = run_cli("bound", spec21, "--human")
    assert res.returncode == 0
    assert "bch        5" in res.stdout
    assert "oracle     8" in res.stdout


@pytest.mark.parametrize("spec, line", [
    ({"q": 2, "n": 65, "coset_reps": [1, 5]}, "capped"),  # 2^41 codewords
    ({"q": 3, "n": 25, "coset_reps": [1]}, "skipped: 3^20 exceeds the table bound 2^20"),
], ids=["capped", "skipped"])
def test_bound_human_oracle_reason(tmp_path, spec, line):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    res = run_cli("bound", str(path), "--oracle", "--human", timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.endswith(f"oracle     {line}\n")


def test_readme_library_example_runs(capsys):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        blocks = fh.read().split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```")[0], {})
    assert capsys.readouterr().out == "5 6\nsuccess [2, 9, 17]\n"


def test_soundness_sweep_script():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "soundness_sweep.py")
    res = subprocess.run([sys.executable, script, "--lengths", "257", "--quiet"],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "33 codes checked" in res.stdout and ", 0 violations" in res.stdout
    # the summary gives the oracle's own time inside the total
    assert re.search(r"^33 codes checked in \d+\.\ds \(oracle \d+\.\ds\), 0 violations$", res.stdout, re.M)


def _load_bench_pairs():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_result(ops_per_s, setup_s, failed=0):
    # a result line as perfbench/run.py prints it; metrics not set read 1.0
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    values = {**dict.fromkeys(names, 1.0), "ops_per_s": ops_per_s, "setup_s": setup_s}
    return {"correct": failed == 0, "attempted": 90, "failed": failed,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


def test_bench_pairs_aggregates_canned_runs(tmp_path, monkeypatch):
    bench = _load_bench_pairs()
    runs = [  # (workload, seed, side, ops_per_s, setup_s, failed)
        ("certify", 11, "parent", 100, 0.2, 0), ("certify", 11, "change", 110, 0.1, 0),
        ("certify", 12, "change", 90, 0.1, 0), ("certify", 12, "parent", 100, 0.1, 2),
        ("certify", 13, "parent", 100, 0.1, 0), ("certify", 13, "change", 100, 0.1, 0),
        ("certify", 14, "change", 130, 0.1, 1), ("certify", 14, "parent", 120, 0.1, 0),
        ("certify", 15, "parent", 500, 0.1, 5),  # no change run: left out
        ("decode", 21, "parent", 7, 0.3, 0), ("decode", 21, "change", 7, 0.3, 0),
    ]
    raw = tmp_path / "runs.jsonl"
    raw.write_text("".join(json.dumps({"workload": w, "seed": s, "side": side, "result": _bench_result(o, t, f)})
                           + "\n" for w, s, side, o, t, f in runs))
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--pr", "99", "--from-raw", str(raw)]) == 0
    doc = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert [row["workload"] for row in doc["rows"]] == ["certify", "decode"]
    certify, decode = doc["rows"]
    assert (certify["pairs"], certify["failed_ops"], certify["seed_range"]) == (4, 3, [11, 14])
    ops = certify["metrics"]["ops_per_s"]
    # inclusive quartiles of 100, 100, 100, 120 and of 90, 100, 110, 130
    assert ops["parent"] == {"q1": 100, "median": 100, "q3": 105}
    assert ops["change"] == {"q1": 97.5, "median": 105, "q3": 115}
    assert (ops["better"], ops["change_better_in"], ops["change_worse_in"]) == ("higher", 2, 1)
    setup = certify["metrics"]["setup_s"]  # lower is better
    assert (setup["change_better_in"], setup["change_worse_in"]) == (1, 0)
    assert (decode["pairs"], decode["seed_range"], decode["metrics"]["ops_per_s"]["parent"]) == \
        (1, [21, 21], {"q1": 7, "median": 7, "q3": 7})


def test_bench_pairs_alternates_the_first_side(tmp_path, monkeypatch, capsys):
    bench = _load_bench_pairs()
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree, workload, seed))
        return _bench_result(100, 0.1)

    monkeypatch.setattr(bench, "run_once", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench.main(["P", "C", "--runs", "certify:5:3", "--pr", "t"]) == 0
    assert calls == [("P", "certify", 5), ("C", "certify", 5), ("C", "certify", 6), ("P", "certify", 6),
                     ("P", "certify", 7), ("C", "certify", 7)]
    # one progress line per run, with the set-up time beside the rate
    assert capsys.readouterr().err.splitlines()[:2] == [
        "certify seed 5 parent: ops_per_s 100 setup_s 0.1", "certify seed 5 change: ops_per_s 100 setup_s 0.1"]
    assert json.loads((tmp_path / "BENCH_t.json").read_text())["rows"][0]["pairs"] == 3


def _lighter(word):
    # drops the first nonzero digit: weight d - 1
    i = next(i for i, x in enumerate(word) if x)
    return word[:i] + (0,) + word[i + 1:]


def _moved(word):
    # moves the first nonzero digit onto the first zero, if there is one:
    # weight d, and no codeword when d >= 3, since the two words differ by a
    # binomial
    if 0 not in word:
        return word
    i, j = next(i for i, x in enumerate(word) if x), word.index(0)
    out = list(word)
    out[i], out[j] = 0, word[i]
    return tuple(out)


@pytest.mark.parametrize("wrong", [_lighter, _moved])
def test_soundness_sweep_script_checks_the_oracle_word(monkeypatch, capsys, wrong):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "soundness_sweep.py")
    spec = importlib.util.spec_from_file_location("soundness_sweep", script)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)

    def wrong_word(code):
        wit = cyclic.min_distance_oracle(code)
        return DistanceWitness(wit.d, wrong(wit.codeword), wit.method)

    # only the script's oracle lies; nzl's locators keep the true one
    monkeypatch.setattr(sweep, "cyclic", SimpleNamespace(**{**vars(cyclic), "min_distance_oracle": wrong_word}))
    monkeypatch.setattr(sys, "argv", ["soundness_sweep.py", "--lengths", "15", "--quiet"])
    assert sweep.main() == 1
    assert "VIOLATION" in capsys.readouterr().out


def test_decode_codeword_identity(spec21):
    res = run_cli("decode", spec21, "--received", "0" * 21, "--spc", "5")
    doc = json.loads(res.stdout)
    assert res.returncode == 0
    assert doc["status"] == "success" and doc["positions"] == []
    assert doc["corrected"] == [0] * 21


def test_decode_three_errors(spec21):
    word = ["0"] * 21
    for p in (2, 9, 17):
        word[p] = "1"
    res = run_cli("decode", spec21, "--received", "".join(word), "--spc", "5")
    doc = json.loads(res.stdout)
    assert doc["status"] == "success"
    assert sorted(doc["positions"]) == [2, 9, 17]
    assert doc["corrected"] == [0] * 21
    assert doc["correctable"] == 3
    assert json.loads(json.dumps(doc)) == doc


def test_decode_best_locator_default(spec21):
    word = ["0"] * 21
    word[4] = "1"
    res = run_cli("decode", spec21, "--received", "".join(word))
    doc = json.loads(res.stdout)
    assert doc["status"] == "success" and doc["positions"] == [4]
    assert doc["d_star"] == 7


def test_decode_failure_reported_with_exit_zero(spec21):
    word = ["0"] * 21
    for p in (1, 5, 9, 13):
        word[p] = "1"
    res = run_cli("decode", spec21, "--received", "".join(word), "--spc", "5")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["status"] in ("success", "failure")
    if doc["status"] == "failure":
        assert doc["reason"]


def test_decode_wrong_length(spec21):
    res = run_cli("decode", spec21, "--received", "0101")
    assert res.returncode == 1
    assert "21 digits" in res.stderr


def test_check_all_pass():
    res = run_cli("check")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "fixtures pass" in res.stdout


def test_check_only_filter():
    res = run_cli("check", "--only", "example21-ht")
    assert res.returncode == 0
    assert res.stdout.count("\n") == 2  # one fixture row plus the summary


def test_check_json():
    res = run_cli("check", "--json")
    doc = json.loads(res.stdout)
    assert all(row["ok"] for row in doc)
    assert {row["name"] for row in doc} >= {"example21-bch", "family-rs", "d3-witness-119"}


def test_check_unknown_filter():
    assert run_cli("check", "--only", "nonexistent-fixture").returncode == 1


def test_ratio_grid_defaults():
    res = run_cli("ratio-grid")
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "nu,d0,m,d_star,ht,ratio"
    assert len(lines) == 1 + 6 * 19
    for line in lines[1:]:
        nu, d0, m, d_star, ht, ratio = line.split(",")
        assert int(m) == int(nu) + 2
        assert (float(ratio) > 1) == (int(d0) > 3)


def test_ratio_grid_nu_zero():
    res = run_cli("ratio-grid", "--nu-range", "0:0")
    lines = res.stdout.strip().splitlines()[1:]
    assert all(float(line.split(",")[5]) == 1.0 for line in lines)


def test_ratio_grid_fig2_monotone(tmp_path):
    out = tmp_path / "fig2.csv"
    res = run_cli("ratio-grid", "--nu-range", "6:6", "--m-rule", "nu+2..nu+6", "--out", str(out))
    assert res.returncode == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    by_d0 = {}
    for nu, d0, m, d_star, ht, ratio in rows:
        by_d0.setdefault(int(d0), []).append((int(m), float(ratio)))
    for d0, pairs in by_d0.items():
        pairs.sort()
        ratios = [r for _, r in pairs]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_ratio_grid_bad_ranges():
    assert run_cli("ratio-grid", "--nu-range", "six").returncode == 1
    assert run_cli("ratio-grid", "--m-rule", "m+1").returncode == 1


def test_usage_error_exit_code():
    assert run_cli("bogus-command").returncode == 1
