import copy
import json
import re
import sys
import time
from fractions import Fraction
from importlib import resources
from math import prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triplex import cli, freealg
from triplex.cli import LoadError, load_system
from triplex.envelope import EnvelopingAlgebra
from triplex.lts import LieAlgebra, TripleSystem
from triplex.suites import SUITE_NAMES


def data_path(name):
    return str(resources.files("triplex") / "data" / name)


def test_load_system_lts():
    t = load_system(data_path("s2.json"))
    assert isinstance(t, TripleSystem)
    assert t.dim == 2
    assert t.basis_names == ("e", "f")


def test_load_system_lie():
    l = load_system(data_path("sl2.json"))
    assert isinstance(l, LieAlgebra)
    assert l.dim == 3


def test_load_system_all_data_files():
    for name in ("s2.json", "sl2.json", "sl2_lts.json", "sl3_sym.json",
                 "abelian3.json", "s2_plus_s2.json"):
        load_system(data_path(name))


def write(tmp_path, doc):
    p = tmp_path / "sys.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_load_errors(tmp_path):
    with pytest.raises(LoadError):
        load_system(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(LoadError):
        load_system(str(bad))
    with pytest.raises(LoadError):
        load_system(write(tmp_path, {"kind": "group", "dim": 2, "basis": ["a", "b"]}))
    with pytest.raises(LoadError):
        load_system(write(tmp_path, {"kind": "lts", "dim": 0, "basis": []}))
    with pytest.raises(LoadError):
        load_system(write(tmp_path, {"kind": "lts", "dim": 2, "basis": ["a"]}))
    with pytest.raises(LoadError):
        load_system(write(tmp_path, {
            "kind": "lts", "dim": 2, "basis": ["a", "b"],
            "entries": [{"args": [0, 1], "value": {"0": "1"}}]}))
    with pytest.raises(LoadError):
        load_system(write(tmp_path, {
            "kind": "lts", "dim": 2, "basis": ["a", "b"],
            "entries": [{"args": [0, 1, 5], "value": {"0": "1"}}]}))
    with pytest.raises(LoadError):
        load_system(write(tmp_path, {
            "kind": "lts", "dim": 2, "basis": ["a", "b"],
            "entries": [{"args": [0, 1, 0], "value": {"0": "1/x"}}]}))
    with pytest.raises(LoadError):
        load_system(write(tmp_path, {
            "kind": "lts", "dim": 2, "basis": ["a", "b"],
            "entries": [{"args": [0, 1, 0], "value": {"0": "1"}},
                        {"args": [0, 1, 0], "value": {"0": "2"}}]}))


@pytest.mark.parametrize("entries", [
    [1], {"args": [0, 0, 0]}, "none",
    [{"args": [0, True, 0], "value": {"0": "1"}}],
], ids=["entries0", "entries1", "none", "boolean_arg"])
def test_malformed_entries_exit_2(tmp_path, capsys, entries):
    path = write(tmp_path, {"kind": "lts", "dim": 2, "basis": ["a", "b"],
                            "entries": entries})
    with pytest.raises(LoadError):
        load_system(path)
    assert cli.main(["check", path]) == 2
    assert "error:" in capsys.readouterr().err


def scaled_s2(tmp_path, digits):
    """s2 in the basis e' = 10^(digits-1) e: every structure constant is
    multiplied by 10^(digits-1), so it has ``digits`` digits."""
    doc = json.loads(open(data_path("s2.json")).read())
    for entry in doc["entries"]:
        entry["value"] = {k: v + "0" * (digits - 1) for k, v in entry["value"].items()}
    path = tmp_path / f"s2_{digits}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_numbers_over_the_interpreter_digit_limit_load_and_print(tmp_path, capsys):
    # 4,001-digit constants: the product has numbers over the default limit
    # of 4,300 digits, and main prints it exactly; the limit is restored
    limit = sys.get_int_max_str_digits()
    path = scaled_s2(tmp_path, 4001)
    assert cli.main(["mul", path, "-N", "6", "--", "((e*(f*e))*(f*(e*f)))", "1"]) == 0
    out = capsys.readouterr().out
    assert max(map(len, re.findall(r"\d+", out))) > 4300
    assert sys.get_int_max_str_digits() == limit
    # 5,001-digit constants are over the limit as the input is parsed
    path = scaled_s2(tmp_path, 5001)
    assert cli.main(["check", path]) == 0
    capsys.readouterr()
    if limit:
        # the loader alone, under the limit: too long, named by its digits
        with pytest.raises(LoadError, match="rational of 5001 digits is too long") as err:
            load_system(path)
        assert len(str(err.value)) < 200 + len(path)


def test_a_malformed_long_rational_is_not_echoed_whole(tmp_path, capsys):
    path = write(tmp_path, {"kind": "lts", "dim": 2, "basis": ["a", "b"],
                            "entries": [{"args": [0, 1, 0], "value": {"0": "1/" + "x" * 9000}}]})
    assert cli.main(["check", path]) == 2
    err = capsys.readouterr().err
    assert "malformed rational '1/xxx" in err and "(9002 characters)" in err
    assert len(err) < 200 + len(path)


@pytest.mark.parametrize("basis", [["a", "a"], [1, None]],
                         ids=["duplicate", "non_string"])
def test_bad_basis_labels_exit_2(tmp_path, capsys, basis):
    path = write(tmp_path, {"kind": "lts", "dim": 2, "basis": basis,
                            "entries": []})
    with pytest.raises(LoadError, match='"basis" labels must be'):
        load_system(path)
    assert cli.main(["check", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_boolean_dim_exit_2(tmp_path, capsys):
    path = write(tmp_path, {"kind": "lts", "dim": True, "basis": ["a"]})
    with pytest.raises(LoadError, match='"dim" must be a positive integer'):
        load_system(path)
    assert cli.main(["check", path]) == 2


def test_check_pass(capsys):
    assert cli.main(["check", data_path("s2.json")]) == 0
    out = capsys.readouterr().out
    assert "axiom alternating: pass" in out


def test_check_fail(tmp_path, capsys):
    path = write(tmp_path, {
        "kind": "lts", "dim": 2, "basis": ["a", "b"],
        "entries": [{"args": [0, 0, 1], "value": {"0": "1"}}]})
    assert cli.main(["check", path]) == 1


def test_check_missing_file_exit_2():
    assert cli.main(["check", "/nonexistent/sys.json"]) == 2


def test_embed(capsys):
    assert cli.main(["embed", data_path("s2.json")]) == 0
    out = capsys.readouterr().out
    assert "dim 3 = 1 (inner derivations) + 2 (T)" in out
    assert "nondegenerate" in out


def test_endo_pass_and_fail(capsys):
    assert cli.main(["endo", data_path("s2.json")]) == 0
    assert "dim 4, expected 4" in capsys.readouterr().out
    assert cli.main(["endo", data_path("abelian3.json")]) == 1
    assert cli.main(["endo", data_path("s2_plus_s2.json")]) == 1


def test_simple(capsys):
    assert cli.main(["simple", data_path("s2.json")]) == 0
    assert "verdict: simple" in capsys.readouterr().out
    assert cli.main(["simple", data_path("s2_plus_s2.json")]) == 1
    assert "witness" in capsys.readouterr().out


def test_pbw(capsys):
    assert cli.main(["pbw", data_path("s2.json"), "-N", "3"]) == 0
    out = capsys.readouterr().out
    assert "filtration level 3: dim 10" in out
    assert "certificate: pass" in out


@pytest.mark.parametrize("cap, dims", [(1, [1, 3]), (2, [1, 3, 6])])
def test_pbw_small_caps(capsys, cap, dims):
    # relator families whose monomials exceed the cap are left out
    assert cli.main(["pbw", data_path("s2.json"), "-N", str(cap)]) == 0
    out = capsys.readouterr().out
    for n, dim in enumerate(dims):
        assert f"filtration level {n}: dim {dim}" in out
    assert f"filtration level {cap + 1}:" not in out
    assert "certificate: pass" in out


@pytest.mark.parametrize("suite", ["all", "mainthm"])
@pytest.mark.parametrize("system", ["s2.json", "sl2_lts.json"])
def test_mainthm_below_its_minimum_cap_exit_3(capsys, system, suite):
    # a correct algebra must not be reported as failing: the seeded
    # samples leave no safe window at -N 3, so the run aborts on the budget
    assert cli.main(["verify", data_path(system), "--suite", suite, "-N", "3"]) == 3
    captured = capsys.readouterr()
    assert "budget error: the mainthm suite needs cap >= 4, got 3" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("suite, cap, records", [
    ("jordan", 2, [("jordan_exhaustive", {"cases": 2})]),
    ("lemma", 2, [("lemma_exhaustive", {"n_max": 0, "triples": 8})]),
    ("expansion", 2, [("expansion_exhaustive", {"n_max": 0, "triples": 8})]),
    ("s2", 3, [("s2_eigenvalue", {"n": 0}), ("s2_proposition", {"n": 0})]),
])
def test_suites_below_their_minimum_cap_exit_3(capsys, suite, cap, records):
    # one cap lower the suite would check no case and still report a pass
    argv = ["verify", data_path("s2.json"), "--suite", suite, "--json", "-N"]
    assert cli.main(argv + [str(cap - 1)]) == 3
    captured = capsys.readouterr()
    assert (f"budget error: the {suite} suite needs cap >= {cap}, got {cap - 1}"
            in captured.err)
    assert captured.out == ""
    assert cli.main(argv + [str(cap)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [(r["id"], r["params"]) for r in rep["records"]] == records


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_negative_cap_behaves_like_cap_zero(capsys, suite):
    argv = ["verify", data_path("s2.json"), "--suite", suite, "-N"]
    codes = []
    for cap in ("-1", "0"):
        codes.append(cli.main(argv + [cap]))
        err = capsys.readouterr().err
        assert "Traceback" not in err and "KeyError" not in err
    assert codes[0] == codes[1]


def test_verify_all_on_a_wide_system_exits_3_at_once(tmp_path, capsys):
    # the table guard runs before any suite
    doc = {"kind": "lts", "dim": 40, "basis": [f"a{i}" for i in range(40)],
           "entries": []}
    start = time.monotonic()
    assert cli.main(["verify", write(tmp_path, doc), "--suite", "all"]) == 3
    assert time.monotonic() - start < 2
    assert capsys.readouterr().err.startswith(
        "budget error: free monomial table for d=40, N=4 exceeds the guard")


@pytest.mark.parametrize("kind, command, code, line", [
    ("lts", "embed", 0, "killing form rank: 0 / 200 (degenerate)"),
    ("lts", "endo", 1, "lie closure of right-slot operators: dim 0, expected 40000"),
    ("lts", "simple", 1, "invariant subspace witness of dimension 1"),
    ("lie", "check", 0, "pass: valid Lie algebra, dim 200"),
    ("lie", "simple", 1, "verdict: not_simple"),
])
def test_lts_commands_on_a_wide_system_finish_at_once(tmp_path, capsys, kind,
                                                       command, code, line):
    # 200 generators, all products zero: the lts layer visits only the
    # stored structure constants, so this costs next to nothing
    doc = {"kind": kind, "dim": 200, "basis": [f"a{i}" for i in range(200)],
           "entries": []}
    start = time.monotonic()
    assert cli.main([command, write(tmp_path, doc)]) == code
    assert time.monotonic() - start < 10
    assert line in capsys.readouterr().out.splitlines()


def test_verify_at_the_minimum_cap_passes(capsys):
    argv = ["verify", data_path("sl2_lts.json"), "--suite", "mainthm", "-N", "4"]
    assert cli.main(argv) == 0
    assert "suite mainthm: pass" in capsys.readouterr().out


def test_coideal_failure_exit_1(capsys, monkeypatch):
    from triplex import hopf
    # a lone generator leaf is not a coideal element: Delta(e) = e(x)1 + 1(x)e
    families = {"commutator": [{(0, 1): 1, (1, 0): -1}], "nucleus": [{}, {0: 1}]}
    monkeypatch.setattr(hopf, "relator_families", lambda system, cap: families)
    assert cli.main(["verify", data_path("s2.json"), "--suite", "hopf", "-N", "2"]) == 1
    err = capsys.readouterr().err
    assert ("certificate failure: a defining relator is not a coideal element: "
            "nucleus relator 1") in err
    assert "Traceback" not in err


def test_pbw_size_guard_exit_3():
    assert cli.main(["--max-monomials", "10", "pbw", data_path("s2.json"),
                     "-N", "6"]) == 3


@pytest.mark.parametrize("guard, argv", [
    ("-5", ["pbw", data_path("s2.json"), "-N", "2"]),
    ("0", ["verify", data_path("s2.json"), "--suite", "axioms"]),
], ids=["negative", "zero"])
def test_size_guard_below_one_exit_2(guard, argv, capsys):
    assert cli.main(["--max-monomials", guard] + argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --max-monomials must be at least 1, got {guard}\n"


def test_pbw_on_a_wide_system_exits_3(tmp_path, capsys):
    # 200 generators: the guard rejects the degree-3 stratum (16 million
    # trees) from its size alone
    doc = {"kind": "lts", "dim": 200, "basis": [f"a{i}" for i in range(200)],
           "entries": []}
    assert cli.main(["pbw", write(tmp_path, doc)]) == 3
    assert capsys.readouterr().err.startswith("budget error: free monomial table")


def test_mul(capsys):
    assert cli.main(["mul", data_path("s2.json"), "-N", "3", "e", "f"]) == 0
    assert capsys.readouterr().out.strip() == "e*f"
    assert cli.main(["mul", data_path("s2.json"), "-N", "3",
                     "e*(f*e) - (e*f)*e", "1"]) == 0
    assert capsys.readouterr().out.strip() == "e"


def test_mul_coefficient_one_over_one(capsys):
    assert cli.main(["mul", data_path("s2.json"), "-N", "3", "--", "1/1", "e"]) == 0
    assert capsys.readouterr().out.strip() == "e"


def test_mul_budget_exit_3():
    assert cli.main(["mul", data_path("s2.json"), "-N", "3", "e^2", "f^2"]) == 3


def test_mul_over_the_cap_in_free_degree_only(capsys):
    # ef = fe in U(T), so the free degree 7 is never reached in normal form
    argv = ["mul", data_path("s2.json"), "-N", "6", "--", "((e*f - f*e)*e)*e^4", "1"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "0\n"


def test_mul_bad_expression_exit_2():
    assert cli.main(["mul", data_path("s2.json"), "-N", "3", "e*f*e", "1"]) == 2
    assert cli.main(["mul", data_path("s2.json"), "-N", "3", "q", "1"]) == 2


def test_ideal(capsys):
    assert cli.main(["ideal", data_path("s2.json"), "-N", "4",
                     "--right", "e"]) == 0
    out = capsys.readouterr().out
    assert "contains 1: False" in out
    assert "intersection with T: dim 2" in out


def test_ideal_no_generators_exit_2():
    assert cli.main(["ideal", data_path("s2.json"), "-N", "3"]) == 2
    assert cli.main(["ideal", data_path("s2.json"), "-N", "3",
                     "--right", "e - e"]) == 2


def test_verify_axioms(capsys):
    assert cli.main(["verify", data_path("s2.json"), "--suite", "axioms"]) == 0
    out = capsys.readouterr().out
    assert "[pass] axiom1_alternating" in out
    assert "suite axioms: pass" in out


def test_verify_fail_exit_1(capsys):
    assert cli.main(["verify", data_path("abelian3.json"),
                     "--suite", "endo"]) == 1


def test_verify_json_schema(capsys):
    assert cli.main(["verify", data_path("s2.json"), "--suite", "axioms",
                     "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["suite"] == "axioms"
    assert doc["status"] == "pass"
    assert doc["checks"] == 3
    assert "timing_seconds" not in doc


def test_verify_json_deterministic(capsys):
    argv = ["verify", data_path("sl2_lts.json"), "-N", "3",
            "--suite", "pbw", "--json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_lie_input_converted(capsys):
    assert cli.main(["endo", data_path("sl2.json")]) == 0
    assert "dim 9, expected 9" in capsys.readouterr().out


SQUARED_SUMS = "(e+f)"
for _ in range(6):
    SQUARED_SUMS = f"({SQUARED_SUMS}*{SQUARED_SUMS})"


@pytest.mark.parametrize("argv, code", [
    (["mul", "-N", "3", "e^3000", "e"], 3),
    (["mul", "-N", "3", "e^200000", "e"], 3),
    (["mul", "-N", "3", "(" * 3000 + "e" + ")" * 3000, "e"], 2),
    (["ideal", "-N", "3", "--right", "e^5000"], 3),
    # each squaring doubles the degree and squares the number of terms
    (["mul", "-N", "3", SQUARED_SUMS, "e"], 3),
], ids=["power", "huge_power", "deep_nesting", "ideal_power", "squared_sums"])
def test_oversized_expression_exits_without_traceback(capsys, argv, code):
    command, *rest = argv
    assert cli.main([command, data_path("s2.json"), *rest]) == code
    err = capsys.readouterr().err
    assert err.startswith("budget error:" if code == 3 else "error:")
    assert "Traceback" not in err


def test_nesting_bound_admits_what_the_cap_needs(capsys, s2):
    deep = "(" * freealg.MAX_NESTING + "e" + ")" * freealg.MAX_NESTING
    assert cli.main(["mul", data_path("s2.json"), "-N", "3", deep, "f"]) == 0
    assert capsys.readouterr().out.strip() == "e*f"
    with pytest.raises(freealg.ExprSyntaxError, match="nested deeper than"):
        freealg.parse("(" + deep + ")", EnvelopingAlgebra(s2, 3))


_EXPR_ATOMS = st.sampled_from(["e", "f", "1", "0", "2/3", "e^2", "f^0", "e^99999"])
_EXPRS = st.one_of(
    st.text(alphabet="ef0123^*+-/() x#é\t", max_size=30),
    st.integers(0, 10 ** 6).map(lambda n: f"e^{n}"),
    st.integers(0, 400).map(lambda k: "(" * k + "f" + ")" * k),
    st.recursive(_EXPR_ATOMS, lambda inner: st.tuples(
        inner, st.sampled_from("*+-"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        max_leaves=12),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(x=_EXPRS, y=_EXPRS)
def test_mul_fuzz_keeps_the_exit_code_contract(capsys, x, y):
    try:
        code = cli.main(["mul", data_path("s2.json"), "-N", "3", "--", x, y])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


def test_invalid_utf8_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"kind": "lts\xff"}')
    with pytest.raises(LoadError, match="invalid UTF-8"):
        load_system(str(path))
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid UTF-8")


# -- loader fuzz: any document keeps the exit-code contract --------------------

_BASE_DOCS = [json.loads((resources.files("triplex") / "data" / name).read_text())
              for name in ("s2.json", "sl2.json", "abelian3.json", "s2_plus_s2.json")]
# wrong types, booleans and out-of-range numbers for any field
_WRONG = st.one_of(st.none(), st.booleans(), st.integers(-2, 9), st.floats(),
                   st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=4),
                   st.dictionaries(st.sampled_from(["0", "1", "x"]), st.integers(0, 2),
                                   max_size=2))
_RATIONAL_TEXTS = st.sampled_from(["1", "-2", "1/2", "-3/4", "0", "1/0", "1/-2", "x",
                                   "", " 5 ", "1/2/3", "1e3", "0x10", "9" * 5000])
_KEYS = st.one_of(st.sampled_from(["0", "1", "2", "-1", "7", "x", "1.5", " 0"]),
                  st.text(max_size=3))


@st.composite
def _documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_BASE_DOCS)))
    for _ in range(draw(st.integers(1, 2))):
        part = draw(st.sampled_from(["field", "label", "entry", "args", "args",
                                     "value", "value", "value"]))
        basis, entries = doc.get("basis"), doc.get("entries")
        if part == "field":
            doc[draw(st.sampled_from(["kind", "dim", "basis", "entries"]))] = draw(_WRONG)
        elif part == "label":
            if isinstance(basis, list) and basis:
                # a wrong value, or a duplicate of an existing label
                basis[draw(st.integers(0, len(basis) - 1))] = draw(
                    st.one_of(_WRONG, st.sampled_from(basis)))
        elif isinstance(entries, list) and entries:
            i = draw(st.integers(0, len(entries) - 1))
            entry = entries[i]
            if part == "entry":
                entries[i] = draw(st.one_of(_WRONG, st.just(copy.deepcopy(entries[0]))))
            elif not isinstance(entry, dict):
                pass
            elif part == "args" and isinstance(entry.get("args"), list) and entry["args"]:
                entry["args"][draw(st.integers(0, len(entry["args"]) - 1))] = draw(_WRONG)
            elif part == "value" and isinstance(entry.get("value"), dict) and entry["value"]:
                value = entry["value"]
                key = draw(st.sampled_from(sorted(value)))
                text = value.pop(key)
                value[draw(st.one_of(st.just(key), _KEYS))] = draw(
                    st.one_of(st.just(text), _RATIONAL_TEXTS, _WRONG))
            else:
                entry[draw(st.sampled_from(["args", "value"]))] = draw(_WRONG)
    return json.dumps(doc)


# nesting deeper than the JSON decoder recurses, written as raw text
_DEEP = st.builds(lambda head, k: head + "[" * k + "]" * k + ("}" if head else ""),
                  st.sampled_from(["", '{"kind": "lts", "dim": 1, "basis": ["a"], '
                                       '"entries": ']),
                  st.sampled_from([10, 990, 5_000, 100_000]))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(_documents(), _DEEP), command=st.sampled_from(["check", "simple"]))
def test_load_fuzz_keeps_the_exit_code_contract(tmp_path, capsys, text, command):
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    assert cli.main([command, str(path)]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


# -- large rescalings: valid systems with big numbers keep the contract --------

@st.composite
def _rescaled_systems(draw):
    """A bundled system in the basis b'_i = c_i b_i, each c_i a rational whose
    numerator and denominator have up to 1, 40 or 400 digits (40 for
    sl3_sym, whose mainthm takes about a minute at 400): a structure
    constant becomes the old one times the c's of its arguments over c_l."""
    name = draw(st.sampled_from(["s2.json", "sl2.json", "sl2_lts.json",
                                 "s2_plus_s2.json", "sl3_sym.json"]))
    doc = json.loads(open(data_path(name)).read())
    digits = [1, 40] if name == "sl3_sym.json" else [1, 40, 400]
    big = st.integers(1, 10 ** draw(st.sampled_from(digits)))
    scale = [Fraction(draw(big) * draw(st.sampled_from([1, -1])), draw(big))
             for _ in range(doc["dim"])]
    for entry in doc["entries"]:
        factor = prod(scale[i] for i in entry["args"])
        entry["value"] = {l: str(Fraction(v) * factor / scale[int(l)])
                          for l, v in entry["value"].items()}
    return doc


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_rescaled_systems(), cap=st.integers(2, 4), data=st.data())
def test_large_rescalings_keep_the_exit_code_contract(tmp_path, capsys, doc, cap, data):
    # exact numbers of any size: pass, fail or a guard, never a usage error
    # or a traceback
    path = tmp_path / "rescaled.json"
    path.write_text(json.dumps(doc))
    a, b = (data.draw(st.sampled_from(doc["basis"])) for _ in range(2))
    n = ["-N", str(cap)]
    for argv in (["check"], ["pbw", *n], ["mul", *n, "--", f"{a}*{b}", a],
                 ["ideal", *n, "--right", a], ["verify", "--suite", "all", "--json", *n]):
        command, *rest = argv
        assert cli.main([command, str(path), *rest]) in (0, 1, 3), argv
        assert "Traceback" not in capsys.readouterr().err
