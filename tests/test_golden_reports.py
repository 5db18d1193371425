"""Golden digests of machine reports and CLI text output.

Each entry is (exit code, first 16 hex digits of the sha256 of stdout).
``verify --json -N 4`` is pinned for every suite on all six bundled
systems at seed 0; ``SEEDED`` pins it for the sl3_sym ``hopf`` suite at
seeds 0 and 1 (the ``s_map_automorphism`` samples depend on the seed) and
for the s2_plus_s2 ``mainthm`` suite at seed 1 (other closure samples);
``check``, ``embed``,
``endo``, ``simple`` and ``pbw`` (at their default cap) are pinned on all
six bundled systems.  ``NORMAL_FORMS`` pins ``Element.terms()`` and
``format()`` of the normal form of every free monomial and of every
product of two basis monomials, at s2 N=6 and sl3_sym N=4, as (lines,
digest).  ``REDUCE_TREE`` pins the tree and the exact ``(index,
Fraction)`` coefficients of ``reduce_tree`` on every free monomial of
sl3_sym N=4, where normal forms have denominator 2.  A deliberate change of output re-records the tables:
``PYTHONPATH=src python tests/test_golden_reports.py`` prints them.
"""

import contextlib
import hashlib
import io
import json
from importlib import resources

import pytest

from triplex import cli, suites
from triplex.envelope import EnvelopingAlgebra

SYSTEMS = ("abelian3", "s2", "s2_plus_s2", "sl2", "sl2_lts", "sl3_sym")
COMMANDS = ("check", "embed", "endo", "simple", "pbw")

VERIFY = {
    ("abelian3", "axioms"): (0, "08603629d36cad14"),
    ("abelian3", "embedding"): (0, "7ce24222b6ae8c2b"),
    ("abelian3", "endo"): (1, "aaaac4514b353945"),
    ("abelian3", "expansion"): (0, "9220c001b72e66bb"),
    ("abelian3", "hopf"): (0, "63ab75fa9c6eef08"),
    ("abelian3", "jordan"): (0, "1a79bdec7d847be3"),
    ("abelian3", "lemma"): (0, "3fc7cd231e6b8612"),
    ("abelian3", "mainthm"): (1, "15e67b9d107e780b"),
    ("abelian3", "pbw"): (0, "34372767f408c090"),
    ("abelian3", "s2"): (1, "20c67f208a462087"),
    ("abelian3", "simple"): (0, "1e71382f92616d08"),
    ("s2", "axioms"): (0, "08603629d36cad14"),
    ("s2", "embedding"): (0, "cf5fcc3e6821947c"),
    ("s2", "endo"): (0, "55f5c277634a9665"),
    ("s2", "expansion"): (0, "0a09eb5f6dd0bb2c"),
    ("s2", "hopf"): (0, "58a3ae3b0ebc3bea"),
    ("s2", "jordan"): (0, "268e3fecceb30e3b"),
    ("s2", "lemma"): (0, "8022ddc70d53bf5a"),
    ("s2", "mainthm"): (0, "e7bf9d90a209b08c"),
    ("s2", "pbw"): (0, "d9f67649175c8d1c"),
    ("s2", "s2"): (0, "f5f7259c1674d723"),
    ("s2", "simple"): (0, "3acf6873cd1986cd"),
    ("s2_plus_s2", "axioms"): (0, "08603629d36cad14"),
    ("s2_plus_s2", "embedding"): (0, "315cfa897df2c3da"),
    ("s2_plus_s2", "endo"): (1, "a643ef3081a4111c"),
    ("s2_plus_s2", "expansion"): (0, "4e2a6924569f1b5c"),
    ("s2_plus_s2", "hopf"): (0, "36fa772f52057188"),
    ("s2_plus_s2", "jordan"): (0, "586be4a598c35714"),
    ("s2_plus_s2", "lemma"): (0, "8e0b188976e19b75"),
    ("s2_plus_s2", "mainthm"): (0, "6fc784a839bebea9"),
    ("s2_plus_s2", "pbw"): (0, "8aa51683a289880f"),
    ("s2_plus_s2", "s2"): (1, "20c67f208a462087"),
    ("s2_plus_s2", "simple"): (0, "d86070f488cf0639"),
    ("sl2", "axioms"): (0, "08603629d36cad14"),
    ("sl2", "embedding"): (0, "57b9e58a5c5418dd"),
    ("sl2", "endo"): (0, "45744b3abfd42b92"),
    ("sl2", "expansion"): (0, "9220c001b72e66bb"),
    ("sl2", "hopf"): (0, "63ab75fa9c6eef08"),
    ("sl2", "jordan"): (0, "1a79bdec7d847be3"),
    ("sl2", "lemma"): (0, "3fc7cd231e6b8612"),
    ("sl2", "mainthm"): (0, "c4ed88b931596196"),
    ("sl2", "pbw"): (0, "34372767f408c090"),
    ("sl2", "s2"): (1, "20c67f208a462087"),
    ("sl2", "simple"): (0, "49d22221fcc7b791"),
    ("sl2_lts", "axioms"): (0, "08603629d36cad14"),
    ("sl2_lts", "embedding"): (0, "57b9e58a5c5418dd"),
    ("sl2_lts", "endo"): (0, "45744b3abfd42b92"),
    ("sl2_lts", "expansion"): (0, "9220c001b72e66bb"),
    ("sl2_lts", "hopf"): (0, "63ab75fa9c6eef08"),
    ("sl2_lts", "jordan"): (0, "1a79bdec7d847be3"),
    ("sl2_lts", "lemma"): (0, "3fc7cd231e6b8612"),
    ("sl2_lts", "mainthm"): (0, "c4ed88b931596196"),
    ("sl2_lts", "pbw"): (0, "34372767f408c090"),
    ("sl2_lts", "s2"): (1, "20c67f208a462087"),
    ("sl2_lts", "simple"): (0, "49d22221fcc7b791"),
    ("sl3_sym", "axioms"): (0, "08603629d36cad14"),
    ("sl3_sym", "embedding"): (0, "759ccac14ed7c908"),
    ("sl3_sym", "endo"): (0, "88d40cce707de789"),
    ("sl3_sym", "expansion"): (0, "d9eab7ecd970a331"),
    ("sl3_sym", "hopf"): (0, "77763ca8d429001d"),
    ("sl3_sym", "jordan"): (0, "11fc27619ddbdf78"),
    ("sl3_sym", "lemma"): (0, "0ec58b0f3cc2c4d3"),
    ("sl3_sym", "mainthm"): (0, "a601acef5132fbda"),
    ("sl3_sym", "pbw"): (0, "7944e8db49efb1e6"),
    ("sl3_sym", "s2"): (1, "20c67f208a462087"),
    ("sl3_sym", "simple"): (0, "fe57ce88d632a320"),
}

SEEDED = {
    ("sl3_sym", "hopf", 0): (0, "77763ca8d429001d"),
    ("sl3_sym", "hopf", 1): (0, "7c1c35cb3a1e674e"),
    ("s2_plus_s2", "mainthm", 1): (0, "6fc784a839bebea9"),
}

TEXT = {
    ("abelian3", "check"): (0, "f89396446aaab389"),
    ("abelian3", "embed"): (0, "37adf1fc131ac703"),
    ("abelian3", "endo"): (1, "41ff8c52a3d3c372"),
    ("abelian3", "pbw"): (0, "63c938ed659034d3"),
    ("abelian3", "simple"): (1, "51310aa3216020b1"),
    ("s2", "check"): (0, "f89396446aaab389"),
    ("s2", "embed"): (0, "77b30c9379ae388a"),
    ("s2", "endo"): (0, "9dec603204c55ec5"),
    ("s2", "pbw"): (0, "347cb24cc616636b"),
    ("s2", "simple"): (0, "2f7d942d1d6a3f53"),
    ("s2_plus_s2", "check"): (0, "f89396446aaab389"),
    ("s2_plus_s2", "embed"): (0, "8e06c92b787ab891"),
    ("s2_plus_s2", "endo"): (1, "bfc601ab7bf78301"),
    ("s2_plus_s2", "pbw"): (0, "30f123bb99fce2ba"),
    ("s2_plus_s2", "simple"): (1, "76c7dd42c45a0cac"),
    ("sl2", "check"): (0, "f57f36a4da59fd0a"),
    ("sl2", "embed"): (0, "73dc52d90f33c0f9"),
    ("sl2", "endo"): (0, "b6952df2196da178"),
    ("sl2", "pbw"): (0, "63c938ed659034d3"),
    ("sl2", "simple"): (0, "2b75e5e6552c414b"),
    ("sl2_lts", "check"): (0, "f89396446aaab389"),
    ("sl2_lts", "embed"): (0, "73dc52d90f33c0f9"),
    ("sl2_lts", "endo"): (0, "b6952df2196da178"),
    ("sl2_lts", "pbw"): (0, "63c938ed659034d3"),
    ("sl2_lts", "simple"): (0, "2b75e5e6552c414b"),
    ("sl3_sym", "check"): (0, "f89396446aaab389"),
    ("sl3_sym", "embed"): (0, "621867f9690bb27c"),
    ("sl3_sym", "endo"): (0, "a5d65e3337e54883"),
    ("sl3_sym", "pbw"): (0, "f9438bfe224b94cd"),
    ("sl3_sym", "simple"): (0, "86aba3be645d5f76"),
}


NORMAL_FORMS = {
    ("s2", 6): (3449, "811ce968c00666f6"),
    ("sl3_sym", 4): (4407, "7eb58d46e29650e7"),
}

REDUCE_TREE = {
    ("sl3_sym", 4): (3406, "48b726ae8f2d80f1"),
}


def run(argv):
    """Exit code and stdout digest of one CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def data_path(system):
    return str(resources.files("triplex") / "data" / f"{system}.json")


def verify_argv(system, suite):
    return ["verify", data_path(system), "--suite", suite, "--json", "-N", "4"]


def seeded_argv(system, suite, seed):
    return verify_argv(system, suite) + ["--seed", str(seed)]


def text_argv(system, command):
    return [command, data_path(system)]


@pytest.mark.parametrize("system, suite", sorted(VERIFY),
                         ids=[f"{s}-{n}" for s, n in sorted(VERIFY)])
def test_verify_json_report(system, suite):
    assert run(verify_argv(system, suite)) == VERIFY[system, suite]


@pytest.mark.parametrize("system, suite, seed", sorted(SEEDED),
                         ids=[f"{s}-{n}-seed{k}" for s, n, k in sorted(SEEDED)])
def test_seeded_verify_json_report(system, suite, seed):
    assert run(seeded_argv(system, suite, seed)) == SEEDED[system, suite, seed]


@pytest.mark.parametrize("system, command", sorted(TEXT),
                         ids=[f"{s}-{c}" for s, c in sorted(TEXT)])
def test_command_text_output(system, command):
    assert run(text_argv(system, command)) == TEXT[system, command]


def normal_form_text(system, cap):
    """terms() and format() of every table monomial's normal form, then of
    every product of two basis monomials within the cap."""
    alg = EnvelopingAlgebra(cli._as_lts(cli.load_system(data_path(system))), cap)
    xs = [alg.reduce_tree(t) for t in alg.table.trees]
    xs += [alg.monomial(vx) * alg.monomial(vy) for vx in alg.exponents
           for vy in alg.monomials_upto(cap - sum(vx))]
    return [f"{x.terms()} {x.format()}" for x in xs]


def normal_form_digest(system, cap):
    lines = normal_form_text(system, cap)
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("system, cap", sorted(NORMAL_FORMS),
                         ids=[f"{s}-N{c}" for s, c in sorted(NORMAL_FORMS)])
def test_normal_form_terms_and_format(system, cap):
    assert normal_form_digest(system, cap) == NORMAL_FORMS[system, cap]


def reduce_tree_digest(system, cap):
    """One line per table monomial: its tree and the sorted coefficient
    items of its normal form (``repr`` shows each value's type)."""
    alg = EnvelopingAlgebra(cli._as_lts(cli.load_system(data_path(system))), cap)
    lines = [f"{t!r} {sorted(alg.reduce_tree(t).coeffs.items())!r}" for t in alg.table.trees]
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("system, cap", sorted(REDUCE_TREE),
                         ids=[f"{s}-N{c}" for s, c in sorted(REDUCE_TREE)])
def test_reduce_tree_coefficients(system, cap):
    assert reduce_tree_digest(system, cap) == REDUCE_TREE[system, cap]


def test_tables_cover_every_suite_and_command():
    names = [n for n in suites.SUITE_NAMES if n != "all"]
    assert set(VERIFY) == {(s, n) for s in SYSTEMS for n in names}
    assert set(TEXT) == {(s, c) for s in SYSTEMS for c in COMMANDS}


if __name__ == "__main__":
    for title, table, argv in (("VERIFY", VERIFY, verify_argv),
                               ("SEEDED", SEEDED, seeded_argv),
                               ("TEXT", TEXT, text_argv)):
        print(f"{title} = {{")
        for key in sorted(table):
            code, digest = run(argv(*key))
            print(f'    ({", ".join(map(json.dumps, key))}): ({code}, "{digest}"),')
        print("}")
    print("NORMAL_FORMS = {")
    for key in sorted(NORMAL_FORMS):
        lines, digest = normal_form_digest(*key)
        print(f'    ("{key[0]}", {key[1]}): ({lines}, "{digest}"),')
    print("}")
    print("REDUCE_TREE = {")
    for key in sorted(REDUCE_TREE):
        lines, digest = reduce_tree_digest(*key)
        print(f'    ("{key[0]}", {key[1]}): ({lines}, "{digest}"),')
    print("}")
