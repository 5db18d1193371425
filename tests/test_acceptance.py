"""Acceptance gate: twelve end-to-end criteria, exact arithmetic throughout.

Each test prints a single pass/fail line directly to the terminal and
asserts its wall-time budget.
"""

import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

import pytest

import test_envelope
from triplex import catalog, cli, suites
from triplex.envelope import EnvelopingAlgebra
from triplex.hopf import primitives
from triplex.lts import (endo_theorem_check, lie_closure, r_generators,
                         trace_identity_check)

F = Fraction


def data_path(name):
    return str(resources.files("triplex") / "data" / name)


@pytest.fixture
def report(capsys):
    """Emit one pass/fail line per criterion, visible despite capture."""
    lines = []

    def emit(criterion, ok):
        lines.append((criterion, ok))

    yield emit
    with capsys.disabled():
        for criterion, ok in lines:
            print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert all(ok for _, ok in lines)


def timed(limit):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds {limit}s"

    return check


def test_criterion_01_base_system_fidelity(report, capsys):
    done = timed(1.0)
    ok = cli.main(["check", data_path("s2.json")]) == 0
    capsys.readouterr()
    t = catalog.s2()
    # operators as sparse columns: column x holds the image of b_x
    e, f = {0: F(1)}, {1: F(1)}
    ok = ok and t.r_op(e, e) == {1: {0: F(-2)}}
    ok = ok and t.r_op(e, f) == {1: {1: F(2)}}
    ok = ok and t.r_op(f, e) == {0: {0: F(2)}}
    ok = ok and t.r_op(f, f) == {0: {1: F(-2)}}
    done()
    report("criterion 1: axioms and right-slot operator matrices", ok)


def test_criterion_02_full_operator_closure(report, s2, sl2_lts):
    done = timed(60.0)
    ok = lie_closure(r_generators(s2), 2)[0].dim == 4
    ok = ok and lie_closure(r_generators(sl2_lts), 3)[0].dim == 9
    ok = ok and lie_closure(r_generators(catalog.sl3_transpose_lts()), 5)[0].dim == 25
    ok = ok and not endo_theorem_check(catalog.abelian(3))
    ok = ok and not endo_theorem_check(catalog.s2_plus_s2())
    done()
    report("criterion 2: operator Lie closure is full End(T) iff expected", ok)


def test_criterion_03_trace_identity(report, s2, sl2_lts):
    done = timed(5.0)
    ok = all(trace_identity_check(t).ok
             for t in (s2, sl2_lts, catalog.abelian(3),
                       catalog.sl3_transpose_lts(), catalog.s2_plus_s2()))
    done()
    report("criterion 3: operator trace matches the Killing form", ok)


def test_criterion_04_normal_form_certificate(report, s2, sl2_lts):
    done_a = timed(600.0)
    alg_a = EnvelopingAlgebra(s2, 6)
    ok = alg_a.degree_dims == [1, 3, 6, 10, 15, 21, 28]
    done_a()
    done_b = timed(120.0)
    alg_b = EnvelopingAlgebra(sl2_lts, 4)
    ok = ok and alg_b.degree_dims == [1, 4, 10, 20, 35]
    done_b()
    report("criterion 4: certified normal-form dimensions", ok)


def test_criterion_05_dense_oracle(report, s2):
    done = timed(10.0)
    test_envelope.test_dense_oracle_matches_package(s2)
    done()
    report("criterion 5: independent dense oracle agrees on all "
           "degree-3 normal forms", True)


def test_criterion_06_operator_identities(report, s2_n5):
    done = timed(300.0)
    alg = s2_n5
    ok = True
    for a in range(2):
        ga = alg.generator(a)
        for v in alg.exponents:
            if sum(v) <= alg.cap - 2:
                ok = ok and alg.check_jordan(ga, alg.monomial(v))
    for ai in range(2):
        for bi in range(2):
            for vx in alg.exponents:
                for vy in alg.exponents:
                    if sum(vx) + sum(vy) + 2 > alg.cap:
                        continue
                    ok = ok and alg.check_d_derivation(ai, bi, alg.monomial(vx),
                                                       alg.monomial(vy))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                gi, gj, gk = (alg.generator(i), alg.generator(j),
                              alg.generator(k))
                lhs = 2 * alg.associator(gi, gj, gk)
                rhs = -1 * alg.inject(alg.system.constants.get((i, j, k), {}))
                ok = ok and lhs == rhs
    for c in range(2):
        for i in range(1, 3):
            for j in range(1, 3):
                for v in alg.exponents:
                    if i + j + sum(v) > alg.cap:
                        continue
                    ok = ok and alg.associator(alg.power(c, i), alg.power(c, j),
                                               alg.monomial(v)).is_zero()
    done()
    report("criterion 6: operator, derivation, coherence and "
           "power-nucleus identities", ok)


def test_criterion_07_derivation_residue(report, s2_n6, sl2_n4):
    done = timed(600.0)
    ok = True
    for c in range(2):
        for a in range(2):
            for b in range(2):
                for n in range(0, 5):
                    ok = ok and s2_n6.check_lemma_derivation(c, a, b, n)
    for c in range(3):
        for a in range(3):
            for b in range(3):
                for n in range(0, 3):
                    ok = ok and sl2_n4.check_lemma_derivation(c, a, b, n)
    done()
    report("criterion 7: associator residues stay two filtration "
           "levels down", ok)


def test_criterion_08_associator_expansion(report, s2_n5):
    done = timed(300.0)
    ok = all(s2_n5.check_assoc_expansion(c, a, b, n)
             for c in range(2) for a in range(2) for b in range(2)
             for n in range(0, 4))
    done()
    report("criterion 8: closed-form associator expansion", ok)


def test_criterion_09_closed_form_power_identities(report, s2_n6):
    done = timed(120.0)
    results = suites.s2_identity_suite(s2_n6, 3)
    ok = len(results) == 4 and all(p and e for _, p, e in results)
    done()
    report("criterion 9: closed-form power identities of the "
           "two-dimensional system", ok)


def test_criterion_10_bialgebra_suite(report, s2, s2_n6):
    done = timed(600.0)
    rep = suites.suite_hopf(s2, lambda cap: s2_n6, 6, 0)
    ok = rep.ok
    ok = ok and primitives(s2_n6, 4).dim == 2
    done()
    report("criterion 10: comultiplication laws, divisions and "
           "primitive elements", ok)


def test_criterion_11_right_ideal_property(report, s2, s2_n6):
    done = timed(900.0)
    rep = suites.suite_mainthm(s2, lambda cap: s2_n6, 6, 0)
    ok = rep.ok
    ic = s2_n6.right_ideal_closure([s2_n6.generator(0)])
    ok = ok and not ic.contains_one and ic.meets_t_dim == 2
    done()
    report("criterion 11: right ideals of augmentation elements stay "
           "proper; counit-nonzero elements generate everything", ok)


def test_criterion_12_deterministic_reports(report):
    argv = [sys.executable, "-m", "triplex.cli", "verify",
            data_path("sl2_lts.json"), "-N", "4", "--suite", "all", "--json"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    report("criterion 12: byte-identical machine reports across runs", ok)
