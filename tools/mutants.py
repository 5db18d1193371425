"""Re-run the register of hand-made mutants: each must fail the tests named
for it.

Run from anywhere (it is not part of the tier-1 suite):

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only these

Each mutant is (name, file under ``src/triplex``, exact old text, new text,
tests expected to fail).  The script first runs every named test on an
unchanged copy of ``src`` and ``tests``, which must pass.  Then, for each
mutant, it copies them to a temporary directory, replaces the old text
(which must occur exactly once) and runs the named tests on that copy.
It exits 1 if a mutant survives (its tests pass), if its old text no
longer matches, or if the unchanged copy fails; a refactor that makes a
mutant inapplicable must replace it or retire it with a reason.

``EQUIVALENT`` lists mutants that change no output, with the reason; they
are not run, but their old text must still match.  ``RETIRED`` lists
mutants whose code is gone, with the reason; they are neither run nor
matched.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

IDENTITY_TESTS = "tests/test_identity_rows.py"
CLOSURE_TESTS = "tests/test_closure_table.py"
ACCUMULATOR_TESTS = "tests/test_row_accumulator.py"
NUCLEUS_TESTS = "tests/test_relation_span.py::test_representative_relators_match_all_tree_relators"
ECHELON_TESTS = "tests/test_echelon_kernel.py"
GOLDEN_TESTS = "tests/test_golden_reports.py"
LTS_SPARSE = "tests/test_lts_sparse.py"
# the derivation verdict against the dense reference and a per-operator scan
# written in the tests, not against another caller of lts._derivation_pass
DERIVATION_TESTS = [f"{LTS_SPARSE}::test_check_axioms_random_matches_dense",
                    f"{LTS_SPARSE}::test_derivation_failure_named_by_the_scan",
                    f"{LTS_SPARSE}::test_derivation_verdict_matches_per_operator_scan"]
INNER_DERIVATION_TESTS = [f"{LTS_SPARSE}::test_inner_derivations_fail_iff_derivation_fails"]
QUOTIENT_TESTS = "tests/test_relation_span.py"
NF_READ_TESTS = "tests/test_nf_reads.py"
SAME_ROW_TESTS = (f"{ACCUMULATOR_TESTS}::"
                  "test_same_row_over_one_denominator_matches_cross_multiplication")
UNIT_PRODUCT_TESTS = f"{ACCUMULATOR_TESTS}::test_products_by_the_unit_match_the_table_path"
SUITE_FAILURE_TESTS = (f"{IDENTITY_TESTS}::"
                       "test_identity_suites_name_their_failures_on_a_corrupted_table")
BRANCH_TESTS = "tests/test_hopf.py::test_basis_operand_branch_matches_the_general_path"
DIGIT_TESTS = ("tests/test_cli.py::"
               "test_numbers_over_the_interpreter_digit_limit_load_and_print")
HOPF_FAILURE_TESTS = ("tests/test_hopf.py::"
                      "test_the_hopf_suite_names_its_failures_on_a_corrupted_table")
# the lts layer on systems whose constants, inner derivations and Killing
# form carry denominators, against the dense reference
# (the fixed rational basis first: it fails without a slow Hypothesis shrink)
RATIONAL_REBASE_TESTS = [f"{LTS_SPARSE}::test_lts_layer_with_denominators_matches_dense",
                         f"{LTS_SPARSE}::test_lts_layer_rational_rebase_matches_dense",
                         f"{LTS_SPARSE}::test_sl3_sym_rational_rebase_matches_dense"]
RATIONAL_TAU_TESTS = [f"{LTS_SPARSE}::test_lts_layer_with_denominators_matches_dense",
                      f"{LTS_SPARSE}::test_tau_helpers_with_denominators_match_dense"]
LTS_FAILURES = "tests/test_lts_failures.py"
# the one failure record of the lemma and expansion suites (_exhaustive_triples)
SUITE_FAILURE_RECORD = ("                rep.add(failure, {\"c\": c, \"a\": a, \"b\": b, \"n\": n},"
                        " False)")

MUTANTS = [
    ("same-row-always-true", "exactlin.py",
     "    if dr == ds:\n"
     "        return {k: a for k, a in wr.items() if a} == {k: a for k, a in ws.items() if a}\n"
     "    return all(wr.get(k, 0) * ds == ws.get(k, 0) * dr for k in wr.keys() | ws.keys())",
     "    return True",
     [f"{IDENTITY_TESTS}::test_row_checks_match_element_checks_on_a_corrupted_table",
      SAME_ROW_TESTS]),
    ("same-row-equal-denominators-keeps-zeros", "exactlin.py",
     "        return {k: a for k, a in wr.items() if a} == {k: a for k, a in ws.items() if a}",
     "        return wr == ws",
     [SAME_ROW_TESTS]),
    # products by the unit add the row itself, with no table read
    ("mul-basis-unit-keeps-zero-entries", "envelope.py",
     "            for i, a in xs.items():\n"
     "                if a:\n"
     "                    if dx != acc[0]:",
     "            for i, a in xs.items():\n"
     "                if True:\n"
     "                    if dx != acc[0]:",
     [UNIT_PRODUCT_TESTS]),
    ("mul-basis-unit-ignores-scale", "envelope.py",
     "                    w[i] = w.get(i, 0) + c * a * (acc[0] // dx)",
     "                    w[i] = w.get(i, 0) + a * (acc[0] // dx)",
     [UNIT_PRODUCT_TESTS]),
    ("mul-basis-unit-without-rescale", "envelope.py",
     "                    if dx != acc[0]:\n"
     "                        add_row(acc, 0, dx, {})\n",
     "",
     [UNIT_PRODUCT_TESTS]),
    ("lemma-without-n-term", "identities.py",
     "        return self.mul_basis(self._power_index(c, n - 1), inner, into=lhs, c=-n)",
     "        return lhs",
     [f"{IDENTITY_TESTS}::test_row_checks_match_element_checks"]),
    ("lemma-degree-with-zero-entries", "identities.py",
     "        return all(deg[k] <= n - 2 for k, v in w.items() if v)",
     "        return all(deg[k] <= n - 2 for k in w)",
     [f"{IDENTITY_TESTS}::test_lemma_degree_ignores_cancelled_top_degree_entries"]),
    ("right-products-by-generators-only", "envelope.py",
     "            for m in range(1, self.count_upto(self.cap - deg[nf[min(row)]])):",
     "            for m in range(1, min(self.d + 1,"
     " self.count_upto(self.cap - deg[nf[min(row)]]))):",
     [f"{CLOSURE_TESTS}::test_mainthm_generator_closures_meet_the_ideal_they_generate"]),
    # the T-ideal exit of the right ideal closure
    ("t-ideal-without-r-closure", "envelope.py",
     "            self._r_ops = list(integer_operators(self.system).values()) if N >= 3 and all(",
     "            self._r_ops = [] if N >= 3 and all(",
     [f"{CLOSURE_TESTS}::test_closure_stops_at_the_augmentation_ceiling",
      f"{CLOSURE_TESTS}::test_counit_nonzero_generator_exits_once_its_products_generate_t"]),
    ("counit-nonzero-generator-in-the-t-rows", "envelope.py",
     "        for vec in chain((v for v, counit in vecs if not counit),\n"
     "                         self._right_products(chain(kept, queue))):\n"
     "            if (row := ech._insert(vec)) is None:\n"
     "                continue\n"
     "            queue.append(row)\n"
     "            if t_ech is not None and min(row) >= unit - d and generated_ideal(\n"
     "                    t_ech, [{d - nf[c]: a for c, a in row.items()}],",
     "        for vec in chain((v for v, counit in vecs),\n"
     "                         self._right_products(chain(kept, queue))):\n"
     "            if (row := ech._insert(vec)) is None:\n"
     "                continue\n"
     "            queue.append(row)\n"
     "            if t_ech is not None and min(row) >= unit - d and generated_ideal(\n"
     "                    t_ech, [{d - nf[c]: a for c, a in row.items() if c != unit}],",
     [f"{CLOSURE_TESTS}::test_closure_meeting_filtration_one_outside_t_without_one"]),
    ("t-ideal-premise-skipped", "envelope.py",
     "                self.check_assoc_expansion(i, j, k, 1)",
     "                True",
     [f"{CLOSURE_TESTS}::test_a_failed_premise_leaves_the_t_rows_unclosed"]),
    ("kept-generator-rows-without-products", "envelope.py",
     "        for vec in self._right_products(chain(fell, islice(queue, len(queue), None))):",
     "        for vec in self._right_products(islice(queue, len(queue), None)):",
     [f"{CLOSURE_TESTS}::test_a_kept_generator_whose_top_degree_falls_has_its_own_products"]),
    # the closures' products read the table straight from closure rows
    ("right-products-without-nf-remap", "envelope.py",
     "            terms = [(table[nf[c]], nf[c], a) for c, a in row.items()]",
     "            terms = [(table[c], c, a) for c, a in row.items()]",
     [f"{CLOSURE_TESTS}::test_right_products_match_the_mul_basis_route"]),
    ("right-products-without-closure-column-remap", "envelope.py",
     "                        k = col[k]\n",
     "",
     [f"{CLOSURE_TESTS}::test_right_products_match_the_mul_basis_route"]),
    ("right-products-keep-zero-entries", "envelope.py",
     "                yield {k: b for k, b in w.items() if b}",
     "                yield dict(w)",
     [f"{CLOSURE_TESTS}::test_right_products_match_the_mul_basis_route"]),
    ("right-products-ignore-a-table-denominator", "envelope.py",
     "                    if d != acc[0]:\n"
     "                        add_row(acc, 0, d, {})\n"
     "                        a *= acc[0] // d\n",
     "",
     [f"{CLOSURE_TESTS}::test_right_products_match_the_mul_basis_route"]),
    # the "t" and "ceiling" exits read their fields off A
    ("a-exit-stabilization-off-by-one", "envelope.py",
     "            stable = 0 if one else 1 if safe else None",
     "            stable = 0 if one else 2 if safe else None",
     [f"{CLOSURE_TESTS}::test_exits_read_the_fields_of_an_explicit_echelon"]),
    ("tau-keeps-zero-entries-of-x", "lts.py",
     "    x = {i: a for i, a in x.items() if a}\n",
     "",
     [f"{LTS_SPARSE}::test_tau_helpers_drop_explicit_zero_entries"]),
    ("add-row-without-lcm-rescale", "exactlin.py",
     "    if d != den:\n"
     "        new = lcm(den, d)\n"
     "        if new != den:\n"
     "            for k in w:\n"
     "                w[k] *= new // den\n"
     "            acc[0] = den = new\n"
     "        c *= den // d\n",
     "",
     [ACCUMULATOR_TESTS,
      f"{CLOSURE_TESTS}::test_integer_products_match_reference_on_fractional_rows",
      f"{IDENTITY_TESTS}::test_row_checks_match_element_checks_on_a_corrupted_table",
      "tests/test_hopf.py"]),
    # a table row is added in place; add_row only rescales the accumulator
    ("mul-basis-without-row-denominator", "envelope.py",
     "                d *= dx\n",
     "",
     [ACCUMULATOR_TESTS,
      f"{CLOSURE_TESTS}::test_integer_products_match_reference_on_fractional_rows",
      IDENTITY_TESTS, "tests/test_hopf.py"]),
    ("mul-basis-ignores-scale", "envelope.py",
     "                a *= c * (acc[0] // d)",
     "                a *= acc[0] // d",
     [ACCUMULATOR_TESTS,
      f"{CLOSURE_TESTS}::test_integer_products_match_reference_on_fractional_rows",
      IDENTITY_TESTS, "tests/test_hopf.py"]),
    # the bundled sl3_sym has table rows over 2
    ("mul-basis-in-place-without-denominator-check", "envelope.py",
     "                if d != acc[0]:\n"
     "                    add_row(acc, 0, d, {})\n"
     "                a *= c * (acc[0] // d)",
     "                a *= c",
     [f"{GOLDEN_TESTS}::test_normal_form_terms_and_format",
      f"{ACCUMULATOR_TESTS}::test_products_match_the_references"]),
    ("nucleus-m1-equals-m2", "envelope.py",
     "                    for m2 in reps[n2]:",
     "                    for m2 in [m1] if n1 == n2 else []:",
     [NUCLEUS_TESTS]),
    ("nucleus-m2-generators-only", "envelope.py",
     "            for n2 in range(1, cap - n1):",
     "            for n2 in range(1, min(2, cap - n1)):",
     [NUCLEUS_TESTS]),
    ("nucleus-without-top-n1", "envelope.py",
     "        for n1 in range(1, cap - 1):",
     "        for n1 in range(1, cap - 2):",
     [NUCLEUS_TESTS]),
    ("eliminate-skips-rescale", "exactlin.py",
     "    return integer_row(work) if any(type(a) is not int for a in work.values()) else (1, work)",
     "    return 1, work",
     [f"{ECHELON_TESTS}::test_integer_input_matches_the_same_fraction_input"]),
    ("derivation-pass-checks-rejected", "lts.py",
     "            if ech.insert(_flatten(op, d)) is not None and (",
     "            if ech.insert(_flatten(op, d)) is None and (",
     DERIVATION_TESTS + INNER_DERIVATION_TESTS),
    ("derivation-pass-checks-none", "lts.py",
     "                    bad := _derivation_failure(t.integer_constants[1], op)):",
     "                    bad := None):",
     DERIVATION_TESTS + INNER_DERIVATION_TESTS),
    ("derivation-pass-checks-first-only", "lts.py",
     "            if ech.insert(_flatten(op, d)) is not None and (",
     "            if ech.insert(_flatten(op, d)) is not None and ech.dim == 1 and (",
     DERIVATION_TESTS + INNER_DERIVATION_TESTS),
    # the pass is kept on its system: made once, and never another system's
    ("derivation-pass-not-kept", "lts.py",
     "    if getattr(t, \"_derivations\", None) is None:",
     "    if True:",
     [f"{LTS_SPARSE}::test_one_verify_run_makes_one_derivation_pass"]),
    ("derivation-pass-kept-on-the-class", "lts.py",
     "        t._derivations = ech, bad",
     "        type(t)._derivations = ech, bad",
     [f"{LTS_SPARSE}::test_kept_derivation_pass_matches_a_fresh_pass"]),
    ("graded-parity-inverted", "lts.py",
     "        odd = (p >= m) != (q >= m)",
     "        odd = (p >= m) == (q >= m)",
     [f"{LTS_SPARSE}::test_grading_check_on_sl2",
      f"{LTS_SPARSE}::test_lie_layer_bundled_matches_dense"]),
    ("flatten-column-major", "lts.py",
     "    return {k * n + x: a for x, col in op.items() for k, a in col.items()}\n"
     "\n"
     "\n"
     "def _unflatten(v, n):\n"
     "    out = {}\n"
     "    for c, a in v.items():\n"
     "        k, x = divmod(c, n)\n",
     "    return {x * n + k: a for x, col in op.items() for k, a in col.items()}\n"
     "\n"
     "\n"
     "def _unflatten(v, n):\n"
     "    out = {}\n"
     "    for c, a in v.items():\n"
     "        x, k = divmod(c, n)\n",
     [f"{LTS_SPARSE}::test_span_closure_bundled_matches_loops",
      f"{LTS_SPARSE}::test_span_closure_random_matches_loop",
      f"{LTS_SPARSE}::test_lts_layer_bundled_matches_dense",
      "tests/test_lts.py::test_flatten_roundtrip"]),
    ("lts-from-lie-without-sign", "lts.py",
     "    constants = {(i, j, k): {m: Fraction(-a, den) for m, a in coords.items()}",
     "    constants = {(i, j, k): {m: Fraction(a, den) for m, a in coords.items()}",
     ["tests/test_provenance.py", "tests/test_lts.py::test_lts_from_lie_sl2",
      f"{LTS_SPARSE}::test_lie_layer_random_matches_dense",
      f"{LTS_SPARSE}::test_lie_layer_bundled_matches_dense"]),
    # the quotient-side build's certificate and its representative symbols
    ("quotient-build-without-collapse-check", "envelope.py",
     "            if pivots and pivots[-1] >= lo - hi:",
     "            if False:",
     [f"{QUOTIENT_TESTS}::test_certificate_failures_match_the_free_table"]),
    ("quotient-build-without-rank-check", "envelope.py",
     "            if len(pivots) != len(others):",
     "            if False:",
     [f"{QUOTIENT_TESTS}::test_certificate_failures_match_the_free_table"]),
    ("representative-symbol-halves-swapped", "envelope.py",
     "                sym[tuple(self._rep_index[h] for h in self.rep_tree[k])] = k - hi",
     "                sym[tuple(self._rep_index[h] for h in reversed(self.rep_tree[k]))]"
     " = k - hi",
     [f"{QUOTIENT_TESTS}::test_quotient_build_matches_free_table"]),
    # the power-bracketing certificate and the one tree-keyed normal-form cache
    # the hopf layer: Delta of a basis row is its cached row, the legwise
    # product rescales only for a new denominator, and the failures name
    # what failed
    # a basis row is told apart by exactlin.unit_column, for Delta and for
    # the products that read a basis operand's shared table row
    ("unit-column-of-any-coefficient", "exactlin.py",
     "            if a == 1:\n"
     "                return k",
     "            return k",
     ["tests/test_hopf.py::test_comult_of_a_basis_row_is_its_cached_row"]),
    ("unit-column-ignores-the-denominator", "exactlin.py",
     "    if den == 1 and len(w) == 1:",
     "    if len(w) == 1:",
     [BRANCH_TESTS]),
    ("tensor-rows-without-rescale", "hopf.py",
     "            if dd != acc[0]:\n"
     "                add_row(acc, 0, dd, {})\n",
     "",
     [f"{ACCUMULATOR_TESTS}::test_tensor_rows_match_the_reference"]),
    ("counit-law-check-skipped", "hopf.py",
     "            failures.append((\"counit law\", v))",
     "            pass",
     ["tests/test_hopf.py::test_a_corrupted_counit_leg_fails_the_counit_law_in_both_checks"]),
    ("coideal-failure-names-the-next-relator", "hopf.py",
     "{family} relator {i}\")",
     "{family} relator {i + 1}\")",
     ["tests/test_hopf.py::test_check_coideal_matches_the_reference_on_a_broken_relator",
      "tests/test_cli.py::test_coideal_failure_exit_1"]),
    ("power-bracketing-check-skipped", "envelope.py",
     "        self._verify_power_bracketings()\n",
     "",
     ["tests/test_envelope.py::test_power_bracketing_certificate_names_the_generator_and_n"]),
    ("basis-product-of-the-swapped-pair", "envelope.py",
     "                graft(self.rep_tree[i], self.rep_tree[j]))",
     "                graft(self.rep_tree[j], self.rep_tree[i]))",
     [f"{CLOSURE_TESTS}::test_basis_products_match_grafted_reductions",
      f"{QUOTIENT_TESTS}::test_quotient_build_matches_free_table"]),
    ("tree-product-of-swapped-halves", "envelope.py",
     "                    row = nonzero_row(*self.mul_rows(self._nf_row(left),\n"
     "                                                     self._nf_row(right)))",
     "                    row = nonzero_row(*self.mul_rows(self._nf_row(right),\n"
     "                                                     self._nf_row(left)))",
     [f"{QUOTIENT_TESTS}::test_quotient_build_matches_free_table"]),
    # Delta is cached once by tree: a basis row reads the coideal check's memo
    ("comult-basis-with-a-fresh-memo", "hopf.py",
     "    return _comult_tree(alg, alg.rep_tree[k], alg._hopf_comult)",
     "    return _comult_tree(alg, alg.rep_tree[k], {})",
     ["tests/test_hopf.py::"
      "test_comult_basis_multiplies_once_per_uncached_representative_tree"]),
    # each identity suite names its failing cases
    ("jordan-drops-its-failure-record", "suites.py",
     "                rep.add(\"jordan_operator_identity\", {\"a\": a, \"x\": list(v)}, False)",
     "                pass",
     [f"{SUITE_FAILURE_TESTS}[jordan-jordan_operator_identity]"]),
    ("lemma-drops-its-failure-record", "suites.py",
     SUITE_FAILURE_RECORD,
     "                if suite != \"lemma\":\n    " + SUITE_FAILURE_RECORD,
     [f"{SUITE_FAILURE_TESTS}[lemma-lemma_residue]"]),
    ("expansion-drops-its-failure-record", "suites.py",
     SUITE_FAILURE_RECORD,
     "                if suite != \"expansion\":\n    " + SUITE_FAILURE_RECORD,
     [f"{SUITE_FAILURE_TESTS}[expansion-associator_expansion]"]),
    # the hopf suite's failures (a table row of the wrong parity)
    ("division-drops-its-failure-record", "suites.py",
     "                rep.add(\"division_identities\", {\"x\": list(vx), \"y\": list(vy)},\n"
     "                        False, failures)",
     "                pass",
     [HOPF_FAILURE_TESTS]),
    ("weak-associativity-drops-its-failure", "suites.py",
     "        weak_ok = weak_ok and not failures",
     "        weak_ok = weak_ok",
     [HOPF_FAILURE_TESTS]),
    ("s-map-automorphism-drops-its-failure", "suites.py",
     "        if hopf.s_map(x * y) != hopf.s_map(x) * hopf.s_map(y):\n"
     "            s_ok = False",
     "        if hopf.s_map(x * y) != hopf.s_map(x) * hopf.s_map(y):\n"
     "            pass",
     [HOPF_FAILURE_TESTS]),
    # insert reduces a row only up to its pivot, then stores it primitive
    ("insert-stops-at-a-pivot-column", "exactlin.py",
     "            row = rows.get(c)\n"
     "            if row is None:",
     "            row = None if first else rows.get(c)\n"
     "            if row is None:",
     [f"{ECHELON_TESTS}::test_integer_echelon_matches_fraction_reference"]),
    ("insert-row-not-primitive", "exactlin.py",
     "        g = abs(a)\n",
     "        g = 1\n",
     [f"{ECHELON_TESTS}::test_integer_echelon_matches_fraction_reference"]),
    # each identity check tests one difference row: its sides subtracted
    ("weak-associativity-difference-without-rhs", "hopf.py",
     "            if any(alg.mul_rows(w, zr, into=lhs, c=-1)[1].values()):",
     "            if any(lhs[1].values()):",
     ["tests/test_hopf.py::test_hoisted_checks_match_the_per_case_reference"]),
    ("division-difference-without-target", "hopf.py",
     "            add_row(acc, -e.numerator, e.denominator * yr[0], yr[1])\n",
     "",
     ["tests/test_hopf.py::test_hoisted_checks_match_the_per_case_reference"]),
    ("jordan-difference-without-rhs", "identities.py",
     "            mul(ar, xy, into=diff, c=-1)\n",
     "",
     [f"{IDENTITY_TESTS}::test_row_checks_match_element_checks"]),
    # the product table is one dict per left factor, and a product of two
    # basis operands that is only read is the table's shared row
    ("mul-basis-right-product-from-the-left-dict", "envelope.py",
     "                d, row = ((table[i].get(k) or product(i, k)) if right",
     "                d, row = ((left.get(i) or product(i, k)) if right",
     [f"{ACCUMULATOR_TESTS}::test_products_match_the_references"]),
    ("tensor-rows-right-leg-from-the-left-dict", "hopf.py",
     "            d2, right = rights.get(r2) or product(r1, r2)",
     "            d2, right = lefts.get(r2) or product(r1, r2)",
     [f"{ACCUMULATOR_TESTS}::test_tensor_rows_match_the_reference"]),
    ("weak-associativity-branch-of-the-swapped-pair", "hopf.py",
     "                yx2[k2] = mul(k2, yr, right=True) if m is None else product(m, k2)",
     "                yx2[k2] = mul(k2, yr, right=True) if m is None else product(k2, m)",
     ["tests/test_hopf.py::test_hoisted_checks_match_the_per_case_reference"]),
    # the branch taken for a product that is added into: x a lands in the
    # shared row of a x, and the check's own verdict stays right
    ("jordan-adds-into-a-shared-row", "identities.py",
     "        lhs_mult = mul(xr, ar, into=mul(ar, xr))",
     "        lhs_mult = mul(xr, ar, into=mul(ar, xr) if ma is None or mx is None"
     " else product(ma, mx))",
     [f"{ACCUMULATOR_TESTS}::test_run_suite_all_writes_into_no_shared_row"]),
    ("multiplicativity-without-the-product-denominator", "hopf.py",
     "                add_row(diff, -a, dp * dk, row)",
     "                add_row(diff, -a, dk, row)",
     ["tests/test_hopf.py::test_a_corrupted_product_fails_both_coalgebra_checks_alike"]),
    # the s_map check's involution and counit failure
    ("s-map-involution-drops-its-failure", "suites.py",
     "        if hopf.s_map(hopf.s_map(x)) != x or hopf.s_map(x).counit() != x.counit():\n"
     "            s_ok = False",
     "        if hopf.s_map(hopf.s_map(x)) != x or hopf.s_map(x).counit() != x.counit():\n"
     "            pass",
     ["tests/test_hopf.py::test_an_s_that_moves_the_counit_fails_the_s_map_check"]),
    # the CLI loads and prints exact numbers of any size
    ("cli-keeps-the-int-digit-limit", "cli.py",
     "    sys.set_int_max_str_digits(0)\n",
     "",
     [DIGIT_TESTS]),
    ("loader-calls-a-long-rational-malformed", "cli.py",
     "                if limit and digits > limit:",
     "                if False:",
     [DIGIT_TESTS]),
    # the lts verdicts are kept on the system, once each
    ("axiom-report-not-kept", "lts.py",
     "    if getattr(t, \"_axioms\", None) is None:",
     "    if True:",
     [f"{LTS_SPARSE}::test_one_verify_run_makes_each_lts_verdict_once"]),
    ("simplicity-report-kept-on-the-class", "lts.py",
     "        t._simplicity = _simplicity_certificate(t)",
     "        type(t)._simplicity = _simplicity_certificate(t)",
     [f"{LTS_SPARSE}::test_kept_lts_verdicts_match_a_fresh_system"]),
    # normal-form reads: one Fraction per distinct value of a memo, in a
    # fresh dict that Element._trusted wraps
    ("rational-row-memo-keyed-by-numerator", "exactlin.py",
     "    values = memo.get(den)\n"
     "    if values is None:\n"
     "        values = memo[den] = {}\n",
     "    values = memo.setdefault(None, {})\n",
     [f"{NF_READ_TESTS}::test_reduce_tree_matches_the_per_entry_element[sl3_sym-N4]"]),
    ("rational-row-without-zero-filter", "exactlin.py",
     "        if b:\n"
     "            a = values.get(b)",
     "        if True:\n"
     "            a = values.get(b)",
     [f"{NF_READ_TESTS}::"
      "test_products_match_the_per_entry_element_and_leave_the_memo_alone"]),
    ("reduce-tree-shares-its-coefficient-dict", "envelope.py",
     "        return Element._trusted(self, rational_row(*row, self._nf_fractions))",
     "        return Element._trusted(self, self.__dict__.setdefault(\n"
     "            (\"nf\", t), rational_row(*row, self._nf_fractions)))",
     [f"{NF_READ_TESTS}::test_reads_hand_out_fresh_coefficient_dicts"]),
    ("mul-fills-the-read-memo", "envelope.py",
     "        return Element._trusted(self, rational_row(*self.mul_rows(integer_row(x.coeffs),\n"
     "                                                                  integer_row(y.coeffs))))",
     "        return Element._trusted(self, rational_row(*self.mul_rows(integer_row(x.coeffs),\n"
     "                                                                  integer_row(y.coeffs)),\n"
     "                                                   self._nf_fractions))",
     [f"{NF_READ_TESTS}::"
      "test_products_match_the_per_entry_element_and_leave_the_memo_alone"]),
    # the integer kernels of lts: a denominator dropped where a value returns
    # or where a coordinate is read
    ("integer-copy-ignores-denominators", "lts.py",
     "    return den, {x: {k: a.numerator * (den // a.denominator) for k, a in col.items()}",
     "    return den, {x: {k: a.numerator for k, a in col.items()}",
     RATIONAL_REBASE_TESTS),
    ("tau-helpers-drop-the-denominator-of-x", "lts.py",
     "    return {z: rational_row(dk * dx * dy, col) for z, col in kernel(kt, x, y).items()}",
     "    return {z: rational_row(dk * dy, col) for z, col in kernel(kt, x, y).items()}",
     RATIONAL_TAU_TESTS),
    ("embedding-tt-block-ignores-its-denominator", "lts.py",
     "        brackets[(m + i, m + j)] = inn_coords(D, t.integer_constants[0])",
     "        brackets[(m + i, m + j)] = inn_coords(D, 1)",
     RATIONAL_REBASE_TESTS),
    ("embedding-dd-block-ignores-its-denominator", "lts.py",
     "            brackets[(p, q)] = inn_coords(op_bracket(a, b), da * db)",
     "            brackets[(p, q)] = inn_coords(op_bracket(a, b), 1)",
     RATIONAL_REBASE_TESTS),
    ("killing-over-the-denominator-not-its-square", "lts.py",
     "        den = self.integer_brackets[0] ** 2",
     "        den = self.integer_brackets[0]",
     RATIONAL_REBASE_TESTS),
    # the failure branches of the embedding suite and of the lts checks
    ("embedding-suite-drops-the-adjointness-failure", "suites.py",
     "    rep.add(\"killing_adjointness\", {}, adj_ok)",
     "    rep.add(\"killing_adjointness\", {}, True)",
     [f"{LTS_FAILURES}::test_killing_adjointness_fails_on_a_wrong_operator"]),
    ("embedding-suite-drops-the-tau-rank-failure", "suites.py",
     "            tau_ok = False",
     "            pass",
     [f"{LTS_FAILURES}::test_tau_rank_fails_on_a_rank_two_map"]),
    ("embedding-suite-drops-the-commutator-failure", "suites.py",
     "            comm_ok = False",
     "            pass",
     [f"{LTS_FAILURES}::test_tau_commutator_rule_fails_without_a_term"]),
    ("trace-identity-drops-its-failures", "lts.py",
     "            failures.append((i, j, lhs, rhs))",
     "            pass",
     [f"{LTS_FAILURES}::test_trace_identity_names_each_failing_pair",
      f"{LTS_FAILURES}::test_trace_identity_fails_in_the_suite"]),
    ("validate-drops-the-jacobi-failure", "lts.py",
     "            raise InvalidStructure(\"Jacobi fails on basis triple ({},{},{})\".format(*bad))",
     "            pass",
     [f"{LTS_FAILURES}::test_validate_names_the_jacobi_failure"]),
    ("embedding-drops-the-span-check", "lts.py",
     "            raise InvalidStructure(\"bracket leaves the inner derivation span\")",
     "            pass",
     [f"{LTS_FAILURES}::test_embedding_fails_when_a_bracket_leaves_the_span"]),
    ("embedding-drops-the-lie-algebra-check", "lts.py",
     "        raise InvalidStructure(f\"standard embedding is not a Lie algebra: {exc}\")",
     "        pass",
     [f"{LTS_FAILURES}::test_embedding_fails_when_it_is_no_lie_algebra"]),
    ("embedding-drops-the-grading-check", "lts.py",
     "        raise InvalidStructure(\"the bracket does not respect the grading InnDer(T) + T\")",
     "        pass",
     [f"{LTS_FAILURES}::test_embedding_fails_on_a_wrong_grading"]),
    ("embedding-drops-the-orthogonality-check", "lts.py",
     "        raise InvalidStructure(\"InnDer(T) and T are not K-orthogonal\")",
     "        pass",
     [f"{LTS_FAILURES}::test_embedding_fails_when_innder_and_t_are_not_orthogonal"]),
]

EQUIVALENT = [
    # each input of the commutator rule is scaled to integers on its own; the
    # rule is linear in y on both sides, so an unscaled y gives the same verdict
    ("tau-commutator-check-with-an-unscaled-input", "lts.py",
     "                     integer_row(x)[1], integer_row(y)[1])",
     "                     integer_row(x)[1], y)",
     "[d, tau_{x,y}] and tau_{d(x),y} + tau_{x,d(y)} are both linear in y, so the "
     "verdict on y equals the verdict on any nonzero multiple of it: the "
     "homogeneity that lets the lts kernels run on integers"),
]

RETIRED = [
    ("mul-basis-without-lcm-rescale",
     "mul_basis has no rescaling loop of its own: it adds through exactlin.add_row, "
     "whose loop add-row-without-lcm-rescale drops"),
    ("mul-rows-without-lcm-rescale",
     "mul_rows is a sum of mul_basis calls into one accumulator: its rescaling "
     "loop is add_row's too"),
    ("rule-b-without-in-aug",
     "the t_goal line is gone: one T-ideal exit replaces rules A and B, and no "
     "generator of nonzero counit enters the echelon before saturation; "
     "counit-nonzero-generator-in-the-t-rows is the mutant of that guard"),
    ("comult-rows-shortcut-for-any-single-term",
     "the basis-row test left _comult_rows for exactlin.unit_column; "
     "unit-column-of-any-coefficient is its mutant there"),
    ("relation-span-sides-swapped",
     "the free-table closure left src: U_N(T) is built on the quotient side, and "
     "the free-table build is the tests' reference (tests/free_table.py)"),
]


def copy_tree(dest):
    """Copy ``src``, ``tests`` and ``pyproject.toml`` into ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(root, tests):
    """pytest's exit code for ``tests`` run on the copy at ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


def matches(file, old):
    return (ROOT / "src" / "triplex" / file).read_text().count(old) == 1


def main(argv=None):
    names = sys.argv[1:] if argv is None else list(argv)
    known = {m[0] for m in MUTANTS}
    if unknown := [n for n in names if n not in known]:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    bad = 0
    for name, file, old, _, reason in EQUIVALENT:
        if not matches(file, old):
            print(f"STALE   {name}: its old text no longer occurs once in {file}")
            bad += 1
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        tests = sorted({t for m in chosen for t in m[4]})
        if run_tests(base, tests) != 0:
            print("the named tests fail on the unchanged copy", file=sys.stderr)
            return 1
        for name, file, old, new, tests in chosen:
            if not matches(file, old):
                print(f"STALE   {name}: its old text no longer occurs once in {file}")
                bad += 1
                continue
            root = Path(tmp) / name
            copy_tree(root)
            path = root / "src" / "triplex" / file
            path.write_text(path.read_text().replace(old, new))
            # 1: a test failed; 2: collection failed (the mutant broke an import)
            code = run_tests(root, tests)
            if code in (1, 2):
                print(f"killed  {name}")
            else:
                print(f"SURVIVED {name} (pytest exit {code})")
                bad += 1
            shutil.rmtree(root)
    print(f"{len(chosen)} mutants run, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
