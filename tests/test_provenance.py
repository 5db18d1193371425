"""Each bundled data file equals the construction it was made from.

The test suites read the systems from ``triplex/data`` (through
``catalog``); these tests rebuild them from their definitions.  That
``s2.json`` is the -1 eigenspace of the Cartan involution of sl(2) is
``tests/test_lts.py::test_lts_from_involution_sl2_gives_s2``.
"""

from constructions import direct_sum, lts_from_involution, sl3_lie, sl3_transpose

from triplex import catalog
from triplex.lts import lts_from_lie


def assert_same_system(t, built):
    assert (t.dim, t.basis_names) == (built.dim, built.basis_names)
    assert t.constants == built.constants


def test_sl2_lts_is_the_triple_system_of_sl2():
    assert_same_system(catalog.sl2_lts(), lts_from_lie(catalog.sl2_lie()))


def test_s2_plus_s2_is_the_block_sum_of_two_s2():
    assert_same_system(catalog.s2_plus_s2(), direct_sum(catalog.s2(), catalog.s2()))


def test_sl3_sym_is_the_negative_eigenspace_of_minus_transpose():
    assert_same_system(catalog.sl3_transpose_lts(),
                       lts_from_involution(sl3_lie(), sl3_transpose()))
