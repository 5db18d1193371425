import pytest

from triplex import catalog
from triplex.envelope import EnvelopingAlgebra


@pytest.fixture(scope="session")
def s2():
    return catalog.s2()


@pytest.fixture(scope="session")
def sl2_lts():
    return catalog.sl2_lts()


@pytest.fixture(scope="session")
def s2_n6(s2):
    return EnvelopingAlgebra(s2, 6)


@pytest.fixture(scope="session")
def s2_n5(s2):
    return EnvelopingAlgebra(s2, 5)


@pytest.fixture(scope="session")
def sl2_n4(sl2_lts):
    return EnvelopingAlgebra(sl2_lts, 4)


@pytest.fixture(scope="session")
def s2_n4(s2):
    return EnvelopingAlgebra(s2, 4)
