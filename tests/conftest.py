import random

import pytest

from braidorders import FROZEN_CONVENTION, catalog


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def specs():
    return catalog()


@pytest.fixture(scope="session")
def conv():
    return FROZEN_CONVENTION
