import pytest
from hypothesis import settings

from weylprod.irrational import parse_alpha

# every property runs without a deadline (the mpf oracles are slow), and a
# failing one prints the blob that reproduces it; max_examples stays per test
settings.register_profile("weylprod", deadline=None, print_blob=True)
settings.load_profile("weylprod")


@pytest.fixture(scope="session")
def sqrt2m1():
    return parse_alpha("sqrt2m1")


@pytest.fixture(scope="session")
def golden():
    return parse_alpha("golden")
