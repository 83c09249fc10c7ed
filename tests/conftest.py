"""Shared fixtures for the test suite."""

import warnings

import numpy as np
import pytest

# Hypothesis prints a failing example's patch through libcst, whose
# import warns through mypy_extensions.TypedDict.  Under CI's
# ``-W error::DeprecationWarning`` that warning turned a failing
# property test into an INTERNALERROR hiding which tests failed.
# Importing it here with DeprecationWarning ignored for this import
# only keeps every other warning, those from ``src/`` included, an
# error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis prints no patch
        pass


@pytest.fixture
def rng():
    """A deterministic generator; tests stay reproducible."""
    return np.random.default_rng(20190408)  # ICDE 2019 week


@pytest.fixture(params=[0.3, 0.61, 1.0, 1.29, 2.0, 4.0])
def epsilon(request):
    """A spread of privacy budgets covering every Table I regime."""
    return request.param
