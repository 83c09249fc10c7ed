"""Mechanism throughput — values perturbed per second.

Not a paper artifact, but the number a deployment engineer asks first.
Each test times one call over the whole input (``run_once``; the time
shows with ``pytest -s``).
"""

import numpy as np
import pytest
from _common import run_once

from repro.core import get_mechanism
from repro.frequency import get_oracle
from repro.multidim import MultidimNumericCollector

N = 100_000
VALUES = np.random.default_rng(0).uniform(-1, 1, N)
CATEGORICAL = np.random.default_rng(0).integers(0, 16, N)


@pytest.mark.parametrize(
    "name", ["laplace", "scdf", "staircase", "duchi", "pm", "hm"]
)
def test_mechanism_throughput(name):
    mech = get_mechanism(name, 1.0)
    rng = np.random.default_rng(1)
    run_once(lambda: mech.privatize(VALUES, rng))


@pytest.mark.parametrize("name", ["grr", "sue", "oue", "olh"])
def test_oracle_throughput(name):
    oracle = get_oracle(name, 1.0, 16)
    rng = np.random.default_rng(1)
    run_once(lambda: oracle.privatize(CATEGORICAL, rng))


def test_multidim_collector_throughput():
    d = 16
    tuples = np.random.default_rng(0).uniform(-1, 1, (20_000, d))
    collector = MultidimNumericCollector(4.0, d, "hm")
    rng = np.random.default_rng(1)
    run_once(lambda: collector.privatize(tuples, rng))


def test_duchi_multidim_throughput():
    from repro.core import DuchiMultidimMechanism

    d = 16
    tuples = np.random.default_rng(0).uniform(-1, 1, (20_000, d))
    mech = DuchiMultidimMechanism(4.0, d)
    rng = np.random.default_rng(1)
    run_once(lambda: mech.privatize(tuples, rng))
