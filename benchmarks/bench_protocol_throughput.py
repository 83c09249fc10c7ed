"""Dense one-shot path vs protocol absorb() path.

Measures, for the Algorithm 4 multidimensional protocol:

* reports/second through the legacy dense path (the
  ``legacy_collect`` row): ``MultidimNumericCollector.privatize``
  builds dense (n, d) submissions and ``estimate_means`` averages them
  in one shot, and
* reports/second through the protocol path (compact
  ``SampledNumericReports`` encoding, batched ``absorb()`` into a
  mergeable accumulator),

plus the peak traced allocation of each path (the protocol path holds
one batch at a time; the legacy path materializes all n dense rows).
The measurements are recorded to
``benchmarks/results/protocol_throughput_baseline.json`` so later PRs
can diff against this PR's baseline.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_protocol_throughput.py -q
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.multidim import MultidimNumericCollector
from repro.protocol import Protocol
from repro.runtime import run_inline

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "protocol_throughput_baseline.json"

N = 50_000
D = 16
EPSILON = 4.0
BATCH = 5_000
TUPLES = np.random.default_rng(0).uniform(-1, 1, (N, D))

#: Measurements accumulated by the benchmarks, written by the last test.
_RESULTS = {}


def _legacy_collect():
    collector = MultidimNumericCollector(EPSILON, D, "hm")
    rng = np.random.default_rng(1)
    return collector.estimate_means(collector.privatize(TUPLES, rng))


def _protocol_absorb():
    # The runtime's inline path: batched encode_batch/absorb with one
    # accumulator, identical stream consumption to the manual loop.
    protocol = Protocol.multidim(EPSILON, d=D, mechanism="hm")
    rng = np.random.default_rng(1)
    return run_inline(protocol, TUPLES, rng, batch_size=BATCH).estimate()


_PATHS = {
    "legacy_collect": _legacy_collect,
    "protocol_absorb": _protocol_absorb,
}


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_throughput(benchmark, path):
    fn = _PATHS[path]
    estimates = benchmark(fn)
    assert estimates.shape == (D,)

    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    mean_seconds = benchmark.stats.stats.mean
    _RESULTS[path] = {
        "reports_per_second": N / mean_seconds,
        "mean_seconds": mean_seconds,
        "peak_traced_bytes": int(peak),
    }


def test_record_baseline():
    """Runs after the parametrized benchmarks (pytest preserves file order)."""
    if len(_RESULTS) != len(_PATHS):  # pragma: no cover - partial runs
        pytest.skip("benchmarks did not run; nothing to record")
    payload = {
        "n_reports": N,
        "d": D,
        "epsilon": EPSILON,
        "batch_size": BATCH,
        "paths": _RESULTS,
        "speedup_protocol_over_legacy": (
            _RESULTS["protocol_absorb"]["reports_per_second"]
            / _RESULTS["legacy_collect"]["reports_per_second"]
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    # The protocol path streams batches; it must never hold the full
    # dense (n, d) matrix the legacy path materializes.
    assert (
        _RESULTS["protocol_absorb"]["peak_traced_bytes"]
        < _RESULTS["legacy_collect"]["peak_traced_bytes"]
    )
