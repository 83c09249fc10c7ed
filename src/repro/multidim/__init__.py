"""Multidimensional LDP collection (the paper's Section IV)."""

from repro.multidim.aggregator import MixedEstimates
from repro.multidim.collector import (
    MixedMultidimCollector,
    MixedReports,
    MultidimNumericCollector,
    sample_attribute_matrix,
)
from repro.multidim.marginals import (
    MarginalTable,
    PairwiseMarginalCollector,
    true_marginal_table,
)
from repro.multidim.splitting import SplitCompositionBaseline

__all__ = [
    "MixedEstimates",
    "MixedMultidimCollector",
    "MixedReports",
    "MultidimNumericCollector",
    "sample_attribute_matrix",
    "SplitCompositionBaseline",
    "PairwiseMarginalCollector",
    "MarginalTable",
    "true_marginal_table",
]
