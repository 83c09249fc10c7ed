"""repro — a reproduction of Wang et al., "Collecting and Analyzing
Multidimensional Data with Local Differential Privacy" (ICDE 2019).

Public API highlights
---------------------

The protocol API (canonical since v1.1) makes the client/server split
explicit — clients encode, servers absorb and merge::

    from repro import Protocol
    protocol = Protocol.multidim(epsilon=4.0, d=10, mechanism="hm")
    reports = protocol.client().encode_batch(tuples, rng=0)
    means = protocol.server().absorb(reports).estimate()

1-D numeric mechanisms (Section III)::

    from repro import PiecewiseMechanism, HybridMechanism
    pm = PiecewiseMechanism(epsilon=1.0)
    noisy = pm.privatize(values, rng=0)          # values in [-1, 1]

Multidimensional collection (Section IV) without the protocol layer::

    from repro import MultidimNumericCollector
    collector = MultidimNumericCollector(epsilon=4.0, d=10, mechanism="hm")
    means = collector.estimate_means(collector.privatize(tuples, rng=0))

LDP-SGD (Section V)::

    from repro import LogisticRegression
    model = LogisticRegression(epsilon=2.0, method="hm").fit(X, y, rng=0)

See README.md for the full tour and DESIGN.md for the system inventory.
"""

from repro.analysis import (
    PrivacyAccountant,
    compare_mechanisms,
    mean_interval,
    required_epsilon,
    required_users,
)
from repro.core import (
    DuchiMechanism,
    DuchiMultidimMechanism,
    HybridMechanism,
    LaplaceMechanism,
    NumericMechanism,
    PiecewiseMechanism,
    SCDFMechanism,
    StaircaseMechanism,
    available_mechanisms,
    get_mechanism,
)
from repro.data import (
    CategoricalAttribute,
    Dataset,
    NumericAttribute,
    Schema,
    make_br_like,
    make_mx_like,
)
from repro.frequency import (
    FrequencyOracle,
    LDPHistogram,
    GeneralizedRandomizedResponse,
    OptimizedLocalHashing,
    OptimizedUnaryEncoding,
    SymmetricUnaryEncoding,
    available_oracles,
    get_oracle,
)
from repro.multidim import (
    MixedEstimates,
    MixedMultidimCollector,
    MultidimNumericCollector,
    SplitCompositionBaseline,
)
from repro.protocol import (
    ClientEncoder,
    Protocol,
    ProtocolSpec,
    ServerAccumulator,
    available_primitives,
    get_primitive,
)
from repro.runtime import ParallelRunner, ShardPlan, run_sharded
from repro.sgd import (
    LDPSGDTrainer,
    LinearRegression,
    LogisticRegression,
    MLPClassifier,
    NonPrivateSGDTrainer,
    SupportVectorMachine,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # protocol (canonical client/server API)
    "Protocol",
    "ProtocolSpec",
    "ClientEncoder",
    "ServerAccumulator",
    "available_primitives",
    "get_primitive",
    # runtime (sharded / parallel execution)
    "ShardPlan",
    "ParallelRunner",
    "run_sharded",
    # core
    "NumericMechanism",
    "available_mechanisms",
    "get_mechanism",
    "LaplaceMechanism",
    "SCDFMechanism",
    "StaircaseMechanism",
    "DuchiMechanism",
    "DuchiMultidimMechanism",
    "PiecewiseMechanism",
    "HybridMechanism",
    # frequency
    "FrequencyOracle",
    "available_oracles",
    "get_oracle",
    "GeneralizedRandomizedResponse",
    "SymmetricUnaryEncoding",
    "OptimizedUnaryEncoding",
    "OptimizedLocalHashing",
    # multidim
    "MultidimNumericCollector",
    "MixedMultidimCollector",
    "SplitCompositionBaseline",
    "MixedEstimates",
    # data
    "NumericAttribute",
    "CategoricalAttribute",
    "Schema",
    "Dataset",
    "make_br_like",
    "make_mx_like",
    # sgd
    "LDPSGDTrainer",
    "NonPrivateSGDTrainer",
    "LinearRegression",
    "LogisticRegression",
    "SupportVectorMachine",
    "MLPClassifier",
    # analysis
    "PrivacyAccountant",
    "mean_interval",
    "required_users",
    "required_epsilon",
    "compare_mechanisms",
    # histogram
    "LDPHistogram",
]
