"""Client/server protocol API — the canonical public surface.

Wang et al. (ICDE 2019) is a client/server protocol: each user encodes
and perturbs locally, the aggregator debiases from sufficient statistics.
This package makes that split explicit:

* :class:`ClientEncoder` — stateless, vectorized ``encode_batch``;
  adapters cover every numeric mechanism, frequency oracle, and the
  Section IV multidimensional samplers.
* :class:`ServerAccumulator` — ``absorb`` / ``merge`` / ``estimate``
  over sufficient statistics only (O(1) memory per shard; mergeable
  across shards and streams).  Every batch reaches it as one
  :class:`~repro.protocol.reports.ColumnBlock` (``to_block``).
* :class:`Protocol` — the façade tying the two halves to a serializable
  :class:`ProtocolSpec`.

Quickstart::

    from repro.protocol import Protocol

    protocol = Protocol.multidim(epsilon=4.0, d=10, mechanism="hm")
    reports = protocol.client().encode_batch(tuples, rng=0)
    means = protocol.server().absorb(reports).estimate()
"""

from repro.protocol.accumulators import (
    FrequencyAccumulator,
    HistogramAccumulator,
    MeanAccumulator,
    MixedAccumulator,
    MultidimMeanAccumulator,
    ServerAccumulator,
)
from repro.protocol.encoders import (
    ClientEncoder,
    FrequencyEncoder,
    HistogramEncoder,
    MixedEncoder,
    MultidimNumericEncoder,
    NumericMeanEncoder,
)
from repro.protocol.facade import Protocol
from repro.protocol.registry import (
    PRIMITIVE_KINDS,
    available_primitives,
    get_primitive,
    primitive_kind,
)
from repro.protocol.reports import SampledNumericReports
from repro.protocol.spec import (
    PROTOCOL_KINDS,
    SPEC_VERSION,
    ProtocolSpec,
    schema_from_dict,
    schema_to_dict,
)

__all__ = [
    # facade + spec
    "Protocol",
    "ProtocolSpec",
    "PROTOCOL_KINDS",
    "SPEC_VERSION",
    "schema_to_dict",
    "schema_from_dict",
    # registry
    "PRIMITIVE_KINDS",
    "available_primitives",
    "get_primitive",
    "primitive_kind",
    # client side
    "ClientEncoder",
    "NumericMeanEncoder",
    "FrequencyEncoder",
    "HistogramEncoder",
    "MultidimNumericEncoder",
    "MixedEncoder",
    # server side
    "ServerAccumulator",
    "MeanAccumulator",
    "MultidimMeanAccumulator",
    "FrequencyAccumulator",
    "HistogramAccumulator",
    "MixedAccumulator",
    # reports
    "SampledNumericReports",
]
