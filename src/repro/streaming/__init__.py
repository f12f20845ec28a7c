"""Streaming sliding-window subsystem: exact per-tick semi-local answers.

The (sub)unit-Monge product ``⊡`` is associative, so the semi-local build
products of Theorem 1.3 / Corollaries 1.3.2-1.3.3 factor over any split of
the input into contiguous blocks; a sliding window keeps its blocks and
re-combs only the ones a tick changes:

* :mod:`~repro.streaming.aggregator` — :class:`SeaweedAggregator`, a flat
  list of combed leaf blocks (every leaf a tick touches re-combed in one
  call) answered by an exact (max,+) seam sweep across the leaves, or by one
  cached comb of the window for sweep-shaped queries;
* :mod:`~repro.streaming.sessions` — :class:`StreamingLIS` and
  :class:`StreamingLCS`, per-tick session objects exposing ``lis_length`` /
  ``lcs_length`` / window-sweep queries over the live window;
* :mod:`~repro.streaming.recompose` — :func:`extend_value_matrix`, the
  one-multiply append patch used by the service layer's ``refresh`` request
  kind (``repro.service.requests`` v2), the package's only ``⊡`` product.

Amortised per-tick sliding cost is measured by the registered
``streaming_throughput`` experiment (``python -m repro run
streaming_throughput``); ``python -m repro stream`` drives a live session
from the command line.
"""

from .aggregator import (
    AggregatorStats,
    BlockProduct,
    SeaweedAggregator,
    build_block_product,
    cover_scores,
)
from .recompose import block_product_from_semilocal, combine_block_products, extend_value_matrix
from .sessions import StreamingLCS, StreamingLIS

__all__ = [
    "AggregatorStats",
    "BlockProduct",
    "SeaweedAggregator",
    "build_block_product",
    "combine_block_products",
    "cover_scores",
    "block_product_from_semilocal",
    "extend_value_matrix",
    "StreamingLCS",
    "StreamingLIS",
]
