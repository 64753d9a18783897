"""The heterogeneous address-transaction graph (paper §III-A): shared constants.

A graph ``G = (V, E)`` has two base node kinds — *address* nodes and
*transaction* nodes — plus the two hyper-node kinds produced by
compression.  An edge connects an address-side node to a transaction node
and carries the transferred amount; direction records whether the address
was on the input side (address → tx) or the output side (tx → address).

Node features are carried as raw *value bags* until the final feature
assembly so that compression can merge nodes by concatenating bags and
re-running SFE — exactly Eq. (1)/(2)/(7) of the paper.  The graphs
themselves are :class:`~repro.graphs.arrays.ArrayGraph` columns (one
graph) and :class:`~repro.graphs.arrays.GraphPack` columns (a build);
this module holds the node-kind and feature-layout constants they
share.
"""

from __future__ import annotations

from typing import Sequence

from repro.features.sfe import SFE_DIM

__all__ = [
    "NodeKind",
    "NODE_KIND_ORDER",
    "NODE_FEATURE_DIM",
]


class NodeKind:
    """Node-kind constants (plain strings keep graphs easily serialisable)."""

    ADDRESS = "address"
    TRANSACTION = "tx"
    SINGLE_HYPER = "s_hyper"
    MULTI_HYPER = "m_hyper"


NODE_KIND_ORDER: Sequence[str] = (
    NodeKind.ADDRESS,
    NodeKind.TRANSACTION,
    NodeKind.SINGLE_HYPER,
    NodeKind.MULTI_HYPER,
)

# Final per-node feature layout: SFE(15) + centrality(4) + kind one-hot(4)
# + is-center flag(1).
_CENTRALITY_DIMS = 4
NODE_FEATURE_DIM = SFE_DIM + _CENTRALITY_DIMS + len(NODE_KIND_ORDER) + 1
