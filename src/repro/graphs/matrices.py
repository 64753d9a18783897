"""Adjacency-matrix builders for graph neural networks (paper Eq. 12).

``Ã = D̃^{-1/2}(A + I)D̃^{-1/2}`` — the renormalised adjacency of Kipf &
Welling, used by both the GFN feature-propagation step (Eq. 13) and the
GCN baseline.

:func:`packed_adjacency` is the one block-diagonal pack builder: Stage 4
(:func:`repro.graphs.augmentation.augment_graphs`) runs its centrality
kernels over the pack, and :func:`repro.gnn.data.encode_graphs`
renormalises the same pack into every graph's Ã in one sweep.  The
per-graph :func:`normalized_adjacency` /
:func:`normalized_adjacency_from_matrix` are the Eq. 12 oracle the
tests hold the batched encoder to; no production path calls them.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError

__all__ = [
    "normalized_adjacency",
    "normalized_adjacency_from_matrix",
    "packed_adjacency",
]


def packed_adjacency(graphs: Sequence) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Block-diagonal symmetric adjacency straight from edge columns.

    Accepts either graph flavour (anything with ``num_nodes``,
    ``num_edges`` and ``edge_arrays()``).  Returns the packed CSR and
    the ``len(graphs) + 1`` node offsets of its diagonal blocks.  One
    COO→CSR conversion covers the whole batch instead of one per graph;
    each diagonal block is structurally identical to the graph's own
    ``adjacency_matrix()`` (canonical: sorted, deduplicated, all-ones
    data).
    """
    offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    np.cumsum([graph.num_nodes for graph in graphs], out=offsets[1:])
    total = int(offsets[-1])
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    for graph, offset in zip(graphs, offsets[:-1]):
        if graph.num_edges == 0:
            continue
        src, dst = graph.edge_arrays()
        src_parts.append(src + offset)
        dst_parts.append(dst + offset)
    if not src_parts:
        return sp.csr_matrix((total, total), dtype=np.float64), offsets
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    data = np.ones(rows.size, dtype=np.float64)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(total, total))
    matrix.data[:] = 1.0  # collapse parallel edges
    return matrix, offsets


def normalized_adjacency_from_matrix(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """``D̃^{-1/2}(A + I)D̃^{-1/2}`` for a square sparse adjacency.

    The per-graph Eq. 12 oracle: :func:`repro.gnn.data.encode_graphs`
    must match it bit for bit (same index layout, same floating-point
    operation order).
    """
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValidationError(
            f"adjacency must be square, got shape {adjacency.shape}"
        )
    n = adjacency.shape[0]
    with_loops = adjacency.tocsr() + sp.identity(n, format="csr")
    degree = np.asarray(with_loops.sum(axis=1)).ravel()
    inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(degree), 0.0)
    scale = sp.diags(inv_sqrt)
    return (scale @ with_loops @ scale).tocsr()


def normalized_adjacency(graph) -> sp.csr_matrix:
    """The renormalised adjacency of one address graph (either flavour:
    :class:`AddressGraph` or :class:`~repro.graphs.arrays.ArrayGraph`).

    Test oracle for the batched encoder; production encodes through
    :func:`repro.gnn.data.encode_graphs`.
    """
    return normalized_adjacency_from_matrix(graph.adjacency_matrix())
