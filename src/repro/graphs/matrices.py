"""Adjacency-matrix builders for graph neural networks (paper Eq. 12).

``Ã = D̃^{-1/2}(A + I)D̃^{-1/2}`` — the renormalised adjacency of Kipf &
Welling, used by both the GFN feature-propagation step (Eq. 13) and the
GCN baseline.

:func:`symmetric_adjacency` builds a build's one block-diagonal
adjacency from its pack's global edge columns.  Stage 4
(:func:`repro.graphs.augmentation.augment_pack`) runs its centrality
kernels over diagonal-block slices of it, and
:func:`repro.gnn.data.encode_pack` renormalises the same matrix into
every graph's Ã (and, for GFN, propagates Eq. 13 over it) in one
sweep.  The per-graph :func:`normalized_adjacency` /
:func:`normalized_adjacency_from_matrix` are the Eq. 12 oracle the
tests hold the packed encoder to; no production path calls them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError

__all__ = [
    "normalized_adjacency",
    "normalized_adjacency_from_matrix",
    "symmetric_adjacency",
]


def symmetric_adjacency(
    edge_src: np.ndarray, edge_dst: np.ndarray, num_nodes: int
) -> sp.csr_matrix:
    """Symmetric unweighted adjacency of a directed edge list, as CSR.

    Called with a :class:`~repro.graphs.arrays.GraphPack`'s global edge
    columns it yields the build's block-diagonal adjacency: each
    diagonal block equals that graph's own ``adjacency_matrix()``
    (canonical: sorted, deduplicated, all-ones data), and the matrix is
    its own transpose array for array, so Stage 4 hands it to the
    centrality sweeps as ``Aᵀ`` too.
    """
    if edge_src.size == 0:
        return sp.csr_matrix((num_nodes, num_nodes), dtype=np.float64)
    rows = np.concatenate([edge_src, edge_dst])
    cols = np.concatenate([edge_dst, edge_src])
    data = np.ones(rows.size, dtype=np.float64)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
    matrix.data[:] = 1.0  # collapse parallel edges
    return matrix


def normalized_adjacency_from_matrix(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """``D̃^{-1/2}(A + I)D̃^{-1/2}`` for a square sparse adjacency.

    The per-graph Eq. 12 oracle: :func:`repro.gnn.data.encode_pack`
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
    """The renormalised adjacency of one
    :class:`~repro.graphs.arrays.ArrayGraph`.

    Test oracle for the packed encoder; production encodes through
    :func:`repro.gnn.data.encode_pack`.
    """
    return normalized_adjacency_from_matrix(graph.adjacency_matrix())
