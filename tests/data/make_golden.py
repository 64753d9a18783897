"""Regenerate ``golden_pipeline.npz`` — the golden regression artifact.

Run from the repo root (only when pipeline semantics change *on
purpose*; the golden test exists to catch accidental drift)::

    PYTHONPATH=src python tests/data/make_golden.py

The artifact stores, for the fixed :func:`repro.testing.golden_chain`
economy: every encoded slice-graph tensor (feature matrix + dense
renormalised adjacency) produced by the ArrayGraph pipeline, and the
class-probability matrix of a deterministically trained tiny
:class:`~repro.core.BAClassifier`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).parent / "golden_pipeline.npz"

#: Construction/model knobs of the fixture (mirrored by the test).
GOLDEN_SLICE_SIZE = 4
GOLDEN_LABELS = (0, 1, 0)


def golden_payload() -> dict:
    """Build the golden arrays from a fresh pipeline + classifier run."""
    from repro.core import BAClassifier, BAClassifierConfig
    from repro.gnn.data import encode_graph
    from repro.graphs import GraphConstructionPipeline, GraphPipelineConfig
    from repro.testing import golden_chain

    _, index, addresses = golden_chain()
    pipeline = GraphConstructionPipeline(
        GraphPipelineConfig(slice_size=GOLDEN_SLICE_SIZE)
    )
    payload = {
        "transaction_counts": np.array(
            [index.transaction_count(a) for a in addresses], dtype=np.int64
        ),
    }
    for i, address in enumerate(addresses):
        for graph in pipeline.build_many(index, [address])[address]:
            encoded = encode_graph(graph)
            stem = f"addr{i}_slice{graph.slice_index}"
            payload[f"{stem}_features"] = encoded.features
            payload[f"{stem}_adjacency"] = encoded.adjacency.toarray()

    classifier = BAClassifier(
        BAClassifierConfig(
            num_classes=2,
            slice_size=GOLDEN_SLICE_SIZE,
            gnn_epochs=2,
            head_epochs=2,
            gnn_hidden_dim=8,
            head_hidden_dim=8,
            head_restarts=1,
            seed=0,
        )
    )
    classifier.fit(
        addresses, np.array(GOLDEN_LABELS, dtype=np.int64), index
    )
    payload["scores"] = classifier.predict_proba(addresses, index)
    return payload


if __name__ == "__main__":
    np.savez_compressed(GOLDEN_PATH, **golden_payload())
    with np.load(GOLDEN_PATH) as stored:
        print(f"wrote {GOLDEN_PATH} with {len(stored.files)} arrays:")
        for name in stored.files:
            print(f"  {name}: {stored[name].shape}")
