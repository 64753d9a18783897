"""Golden end-to-end regression: pipeline output vs a stored artifact.

The property tests in ``test_arraygraph_pipeline.py`` assert
*self*-parity (array pipeline == reference object pipeline built from
the same source).  This suite instead diffs fresh pipeline output
against ``tests/data/golden_pipeline.npz`` — tensors checked in from a
known-good run — so a refactor that changes both implementations in the
same wrong way still fails loudly.

The fixture economy is :func:`repro.testing.golden_chain` (fixed, no
rng); regenerate the artifact with ``python tests/data/make_golden.py``
only when pipeline semantics change deliberately.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import BAClassifier, BAClassifierConfig
from repro.gnn.data import encode_graph
from repro.graphs import GraphConstructionPipeline, GraphPipelineConfig
from repro.testing import golden_chain

sys.path.insert(0, str(Path(__file__).parent / "data"))
from make_golden import (  # noqa: E402
    GOLDEN_LABELS,
    GOLDEN_PATH,
    GOLDEN_SLICE_SIZE,
)


@pytest.fixture(scope="module")
def golden():
    """The stored artifact as a plain dict of arrays."""
    with np.load(GOLDEN_PATH) as stored:
        return {name: stored[name] for name in stored.files}


@pytest.fixture(scope="module")
def world():
    return golden_chain()


def test_golden_chain_is_stable(golden, world):
    """The fixture economy itself must not have drifted (clear failure
    mode: regenerate nothing, fix the chain helper instead)."""
    _, index, addresses = world
    np.testing.assert_array_equal(
        golden["transaction_counts"],
        [index.transaction_count(a) for a in addresses],
    )


def test_encoded_tensors_match_golden(golden, world):
    _, index, addresses = world
    pipeline = GraphConstructionPipeline(
        GraphPipelineConfig(slice_size=GOLDEN_SLICE_SIZE)
    )
    seen = {"transaction_counts", "scores"}
    for i, address in enumerate(addresses):
        for graph in pipeline.build_many(index, [address])[address]:
            encoded = encode_graph(graph)
            stem = f"addr{i}_slice{graph.slice_index}"
            np.testing.assert_allclose(
                encoded.features,
                golden[f"{stem}_features"],
                rtol=1e-9,
                atol=1e-9,
                err_msg=f"feature drift in {stem}",
            )
            np.testing.assert_allclose(
                encoded.adjacency.toarray(),
                golden[f"{stem}_adjacency"],
                rtol=1e-9,
                atol=1e-9,
                err_msg=f"adjacency drift in {stem}",
            )
            seen.update({f"{stem}_features", f"{stem}_adjacency"})
    assert seen == set(golden), "pipeline produced different slice graphs"


def test_model_scores_match_golden(golden, world):
    """Deterministically retrained classifier reproduces stored scores.

    Training is seeded and pure numpy, so scores are reproducible; the
    loose tolerance absorbs BLAS summation-order differences across
    machines, while real pipeline regressions move scores far more.
    """
    _, index, addresses = world
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
    scores = classifier.predict_proba(addresses, index)
    np.testing.assert_allclose(
        scores, golden["scores"], rtol=1e-5, atol=1e-7
    )
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, rtol=1e-9)
    # The compiled-plan inference path (the default above) must be bit
    # identical to the autograd tape — not merely within tolerance.
    from repro.nn.inference import plan_execution

    with plan_execution(False):
        tape_scores = classifier.predict_proba(addresses, index)
    assert np.array_equal(scores, tape_scores), (
        "plan-path scores diverge from the tape path"
    )
