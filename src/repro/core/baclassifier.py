"""BAClassifier — the paper's end-to-end address behaviour classifier.

``fit`` runs the full three-stage pipeline on labelled addresses:

1. **Address graph construction**: slice each address's transaction
   history and build compressed, augmented graphs
   (:mod:`repro.graphs.pipeline`).
2. **Graph representation learning**: train a GFN on slice graphs
   (graph label = address label) and harvest pre-classifier embeddings.
3. **Address classification**: train an LSTM+MLP head on each address's
   embedding sequence (Eq. 22).

``predict`` replays stages 1–2 with the frozen encoder and applies the
trained head.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.explorer import ChainIndex
from repro.core.config import BAClassifierConfig
from repro.core.embedding import embedding_sequences
from repro.errors import NotFittedError, ValidationError
from repro.eval.curves import TrainingCurve
from repro.gnn.data import EncodedGraph, build_encoded
from repro.gnn.gfn import GFN
from repro.gnn.training import fit_graph_classifier
from repro.graphs.model import NODE_FEATURE_DIM
from repro.graphs.pipeline import GraphConstructionPipeline
from repro.nn.serialize import load_module, save_module
from repro.seqmodels.heads import build_head
from repro.seqmodels.trainer import (
    fit_sequence_classifier,
    predict_proba_sequences,
    predict_sequences,
)
from repro.utils.rng import SeedSequenceFactory

__all__ = ["BAClassifier"]

_CONFIG_FILE = "config.json"
_ENCODER_FILE = "encoder.json"
_HEAD_FILE = "head.json"


class BAClassifier:
    """Bitcoin address behaviour classifier (graph NN + LSTM head)."""

    def __init__(self, config: Optional[BAClassifierConfig] = None):
        self.config = config or BAClassifierConfig()
        self._seeds = SeedSequenceFactory(self.config.seed)
        self.pipeline = GraphConstructionPipeline(self.config.pipeline_config())
        self.encoder = GFN(
            input_dim=NODE_FEATURE_DIM,
            num_classes=self.config.num_classes,
            hidden_dim=self.config.gnn_hidden_dim,
            k=self.config.gfn_k,
            rng=self._seeds.generator("encoder"),
        )
        self.head = build_head(
            self.config.head_name,
            input_dim=self.encoder.embedding_dim,
            num_classes=self.config.num_classes,
            hidden_dim=self.config.head_hidden_dim,
            rng=self._seeds.generator("head"),
        )
        self._fitted = False
        self.encoder_curve: Optional[TrainingCurve] = None
        self.head_curve: Optional[TrainingCurve] = None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def fit(
        self,
        addresses: Sequence[str],
        labels: Sequence[int],
        index: ChainIndex,
        eval_addresses: Optional[Sequence[str]] = None,
        eval_labels: Optional[Sequence[int]] = None,
    ) -> "BAClassifier":
        """Run the full training pipeline on labelled addresses.

        Passing an evaluation split records per-epoch F1 curves on both
        stages (``encoder_curve`` / ``head_curve``).
        """
        addresses = list(addresses)
        labels = np.asarray(labels, dtype=np.int64)
        if len(addresses) != len(labels):
            raise ValidationError("addresses and labels must align")
        if len(addresses) == 0:
            raise ValidationError("fit needs at least one address")

        encoded = self._encode(index, addresses, dict(zip(addresses, labels)))
        train_graphs = [g for address in addresses for g in encoded[address]]

        eval_graphs: Optional[List[EncodedGraph]] = None
        eval_encoded: Optional[Dict[str, List[EncodedGraph]]] = None
        if eval_addresses is not None and eval_labels is not None:
            eval_addresses = list(eval_addresses)
            eval_label_map = dict(zip(eval_addresses, np.asarray(eval_labels)))
            eval_encoded = self._encode(index, eval_addresses, eval_label_map)
            eval_graphs = [g for a in eval_addresses for g in eval_encoded[a]]

        self.encoder_curve = fit_graph_classifier(
            self.encoder,
            train_graphs,
            self.config.gnn_training_config(),
            eval_graphs=eval_graphs,
            curve_name="GFN",
        )

        sequences = embedding_sequences(self.encoder, encoded, addresses)
        eval_sequences = None
        if eval_encoded is not None:
            eval_sequences = embedding_sequences(
                self.encoder, eval_encoded, list(eval_encoded)
            )
            eval_labels_arr = np.asarray(
                [eval_label_map[a] for a in eval_encoded], dtype=np.int64
            )
        else:
            eval_labels_arr = None
        self._fit_head_with_restarts(
            sequences, labels, eval_sequences, eval_labels_arr
        )
        self._fitted = True
        return self

    def _fit_head_with_restarts(
        self,
        sequences,
        labels: np.ndarray,
        eval_sequences,
        eval_labels,
    ) -> None:
        """Train the head ``head_restarts`` times; keep the best by
        training-set weighted F1.

        The LSTM head occasionally lands in a collapsed optimum (one class
        absorbed into a neighbour); restarts with fresh initialisation are
        the standard remedy and are cheap relative to graph construction.
        """
        from repro.eval.metrics import precision_recall_f1

        best_f1 = -1.0
        best_state = None
        best_curve = None
        base_config = self.config.head_training_config()
        for restart in range(self.config.head_restarts):
            head = build_head(
                self.config.head_name,
                input_dim=self.encoder.embedding_dim,
                num_classes=self.config.num_classes,
                hidden_dim=self.config.head_hidden_dim,
                rng=self._seeds.generator(f"head/{restart}"),
            )
            config = dataclasses.replace(
                base_config, seed=self._seeds.seed(f"head-train/{restart}")
            )
            curve = fit_sequence_classifier(
                head,
                sequences,
                labels,
                config,
                eval_sequences=eval_sequences,
                eval_labels=eval_labels,
                curve_name=self.config.head_name,
            )
            train_predictions = predict_sequences(
                head, sequences, self.config.max_sequence_length
            )
            train_f1 = precision_recall_f1(
                labels, train_predictions, num_classes=self.config.num_classes
            ).weighted_f1
            if train_f1 > best_f1:
                best_f1 = train_f1
                best_state = head.state_dict()
                best_curve = curve
        self.head.load_state_dict(best_state)
        self.head_curve = best_curve

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #

    def predict(self, addresses: Sequence[str], index: ChainIndex) -> np.ndarray:
        """Predicted class per address."""
        sequences = self.embed(addresses, index)
        return predict_sequences(
            self.head, sequences, self.config.max_sequence_length
        )

    def predict_proba(
        self, addresses: Sequence[str], index: ChainIndex
    ) -> np.ndarray:
        """Class-probability matrix ``(len(addresses), num_classes)``."""
        sequences = self.embed(addresses, index)
        return predict_proba_sequences(
            self.head, sequences, self.config.max_sequence_length
        )

    def classify_address(self, address: str, index: ChainIndex) -> int:
        """Predicted class of a single address."""
        return int(self.predict([address], index)[0])

    def embed(
        self, addresses: Sequence[str], index: ChainIndex
    ) -> List[np.ndarray]:
        """Per-address embedding sequences under the trained encoder."""
        self._require_fitted()
        addresses = list(addresses)
        encoded = self._encode(index, addresses, {})
        return embedding_sequences(self.encoder, encoded, addresses)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, directory: "str | Path") -> None:
        """Persist config plus both model stages to ``directory``."""
        self._require_fitted()
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        (path / _CONFIG_FILE).write_text(
            json.dumps(dataclasses.asdict(self.config), indent=2)
        )
        save_module(self.encoder, path / _ENCODER_FILE)
        save_module(self.head, path / _HEAD_FILE)

    @classmethod
    def load(cls, directory: "str | Path") -> "BAClassifier":
        """Restore a classifier saved with :meth:`save`."""
        path = Path(directory)
        config = BAClassifierConfig(
            **json.loads((path / _CONFIG_FILE).read_text())
        )
        model = cls(config)
        load_module(model.encoder, path / _ENCODER_FILE)
        load_module(model.head, path / _HEAD_FILE)
        model._fitted = True
        return model

    @property
    def is_fitted(self) -> bool:
        """Whether the classifier has been fitted (or loaded)."""
        return self._fitted

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _encode(
        self,
        index: ChainIndex,
        addresses: Sequence[str],
        label_map: Dict[str, int],
    ) -> Dict[str, List[EncodedGraph]]:
        return build_encoded(
            self.pipeline,
            index,
            {address: None for address in addresses},
            span="classifier.encode",
            labels_by_address=label_map,
            gfn_k=self.encoder.k,
        )

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(
                "BAClassifier must be fitted (or loaded) before inference"
            )
