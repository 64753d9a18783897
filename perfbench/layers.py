"""Per-layer self time, measured from outside the program.

The serving stack is instrumented with its own ``repro.obs`` spans, but
a benchmark that read them could be fooled by a change that moves or
drops a span.  This module instead wraps the Python callables at each
layer boundary of the scoring path, from the benchmark's side, and
keeps its own books: for every layer, the number of calls and the time
spent in it minus the time spent in wrapped layers it called (its
*self* time).  Nesting is tracked per thread, so the micro-batcher's
and the query executor's threads account independently.

The wrappers are only installed for a traced run (``--trace 1``); the
end-to-end figures come from untraced runs.  A boundary that no longer
exists under its name is skipped (its layer then reads zero) rather
than failing the run, since layer names are expected to drift as the
code is refactored.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from typing import Callable, Dict, Iterator, List, Tuple

#: (layer, module or class path, attribute).  Order is the order of the
#: scoring path: micro-batch split/merge -> one scoring pass
#: (``request``) -> shard plan -> slice build (Stages 1-4 and encoding
#: in-process; the worker round trip when pooled) -> commit -> embed
#: (embedding-cache-first, then the GNN forward) -> sequence head.
#: ``chain`` is block validation and indexing on append, and ``append``
#: the replica's invalidation and streaming of the block to its workers.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("batch", "repro.serve.cluster:_MicroBatcher", "_execute"),
    ("request", "repro.serve.cluster:ClusterScoringService", "_score_addresses"),
    ("plan", "repro.serve.cluster:_Shard", "plan_members"),
    ("build", "repro.serve.cluster:ClusterScoringService", "_build"),
    ("stage1", "repro.graphs.pipeline:GraphConstructionPipeline", "_extract"),
    ("stage2", "repro.graphs.pipeline", "compress_single_transaction_addresses"),
    ("stage3", "repro.graphs.pipeline", "compress_multi_transaction_addresses"),
    ("stage4", "repro.graphs.pipeline", "augment_graphs"),
    ("encode", "repro.serve.cluster", "encode_graph"),
    ("commit", "repro.serve.cluster:_Shard", "commit_members"),
    ("embed", "repro.serve.service", "_embed_entries"),
    ("gnn", "repro.gnn.base:GraphClassifier", "embed_graphs"),
    ("head", "repro.serve.service", "predict_proba_sequences"),
    ("chain", "repro.chain.chain:Blockchain", "append_block"),
    ("append", "repro.serve.cluster:ClusterScoringService", "on_block"),
)

LAYERS: Tuple[str, ...] = tuple(name for name, _, _ in BOUNDARIES)


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class LayerTable:
    """Self time and call counts per layer, across threads.

    Calls are only counted while ``recording`` is set, so set-up and
    warm-up passes stay out of the table.
    """

    def __init__(self) -> None:
        self.recording = False
        self.self_seconds: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[float]:
        """This thread's open wrapped calls, as time spent in callees."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)  # time spent in wrapped callees
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.self_seconds[layer] += elapsed - children
                    self.calls[layer] += 1

        return timed

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTable"]:
        """Wrap every boundary for the duration of the block."""
        originals = []
        try:
            for layer, path, attribute in BOUNDARIES:
                try:
                    owner = _resolve(path)
                except (ImportError, AttributeError):
                    continue
                original = owner.__dict__.get(attribute)
                if original is None or not callable(original):
                    continue
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(layer, original))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)
