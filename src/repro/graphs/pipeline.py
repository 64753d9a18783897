"""The staged address-graph construction pipeline (paper §IV-E, Table V).

Chains the four construction stages — original graph extraction,
single-transaction compression, multi-transaction compression, structure
augmentation — with per-stage wall-clock accounting, so Table V's
stage-cost breakdown can be regenerated directly from the pipeline's
timer.

The pipeline runs natively on columnar arrays, and each stage runs once
per build over every slice graph of the call: Stage 1 builds all of
them from the slices' transaction columns into one
:class:`~repro.graphs.arrays.GraphPack` (one global node space with
per-graph offsets), Stages 2–3 compress the pack in one pass each
(array union-find + ``bincount`` aggregation, no per-graph loop), and
Stage 4 (:func:`~repro.graphs.augmentation.augment_pack`) builds the
pack's symmetric block-diagonal adjacency once and attaches the
stacked centralities as the pack's ``centrality`` column.
:meth:`GraphConstructionPipeline.build_pack` returns the pack and that
adjacency, which the encoder (:func:`repro.gnn.data.build_encoded`)
reuses for Eq. 12–13; :meth:`~GraphConstructionPipeline.build_many`
cuts the pack into per-graph :class:`~repro.graphs.arrays.ArrayGraph`
views for the classical models, which flatten raw graphs.  Every graph
is bit-identical to a build of its slice alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import scipy.sparse as sp

from repro import obs
from repro.chain.explorer import ChainIndex
from repro.errors import GraphConstructionError, ValidationError
from repro.graphs.augmentation import augment_pack
from repro.graphs.compression import (
    compress_multi_transaction_pack,
    compress_single_transaction_pack,
)
from repro.graphs.arrays import ArrayGraph, GraphPack
from repro.graphs.extraction import build_original_pack
from repro.utils.timer import StageTimer

__all__ = [
    "GraphPipelineConfig",
    "GraphConstructionPipeline",
    "STAGE_NAMES",
]

STAGE_NAMES = (
    "stage1_extraction",
    "stage2_single_compression",
    "stage3_multi_compression",
    "stage4_augmentation",
)

#: Registry histogram per stage: one observation per packed stage pass
#: over a build's graphs, which is how operators read stage latency.
#: The per-graph Table-V means come from the pipeline's own timer.
_STAGE_HISTOGRAMS = {
    STAGE_NAMES[0]: obs.histogram("pipeline_stage1_extraction_seconds"),
    STAGE_NAMES[1]: obs.histogram(
        "pipeline_stage2_single_compression_seconds"
    ),
    STAGE_NAMES[2]: obs.histogram(
        "pipeline_stage3_multi_compression_seconds"
    ),
    STAGE_NAMES[3]: obs.histogram("pipeline_stage4_augmentation_seconds"),
}

#: Span names per stage (``with obs.span(...)`` around each stage pass).
_STAGE_SPANS = {
    STAGE_NAMES[0]: "pipeline.stage1_extraction",
    STAGE_NAMES[1]: "pipeline.stage2_single_compression",
    STAGE_NAMES[2]: "pipeline.stage3_multi_compression",
    STAGE_NAMES[3]: "pipeline.stage4_augmentation",
}


@dataclass(frozen=True)
class GraphPipelineConfig:
    """Construction parameters.

    ``slice_size`` is the paper's 100-transaction slicing unit; ``psi``
    (Ψ) and ``sigma`` (σ) are the multi-transaction compression
    thresholds.  The ``enable_*`` switches exist for the compression
    and augmentation ablation benchmarks.
    """

    slice_size: int = 100
    psi: float = 0.6
    sigma: int = 2
    enable_single_compression: bool = True
    enable_multi_compression: bool = True
    enable_augmentation: bool = True

    def __post_init__(self) -> None:
        if self.slice_size <= 0:
            raise ValidationError(f"slice_size must be > 0, got {self.slice_size}")
        if not 0.0 < self.psi <= 1.0:
            raise ValidationError(f"psi must be in (0, 1], got {self.psi}")
        if self.sigma < 1:
            raise ValidationError(f"sigma must be >= 1, got {self.sigma}")

    def fingerprint(self) -> str:
        """Stable digest of the construction parameters.

        Two configs with equal fingerprints build identical graphs from
        identical transaction histories, so the digest is safe to use as
        a cache-key component (see :mod:`repro.serve`).  Every field is
        an output-affecting construction parameter.
        """
        return hashlib.sha256(
            json.dumps(dataclasses.asdict(self), sort_keys=True).encode(
                "utf-8"
            )
        ).hexdigest()[:16]


class GraphConstructionPipeline:
    """Builds per-slice address graphs with per-stage timing."""

    def __init__(self, config: "GraphPipelineConfig | None" = None):
        self.config = config or GraphPipelineConfig()
        self.timer = StageTimer()

    def _record(self, name: str, seconds: float, pack: GraphPack) -> None:
        """Account one packed pass of stage ``name`` over ``pack``.

        The timer entry is amortised over the pack's graphs, so
        :meth:`stage_report` keeps its per-graph means; the stage's
        registry histogram takes the pass as one observation.
        """
        self.timer.add(name, seconds, count=len(pack))
        _STAGE_HISTOGRAMS[name].observe(seconds)

    def _extract(
        self,
        index: ChainIndex,
        requests: "Dict[str, Optional[Sequence[int]]]",
    ) -> Optional[GraphPack]:
        """Stage 1 for every requested slice, as one pack.

        Returns the pack (``None`` when nothing was requested); its
        graphs follow request order, slices ascending.  Each address's
        history comes from the index as
        :class:`~repro.chain.explorer.TxArrays` columns in slice order
        (:meth:`~repro.chain.explorer.ChainIndex.transaction_columns_of`,
        interned at ingest in memory, mapped by the chain store), and
        one :func:`build_original_pack` pass builds every slice of the
        call.
        """
        size = self.config.slice_size
        centers: List[str] = []
        chunks: list = []
        wanted_indices: List[int] = []
        prep_seconds = 0.0
        for address, slice_indices in requests.items():
            start = time.perf_counter()
            history = index.transaction_columns_of(address)
            if not history:
                raise GraphConstructionError(
                    f"address {address[:12]} has no transactions on chain"
                )
            num_slices = -(-len(history) // size)
            if slice_indices is None:
                wanted = list(range(num_slices))
            else:
                wanted = sorted(set(int(i) for i in slice_indices))
                for i in wanted:
                    if not 0 <= i < num_slices:
                        raise ValidationError(
                            f"slice index {i} out of range [0, {num_slices})"
                            f" for {address[:12]}"
                        )
            # Fetch/slicing spans the whole history, so a partial rebuild
            # is only charged its share of it — keeping the per-graph
            # mean (Table V) comparable between full and incremental
            # builds.
            prep_seconds += (
                (time.perf_counter() - start) * len(wanted) / num_slices
            )
            centers.extend([address] * len(wanted))
            chunks.extend(history[i * size: (i + 1) * size] for i in wanted)
            wanted_indices.extend(wanted)
        start = time.perf_counter()
        if not chunks:
            return None
        pack = build_original_pack(index, centers, chunks, wanted_indices)
        # Stage 1 covers fetch + chronological slicing + construction.
        self._record(
            STAGE_NAMES[0], prep_seconds + time.perf_counter() - start, pack
        )
        return pack

    def _compress(self, pack: GraphPack) -> GraphPack:
        """Stages 2–3, each one packed pass over every graph of the build.

        Each pass is timed once and amortised over the pack
        (``count=len(pack)``), so ``stage_report()`` keeps its
        per-graph mean semantics.
        """
        cfg = self.config
        stages = [
            (
                cfg.enable_single_compression,
                STAGE_NAMES[1],
                compress_single_transaction_pack,
            ),
            (
                cfg.enable_multi_compression,
                STAGE_NAMES[2],
                lambda p: compress_multi_transaction_pack(
                    p, psi=cfg.psi, sigma=cfg.sigma
                ),
            ),
        ]
        for enabled, name, transform in stages:
            if not enabled:
                continue
            with obs.span(_STAGE_SPANS[name]):
                start = time.perf_counter()
                pack = transform(pack)
                self._record(name, time.perf_counter() - start, pack)
        return pack

    def _augment(self, pack: GraphPack) -> sp.csr_matrix:
        """Stage 4 over the whole pack; returns its adjacency.

        One timed pass amortised over the pack (``count=len(pack)``),
        so ``stage_report()`` keeps its per-graph mean semantics.
        """
        name = STAGE_NAMES[3]
        with obs.span(_STAGE_SPANS[name]):
            start = time.perf_counter()
            adjacency = augment_pack(pack)
            self._record(name, time.perf_counter() - start, pack)
        return adjacency

    def build_many(
        self, index: ChainIndex, addresses: Sequence[str]
    ) -> Dict[str, List[ArrayGraph]]:
        """Every slice graph of many addresses: ``{address: [graphs...]}``.

        :meth:`build_pack` over every slice of ``addresses``, cut into
        per-graph :class:`ArrayGraph` views, slices ascending.
        """
        pack, _ = self.build_pack(
            index, {address: None for address in addresses}
        )
        built: Dict[str, List[ArrayGraph]] = {
            address: [] for address in addresses
        }
        if pack is not None:
            for graph in pack.graphs():
                built[graph.center_address].append(graph)
        return built

    def build_pack(
        self,
        index: ChainIndex,
        requests: "Dict[str, Optional[Sequence[int]]]",
    ) -> Tuple[Optional[GraphPack], Optional[sp.csr_matrix]]:
        """Stages 1–4 over every requested slice, as one pack.

        ``requests`` maps each address to the slice indices wanted
        (``None`` = every slice).  Only the slices at or after a
        previous partial slice change when new blocks touch an address,
        so the serving layer rebuilds just those.  Stage 1 builds
        every slice graph of the call into one
        :class:`~repro.graphs.arrays.GraphPack`, Stages 2–3 compress it
        in one pass each, and Stage 4 attaches the stacked centralities
        as the pack's ``centrality`` column.  Returns the pack (graphs
        in request order, slices ascending; ``None`` when nothing was
        requested) and its symmetric block-diagonal adjacency from
        Stage 4 (``None`` with augmentation off), which
        :func:`repro.gnn.data.encode_pack` reuses.
        """
        with obs.span(_STAGE_SPANS[STAGE_NAMES[0]]):
            pack = self._extract(index, requests)
        if pack is None:
            return None, None
        pack = self._compress(pack)
        adjacency = None
        if self.config.enable_augmentation:
            adjacency = self._augment(pack)
        return pack, adjacency

    def stage_report(self) -> List[Dict[str, float]]:
        """Per-stage rows: name, total seconds, share, mean, entry count.

        Directly regenerates the shape of the paper's Table V.  Every
        timer entry covers exactly one slice graph (extraction time is
        amortised over the graphs it produced), so ``mean_seconds`` is
        the per-graph cost Table V reports — not a per-address figure.
        ``graphs_per_second`` is its reciprocal throughput, the quantity
        tracked by ``benchmarks/bench_pipeline_throughput.py``.
        """
        timer = self.timer
        ratios = timer.ratios()
        report = []
        for name in timer.stage_names:
            total = timer.totals[name]
            count = timer.counts[name]
            report.append(
                {
                    "stage": name,
                    "total_seconds": total,
                    "ratio": ratios[name],
                    "mean_seconds": timer.mean(name),
                    "entries": count,
                    "graphs_per_second": count / total if total > 0 else 0.0,
                }
            )
        return report
