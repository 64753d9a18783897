"""On-disk persistence of warm serving caches (``CacheStore``).

A scoring replica's steady state — encoded slice graphs plus per-slice
embedding rows — is expensive to rebuild and, on an append-only chain,
perfectly reusable across restarts.  This module persists that state as
plain ndarray columns so a replica can come back *warm*:

- **Keying.**  Every store directory is keyed by
  ``(pipeline fingerprint, model version)``: the fingerprint pins the
  construction parameters the cached graphs were built under (see
  :meth:`~repro.graphs.pipeline.GraphPipelineConfig.fingerprint`), the
  model version pins the encoder weights the embeddings and memoised
  GFN features were computed with (:func:`encoder_version`, a digest of
  the module's ``state_dict``).  A retrained encoder or a changed
  construction config lands in a *different* directory, so stale warm
  state can never be loaded by accident — version-keying **is** the
  invalidation story.
- **Format.**  One ``.npz`` of numeric ndarrays plus a JSON manifest
  per bundle — loaded with ``allow_pickle=False``, so the store never
  executes pickled payloads.  An :class:`~repro.gnn.data.EncodedGraph`
  is flattened to its columns (features, CSR adjacency triple, and the
  memoised model-cache arrays such as GFN's propagated features);
  embedding rows are stacked into one matrix.
- **Bundles.**  A store holds one bundle per shard (the serving layer
  names them ``shard_0000`` …); loaders iterate every bundle, whatever
  its name, and re-route entries through their own shard router, so a
  store written by an N-shard service can warm an M-shard one.
- **Trust.**  Each bundle records the transaction count every cached
  address was built at (``covered``).  Loading only trusts an address
  whose *current* on-chain count still equals the recorded one — any
  growth observed while the replica was down means unobserved appends,
  exactly the case the live invalidation protocol cannot vouch for, so
  those addresses simply rebuild cold.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.gnn.data import EncodedGraph

__all__ = ["CacheStore", "WarmState", "encoder_version"]

#: Bump when the on-disk layout changes; loaders reject other versions.
STORE_FORMAT_VERSION = 1

_MANIFEST_SUFFIX = ".json"
_ARRAYS_SUFFIX = ".npz"


def encoder_version(module) -> str:
    """Stable digest of a module's parameters (the *model version*).

    Hashes every ``state_dict`` entry — name, dtype, shape, and raw
    buffer bytes — so any retrain, fine-tune, or architecture change
    yields a new version string, and a freshly :meth:`loaded
    <repro.core.BAClassifier.load>` replica of the same weights yields
    the same one.  Used to key warm stores and the serving layer's
    embedding cache.
    """
    digest = hashlib.sha256()
    state = module.state_dict()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(np.asarray(array.shape, dtype=np.int64).tobytes())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


@dataclass
class WarmState:
    """One bundle's worth of warm serving state, in memory.

    ``entries`` are cached slice graphs as ``(address, slice_index,
    payload)``; ``embeddings`` are per-slice embedding rows keyed the
    same way; ``covered`` maps each address to the transaction count
    its cached slices were built from (the loader's trust anchor).
    """

    entries: List[Tuple[str, int, EncodedGraph]] = field(
        default_factory=list
    )
    embeddings: List[Tuple[str, int, np.ndarray]] = field(
        default_factory=list
    )
    covered: Dict[str, int] = field(default_factory=dict)


def _require_numeric(name: str, array: np.ndarray) -> np.ndarray:
    array = np.asarray(array)
    if array.dtype == object or array.dtype.hasobject:
        raise ValidationError(
            f"warm store only persists numeric ndarrays; {name} has "
            f"dtype {array.dtype}"
        )
    return array


class CacheStore:
    """Pickle-free ndarray persistence of warm caches, version-keyed.

    Parameters
    ----------
    root:
        Base directory; each ``(pipeline_fingerprint, model_version)``
        pair owns the subdirectory ``<root>/<fingerprint>-<version>``.
    pipeline_fingerprint / model_version:
        The two components of the store key (see the module docstring).
    """

    def __init__(
        self,
        root: "str | Path",
        pipeline_fingerprint: str,
        model_version: str,
    ):
        self.root = Path(root)
        self.pipeline_fingerprint = str(pipeline_fingerprint)
        self.model_version = str(model_version)

    @property
    def directory(self) -> Path:
        """This key's store directory (may not exist yet)."""
        return self.root / f"{self.pipeline_fingerprint}-{self.model_version}"

    def bundle_names(self) -> List[str]:
        """Names of the bundles saved under this store key, sorted."""
        directory = self.directory
        if not directory.is_dir():
            return []
        return sorted(
            path.stem
            for path in directory.glob(f"*{_ARRAYS_SUFFIX}")
            if path.with_suffix(_MANIFEST_SUFFIX).exists()
        )

    # ------------------------------------------------------------------ #
    # Saving
    # ------------------------------------------------------------------ #

    def save_warm(self, name: str, state: WarmState) -> Path:
        """Persist one bundle; returns the written ``.npz`` path.

        Each file is written to a temp sibling and ``os.replace``d into
        place (atomic on POSIX), and a random token pairs the arrays
        file with its manifest — so a crash mid-save can never leave a
        silently-mismatched bundle: the loader sees the token mismatch,
        raises, and the serving layer's ``load_warm`` skips the bundle
        (a cold rebuild, not a corrupt warm start).  Re-saving a name
        overwrites the previous bundle.
        """
        if not name or "/" in name or name.startswith("."):
            raise ValidationError(f"invalid bundle name: {name!r}")
        directory = self.directory
        directory.mkdir(parents=True, exist_ok=True)
        arrays: Dict[str, np.ndarray] = {}
        manifest_entries = []
        for i, (address, slice_index, payload) in enumerate(state.entries):
            arrays[f"e{i}__features"] = _require_numeric(
                "features", payload.features
            )
            adjacency = payload.adjacency.tocsr()
            arrays[f"e{i}__adj_data"] = _require_numeric(
                "adjacency data", adjacency.data
            )
            arrays[f"e{i}__adj_indices"] = adjacency.indices
            arrays[f"e{i}__adj_indptr"] = adjacency.indptr
            cache_keys = sorted(payload.cache)
            for j, cache_key in enumerate(cache_keys):
                arrays[f"e{i}__cache{j}"] = _require_numeric(
                    f"cache[{cache_key!r}]", payload.cache[cache_key]
                )
            manifest_entries.append(
                {
                    "address": address,
                    "slice_index": int(slice_index),
                    "label": int(payload.label),
                    "cache_keys": cache_keys,
                }
            )
        embedding_rows = []
        for address, slice_index, row in state.embeddings:
            _require_numeric("embedding row", row)
            embedding_rows.append(
                {"address": address, "slice_index": int(slice_index)}
            )
        if state.embeddings:
            arrays["emb__matrix"] = np.stack(
                [np.asarray(row) for _, _, row in state.embeddings]
            )
        token = os.urandom(8).hex()
        manifest = {
            "format": STORE_FORMAT_VERSION,
            "token": token,
            "pipeline_fingerprint": self.pipeline_fingerprint,
            "model_version": self.model_version,
            "entries": manifest_entries,
            "embeddings": embedding_rows,
            "covered": {
                address: int(count)
                for address, count in state.covered.items()
            },
        }
        arrays_path = directory / f"{name}{_ARRAYS_SUFFIX}"
        manifest_path = directory / f"{name}{_MANIFEST_SUFFIX}"
        # np.savez writes even zero arrays fine; keep the format marker
        # so the file exists for bundle discovery on empty states.
        buffer = io.BytesIO()
        np.savez(
            buffer,
            __format__=np.int64(STORE_FORMAT_VERSION),
            __token__=np.frombuffer(bytes.fromhex(token), dtype=np.uint8),
            **arrays,
        )
        arrays_tmp = arrays_path.with_suffix(arrays_path.suffix + ".tmp")
        manifest_tmp = manifest_path.with_suffix(
            manifest_path.suffix + ".tmp"
        )
        arrays_tmp.write_bytes(buffer.getvalue())
        manifest_tmp.write_text(json.dumps(manifest))
        os.replace(arrays_tmp, arrays_path)
        os.replace(manifest_tmp, manifest_path)
        return arrays_path

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #

    def load_warm(self, name: str) -> Optional[WarmState]:
        """Load one bundle, or ``None`` when it does not exist.

        Arrays are loaded with ``allow_pickle=False``; a manifest whose
        key or format version disagrees with this store, a token that
        does not pair the manifest with its arrays file, or any
        corrupt/truncated content raises
        :class:`~repro.errors.ValidationError` rather than silently
        warming with foreign or partial state (the serving layer
        catches it per bundle and rebuilds cold).
        """
        directory = self.directory
        arrays_path = directory / f"{name}{_ARRAYS_SUFFIX}"
        manifest_path = directory / f"{name}{_MANIFEST_SUFFIX}"
        if not arrays_path.exists() or not manifest_path.exists():
            return None
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:
            raise ValidationError(
                f"corrupt warm-store manifest {manifest_path}: {exc}"
            ) from exc
        if manifest.get("format") != STORE_FORMAT_VERSION:
            raise ValidationError(
                f"warm-store bundle {name!r} has format "
                f"{manifest.get('format')}, expected {STORE_FORMAT_VERSION}"
            )
        if (
            manifest.get("pipeline_fingerprint") != self.pipeline_fingerprint
            or manifest.get("model_version") != self.model_version
        ):
            raise ValidationError(
                f"warm-store bundle {name!r} was written under a "
                "different (fingerprint, model version) key"
            )
        state = WarmState(covered={
            str(address): int(count)
            for address, count in manifest.get("covered", {}).items()
        })
        try:
            # np.load does not close a file it opened when the zip
            # directory is unreadable, so the handle is owned here.
            with open(arrays_path, "rb") as handle, np.load(
                handle, allow_pickle=False
            ) as arrays:
                token = manifest.get("token")
                if token is not None:
                    stored = bytes(arrays["__token__"]).hex()
                    if stored != token:
                        raise ValidationError(
                            f"warm-store bundle {name!r}: arrays/manifest "
                            "token mismatch (interrupted save?)"
                        )
                for i, entry in enumerate(manifest.get("entries", [])):
                    features = arrays[f"e{i}__features"]
                    n = features.shape[0]
                    adjacency = sp.csr_matrix(
                        (
                            arrays[f"e{i}__adj_data"],
                            arrays[f"e{i}__adj_indices"],
                            arrays[f"e{i}__adj_indptr"],
                        ),
                        shape=(n, n),
                    )
                    cache = {
                        cache_key: arrays[f"e{i}__cache{j}"]
                        for j, cache_key in enumerate(entry["cache_keys"])
                    }
                    state.entries.append(
                        (
                            str(entry["address"]),
                            int(entry["slice_index"]),
                            EncodedGraph(
                                features=features,
                                adjacency=adjacency,
                                label=int(entry["label"]),
                                address=str(entry["address"]),
                                slice_index=int(entry["slice_index"]),
                                cache=cache,
                            ),
                        )
                    )
                embedding_rows = manifest.get("embeddings", [])
                if embedding_rows:
                    matrix = arrays["emb__matrix"]
                    if matrix.shape[0] != len(embedding_rows):
                        raise ValidationError(
                            f"warm-store bundle {name!r}: embedding matrix "
                            f"rows {matrix.shape[0]} != manifest "
                            f"{len(embedding_rows)}"
                        )
                    for row_meta, row in zip(embedding_rows, matrix):
                        state.embeddings.append(
                            (
                                str(row_meta["address"]),
                                int(row_meta["slice_index"]),
                                np.array(row),
                            )
                        )
        except ValidationError:
            raise
        except (OSError, zipfile.BadZipFile, KeyError, TypeError, ValueError) as exc:
            # The ways a torn/foreign bundle actually fails: BadZipFile /
            # OSError (truncated npz), KeyError (missing array names),
            # ValueError (shape or hex mismatches), TypeError (manifest
            # fields of the wrong JSON type).  All mean an unusable
            # bundle; anything else is a bug and should surface.
            raise ValidationError(
                f"warm-store bundle {name!r} is corrupt: {exc}"
            ) from exc
        return state
