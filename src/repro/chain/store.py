"""Memory-mapped columnar chain persistence (the corpus-scale substrate).

Everything upstream of this module assumes the whole chain lives in
memory as Python ``Transaction`` objects; corpus-scale datasets
(10^5 - 10^6 addresses) do not fit that way.  :class:`ChainStore`
persists the interned transaction columns
(:class:`~repro.chain.explorer.TxArrays`) the in-memory index keeps —
participant node keys, values, timestamps, heights, plus the address/tx
id mappings — as flat ``.npy`` segments that readers open with
``np.load(..., mmap_mode="r")``, so a cluster shard worker maps its
slice read-only instead of holding a deep-copied index.

Segment layout (all files live flat in the store directory)::

    manifest.json                   store manifest, committed LAST
    seg_00000000.json               per-segment metadata + pairing token
    seg_00000000.timestamps.npy     float64 [T]   per-tx unix seconds
    seg_00000000.heights.npy        int64   [T]   per-tx block height
    seg_00000000.in_indptr.npy      int64   [T+1] CSR offsets into in_*
    seg_00000000.in_keys.npy        int64   [E_in]  interned address keys
    seg_00000000.in_values.npy      float64 [E_in]  satoshis spent
    seg_00000000.out_indptr.npy     int64   [T+1] CSR offsets into out_*
    seg_00000000.out_keys.npy       int64   [E_out] interned address keys
    seg_00000000.out_values.npy     float64 [E_out] satoshis received
    seg_00000000.address_names.npy  <U*   [A_new] new addresses, intern order
    seg_00000000.address_sort.npy   int64 [A_new] argsort of address_names
    seg_00000000.tx_names.npy       <U64  [T]     txids, ingestion order
    seg_00000000.tx_sort.npy        int64 [T]     argsort of tx_names

Interning matches the in-memory index exactly: address keys are even
(``2 * id``), transaction keys odd (``2 * id + 1``), ids are assigned in
ingestion order, inputs before outputs within a transaction — so a
store synced from an index yields *identical* columns, keys included,
to that index's
:meth:`~repro.chain.explorer.ChainIndex.transaction_columns_of`.

Commit protocol (mirrors ``CacheStore``'s torn-bundle discipline): every
file is written to a ``.tmp`` sibling and ``os.replace``d into place;
column files first, then the segment metadata carrying a random pairing
token, and only then the store manifest listing the segment with the
same token.  A crash mid-append leaves stray unlisted files that the
next open ignores and the next append overwrites.  At open, every
listed segment is validated (metadata present, token paired, every
column maps with the declared dtype/shape); a torn *tail* segment is
dropped — the store falls back to the last committed prefix and records
the drop in :attr:`ChainStore.recovered_tail` — while corruption before
the tail raises :class:`~repro.errors.ChainStoreError`.

:class:`StoreBackedChainIndex` is the read side: a drop-in
:class:`~repro.chain.explorer.ChainIndex` whose queries read the mapped
segments (records, columns, reconstructed transactions) instead of
materialized Python objects.  It is read-only — appends go through the
writable :class:`ChainStore` and readers catch up via :meth:`remap`,
which is how the cluster streams block appends to long-lived shard
workers without restarting them.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.chain.block import Block
from repro.chain.explorer import (
    ChainIndex,
    TxArrays,
    TxRecord,
    compose_filters,
    slice_order,
)
from repro.chain.serialize import transaction_from_columns
from repro.chain.transaction import Transaction
from repro.errors import ChainStoreError

__all__ = ["ChainStore", "StoreBackedChainIndex", "STORE_FORMAT_VERSION"]

# Registry handles for store lifecycle events (see repro.obs).  Literal
# snake_case names are pinned by the obs-discipline lint rule.
_STORE_COMMITS = obs.counter("store_segment_commits_total")
_STORE_REMAPS = obs.counter("store_remaps_total")
_STORE_RECOVERIES = obs.counter("store_torn_tail_recoveries_total")

#: Bump when the segment layout changes incompatibly.
STORE_FORMAT_VERSION = 1

#: Column name -> expected dtype kind; shapes are validated against the
#: per-segment metadata and the tx/edge counts.
_COLUMNS = (
    "timestamps",
    "heights",
    "in_indptr",
    "in_keys",
    "in_values",
    "out_indptr",
    "out_keys",
    "out_values",
    "address_names",
    "address_sort",
    "tx_names",
    "tx_sort",
)

_MANIFEST = "manifest.json"

#: Exceptions that mean "this segment is torn or malformed" at map time.
_MAP_ERRORS = (OSError, ValueError, KeyError, TypeError)


class _Segment:
    """One committed, mapped segment: metadata plus its column memmaps."""

    __slots__ = (
        "name",
        "tx_base",
        "address_base",
        "tx_count",
        "new_addresses",
        "first_height",
        "last_height",
        "arrays",
    )

    def __init__(self, entry: Dict, arrays: Dict[str, np.ndarray]) -> None:
        self.name = entry["name"]
        self.tx_base = int(entry["tx_base"])
        self.address_base = int(entry["address_base"])
        self.tx_count = int(entry["tx_count"])
        self.new_addresses = int(entry["new_addresses"])
        self.first_height = int(entry["first_height"])
        self.last_height = int(entry["last_height"])
        self.arrays = arrays


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _atomic_save_array(path: Path, array: np.ndarray) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        np.save(handle, array)
    os.replace(tmp, path)


class ChainStore:
    """Append-only, memory-mapped columnar chain store.

    Open writable to create/extend a store (the writer owns the
    address/tx interning tables and is the only process that appends);
    open read-only to map committed segments — readers follow appends
    with :meth:`remap`.

    Attributes
    ----------
    recovered_tail:
        Name of the torn tail segment dropped during open, or ``None``
        when the store opened clean.  A writable open also rewrites the
        manifest without the torn entry, so the next append recommits
        under the same segment name.
    """

    def __init__(self, directory: "str | Path", writable: bool = False) -> None:
        """Open (and for a writable store, create) ``directory``."""
        self.directory = Path(directory)
        self.writable = bool(writable)
        self.recovered_tail: Optional[str] = None
        self._closed = False
        self._segments: List[_Segment] = []
        self._address_ids: Dict[str, int] = {}
        self._tx_ids: Dict[str, int] = {}
        manifest_path = self.directory / _MANIFEST
        if not manifest_path.exists():
            if not self.writable:
                raise ChainStoreError(
                    f"no chain store at {self.directory} (missing {_MANIFEST})"
                )
            self.directory.mkdir(parents=True, exist_ok=True)
            self._write_manifest([])
        entries = self._read_manifest()
        for position, entry in enumerate(entries):
            try:
                self._segments.append(self._map_segment(entry))
            except ChainStoreError:
                if position != len(entries) - 1:
                    raise
                # Torn tail: fall back to the last committed prefix.
                self.recovered_tail = entry.get("name")
                _STORE_RECOVERIES.inc()
                if self.writable:
                    self._write_manifest(entries[:position])
        if self.writable:
            self._rebuild_interning()

    # ------------------------------------------------------------------ #
    # Manifest + mapping
    # ------------------------------------------------------------------ #

    def _read_manifest(self) -> List[Dict]:
        path = self.directory / _MANIFEST
        try:
            manifest = json.loads(path.read_text())
            if manifest.get("format") != STORE_FORMAT_VERSION:
                raise ChainStoreError(
                    f"chain store {self.directory} has format "
                    f"{manifest.get('format')!r}, expected {STORE_FORMAT_VERSION}"
                )
            segments = manifest["segments"]
            if not isinstance(segments, list):
                raise ChainStoreError(
                    f"chain store manifest at {path} is malformed"
                )
            return segments
        except _MAP_ERRORS as exc:
            raise ChainStoreError(
                f"cannot read chain store manifest at {path}: {exc}"
            ) from exc

    def _write_manifest(self, entries: List[Dict]) -> None:
        payload = json.dumps(
            {"format": STORE_FORMAT_VERSION, "segments": entries}, indent=0
        ).encode()
        _atomic_write_bytes(self.directory / _MANIFEST, payload)

    def _map_segment(self, entry: Dict) -> _Segment:
        name = entry.get("name", "<unnamed>")
        try:
            meta = json.loads((self.directory / f"{name}.json").read_text())
            if meta["token"] != entry["token"]:
                raise ChainStoreError(
                    f"segment {name}: metadata token {meta['token']!r} does "
                    f"not pair with manifest token {entry['token']!r}"
                )
            arrays: Dict[str, np.ndarray] = {}
            for column in _COLUMNS:
                spec = meta["columns"][column]
                array = np.load(
                    self.directory / f"{name}.{column}.npy", mmap_mode="r"
                )
                if (
                    str(array.dtype) != spec["dtype"]
                    or list(array.shape) != list(spec["shape"])
                ):
                    raise ChainStoreError(
                        f"segment {name}: column {column} is "
                        f"{array.dtype}{array.shape}, metadata declares "
                        f"{spec['dtype']}{tuple(spec['shape'])}"
                    )
                # Serve reads through a plain-ndarray view: np.memmap's
                # subclass machinery (__array_finalize__ on every slice,
                # mmap bookkeeping in __getitem__) measurably taxes the
                # per-transaction column reads of store-backed scoring.
                # The view keeps the memmap alive as its .base, so the
                # pages stay file-backed and shared across processes,
                # and dropping the segment still closes the handle.
                arrays[column] = array.view(np.ndarray)
            tx_count = int(entry["tx_count"])
            if (
                arrays["timestamps"].shape != (tx_count,)
                or arrays["tx_names"].shape != (tx_count,)
                or arrays["in_indptr"].shape != (tx_count + 1,)
                or arrays["out_indptr"].shape != (tx_count + 1,)
                or arrays["address_names"].shape
                != (int(entry["new_addresses"]),)
            ):
                raise ChainStoreError(
                    f"segment {name}: column shapes disagree with the "
                    "manifest transaction/address counts"
                )
            return _Segment(entry, arrays)
        except ChainStoreError:
            raise
        except _MAP_ERRORS as exc:
            raise ChainStoreError(
                f"segment {name} failed to map: {exc}"
            ) from exc

    def _rebuild_interning(self) -> None:
        self._address_ids = {}
        self._tx_ids = {}
        for segment in self._segments:
            for offset, address in enumerate(
                np.asarray(segment.arrays["address_names"]).tolist()
            ):
                self._address_ids[address] = segment.address_base + offset
            for offset, txid in enumerate(
                np.asarray(segment.arrays["tx_names"]).tolist()
            ):
                self._tx_ids[txid] = segment.tx_base + offset

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_segments(self) -> int:
        """Number of committed segments currently mapped."""
        return len(self._segments)

    @property
    def num_transactions(self) -> int:
        """Total transactions across mapped segments."""
        if not self._segments:
            return 0
        tail = self._segments[-1]
        return tail.tx_base + tail.tx_count

    @property
    def num_addresses(self) -> int:
        """Total interned addresses across mapped segments."""
        if not self._segments:
            return 0
        tail = self._segments[-1]
        return tail.address_base + tail.new_addresses

    def mapped_nbytes(self) -> int:
        """Bytes of column data reachable through the maps (file-backed,
        shared between processes — *not* private resident heap)."""
        return sum(
            array.nbytes
            for segment in self._segments
            for array in segment.arrays.values()
        )

    # ------------------------------------------------------------------ #
    # Append path (writable stores only)
    # ------------------------------------------------------------------ #

    def append_transactions(
        self, pairs: "Sequence[Tuple[Transaction, int]]"
    ) -> int:
        """Commit ``(transaction, height)`` pairs as one new tail segment.

        Already-stored txids are skipped (idempotent tail replay, same
        contract as
        :meth:`~repro.chain.explorer.ChainIndex.ingest_transactions`).
        Returns the number of transactions actually appended; no segment
        is written when the whole tail was already known.
        """
        if not self.writable:
            raise ChainStoreError(
                "append_transactions on a read-only chain store — open "
                "with writable=True (readers catch up via remap())"
            )
        self._check_open()
        fresh = [
            (tx, height) for tx, height in pairs if tx.txid not in self._tx_ids
        ]
        if not fresh:
            return 0
        tx_base = self.num_transactions
        address_base = self.num_addresses
        timestamps: List[float] = []
        heights: List[int] = []
        in_indptr: List[int] = [0]
        out_indptr: List[int] = [0]
        in_keys: List[int] = []
        in_values: List[int] = []
        out_keys: List[int] = []
        out_values: List[int] = []
        new_address_names: List[str] = []

        def intern(address: str) -> int:
            key = self._address_ids.get(address)
            if key is None:
                key = len(self._address_ids)
                self._address_ids[address] = key
                new_address_names.append(address)
            return 2 * key

        for tx, height in fresh:
            self._tx_ids[tx.txid] = tx_base + len(timestamps)
            timestamps.append(tx.timestamp)
            heights.append(int(height))
            for inp in tx.inputs:
                in_keys.append(intern(inp.address))
                in_values.append(inp.value)
            in_indptr.append(len(in_keys))
            for out in tx.outputs:
                out_keys.append(intern(out.address))
                out_values.append(out.value)
            out_indptr.append(len(out_keys))

        address_names = (
            np.array(new_address_names, dtype=np.str_)
            if new_address_names
            else np.array([], dtype="<U1")
        )
        tx_names = np.array([tx.txid for tx, _ in fresh], dtype="<U64")
        arrays = {
            "timestamps": np.array(timestamps, dtype=np.float64),
            "heights": np.array(heights, dtype=np.int64),
            "in_indptr": np.array(in_indptr, dtype=np.int64),
            "in_keys": np.array(in_keys, dtype=np.int64),
            "in_values": np.array(in_values, dtype=np.float64),
            "out_indptr": np.array(out_indptr, dtype=np.int64),
            "out_keys": np.array(out_keys, dtype=np.int64),
            "out_values": np.array(out_values, dtype=np.float64),
            "address_names": address_names,
            "address_sort": np.argsort(address_names, kind="stable").astype(
                np.int64
            ),
            "tx_names": tx_names,
            "tx_sort": np.argsort(tx_names, kind="stable").astype(np.int64),
        }
        entry = {
            "name": f"seg_{len(self._segments):08d}",
            "token": os.urandom(8).hex(),
            "tx_base": tx_base,
            "address_base": address_base,
            "tx_count": len(fresh),
            "new_addresses": len(new_address_names),
            "first_height": heights[0],
            "last_height": heights[-1],
        }
        # Commit order: columns, then segment metadata (with the pairing
        # token), then the store manifest.  A crash at any point leaves
        # either an unlisted (ignored) segment or a fully committed one.
        for column, array in arrays.items():
            _atomic_save_array(
                self.directory / f"{entry['name']}.{column}.npy", array
            )
        meta = dict(entry)
        meta["columns"] = {
            column: {"dtype": str(array.dtype), "shape": list(array.shape)}
            for column, array in arrays.items()
        }
        _atomic_write_bytes(
            self.directory / f"{entry['name']}.json",
            json.dumps(meta, indent=0).encode(),
        )
        entries = self._read_manifest()[: len(self._segments)] + [entry]
        self._write_manifest(entries)
        self._segments.append(self._map_segment(entry))
        _STORE_COMMITS.inc()
        return len(fresh)

    def sync_from_index(self, index: ChainIndex) -> int:
        """Append whatever ``index`` has ingested beyond this store.

        The boundary transaction is spot-checked (the index's txid at
        the store's watermark must match the last stored txid) so a
        store cannot silently diverge from an index it did not come
        from.  Returns the number of transactions appended.
        """
        count = self.num_transactions
        if count > index.total_transactions():
            raise ChainStoreError(
                f"chain store holds {count} transactions but the index "
                f"only {index.total_transactions()} — refusing to sync "
                "from a shorter history"
            )
        if count:
            pairs = index.transactions_since(count - 1)
            stored = str(self._segments[-1].arrays["tx_names"][-1])
            if not pairs or pairs[0][0].txid != stored:
                raise ChainStoreError(
                    "chain store and index disagree at the sync boundary "
                    f"(stored txid {stored[:12]}…) — this store was not "
                    "built from this chain"
                )
            tail = pairs[1:]
        else:
            tail = index.transactions_since(0)
        return self.append_transactions(tail)

    def append_block(self, block: Block) -> int:
        """Commit one block's transactions as a tail segment (the
        streaming append path — see :meth:`append_transactions`)."""
        return self.append_transactions(
            [(tx, block.height) for tx in block.transactions]
        )

    # ------------------------------------------------------------------ #
    # Reader catch-up
    # ------------------------------------------------------------------ #

    def remap(self) -> int:
        """Map segments committed since this store was opened.

        Re-reads the manifest, verifies the already-mapped prefix is
        unchanged (token pairing), and maps any new tail segments.
        Returns the number of segments newly mapped.  Unlike open-time
        recovery, a torn segment here raises — the writer commits the
        manifest last, so every listed segment must map.
        """
        self._check_open()
        entries = self._read_manifest()
        if len(entries) < len(self._segments):
            raise ChainStoreError(
                f"chain store at {self.directory} shrank from "
                f"{len(self._segments)} to {len(entries)} segments"
            )
        for segment, entry in zip(self._segments, entries):
            if entry.get("name") != segment.name:
                raise ChainStoreError(
                    f"chain store segment {segment.name} was renamed to "
                    f"{entry.get('name')!r} behind this reader"
                )
        mapped = 0
        for entry in entries[len(self._segments):]:
            segment = self._map_segment(entry)
            self._segments.append(segment)
            if self.writable:
                for offset, address in enumerate(
                    np.asarray(segment.arrays["address_names"]).tolist()
                ):
                    self._address_ids.setdefault(
                        address, segment.address_base + offset
                    )
                for offset, txid in enumerate(
                    np.asarray(segment.arrays["tx_names"]).tolist()
                ):
                    self._tx_ids.setdefault(txid, segment.tx_base + offset)
            mapped += 1
        if mapped:
            _STORE_REMAPS.inc()
        return mapped

    def close(self) -> None:
        """Release every mapped segment (drops the memmap references —
        with no outstanding column views, the file handles close)."""
        self._segments = []
        self._address_ids = {}
        self._tx_ids = {}
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ChainStoreError("chain store is closed")

    # ------------------------------------------------------------------ #
    # Id mapping (searchsorted over the mapped, per-segment sorted names)
    # ------------------------------------------------------------------ #

    def address_id(self, address: str) -> Optional[int]:
        """Interned id of ``address``, or ``None`` if never stored."""
        for segment in self._segments:
            names = segment.arrays["address_names"]
            if not len(names):
                continue
            sorter = segment.arrays["address_sort"]
            slot = int(np.searchsorted(names, address, sorter=sorter))
            if slot < len(names):
                offset = int(sorter[slot])
                if str(names[offset]) == address:
                    return segment.address_base + offset
        return None

    def tx_id(self, txid: str) -> Optional[int]:
        """Interned id of ``txid``, or ``None`` if never stored."""
        for segment in self._segments:
            names = segment.arrays["tx_names"]
            if not len(names):
                continue
            sorter = segment.arrays["tx_sort"]
            slot = int(np.searchsorted(names, txid, sorter=sorter))
            if slot < len(names):
                offset = int(sorter[slot])
                if str(names[offset]) == txid:
                    return segment.tx_base + offset
        return None

    def address_name(self, address_id: int) -> str:
        """Decode an interned address id back to the address string."""
        segment = self._segment_for(address_id, "address_base", "new_addresses")
        return str(segment.arrays["address_names"][address_id - segment.address_base])

    def tx_name(self, tx_id: int) -> str:
        """Decode an interned transaction id back to the txid string."""
        segment, row = self.tx_location(tx_id)
        return str(segment.arrays["tx_names"][row])

    def tx_location(self, tx_id: int) -> "Tuple[_Segment, int]":
        """The ``(segment, row)`` holding global transaction ``tx_id``."""
        segment = self._segment_for(tx_id, "tx_base", "tx_count")
        return segment, tx_id - segment.tx_base

    def _segment_for(self, value: int, base: str, count: str) -> _Segment:
        lo, hi = 0, len(self._segments)
        while lo < hi:
            mid = (lo + hi) // 2
            if getattr(self._segments[mid], base) <= value:
                lo = mid + 1
            else:
                hi = mid
        if lo:
            segment = self._segments[lo - 1]
            if value < getattr(segment, base) + getattr(segment, count):
                return segment
        raise ChainStoreError(
            f"id {value} is outside the mapped chain store "
            f"({self.num_transactions} transactions, "
            f"{self.num_addresses} addresses)"
        )


class StoreBackedChainIndex(ChainIndex):
    """A :class:`~repro.chain.explorer.ChainIndex` reading mapped segments.

    Drop-in for the query surface — records, columns, reconstructed
    transactions, activity series — but **read-only**: appends go
    through the writable :class:`ChainStore` (or its owner), and this
    index catches up by :meth:`remap`, re-deriving its per-address
    adjacency only for the new tail segments.  ``address_filter``
    restricts record-keeping exactly like the in-memory index (a shard
    slice is ``sharded(...)`` of a store-backed index, sharing the
    underlying maps).

    Its inherited interning tables stay empty — the mapped segments
    hold the columns, so a corpus sweep's resident footprint stays flat
    at the per-address adjacency (two int64 per membership record) plus
    the shard-membership verdict cache.
    """

    def __init__(
        self,
        store: "ChainStore | str | Path",
        address_filter: Optional[Callable[[str], bool]] = None,
    ) -> None:
        """Wrap ``store`` (an open :class:`ChainStore`, or a directory
        to open read-only, which this index then owns and closes)."""
        super().__init__(address_filter=address_filter)
        self._owns_store = not isinstance(store, ChainStore)
        self._store = (
            store if isinstance(store, ChainStore) else ChainStore(store)
        )
        self._adj_addr: List[np.ndarray] = []
        self._adj_rows: List[np.ndarray] = []
        self._member_cache: Dict[int, bool] = {}
        self.remap()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def store(self) -> ChainStore:
        """The underlying (possibly shared) :class:`ChainStore`."""
        return self._store

    def remap(self) -> int:
        """Catch up with segments appended since the last remap.

        Pulls new tail segments from the store (a no-op for the writer,
        whose own appends map eagerly) and extends the per-address
        adjacency over them — O(tail edges), never a rebuild.  Returns
        the number of segments newly indexed.
        """
        self._store.remap()
        fresh = 0
        while len(self._adj_addr) < self._store.num_segments:
            self._index_segment(self._store._segments[len(self._adj_addr)])
            fresh += 1
        return fresh

    def close(self) -> None:
        """Drop the per-address adjacency (and the store itself when
        this index opened it from a directory)."""
        self._adj_addr = []
        self._adj_rows = []
        self._member_cache = {}
        if self._owns_store:
            self._store.close()

    def __getstate__(self) -> Dict:
        """Pickle as ``(directory, filter)`` — maps never cross processes."""
        return {
            "directory": str(self._store.directory),
            "address_filter": self.address_filter,
        }

    def __setstate__(self, state: Dict) -> None:
        """Reopen the store read-only and rebuild the adjacency."""
        self.__init__(state["directory"], state["address_filter"])

    # ------------------------------------------------------------------ #
    # Membership adjacency
    # ------------------------------------------------------------------ #

    def _index_segment(self, segment: _Segment) -> None:
        """Derive this index's member (address, tx-row) pairs for one
        segment: vectorized over the mapped key columns, one predicate
        call per distinct address (verdicts cached across segments)."""
        tx_count = segment.tx_count
        rows_in = np.repeat(
            np.arange(tx_count, dtype=np.int64),
            np.diff(segment.arrays["in_indptr"]),
        )
        rows_out = np.repeat(
            np.arange(tx_count, dtype=np.int64),
            np.diff(segment.arrays["out_indptr"]),
        )
        addr = np.concatenate(
            [
                np.asarray(segment.arrays["in_keys"]) >> 1,
                np.asarray(segment.arrays["out_keys"]) >> 1,
            ]
        )
        rows = np.concatenate([rows_in, rows_out])
        order = np.lexsort((rows, addr))
        addr = addr[order]
        rows = rows[order]
        if len(addr):
            keep = np.ones(len(addr), dtype=bool)
            keep[1:] = (addr[1:] != addr[:-1]) | (rows[1:] != rows[:-1])
            addr = addr[keep]
            rows = rows[keep]
        if self.address_filter is not None and len(addr):
            unique = np.unique(addr)
            verdicts = np.empty(len(unique), dtype=bool)
            for i, address_id in enumerate(unique.tolist()):
                verdict = self._member_cache.get(address_id)
                if verdict is None:
                    verdict = bool(
                        self.address_filter(
                            self._store.address_name(address_id)
                        )
                    )
                    self._member_cache[address_id] = verdict
                verdicts[i] = verdict
            member = verdicts[np.searchsorted(unique, addr)]
            addr = addr[member]
            rows = rows[member]
        self._adj_addr.append(np.ascontiguousarray(addr))
        self._adj_rows.append(np.ascontiguousarray(rows))

    def _positions_for(self, address: str) -> List[Tuple[_Segment, np.ndarray]]:
        """Per-segment member rows for ``address``, in ingestion order."""
        address_id = self._store.address_id(address)
        if address_id is None:
            return []
        out = []
        for chunk, rows, segment in zip(
            self._adj_addr, self._adj_rows, self._store._segments
        ):
            lo = int(np.searchsorted(chunk, address_id, side="left"))
            hi = int(np.searchsorted(chunk, address_id, side="right"))
            if hi > lo:
                out.append((segment, rows[lo:hi]))
        return out

    # ------------------------------------------------------------------ #
    # Read-only guards
    # ------------------------------------------------------------------ #

    def on_block(self, block: Block) -> None:
        """Unsupported: store-backed indexes are read-only.  Append the
        block to the writable :class:`ChainStore` and call
        :meth:`remap` instead."""
        raise ChainStoreError(
            "store-backed index is read-only: append blocks via "
            "ChainStore.append_block and call remap()"
        )

    def ingest_transactions(
        self, transactions: "Sequence[Tuple[Transaction, int]]"
    ) -> int:
        """Unsupported: store-backed indexes are read-only.  Append the
        tail via :meth:`ChainStore.append_transactions` and
        :meth:`remap` instead."""
        raise ChainStoreError(
            "store-backed index is read-only: append tails via "
            "ChainStore.append_transactions and call remap()"
        )

    # ------------------------------------------------------------------ #
    # Query surface (mapped-segment implementations)
    # ------------------------------------------------------------------ #

    def transaction(self, txid: str) -> Optional[Transaction]:
        """The stored transaction with ``txid`` (reconstructed — see
        :func:`~repro.chain.serialize.transaction_from_columns`), or
        ``None`` if unknown."""
        tx_id = self._store.tx_id(txid)
        if tx_id is None:
            return None
        return self._reconstruct(tx_id)

    def height_of(self, txid: str) -> Optional[int]:
        """Block height containing ``txid``, or None if unknown."""
        tx_id = self._store.tx_id(txid)
        if tx_id is None:
            return None
        segment, row = self._store.tx_location(tx_id)
        return int(segment.arrays["heights"][row])

    def records_for(self, address: str) -> Sequence[TxRecord]:
        """Chronological involvement records for ``address``."""
        positions = self._positions_for(address)
        if not positions:
            return ()
        address_key = 2 * self._store.address_id(address)
        records = []
        for segment, rows in positions:
            for row in rows.tolist():
                records.append(
                    TxRecord(
                        txid=str(segment.arrays["tx_names"][row]),
                        block_height=int(segment.arrays["heights"][row]),
                        timestamp=float(segment.arrays["timestamps"][row]),
                        net_value=self._net_value(segment, row, address_key),
                    )
                )
        return tuple(records)

    def _net_value(
        self, segment: _Segment, row: int, address_key: int
    ) -> int:
        received = spent = 0.0
        lo, hi = segment.arrays["out_indptr"][row: row + 2]
        keys = segment.arrays["out_keys"][lo:hi]
        if len(keys):
            received = float(
                segment.arrays["out_values"][lo:hi][keys == address_key].sum()
            )
        lo, hi = segment.arrays["in_indptr"][row: row + 2]
        keys = segment.arrays["in_keys"][lo:hi]
        if len(keys):
            spent = float(
                segment.arrays["in_values"][lo:hi][keys == address_key].sum()
            )
        return int(received - spent)

    def transactions_of(self, address: str) -> List[Transaction]:
        """Chronological (reconstructed) transactions touching ``address``."""
        return [
            self._reconstruct(segment.tx_base + int(row))
            for segment, rows in self._positions_for(address)
            for row in rows
        ]

    def transaction_count(self, address: str) -> int:
        """Number of transactions touching ``address``."""
        return sum(
            len(rows) for _, rows in self._positions_for(address)
        )

    def total_transactions(self) -> int:
        """Number of transactions in the mapped store (the staleness
        watermark, same monotonic contract as the in-memory index)."""
        return self._store.num_transactions

    def transactions_since(self, start: int) -> List[Tuple[Transaction, int]]:
        """``(transaction, height)`` pairs after the first ``start``, in
        ingestion order, reconstructed from the mapped columns."""
        out = []
        for segment in self._store._segments:
            first = max(start - segment.tx_base, 0)
            for row in range(first, segment.tx_count):
                out.append(
                    (
                        self._reconstruct_at(segment, row),
                        int(segment.arrays["heights"][row]),
                    )
                )
        return out

    def sharded(
        self, address_filter: Callable[[str], bool]
    ) -> "StoreBackedChainIndex":
        """A filtered view over the *same* mapped store: one shard's
        slice, holding only its own member adjacency (no copied
        transactions, no copied maps).  Its filter is this index's
        filter AND ``address_filter``, as for the in-memory slice."""
        return StoreBackedChainIndex(
            self._store,
            address_filter=compose_filters(
                self.address_filter, address_filter
            ),
        )

    def known_addresses(self) -> List[str]:
        """Every address with at least one member record, ordered by
        first appearance (matching the in-memory index)."""
        first_pos: Dict[int, int] = {}
        for chunk, rows, segment in zip(
            self._adj_addr, self._adj_rows, self._store._segments
        ):
            if not len(chunk):
                continue
            heads = np.ones(len(chunk), dtype=bool)
            heads[1:] = chunk[1:] != chunk[:-1]
            for address_id, row in zip(
                chunk[heads].tolist(), rows[heads].tolist()
            ):
                first_pos.setdefault(address_id, segment.tx_base + row)
        ordered = sorted(first_pos.items(), key=lambda item: item[1])
        return [
            self._store.address_name(address_id) for address_id, _ in ordered
        ]

    def first_seen(self, address: str) -> Optional[float]:
        """Timestamp of the first member transaction touching ``address``."""
        positions = self._positions_for(address)
        if not positions:
            return None
        segment, rows = positions[0]
        return float(segment.arrays["timestamps"][rows[0]])

    def address_key(self, address: str) -> Optional[int]:
        """The interned node key of ``address``, or ``None`` if the
        store does not hold it."""
        address_id = self._store.address_id(address)
        return None if address_id is None else 2 * address_id

    def transaction_columns_of(self, address: str) -> List[TxArrays]:
        """All of ``address``'s transactions as mapped-column
        :class:`TxArrays`, in
        :func:`~repro.chain.explorer.slice_order`, without touching
        Python ``Transaction`` objects."""
        located = [
            (segment, int(row))
            for segment, rows in self._positions_for(address)
            for row in rows
        ]
        order = slice_order(
            [float(seg.arrays["timestamps"][row]) for seg, row in located],
            [str(seg.arrays["tx_names"][row]) for seg, row in located],
        )
        return [self._arrays_at(*located[i]) for i in order.tolist()]

    def _arrays_at(self, segment: _Segment, row: int) -> TxArrays:
        in_lo, in_hi = segment.arrays["in_indptr"][row: row + 2]
        out_lo, out_hi = segment.arrays["out_indptr"][row: row + 2]
        return TxArrays(
            key=2 * (segment.tx_base + row) + 1,
            timestamp=float(segment.arrays["timestamps"][row]),
            input_keys=segment.arrays["in_keys"][in_lo:in_hi],
            input_values=segment.arrays["in_values"][in_lo:in_hi],
            output_keys=segment.arrays["out_keys"][out_lo:out_hi],
            output_values=segment.arrays["out_values"][out_lo:out_hi],
        )

    def _reconstruct(self, tx_id: int) -> Transaction:
        return self._reconstruct_at(*self._store.tx_location(tx_id))

    def _reconstruct_at(self, segment: _Segment, row: int) -> Transaction:
        arrays = segment.arrays
        in_lo, in_hi = arrays["in_indptr"][row: row + 2]
        out_lo, out_hi = arrays["out_indptr"][row: row + 2]
        decode = self._store.address_name
        return transaction_from_columns(
            txid=str(arrays["tx_names"][row]),
            timestamp=float(arrays["timestamps"][row]),
            inputs=[
                (decode(int(key) >> 1), int(value))
                for key, value in zip(
                    arrays["in_keys"][in_lo:in_hi],
                    arrays["in_values"][in_lo:in_hi],
                )
            ],
            outputs=[
                (decode(int(key) >> 1), int(value))
                for key, value in zip(
                    arrays["out_keys"][out_lo:out_hi],
                    arrays["out_values"][out_lo:out_hi],
                )
            ],
        )

    def node_names(self, keys: Sequence[int]) -> List[str]:
        """Decode interned node keys back to reference strings (even →
        address, odd → txid), reading the mapped name columns."""
        return [
            self._store.tx_name(key >> 1)
            if key & 1
            else self._store.address_name(key >> 1)
            for key in keys
        ]

    def counterparties(self, address: str) -> Set[str]:
        """Distinct addresses co-occurring in transactions with ``address``."""
        own = self._store.address_id(address)
        partner_ids: Set[int] = set()
        for segment, rows in self._positions_for(address):
            arrays = segment.arrays
            for row in rows.tolist():
                in_lo, in_hi = arrays["in_indptr"][row: row + 2]
                out_lo, out_hi = arrays["out_indptr"][row: row + 2]
                partner_ids.update(
                    (np.asarray(arrays["in_keys"][in_lo:in_hi]) >> 1).tolist()
                )
                partner_ids.update(
                    (np.asarray(arrays["out_keys"][out_lo:out_hi]) >> 1).tolist()
                )
        partner_ids.discard(own)
        return {self._store.address_name(pid) for pid in partner_ids}

    def active_addresses_by_bucket(
        self, bucket_seconds: float
    ) -> List[Tuple[float, int]]:
        """Distinct active member addresses per time bucket (Figure 1),
        computed over the mapped adjacency."""
        buckets: Dict[int, Set[int]] = {}
        for chunk, rows, segment in zip(
            self._adj_addr, self._adj_rows, self._store._segments
        ):
            times = np.asarray(segment.arrays["timestamps"])[rows]
            keys = (times // bucket_seconds).astype(np.int64)
            for address_id, bucket in zip(chunk.tolist(), keys.tolist()):
                buckets.setdefault(bucket, set()).add(address_id)
        return [
            (key * bucket_seconds, len(buckets[key])) for key in sorted(buckets)
        ]

    # ------------------------------------------------------------------ #
    # Footprint accounting
    # ------------------------------------------------------------------ #

    def resident_nbytes(self) -> int:
        """Private resident bytes held by this index: the per-address
        adjacency plus the membership-verdict cache.  Mapped column
        bytes are file-backed and shared — see
        :meth:`ChainStore.mapped_nbytes`."""
        total = sum(chunk.nbytes for chunk in self._adj_addr)
        total += sum(chunk.nbytes for chunk in self._adj_rows)
        total += sys.getsizeof(self._member_cache)
        total += 28 * 2 * len(self._member_cache)  # int key + bool value
        return total
