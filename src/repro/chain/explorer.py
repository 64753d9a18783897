"""Chain indexing and query layer (the simulator's ``btc.com``).

The paper's pipeline starts from "gather all the transactions related to an
address" (§III).  :class:`ChainIndex` maintains exactly that mapping
incrementally as blocks are appended, plus the aggregate activity series
used for Figure 1 (monthly active addresses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.chain.block import Block
from repro.chain.chain import Blockchain
from repro.chain.transaction import Transaction

__all__ = ["TxRecord", "TxArrays", "ChainIndex", "attach_index", "slice_order"]


@dataclass(frozen=True)
class TxRecord:
    """One address's involvement in one transaction.

    ``net_value`` is satoshis received minus satoshis spent by the address
    in this transaction; positive means net inflow.
    """

    txid: str
    block_height: int
    timestamp: float
    net_value: int

    @property
    def direction(self) -> str:
        """``'in'``, ``'out'`` or ``'self'`` by the sign of the net flow."""
        if self.net_value > 0:
            return "in"
        if self.net_value < 0:
            return "out"
        return "self"


class TxArrays:
    """One transaction's graph-facing columns, address-independent.

    The columnar counterpart of walking ``tx.inputs`` / ``tx.outputs``:
    participant *node keys* (interned integers — see
    :meth:`ChainIndex.node_names` for the encoding) plus the transferred
    values, ready for ndarray assembly.  Instances are immutable: the
    in-memory :class:`ChainIndex` interns them once per transaction at
    ingest, and the chain store reads them from its mapped columns.
    """

    __slots__ = (
        "key",
        "timestamp",
        "input_keys",
        "input_values",
        "output_keys",
        "output_values",
    )

    def __init__(
        self,
        key: int,
        timestamp: float,
        input_keys: np.ndarray,
        input_values: np.ndarray,
        output_keys: np.ndarray,
        output_values: np.ndarray,
    ):
        self.key = key
        self.timestamp = timestamp
        self.input_keys = input_keys
        self.input_values = input_values
        self.output_keys = output_keys
        self.output_values = output_values


def slice_order(
    timestamps: Sequence[float], txids: Sequence[str]
) -> np.ndarray:
    """Positions of an address's transactions in slice order.

    Stage 1 cuts an address's history into slices in this order (paper
    §III-A-1): by timestamp, ties broken by txid.  Both index kinds'
    ``transaction_columns_of`` sort through it, so the order is decided
    here alone.
    """
    return np.lexsort((np.asarray(txids), np.asarray(timestamps)))


class _BothFilters:
    """Picklable AND of two address predicates."""

    __slots__ = ("first", "second")

    def __init__(
        self, first: Callable[[str], bool], second: Callable[[str], bool]
    ):
        self.first = first
        self.second = second

    def __call__(self, address: str) -> bool:
        return self.first(address) and self.second(address)


def compose_filters(
    parent: Optional[Callable[[str], bool]],
    address_filter: Callable[[str], bool],
) -> Callable[[str], bool]:
    """The filter of a slice of an index filtered by ``parent``
    (``None`` keeps every address): what both predicates accept."""
    if parent is None:
        return address_filter
    return _BothFilters(parent, address_filter)


class ChainIndex:
    """Incremental address→transactions index over an append-only chain.

    ``address_filter`` restricts which addresses the index keeps
    *records* for: transactions are always stored (any kept address
    must be able to reach its full history), but per-address record
    lists are only maintained for addresses the predicate accepts.
    This is what a shard's index slice is — see :meth:`sharded`.
    """

    def __init__(
        self, address_filter: Optional[Callable[[str], bool]] = None
    ) -> None:
        self.address_filter = address_filter
        self._tx_by_id: Dict[str, Transaction] = {}
        self._tx_height: Dict[str, int] = {}
        self._records: Dict[str, List[TxRecord]] = {}
        self._first_seen: Dict[str, float] = {}
        # Interned node-key columns, filled at ingest (transactions are
        # immutable, so entries never invalidate on append).
        self._address_ids: Dict[str, int] = {}
        self._address_names: List[str] = []
        self._tx_names: List[str] = []
        self._tx_columns: Dict[str, TxArrays] = {}

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def on_block(self, block: Block) -> None:
        """Ingest one appended block (register via ``chain.add_listener``)."""
        for tx in block.transactions:
            self._ingest(tx, block.height)

    def _ingest(self, tx: Transaction, height: int) -> None:
        # Columns first: a build racing this ingest must never see a
        # record whose transaction has no columns yet.
        if tx.txid not in self._tx_columns:
            self._tx_columns[tx.txid] = self._intern(tx)
        self._tx_by_id[tx.txid] = tx
        self._tx_height[tx.txid] = height
        for address in tx.addresses():
            if self.address_filter is not None and not self.address_filter(
                address
            ):
                continue
            record = TxRecord(
                txid=tx.txid,
                block_height=height,
                timestamp=tx.timestamp,
                net_value=tx.value_for(address),
            )
            self._records.setdefault(address, []).append(record)
            self._first_seen.setdefault(address, tx.timestamp)

    def _intern(self, tx: Transaction) -> TxArrays:
        """``tx``'s columns, interning its txid and any new addresses.

        Keys are handed out in ingestion order — the transaction first,
        then its addresses, inputs before outputs — which is the chain
        store's own numbering, so both index kinds give a transaction
        the same keys.
        """
        ids = self._address_ids
        names = self._address_names
        for party in tx.inputs + tx.outputs:
            if party.address not in ids:
                ids[party.address] = 2 * len(names)
                names.append(party.address)
        key = 2 * len(self._tx_names) + 1
        self._tx_names.append(tx.txid)
        return TxArrays(
            key=key,
            timestamp=tx.timestamp,
            input_keys=np.array(
                [ids[inp.address] for inp in tx.inputs], dtype=np.int64
            ),
            input_values=np.array(
                [inp.value for inp in tx.inputs], dtype=np.float64
            ),
            output_keys=np.array(
                [ids[out.address] for out in tx.outputs], dtype=np.int64
            ),
            output_values=np.array(
                [out.value for out in tx.outputs], dtype=np.float64
            ),
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def transaction(self, txid: str) -> Optional[Transaction]:
        """The transaction with ``txid``, or None if unknown."""
        return self._tx_by_id.get(txid)

    def height_of(self, txid: str) -> Optional[int]:
        """Block height containing ``txid``, or None if unknown."""
        return self._tx_height.get(txid)

    def records_for(self, address: str) -> Sequence[TxRecord]:
        """Chronological involvement records for ``address``."""
        return tuple(self._records.get(address, ()))

    def transactions_of(self, address: str) -> List[Transaction]:
        """Chronological transactions touching ``address``."""
        return [self._tx_by_id[rec.txid] for rec in self._records.get(address, ())]

    def transaction_count(self, address: str) -> int:
        """Number of transactions touching ``address``."""
        return len(self._records.get(address, ()))

    def total_transactions(self) -> int:
        """Number of distinct transactions the index has ingested.

        Monotonic on an append-only chain, which makes it the cheap
        staleness check the cluster serving layer uses to detect growth
        that happened while it was not listening for block events.
        """
        return len(self._tx_by_id)

    def transactions_since(self, start: int) -> List[Tuple[Transaction, int]]:
        """``(transaction, height)`` pairs ingested after the first
        ``start``, in ingestion (block) order.

        The incremental replay feed for derived indexes: a shard slice
        that recorded ``total_transactions()`` when it was last in sync
        catches up by ingesting exactly this tail (see
        :meth:`ingest_transactions`) instead of being rebuilt from
        scratch.
        """
        from itertools import islice

        return [
            (tx, self._tx_height[txid])
            for txid, tx in islice(self._tx_by_id.items(), start, None)
        ]

    def ingest_transactions(
        self, transactions: "Sequence[Tuple[Transaction, int]]"
    ) -> int:
        """Ingest ``(transaction, height)`` pairs (a replay tail).

        Transactions already known are skipped, so replaying an
        overlapping tail is idempotent — re-ingesting would otherwise
        duplicate per-address records.  Returns the number of
        transactions actually ingested (0 when the whole tail was
        already known), which is what lets replay consumers — the
        cluster's shard refresh, the streaming worker ingest path —
        tell a real catch-up from a redundant one.
        """
        ingested = 0
        for tx, height in transactions:
            if tx.txid not in self._tx_by_id:
                self._ingest(tx, height)
                ingested += 1
        return ingested

    def sharded(
        self, address_filter: Callable[[str], bool]
    ) -> "ChainIndex":
        """A filtered copy of this index: one shard's ``ChainIndex`` slice.

        The copy keeps per-address records only for addresses accepted
        by ``address_filter`` (a shard-membership predicate — see
        :class:`~repro.serve.router.ShardRouter`), while sharing this
        index's immutable :class:`~repro.chain.transaction.Transaction`
        objects, so each kept address can still reach its *full*
        history through :meth:`transactions_of`.  The slice is cut from
        this index's tables, never by replaying the chain: the
        transaction tables are copied, the predicate runs once per
        distinct recorded address, and each kept address gets its own
        copy of its (frozen, shared) :class:`TxRecord` list — so
        record order, :meth:`first_seen` and :meth:`known_addresses`
        order are exactly what a replay would give.  The slice's filter
        is this index's filter AND ``address_filter``, so a slice of a
        slice holds what both accept.  The interning tables are copied
        too, sharing the immutable :class:`TxArrays`, so node keys agree
        with this index's.  The copy is independent from this index
        afterwards — no record list or table is shared: feed it future
        blocks via :meth:`on_block` (the cluster layer does) or rebuild
        it when it goes stale.
        """
        shard = ChainIndex(
            compose_filters(self.address_filter, address_filter)
        )
        shard._tx_by_id = dict(self._tx_by_id)
        shard._tx_height = dict(self._tx_height)
        shard._address_ids = dict(self._address_ids)
        shard._address_names = list(self._address_names)
        shard._tx_names = list(self._tx_names)
        shard._tx_columns = dict(self._tx_columns)
        first_seen = self._first_seen
        for address, records in self._records.items():
            if address_filter(address):
                shard._records[address] = list(records)
                shard._first_seen[address] = first_seen[address]
        return shard

    def known_addresses(self) -> List[str]:
        """Every address that has appeared on chain."""
        return list(self._records)

    def first_seen(self, address: str) -> Optional[float]:
        """Timestamp of the first transaction touching ``address``."""
        return self._first_seen.get(address)

    # ------------------------------------------------------------------ #
    # Columnar access (graph construction fast path)
    # ------------------------------------------------------------------ #

    def address_key(self, address: str) -> Optional[int]:
        """The interned node key of ``address``, or ``None`` if unknown.

        Address keys are even (``2 * id``) and transaction keys odd
        (``2 * id + 1``), so one integer column can mix both node kinds
        without collisions — the layout consumed by the Stage-1
        builder.
        """
        return self._address_ids.get(address)

    def transaction_columns_of(self, address: str) -> List[TxArrays]:
        """All of ``address``'s transactions as :class:`TxArrays`, in
        :func:`slice_order` — Stage 1's input."""
        records = tuple(self._records.get(address, ()))
        order = slice_order(
            [record.timestamp for record in records],
            [record.txid for record in records],
        )
        columns = self._tx_columns
        return [columns[records[i].txid] for i in order.tolist()]

    def resident_nbytes(self) -> int:
        """Estimated resident heap bytes held by this index.

        A deterministic ``sys.getsizeof`` walk over the transaction
        objects, per-address records, interning tables and interned
        columns (each distinct object counted once).  An estimate — Python
        object overhead is approximated, shared objects held by *other*
        indexes still count here — but consistent across index flavors,
        which is what the serving benchmarks compare: a deep-copied
        in-memory shard slice against the store-backed view's
        :meth:`~repro.chain.store.StoreBackedChainIndex.resident_nbytes`.
        """
        import sys

        seen: Set[int] = set()

        def size(obj) -> int:
            if id(obj) in seen:
                return 0
            seen.add(id(obj))
            total = sys.getsizeof(obj)
            attrs = getattr(obj, "__dict__", None)
            if attrs is not None and id(attrs) not in seen:
                seen.add(id(attrs))
                total += sys.getsizeof(attrs)
            return total

        total = 0
        for table in (
            self._tx_by_id,
            self._tx_height,
            self._records,
            self._first_seen,
            self._address_ids,
            self._address_names,
            self._tx_names,
            self._tx_columns,
        ):
            total += size(table)
        for txid, tx in self._tx_by_id.items():
            total += size(txid) + size(tx) + size(tx.inputs) + size(tx.outputs)
            for inp in tx.inputs:
                total += size(inp) + size(inp.outpoint)
                total += size(inp.outpoint.txid) + size(inp.address)
            for out in tx.outputs:
                total += size(out) + size(out.address)
        for address, records in self._records.items():
            total += size(address) + size(records)
            for record in records:
                total += size(record) + size(record.txid)
        for columns in self._tx_columns.values():
            total += size(columns)
            total += columns.input_keys.nbytes + columns.input_values.nbytes
            total += columns.output_keys.nbytes + columns.output_values.nbytes
        return total

    def node_names(self, keys: Sequence[int]) -> List[str]:
        """Decode interned node keys back to reference strings.

        Even keys decode to addresses, odd keys to txids — the inverse
        of the interning done at ingest.
        """
        address_names = self._address_names
        tx_names = self._tx_names
        return [
            tx_names[key >> 1] if key & 1 else address_names[key >> 1]
            for key in keys
        ]

    def counterparties(self, address: str) -> Set[str]:
        """Distinct addresses that co-occur in transactions with ``address``."""
        partners: Set[str] = set()
        for record in self._records.get(address, ()):
            tx = self._tx_by_id[record.txid]
            partners.update(tx.addresses())
        partners.discard(address)
        return partners

    # ------------------------------------------------------------------ #
    # Activity series (Figure 1)
    # ------------------------------------------------------------------ #

    def active_addresses_by_bucket(
        self, bucket_seconds: float
    ) -> List[Tuple[float, int]]:
        """Distinct active addresses per time bucket, in bucket order.

        An address is *active* in a bucket if it appears in any
        transaction whose timestamp falls inside the bucket — the quantity
        plotted in the paper's Figure 1.
        """
        buckets: Dict[int, Set[str]] = {}
        for address, records in self._records.items():
            for record in records:
                key = int(record.timestamp // bucket_seconds)
                buckets.setdefault(key, set()).add(address)
        return [
            (key * bucket_seconds, len(buckets[key])) for key in sorted(buckets)
        ]


def attach_index(chain: Blockchain) -> ChainIndex:
    """Create a :class:`ChainIndex`, subscribe it to ``chain``, and backfill.

    Blocks already on the chain are ingested immediately, so the index is
    correct regardless of when it is attached.
    """
    index = ChainIndex()
    for block in chain.blocks:
        index.on_block(block)
    chain.add_listener(index.on_block)
    return index
