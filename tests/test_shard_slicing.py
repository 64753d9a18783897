"""Shard slices of a chain index: ``ChainIndex.sharded`` and its store twin.

A shard's index slice is cut from the tables its parent index already
holds.  The contract pinned here is that the slice is exactly what
replaying the parent's whole chain through the slice's filter would
give — the replay is the oracle, and it lives only in this file:

- the same ``known_addresses()`` order, per-address records, first-seen
  times and counts, and the same transaction tables (``height_of``,
  ``transactions_of``, ``transactions_since``);
- still equal after both indexes ingest further blocks — the parent as
  a chain listener, the slice through ``on_block`` (a record list
  shared with the parent would then hold every new record twice);
- a slice of a filtered index holds what *both* filters accept.

The store-backed view (``StoreBackedChainIndex.sharded``) meets the same
contract, catching up by ``remap`` instead of ``on_block``.  A bounded
number of Hypothesis examples runs in tier 1; the full depth carries
the ``slow`` marker and runs in ``scripts/tier2.sh``.
"""

import copy
import pickle
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.explorer import ChainIndex
from repro.chain.transaction import Transaction
from repro.chain.store import ChainStore, StoreBackedChainIndex
from repro.serve.cluster import _ShardMembership
from repro.serve.router import DEFAULT_PREFIX_LENGTH, ShardRouter
from repro.testing import append_self_spend, random_chain


def replay_slice(index: ChainIndex, *filters) -> ChainIndex:
    """The oracle: every transaction of ``index`` replayed, in ingestion
    order, into a fresh index keeping what all ``filters`` accept."""
    oracle = ChainIndex(lambda address: all(f(address) for f in filters))
    oracle.ingest_transactions(index.transactions_since(0))
    return oracle


def _tail(index, start: int):
    return [(tx.txid, h) for tx, h in index.transactions_since(start)]


def assert_same_slice(actual, oracle: ChainIndex, chain_index: ChainIndex):
    """``actual`` answers every query exactly like the replay ``oracle``.

    ``chain_index`` is the unfiltered in-memory index of the chain: its
    addresses include non-members, which must have no records.
    """
    assert actual.known_addresses() == oracle.known_addresses()
    for address in chain_index.known_addresses():
        assert actual.records_for(address) == oracle.records_for(address)
        assert actual.first_seen(address) == oracle.first_seen(address)
        assert actual.transaction_count(
            address
        ) == oracle.transaction_count(address)
        assert [tx.txid for tx in actual.transactions_of(address)] == [
            tx.txid for tx in oracle.transactions_of(address)
        ]
    total = oracle.total_transactions()
    assert actual.total_transactions() == total
    for start in sorted({0, 1, total // 2, total - 1, total}):
        assert _tail(actual, start) == _tail(oracle, start)
    for tx, height in chain_index.transactions_since(0):
        assert actual.height_of(tx.txid) == height
    assert actual.height_of("not-a-txid") is None


def _mine(chain, addresses, count: int) -> None:
    """Append ``count`` self-spend blocks of funded ``addresses``."""
    funded = [a for a in addresses if chain.utxo_set.balance_of(a) > 0]
    for i in range(count):
        append_self_spend(chain, funded[i % len(funded)])


def _partitions(num_shards, prefix_length):
    """One membership predicate per shard, plus a second, independent
    partition's shard for slices of slices."""
    router = ShardRouter(num_shards, prefix_length)
    members = [_ShardMembership(router, shard) for shard in range(num_shards)]
    return members, _ShardMembership(ShardRouter(2, None), 0)


def _assert_slices(index, slices, nested, members, inner):
    for piece, member in zip(slices, members):
        assert_same_slice(piece, replay_slice(index, member), index)
    for piece, member in zip(nested, members):
        assert_same_slice(piece, replay_slice(index, member, inner), index)


def check_in_memory(seed, num_shards, prefix_length, blocks):
    chain, index, addresses = random_chain(seed)
    members, inner = _partitions(num_shards, prefix_length)
    slices = [index.sharded(member) for member in members]
    nested = [piece.sharded(inner) for piece in slices]
    _assert_slices(index, slices, nested, members, inner)
    assert sum(len(p.known_addresses()) for p in slices) == len(
        index.known_addresses()
    )
    for piece in slices:
        for address in piece.known_addresses():
            # Shared transactions, private record lists.
            assert all(
                mine is theirs
                for mine, theirs in zip(
                    piece.transactions_of(address),
                    index.transactions_of(address),
                )
            )
            assert piece._records[address] is not index._records[address]
    for piece in slices + nested:
        chain.add_listener(piece.on_block)
    _mine(chain, addresses, blocks)
    _assert_slices(index, slices, nested, members, inner)


def check_store_backed(seed, num_shards, prefix_length, blocks):
    chain, index, addresses = random_chain(seed)
    members, inner = _partitions(num_shards, prefix_length)
    with tempfile.TemporaryDirectory() as directory:
        store = ChainStore(directory, writable=True)
        try:
            store.sync_from_index(index)
            view = StoreBackedChainIndex(store)
            slices = [view.sharded(member) for member in members]
            nested = [piece.sharded(inner) for piece in slices]
            _assert_slices(index, slices, nested, members, inner)
            _mine(chain, addresses, blocks)
            store.sync_from_index(index)
            for piece in slices + nested:
                piece.remap()
            _assert_slices(index, slices, nested, members, inner)
        finally:
            store.close()


_WORLDS = dict(
    seed=st.integers(0, 10_000),
    num_shards=st.integers(1, 4),
    prefix_length=st.sampled_from([DEFAULT_PREFIX_LENGTH, None]),
    blocks=st.integers(1, 3),
)


class TestShardSliceContract:
    @settings(max_examples=20, deadline=None)
    @given(**_WORLDS)
    def test_in_memory_slice_equals_replay(
        self, seed, num_shards, prefix_length, blocks
    ):
        check_in_memory(seed, num_shards, prefix_length, blocks)

    @pytest.mark.slow
    @settings(max_examples=300, deadline=None)
    @given(**_WORLDS)
    def test_in_memory_slice_equals_replay_full(
        self, seed, num_shards, prefix_length, blocks
    ):
        check_in_memory(seed, num_shards, prefix_length, blocks)

    @settings(max_examples=6, deadline=None)
    @given(**_WORLDS)
    def test_store_slice_equals_replay(
        self, seed, num_shards, prefix_length, blocks
    ):
        check_store_backed(seed, num_shards, prefix_length, blocks)

    @pytest.mark.slow
    @settings(max_examples=80, deadline=None)
    @given(**_WORLDS)
    def test_store_slice_equals_replay_full(
        self, seed, num_shards, prefix_length, blocks
    ):
        check_store_backed(seed, num_shards, prefix_length, blocks)

    def test_filtered_slice_composes_filters(self):
        """The slice's own filter is the AND of both, so later ingests
        keep only addresses both shards accept; it pickles, as a filter
        shipped to a spawned worker must."""
        _, index, _ = random_chain(3)
        outer = _ShardMembership(ShardRouter(2), 0)
        inner = _ShardMembership(ShardRouter(3, None), 1)
        piece = index.sharded(outer).sharded(inner)
        shipped = pickle.loads(pickle.dumps(piece.address_filter))
        for address in index.known_addresses():
            both = outer(address) and inner(address)
            assert piece.address_filter(address) == both
            assert shipped(address) == both

    def test_interning_tables_are_copies(self):
        """A slice starts with copies of the parent's interning tables
        (so node keys agree) and shares its immutable columns; ingesting
        into the slice leaves the parent's tables unchanged."""
        chain, index, addresses = random_chain(4)
        piece = index.sharded(_ShardMembership(ShardRouter(1), 0))
        want = index.transaction_columns_of(addresses[0])
        got = piece.transaction_columns_of(addresses[0])
        assert want and len(got) == len(want)
        assert all(g is w for g, w in zip(got, want))
        tables = ("_address_ids", "_address_names", "_tx_names", "_tx_columns")
        before = {name: copy.copy(getattr(index, name)) for name in tables}
        tx = Transaction.coinbase(
            "fresh-address", value=1, timestamp=chain.tip.timestamp + 1
        )
        assert piece.ingest_transactions([(tx, chain.height + 1)]) == 1
        for name in tables:
            assert getattr(index, name) == before[name], name
            assert getattr(piece, name) != before[name], name
        assert index.total_transactions() < piece.total_transactions()


def test_sharded_beats_replay():
    """Live speed ratio, measured in one process so it holds on any
    machine: best of 5 runs each, slicing both shards of a two-shard
    router from the parent's tables vs the replay oracle.  Slicing calls
    the predicate once per address instead of once per (transaction,
    address) pair and builds no records; a replay slipping back into
    ``sharded`` fails this (slicing runs 8-14x the replay on a 2-CPU
    x86-64 host; with the replay put back it measures 1.1-1.3x)."""
    _, index, _ = random_chain(1, num_wallets=6, rounds=20)
    router = ShardRouter(2)
    members = [_ShardMembership(router, shard) for shard in range(2)]

    def best_of_5(run):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(10):
                run()
            best = min(best, time.perf_counter() - start)
        return best

    replay = best_of_5(
        lambda: [replay_slice(index, member) for member in members]
    )
    sliced = best_of_5(lambda: [index.sharded(member) for member in members])
    assert replay / sliced >= 3.0, (replay, sliced)
