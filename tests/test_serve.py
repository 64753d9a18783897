"""The serving layer: cache behavior, invalidation, batched equivalence.

Built over a small hand-driven chain (wallets paying each other across
mined blocks) so the fixtures stay fast; the classifier is trained for a
single epoch — serving correctness does not depend on model quality.
"""

import numpy as np
import pytest

from repro.chain import (
    AddressFactory,
    Blockchain,
    ChainParams,
    Mempool,
    Transaction,
    TxInput,
    TxOutput,
    Wallet,
    attach_index,
    btc,
)
from repro.core import BAClassifier, BAClassifierConfig
from repro.testing import append_self_spend as _append_self_spend
from repro.errors import NotFittedError, ValidationError
from repro.graphs import GraphPipelineConfig
from repro.serve import (
    AddressScoringService,
    ScoringServiceConfig,
    SliceGraphCache,
)

SLICE_SIZE = 4


def _build_chain(num_wallets: int = 3, rounds: int = 10):
    """A small economy: each wallet pays the next one every round."""
    factory = AddressFactory(77)
    chain = Blockchain(ChainParams(initial_subsidy=btc(50)))
    mempool = Mempool(chain.utxo_set)
    wallets = [
        Wallet(mempool.view(), factory, name=f"w{i}")
        for i in range(num_wallets)
    ]
    for wallet in wallets:
        wallet.new_address()
    clock = 0.0
    for wallet in wallets:  # fund via coinbase
        clock += 600.0
        chain.mine_block(
            mempool.drain(), reward_address=wallet.addresses[0],
            timestamp=clock,
        )
    for round_index in range(rounds):
        clock += 600.0
        for i, wallet in enumerate(wallets):
            if wallet.balance() < btc(1):
                continue
            target = wallets[(i + 1) % num_wallets].addresses[0]
            mempool.submit(
                wallet.create_transaction(
                    [(target, btc(0.5))], timestamp=clock + i, fee=0
                )
            )
        chain.mine_block(
            mempool.drain(),
            reward_address=wallets[round_index % num_wallets].addresses[0],
            timestamp=clock + num_wallets,
        )
    index = attach_index(chain)
    return chain, index, [w.addresses[0] for w in wallets]


@pytest.fixture(scope="module")
def setup():
    return _build_chain()


def _service(setup, **kwargs):
    chain, index, addresses = setup
    clf = BAClassifier(
        BAClassifierConfig(
            slice_size=SLICE_SIZE,
            gnn_epochs=1,
            head_epochs=1,
            gnn_hidden_dim=8,
            head_hidden_dim=8,
            head_restarts=1,
            seed=0,
        )
    )
    labels = np.array([i % 2 for i in range(len(addresses))], dtype=np.int64)
    clf.fit(addresses, labels, index)
    return clf, AddressScoringService(clf, index, **kwargs)


def _total_slices(index, addresses, slice_size=SLICE_SIZE):
    return sum(
        -(-index.transaction_count(a) // slice_size) for a in addresses
    )


class TestCacheUnit:
    def _graph(self, setup, address):
        _, index, _ = setup
        from repro.gnn.data import encode_graph
        from repro.graphs import GraphConstructionPipeline

        pipeline = GraphConstructionPipeline(
            GraphPipelineConfig(slice_size=SLICE_SIZE)
        )
        graphs = pipeline.build_many(index, [address])[address]
        return [encode_graph(g) for g in graphs]

    def test_put_get_and_stats(self, setup):
        _, _, addresses = setup
        graphs = self._graph(setup, addresses[0])
        cache = SliceGraphCache(capacity=8)
        key = (addresses[0], 0, "fp")
        assert cache.get(key) is None
        cache.put(key, graphs[0])
        assert cache.get(key) is graphs[0]
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self, setup):
        _, _, addresses = setup
        graphs = self._graph(setup, addresses[0])
        cache = SliceGraphCache(capacity=2)
        for i in range(3):
            cache.put((addresses[0], i, "fp"), graphs[0])
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert (addresses[0], 0, "fp") not in cache  # oldest evicted
        assert (addresses[0], 2, "fp") in cache

    def test_invalidate_from_slice(self, setup):
        _, _, addresses = setup
        graphs = self._graph(setup, addresses[0])
        cache = SliceGraphCache(capacity=8)
        for i in range(4):
            cache.put((addresses[0], i, "fp"), graphs[0])
        dropped = cache.invalidate_address(addresses[0], from_slice=2)
        assert dropped == 2
        assert (addresses[0], 1, "fp") in cache
        assert (addresses[0], 2, "fp") not in cache
        assert cache.stats.invalidations == 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValidationError):
            SliceGraphCache(capacity=0)


class TestCacheArrayPayloads:
    """The payload-agnostic cache holding compact ArrayGraph entries."""

    def _array_graphs(self, setup, address):
        _, index, _ = setup
        from repro.graphs import GraphConstructionPipeline

        pipeline = GraphConstructionPipeline(
            GraphPipelineConfig(slice_size=SLICE_SIZE)
        )
        return pipeline.build_many(index, [address])[address]

    def test_put_get_and_stats_accurate(self, setup):
        _, index, addresses = setup
        address = addresses[0]
        graphs = self._array_graphs(setup, address)
        fingerprint = GraphPipelineConfig(slice_size=SLICE_SIZE).fingerprint()
        cache = SliceGraphCache(capacity=16)
        for graph in graphs:
            assert cache.get((address, graph.slice_index, fingerprint)) is None
        for graph in graphs:
            cache.put((address, graph.slice_index, fingerprint), graph)
        for graph in graphs:
            assert (
                cache.get((address, graph.slice_index, fingerprint)) is graph
            )
        assert cache.stats.hits == len(graphs)
        assert cache.stats.misses == len(graphs)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert len(cache) == len(graphs)

    def test_fingerprint_change_invalidates(self, setup):
        """Entries keyed under one pipeline fingerprint must be invisible
        to a service built over different construction parameters."""
        _, _, addresses = setup
        address = addresses[0]
        graphs = self._array_graphs(setup, address)
        old = GraphPipelineConfig(slice_size=SLICE_SIZE).fingerprint()
        new = GraphPipelineConfig(slice_size=SLICE_SIZE, psi=0.9).fingerprint()
        assert old != new
        cache = SliceGraphCache(capacity=16)
        cache.put((address, 0, old), graphs[0])
        assert cache.get((address, 0, new)) is None  # miss, not a stale hit
        assert cache.get((address, 0, old)) is graphs[0]

    def test_address_invalidation_drops_array_entries(self, setup):
        _, _, addresses = setup
        address = addresses[0]
        graphs = self._array_graphs(setup, address)
        cache = SliceGraphCache(capacity=16)
        for graph in graphs:
            cache.put((address, graph.slice_index, "fp"), graph)
        dropped = cache.invalidate_address(address, from_slice=1)
        assert dropped == len(graphs) - 1
        assert (address, 0, "fp") in cache
        assert cache.stats.invalidations == dropped

    def test_nbytes_tracks_entries(self, setup):
        """Byte accounting rises on put, falls on invalidate, zeroes on
        clear — and matches the payloads' own nbytes exactly."""
        _, _, addresses = setup
        address = addresses[0]
        graphs = self._array_graphs(setup, address)
        cache = SliceGraphCache(capacity=16)
        assert cache.nbytes == 0
        for graph in graphs:
            cache.put((address, graph.slice_index, "fp"), graph)
        assert cache.nbytes == sum(g.nbytes for g in graphs)
        cache.invalidate_address(address, from_slice=1)
        assert cache.nbytes == graphs[0].nbytes
        cache.clear()
        assert cache.nbytes == 0

    def test_encoded_nbytes_includes_model_cache(self, setup):
        """Warm entries grow when a model memoises propagated features
        into EncodedGraph.cache; the incremental byte total picks the
        growth up the next time the entry is served (every serving path
        get()s an entry before using it)."""
        _, index, addresses = setup
        from repro.gnn.data import encode_graph
        from repro.graphs import GraphConstructionPipeline

        pipeline = GraphConstructionPipeline(
            GraphPipelineConfig(slice_size=SLICE_SIZE)
        )
        built = pipeline.build_many(index, [addresses[0]])
        encoded = encode_graph(built[addresses[0]][0])
        cache = SliceGraphCache(capacity=4)
        cache.put((addresses[0], 0, "fp"), encoded)
        before = cache.nbytes
        encoded.cache["gfn"] = np.zeros((4, 4))  # post-put mutation
        assert cache.nbytes == before  # not yet re-served
        assert cache.get((addresses[0], 0, "fp")) is encoded
        assert cache.nbytes == before + 128

    def test_export_import_round_trip(self, setup):
        """export_entries/import_entries reproduce entries and recency."""
        _, _, addresses = setup
        address = addresses[0]
        graphs = self._array_graphs(setup, address)
        source = SliceGraphCache(capacity=16)
        for graph in graphs:
            source.put((address, graph.slice_index, "fp"), graph)
        target = SliceGraphCache(capacity=16)
        assert target.import_entries(source.export_entries()) == len(graphs)
        assert len(target) == len(source)
        assert target.nbytes == source.nbytes
        for graph in graphs:
            assert (
                target.get((address, graph.slice_index, "fp")) is graph
            )
        # Import counts neither hits nor misses.
        assert target.stats.hits == len(graphs)
        assert target.stats.misses == 0

    def test_nbytes_eviction_and_replacement(self, setup):
        _, _, addresses = setup
        address = addresses[0]
        graphs = self._array_graphs(setup, address)
        cache = SliceGraphCache(capacity=1)
        cache.put((address, 0, "fp"), graphs[0])
        cache.put((address, 1, "fp"), graphs[-1])  # evicts slice 0
        assert cache.stats.evictions == 1
        assert cache.nbytes == graphs[-1].nbytes
        cache.put((address, 1, "fp"), graphs[0])  # replace same key
        assert cache.nbytes == graphs[0].nbytes
        assert len(cache) == 1


class TestFingerprint:
    def test_stable_and_distinct(self):
        a = GraphPipelineConfig(slice_size=40)
        b = GraphPipelineConfig(slice_size=40)
        c = GraphPipelineConfig(slice_size=50)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert (
            GraphPipelineConfig(psi=0.5).fingerprint()
            != GraphPipelineConfig(psi=0.6).fingerprint()
        )


class TestScoringService:
    def test_cold_then_warm(self, setup):
        _, index, addresses = setup
        _, service = _service(setup)
        total = _total_slices(index, addresses)

        service.score(addresses)
        assert service.stats.misses == total
        assert service.stats.hits == 0
        assert len(service.cache) == total

        service.score(addresses)
        assert service.stats.hits == total
        assert service.stats.misses == total  # unchanged

    def test_matches_offline_classifier(self, setup):
        _, index, addresses = setup
        clf, service = _service(setup)
        scores = service.score(addresses)
        offline_labels = clf.predict(addresses, index)
        offline_proba = clf.predict_proba(addresses, index)
        np.testing.assert_array_equal(
            offline_labels, [scores[a].label for a in addresses]
        )
        np.testing.assert_allclose(
            offline_proba,
            np.stack([scores[a].probabilities for a in addresses]),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_batched_matches_sequential(self, setup):
        """One batched score() call == per-address score_one() calls."""
        _, _, addresses = setup
        _, service_batched = _service(setup)
        _, service_sequential = _service(setup)
        batched = service_batched.score(addresses)
        for address in addresses:
            single = service_sequential.score_one(address)
            assert single.label == batched[address].label
            np.testing.assert_allclose(
                single.probabilities,
                batched[address].probabilities,
                rtol=1e-9,
                atol=1e-9,
            )

    def test_warm_results_stable(self, setup):
        _, _, addresses = setup
        _, service = _service(setup)
        cold = service.score(addresses)
        warm = service.score(addresses)
        for address in addresses:
            np.testing.assert_allclose(
                cold[address].probabilities,
                warm[address].probabilities,
                rtol=0,
                atol=0,
            )

    def test_unknown_address_rejected(self, setup):
        _, service = _service(setup)
        with pytest.raises(ValidationError):
            service.score(["1NotOnChainXYZ"])

    def test_unfitted_classifier_rejected(self, setup):
        _, index, _ = setup
        clf = BAClassifier(BAClassifierConfig(slice_size=SLICE_SIZE))
        with pytest.raises(NotFittedError):
            AddressScoringService(clf, index)

    def test_evicted_trusted_slices_reuse_embeddings(self, setup):
        """LRU slice-cache thrash must not defeat the embedding cache:
        a trusted slice rebuilt after eviction is content-identical, so
        its memoised embedding row is served instead of recomputed."""
        _, index, addresses = setup
        _, service = _service(
            setup, config=ScoringServiceConfig(cache_capacity=2)
        )
        total = _total_slices(index, addresses)
        service.score(addresses)  # cold: every row computed once
        emb_before = service.embedding_stats.snapshot()
        service.score(addresses)  # slice cache thrashes, rows survive
        emb_after = service.embedding_stats.snapshot()
        assert emb_after["hits"] - emb_before["hits"] == total
        assert emb_after["misses"] == emb_before["misses"]

    def test_eviction_does_not_break_results(self, setup):
        _, _, addresses = setup
        _, unbounded = _service(setup)
        _, tiny = _service(
            setup, config=ScoringServiceConfig(cache_capacity=2)
        )
        expected = unbounded.score(addresses)
        got = tiny.score(addresses)
        tiny.score(addresses)  # evicted entries rebuilt transparently
        assert len(tiny.cache) <= 2
        assert tiny.stats.evictions > 0
        for address in addresses:
            np.testing.assert_allclose(
                got[address].probabilities,
                expected[address].probabilities,
                rtol=0,
                atol=0,
            )

    def test_class_names_sequence_and_mapping(self, setup):
        _, service_seq = _service(setup, class_names=["a", "b", "c", "d"])
        _, _, addresses = setup
        score = service_seq.score_one(addresses[0])
        assert score.class_name in {"a", "b", "c", "d"}
        _, service_map = _service(setup, class_names={score.label: "X"})
        assert service_map.score_one(addresses[0]).class_name == "X"


class TestInvalidation:
    def test_append_invalidates_only_affected(self, setup):
        chain, index, addresses = setup
        _, service = _service(setup, chain=chain)
        service.score(addresses)  # warm everything
        # A non-slice-aligned target: appending right after an exact slice
        # boundary would legitimately dirty no cached slice.
        target = next(
            a for a in addresses
            if chain.utxo_set.balance_of(a) > 0
            and index.transaction_count(a) % SLICE_SIZE != 0
        )
        others = [a for a in addresses if a != target]
        other_slices = _total_slices(index, others)

        pre_count = index.transaction_count(target)
        _append_self_spend(chain, target)
        assert service.stats.invalidations >= 1

        before = service.stats.snapshot()
        service.score(addresses)
        after = service.stats.snapshot()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]

        # Every slice of every *other* address is served from cache...
        assert hits >= other_slices
        # ...and exactly the target's dirtied trailing slices were
        # rebuilt — complete slices before the append stay cached.
        expected_rebuilt = (
            _total_slices(index, [target]) - pre_count // SLICE_SIZE
        )
        assert misses == expected_rebuilt

    def test_rescore_after_append_reflects_new_history(self, setup):
        chain, index, addresses = setup
        clf, service = _service(setup, chain=chain)
        target = next(
            a for a in addresses if chain.utxo_set.balance_of(a) > 0
        )
        service.score(addresses)
        _append_self_spend(chain, target)
        rescored = service.score(addresses)
        fresh = clf.predict_proba([target], index)[0]
        np.testing.assert_allclose(
            rescored[target].probabilities, fresh, rtol=1e-9, atol=1e-9
        )

    def test_repeated_appends_do_not_erode_cache(self, setup):
        """Complete slices are immutable: k appends must not drop k of
        them.  Invalidation is idempotent once coverage is slice-aligned."""
        chain, index, addresses = setup
        _, service = _service(setup, chain=chain)
        service.score(addresses)
        target = next(
            a for a in addresses if chain.utxo_set.balance_of(a) > 0
        )
        _append_self_spend(chain, target)
        covered_after_first = service.shards[0].covered[target]
        cached_after_first = len(service.cache)
        for _ in range(3):  # further appends: nothing more to drop
            _append_self_spend(chain, target)
        assert service.shards[0].covered[target] == covered_after_first
        assert len(service.cache) == cached_after_first

    def test_old_timestamp_tx_invalidates_interior_slices(self, setup):
        """A transaction mined late with an *old* timestamp re-sorts into
        an interior slice; the cache must not keep serving that slice."""
        chain, index, addresses = setup
        clf, service = _service(setup, chain=chain)
        target = next(
            a for a in addresses if chain.utxo_set.balance_of(a) > 0
        )
        service.score(addresses)
        # Craft a spend whose timestamp predates most of target's
        # history (block timestamps stay monotonic; tx timestamps are
        # not constrained to).
        entry = chain.utxo_set.entries_for(target)[0]
        old_timestamp = sorted(
            r.timestamp for r in index.records_for(target)
        )[1] + 0.5
        tx = Transaction.create(
            inputs=[
                TxInput(
                    outpoint=entry.outpoint,
                    address=target,
                    value=entry.value,
                )
            ],
            outputs=[TxOutput(address=target, value=entry.value)],
            timestamp=old_timestamp,
        )
        chain.mine_block(
            [tx],
            reward_address=target,
            timestamp=chain.tip.timestamp + chain.params.block_interval,
        )
        rescored = service.score(addresses)
        fresh = clf.predict_proba([target], index)[0]
        np.testing.assert_allclose(
            rescored[target].probabilities, fresh, rtol=1e-9, atol=1e-9
        )

    def test_late_connect_distrusts_prior_coverage(self, setup):
        """Appends before connect() go unobserved, so connecting must
        drop coverage built while not listening."""
        chain, index, addresses = setup
        clf, service = _service(setup)  # unconnected
        target = next(
            a for a in addresses if chain.utxo_set.balance_of(a) > 0
        )
        service.score(addresses)
        assert len(service.cache) > 0
        _append_self_spend(chain, target)  # unobserved
        service.connect(chain)
        assert len(service.cache) == 0  # stale-capable coverage dropped
        rescored = service.score(addresses)
        fresh = clf.predict_proba([target], index)[0]
        np.testing.assert_allclose(
            rescored[target].probabilities, fresh, rtol=1e-9, atol=1e-9
        )

    def test_disconnect_stops_invalidation(self, setup):
        chain, index, addresses = setup
        _, service = _service(setup, chain=chain)
        service.score(addresses)
        target = next(
            a for a in addresses
            if chain.utxo_set.balance_of(a) > 0
            and index.transaction_count(a) % SLICE_SIZE != 0
        )
        service.disconnect()
        before = service.stats.invalidations
        _append_self_spend(chain, target)
        assert service.stats.invalidations == before  # listener removed
        service.disconnect()  # idempotent no-op

    def test_double_connect_leaves_single_listener(self, setup):
        """connect() twice then disconnect() once: fully detached."""
        chain, index, addresses = setup
        _, service = _service(setup, chain=chain)
        service.connect(chain)  # re-connect: must not double-register
        service.score(addresses)
        service.disconnect()
        target = next(
            a for a in addresses
            if chain.utxo_set.balance_of(a) > 0
            and index.transaction_count(a) % SLICE_SIZE != 0
        )
        before = service.stats.invalidations
        _append_self_spend(chain, target)
        assert service.stats.invalidations == before

    def test_reconnect_same_chain_keeps_warm_cache(self, setup):
        """connect() with the already-connected chain is a no-op: every
        append since the original connect was observed, so the warm
        cache must survive instead of being dropped."""
        chain, index, addresses = setup
        _, service = _service(setup, chain=chain)
        service.score(addresses)
        cached = len(service.cache)
        assert cached > 0
        service.connect(chain)  # same chain: must not drop coverage
        assert len(service.cache) == cached
        before = service.stats.snapshot()
        service.score(addresses)
        after = service.stats.snapshot()
        assert after["misses"] == before["misses"]  # served fully warm
        service.disconnect()

    def test_cache_byte_accounting_with_encoded_entries(self, setup):
        """The service's encoded entries are byte-accounted end to end:
        warming fills nbytes, append invalidation shrinks it."""
        chain, index, addresses = setup
        _, service = _service(setup, chain=chain)
        service.score(addresses)
        warmed = service.cache.nbytes
        assert warmed > 0
        target = next(
            a for a in addresses
            if chain.utxo_set.balance_of(a) > 0
            and index.transaction_count(a) % SLICE_SIZE != 0
        )
        _append_self_spend(chain, target)
        assert service.stats.invalidations >= 1
        assert service.cache.nbytes < warmed
        service.score(addresses)  # rebuild: accounting recovers
        assert service.cache.nbytes > 0
        service.disconnect()

    def test_covered_tracking_without_chain_connection(self, setup):
        """Even unconnected, score() detects tx-count growth and rebuilds."""
        chain, index, addresses = setup
        clf, service = _service(setup)  # no chain => no listener
        target = next(
            a for a in addresses if chain.utxo_set.balance_of(a) > 0
        )
        service.score(addresses)
        _append_self_spend(chain, target)
        assert service.stats.invalidations == 0  # nothing proactively dropped
        rescored = service.score(addresses)
        fresh = clf.predict_proba([target], index)[0]
        np.testing.assert_allclose(
            rescored[target].probabilities, fresh, rtol=1e-9, atol=1e-9
        )
