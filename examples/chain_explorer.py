"""Drive the UTXO chain substrate directly: wallets, blocks, queries.

Demonstrates the low-level API beneath the classifier — the same
machinery the workload generator uses.  Builds a tiny hand-rolled
economy, then answers explorer-style questions (balances, history,
counterparties, supply) and constructs an address graph by hand.

Usage::

    python examples/chain_explorer.py
"""

from __future__ import annotations

from repro.chain import (
    AddressFactory,
    Blockchain,
    ChainParams,
    Mempool,
    Wallet,
    attach_index,
    btc,
)
from repro.graphs import (
    GraphConstructionPipeline,
    GraphPipelineConfig,
    NodeKind,
)


def main() -> None:
    factory = AddressFactory(2009)
    chain = Blockchain(ChainParams(halving_interval=100))
    index = attach_index(chain)
    mempool = Mempool(chain.utxo_set)

    miner = Wallet(mempool.view(), factory, name="miner")
    alice = Wallet(mempool.view(), factory, name="alice")
    bob = Wallet(mempool.view(), factory, name="bob")

    print("Mining 5 blocks to the miner ...")
    reward_address = miner.new_address()
    for height in range(1, 6):
        chain.mine_block([], reward_address=reward_address,
                         timestamp=600.0 * height)
    print(f"  miner balance: {miner.balance() / 1e8:.2f} BTC")
    print(f"  total supply:  {chain.total_supply() / 1e8:.2f} BTC")

    print("\nMiner pays Alice 30 BTC (fee 0.001); Alice pays Bob 12 ...")
    alice_addr = alice.new_address()
    tx1 = miner.create_transaction(
        [(alice_addr, btc(30))], timestamp=3600.0, fee=btc(0.001)
    )
    mempool.submit(tx1)
    bob_addr = bob.new_address()
    tx2 = alice.create_transaction(
        [(bob_addr, btc(12))], timestamp=3601.0, fee=btc(0.001)
    )
    mempool.submit(tx2)  # spends Alice's unconfirmed output
    block = chain.mine_block(
        mempool.drain(), reward_address=reward_address, timestamp=3900.0
    )
    print(f"  block {block.height} mined with {block.tx_count} transactions "
          f"(fees collected: {block.total_fees() / 1e8:.4f} BTC)")

    print("\nExplorer queries:")
    print(f"  alice balance: {alice.balance() / 1e8:.4f} BTC "
          "(change went to a fresh address — the paper's §II-A mechanism)")
    print(f"  bob balance:   {bob.balance() / 1e8:.4f} BTC")
    records = index.records_for(alice_addr)
    for record in records:
        print(
            f"  {alice_addr[:16]}… {record.direction:>4} "
            f"{abs(record.net_value) / 1e8:.4f} BTC at t={record.timestamp:.0f} "
            f"(block {record.block_height})"
        )
    partners = index.counterparties(alice_addr)
    print(f"  counterparties of alice's address: {len(partners)}")

    print("\nBuilding the address graph for the miner's reward address ...")
    pipeline = GraphConstructionPipeline(GraphPipelineConfig(slice_size=10))
    graphs = pipeline.build_many(index, [reward_address])[reward_address]
    graph = graphs[0]
    kinds = {
        kind: len(graph.nodes_of_kind(kind))
        for kind in (NodeKind.ADDRESS, NodeKind.TRANSACTION,
                     NodeKind.SINGLE_HYPER, NodeKind.MULTI_HYPER)
    }
    print(f"  {len(graphs)} slice graph(s); first has {graph.num_nodes} nodes "
          f"{kinds} and {graph.num_edges} edges")
    features = graph.feature_matrix()
    print(f"  node feature matrix: {features.shape} "
          "(15 SFE stats + 4 centralities + kind one-hot + centre flag)")


if __name__ == "__main__":
    main()
