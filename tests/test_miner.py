import dataclasses
import os

import pytest

from shardchain import codec, mainchain, subchain
from shardchain.errors import (
    BadLink,
    DuplicateHashConflict,
    InvalidSignature,
    TailConflict,
)
from shardchain.mainchain import (
    EASY_BITS,
    BLOCK_OVERHEAD,
    RECORD_LEN,
    ChainParams,
    capacity,
    make_genesis,
)
from shardchain.miner import Miner, verify_batch
from shardchain.node import Node
from shardchain.sharding import ShardAssignment
from shardchain.sim import derived_key

from conftest import build_chain, make_send

PARAMS = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096)
MINER_ADDR = b"\x4d" * 20


def fresh_miner(alloc, params=PARAMS):
    node = Node(b"\x00" * 8, ShardAssignment(), make_genesis(alloc), params)
    return Miner(MINER_ADDR, node), node


class TestPool:
    def test_insert_and_duplicate(self, keys):
        key = keys[0]
        miner, node = fresh_miner({key.address: 100})
        tx = make_send(key, amount=5)
        assert miner.pool_insert(tx) is True
        assert miner.pool_insert(tx) is False    # exact duplicate: no-op
        assert node.store.pending[key.address] == [tx]

    def test_bad_signature(self, keys):
        key = keys[0]
        miner, _ = fresh_miner({key.address: 100})
        tx = dataclasses.replace(make_send(key, amount=5),
                                 signature=b"\x02" * 64)
        with pytest.raises(InvalidSignature):
            miner.pool_insert(tx)

    def test_duplicate_hash_conflict(self, keys):
        key = keys[0]
        miner, _ = fresh_miner({key.address: 100})
        tx = make_send(key, amount=1)
        miner.pool_insert(tx)
        forged = dataclasses.replace(make_send(key, amount=2, timestamp=5),
                                     tx_hash=tx.tx_hash)
        with pytest.raises(DuplicateHashConflict):
            miner.pool_insert(forged)

    def test_gap_and_conflict(self, keys):
        key = keys[0]
        miner, _ = fresh_miner({key.address: 100})
        miner.pool_insert(make_send(key, amount=1))
        with pytest.raises(TailConflict):
            miner.pool_insert(make_send(key, amount=2))
        with pytest.raises(BadLink):
            miner.pool_insert(make_send(key, parent=b"\x01" * 32,
                                        height=9, amount=1))


def limited(limit):
    return dataclasses.replace(PARAMS, block_limit=limit)


class TestTemplate:
    def test_one_record_per_address(self, keys):
        key = keys[0]
        miner, _ = fresh_miner({key.address: 1000})
        for tx in build_chain(key, 5, start_balance=1000):
            miner.pool_insert(tx)
        block = miner.build_template(15)
        assert len(block.confirmations) == 1
        rec = block.confirmations[0]
        assert rec.tip_height == 5

    def test_capacity_selection_arithmetic(self):
        """Ten addresses with 5-tx tails and room for 4 records: the block
        covers exactly 20 transactions."""
        sim_keys = [derived_key(b"cap:%d" % i) for i in range(10)]
        alloc = {k.address: 1000 for k in sim_keys}
        limit = BLOCK_OVERHEAD + 4 * RECORD_LEN
        assert capacity(limit) == 4
        miner, _ = fresh_miner(alloc, limited(limit))
        for k in sim_keys:
            for tx in build_chain(k, 5, start_balance=1000):
                miner.pool_insert(tx)
        block = miner.build_template(15)
        assert len(block.confirmations) == 4
        assert sum(r.tip_height for r in block.confirmations) == 20
        assert len(block.encode()) <= limit

    def test_longest_tail_preferred(self, keys):
        a, b = keys[0], keys[1]
        miner, _ = fresh_miner({a.address: 100, b.address: 100},
                               limited(BLOCK_OVERHEAD + RECORD_LEN))
        miner.pool_insert(make_send(a, amount=1))
        for tx in build_chain(b, 3, start_balance=100):
            miner.pool_insert(tx)
        block = miner.build_template(15)
        assert len(block.confirmations) == 1
        assert block.confirmations[0].address == b.address

    def test_tie_goes_to_first_pooled(self, keys):
        miner, _ = fresh_miner({k.address: 100 for k in keys},
                               limited(BLOCK_OVERHEAD + RECORD_LEN))
        for k in reversed(keys):
            miner.pool_insert(make_send(k, amount=1))
        block = miner.build_template(15)
        assert [r.address for r in block.confirmations] == [keys[-1].address]

    def test_records_sorted(self, keys):
        miner, _ = fresh_miner({k.address: 100 for k in keys})
        for k in keys:
            miner.pool_insert(make_send(k, amount=1))
        block = miner.build_template(15)
        addrs = [r.address for r in block.confirmations]
        assert addrs == sorted(addrs)


class TestMining:
    def test_mine_and_ingest(self, keys):
        key = keys[0]
        miner, node = fresh_miner({key.address: 1000})
        chain = build_chain(key, 3, start_balance=1000)
        for tx in chain:
            node.accept_pending_tx(tx)
            miner.pool_insert(tx)
        block = miner.build_template(15)
        node.ingest_block(block)
        assert node.view.tip == block.block_hash
        assert node.confirmed_state(key.address).tip_height == 3
        miner.refresh_pool()
        assert key.address not in node.store.pending


class TestVerifyBatch:
    def _txs(self, keys, n=24, corrupt=()):
        txs = []
        for i in range(n):
            tx = make_send(keys[i % len(keys)], amount=1, timestamp=i)
            if i in corrupt:
                tx = dataclasses.replace(tx, signature=b"\x05" * 64)
            txs.append(tx)
        return txs

    def test_all_valid(self, keys):
        txs = self._txs(keys, 12)
        assert verify_batch(txs, workers=1) == [True] * 12

    def test_corrupted_detected_in_order(self, keys):
        txs = self._txs(keys, 16, corrupt={3, 11})
        verdicts = verify_batch(txs, workers=1)
        assert [i for i, ok in enumerate(verdicts) if not ok] == [3, 11]

    def test_worker_count_invariance(self, keys):
        txs = self._txs(keys, 24, corrupt={0, 7, 23})
        base = verify_batch(txs, workers=1)
        for workers in (2, 3):
            assert verify_batch(txs, workers=workers) == base

    def test_invalid_worker_count(self, keys):
        with pytest.raises(ValueError):
            verify_batch([], workers=0)
