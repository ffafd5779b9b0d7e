import os

import pytest
from hypothesis import assume, given, strategies as st

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

from conftest import build_chain, chain_signed, make_send, tails
from test_decoders import hashes, linked_fragments

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
        assert tails(node)[key.address] == [tx]

    def test_bad_signature(self, keys):
        key = keys[0]
        miner, _ = fresh_miner({key.address: 100})
        tx = make_send(key, amount=5)._replace(signature=b"\x02" * 64)
        with pytest.raises(InvalidSignature):
            miner.pool_insert(tx)

    def test_duplicate_hash_conflict(self, keys):
        key = keys[0]
        miner, _ = fresh_miner({key.address: 100})
        tx = make_send(key, amount=1)
        miner.pool_insert(tx)
        forged = make_send(key, amount=2, timestamp=5)._replace(
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
    return PARAMS._replace(block_limit=limit)


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
        assert key.address not in tails(node)


class TestVerifyBatch:
    def _txs(self, keys, n=24, corrupt=()):
        txs = []
        for i in range(n):
            tx = make_send(keys[i % len(keys)], amount=1, timestamp=i)
            if i in corrupt:
                tx = tx._replace(signature=b"\x05" * 64)
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

    def test_chain_signed_chunks_end_at_signed_txs(self, keys):
        """An unsigned tx reads as its child does, so two workers split
        eight txs after the signed fifth, not after the unsigned fourth,
        and agree with one worker: all True, and every tx below a bad
        signature False."""
        txs = chain_signed(keys[0], [False] * 4 + [True]) \
            + chain_signed(keys[1], [False, True, True])
        assert codec.unsigned(txs[3])
        for workers in (1, 2):
            assert verify_batch(txs, workers=workers) == [True] * 8
        txs[6] = txs[6]._replace(signature=b"\x05" * 64)
        for workers in (1, 2):
            assert verify_batch(txs, workers=workers) \
                == [True] * 5 + [False, False, True]

    def test_off_wire_values_read_false(self, keys):
        """A value that is not a tx, or a signed send with a field off its
        wire type or range, reads False alone and among valid signed and
        unsigned batches, at one worker and at two, as verify_tx says."""
        signed = make_send(keys[2])
        bad = [signed._replace(amount="x"), signed._replace(amount=-1),
               signed._replace(height=2 ** 64), None, b"xx"]
        batches = chain_signed(keys[0], [False] * 4 + [True]) \
            + chain_signed(keys[1], [False, True, True])
        for value in bad:
            assert codec.verify_tx(value) is False
            for workers in (1, 2):
                assert verify_batch([value], workers=workers) == [False]
            # each position follows a signed tx, so only the value is False
            for at in (0, 5, 7, 8):
                txs = batches[:at] + [value] + batches[at:]
                expected = [i != at for i in range(len(txs))]
                for workers in (1, 2):
                    assert verify_batch(txs, workers=workers) == expected
            # below the value, the unsigned batch it would vouch for fails
            txs = batches[:4] + [value] + batches[4:]
            verdicts = verify_batch(txs, workers=1)
            assert verdicts == [False] * 5 + [True] * 4
            assert verify_batch(txs, workers=2) == verdicts

    def test_invalid_worker_count(self, keys):
        with pytest.raises(ValueError):
            verify_batch([], workers=0)


def reference_verdicts(txs):
    """The batch-authentication rule, written apart from codec: a signed
    tx is authentic when it passes ``verify_tx``; an unsigned one when it
    is vouched for by the next tx (its own hash matches its wire form, and
    the next tx is of its account and names that hash as its parent) and
    that tx is authentic."""
    def vouched(tx, child):
        try:
            return (codec.hash_tx(tx) == tx
                    and isinstance(child, (codec.SendTx, codec.ReceiveTx))
                    and child.current_address == tx.current_address
                    and child.parent_hash == tx.tx_hash)
        except InvalidSignature:    # no wire form to hash
            return False

    def authentic(i):
        if tx_signed(txs[i]):
            return codec.verify_tx(txs[i])
        return i + 1 < len(txs) and vouched(txs[i], txs[i + 1]) \
            and authentic(i + 1)

    return [authentic(i) for i in range(len(txs))]


def tx_signed(tx):
    return (tx.public_key, tx.signature) != (codec.NULL_KEY, codec.NULL_SIG)


# each fault drawn into one account's batch, and the off-wire values
FAULTS = ["none", "forged_hash", "bad_signature", "broken_link",
          "unsigned_last", "off_wire_field"]
OFF_WIRE = [("amount", "5"), ("height", -1), ("height", 2 ** 64),
            ("current_address", b"\x01" * 19), ("parent_hash", None)]


def with_fault(txs, fault, data, key):
    """A copy of ``txs`` with one fault of that name at a drawn position."""
    txs = list(txs)

    def position(options):
        assume(options)
        return data.draw(st.sampled_from(options))

    i = position(list(range(len(txs))))
    if fault == "forged_hash":
        txs[i] = txs[i]._replace(tx_hash=data.draw(hashes))
    elif fault == "bad_signature":
        i = position([j for j, tx in enumerate(txs) if tx_signed(tx)])
        sig = txs[i].signature
        txs[i] = txs[i]._replace(signature=bytes([sig[0] ^ 1]) + sig[1:])
    elif fault == "broken_link":
        tx = txs[i]._replace(parent_hash=data.draw(hashes))
        # hashed or signed again where drawn, else its hash is stale too
        if data.draw(st.booleans()):
            tx = codec.sign_tx(tx, key) if tx_signed(tx) \
                else codec.hash_tx(tx)
        txs[i] = tx
    elif fault == "unsigned_last":
        txs[-1] = txs[-1]._replace(public_key=codec.NULL_KEY,
                                   signature=codec.NULL_SIG)
    elif fault == "off_wire_field":
        txs[i] = txs[i]._replace(**dict([data.draw(st.sampled_from(
            OFF_WIRE))]))
    return txs


class TestVerdictsFollowTheRule:
    """``codec.verify_txs`` and ``verify_batch``'s per-tx verdicts, both
    ``codec.tx_verdicts``, agree with the rule written apart from it."""

    @pytest.mark.parametrize("fault", FAULTS)
    @given(shape=st.lists(st.tuples(st.booleans(), st.booleans()),
                          min_size=1, max_size=6),
           data=st.data())
    def test_one_account_batch(self, keys, fault, shape, data):
        txs = chain_signed(keys[0], [sign for sign, _ in shape],
                           [send for _, send in shape])
        txs = with_fault(txs, fault, data, keys[0])
        expected = reference_verdicts(txs)
        assert codec.verify_txs(txs) is all(expected)
        assert verify_batch(txs, workers=1) == expected

    @given(frag=linked_fragments())
    def test_drawn_fragment(self, frag):
        """Random txs, unsigned and linked where drawn: neither hash nor
        signature holds, so every verdict is False, by either path."""
        expected = reference_verdicts(frag.txs)
        assert not any(expected)
        assert codec.verify_txs(frag.txs) is all(expected)
        assert verify_batch(frag.txs, workers=1) == expected

    def test_two_workers(self, keys):
        """Eight txs of one account, three of them signed, the middle
        signature bad: it and the unsigned tx below it read False, and
        two workers give the rule's verdicts."""
        txs = chain_signed(keys[0], [False, False, True, False, True,
                                     False, False, True])
        sig = txs[4].signature
        txs[4] = txs[4]._replace(signature=bytes([sig[0] ^ 1]) + sig[1:])
        expected = [True] * 3 + [False] * 2 + [True] * 3
        assert reference_verdicts(txs) == expected
        assert verify_batch(txs, workers=2) == expected
        assert codec.verify_txs(txs) is False
