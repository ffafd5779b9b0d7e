import dataclasses
import hashlib

import pytest

from shardchain import codec, mainchain, sharding, subchain, wallet
from shardchain.codec import NULL_HASH
from shardchain.errors import (
    BadLink,
    ConfirmationMismatch,
    ConfirmedFrozen,
    DuplicateHashConflict,
    InvalidSignature,
    NotHosted,
    RangeUnavailable,
    TailConflict,
)
from shardchain.mainchain import (
    EASY_BITS,
    BlockHeader,
    ChainParams,
    ConfirmationRecord,
    MainBlock,
    confirmations_root,
    make_genesis,
    seal,
)
from shardchain.node import Node
from shardchain.sharding import ShardAssignment
from shardchain.subchain import SubchainFragment, initial_state, replay

from conftest import Calls, build_chain, make_receive, make_send

PARAMS = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                     maturity=2)
MINER = b"\x4d" * 20


def make_node(genesis, assignment="", params=PARAMS):
    return Node(b"\x00" * 8, ShardAssignment(assignment), genesis, params)


def confirm_block(node, records, timestamp=None, miner=MINER, parent=None):
    parent = parent if parent is not None else node.view.tip
    ts = node.view.height[parent] * 15 if timestamp is None else timestamp
    header = BlockHeader(parent, node.view.height[parent] + 1, ts, miner,
                         confirmations_root(records),
                         node.params.difficulty_bits)
    return seal(MainBlock(header, tuple(records)))


class TestPendingAcceptance:
    def test_accept_and_idempotent(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        tx = make_send(key, amount=5)
        assert node.accept_pending_tx(tx) is True
        assert node.accept_pending_tx(tx) is False  # exact duplicate: no-op
        assert node.store.pending[key.address] == [tx]
        assert node.full_state(key.address).balance == 95

    def test_bad_signature(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        tx = make_send(key, amount=5)
        bad = dataclasses.replace(tx, signature=b"\x01" * 64)
        with pytest.raises(InvalidSignature):
            node.accept_pending_tx(bad)

    def test_gap_rejected(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        t1 = make_send(key, amount=1)
        t3 = make_send(key, parent=b"\x0f" * 32, height=3, amount=1)
        node.accept_pending_tx(t1)
        with pytest.raises(BadLink):
            node.accept_pending_tx(t3)

    def test_same_height_conflict(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        node.accept_pending_tx(make_send(key, amount=1))
        rival = make_send(key, amount=2)
        with pytest.raises(TailConflict):
            node.accept_pending_tx(rival)

    def test_duplicate_hash_forgery(self, keys):
        """Two different transactions claiming the same hash: the second
        one is rejected outright. The forged copy keeps the held tx's
        height, since finding a real collision is infeasible."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        tx = make_send(key, amount=1)
        node.accept_pending_tx(tx)
        forged = dataclasses.replace(make_send(key, amount=2, timestamp=9),
                                     tx_hash=tx.tx_hash)
        with pytest.raises(DuplicateHashConflict):
            node.accept_pending_tx(forged)

    def test_resigned_duplicate_conflicts(self, keys):
        """Re-signing a tx keeps its hash (the preimage leaves out the
        signature) but not its signature: the held tx is compared in
        every field, so the second copy is a conflict, not a
        duplicate."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        tx = make_send(key, amount=1)
        again = make_send(key, amount=1)
        assert again.tx_hash == tx.tx_hash and again != tx
        node.accept_pending_tx(tx)
        with pytest.raises(DuplicateHashConflict):
            node.accept_pending_tx(again)

    @pytest.mark.parametrize("name, value", [
        ("height", -1), ("amount", "5"), ("height", "1"),
        ("current_address", "ab" * 10)])
    def test_wrong_typed_field_is_invalid_signature(self, keys, name,
                                                   value):
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        tx = dataclasses.replace(make_send(key, amount=5), **{name: value})
        with pytest.raises(InvalidSignature):
            node.accept_pending_tx(tx)
        assert node.store.pending == {} and node.store.tail_states == {}

    def test_non_hosted_tx_refused_unverified(self, keys, monkeypatch):
        """A tx for an address outside the prefix is refused before its
        signature is checked, and the node keeps nothing of it."""
        key = keys[0]
        bit = "1" if key.address[0] < 0x80 else "0"
        node = make_node(make_genesis({key.address: 100}), assignment=bit)
        tx = make_send(key, amount=5)
        calls = Calls(monkeypatch, [(codec, "_verify_uncached")])
        with pytest.raises(NotHosted):
            node.accept_pending_tx(tx)
        assert calls.take() == {}
        assert (node.store.pending, node.store.tail_states,
                node.store.txs) == ({}, {}, {})


def ingest_chain(node, key, txs):
    for tx in txs:
        node.accept_pending_tx(tx)
    rec = ConfirmationRecord(key.address, txs[-1].tx_hash, txs[-1].height)
    block = confirm_block(node, [rec])
    return block, node.ingest_block(block)


class TestIngest:
    def test_confirm_advances_state(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        chain = build_chain(key, 3, start_balance=1000)
        block, deltas = ingest_chain(node, key, chain)
        state = node.confirmed_state(key.address)
        assert state.tip_height == 3
        assert key.address not in node.store.pending
        # oracle: from-scratch replay agrees
        assert state == replay(chain, node.claim_context(),
                               initial=initial_state(key.address, 1000))

    def test_ingest_idempotent(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        chain = build_chain(key, 2, start_balance=1000)
        block, _ = ingest_chain(node, key, chain)
        assert node.ingest_block(block) == {}
        assert node.view.tip_height == 1

    def test_partial_confirmation_keeps_tail(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        chain = build_chain(key, 4, start_balance=1000)
        for tx in chain:
            node.accept_pending_tx(tx)
        rec = ConfirmationRecord(key.address, chain[1].tx_hash, 2)
        node.ingest_block(confirm_block(node, [rec]))
        assert node.confirmed_state(key.address).tip_height == 2
        assert [t.height for t in node.store.pending[key.address]] == [3, 4]
        assert node.full_state(key.address) == replay(
            chain[2:], node.claim_context(),
            initial=node.confirmed_state(key.address))

    def test_mismatched_record_rejected(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        chain = build_chain(key, 2, start_balance=1000)
        for tx in chain:
            node.accept_pending_tx(tx)
        rec = ConfirmationRecord(key.address, b"\x13" * 32, 2)
        with pytest.raises(ConfirmationMismatch):
            node.ingest_block(confirm_block(node, [rec]))

    def test_replayed_record_delta(self, keys):
        """A record the node holds no pool for is replayed from the
        fragment it names: the delta is the prior state, the replayed
        state and the fragment's txs."""
        key = keys[0]
        chain = build_chain(key, 4, start_balance=1000)
        node = Node(b"\x00" * 8, ShardAssignment(""),
                    make_genesis({key.address: 1000}), PARAMS,
                    fetch=lambda address, lo, hi: SubchainFragment(
                        address=address, from_height=lo,
                        txs=tuple(chain[lo:hi])))
        ctx = node.claim_context()
        deltas = node.ingest_block(confirm_block(node, [
            ConfirmationRecord(key.address, chain[-1].tx_hash, 4)]))
        old, new, txs = deltas[key.address]
        assert old == initial_state(key.address, 1000)
        assert new == replay(chain, ctx, initial=old)
        assert node.confirmed_state(key.address).tip_height == 4
        assert txs == tuple(chain)

    def test_foreign_record_skipped(self, keys, monkeypatch):
        """A partial node checks no record of an address it does not host:
        no fragment check, no STF step, no delta."""
        key = keys[0]
        chain = build_chain(key, 2, start_balance=1000)
        other = "1" if sharding.address_bits(key.address, 1) == "0" else "0"
        node = make_node(make_genesis({key.address: 1000}), other)
        block = confirm_block(node, [
            ConfirmationRecord(key.address, chain[-1].tx_hash, 2)])
        calls = Calls(monkeypatch, [(subchain, "apply_tx"),
                                    (subchain, "verify_fragment")])
        assert node.ingest_block(block) == {}
        assert calls.take() == {}
        assert node.view.tip == block.block_hash

    def test_side_block_walks_branch_index_once(self, keys, monkeypatch):
        """The main chain's checks hand the parent branch's index to the
        record loop, so a side block's index is built once."""
        node = make_node(make_genesis({}))
        genesis = node.view.tip
        node.ingest_block(confirm_block(node, []))
        side = confirm_block(node, [], parent=genesis, timestamp=99)
        calls = Calls(monkeypatch, [(mainchain.ChainView,
                                     "branch_confirmations")])
        node.ingest_block(side)
        assert calls.take() == {"branch_confirmations": 1}

    def test_send_inflow_indexed_for_recipient(self, keys):
        sender, rcpt = keys[0], keys[1]
        node = make_node(make_genesis({sender.address: 100}))
        tx = make_send(sender, amount=30, recipient=rcpt.address)
        node.accept_pending_tx(tx)
        rec = ConfirmationRecord(sender.address, tx.tx_hash, 1)
        block = confirm_block(node, [rec])
        node.ingest_block(block)
        inflow = node.store.inflows[rcpt.address][tx.tx_hash]
        assert inflow.amount == 30
        assert inflow.block_hash == block.block_hash
        assert not inflow.coinbase

    def test_coinbase_inflow_for_hosted_miner(self, keys):
        node = make_node(make_genesis({}))
        block = confirm_block(node, [])
        node.ingest_block(block)
        inflow = node.store.inflows[MINER][block.block_hash]
        assert inflow.coinbase and inflow.amount == PARAMS.subsidy


    def test_ingest_of_accepted_txs_encodes_and_verifies_nothing(
            self, keys, monkeypatch):
        """A block on the tip that confirms two whole pending tails takes
        each tail's post-state from the pool: it is ingested without an
        STF step, a fragment check, a signature check or an encoded tx,
        and its deltas equal a check of each fragment from the prior
        state."""
        sender, rcpt = keys[0], keys[1]
        node = make_node(make_genesis({sender.address: 100,
                                       rcpt.address: 100}))
        records = []
        for key in (sender, rcpt):
            chain = build_chain(key, 3, start_balance=100)
            for tx in chain:
                node.accept_pending_tx(tx)
            records.append(ConfirmationRecord(key.address,
                                              chain[-1].tx_hash, 3))
        block = confirm_block(node, sorted(records,
                                           key=lambda r: r.address))
        ctx = node.claim_context()
        calls = Calls(monkeypatch, [(codec, "encode_tx"),
                                    (codec, "_verify_uncached"),
                                    (subchain, "apply_tx"),
                                    (subchain, "verify_fragment")])
        deltas = node.ingest_block(block)
        assert calls.take() == {}
        monkeypatch.undo()
        assert sorted(len(d[2]) for d in deltas.values()) == [3, 3]
        assert node.view.tip == block.block_hash
        assert list(deltas) == [r.address for r in block.confirmations]
        for address, (old, new, txs) in deltas.items():
            assert old == initial_state(address, 100)
            assert new == subchain.verify_fragment(old, SubchainFragment(
                address=address, from_height=0, txs=txs), ctx)
            assert node.confirmed_state(address).tip_height == 3


class TestIngestFallback:
    """Records that do not confirm a whole pending tail in a block on the
    tip are checked by replay against the fragment they name."""

    def test_prefix_of_tail_replays(self, keys, monkeypatch):
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        chain = build_chain(key, 4, start_balance=1000)
        for tx in chain:
            node.accept_pending_tx(tx)
        calls = Calls(monkeypatch)
        deltas = node.ingest_block(confirm_block(node, [
            ConfirmationRecord(key.address, chain[1].tx_hash, 2)]))
        counts = calls.take()
        assert (counts["verify_fragment"], counts["apply_tx"]) == (1, 2)
        assert deltas[key.address][2] == tuple(chain[:2])
        assert node.store.pending[key.address] == chain[2:]

    def test_side_block_confirming_tail_replays(self, keys, monkeypatch):
        """A sibling of the tip confirms the whole pending tail: its claim
        context is not the tip's, so the tail is replayed, and stays
        pending on the canonical chain."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        genesis = node.view.tip
        node.ingest_block(confirm_block(node, []))
        chain = build_chain(key, 2, start_balance=1000)
        for tx in chain:
            node.accept_pending_tx(tx)
        side = confirm_block(node, [ConfirmationRecord(
            key.address, chain[-1].tx_hash, 2)], parent=genesis, timestamp=99)
        calls = Calls(monkeypatch)
        deltas = node.ingest_block(side)
        counts = calls.take()
        assert (counts["verify_fragment"], counts["apply_tx"]) == (1, 2)
        assert node.view.tip != side.block_hash
        assert node.store.archive[side.block_hash] == {
            key.address: (tuple(chain), deltas[key.address][1])}
        assert node.store.pending[key.address] == chain
        assert node.confirmed_state(key.address).tip_height == 0

    @staticmethod
    def confirm_other_version(key):
        """Pool send A, then ingest a block on the tip that confirms send
        B at A's height. Returns the node, A, B, the deltas and the
        fetches made."""
        a = make_send(key, recipient=b"\x07" * 20, amount=1)
        b = make_send(key, recipient=b"\x08" * 20, amount=2)
        fetched = []

        def fetch(address, lo, hi):
            fetched.append((address, lo, hi))
            return SubchainFragment(address=address, from_height=lo,
                                    txs=(b,))

        node = Node(b"\x00" * 8, ShardAssignment(""),
                    make_genesis({key.address: 1000}), PARAMS, fetch=fetch)
        node.accept_pending_tx(a)
        deltas = node.ingest_block(confirm_block(node, [
            ConfirmationRecord(key.address, b.tx_hash, 1)]))
        return node, a, b, deltas, fetched

    def test_other_version_at_tail_tip_is_fetched(self, keys):
        """A block on the tip confirms send B at the height of the pending
        tail's last tx, send A (an owner rewrite this node never saw):
        the record matches the tail's height but not its hash, so B is
        fetched and checked, and the tail that no longer links is
        dropped."""
        key = keys[0]
        node, _, b, deltas, fetched = self.confirm_other_version(key)
        assert fetched == [(key.address, 0, 1)]
        assert deltas[key.address][2] == (b,)
        state = node.confirmed_state(key.address)
        assert (state.tip_hash, state.balance) == (b.tx_hash, 998)
        assert key.address not in node.store.pending

    def test_dropped_tail_tx_resubmitted_is_rejected(self, keys):
        """The tail tx dropped for the confirmed other version is not held
        any more: resubmitted, it forks below the confirmed height."""
        key = keys[0]
        node, a, _, _, _ = self.confirm_other_version(key)
        with pytest.raises(ConfirmedFrozen):
            node.accept_pending_tx(a)
        assert key.address not in node.store.pending


class TestEndToEndTransfer:
    def test_send_confirm_claim(self, keys):
        sender, rcpt = keys[0], keys[1]
        node = make_node(make_genesis({sender.address: 100}))
        send = make_send(sender, amount=30, recipient=rcpt.address)
        node.accept_pending_tx(send)
        rec = ConfirmationRecord(sender.address, send.tx_hash, 1)
        block = confirm_block(node, [rec])
        node.ingest_block(block)
        # maturity 2: one more block on top
        node.ingest_block(confirm_block(node, []))
        claim = make_receive(rcpt, NULL_HASH, 1, sender.address,
                             send.tx_hash, block.block_hash, 30)
        node.accept_pending_tx(claim)
        assert node.full_state(rcpt.address).balance == 30
        rec2 = ConfirmationRecord(rcpt.address, claim.tx_hash, 1)
        node.ingest_block(confirm_block(node, [rec2]))
        assert node.confirmed_state(rcpt.address).balance == 30
        # the claim hides the inflow, which stays indexed
        assert wallet.account_view(node, rcpt.address).claimables == []
        assert node.store.inflows[rcpt.address][send.tx_hash].block_hash \
            == block.block_hash

    def test_immature_claim_rejected(self, keys):
        sender, rcpt = keys[0], keys[1]
        node = make_node(make_genesis({sender.address: 100}))
        send = make_send(sender, amount=30, recipient=rcpt.address)
        node.accept_pending_tx(send)
        rec = ConfirmationRecord(sender.address, send.tx_hash, 1)
        block = confirm_block(node, [rec])
        node.ingest_block(block)   # depth 1 < maturity 2
        claim = make_receive(rcpt, NULL_HASH, 1, sender.address,
                             send.tx_hash, block.block_hash, 30)
        from shardchain.errors import UnconfirmedSend
        with pytest.raises(UnconfirmedSend):
            node.accept_pending_tx(claim)


class TestReorg:
    def test_reorg_rebuild_matches_scan(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        chain = build_chain(key, 2, start_balance=1000)
        for tx in chain:
            node.accept_pending_tx(tx)
        a1 = confirm_block(node, [ConfirmationRecord(
            key.address, chain[0].tx_hash, 1)], timestamp=1)
        node.ingest_block(a1)
        # competing branch from genesis confirming both txs, longer
        genesis_hash = node.genesis.block_hash
        b1 = confirm_block(node, [ConfirmationRecord(
            key.address, chain[1].tx_hash, 2)], timestamp=20,
            parent=genesis_hash)
        node.ingest_block(b1)          # same work: no reorg yet
        assert node.view.tip == a1.block_hash
        b2 = confirm_block(node, [], timestamp=21, parent=b1.block_hash)
        node.ingest_block(b2)          # heavier: reorg to branch b
        assert node.view.tip == b2.block_hash
        state = node.confirmed_state(key.address)
        assert state.tip_height == 2
        # index equals a from-scratch branch scan
        assert node.view.confirmations == \
            node.view.confirmations_at(node.view.tip)

    def test_orphaned_claim_invalidated(self, keys):
        """A claim that references a send confirmed only on the losing
        branch must disappear from the pending set after the reorg."""
        sender, rcpt = keys[0], keys[1]
        params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                             maturity=1)
        node = make_node(make_genesis({sender.address: 100}),
                         params=params)
        send = make_send(sender, amount=30, recipient=rcpt.address)
        node.accept_pending_tx(send)
        a1 = confirm_block(node, [ConfirmationRecord(
            sender.address, send.tx_hash, 1)], timestamp=1)
        node.ingest_block(a1)
        claim = make_receive(rcpt, NULL_HASH, 1, sender.address,
                             send.tx_hash, a1.block_hash, 30)
        node.accept_pending_tx(claim)
        assert node.full_state(rcpt.address).balance == 30
        # empty competing branch overtakes; the send is unconfirmed again
        g = node.genesis.block_hash
        b1 = confirm_block(node, [], timestamp=30, parent=g)
        node.ingest_block(b1)
        b2 = confirm_block(node, [], timestamp=31, parent=b1.block_hash)
        node.ingest_block(b2)
        assert node.view.tip == b2.block_hash
        assert rcpt.address not in node.store.pending
        assert node.full_state(rcpt.address).balance == 0
        # the sender's pending send survives and can be re-confirmed
        assert node.store.pending[sender.address] == [send]


class TestServing:
    def test_serve_fragment(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        chain = build_chain(key, 4, start_balance=1000)
        ingest_chain(node, key, chain)
        frag = node.serve_fragment(key.address, 1, 3)
        assert frag.from_height == 1
        assert [t.height for t in frag.txs] == [2, 3]

    def test_serve_not_hosted(self, keys):
        key = keys[0]
        bit = "1" if key.address[0] < 0x80 else "0"
        node = make_node(make_genesis({}), assignment=bit)
        with pytest.raises(NotHosted):
            node.serve_fragment(key.address, 0, 1)

    def test_serve_range_unavailable(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        with pytest.raises(RangeUnavailable):
            node.serve_fragment(key.address, 0, 5)


class TestStorage:
    def test_report_counts_serialized_bytes(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        chain = build_chain(key, 3, start_balance=1000)
        block, _ = ingest_chain(node, key, chain)
        report = node.storage_report()
        assert report.tx_count == 3 and report.shard_count == 1
        assert report.subchain_bytes == sum(
            len(codec.encode_tx(t)) for t in chain)
        assert report.main_chain_bytes == \
            len(node.genesis.encode()) + len(block.encode())

    def test_report_encodes_no_tx(self, keys, monkeypatch):
        """Stored and pending txs of both kinds are counted at their wire
        widths without encoding one, and blocks from their record counts
        without encoding one."""
        sender, rcpt = keys[0], keys[1]
        node = make_node(make_genesis({sender.address: 100}))
        send = make_send(sender, amount=30, recipient=rcpt.address)
        block, _ = ingest_chain(node, sender, [send])
        node.ingest_block(confirm_block(node, []))      # maturity 2
        claim = make_receive(rcpt, NULL_HASH, 1, sender.address,
                             send.tx_hash, block.block_hash, 30)
        node.accept_pending_tx(claim)
        wire = len(codec.encode_tx(send)) + len(codec.encode_tx(claim))
        main = len(node.genesis.encode()) + sum(
            len(b.encode()) for b in node.view.blocks.values())
        calls = Calls(monkeypatch, [(codec, "encode_tx"),
                                    (MainBlock, "encode")])
        report = node.storage_report()
        assert calls.take() == {}
        assert report.tx_count == 2 and report.shard_count == 2
        assert report.subchain_bytes == wire
        assert report.main_chain_bytes == main
