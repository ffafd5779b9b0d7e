import copy
import hashlib
import time

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import \
    decode_dss_signature

from shardchain import codec, mainchain, sharding, subchain, wallet
from shardchain.codec import NULL_ADDRESS, NULL_HASH, SendTx
from shardchain.errors import (
    BadLink,
    BadPoW,
    ConfirmationMismatch,
    ConfirmedFrozen,
    DuplicateHashConflict,
    FragmentMisaligned,
    InvalidSignature,
    NotHosted,
    PartialFetch,
    RangeUnavailable,
    StaleConfirmation,
    TailConflict,
    UnconfirmedSend,
    UnknownParent,
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

from conftest import FORGERIES, Calls, assert_index_is_scan, build_chain, \
    chain_signed, forge, make_coinbase_claim, make_receive, make_send, tails

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
        assert tails(node)[key.address] == [tx]
        assert node.full_state(key.address).balance == 95

    def test_bad_signature(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        tx = make_send(key, amount=5)
        bad = tx._replace(signature=b"\x01" * 64)
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

    def test_batch_not_extending_its_own_tx_refused(self, keys):
        """A NewTx whose later tx does not extend the tx before it, here a
        signed tx at height 1 whose parent is the unsigned tx at height 1
        below it, authenticates, but its fold refuses it with BadLink: it
        pools and journals nothing."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        u1 = codec.hash_tx(make_send(key, sign=False))
        s1 = make_send(key, parent=u1.tx_hash, amount=2)
        assert codec.verify_txs((u1, s1))
        journal = []
        with pytest.raises(BadLink):
            node.apply_request(codec.MsgKind.NewTx,
                               subchain.encode_batch((u1, s1)),
                               lambda *record: journal.append(record))
        assert journal == []
        assert tails(node) == {} and node.store.tail_states == {}

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
        forged = make_send(key, amount=2, timestamp=9)._replace(
            tx_hash=tx.tx_hash)
        with pytest.raises(DuplicateHashConflict):
            node.accept_pending_tx(forged)

    @pytest.mark.parametrize("name", ["tx_hash", "parent_hash",
                                      "public_key", "signature"])
    def test_twin_of_a_verified_tx_refused(self, keys, name):
        """A twin of a verified tx with one field held as a memoryview
        equals it and hashes alike, but has no wire form: it is refused
        and leaves no state. The genuine tx then pools, and its block
        seals and connects."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        tx = make_send(key, amount=5, timestamp=40 + len(name))
        assert codec.verify_tx(tx)
        twin = tx._replace(**{name: memoryview(getattr(tx, name))})
        assert twin == tx and hash(twin) == hash(tx)
        with pytest.raises(InvalidSignature):
            node.accept_pending_tx(twin)
        assert (tails(node), node.store.tail_states) == ({}, {})
        assert node.accept_pending_tx(tx) is True
        block = mainchain.new_block(node.view.tip, 1, 15, MINER,
                                    node.pending_records(),
                                    node.params.difficulty_bits)
        assert node.ingest_block(block)
        assert node.confirmed_state(key.address).tip_hash == tx.tx_hash

    def test_resigned_duplicate_conflicts(self, keys):
        """Re-signing a tx under another nonce than RFC 6979's keeps its
        hash (the preimage leaves out the signature) but not its
        signature: the held tx is compared in every field, so the second
        copy is a conflict, not a duplicate."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        tx = make_send(key, amount=1)
        # plain ECDSA draws a random nonce; s is normalized low as codec's
        r, s = decode_dss_signature(key.signing_key.sign(
            codec._exact_preimage(tx), ec.ECDSA(hashes.SHA256())))
        again = tx._replace(signature=r.to_bytes(32, "big") + min(
            s, codec.CURVE_ORDER - s).to_bytes(32, "big"))
        assert again.tx_hash == tx.tx_hash and again != tx
        assert codec.verify_tx(again)
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
        tx = make_send(key, amount=5)._replace(**{name: value})
        with pytest.raises(InvalidSignature):
            node.accept_pending_tx(tx)
        assert tails(node) == {} and node.store.tail_states == {}

    def test_chain_signed_batch_pools_whole(self, keys):
        """A batch whose last tx alone is signed pools whole, in one
        call; sent again, it changes nothing."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        txs = chain_signed(key, [False, False, True])
        assert node.accept_pending_tx(*txs) is True
        assert tails(node) == {key.address: txs}
        assert node.full_state(key.address).balance == 97
        assert node.accept_pending_tx(*txs) is False

    def test_signed_copy_replaces_held_unsigned(self, keys):
        """A signed copy of a held unsigned tx, which keeps its hash,
        replaces it and is journaled, so that the node can serve the
        fragment ending there; an unsigned copy of a held signed tx is
        skipped, and a signed copy that does not verify conflicts."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        u1, u2, s3 = chain_signed(key, [False, False, True])
        node.accept_pending_tx(u1, u2, s3)
        with pytest.raises(RangeUnavailable):
            node.serve_fragment(key.address, 0, 2)
        s2 = codec.sign_tx(u2, key)
        assert s2.tx_hash == u2.tx_hash
        with pytest.raises(DuplicateHashConflict):
            node.accept_pending_tx(u1, s2._replace(signature=bytes(
                [s2.signature[0] ^ 1]) + s2.signature[1:]))
        journal = []
        payload = subchain.encode_batch((u1, s2))
        node.apply_request(codec.MsgKind.NewTx, payload,
                           lambda *record: journal.append(record))
        assert journal == [(codec.MsgKind.NewTx, payload)]
        assert tails(node) == {key.address: [u1, s2, s3]}
        assert node.serve_fragment(key.address, 0, 2).txs == (u1, s2)
        assert node.accept_pending_tx(u1, u2) is False
        assert node.accept_pending_tx(u1, s2, s3) is False
        assert node.full_state(key.address).balance == 97

    def test_unsigned_copy_of_held_unsigned_is_not_verified(
            self, keys, monkeypatch):
        """An unsigned copy of a held unsigned tx, as a reorg resubmits
        after a race, is skipped with no signature check: it cannot
        verify, so it replaces nothing. Only a signed copy is checked."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        u1, u2, s3 = chain_signed(key, [False, False, True])
        node.accept_pending_tx(u1, u2, s3)
        calls = Calls(monkeypatch, [(codec, "verify_tx")])
        assert node.accept_pending_tx(u1, u2) is False
        assert calls.take() == {}
        assert node.accept_pending_tx(u1, codec.sign_tx(u2, key)) is True
        assert calls.take() == {"verify_tx": 1}
        assert not codec.unsigned(node.store.chains[key.address][1])

    @pytest.mark.parametrize("forgery", FORGERIES)
    def test_forged_batch_pools_nothing(self, keys, forgery):
        """Each forgery of a chain-signed NewTx is refused with
        InvalidSignature (a child from another account is refused by the
        fragment header first), and it leaves no pool entry and no journal
        record."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        txs = chain_signed(key, [True, False, True, False, False, True])
        held = txs[0]
        node.accept_pending_tx(held)
        forged = forge(txs, forgery, lambda options: options[-1], key,
                       keys[1])
        journal = []
        with pytest.raises(FragmentMisaligned if forgery == "foreign_child"
                           else InvalidSignature):
            node.apply_request(codec.MsgKind.NewTx,
                               subchain.encode_batch(forged),
                               lambda *record: journal.append(record))
        with pytest.raises(InvalidSignature):
            node.accept_pending_tx(*forged)
        assert journal == []
        assert tails(node) == {key.address: [held]}
        assert node.full_state(key.address).balance == 99

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
        assert (tails(node), node.store.tail_states,
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
        block, entry = ingest_chain(node, key, chain)
        state = node.confirmed_state(key.address)
        assert state.tip_height == 3
        assert entry == node.store.archive[block.block_hash] \
            == {key.address: (tuple(chain), state)}
        assert key.address not in tails(node)
        # oracle: from-scratch replay agrees
        assert state == replay(chain, node.claim_context(),
                               initial=initial_state(key.address, 1000))

    def test_ingest_idempotent(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        chain = build_chain(key, 2, start_balance=1000)
        block, _ = ingest_chain(node, key, chain)
        assert node.ingest_block(block) is None
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
        assert [t.height for t in tails(node)[key.address]] == [3, 4]
        assert node.full_state(key.address) == replay(
            chain[2:], node.claim_context(),
            initial=node.confirmed_state(key.address))

    def test_partial_confirmation_keeps_chain_signed_claim(self, keys):
        """A record confirms s1 of the tail [s1, u2, c3], where c3 is a
        signed claim of a mature coinbase that vouches for the unsigned
        u2: [u2, c3] stays pooled, at the state its replay reaches from
        the new confirmed state."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        mined = confirm_block(node, [], miner=key.address)
        node.ingest_block(mined)
        node.ingest_block(confirm_block(node, []))     # maturity 2
        s1 = make_send(key, amount=5)
        u2 = codec.hash_tx(SendTx(s1.tx_hash, 2, key.address,
                                  b"\x07" * 20, 3, 0))
        c3 = make_coinbase_claim(key, u2.tx_hash, 3, mined.block_hash,
                                 mainchain.SUBSIDY)
        node.accept_pending_tx(s1)
        node.accept_pending_tx(u2, c3)
        node.ingest_block(confirm_block(node, [
            ConfirmationRecord(key.address, s1.tx_hash, 1)]))
        assert node.confirmed_state(key.address).tip_hash == s1.tx_hash
        assert tails(node) == {key.address: [u2, c3]}
        assert node.store.tail_states[key.address] == replay(
            [u2, c3], node.claim_context(),
            initial=node.confirmed_state(key.address))
        assert node.full_state(key.address).balance \
            == 1000 - 5 - 3 + mainchain.SUBSIDY

    def test_mismatched_record_rejected(self, keys):
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        chain = build_chain(key, 2, start_balance=1000)
        for tx in chain:
            node.accept_pending_tx(tx)
        rec = ConfirmationRecord(key.address, b"\x13" * 32, 2)
        with pytest.raises(ConfirmationMismatch):
            node.ingest_block(confirm_block(node, [rec]))

    @pytest.mark.parametrize("pooled", [True, False])
    def test_record_naming_an_unsigned_tx_refused(self, keys, pooled):
        """A record may confirm a batch only at its signed last tx: a block
        whose record names an unsigned tx is refused with InvalidSignature,
        from the node's own pool or a fetched fragment, and the node's
        state is unchanged."""
        key = keys[0]
        txs = chain_signed(key, [False, False, True])
        node = Node(b"\x00" * 8, ShardAssignment(""),
                    make_genesis({key.address: 1000}), PARAMS,
                    fetch=lambda address, lo, hi: SubchainFragment(
                        address, lo, tuple(txs[lo:hi])))
        if pooled:
            node.accept_pending_tx(*txs)
        before = (node.view.tip, dict(tails(node)),
                  dict(node.store.tail_states), dict(node.store.archive))
        block = confirm_block(node, [
            ConfirmationRecord(key.address, txs[1].tx_hash, 2)])
        with pytest.raises(InvalidSignature):
            node.ingest_block(block)
        assert block.block_hash not in node.view.blocks
        assert (node.view.tip, tails(node), node.store.tail_states,
                node.store.archive) == before
        assert node.store.confirmed == {}

    def test_record_naming_a_signed_copy_is_fetched(self, keys):
        """A node that pools [u1, u2, s3] holds u2 unsigned, so for a block
        whose record names u2's hash it fetches the fragment, which ends at
        a signed copy of u2. It accepts the block and keeps s3 pending."""
        key = keys[0]
        u1, u2, s3 = chain_signed(key, [False, False, True])
        s2 = codec.sign_tx(u2, key)
        node = Node(b"\x00" * 8, ShardAssignment(""),
                    make_genesis({key.address: 1000}), PARAMS,
                    fetch=lambda address, lo, hi: SubchainFragment(
                        address, lo, (u1, s2)[lo:hi]))
        node.accept_pending_tx(u1, u2, s3)
        block = confirm_block(node, [
            ConfirmationRecord(key.address, s2.tx_hash, 2)])
        node.ingest_block(block)
        assert node.view.tip == block.block_hash
        assert node.store.chains[key.address] == [u1, s2, s3]
        assert tails(node) == {key.address: [s3]}
        assert node.confirmed_state(key.address).tip_hash == s2.tx_hash
        assert node.full_state(key.address).balance == 997

    def test_replayed_record_delta(self, keys):
        """A record the node holds no pool for is replayed from the
        fragment it names, from the prior state: the block's entry holds
        the fragment's txs and the replayed state."""
        key = keys[0]
        chain = build_chain(key, 4, start_balance=1000)
        node = Node(b"\x00" * 8, ShardAssignment(""),
                    make_genesis({key.address: 1000}), PARAMS,
                    fetch=lambda address, lo, hi: SubchainFragment(
                        address=address, from_height=lo,
                        txs=tuple(chain[lo:hi])))
        ctx = node.claim_context()
        old = node.confirmed_state(key.address)
        entry = node.ingest_block(confirm_block(node, [
            ConfirmationRecord(key.address, chain[-1].tx_hash, 4)]))
        txs, new = entry[key.address]
        assert old == initial_state(key.address, 1000)
        assert new == replay(chain, ctx, initial=old)
        assert node.confirmed_state(key.address).tip_height == 4
        assert txs == tuple(chain)

    def test_foreign_record_skipped(self, keys, monkeypatch):
        """A partial node checks no record of an address it does not host:
        no fragment check, no STF step, an empty entry."""
        key = keys[0]
        chain = build_chain(key, 2, start_balance=1000)
        other = "1" if sharding.hosts(ShardAssignment("0"), key.address) \
            else "0"
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
        record loop, so a side block that does not win costs two view
        switches: to its parent and back."""
        node = make_node(make_genesis({}))
        genesis = node.view.tip
        node.ingest_block(confirm_block(node, []))
        side = confirm_block(node, [], parent=genesis, timestamp=99)
        calls = Calls(monkeypatch, [(mainchain.ChainView, "switch")])
        node.ingest_block(side)
        assert calls.take() == {"switch": 2}

    @pytest.mark.parametrize("depth", [1, 6])
    @pytest.mark.parametrize("case", ["stale", "loses", "wins"])
    def test_side_block_body_hashed_once(self, monkeypatch, case, depth):
        """A side block's header is checked once: a block ``depth``
        blocks off the tip that a stale record refuses, one that loses
        and one that wins each hash their body once, in the root check.
        The node hosts neither address, so no record needs a fragment."""
        node = make_node(make_genesis({}), "1")
        old, new = b"\x01" * 20, b"\x02" * 20
        parents = [node.view.tip]
        for _ in range(depth):
            node.ingest_block(confirm_block(node, []))
        # a side branch as high as the tip, whose first block confirms old
        for i in range(depth):
            records = [ConfirmationRecord(old, b"\x0a" * 32, 1)] \
                if i == 0 else []
            side = confirm_block(node, records, parent=parents[-1],
                                 timestamp=99 + i)
            node.ingest_block(side)
            parents.append(side.block_hash)
        record = ConfirmationRecord(old if case == "stale" else new,
                                    b"\x0b" * 32, 1)
        block = confirm_block(node, [record], timestamp=200, parent=parents[
            -2 if case == "loses" else -1])
        hashes = []
        sha256 = mainchain.sha256

        def counted(data):
            hashes.append(data == block.body)
            return sha256(data)
        monkeypatch.setattr(mainchain, "sha256", counted)
        if case == "stale":
            with pytest.raises(StaleConfirmation):
                node.ingest_block(block)
        else:
            node.ingest_block(block)
        assert hashes == [True]
        assert (block.block_hash in node.view.blocks) == (case != "stale")
        assert (node.view.tip == block.block_hash) == (case == "wins")
        assert_index_is_scan(node.view)

    @pytest.mark.parametrize("depth", [1, 6])
    def test_winning_side_block_moves_the_view_once(self, monkeypatch,
                                                     depth):
        """A side branch on genesis as high as the tip, ``depth`` blocks,
        is overtaken by its next block: the view switches once to the
        block's parent (``depth`` blocks out, ``depth`` in), where the
        block is checked, and ``extend`` then connects the block alone.
        Switching back to the old tip and forward again would move
        ``3 * depth`` blocks out and ``3 * depth + 1`` in."""
        node = make_node(make_genesis({}))
        parent = node.view.tip
        for _ in range(depth):
            node.ingest_block(confirm_block(node, []))
        for i in range(depth):
            side = confirm_block(node, [], parent=parent, timestamp=99 + i)
            node.ingest_block(side)
            parent = side.block_hash
        winner = confirm_block(node, [], parent=parent, timestamp=99 + depth)
        moves = []
        switch = mainchain.ChainView.switch

        def counted(view, tip, read=None):
            disconnect, connect = switch(view, tip, read)
            moves.append((len(disconnect), len(connect)))
            return disconnect, connect
        monkeypatch.setattr(mainchain.ChainView, "switch", counted)
        node.ingest_block(winner)
        assert moves == [(depth, depth), (0, 1)]
        assert node.view.tip == winner.block_hash
        assert_index_is_scan(node.view)

    @pytest.mark.parametrize("depth", [0, 1, 6])
    def test_block_columns_read_once(self, monkeypatch, depth):
        """A block's columns are read once, in its check: ``extend``
        connects it from the columns and prior heights that the check
        read. On the tip (depth 0) that is the one read; a side block on
        genesis that overtakes a ``depth``-block tip adds only the
        blocks its switch to its parent moves, ``depth`` out and
        ``depth`` in. The node hosts none of the records' addresses."""
        node = make_node(make_genesis({}), "1")
        parent = node.view.tip
        for _ in range(depth):
            node.ingest_block(confirm_block(node, []))
        for i in range(depth):
            side = confirm_block(node, [], parent=parent, timestamp=99 + i)
            node.ingest_block(side)
            parent = side.block_hash
        block = confirm_block(node, [
            ConfirmationRecord(bytes([i]) * 20, b"\x0a" * 32, 1)
            for i in range(1, 4)], parent=parent, timestamp=200)
        calls = Calls(monkeypatch, [(mainchain, "columns")])
        node.ingest_block(block)
        assert calls.take() == {"columns": 1 + 2 * depth}
        assert node.view.tip == block.block_hash
        assert_index_is_scan(node.view)

    @pytest.mark.parametrize("fault", ["bits", "pow", "height", "parent"])
    def test_side_header_refused_before_switch(self, monkeypatch, fault):
        """A block on genesis, five blocks below the tip, that its header
        alone refuses (wrong difficulty bits, hash above target, wrong
        height, unknown parent) is refused with no view switch, so its
        cost does not grow with the fork distance."""
        node = make_node(make_genesis({}))
        genesis = node.view.tip
        for _ in range(5):
            node.ingest_block(confirm_block(node, []))
        fields = dict(parent_block_hash=genesis, height=1, timestamp=99,
                      miner_address=MINER,
                      confirmations_root=confirmations_root(()),
                      difficulty_bits=EASY_BITS)
        if fault == "bits":
            fields["difficulty_bits"] = EASY_BITS - 1
        elif fault == "height":
            fields["height"] = 2
        elif fault == "parent":
            fields["parent_block_hash"] = b"\x07" * 32
        block = seal(MainBlock(BlockHeader(**fields)))
        if fault == "pow":
            block = next(b for b in (MainBlock(BlockHeader(
                **fields, nonce=n)) for n in range(64))
                if not mainchain.meets_target(b.block_hash, EASY_BITS))
        before = (node.view.tip, list(node.view.canonical),
                  dict(node.view.confirmed_by), dict(node.view.tip_heights),
                  dict(node.view.undo))
        calls = Calls(monkeypatch, [(mainchain.ChainView, "switch")])
        with pytest.raises(UnknownParent if fault == "parent" else BadPoW):
            node.ingest_block(block)
        assert calls.take() == {}
        assert (node.view.tip, node.view.canonical, node.view.confirmed_by,
                node.view.tip_heights, node.view.undo) == before

    def test_send_inflow_indexed_for_recipient(self, keys):
        sender, rcpt = keys[0], keys[1]
        node = make_node(make_genesis({sender.address: 100}))
        tx = make_send(sender, amount=30, recipient=rcpt.address)
        node.accept_pending_tx(tx)
        rec = ConfirmationRecord(sender.address, tx.tx_hash, 1)
        block = confirm_block(node, [rec])
        node.ingest_block(block)
        # queued at connect, indexed when read
        assert node.store.inflows == {}
        assert node.store.unindexed == [block.block_hash]
        inflow = node.inflows()[rcpt.address][tx.tx_hash]
        assert node.store.unindexed == []
        assert inflow.amount == 30
        assert inflow.block_hash == block.block_hash
        assert inflow[:2] != (NULL_ADDRESS, NULL_HASH)

    def test_coinbase_inflow_for_hosted_miner(self, keys):
        node = make_node(make_genesis({}))
        block = confirm_block(node, [])
        node.ingest_block(block)
        inflow = node.inflows()[MINER][block.block_hash]
        assert inflow[:2] == (NULL_ADDRESS, NULL_HASH)
        assert inflow.amount == mainchain.SUBSIDY


    def test_ingest_of_accepted_txs_encodes_and_verifies_nothing(
            self, keys, monkeypatch):
        """A block on the tip that confirms two whole pending tails takes
        each tail's post-state from the pool: it is ingested without an
        STF step, a fragment check, a signature check, an encoded tx or a
        read of a prior state, and its entry equals a check of each
        fragment from the prior state."""
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
        old = {r.address: node.confirmed_state(r.address) for r in records}
        calls = Calls(monkeypatch, [(codec, "encode_tx"),
                                    (codec, "_verify_uncached"),
                                    (subchain, "apply_tx"),
                                    (subchain, "verify_fragment"),
                                    (Node, "_state_after")])
        entry = node.ingest_block(block)
        assert calls.take() == {}
        monkeypatch.undo()
        assert sorted(len(txs) for txs, _ in entry.values()) == [3, 3]
        assert node.view.tip == block.block_hash
        assert list(entry) == [r.address for r in block.confirmations]
        for address, (txs, new) in entry.items():
            assert old[address] == initial_state(address, 100)
            assert new == subchain.verify_fragment(
                old[address], SubchainFragment(
                    address=address, from_height=0, txs=txs), ctx)
            assert node.confirmed_state(address).tip_height == 3

    @pytest.mark.parametrize("depth", [0, 2])
    def test_new_block_builds_no_record(self, keys, monkeypatch, depth):
        """A NewBlock is decoded, checked and ingested, at a full node and
        at a depth-2 node, without decoding its records (``confirmations``
        decodes through ``decode_records`` too): each pass reads the
        columns of the body it needs, and a partial node unpacks only its
        hosted span."""
        genesis = make_genesis({key.address: 100 for key in keys})
        prefix = format(keys[0].address[0], "08b")[:depth]
        node = make_node(genesis, prefix)
        hosted = [key for key in keys if node.hosts(key.address)]
        assert 0 < len(hosted) < len(keys) or depth == 0
        records = []
        for key in keys:
            chain = build_chain(key, 2, start_balance=100)
            if key in hosted:
                node.accept_pending_tx(*chain)
            records.append(ConfirmationRecord(key.address,
                                              chain[-1].tx_hash, 2))
        block = confirm_block(node, sorted(records))
        calls = Calls(monkeypatch, [(mainchain, "decode_records")])
        node.apply_request(codec.MsgKind.NewBlock, block.encode())
        assert calls.take() == {}
        monkeypatch.undo()
        assert node.view.tip == block.block_hash
        assert list(node.store.archive[block.block_hash]) == sorted(
            key.address for key in hosted)
        assert all(node.confirmed_state(key.address).tip_height == 2
                   for key in hosted)


class TestIngestFallback:
    """Records that do not confirm a whole pending tail in a block on the
    tip are checked by replay against the fragment they name."""

    def test_prefix_of_tail_replays(self, keys, monkeypatch):
        """A record confirming the first two txs of a four-tx tail is
        replayed from its fragment (two ``apply_tx``), and the two txs it
        leaves unconfirmed go back through ``accept_pending_tx``, which
        pools them again from the new confirmed state (two more)."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        chain = build_chain(key, 4, start_balance=1000)
        for tx in chain:
            node.accept_pending_tx(tx)
        calls = Calls(monkeypatch)
        entry = node.ingest_block(confirm_block(node, [
            ConfirmationRecord(key.address, chain[1].tx_hash, 2)]))
        counts = calls.take()
        assert (counts["verify_fragment"], counts["apply_tx"]) == (1, 4)
        assert entry[key.address][0] == tuple(chain[:2])
        assert tails(node)[key.address] == chain[2:]

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
        old = node.confirmed_state(key.address)
        calls = Calls(monkeypatch)
        entry = node.ingest_block(side)
        counts = calls.take()
        assert (counts["verify_fragment"], counts["apply_tx"]) == (1, 2)
        assert node.view.tip != side.block_hash
        assert node.store.archive[side.block_hash] == entry == {
            key.address: (tuple(chain), entry[key.address][1])}
        tip = node.view.tip
        node.view.switch(side.block_hash)
        oracle = replay(chain, node.claim_context(), initial=old)
        node.view.switch(tip)
        assert entry[key.address][1] == oracle
        assert tails(node)[key.address] == chain
        assert node.confirmed_state(key.address).tip_height == 0

    def test_huge_record_height_stops_at_first_gap(self, keys, monkeypatch):
        """A record may name any u64 tip height. The local fragment does
        no work in proportion to it: it is None past the first height the
        node does not hold, so with no fetch source the block is refused
        at once, whether it is a side block or on the tip."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 1000}))
        genesis = node.view.tip
        node.ingest_block(confirm_block(node, []))
        node.accept_pending_tx(make_send(key, amount=5))
        calls = []
        local_fragment = Node._local_fragment

        def timed(self, address, lo, hi):
            start = time.process_time()
            frag = local_fragment(self, address, lo, hi)
            calls.append((lo, hi, frag, time.process_time() - start))
            return frag

        monkeypatch.setattr(Node, "_local_fragment", timed)
        rec = ConfirmationRecord(key.address, b"\x13" * 32, 2 ** 63)
        for parent, ts in ((genesis, 99), (node.view.tip, None)):
            calls.clear()
            with pytest.raises(PartialFetch):
                node.ingest_block(confirm_block(node, [rec], parent=parent,
                                                timestamp=ts))
            [(lo, hi, frag, took)] = calls
            assert (lo, hi, frag) == (0, 2 ** 63, None)
            assert took < 0.5, "local fragment walks past a gap"
        assert node.view.tip_height == 1

    @staticmethod
    def confirm_other_version(key):
        """Pool send A, then ingest a block on the tip that confirms send
        B at A's height. Returns the node, A, B, the block's entry and the
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
        entry = node.ingest_block(confirm_block(node, [
            ConfirmationRecord(key.address, b.tx_hash, 1)]))
        return node, a, b, entry, fetched

    def test_other_version_at_tail_tip_is_fetched(self, keys):
        """A block on the tip confirms send B at the height of the pending
        tail's last tx, send A (an owner rewrite this node never saw):
        the record matches the tail's height but not its hash, so B is
        fetched and checked, and the tail that no longer links is
        dropped."""
        key = keys[0]
        node, _, b, entry, fetched = self.confirm_other_version(key)
        assert fetched == [(key.address, 0, 1)]
        assert entry[key.address][0] == (b,)
        state = node.confirmed_state(key.address)
        assert (state.tip_hash, state.balance) == (b.tx_hash, 998)
        assert key.address not in tails(node)

    def test_dropped_tail_tx_resubmitted_is_rejected(self, keys):
        """The tail tx dropped for the confirmed other version is not held
        any more: resubmitted, it forks below the confirmed height."""
        key = keys[0]
        node, a, _, _, _ = self.confirm_other_version(key)
        with pytest.raises(ConfirmedFrozen):
            node.accept_pending_tx(a)
        assert key.address not in tails(node)

    def test_tail_above_another_version_is_dropped(self, keys):
        """A node pools [s1] then [s2], and a block confirms s1', another
        version of s1, at height 1: s1' is fetched and confirmed, and s2,
        which is above the confirmed height but names s1 as its parent,
        no longer links, so the whole tail is dropped."""
        key = keys[0]
        s1 = make_send(key, amount=1)
        s2 = make_send(key, parent=s1.tx_hash, height=2, amount=1)
        s1_other = make_send(key, recipient=b"\x08" * 20, amount=2)
        node = Node(b"\x00" * 8, ShardAssignment(""),
                    make_genesis({key.address: 100}), PARAMS,
                    fetch=lambda address, lo, hi: SubchainFragment(
                        address, lo, (s1_other,)[lo:hi]))
        node.accept_pending_tx(s1)
        node.accept_pending_tx(s2)
        node.ingest_block(confirm_block(node, [
            ConfirmationRecord(key.address, s1_other.tx_hash, 1)]))
        assert tails(node) == {} and node.store.tail_states == {}
        assert node.store.chains[key.address] == [s1_other]
        assert node.full_state(key.address).balance == 98


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
        assert node.inflows()[rcpt.address][send.tx_hash].block_hash \
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
        # index and undo records equal a from-scratch branch scan
        assert_index_is_scan(node.view)

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
        assert rcpt.address not in tails(node)
        assert node.full_state(rcpt.address).balance == 0
        # the sender's pending send survives and can be re-confirmed
        assert tails(node)[sender.address] == [send]

    def test_signed_copy_survives_a_reorg(self, keys):
        """A node confirms [u1, u2, s3], then takes a signed copy s2 of u2,
        so it serves (u1, s2). A reorg that orphans the block resubmits
        the txs the node held, s2 among them, not the block's: it still
        serves (u1, s2)."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        u1, u2, s3 = chain_signed(key, [False, False, True])
        node.accept_pending_tx(u1, u2, s3)
        node.ingest_block(confirm_block(node, [
            ConfirmationRecord(key.address, s3.tx_hash, 3)], timestamp=1))
        s2 = codec.sign_tx(u2, key)
        assert node.accept_pending_tx(u1, s2) is True
        assert node.serve_fragment(key.address, 0, 2).txs == (u1, s2)
        rival = confirm_block(node, [], timestamp=30,
                              parent=node.genesis.block_hash)
        node.ingest_block(rival)
        node.ingest_block(confirm_block(node, [], timestamp=31,
                                        parent=rival.block_hash))
        assert node.view.canonical[1] == rival.block_hash
        assert tails(node) == {key.address: [u1, s2, s3]}
        assert node.serve_fragment(key.address, 0, 2).txs == (u1, s2)
        assert node.full_state(key.address).balance == 97

    def test_signed_copy_survives_a_reorg_onto_its_block(self, keys):
        """Blocks M and S at height 1 both confirm [u1, u2, s3], M first,
        and then the node takes a signed copy s2 of u2. When a child of S
        wins, S's archived u2 does not replace the held s2: the node
        still serves (u1, s2)."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        u1, u2, s3 = chain_signed(key, [False, False, True])
        node.accept_pending_tx(u1, u2, s3)
        records = [ConfirmationRecord(key.address, s3.tx_hash, 3)]
        node.ingest_block(confirm_block(node, records, timestamp=1))
        side = confirm_block(node, records, timestamp=2,
                             parent=node.genesis.block_hash)
        node.ingest_block(side)
        assert node.store.archive[side.block_hash][key.address][0] \
            == (u1, u2, s3)
        s2 = codec.sign_tx(u2, key)
        assert node.accept_pending_tx(u1, s2) is True
        node.ingest_block(confirm_block(node, [], timestamp=3,
                                        parent=side.block_hash))
        assert node.view.canonical[1] == side.block_hash
        assert node.store.chains == {key.address: [u1, s2, s3]}
        assert tails(node) == {}
        assert node.serve_fragment(key.address, 0, 2).txs == (u1, s2)

    @pytest.mark.parametrize("repools", [True, False])
    def test_reorg_of_an_address_only_block(self, keys, monkeypatch,
                                            repools):
        """K claims the coinbase of A0, which it mined, in A1, the only
        block that confirms K, and pools a tail [u2, s3] above it. A rival
        branch disconnects A1: K's whole list, the claim and then the
        tail, goes back in height order. Where the rival keeps A0 it all
        pools again; where it forks below A0 the claim is refused, and K
        has no entry left. Either way the node's storage report is that
        of a fresh node that took the rival branch, then the side blocks,
        and pools what the node pools."""
        key = keys[0]
        params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                             maturity=1)
        genesis = make_genesis({keys[1].address: 100})
        node = make_node(genesis, params=params)
        a0 = confirm_block(node, [], timestamp=1, miner=key.address)
        node.ingest_block(a0)
        c1 = make_coinbase_claim(key, NULL_HASH, 1, a0.block_hash,
                                 mainchain.SUBSIDY)
        node.accept_pending_tx(c1)
        node.ingest_block(confirm_block(node, [ConfirmationRecord(
            key.address, c1.tx_hash, 1)], timestamp=2))
        u2 = codec.hash_tx(SendTx(c1.tx_hash, 2, key.address,
                                  b"\x07" * 20, 1, 0))
        s3 = codec.sign_tx(SendTx(u2.tx_hash, 3, key.address,
                                  b"\x07" * 20, 1, 0), key)
        node.accept_pending_tx(u2, s3)
        assert node.store.chains[key.address] == [c1, u2, s3]
        offered = []
        accept = node.accept_pending_tx

        def recording(*txs):
            offered.append(txs)
            return accept(*txs)

        monkeypatch.setattr(node, "accept_pending_tx", recording)
        rival = [a0] if repools else []
        parent = rival[-1].block_hash if repools else genesis.block_hash
        while len(rival) < 3:
            rival.append(confirm_block(node, [], timestamp=10 + len(rival),
                                       parent=parent))
            parent = rival[-1].block_hash
            node.ingest_block(rival[-1])
        view = node.view
        assert view.canonical[1:] == [b.block_hash for b in rival]
        fresh = Node(b"\x00" * 8, ShardAssignment(""), genesis, params,
                     fetch=lambda address, lo, hi: SubchainFragment(
                         address, lo, (c1,)[lo:hi]))
        side = [bh for bh in view.blocks if not view.is_canonical(bh)]
        for bh in [*view.canonical[1:], *side]:
            fresh.ingest_block(view.blocks[bh])
        assert fresh.view.blocks.keys() == view.blocks.keys()
        assert fresh.view.tip == view.tip
        if repools:
            assert offered == [(c1,), (u2, s3)]
            assert node.store.chains == {key.address: [c1, u2, s3]}
            assert tails(node) == {key.address: [c1, u2, s3]}
            fresh.accept_pending_tx(c1, u2, s3)
        else:
            assert offered == [(c1,)]
            assert node.store.chains == node.store.tail_states \
                == node.store.confirmed == {}
        assert node.storage_report() == fresh.storage_report()


class TestRefusedSideBlock:
    """A side block is checked on the view switched to its parent, which
    switches back for a refused block: one refused there leaves the node
    exactly as it was."""

    @staticmethod
    def setup(keys, wins=False):
        """Two nodes fed the same blocks: canonical b1 (S's send to R),
        b2, b3 on genesis, and side blocks s1 (T's two sends) and s2 on
        genesis, and with ``wins`` s3 on s2, as high as b3, so that a
        block on it would be the tip; fragments come from ``chains`` by
        fetch. S has a pending send on the tip. The last side block is
        returned."""
        s_key, r_key, t_key = keys[:3]
        genesis = make_genesis({s_key.address: 100, t_key.address: 100})
        send = make_send(s_key, amount=30, recipient=r_key.address)
        t_chain = build_chain(t_key, 2, start_balance=100)
        chains = {s_key.address: [send], t_key.address: t_chain}

        def fetch(address, lo, hi):
            txs = chains.get(address, [])[lo:hi]
            if len(txs) != hi - lo:
                return None
            return SubchainFragment(address, lo, tuple(txs))

        nodes = [Node(b"\x00" * 8, ShardAssignment(""), genesis, PARAMS,
                      fetch=fetch) for _ in range(2)]
        node = nodes[0]

        def add(records, **kw):
            block = confirm_block(node, records, **kw)
            for n in nodes:
                n.ingest_block(block)
            return block

        b1 = add([ConfirmationRecord(s_key.address, send.tx_hash, 1)])
        tip = add([]) and add([])
        s1 = add([ConfirmationRecord(t_key.address, t_chain[-1].tx_hash, 2)],
                 parent=genesis.block_hash, timestamp=99)
        side = add([], parent=s1.block_hash)
        if wins:
            side = add([], parent=side.block_hash)
        pending = make_send(s_key, parent=send.tx_hash, height=2)
        for n in nodes:
            n.accept_pending_tx(pending)
        assert node.view.tip == tip.block_hash
        return nodes, chains, send, side, b1

    @staticmethod
    def snapshot(node):
        view = node.view
        return copy.deepcopy((view.tip, view.canonical, view.confirmed_by,
                              view.tip_heights, view.undo,
                              vars(node.store)))

    # a block below the tip's height keeps the id of the refusal alone
    @pytest.mark.parametrize("refusal, wins", [
        pytest.param(refusal, wins,
                     id=refusal.__name__ + "-above_tip" * wins)
        for wins in (False, True)
        for refusal in (StaleConfirmation, UnconfirmedSend, PartialFetch)])
    def test_refusal_changes_nothing(self, keys, refusal, wins):
        """A stale record on the side branch (T at s1's height, fresh on
        the canonical chain), a claim of S's send that only canonical
        block b1, above the fork, confirms (mature on the tip), and a
        fragment no source holds are each refused, in a block below the
        tip's height and in one above it, which would have been the tip.
        The node's view, index, undo records and every keyspace then
        equal their copies from before, and the next tip block pools and
        connects as at a node that never saw it."""
        (node, twin), chains, send, side, b1 = self.setup(keys, wins)
        s_key, r_key, t_key = keys[:3]
        claim = make_receive(r_key, NULL_HASH, 1, s_key.address,
                             send.tx_hash, b1.block_hash, 30)
        record = {
            StaleConfirmation: (t_key.address, chains[t_key.address][-1], 2),
            UnconfirmedSend: (r_key.address, claim, 1),
            PartialFetch: (t_key.address, b"\x0c" * 32, 3),
        }[refusal]
        chains[r_key.address] = [claim]
        bad = confirm_block(node, [ConfirmationRecord(
            record[0], getattr(record[1], "tx_hash", record[1]),
            record[2])], parent=side.block_hash)
        assert (bad.header.height > node.view.tip_height) == wins
        before = self.snapshot(node)
        with pytest.raises(refusal):
            node.ingest_block(bad)
        assert self.snapshot(node) == before
        assert bad.block_hash not in node.view.blocks
        for n in (node, twin):
            assert n.accept_pending_tx(claim) is True
        nxt = confirm_block(node, sorted(node.pending_records()))
        for n in (node, twin):
            n.ingest_block(nxt)
        assert node.view.tip == nxt.block_hash
        assert self.snapshot(node) == self.snapshot(twin)
        assert node.confirmed_state(r_key.address).balance == 30


class TestRefusedTransition:
    """``subchain.apply_tx``'s refusals of a send of 0 and of a tx of
    another account, reached through a node's pool and through a block
    record whose fragment the node fetches: each refusal leaves the node
    as it was."""

    CASES = [("zero_amount", "amount must be at least 1"),
             ("other_account", "belongs to a different subchain")]

    @staticmethod
    def chain(keys, case):
        """A's two sends, the second of 0, or A's send followed by a send
        of B's account signed by B that links to it; both verify."""
        a, b = keys[:2]
        first = make_send(a, amount=1)
        key, amount = (a, 0) if case == "zero_amount" else (b, 1)
        return [first, make_send(key, parent=first.tx_hash, height=2,
                                 amount=amount)]

    @pytest.mark.parametrize("case, text", CASES)
    def test_pool_refuses(self, keys, case, text):
        node = make_node(make_genesis({k.address: 100 for k in keys[:2]}))
        txs = self.chain(keys, case)
        with pytest.raises(BadLink, match=text):
            node.accept_pending_tx(*txs)
        assert tails(node) == {} and node.store.tail_states == {}

    @pytest.mark.parametrize("case, text", CASES)
    def test_block_record_refuses(self, keys, case, text):
        txs = self.chain(keys, case)
        node = Node(b"\x00" * 8, ShardAssignment(""),
                    make_genesis({k.address: 100 for k in keys[:2]}), PARAMS,
                    fetch=lambda address, lo, hi: SubchainFragment(
                        address, lo, tuple(txs[lo:hi])))
        genesis = node.view.tip
        block = confirm_block(node, [ConfirmationRecord(
            keys[0].address, txs[-1].tx_hash, 2)])
        with pytest.raises(BadLink, match=text):
            node.ingest_block(block)
        assert node.view.tip == genesis and node.view.blocks == {}
        assert node.store.archive == {} and node.store.confirmed == {}


class TestClaimCitesConfirmingBlock:
    """A claim of a send cites the main block whose record confirmed the
    send: a later block whose record for the sender also covers it is
    refused. Maturity 1; S is confirmed by b1, and b2 confirms the
    sender's next send L, so b2's record covers S too."""

    @staticmethod
    def setup(keys):
        sender, rcpt = keys[0], keys[1]
        chains = {}

        def fetch(address, lo, hi):
            return SubchainFragment(address, lo, tuple(chains[address][lo:hi]))
        params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                             maturity=1)
        node = Node(b"\x00" * 8, ShardAssignment(""),
                    make_genesis({sender.address: 100}), params, fetch=fetch)
        send = make_send(sender, amount=30, recipient=rcpt.address)
        later = make_send(sender, parent=send.tx_hash, height=2, amount=5)
        blocks = []
        for tx in (send, later):
            node.accept_pending_tx(tx)
            blocks.append(confirm_block(node, node.pending_records()))
            node.ingest_block(blocks[-1])
        return node, chains, send, *blocks

    @staticmethod
    def snapshot(node):
        return copy.deepcopy((node.view.tip, vars(node.store)))

    def claim(self, keys, send, block):
        return make_receive(keys[1], NULL_HASH, 1, keys[0].address,
                            send.tx_hash, block.block_hash, 30)

    def test_claim_citing_a_later_block_is_refused(self, keys):
        node, _, send, b1, b2 = self.setup(keys)
        before = self.snapshot(node)
        with pytest.raises(UnconfirmedSend):
            node.accept_pending_tx(self.claim(keys, send, b2))
        assert self.snapshot(node) == before

    def test_block_confirming_it_is_refused(self, keys):
        node, chains, send, b1, b2 = self.setup(keys)
        claim = self.claim(keys, send, b2)
        chains[keys[1].address] = [claim]
        bad = confirm_block(node, [ConfirmationRecord(
            keys[1].address, claim.tx_hash, 1)])
        before = self.snapshot(node)
        with pytest.raises(UnconfirmedSend):
            node.ingest_block(bad)
        assert bad.block_hash not in node.view.blocks
        assert self.snapshot(node) == before

    def test_claim_citing_the_confirming_block_is_pooled(self, keys):
        node, _, send, b1, b2 = self.setup(keys)
        claim = self.claim(keys, send, b1)
        assert node.accept_pending_tx(claim) is True
        b3 = confirm_block(node, node.pending_records())
        node.ingest_block(b3)
        assert node.confirmed_state(keys[1].address).balance == 30
        find = node.store.find_send
        assert find(keys[0].address, send.tx_hash, b1.block_hash) == send
        # b2's fragment of the sender holds only L
        assert find(keys[0].address, send.tx_hash, b2.block_hash) is None
        # a receive in the cited fragment, a block with no record for
        # the sender, an unknown block
        assert node.store.archive[b3.block_hash][keys[1].address][0] \
            == (claim,)
        assert find(keys[1].address, claim.tx_hash, b3.block_hash) is None
        assert find(keys[0].address, send.tx_hash, b3.block_hash) is None
        assert find(keys[0].address, send.tx_hash, b"\x44" * 32) is None

    def test_send_archived_only_in_a_side_block(self, keys):
        """A side block on b1 confirms another version O of the sender's
        height 2: ``find_send`` finds O at that block alone."""
        node, chains, send, b1, b2 = self.setup(keys)
        other = make_send(keys[0], parent=send.tx_hash, height=2, amount=6)
        chains[keys[0].address] = [send, other]
        side = confirm_block(node, [ConfirmationRecord(
            keys[0].address, other.tx_hash, 2)], parent=b1.block_hash,
            timestamp=99)
        node.ingest_block(side)
        assert node.view.tip == b2.block_hash
        find = node.store.find_send
        assert find(keys[0].address, other.tx_hash, side.block_hash) == other
        assert find(keys[0].address, other.tx_hash, b2.block_hash) is None


class TestTipClaimContext:
    """The node's claim context is always its view's tip's."""

    def test_one_context_per_tip(self, keys):
        node = make_node(make_genesis({}))
        first = node.claim_context()
        assert first.branch_tip == node.view.tip
        node.ingest_block(confirm_block(node, []))
        assert node.claim_context().branch_tip == node.view.tip \
            != first.branch_tip

    def test_block_off_the_tip_keeps_the_tip_context(self, keys, monkeypatch):
        """A block on a canonical parent below the tip is checked under
        its parent's context; the tip's context afterwards is the real
        tip's. The block confirms a pending send, whose record a block
        off the tip replays: a context is built only for a replay."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        genesis = node.view.tip
        send = make_send(key, amount=5)
        node.accept_pending_tx(send)
        node.ingest_block(confirm_block(node, []))
        tip = node.view.tip
        seen = []
        build = node.claim_context

        def record():
            ctx = build()
            seen.append(ctx.branch_tip)
            return ctx
        monkeypatch.setattr(node, "claim_context", record)
        node.ingest_block(confirm_block(node, [ConfirmationRecord(
            key.address, send.tx_hash, 1)], parent=genesis, timestamp=99))
        assert seen == [genesis]
        assert node.view.tip == tip and build().branch_tip == tip

    def test_claim_matures_with_the_next_block(self, keys):
        """Maturity 2: a claim of a send one block deep is refused, and
        the same claim is pooled once the next block is on the tip."""
        sender, rcpt = keys[0], keys[1]
        node = make_node(make_genesis({sender.address: 100}))
        send = make_send(sender, amount=30, recipient=rcpt.address)
        node.accept_pending_tx(send)
        block = confirm_block(node, [ConfirmationRecord(
            sender.address, send.tx_hash, 1)])
        node.ingest_block(block)
        claim = make_receive(rcpt, NULL_HASH, 1, sender.address,
                             send.tx_hash, block.block_hash, 30)
        with pytest.raises(UnconfirmedSend):
            node.accept_pending_tx(claim)
        node.ingest_block(confirm_block(node, []))
        assert node.accept_pending_tx(claim) is True
        assert node.full_state(rcpt.address).balance == 30

    def test_reorg_resubmits_under_the_new_tip(self, keys):
        """A claim confirmed on the losing branch is resubmitted after
        the reorg and checked under the new tip's context: its send, two
        blocks below the fork, is mature there, so it is pooled again."""
        sender, rcpt = keys[0], keys[1]
        node = make_node(make_genesis({sender.address: 100}))
        send = make_send(sender, amount=30, recipient=rcpt.address)
        node.accept_pending_tx(send)
        a1 = confirm_block(node, [ConfirmationRecord(
            sender.address, send.tx_hash, 1)])
        node.ingest_block(a1)
        a2 = confirm_block(node, [])
        node.ingest_block(a2)
        claim = make_receive(rcpt, NULL_HASH, 1, sender.address,
                             send.tx_hash, a1.block_hash, 30)
        node.accept_pending_tx(claim)
        node.ingest_block(confirm_block(node, [ConfirmationRecord(
            rcpt.address, claim.tx_hash, 1)]))
        old = node.claim_context()
        b3 = confirm_block(node, [], timestamp=99, parent=a2.block_hash)
        node.ingest_block(b3)
        b4 = confirm_block(node, [], parent=b3.block_hash)
        node.ingest_block(b4)
        assert node.view.tip == b4.block_hash
        assert tails(node)[rcpt.address] == [claim]
        assert node.full_state(rcpt.address).balance == 30
        assert node.confirmed_state(rcpt.address).tip_height == 0
        assert old.branch_tip != b4.block_hash
        assert node.claim_context().branch_tip == b4.block_hash


class TestDecodedValues:
    def test_request_that_changes_nothing_keeps_no_value(self, keys):
        """A NewTx or NewBlock that is refused, cut short or changes
        nothing leaves the node's table of decoded values as it was; one
        that is accepted adds its values, each as its own object."""
        key = keys[0]
        node = make_node(make_genesis({key.address: 100}))
        before = dict(node.store.interned)
        recipient = b"\x0e" * 20
        tx = make_send(key, amount=5, recipient=recipient)
        forged = subchain.encode_batch([tx._replace(signature=b"\x01" * 64)])
        with pytest.raises(InvalidSignature):
            node.apply_request(codec.MsgKind.NewTx, forged)
        with pytest.raises(codec.DecodeError):
            node.apply_request(codec.MsgKind.NewTx, forged[:-1])
        node.apply_request(codec.MsgKind.NewTx, subchain.encode_fragment(
            SubchainFragment(b"\x0f" * 20, 0, ())))
        block = confirm_block(node, [ConfirmationRecord(
            b"\x10" * 20, b"\x11" * 32, 1)], miner=b"\x12" * 20)
        with pytest.raises(PartialFetch):
            node.apply_request(codec.MsgKind.NewBlock, block.encode())
        assert node.store.interned == before
        node.apply_request(codec.MsgKind.NewTx, subchain.encode_batch([tx]))
        held = tails(node)[key.address][0]
        assert node.store.interned == {
            **before, recipient: recipient, key.address: key.address}
        assert node.store.interned[recipient] is held.recipient_address


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

    def test_report_encodes_each_tx_once(self, keys, monkeypatch):
        """Stored and pending txs of both kinds are counted at the widths
        ``encode_tx`` gives them, each encoded once, and blocks from their
        record counts without encoding one."""
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
        assert calls.take() == {"encode_tx": 2}
        assert report.tx_count == 2 and report.shard_count == 2
        assert report.subchain_bytes == wire
        assert report.main_chain_bytes == main
