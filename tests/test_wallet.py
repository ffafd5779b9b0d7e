import pytest

from shardchain import codec, subchain, wallet
from shardchain.codec import NULL_ADDRESS, NULL_HASH
from shardchain.errors import (
    AlreadyClaimed,
    Immature,
    InsufficientBalance,
    KeyMismatch,
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
from shardchain.node import Inflow, Node
from shardchain.sharding import ShardAssignment
from shardchain.subchain import initial_state
from shardchain.wallet import (
    AccountView,
    account_view,
    batch_settle,
    build_claim,
    build_send,
)

PARAMS = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                     maturity=2)
MINER = b"\x4d" * 20


def fresh_node(alloc, params=PARAMS):
    return Node(b"\x00" * 8, ShardAssignment(), make_genesis(alloc), params)


def confirm(node, records, timestamp=None, miner=MINER):
    parent = node.view.tip
    ts = node.view.height[parent] * 15 if timestamp is None else timestamp
    header = BlockHeader(parent, node.view.height[parent] + 1, ts, miner,
                         confirmations_root(records),
                         node.params.difficulty_bits)
    block = seal(MainBlock(header, tuple(records)))
    node.ingest_block(block)
    return block


def plain_view(key, balance, claimables=(), maturity=2):
    return AccountView(address=key.address,
                       state=initial_state(key.address, balance),
                       claimables=list(claimables), maturity=maturity)


class TestBuildSend:
    def test_boundary_amounts(self, keys):
        key = keys[0]
        view = plain_view(key, 10)
        tx = build_send(view, b"\x01" * 20, 10, key)
        assert tx.amount == 10 and view.spendable == 0
        with pytest.raises(InsufficientBalance):
            build_send(view, b"\x01" * 20, 1, key)

    def test_chaining(self, keys):
        key = keys[0]
        view = plain_view(key, 10)
        t1 = build_send(view, b"\x01" * 20, 3, key)
        t2 = build_send(view, b"\x02" * 20, 3, key)
        assert t2.parent_hash == t1.tx_hash
        assert t2.height == 2
        assert view.spendable == 4

    def test_wrong_key(self, keys):
        view = plain_view(keys[0], 10)
        with pytest.raises(KeyMismatch):
            build_send(view, b"\x01" * 20, 1, keys[1])

    def test_txs_verify(self, keys):
        key = keys[0]
        view = plain_view(key, 10)
        tx = build_send(view, b"\x01" * 20, 5, key)
        assert codec.verify_tx(tx)


def flow(sender, tx_hash, amount, block, height, coinbase=False):
    return Inflow(sender_address=sender, sender_tx_hash=tx_hash,
                  amount=amount, block_hash=block, block_height=height,
                  coinbase=coinbase)


def test_inflow_fields_are_read_only():
    f = flow(b"\x09" * 20, b"\x0a" * 32, 25, b"\x0b" * 32, 1)
    for name in ("sender_address", "sender_tx_hash", "amount", "block_hash",
                 "block_height", "coinbase"):
        with pytest.raises(AttributeError):
            setattr(f, name, getattr(f, name))
    assert f.coinbase is False


class TestBuildClaim:
    def test_claim_mature(self, keys):
        key = keys[0]
        f = flow(b"\x09" * 20, b"\x0a" * 32, 25, b"\x0b" * 32, 1)
        view = plain_view(key, 0, claimables=[(f, 3)])
        tx = build_claim(view, f, key)
        assert tx.amount == 25 and view.spendable == 25
        assert not tx.is_coinbase
        assert codec.verify_tx(tx)

    def test_claim_immature(self, keys):
        key = keys[0]
        f = flow(b"\x09" * 20, b"\x0a" * 32, 25, b"\x0b" * 32, 1)
        view = plain_view(key, 0, claimables=[(f, 1)])
        with pytest.raises(Immature):
            build_claim(view, f, key)

    def test_claim_twice(self, keys):
        key = keys[0]
        f = flow(b"\x09" * 20, b"\x0a" * 32, 25, b"\x0b" * 32, 1)
        view = plain_view(key, 0, claimables=[(f, 3)])
        build_claim(view, f, key)
        with pytest.raises(AlreadyClaimed):
            build_claim(view, f, key)

    def test_coinbase_claim_fields(self, keys):
        key = keys[0]
        f = flow(NULL_ADDRESS, NULL_HASH, 50, b"\x0c" * 32, 1,
                 coinbase=True)
        view = plain_view(key, 0, claimables=[(f, 9)])
        tx = build_claim(view, f, key)
        assert tx.is_coinbase
        assert tx.sender_address == NULL_ADDRESS
        assert tx.main_block_hash == f.block_hash


class TestBatchSettle:
    def test_claims_then_sends(self, keys):
        key = keys[0]
        flows = [(flow(b"\x09" * 20, bytes([i]) * 32, 10, b"\x0b" * 32, i), 5)
                 for i in range(1, 4)]
        view = plain_view(key, 0, claimables=flows)
        txs = batch_settle(view, [(b"\x01" * 20, 25)], key)
        kinds = [isinstance(t, codec.ReceiveTx) for t in txs]
        assert kinds == [True, True, True, False]
        assert [t.height for t in txs] == [1, 2, 3, 4]
        assert view.spendable == 5

    def test_all_or_nothing(self, keys):
        key = keys[0]
        f = flow(b"\x09" * 20, b"\x0a" * 32, 10, b"\x0b" * 32, 1)
        view = plain_view(key, 5, claimables=[(f, 9)])
        with pytest.raises(InsufficientBalance):
            batch_settle(view, [(b"\x01" * 20, 16)], key)
        # nothing was emitted: the view is untouched
        assert view.spendable == 5 and view.state.tip_height == 0

    def test_oldest_inflow_first(self, keys):
        key = keys[0]
        f_new = flow(b"\x09" * 20, b"\x01" * 32, 1, b"\x0b" * 32, 7)
        f_old = flow(b"\x09" * 20, b"\x02" * 32, 2, b"\x0b" * 32, 2)
        view = plain_view(key, 0, claimables=[(f_new, 9), (f_old, 9)])
        txs = batch_settle(view, [], key)
        assert [t.sender_tx_hash for t in txs] == \
            [f_old.sender_tx_hash, f_new.sender_tx_hash]


class TestAgainstNode:
    def test_view_and_validator_agree(self, keys):
        """Transactions planned by the wallet are exactly the ones the
        node accepts, end to end through confirm and claim."""
        sender, rcpt = keys[0], keys[1]
        node = fresh_node({sender.address: 100})
        sview = account_view(node, sender.address)
        send = build_send(sview, rcpt.address, 30, sender)
        node.accept_pending_tx(send)
        block = confirm(node, [ConfirmationRecord(sender.address,
                                                  send.tx_hash, 1)])
        confirm(node, [])   # reach maturity 2
        rview = account_view(node, rcpt.address)
        assert [f.amount for f, _ in rview.claimables] == [30]
        txs = batch_settle(rview, [(sender.address, 10)], rcpt)
        for tx in txs:
            node.accept_pending_tx(tx)
        assert node.full_state(rcpt.address).balance == 20
        assert node.full_state(sender.address).balance == 70

    def test_account_view_excludes_claimed(self, keys):
        sender, rcpt = keys[0], keys[1]
        node = fresh_node({sender.address: 100})
        sview = account_view(node, sender.address)
        send = build_send(sview, rcpt.address, 30, sender)
        node.accept_pending_tx(send)
        block = confirm(node, [ConfirmationRecord(sender.address,
                                                  send.tx_hash, 1)])
        confirm(node, [])
        rview = account_view(node, rcpt.address)
        claim = build_claim(rview, rview.claimables[0][0], rcpt)
        node.accept_pending_tx(claim)
        # pending claim already hides the inflow from a fresh view
        assert account_view(node, rcpt.address).claimables == []

    def test_miner_coinbase_claim(self, keys):
        miner_key = keys[2]
        node = fresh_node({})
        b1 = confirm(node, [], miner=miner_key.address)
        confirm(node, [])
        confirm(node, [])
        mview = account_view(node, miner_key.address)
        assert [f.coinbase for f, _ in mview.claimables] == [True]
        claim = build_claim(mview, mview.claimables[0][0], miner_key)
        node.accept_pending_tx(claim)
        assert node.full_state(miner_key.address).balance == PARAMS.subsidy
