"""Reorgs along the fork path: a node that follows a random fork tree
must hold what a fresh node that saw only the canonical chain holds, at
a cost that does not grow with the chain's length."""

import pytest
from hypothesis import given, settings, strategies as st

from shardchain import codec, subchain, wallet
from shardchain.codec import NULL_HASH
from shardchain.errors import ShardChainError, UnconfirmedSend
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
from shardchain.node import Node, NodeStore
from shardchain.sharding import ShardAssignment, hosts
from shardchain.sim import SimConfig, Simulation, derived_key
from shardchain.subchain import SubchainFragment

from conftest import Calls, assert_chains_are_canonical, \
    assert_confirmed_are_replays, assert_inflows_are_an_index, \
    make_receive, make_send

MINER = b"\x4d" * 20
SENDERS = [derived_key(b"reorg-oracle:sender:%d" % i) for i in range(2)]
BALANCE = 1000


def mine(parent, height, records, timestamp):
    records = tuple(sorted(records, key=lambda r: r.address))
    header = BlockHeader(parent, height, timestamp, MINER,
                         confirmations_root(records), EASY_BITS)
    return seal(MainBlock(header, records))


class ForkTree:
    """Valid blocks on a random tree of branches, with each account's
    subchain one linear history shared by every branch. Senders only
    send; each send has its own recipient, whose one claim names the
    block that first confirmed the send on the branch that claims it."""

    def __init__(self, maturity):
        self.maturity = maturity
        self.genesis = make_genesis({k.address: BALANCE for k in SENDERS})
        g = self.genesis.block_hash
        self.height = {g: 0}
        self.parent = {}
        self.blocks = {}
        self.order = []                 # creation order
        self.ancestors = {g: frozenset([g])}
        self.confirmed = {g: {}}        # block -> {address: tip height}
        self.sent_in = {g: {}}          # block -> {send hash: block}
        self.history = {k.address: [] for k in SENDERS}
        self.claims = {}                # send hash -> claim
        self.recipient = {}             # send hash -> recipient key
        self.best = g
        self.clock = 0

    def fragment(self, address, lo, hi):
        return SubchainFragment(address=address, from_height=lo,
                                txs=tuple(self.history[address][lo:hi]))

    def _send(self, key):
        chain = self.history[key.address]
        rcpt = derived_key(b"reorg-oracle:rcpt:%d" % len(self.recipient))
        tx = make_send(key, parent=chain[-1].tx_hash if chain else NULL_HASH,
                       height=len(chain) + 1, recipient=rcpt.address,
                       amount=1 + len(chain) % 3)
        chain.append(tx)
        self.recipient[tx.tx_hash] = rcpt
        return tx

    def add_block(self, parent, draw_bool):
        height = self.height[parent] + 1
        confirmed = dict(self.confirmed[parent])
        sent_in = dict(self.sent_in[parent])
        records = []
        self.clock += 1
        for key in SENDERS:
            if not draw_bool():
                continue
            h = confirmed.get(key.address, 0) + 1
            chain = self.history[key.address]
            tx = chain[h - 1] if h <= len(chain) else self._send(key)
            confirmed[key.address] = h
            records.append(ConfirmationRecord(key.address, tx.tx_hash, h))
        ancestors = self.ancestors[parent]
        for send_hash, at in sorted(sent_in.items()):
            rcpt = self.recipient[send_hash]
            if confirmed.get(rcpt.address) or not draw_bool():
                continue
            claim = self.claims.get(send_hash)
            if claim is None:
                if self.height[parent] - self.height[at] + 1 < self.maturity:
                    continue
                send = next(tx for txs in self.history.values()
                            for tx in txs if tx.tx_hash == send_hash)
                claim = make_receive(rcpt, NULL_HASH, 1, send.current_address,
                                     send_hash, at, send.amount)
                self.claims[send_hash] = claim
                self.history[rcpt.address] = [claim]
            at = claim.main_block_hash
            if at not in ancestors or \
                    self.height[parent] - self.height[at] + 1 < self.maturity:
                continue
            confirmed[rcpt.address] = 1
            records.append(ConfirmationRecord(rcpt.address, claim.tx_hash, 1))
        block = mine(parent, height, records, self.clock)
        bh = block.block_hash
        for rec in records:
            for tx in self.history[rec.address][:rec.tip_height]:
                if tx.tx_hash in self.recipient:
                    sent_in.setdefault(tx.tx_hash, bh)
        self.height[bh] = height
        self.parent[bh] = parent
        self.blocks[bh] = block
        self.order.append(bh)
        self.ancestors[bh] = ancestors | {bh}
        self.confirmed[bh] = confirmed
        self.sent_in[bh] = sent_in
        if height > self.height[self.best]:
            self.best = bh
        return bh

    def txs_of(self, block):
        """The subchain txs a block's records cover, oldest first."""
        return [tx for rec in block.confirmations
                for tx in self.history[rec.address][:rec.tip_height]]


def full_node(tree, params):
    return Node(b"\x00" * 8, ShardAssignment(""), tree.genesis, params,
                fetch=tree.fragment)


# the NodeStore keyspaces assert_matches_fresh compares with a fresh node,
# and each other one with the reason it is not compared
FRESH_COMPARED = ("confirmed", "chains", "inflows")
NOT_COMPARED = {
    "pending": "a fresh node has no tails; each kept tail is replayed",
    "tail_states": "checked against the replay of its pending tail",
    "archive": "holds side blocks; its canonical entries are compared",
}


def test_every_keyspace_is_checked():
    """A new NodeStore keyspace fails this test until it is compared
    with the fresh node or named in NOT_COMPARED with its reason."""
    assert sorted(vars(NodeStore())) == \
        sorted(FRESH_COMPARED + tuple(NOT_COMPARED))


def assert_matches_fresh(node, tree, params):
    view = node.view
    assert view.canonical == view.branch(view.tip)
    assert view.confirmations == view.confirmations_at(view.tip)
    # each canonical block's undo record, whether read from the index or
    # handed over by validate_block, is its parent branch's scan
    for bh in view.canonical[1:]:
        block = view.blocks[bh]
        index = view.confirmations_at(block.header.parent_block_hash)
        assert view.undo[bh] == tuple(index.get(r.address)
                                      for r in block.confirmations), bh
    fresh = full_node(tree, params)
    for bh in view.canonical[1:]:
        fresh.ingest_block(view.blocks[bh])
    assert fresh.view.tip == view.tip
    for name in FRESH_COMPARED:
        assert getattr(node.store, name) == getattr(fresh.store, name), name
    # the fresh node has no pending tails, so it replays every record: the
    # node's txs and states taken from its pool must equal those replays
    for bh in view.canonical[1:]:
        assert node.store.archive[bh] == fresh.store.archive[bh], bh
    assert_confirmed_are_replays(node)
    assert_inflows_are_an_index(node)
    assert_chains_are_canonical(node)
    # every surviving pending tail still applies on the canonical state,
    # and reaches the state the node keeps for it
    ctx = node.claim_context()
    assert set(node.store.tail_states) == set(node.store.pending)
    for address, tail in node.store.pending.items():
        assert node.store.tail_states[address] == subchain.replay(
            tail, ctx, initial=node.confirmed_state(address), verify=None)


@settings(max_examples=60)
@given(st.data())
def test_reorg_matches_fresh_canonical_node(data):
    maturity = data.draw(st.integers(min_value=1, max_value=2))
    params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                         maturity=maturity)
    tree = ForkTree(maturity)
    draw_bool = lambda: data.draw(st.booleans())
    # a trunk, then forks that each leave the best tip ``depth`` blocks
    # back and run ``depth + extra`` blocks: a tie when extra is 0
    forks = data.draw(st.lists(st.tuples(st.integers(1, 8),
                                         st.integers(0, 2)),
                               min_size=1, max_size=3))
    base = tree.best
    for _ in range(max(d for d, _ in forks) + data.draw(st.integers(0, 2))):
        base = tree.add_block(base, draw_bool)
    for depth, extra in forks:
        base = tree.best
        for _ in range(depth):
            base = tree.parent[base]
        for _ in range(depth + extra):
            base = tree.add_block(base, draw_bool)

    node = full_node(tree, params)
    rng = data.draw(st.randoms(use_true_random=False))
    arrived = {tree.genesis.block_hash}
    waiting = list(tree.order)
    while waiting:
        ready = [bh for bh in waiting if tree.parent[bh] in arrived]
        bh = ready[rng.randrange(len(ready))]
        waiting.remove(bh)
        block = tree.blocks[bh]
        # the block's txs, and every claim the tree holds, so that pending
        # claims meet reorgs that orphan the block they name
        for tx in tree.txs_of(block) + list(tree.claims.values()):
            try:
                node.accept_pending_tx(tx)
            except ShardChainError:
                pass
        node.ingest_block(block)
        arrived.add(bh)
        assert_matches_fresh(node, tree, params)


# -- cost ---------------------------------------------------------------

def chain_node(length):
    """A full node whose canonical chain confirms one send per block."""
    key = SENDERS[0]
    params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                         maturity=2)
    node = Node(b"\x00" * 8, ShardAssignment(""),
                make_genesis({key.address: 10 * length}), params)
    tip = (NULL_HASH, 0)
    for i in range(length):
        tx = make_send(key, parent=tip[0], height=tip[1] + 1,
                       recipient=b"\x07" * 20, timestamp=i)
        node.accept_pending_tx(tx)
        node.ingest_block(mine(node.view.tip, i + 1, [ConfirmationRecord(
            key.address, tx.tx_hash, tx.height)], i))
        tip = (tx.tx_hash, tx.height)
    return node, tip


def test_accept_applies_each_tx_once(monkeypatch):
    """A k-tx chain accepted at a full node costs k apply_tx calls (the
    pending tail's state is kept, not replayed per tx)."""
    key = SENDERS[0]
    node = Node(b"\x00" * 8, ShardAssignment(""),
                make_genesis({key.address: BALANCE}),
                ChainParams(difficulty_bits=EASY_BITS, block_limit=4096))
    calls = Calls(monkeypatch)
    tip = (NULL_HASH, 0)
    for i in range(8):
        tx = make_send(key, parent=tip[0], height=tip[1] + 1, timestamp=i)
        node.accept_pending_tx(tx)
        node.full_state(key.address)
        tip = (tx.tx_hash, tx.height)
    assert calls.take() == {"apply_tx": 8}


def test_sim_interval_applies_nothing_in_miner(monkeypatch):
    """The miner builds from the node's tails: one sim interval runs the
    STF only in the nodes (each tx once per hosting node, on accept and
    on validation), never in miner.py."""
    sim = Simulation(SimConfig(seed=7, accounts=30, width=6, avg_txs=2,
                               block_limit=2048, blocks=3, node_count=3,
                               maturity=1, initial_balance=1000))
    sim.run_interval()
    calls = Calls(monkeypatch)
    row = sim.run_interval()
    hosting = 2     # the full node and one half node host each address
    assert row["txs_covered"] > 0
    assert ("apply_tx", "miner.py") not in calls.sites
    assert calls.sites[("apply_tx", "node.py")] == \
        hosting * row["txs_covered"]


def reorg_costs(length, monkeypatch):
    node, (parent_hash, height) = chain_node(length)
    calls = Calls(monkeypatch)
    key = SENDERS[0]
    tx = make_send(key, parent=parent_hash, height=height + 1,
                   recipient=b"\x07" * 20, timestamp=length)
    node.accept_pending_tx(tx)
    accept = calls.take()
    tip = mine(node.view.tip, length + 1, [ConfirmationRecord(
        key.address, tx.tx_hash, tx.height)], length)
    node.ingest_block(tip)
    fast = calls.take()
    # depth 1: a sibling of the tip confirming the same record, then a
    # child that makes the sibling's branch heavier
    rival = mine(tip.header.parent_block_hash, length + 1,
                 tip.confirmations, length + 100)
    node.ingest_block(rival)
    node.ingest_block(mine(rival.block_hash, length + 2, [], length + 101))
    reorg = calls.take()
    monkeypatch.undo()
    assert node.view.canonical[-2] == rival.block_hash
    assert node.confirmed_state(key.address).tip_hash == tx.tx_hash
    return accept, fast, reorg


def test_reorg_cost_flat_in_chain_length(monkeypatch):
    short = reorg_costs(20, monkeypatch)
    long = reorg_costs(200, monkeypatch)
    assert short == long
    accept, fast, reorg = long
    assert "branch" not in accept and "branch" not in fast \
        and "branch" not in reorg
    assert reorg == {"apply_tx": 1, "verify_fragment": 1}


# -- half node ------------------------------------------------------------

def test_half_node_follows_branch_with_claim_of_foreign_send():
    """A half node switches to a rival branch that confirms a hosted
    claim of a send by an account it does not host, and accepts the
    block after it."""
    rcpt = derived_key(b"half-node:rcpt")
    prefix = next(bit for bit in "01"
                  if hosts(ShardAssignment(bit), rcpt.address))
    sender = next(k for k in (derived_key(b"half-node:sender:%d" % i)
                              for i in range(64))
                  if not hosts(ShardAssignment(prefix), k.address))
    params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                         maturity=1)
    half = Node(b"\x01" * 8, ShardAssignment(prefix),
                make_genesis({sender.address: 100}), params)
    send = make_send(sender, amount=30, recipient=rcpt.address)
    g = half.genesis.block_hash
    a1 = mine(g, 1, [ConfirmationRecord(sender.address, send.tx_hash, 1)], 1)
    half.remote_send_lookup = \
        lambda a, h, b: send if (a, h, b) == (
            send.current_address, send.tx_hash, a1.block_hash) else None
    half.ingest_block(a1)
    claim = make_receive(rcpt, NULL_HASH, 1, sender.address, send.tx_hash,
                         a1.block_hash, 30)
    half.accept_pending_tx(claim)
    claim_record = ConfirmationRecord(rcpt.address, claim.tx_hash, 1)
    half.ingest_block(mine(a1.block_hash, 2, [claim_record], 2))
    b2 = mine(a1.block_hash, 2, [claim_record], 20)
    half.ingest_block(b2)
    b3 = mine(b2.block_hash, 3, [], 21)
    half.ingest_block(b3)
    assert half.view.tip == b3.block_hash
    assert half.confirmed_state(rcpt.address).balance == 30
    spend = make_send(rcpt, parent=claim.tx_hash, height=2, amount=5)
    half.accept_pending_tx(spend)
    b4 = mine(b3.block_hash, 4, [ConfirmationRecord(
        rcpt.address, spend.tx_hash, 2)], 22)
    half.ingest_block(b4)
    assert half.view.tip == b4.block_hash
    state = half.confirmed_state(rcpt.address)
    assert (state.tip_height, state.balance) == (2, 25)


def test_side_block_confirming_another_version_is_followed():
    """A sibling of the tip may confirm another version of a hosted
    subchain than the canonical block did (send B where the canonical
    block confirmed send A, both at height 1). The node fetches B instead
    of checking the record against its own A, and follows the sibling's
    branch once it wins."""
    key = SENDERS[0]
    params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                         maturity=2)
    a = make_send(key, recipient=b"\x07" * 20, amount=1)
    b = make_send(key, recipient=b"\x08" * 20, amount=2)
    fetched = []

    def fetch(address, lo, hi):
        fetched.append((address, lo, hi))
        return SubchainFragment(address=address, from_height=lo, txs=(b,))

    node = Node(b"\x00" * 8, ShardAssignment(""),
                make_genesis({key.address: BALANCE}), params, fetch=fetch)
    genesis = node.view.tip
    node.accept_pending_tx(a)
    node.ingest_block(mine(genesis, 1, [ConfirmationRecord(
        key.address, a.tx_hash, 1)], 1))
    assert fetched == []
    side = mine(genesis, 1, [ConfirmationRecord(key.address, b.tx_hash, 1)],
                2)
    node.ingest_block(side)
    assert fetched == [(key.address, 0, 1)]
    node.ingest_block(mine(side.block_hash, 2, [], 3))
    assert node.view.canonical[1] == side.block_hash
    assert node.store.txs[(key.address, 1)] == b
    assert node.confirmed_state(key.address).balance == BALANCE - 2


# -- resubmission ---------------------------------------------------------

def tails_then_rival():
    """A full node at a1, which confirms B1; A then pools a 2-tx tail and
    B pools B2. Returns the node, A, B and the two blocks of an empty
    rival branch on genesis, whose second block makes it win. B's address
    sorts below A's."""
    b, a = sorted(SENDERS, key=lambda k: k.address)
    params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                         maturity=1)
    node = Node(b"\x00" * 8, ShardAssignment(""),
                make_genesis({k.address: BALANCE for k in SENDERS}), params)
    g = node.view.tip
    b1 = make_send(b, amount=1)
    node.accept_pending_tx(b1)
    node.ingest_block(mine(g, 1, [ConfirmationRecord(
        b.address, b1.tx_hash, 1)], 1))
    a1 = make_send(a, amount=2)
    for tx in (a1, make_send(a, parent=a1.tx_hash, height=2, amount=3),
               make_send(b, parent=b1.tx_hash, height=2, amount=4)):
        node.accept_pending_tx(tx)
    r1 = mine(g, 1, [], 10)
    return node, a, b, (r1, mine(r1.block_hash, 2, [], 11))


def test_reorg_resubmits_through_accept_pending_tx(monkeypatch):
    """Every tx a reorg leaves in a pending tail, the orphaned B1 and the
    untouched tail of A too, entered it through accept_pending_tx."""
    node, _, b, (r1, r2) = tails_then_rival()
    node.ingest_block(r1)
    offered = []
    accept = node.accept_pending_tx

    def recording(*txs):
        offered.extend(txs)
        return accept(*txs)

    monkeypatch.setattr(node, "accept_pending_tx", recording)
    node.ingest_block(r2)
    assert node.view.tip == r2.block_hash
    pooled = [tx for tail in node.store.pending.values() for tx in tail]
    assert [tx.height for tx in node.store.pending[b.address]] == [1, 2]
    assert len(pooled) == 4
    assert all(tx in offered for tx in pooled)


def test_chain_signed_tails_survive_a_reorg():
    """A wallet batch signs only its last tx. A reorg that orphans a
    confirmed batch resubmits it and the pending batch above it in
    segments that each end at a signed tx, so both come back whole as
    one tail."""
    b, a = sorted(SENDERS, key=lambda k: k.address)
    params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                         maturity=1)
    node = Node(b"\x00" * 8, ShardAssignment(""),
                make_genesis({k.address: BALANCE for k in SENDERS}), params)
    g = node.view.tip
    first = wallet.batch_settle(wallet.account_view(node, a.address),
                                [(b.address, 1), (b.address, 2)], a)
    node.accept_pending_tx(*first)
    node.ingest_block(mine(g, 1, [ConfirmationRecord(
        a.address, first[-1].tx_hash, 2)], 1))
    second = wallet.batch_settle(wallet.account_view(node, a.address),
                                 [(b.address, 3)] * 3, a)
    node.accept_pending_tx(*second)
    tail = first + second
    assert [codec.unsigned(tx) for tx in tail] == [True, False,
                                                    True, True, False]
    r1 = mine(g, 1, [], 10)
    for block in (r1, mine(r1.block_hash, 2, [], 11)):
        node.ingest_block(block)
    assert node.view.canonical[1] == r1.block_hash
    assert node.store.pending == {a.address: tail}
    assert node.full_state(a.address) == subchain.replay(
        tail, node.claim_context(), initial=node.base_state(a.address))


def test_tails_reenter_in_address_order():
    """After a reorg the tails enter ``pending`` in address order, so
    equal-length tails confirm in address order, as after ``compact``."""
    node, a, b, rival = tails_then_rival()
    assert node.block_order() == [a.address, b.address]
    for block in rival:
        node.ingest_block(block)
    assert node.block_order() == [b.address, a.address]


def test_side_branch_does_not_see_canonical_sends_above_its_fork():
    """A side branch's claim context hides the sends the canonical blocks
    above its fork point confirmed. Canonical X1-X3 confirms A's send S
    to R; side block Y1 confirms another version S2 of A's height 1, so
    Y2's claim of S naming Y1 claims a send its branch never confirmed.
    The node refuses it, as a fresh node that saw only Y1 does."""
    key, rcpt = SENDERS[0], derived_key(b"side-claim:rcpt")
    params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                         maturity=1)
    genesis = make_genesis({key.address: 100})
    send = make_send(key, recipient=rcpt.address, amount=30)
    other = make_send(key, recipient=rcpt.address, amount=30, timestamp=1)
    y1 = mine(genesis.block_hash, 1, [ConfirmationRecord(
        key.address, other.tx_hash, 1)], 10)
    claim = make_receive(rcpt, NULL_HASH, 1, key.address, send.tx_hash,
                         y1.block_hash, 30)
    y2 = mine(y1.block_hash, 2, [ConfirmationRecord(
        rcpt.address, claim.tx_hash, 1)], 11)
    branch_y = {key.address: (other,), rcpt.address: (claim,)}

    def fetch(address, lo, hi):
        return SubchainFragment(address=address, from_height=lo,
                                txs=branch_y[address][lo:hi])

    node, fresh = (Node(b"\x00" * 8, ShardAssignment(""), genesis, params,
                        fetch=fetch) for _ in range(2))
    node.accept_pending_tx(send)
    tip = genesis.block_hash
    for height in (1, 2, 3):
        records = [ConfirmationRecord(key.address, send.tx_hash, 1)] \
            if height == 1 else []
        block = mine(tip, height, records, height)
        node.ingest_block(block)
        tip = block.block_hash
        if height == 1:
            x1 = tip
    assert node.store.find_send(key.address, send.tx_hash, x1) == send
    for n in (node, fresh):
        n.ingest_block(y1)
        with pytest.raises(UnconfirmedSend):
            n.ingest_block(y2)
    assert y2.block_hash not in node.view.blocks
