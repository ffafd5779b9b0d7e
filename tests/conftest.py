import os
import random
import sys

import pytest
from hypothesis import settings

from shardchain import codec, mainchain, subchain
from shardchain.codec import NULL_ADDRESS, NULL_HASH, SendTx, ReceiveTx
from shardchain.network import FloodRouter
from shardchain.node import Inflow
from shardchain.sim import derived_key

# Property tests draw the same examples on every run, so a failure
# reproduces, and a bounded number of them, so the suite's time stays
# flat; a test may still ask for more with its own @settings.
settings.register_profile("shardchain", derandomize=True, deadline=None,
                          max_examples=50)
settings.load_profile("shardchain")


@pytest.fixture(scope="session")
def keys():
    """A pool of deterministic keypairs shared by the whole session."""
    return [derived_key(b"test-key:%d" % i) for i in range(12)]


def decode_tx(data):
    """The one tx that ``data`` encodes, the inverse of ``codec.encode_tx``:
    it has no caller in the package, which decodes fragments."""
    return codec.decode_txs(data, 0, 1)[0]


def make_send(key, parent=NULL_HASH, height=1, recipient=b"\x07" * 20,
              amount=1, timestamp=0, sign=True):
    tx = SendTx(parent_hash=parent, height=height,
                current_address=key.address, recipient_address=recipient,
                amount=amount, timestamp=timestamp)
    return codec.sign_tx(tx, key) if sign else tx


def make_receive(key, parent, height, sender, sender_tx_hash, block_hash,
                 amount, timestamp=0):
    tx = ReceiveTx(parent_hash=parent, height=height,
                   current_address=key.address, sender_address=sender,
                   sender_tx_hash=sender_tx_hash,
                   main_block_hash=block_hash, amount=amount,
                   timestamp=timestamp)
    return codec.sign_tx(tx, key)


def make_coinbase_claim(key, parent, height, block_hash, amount,
                        timestamp=0):
    return make_receive(key, parent, height, codec.NULL_ADDRESS,
                        NULL_HASH, block_hash, amount, timestamp)


def chain_signed(key, signed, sends=None):
    """``key``'s chain from height 1, one tx per entry of ``signed``: a
    send of 1, or a claim where ``sends`` says False; signed where
    ``signed`` says True, else hashed only, as a wallet's batch."""
    txs, parent = [], NULL_HASH
    for height, sign in enumerate(signed, 1):
        if sends is None or sends[height - 1]:
            tx = SendTx(parent, height, key.address, b"\x07" * 20, 1, 0)
        else:
            tx = ReceiveTx(parent, height, key.address, b"\x09" * 20,
                           bytes([height]) * 32, b"\x0b" * 32, 1, 0)
        tx = codec.sign_tx(tx, key) if sign else codec.hash_tx(tx)
        txs.append(tx)
        parent = tx.tx_hash
    return txs


# each way to forge a chain-signed batch that verify_txs must refuse
FORGERIES = ["unsigned_field", "last_unsigned", "broken_link",
             "foreign_child", "key_without_signature",
             "bad_middle_signature"]


def forge(txs, forgery, pick, key, other):
    """A copy of ``txs``, a chain of ``key``'s account whose last tx is
    signed, with one forgery of that name; ``pick`` chooses one of a
    non-empty list: the position, and whether a changed unsigned tx is
    hashed again. ``other`` is a key of another account."""
    txs = list(txs)
    unsigned = [i for i, tx in enumerate(txs) if codec.unsigned(tx)]
    if forgery == "unsigned_field":
        i = pick(unsigned)
        changed = txs[i]._replace(timestamp=txs[i].timestamp + 1)
        # hashed again, it no longer links to its child
        txs[i] = codec.hash_tx(changed) if pick([False, True]) else changed
    elif forgery == "last_unsigned":
        txs[-1] = txs[-1]._replace(public_key=codec.NULL_KEY,
                                   signature=codec.NULL_SIG)
    elif forgery == "broken_link":
        i = pick(unsigned) + 1
        tx = txs[i]._replace(parent_hash=codec.sha256(b"elsewhere"))
        txs[i] = codec.hash_tx(tx) if codec.unsigned(tx) \
            else codec.sign_tx(tx, key)
    elif forgery == "foreign_child":
        i = pick(unsigned)
        txs[i + 1:] = [codec.sign_tx(
            txs[i + 1]._replace(current_address=other.address), other)]
    elif forgery == "key_without_signature":
        i = pick(list(range(len(txs))))
        txs[i] = txs[i]._replace(public_key=key.public,
                                 signature=codec.NULL_SIG)
    elif forgery == "bad_middle_signature":
        i = pick([i for i in range(len(txs) - 1) if i not in unsigned])
        sig = txs[i].signature
        txs[i] = txs[i]._replace(signature=bytes([sig[0] ^ 1]) + sig[1:])
    else:
        raise ValueError(forgery)
    return txs


def no_delivery(node, env):
    """A FloodRouter ``on_deliver`` hook that does nothing."""


def unscoped(env):
    """A FloodRouter ``scope`` hook that gives no message an address, so
    each floods every node."""
    return None


def flood(origin, env, topology, transport, router=None):
    """{node: hop count} of the nodes that a flood of ``env`` from
    ``origin`` reaches, through ``router`` or a fresh unscoped one, once
    the transport drains."""
    if router is None:
        router = FloodRouter(topology, transport, no_delivery, unscoped)
        router.attach_all()
    router.originate(origin, env)
    transport.run()
    return dict(router.hops.get(env.msg_id, {}))


def random_tx(rng: random.Random, key):
    """A structurally random signed transaction for codec round trips."""
    if rng.random() < 0.5:
        tx = SendTx(parent_hash=rng.randbytes(32),
                    height=rng.randrange(1, 1 << 32),
                    current_address=key.address,
                    recipient_address=rng.randbytes(20),
                    amount=rng.randrange(1, 1 << 40),
                    timestamp=rng.randrange(1 << 32))
    else:
        tx = ReceiveTx(parent_hash=rng.randbytes(32),
                       height=rng.randrange(1, 1 << 32),
                       current_address=key.address,
                       sender_address=rng.randbytes(20),
                       sender_tx_hash=rng.randbytes(32),
                       main_block_hash=rng.randbytes(32),
                       amount=rng.randrange(1, 1 << 40),
                       timestamp=rng.randrange(1 << 32))
    return codec.sign_tx(tx, key)


def build_chain(key, length, start_balance, ctx=None, rng=None):
    """A valid all-sends subchain of the given length for one key."""
    rng = rng or random.Random(0)
    txs = []
    parent, height, balance = NULL_HASH, 0, start_balance
    for _ in range(length):
        amount = rng.randrange(1, 3)
        tx = make_send(key, parent=parent, height=height + 1,
                       recipient=rng.randbytes(20), amount=amount)
        txs.append(tx)
        parent, height, balance = tx.tx_hash, tx.height, balance - amount
    return txs


def tails(node):
    """Each pending tail of ``node`` by address, in pooling order: the
    part of the address's list in ``NodeStore.chains`` above its
    confirmed height."""
    chains = node.store.chains
    return {a: chains[a][node.confirmed_state(a).tip_height:]
            for a in node.store.tail_states}


def assert_confirmed_are_replays(node):
    """Each confirmed state of ``node`` is, field for field, the replay of
    the account's canonical txs from its genesis state."""
    ctx = node.claim_context()
    for address, state in node.store.confirmed.items():
        txs = [node.store.txs[(address, h)]
               for h in range(1, state.tip_height + 1)]
        assert state == subchain.replay(
            txs, ctx, initial=node.base_state(address), verify=None), address


def assert_chains_are_canonical(node):
    """Each hosted list is never empty and as long as its address's full
    state's tip height. Up to its confirmed height it is its address's
    txs archived for the canonical blocks, in block order, and
    ``store.txs`` is them by (address, height); above it is the pending
    tail, held exactly when ``tail_states`` has the address, and which
    ``store.txs`` does not hold. ``find_send`` finds each canonical send
    at the block that confirmed it, under its sender alone."""
    store = node.store
    chains, sends = {}, {}
    for bh in node.view.canonical[1:]:
        for address, (txs, _) in store.archive[bh].items():
            chains.setdefault(address, []).extend(txs)
            sends.update(((tx.tx_hash, bh), tx) for tx in txs
                         if isinstance(tx, SendTx))
    assert all(store.chains.values())
    assert {a: len(chain) for a, chain in store.chains.items()} == \
        {a: node.full_state(a).tip_height for a in store.chains}
    confirmed = {a: node.confirmed_state(a).tip_height
                 for a in store.chains}
    assert set(store.tail_states) == {
        a for a, chain in store.chains.items() if len(chain) > confirmed[a]}
    assert {a: chain[:confirmed[a]] for a, chain in store.chains.items()
            if confirmed[a]} == chains
    assert set(store.confirmed) <= set(store.chains)
    # store.txs reads the lists by (address, height), up to the tail
    held = {(a, h): tx for a, chain in chains.items()
            for h, tx in enumerate(chain, 1)}
    assert dict(store.txs.items()) == held and store.txs == held
    assert all((a, h) not in store.txs for a, chain in store.chains.items()
               for h in range(confirmed[a] + 1, len(chain) + 1))
    assert list(store.txs.values()) == list(held.values())
    assert all(store.txs.get((a, h)) is None for a, chain in chains.items()
               for h in (-1, 0, len(chain) + 1))
    for (tx_hash, bh), send in sends.items():
        sender = send.current_address
        assert store.find_send(sender, tx_hash, bh) is send
        other = bytes([sender[0] ^ 1]) + sender[1:]
        assert store.find_send(other, tx_hash, bh) is None


def rival_branch(sim, depth, miner_address):
    """Re-mine the records of the root's last ``depth`` canonical blocks
    on a sibling branch, plus one more block so that the branch wins,
    flooding each block from the root; yields after each flood."""
    view = sim.root.view
    canon = list(view.canonical)
    tip = len(canon) - 1
    parent = canon[tip - depth]
    for height in range(tip - depth + 1, tip + 2):
        records = view.blocks[canon[height]].confirmations \
            if height <= tip else ()
        header = mainchain.BlockHeader(
            parent, height, sim.now, miner_address,
            mainchain.confirmations_root(records),
            sim.params.difficulty_bits, 0)
        block = mainchain.seal(mainchain.MainBlock(header, tuple(records)))
        parent = block.block_hash
        sim.broadcast(codec.MsgKind.NewBlock, block.encode())
        sim.transport.run()
        yield block
    sim.miner.refresh_pool()


def index_scan(view, tip):
    """The canonical index that ``view`` must hold with ``tip`` as its
    tip, from the from-genesis scan: ``(confirmed_by, tip_heights)``."""
    scan = view.confirmations_at(tip).items()
    return ({a: entry[0] for a, entry in scan},
            {a: entry[2] for a, entry in scan})


def assert_index_is_scan(view):
    """The view's canonical index is the from-genesis scan of its tip, and
    each canonical block's undo record is the scan of its parent read at
    each of the block's record addresses: (block hashes, tip heights),
    None and 0 for an address the block confirmed first."""
    assert (view.confirmed_by, view.tip_heights) \
        == index_scan(view, view.tip)
    assert set(view.undo) == set(view.canonical[1:])
    for bh in view.canonical[1:]:
        block = view.blocks[bh]
        scan = view.confirmations_at(block.header.parent_block_hash)
        entries = [scan.get(r.address) for r in block.confirmations]
        assert view.undo[bh] == (
            tuple(entry and entry[0] for entry in entries),
            tuple(entry[2] if entry else 0 for entry in entries)), bh.hex()


def inflow_scan(node, blocks):
    """The inflow index of ``blocks`` from a scan of their archive
    entries: each archived send to a hosted recipient, and the coinbase
    of each block a hosted address mined, with its block hash and height,
    claimed or not."""
    expected = {}
    for bh in blocks:
        block = node.view.blocks[bh]
        height = block.header.height
        archived = node.store.archive[bh]
        for rec in block.confirmations:
            for tx in archived.get(rec.address, ((), None))[0]:
                if isinstance(tx, SendTx) \
                        and node.hosts(tx.recipient_address):
                    expected.setdefault(tx.recipient_address, {})[
                        tx.tx_hash] = Inflow(tx.current_address, tx.tx_hash,
                                             bh, tx.amount, height)
        miner = block.header.miner_address
        if node.hosts(miner):
            expected.setdefault(miner, {})[bh] = Inflow(
                NULL_ADDRESS, NULL_HASH, bh, mainchain.SUBSIDY, height)
    return expected


def assert_inflows_are_an_index(node, read=True):
    """``node.store.unindexed`` holds exactly the canonical blocks not yet
    indexed, in connect order: the canonical chain's last ones, and
    ``node.store.inflows`` is the scan of the blocks below them. A read
    through ``node.inflows()``, unless ``read`` is False, indexes them
    all: the queue is then empty, and the index the read returns is the
    scan of every canonical block."""
    store = node.store
    canonical = node.view.canonical[1:]
    indexed = len(canonical) - len(store.unindexed)
    assert store.unindexed == canonical[indexed:]
    assert store.inflows == inflow_scan(node, canonical[:indexed])
    if read:
        assert node.inflows() == inflow_scan(node, canonical)
        assert store.unindexed == []
    # an Inflow equals a bare tuple of its values, so check the type too
    assert all(type(flow) is Inflow for pool in store.inflows.values()
               for flow in pool.values())


class Calls:
    """Counts calls per function name, and per (name, module of the first
    caller outside subchain.py) in ``sites``. Counts ``apply_tx``,
    ``verify_fragment`` and ``ChainView.branch`` unless given other
    ``(owner, name)`` targets."""

    def __init__(self, monkeypatch, targets=None):
        self.counts = {}
        self.sites = {}
        for owner, name in targets or [(subchain, "apply_tx"),
                                       (subchain, "verify_fragment"),
                                       (mainchain.ChainView, "branch")]:
            monkeypatch.setattr(owner, name,
                                self._counted(name, getattr(owner, name)))

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            frame = sys._getframe(1)
            while frame.f_code.co_filename == subchain.__file__:
                frame = frame.f_back
            site = (name, os.path.basename(frame.f_code.co_filename))
            self.sites[site] = self.sites.get(site, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def take(self):
        counts, self.counts, self.sites = self.counts, {}, {}
        return counts
