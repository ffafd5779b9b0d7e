import os
import random
import sys

import pytest
from hypothesis import settings

from shardchain import codec, mainchain, subchain
from shardchain.codec import NULL_ADDRESS, NULL_HASH, SendTx, ReceiveTx
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


def assert_confirmed_are_replays(node):
    """Each confirmed state of ``node`` is, field for field, the replay of
    the account's canonical txs from its genesis state."""
    ctx = node.claim_context()
    for address, state in node.store.confirmed.items():
        txs = [node.store.txs[(address, h)]
               for h in range(1, state.tip_height + 1)]
        assert state == subchain.replay(
            txs, ctx, initial=node.base_state(address), verify=None), address


def assert_inflows_are_an_index(node):
    """``node.store.inflows`` is what a scan of the canonical blocks
    gives: each archived send to a hosted recipient, and the coinbase of
    each block a hosted address mined, with its block hash and height,
    claimed or not."""
    expected = {}
    for bh in node.view.canonical[1:]:
        block = node.view.blocks[bh]
        height = block.header.height
        archived = node.store.archive[bh]
        for rec in block.confirmations:
            for tx in archived.get(rec.address, ((), None))[0]:
                if isinstance(tx, SendTx) \
                        and node.hosts(tx.recipient_address):
                    expected.setdefault(tx.recipient_address, {})[
                        tx.tx_hash] = Inflow(tx.current_address, tx.tx_hash,
                                             tx.amount, bh, height)
        miner = block.header.miner_address
        if node.hosts(miner):
            expected.setdefault(miner, {})[bh] = Inflow(
                NULL_ADDRESS, NULL_HASH, node.params.subsidy, bh, height,
                coinbase=True)
    assert node.store.inflows == expected
    # an Inflow equals a bare tuple of its values, so check the type too
    assert all(type(flow) is Inflow for pool in node.store.inflows.values()
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
