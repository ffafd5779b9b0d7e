import random

import pytest

from shardchain import codec, subchain
from shardchain.codec import NULL_HASH
from shardchain.errors import (
    AmountMismatch,
    BadLink,
    DoubleClaim,
    FragmentMisaligned,
    InsufficientBalance,
    UnconfirmedSend,
    WrongRecipient,
)
from shardchain.subchain import (
    StaticClaimContext,
    SubchainFragment,
    initial_state,
    apply_tx,
    replay,
    verify_fragment,
)

from conftest import build_chain, make_receive, make_send

EMPTY_CTX = StaticClaimContext()


class TestApplyTx:
    def test_send_from_empty_rejected(self, keys):
        state = initial_state(keys[0].address)
        tx = make_send(keys[0], amount=1)
        with pytest.raises(InsufficientBalance):
            apply_tx(state, tx, EMPTY_CTX)

    def test_send_arithmetic(self, keys):
        state = initial_state(keys[0].address, balance=100)
        tx = make_send(keys[0], amount=40)
        out = apply_tx(state, tx, EMPTY_CTX)
        assert out.balance == 60
        assert out.tip_height == 1 and out.tip_hash == tx.tx_hash

    def test_receive_then_double_claim(self, keys):
        sender, rcpt = keys[0], keys[1]
        send = make_send(sender, amount=40, recipient=rcpt.address)
        block = b"\xb0" * 32
        ctx = StaticClaimContext(
            sends={(sender.address, send.tx_hash, block): send})
        state = initial_state(rcpt.address)
        claim = make_receive(rcpt, NULL_HASH, 1, sender.address,
                             send.tx_hash, block, 40)
        out = apply_tx(state, claim, ctx)
        assert out.balance == 40
        assert send.tx_hash in out.claimed_sends
        again = make_receive(rcpt, claim.tx_hash, 2, sender.address,
                             send.tx_hash, block, 40)
        with pytest.raises(DoubleClaim):
            apply_tx(out, again, ctx)

    def test_unconfirmed_claim(self, keys):
        rcpt = keys[1]
        claim = make_receive(rcpt, NULL_HASH, 1, keys[0].address,
                             b"\x01" * 32, b"\x02" * 32, 5)
        with pytest.raises(UnconfirmedSend):
            apply_tx(initial_state(rcpt.address), claim, EMPTY_CTX)

    def test_wrong_recipient(self, keys):
        sender, rcpt, thief = keys[0], keys[1], keys[2]
        send = make_send(sender, amount=7, recipient=rcpt.address)
        block = b"\xb1" * 32
        ctx = StaticClaimContext(
            sends={(sender.address, send.tx_hash, block): send})
        claim = make_receive(thief, NULL_HASH, 1, sender.address,
                             send.tx_hash, block, 7)
        with pytest.raises(WrongRecipient):
            apply_tx(initial_state(thief.address), claim, ctx)

    def test_amount_mismatch(self, keys):
        sender, rcpt = keys[0], keys[1]
        send = make_send(sender, amount=7, recipient=rcpt.address)
        block = b"\xb2" * 32
        ctx = StaticClaimContext(
            sends={(sender.address, send.tx_hash, block): send})
        claim = make_receive(rcpt, NULL_HASH, 1, sender.address,
                             send.tx_hash, block, 8)
        with pytest.raises(AmountMismatch):
            apply_tx(initial_state(rcpt.address), claim, ctx)

    def test_bad_link(self, keys):
        state = initial_state(keys[0].address, balance=10)
        tx = make_send(keys[0], height=3, amount=1)
        with pytest.raises(BadLink):
            apply_tx(state, tx, EMPTY_CTX)

    def test_coinbase_claim(self, keys):
        from conftest import make_coinbase_claim
        miner = keys[3]
        block = b"\xcc" * 32
        ctx = StaticClaimContext(coinbases={block: (miner.address, 50)})
        claim = make_coinbase_claim(miner, NULL_HASH, 1, block, 50)
        out = apply_tx(initial_state(miner.address), claim, ctx)
        assert out.balance == 50
        again = make_coinbase_claim(miner, claim.tx_hash, 2, block, 50)
        with pytest.raises(DoubleClaim):
            apply_tx(out, again, ctx)


class TestReplay:
    def test_empty_needs_initial(self):
        with pytest.raises(ValueError):
            replay([], EMPTY_CTX)

    def test_empty_with_initial(self, keys):
        state = initial_state(keys[0].address, balance=3)
        assert replay([], EMPTY_CTX, initial=state) == state

    def test_coinbase_reward_chain(self, keys):
        from conftest import make_coinbase_claim
        miner = keys[4]
        block = b"\xcd" * 32
        reward = 50 * 10**8
        ctx = StaticClaimContext(coinbases={block: (miner.address, reward)})
        claim = make_coinbase_claim(miner, NULL_HASH, 1, block, reward)
        out = replay([claim], ctx, initial=initial_state(miner.address))
        assert out.balance == reward

    def test_height_gap(self, keys):
        chain = build_chain(keys[0], 4, start_balance=100)
        broken = chain[:2] + chain[3:]
        with pytest.raises(BadLink) as exc:
            replay(broken, EMPTY_CTX,
                   initial=initial_state(keys[0].address, 100))
        assert exc.value.height == 4


class TestFragments:
    def test_empty_fragment_identity(self, keys):
        state = initial_state(keys[0].address, balance=5)
        frag = SubchainFragment(address=keys[0].address, from_height=0)
        assert verify_fragment(state, frag, EMPTY_CTX) == state

    def test_oracle_equivalence_fixed_split(self, keys):
        chain = build_chain(keys[1], 20, start_balance=1000)
        init = initial_state(keys[1].address, 1000)
        whole = replay(chain, EMPTY_CTX, initial=init)
        prefix = replay(chain[:7], EMPTY_CTX, initial=init)
        frag = SubchainFragment(address=keys[1].address, from_height=7,
                                txs=tuple(chain[7:]))
        assert verify_fragment(prefix, frag, EMPTY_CTX) == whole

    def test_misaligned_parent(self, keys):
        chain = build_chain(keys[1], 5, start_balance=100)
        init = initial_state(keys[1].address, 100)
        prefix = replay(chain[:2], EMPTY_CTX, initial=init)
        frag = SubchainFragment(address=keys[1].address, from_height=2,
                                txs=tuple(chain[3:]))  # wrong first parent
        with pytest.raises((FragmentMisaligned, BadLink)):
            verify_fragment(prefix, frag, EMPTY_CTX)

    def test_misaligned_height(self, keys):
        chain = build_chain(keys[1], 5, start_balance=100)
        init = initial_state(keys[1].address, 100)
        prefix = replay(chain[:2], EMPTY_CTX, initial=init)
        frag = SubchainFragment(address=keys[1].address, from_height=3,
                                txs=tuple(chain[3:]))
        with pytest.raises(FragmentMisaligned):
            verify_fragment(prefix, frag, EMPTY_CTX)

    def test_framing_roundtrip(self, keys):
        chain = build_chain(keys[2], 6, start_balance=50)
        frag = SubchainFragment(address=keys[2].address, from_height=0,
                                txs=tuple(chain))
        again = subchain.decode_fragment(subchain.encode_fragment(frag))
        assert again == frag


def test_oracle_equivalence_random_splits(keys):
    """verify_fragment after a prefix replay equals a whole-chain replay
    at random split points."""
    rng = random.Random(7)
    key = keys[7]
    for _ in range(20):
        n = rng.randrange(2, 30)
        chain = build_chain(key, n, start_balance=10_000, rng=rng)
        init = initial_state(key.address, 10_000)
        whole = replay(chain, EMPTY_CTX, initial=init)
        cut = rng.randrange(0, n + 1)
        prefix = replay(chain[:cut], EMPTY_CTX, initial=init)
        frag = SubchainFragment(address=key.address, from_height=cut,
                                txs=tuple(chain[cut:]))
        assert verify_fragment(prefix, frag, EMPTY_CTX) == whole


def test_timestamp_independence_across_shards(keys):
    """Verification outcome does not depend on relative timestamps of
    transactions on different subchains."""
    a, b = keys[8], keys[9]
    for ts_a, ts_b in [(0, 10**9), (10**9, 0), (5, 5)]:
        tx_a = make_send(a, amount=1, timestamp=ts_a)
        tx_b = make_send(b, amount=1, timestamp=ts_b)
        out_a = replay([tx_a], EMPTY_CTX,
                       initial=initial_state(a.address, 10))
        out_b = replay([tx_b], EMPTY_CTX,
                       initial=initial_state(b.address, 10))
        assert out_a.balance == 9 and out_b.balance == 9
