"""Every decoder is total: on any input it returns a value or raises
DecodeError, and a valid encoding cut short or extended is refused."""

import pytest
from hypothesis import given, strategies as st

from shardchain import codec, live, mainchain, sharding, subchain
from shardchain.codec import ReceiveTx, SendTx
from shardchain.errors import DecodeError

hashes = st.binary(min_size=32, max_size=32)
addresses = st.binary(min_size=20, max_size=20)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
pubkeys = st.binary(min_size=33, max_size=33)
signatures = st.binary(min_size=64, max_size=64)

send_txs = st.builds(SendTx, parent_hash=hashes, height=u64,
                     current_address=addresses, recipient_address=addresses,
                     amount=u64, timestamp=u64, tx_hash=hashes,
                     public_key=pubkeys, signature=signatures)
receive_txs = st.builds(ReceiveTx, parent_hash=hashes, height=u64,
                        current_address=addresses, sender_address=addresses,
                        sender_tx_hash=hashes, main_block_hash=hashes,
                        amount=u64, timestamp=u64, tx_hash=hashes,
                        public_key=pubkeys, signature=signatures)
txs = st.one_of(send_txs, receive_txs)
records = st.builds(mainchain.ConfirmationRecord, address=addresses,
                    tip_hash=hashes, tip_height=u64)
headers = st.builds(mainchain.BlockHeader, parent_block_hash=hashes,
                    height=u64, timestamp=u64, miner_address=addresses,
                    confirmations_root=hashes, difficulty_bits=u32,
                    nonce=u64)
blocks = st.builds(mainchain.MainBlock, header=headers,
                   confirmations=st.lists(records, max_size=3).map(tuple))
envelopes = st.builds(codec.Envelope, kind=st.sampled_from(codec.MsgKind),
                      payload=st.binary(max_size=80))
assignments = st.builds(sharding.ShardAssignment, prefix_bits=st.text(
    alphabet="01", max_size=sharding.MAX_PREFIX_BITS))
fragments = st.builds(subchain.SubchainFragment, address=addresses,
                      from_height=u64,
                      txs=st.lists(txs, max_size=3).map(tuple))
hellos = st.tuples(assignments, hashes, u64, st.lists(
    st.tuples(addresses, hashes, u64, u64, hashes), max_size=3))

# decoder, strategy for the values it decodes, their encoder
DECODERS = {
    "tx": (codec.decode_tx, txs, codec.encode_tx),
    "record": (mainchain.decode_record, records, lambda r: r.encode()),
    "block": (mainchain.decode_block, blocks, lambda b: b.encode()),
    "envelope": (codec.decode_envelope, envelopes, lambda e: e.encode()),
    "assignment": (sharding.decode_assignment, assignments,
                   lambda a: a.encode()),
    "fragment": (subchain.decode_fragment, fragments,
                 subchain.encode_fragment),
    "hello": (live.decode_hello, hellos, lambda h: live.encode_hello(*h)),
}


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(data=st.binary(max_size=300))
def test_random_bytes_decode_or_raise_decode_error(name, data):
    decode = DECODERS[name][0]
    try:
        decode(data)
    except DecodeError:
        pass


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(st.data())
def test_valid_encoding_round_trips(name, data):
    decode, values, encode = DECODERS[name]
    value = data.draw(values)
    assert decode(encode(value)) == value


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(st.data())
def test_truncated_encoding_refused(name, data):
    decode, values, encode = DECODERS[name]
    wire = encode(data.draw(values))
    cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    with pytest.raises(DecodeError):
        decode(wire[:cut])


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(st.data())
def test_extended_encoding_refused(name, data):
    decode, values, encode = DECODERS[name]
    wire = encode(data.draw(values))
    extra = data.draw(st.binary(min_size=1, max_size=16))
    with pytest.raises(DecodeError):
        decode(wire + extra)
