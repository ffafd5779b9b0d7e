"""Every decoder is total: on any input it returns a value or raises
DecodeError, and a valid encoding cut short or extended is refused. The
frame decoder reads a stream: a frame cut short gives None, and the bytes
after a frame are left for the next read."""

import io

import pytest
from hypothesis import given, strategies as st

from shardchain import codec, live, mainchain, sharding, subchain, wallet
from shardchain.codec import NULL_HASH, ReceiveTx, SendTx
from shardchain.errors import DecodeError
from shardchain.node import Inflow

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
hellos = st.tuples(assignments, hashes, u64, st.lists(records, max_size=3))


@st.composite
def linked_fragments(draw):
    """Fragments whose txs repeat what a batch repeats where a drawn flag
    says so: the header's address, the previous tx's hash (the null hash
    for the first) as parent, the null key and the null signature."""
    frag = draw(fragments)
    txs, parent = [], NULL_HASH
    for tx in frag.txs:
        same = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        tx = tx._replace(**{name: value for name, value, flag in (
            ("current_address", frag.address, same[0]),
            ("parent_hash", parent, same[1]),
            ("public_key", codec.NULL_KEY, same[2]),
            ("signature", codec.NULL_SIG, same[2])) if flag})
        txs.append(tx)
        parent = tx.tx_hash
    return frag._replace(txs=tuple(txs))


def read_one_frame(data):
    """The envelope of ``data`` read as one whole frame by the stream
    decoder: a frame cut short, or one with bytes after it, is refused."""
    rfile = io.BytesIO(data)
    env = live.read_envelope(rfile)
    if env is None or rfile.read():
        raise DecodeError("not one whole frame")
    return env


# decoder, strategy for the values it decodes, their encoder
DECODERS = {
    "tx": (codec.decode_tx, txs, codec.encode_tx),
    "record": (lambda data: mainchain.decode_records(data, 1),
               st.tuples(records), lambda rs: rs[0].encode()),
    "block": (mainchain.decode_block, blocks, lambda b: b.encode()),
    "envelope": (read_one_frame, envelopes, lambda e: e.encode()),
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


@given(data=st.binary(max_size=300))
def test_read_envelope_random_bytes(data):
    try:
        env = live.read_envelope(io.BytesIO(data))
    except DecodeError:
        return
    assert env is None or type(env) is codec.Envelope


@given(env=envelopes)
def test_read_envelope_round_trips_to_the_end(env):
    rfile = io.BytesIO(env.encode())
    back = live.read_envelope(rfile)
    assert back == env and back.msg_id == env.msg_id
    assert rfile.read() == b""


@given(env=envelopes)
def test_read_envelope_every_cut_gives_none(env):
    frame = env.encode()
    for cut in range(len(frame)):
        assert live.read_envelope(io.BytesIO(frame[:cut])) is None, cut


@given(env=envelopes, extra=st.binary(min_size=1, max_size=40))
def test_read_envelope_leaves_extra_bytes_unread(env, extra):
    rfile = io.BytesIO(env.encode() + extra)
    assert live.read_envelope(rfile) == env
    assert rfile.read() == extra


@given(frag=linked_fragments(), extra=st.binary(min_size=1, max_size=8))
def test_fragment_decodes_as_its_txs_one_by_one(frag, extra):
    """The one-pass fragment decoder gives what ``decode_tx`` gives for
    each tx's own wire bytes, and every cut-short or extended payload is
    refused with DecodeError."""
    wire = subchain.encode_fragment(frag)
    back = subchain.decode_fragment(wire)
    # the txs follow the 32-byte header: address, from height, count
    offset, one_by_one = 32, []
    for tx in frag.txs:
        size = len(codec.encode_tx(tx))
        one_by_one.append(codec.decode_tx(wire[offset:offset + size]))
        offset += size
    assert back == frag and back.txs == tuple(one_by_one)
    assert list(map(type, back.txs)) == list(map(type, one_by_one))
    for data in [wire[:cut] for cut in range(len(wire))] + [wire + extra]:
        with pytest.raises(DecodeError):
            subchain.decode_fragment(data)


def test_decoded_batch_shares_repeated_fields(keys):
    """A decoded wallet batch holds each repeated field once: every tx's
    address is the header's, each parent hash is the tx hash below it,
    and an unsigned tx holds the one null key and null signature."""
    key = keys[0]
    inflows = [(Inflow(b"\x09" * 20, bytes([i]) * 32, b"\x0b" * 32, 5, i),
                9) for i in (1, 2)]
    view = wallet.AccountView(key.address,
                              subchain.initial_state(key.address, 20),
                              claimables=inflows)
    batch = wallet.batch_settle(view, [(b"\x01" * 20, 7)] * 2, key)
    frag = subchain.decode_fragment(subchain.encode_batch(batch))
    txs = frag.txs
    assert txs == tuple(batch) and not codec.unsigned(txs[-1])
    assert [type(tx) for tx in txs] == [ReceiveTx] * 2 + [SendTx] * 2
    assert txs[0].parent_hash is NULL_HASH
    for tx, child in zip(txs, txs[1:]):
        assert child.parent_hash is tx.tx_hash
    for tx in txs:
        assert tx.current_address is frag.address
    for tx in txs[:-1]:
        assert tx.public_key is codec.NULL_KEY
        assert tx.signature is codec.NULL_SIG
    alone = codec.decode_tx(codec.encode_tx(txs[0]))
    assert alone.parent_hash is NULL_HASH
    assert alone.public_key is codec.NULL_KEY
    assert alone.signature is codec.NULL_SIG
