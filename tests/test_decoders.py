"""Every decoder is total: on any input it returns a value or raises
DecodeError, and a valid encoding cut short or extended is refused. The
frame decoder reads a stream: a frame cut short gives None, and the bytes
after a frame are left for the next read."""

import io

import pytest
from hypothesis import given, strategies as st

from shardchain import codec, live, mainchain, sharding, subchain, wallet
from shardchain.codec import NULL_HASH, ReceiveTx, SendTx, sha256, sha256d
from shardchain.errors import DecodeError, MalformedBlock
from shardchain.node import Inflow

from conftest import decode_tx, make_receive, make_send

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
# a record with one field off its wire width, range or type
off_wire_records = st.one_of(
    st.builds(mainchain.ConfirmationRecord, address=st.binary(
        max_size=22).filter(lambda a: len(a) != 20), tip_hash=hashes,
        tip_height=u64),
    st.builds(mainchain.ConfirmationRecord, address=addresses,
              tip_hash=st.binary(max_size=34).filter(lambda h: len(h) != 32),
              tip_height=u64),
    st.builds(mainchain.ConfirmationRecord, address=addresses,
              tip_hash=hashes, tip_height=st.one_of(
                  st.integers(max_value=-1), st.integers(min_value=2**64))),
    st.builds(mainchain.ConfirmationRecord, address=st.just("a" * 20),
              tip_hash=hashes, tip_height=u64),
    st.builds(mainchain.ConfirmationRecord, address=addresses,
              tip_hash=hashes, tip_height=st.just(1.0)))
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


@given(header=headers, recs=st.lists(records, max_size=4).map(tuple),
       bad=off_wire_records, data=st.data())
def test_block_round_trips_as_bytes(header, recs, bad, data):
    """A block holds its records as their joined encodings and gives them
    back; its encoding decodes to an equal block of the same hash, whose
    records' root is the hash of that body. A record off its wire width,
    range or type is refused when the block is built, and every cut and
    every extension of the encoding up to a record's length is a
    DecodeError."""
    block = mainchain.MainBlock(header, recs)
    assert block.body == b"".join(r.encode() for r in recs)
    assert block.confirmations == recs
    wire = block.encode()
    back = mainchain.decode_block(wire)
    assert back == block and back.body == block.body
    assert back.confirmations == recs
    assert all(type(r) is mainchain.ConfirmationRecord
               for r in back.confirmations)
    assert back.block_hash == block.block_hash == sha256d(header.encode())
    assert sha256(back.body) == sha256(block.body) \
        == mainchain.confirmations_root(recs)
    at = data.draw(st.integers(min_value=0, max_value=len(recs)))
    with pytest.raises(MalformedBlock):
        mainchain.MainBlock(header, recs[:at] + (bad,) + recs[at:])
    for cut in range(len(wire)):
        with pytest.raises(DecodeError):
            mainchain.decode_block(wire[:cut])
    extra = data.draw(st.binary(min_size=mainchain.RECORD_LEN,
                                max_size=mainchain.RECORD_LEN))
    for length in range(1, mainchain.RECORD_LEN + 1):
        with pytest.raises(DecodeError):
            mainchain.decode_block(wire + extra[:length])


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
    "tx": (decode_tx, txs, codec.encode_tx),
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
        one_by_one.append(decode_tx(wire[offset:offset + size]))
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
    alone = decode_tx(codec.encode_tx(txs[0]))
    assert alone.parent_hash is NULL_HASH
    assert alone.public_key is codec.NULL_KEY
    assert alone.signature is codec.NULL_SIG


def bare(tx):
    return tx._replace(public_key=codec.NULL_KEY, signature=codec.NULL_SIG)


# each tx a send or a receive, kept as drawn (signed) or unsigned
mixed_txs = st.tuples(txs, st.booleans()).map(
    lambda pair: bare(pair[0]) if pair[1] else pair[0])
mixed_fragments = st.builds(subchain.SubchainFragment, address=addresses,
                            from_height=u64,
                            txs=st.lists(mixed_txs, min_size=1,
                                         max_size=5).map(tuple))


@given(frag=mixed_fragments, extra=st.binary(min_size=1, max_size=8),
       data=st.data())
def test_mixed_fragment_round_trips(frag, extra, data):
    """A fragment of signed and unsigned sends and receives decodes to
    equal txs of the same types, each at its width: an unsigned tx leaves
    out the 97 bytes of null key and signature. Every cut and extension
    is refused, and so is a signed tag that carries both null fields."""
    wire = subchain.encode_fragment(frag)
    back = subchain.decode_fragment(wire)
    assert back == frag
    assert list(map(type, back.txs)) == list(map(type, frag.txs))
    widths = {SendTx: codec.SEND_WIRE_LEN, ReceiveTx: codec.RECV_WIRE_LEN}
    assert len(wire) == 32 + sum(widths[type(tx)]
                                 - codec.AUTH_LEN * codec.unsigned(tx)
                                 for tx in frag.txs)
    for broken in [wire[:cut] for cut in range(len(wire))] + [wire + extra]:
        with pytest.raises(DecodeError):
            subchain.decode_fragment(broken)
    # one tx in the earlier layout: the signed tag with the null pair
    i = data.draw(st.integers(0, len(frag.txs) - 1))
    parts = list(map(codec.encode_tx, frag.txs))
    tx = frag.txs[i]
    tag = codec.TAG_SEND if type(tx) is SendTx else codec.TAG_RECEIVE
    parts[i] = bytes((tag,)) + codec.encode_tx(bare(tx))[1:] \
        + codec.NULL_KEY + codec.NULL_SIG
    with pytest.raises(DecodeError):
        subchain.decode_fragment(wire[:32] + b"".join(parts))


def test_decoders_give_the_tables_objects(keys):
    """Fragments decoded through one table give every address and cited
    block hash of one value the same object: a send's address and its
    recipient, and a later claim's address, sender and cited block."""
    key, other = keys[0], keys[1]
    block_hash = b"\x05" * 32
    send = make_send(key, recipient=other.address)
    claim = make_receive(other, NULL_HASH, 1, key.address, send.tx_hash,
                         block_hash, 1)
    twin = make_receive(key, send.tx_hash, 2, other.address, b"\x04" * 32,
                        block_hash, 1)
    table = {}

    def decode(tx):
        return subchain.decode_fragment(subchain.encode_batch([tx]),
                                        table).txs[0]
    sent, claimed, again = decode(send), decode(claim), decode(twin)
    assert claimed.current_address is sent.recipient_address \
        is again.sender_address
    assert claimed.sender_address is sent.current_address \
        is again.current_address
    assert claimed.main_block_hash is again.main_block_hash
    # the two addresses and the cited block hash
    assert len(table) == 3
    assert all(value is table[value] for value in table.values())
