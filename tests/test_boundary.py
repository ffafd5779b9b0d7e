"""Only wire-exact values get in. Any in-process tx, fragment, block or
envelope either comes back from its own encoding as an equal value of the
same type, or the boundary check refuses it; and a tx is never mistaken for a
plain tuple or for a tx of the other kind."""

import io
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from shardchain import codec, live, subchain
from shardchain.codec import (
    ADDR_LEN,
    AUTH_LEN,
    HASH_LEN,
    NULL_HASH,
    PUBKEY_LEN,
    RECV_WIRE_LEN,
    SEND_WIRE_LEN,
    SIG_LEN,
    Envelope,
    MsgKind,
    ReceiveTx,
    SendTx,
    sha256,
)
from shardchain.errors import (
    DecodeError,
    FragmentMisaligned,
    InvalidSignature,
    MalformedBatch,
    MalformedBlock,
    MalformedEnvelope,
    ShardChainError,
)
from shardchain.mainchain import (
    EASY_BITS,
    BlockHeader,
    ChainParams,
    ChainView,
    ConfirmationRecord,
    MainBlock,
    confirmations_root,
    decode_block,
    decode_records,
    make_genesis,
    seal,
    validate_block,
)
from shardchain.node import Node
from shardchain.sharding import MAX_PREFIX_BITS, ShardAssignment
from shardchain.sim import derived_key
from shardchain.subchain import SubchainFragment

from conftest import decode_tx, make_receive, make_send, tails

KEY = derived_key(b"boundary")
BALANCE = 1000
PARAMS = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096)
WIRE_LEN = {SendTx: SEND_WIRE_LEN, ReceiveTx: RECV_WIRE_LEN}
ENCODING_ERRORS = (struct.error, TypeError, MalformedBatch, DecodeError)

wrong_types = st.one_of(st.none(), st.text(max_size=3),
                        st.floats(allow_nan=False),
                        st.lists(st.integers(), max_size=1))


def bytes_field(width, *usual):
    """(wire-valid, broken) strategies of a bytes field: the valid one is
    ``width`` bytes or any of ``usual``; the broken one draws every width
    from 0 to ``width`` + 2, a same-width bytearray or str, or a wrong
    type."""
    exact = st.binary(min_size=width, max_size=width)
    valid = st.one_of(st.sampled_from(usual), exact) if usual else exact
    return valid, st.one_of(st.binary(max_size=width + 2),
                            exact.map(bytearray),
                            st.text(min_size=width, max_size=width),
                            wrong_types)


def int_field(*usual):
    """(wire-valid, broken) strategies of a u64 field: a u64 or any of
    ``usual``; a bool, one just outside the range, or a wrong type."""
    u64 = st.integers(min_value=0, max_value=2**64 - 1)
    valid = st.one_of(st.sampled_from(usual), u64) if usual else u64
    return valid, st.one_of(st.sampled_from([True, -1, 2**64]),
                            wrong_types)


def drawn(cls, broken=None, **fields):
    """Values of ``cls`` whose fields are wire-valid but for at most two,
    drawn broken (or for those ``broken`` draws)."""
    def build(broken):
        return st.builds(cls, **{name: pair[name in broken]
                                 for name, pair in fields.items()})
    if broken is None:
        broken = st.sets(st.sampled_from(sorted(fields)), max_size=2)
    return broken.flatmap(build)


# the first tx of KEY's chain is drawn often enough to be pooled
common = dict(parent_hash=bytes_field(HASH_LEN, NULL_HASH),
              height=int_field(1),
              current_address=bytes_field(ADDR_LEN, KEY.address),
              amount=int_field(1, BALANCE), timestamp=int_field(),
              tx_hash=bytes_field(HASH_LEN),
              public_key=bytes_field(PUBKEY_LEN, KEY.public),
              signature=bytes_field(SIG_LEN))
sends = drawn(SendTx, recipient_address=bytes_field(ADDR_LEN), **common)
receives = drawn(ReceiveTx, sender_address=bytes_field(ADDR_LEN),
                 sender_tx_hash=bytes_field(HASH_LEN),
                 main_block_hash=bytes_field(HASH_LEN), **common)
txs = st.one_of(sends, receives)
fragments = drawn(SubchainFragment,
                  address=bytes_field(ADDR_LEN, KEY.address),
                  from_height=int_field(0),
                  txs=(st.lists(txs, max_size=3).map(tuple),) * 2)


def signed_or_not(tx, sign):
    if sign:
        try:
            return codec.sign_tx(tx, KEY)
        except ShardChainError:
            pass
    return tx


def round_trips(value, encode, decode) -> bool:
    try:
        back = decode(encode(value))
    except ENCODING_ERRORS:
        return False
    return type(back) is type(value) and back == value


def tx_round_trips(tx) -> bool:
    return round_trips(tx, codec.encode_tx, decode_tx)


def header_round_trips(header) -> bool:
    # a header alone is a block of no records
    return round_trips(header, BlockHeader.encode,
                       lambda data: decode_block(data + bytes(4)).header)


def record_round_trips(record) -> bool:
    return round_trips(record, ConfirmationRecord.encode,
                       lambda data: decode_records(data, 1)[0])


def assert_tx_refused(tx):
    assert codec.verify_tx(tx) is False
    with pytest.raises(InvalidSignature):
        codec.sign_tx(tx, KEY)
    with pytest.raises(InvalidSignature):
        codec.hash_tx(tx)
    # a child naming it as parent gets no voucher for it
    assert codec.vouched(tx, tx._replace(parent_hash=tx.tx_hash)) is False


# a hashed send with one field that its preimage leaves out held off its
# wire form: the hash still matches the preimage
TAIL_BROKEN = tuple(
    tx._replace(**{name: value(getattr(tx, name))})
    for tx in [codec.hash_tx(SendTx(NULL_HASH, 1, KEY.address,
                                    b"\x07" * ADDR_LEN, 1, 0))]
    for name, value in [("tx_hash", memoryview),
                        ("public_key", lambda key: key + b"\x02"),
                        ("signature", lambda sig: sig[1:])])


@given(drawn=st.lists(st.tuples(txs, st.booleans()), max_size=4))
@example(drawn=[(tx, False) for tx in TAIL_BROKEN])
def test_tx_round_trips_or_is_refused(drawn):
    """Every drawn tx, signed by KEY when it can be, round-trips, or
    ``encode_tx`` refuses it with MalformedBatch and it is refused; a node
    pools only such txs, so every tx its storage report counts has its
    wire width, as the report assumes."""
    node = Node(b"\x00" * 8, ShardAssignment(),
                make_genesis({KEY.address: BALANCE}), PARAMS)
    for tx, sign in drawn:
        tx = signed_or_not(tx, sign)
        if not tx_round_trips(tx):
            with pytest.raises(MalformedBatch):
                codec.encode_tx(tx)
            assert_tx_refused(tx)
        try:
            node.accept_pending_tx(tx)
        except ShardChainError:
            pass
    held = list(node.store.txs.values())
    for tail in tails(node).values():
        held.extend(tail)
    for tx in held:
        assert tx_round_trips(tx)
        assert len(codec.encode_tx(tx)) == WIRE_LEN[type(tx)] \
            - AUTH_LEN * codec.unsigned(tx)
    report = node.storage_report()
    assert report.tx_count == len(held)
    assert report.subchain_bytes == sum(len(codec.encode_tx(tx))
                                        for tx in held)


@given(frag=fragments)
@example(frag=SubchainFragment(KEY.address, 0, TAIL_BROKEN))
def test_fragment_round_trips_or_is_refused(frag):
    """A fragment that does not round-trip holds a refused tx, has no
    wire form, or has an address off its wire width, which no state has:
    verify_fragment refuses it even against the state of the address its
    encoding names."""
    if round_trips(frag, subchain.encode_fragment, subchain.decode_fragment):
        return
    bad = [tx for tx in frag.txs if not tx_round_trips(tx)]
    for tx in bad:
        assert_tx_refused(tx)
    if bad:
        return
    try:
        data = subchain.encode_fragment(frag)
    except (struct.error, TypeError):
        return
    assert len(frag.address) != ADDR_LEN
    state = subchain.initial_state(subchain.fragment_address(data))
    with pytest.raises(FragmentMisaligned):
        subchain.verify_fragment(state, frag, {})


# blocks: each header field and the record list are drawn valid, or for
# at most two of them broken (a bytes field at any width from 0 to its
# width + 2, an integer just outside its range, records with such fields);
# a valid root is the hash of the records as struct packs them, so a
# broken record gets its padded or cut twin's root
GENESIS = make_genesis({KEY.address: BALANCE})
U64 = st.integers(min_value=0, max_value=2**64 - 1)
OFF_U64 = st.sampled_from([-1, 2**64, 2**65 + 7])


def sized(width):
    return st.binary(min_size=width, max_size=width)


valid_heights = st.integers(min_value=1, max_value=2**64 - 1)
RECORD_FIELDS = dict(address=(sized(ADDR_LEN),
                              st.binary(min_size=ADDR_LEN - 1,
                                        max_size=ADDR_LEN + 1)),
                     tip_hash=(sized(HASH_LEN),
                               st.binary(max_size=HASH_LEN + 2)),
                     tip_height=(valid_heights, OFF_U64))


def mistyped(width):
    """A field of another type than bytes: a str of ``width`` characters,
    which a width test alone lets through, or None, a float or a list."""
    return st.one_of(st.text(min_size=width, max_size=width), wrong_types)


def broken_records_of(fields):
    """One broken record among valid ones, with one field broken as
    ``fields`` break it."""
    return st.builds(
        lambda valid, broken: valid + [broken],
        st.lists(drawn(ConfirmationRecord, st.just(()), **RECORD_FIELDS),
                 max_size=2),
        drawn(ConfirmationRecord, st.sampled_from(sorted(fields)).map(
            lambda name: {name}), **fields))


broken_records = broken_records_of(RECORD_FIELDS)
# each record field broken also to another type (a height to anything but
# an int); blocks() sorts its records by address, so it draws
# broken_records alone
MISTYPED = dict(address=mistyped(ADDR_LEN), tip_hash=mistyped(HASH_LEN),
                tip_height=wrong_types)
mistyped_records = broken_records_of({
    name: (valid, st.one_of(broken, MISTYPED[name]))
    for name, (valid, broken) in RECORD_FIELDS.items()})


@given(records=mistyped_records)
def test_records_round_trip_or_root_refuses(records):
    """A record list whose root is computed holds only records that come
    back from their own encoding as equal records: ``confirmations_root``
    refuses, with MalformedBlock, any record struct would pad, cut or
    refuse, a field of another type too."""
    try:
        confirmations_root(records)
    except MalformedBlock:
        assert not all(map(record_round_trips, records))
        return
    assert all(map(record_round_trips, records))


# each header field is also drawn of another type: a str of its width, a
# float equal to a valid integer (which passes an equality test), or any
# of wrong_types; a None root stands for the records' own root
BLOCK_FIELDS = dict(
    parent_block_hash=(st.just(GENESIS.block_hash),
                       st.one_of(st.binary(max_size=HASH_LEN + 2),
                                 mistyped(HASH_LEN))),
    height=(st.just(1), st.one_of(OFF_U64, st.just(1.0), wrong_types)),
    timestamp=(U64, st.one_of(OFF_U64, wrong_types)),
    miner_address=(sized(ADDR_LEN), st.one_of(
        st.binary(max_size=ADDR_LEN + 2), mistyped(ADDR_LEN))),
    confirmations_root=(st.none(), st.one_of(
        st.binary(max_size=HASH_LEN + 2),
        mistyped(HASH_LEN).filter(lambda root: root is not None))),
    difficulty_bits=(st.just(EASY_BITS),
                     st.sampled_from([-1, 2**32 + EASY_BITS,
                                      float(EASY_BITS)])),
    nonce=(U64, st.one_of(OFF_U64, wrong_types)),
    records=(st.lists(drawn(ConfirmationRecord, st.just(()),
                            **RECORD_FIELDS), max_size=3),
             broken_records))


@st.composite
def blocks(draw):
    names = st.sampled_from(sorted(BLOCK_FIELDS))
    broken = draw(st.one_of(st.just(()), names.map(lambda name: {name}),
                            st.sets(names, min_size=2, max_size=2)))
    fields = {name: draw(pair[name in broken])
              for name, pair in BLOCK_FIELDS.items()}
    recs = tuple(sorted(fields.pop("records"), key=lambda r: r.address))
    if fields["confirmations_root"] is None:
        try:
            fields["confirmations_root"] = sha256(
                b"".join(r.encode() for r in recs))
        except struct.error:
            fields["confirmations_root"] = NULL_HASH
    header = BlockHeader(**fields)
    try:
        block = MainBlock(header, recs)
    except MalformedBlock:
        return header, recs     # refused when built: the test checks why
    try:
        return seal(block)
    except (struct.error, TypeError, ShardChainError):
        return block        # a float difficulty_bits has no target


@settings(max_examples=300)
@given(block=blocks())
def test_block_round_trips_or_is_refused(block):
    """An in-process block that ``validate_block`` accepts is the block its
    own encoding decodes to, field for field: its hash covers exactly the
    bytes it holds. Any other block is refused with a ShardChainError:
    one whose header or records do not all round-trip, when it is
    built."""
    if isinstance(block, tuple):
        header, recs = block
        assert not header_round_trips(header) \
            or not all(map(record_round_trips, recs))
        return
    assert header_round_trips(block.header)
    try:
        validate_block(block, ChainView(GENESIS, PARAMS))
    except ShardChainError:
        return
    back = decode_block(block.encode())
    assert back.header == block.header
    assert back.confirmations == block.confirmations
    assert back.block_hash == block.block_hash


@given(kind=st.one_of(st.integers(min_value=0, max_value=7),
                     st.sampled_from(MsgKind), st.booleans(), wrong_types),
       payload=st.one_of(st.binary(max_size=40), bytes_field(3)[1]))
def test_envelope_round_trips_or_is_refused(kind, payload):
    """An envelope that builds decodes from its own frame to an equal one
    whose kind is the same member and whose payload is bytes; only a kind
    that is not a MsgKind member or a payload that is not bytes is
    refused, with MalformedEnvelope."""
    try:
        env = Envelope(kind, payload)
    except MalformedEnvelope:
        assert type(kind) is not MsgKind or type(payload) is not bytes
        return
    back = live.read_envelope(io.BytesIO(env.encode()))
    assert back == env and back.msg_id == env.msg_id
    assert back.kind is env.kind and type(back.payload) is bytes


def widths(width):
    """Bytes of every width from 0 to ``width`` + 2."""
    return st.integers(0, width + 2).flatmap(
        lambda n: st.binary(min_size=n, max_size=n))


hello_heights = st.one_of(st.integers(-1, 2**64), wrong_types)
hello_records = st.lists(st.builds(
    ConfirmationRecord,
    st.one_of(widths(ADDR_LEN), mistyped(ADDR_LEN)),
    st.one_of(widths(HASH_LEN), mistyped(HASH_LEN)), hello_heights),
    max_size=3)


@given(prefix=st.text("01", max_size=MAX_PREFIX_BITS),
       tip=st.one_of(widths(HASH_LEN), mistyped(HASH_LEN)),
       tip_height=hello_heights, records=hello_records)
def test_hello_round_trips_or_is_refused(prefix, tip, tip_height, records):
    """A Hello reply body decodes to exactly the assignment, tip, tip
    height and records it was packed from; a tip or record field off its
    wire type or width, or a height that is no int or is off u64, is
    refused, with MalformedEnvelope, before anything is packed."""
    assignment = ShardAssignment(prefix)
    fits = type(tip) is bytes and len(tip) == HASH_LEN \
        and type(tip_height) is int and 0 <= tip_height < 2**64 \
        and all(map(record_round_trips, records))
    try:
        body = live.encode_hello(assignment, tip, tip_height, records)
    except MalformedEnvelope:
        assert not fits
        return
    assert fits
    assert live.decode_hello(body) == (assignment, tip, tip_height, records)


class RequestRecorder(live.NodeClient):
    """A client with no connection: it keeps each request it would send
    and stops the call there."""

    class Sent(Exception):
        pass

    def __init__(self):
        self.sent = []

    def call(self, env):
        self.sent.append(env)
        raise self.Sent


heights = st.one_of(st.integers(-1, 2**64), st.floats(0, 2**64),
                   st.just("1"), st.none())


@given(address=widths(ADDR_LEN), lo=heights, hi=heights)
@example(address=b"\x01" * ADDR_LEN, lo=1.5, hi=2)
@example(address=b"\x01" * ADDR_LEN, lo="1", hi=2)
@example(address=b"\x01" * ADDR_LEN, lo=1, hi=None)
def test_fragment_request_packs_its_range_or_is_refused(address, lo, hi):
    """A FragmentRequest carries exactly the address and heights asked
    for, in 36 bytes; an address that is not 20 bytes or a height that
    is not an int in u64 is refused, with MalformedEnvelope, and nothing
    is sent."""
    client = RequestRecorder()
    fits = len(address) == ADDR_LEN and all(
        isinstance(h, int) and 0 <= h < 2**64 for h in (lo, hi))
    try:
        client.fetch_fragment(address, lo, hi)
    except MalformedEnvelope:
        assert not fits and client.sent == []
        return
    except RequestRecorder.Sent:
        pass
    [env] = client.sent
    assert fits and env.kind is MsgKind.FragmentRequest
    assert env.payload == address + lo.to_bytes(8, "big") \
        + hi.to_bytes(8, "big")
    assert len(env.payload) == 36


@pytest.mark.parametrize("field,value", [
    ("recipient_address", b"\x01" * 19),   # struct would pad it
    ("public_key", b"\x02" * 40),          # would misframe the fragment
    ("amount", -1)])                       # off u64
def test_submit_tx_refuses_an_off_wire_tx_unsent(keys, field, value):
    """``encode_tx`` refuses a tx with a field off its wire type, width
    or range with MalformedBatch, so a client never sends a tx other than
    the one it holds."""
    client = RequestRecorder()
    tx = make_send(keys[0])._replace(**{field: value})
    with pytest.raises(MalformedBatch):
        client.submit_tx(tx)
    assert client.sent == []


class TestTypeGuard:
    def test_plain_tuple_misses_the_verify_cache(self, keys):
        tx = make_send(keys[0], amount=3)
        assert codec.verify_tx(tx)
        assert tuple(tx) == tx
        assert codec.verify_tx(tuple(tx)) is False

    def test_decode_keeps_the_kind(self, keys):
        for tx in (make_send(keys[0], amount=3),
                   make_receive(keys[1], NULL_HASH, 1, keys[0].address,
                                b"\x04" * 32, b"\x05" * 32, 3)):
            assert type(decode_tx(codec.encode_tx(tx))) is type(tx)

    @given(send=sends, receive=receives)
    def test_kinds_never_equal(self, send, receive):
        assert send != receive and receive != send
