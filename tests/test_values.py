"""Value semantics of the package's record types: which fields equality
and hash read, and that a value, once built, cannot be changed."""

import pytest

from shardchain import codec
from shardchain.codec import Envelope, KeyPair, MsgKind, sha256
from shardchain.mainchain import EASY_BITS, RECORD_LEN, BlockHeader, \
    ChainParams, ConfirmationRecord, Genesis, MainBlock, decode_records
from shardchain.sharding import ShardAssignment
from shardchain.sim import SimConfig

KEY = codec.keygen(b"\x05" * 32)
OTHER = codec.keygen(b"\x06" * 32)
HEADER = BlockHeader(b"\x01" * 32, 3, 7, b"\x02" * 20, b"\x03" * 32,
                     EASY_BITS, 9)
RECORD = ConfirmationRecord(b"\x04" * 20, b"\x05" * 32, 2)


def main_block(header, body):
    """The block of ``header`` built from the records that ``body``
    encodes: a block's fields are its header and its records' bytes."""
    return MainBlock(header, decode_records(body, len(body) // RECORD_LEN))


# per class: each field that equality reads, with a value and another
# value; each constructor argument that it ignores, likewise; and the
# attributes derived from the fields. Every value hashes, so it must not
# change: no attribute of it can be set or deleted.
CASES = {
    "ChainParams": (ChainParams, {
        "difficulty_bits": (EASY_BITS, 0x1F00FFFF),
        "block_limit": (4096, 2048), "maturity": (6, 2)}, {}, []),
    "SimConfig": (SimConfig, {
        "seed": (1, 2), "accounts": (100, 50), "width": (10, 5),
        "avg_txs": (1, 2), "block_limit": (4096, 2048),
        "block_interval": (15, 10), "blocks": (10, 5),
        "node_count": (1, 7), "latency_min_ms": (1.0, 2.0),
        "latency_max_ms": (5.0, 6.0), "difficulty_bits": (EASY_BITS, 0),
        "maturity": (6, 2), "initial_balance": (1000, 999),
        "claim_inflows": (True, False)}, {}, []),
    "KeyPair": (KeyPair, {
        "secret": (KEY.secret, OTHER.secret),
        "public": (KEY.public, OTHER.public)},
        {"signing_key": (KEY.signing_key, OTHER.signing_key)}, []),
    "Envelope": (Envelope, {
        "kind": (MsgKind.NewTx, MsgKind.Hello),
        "payload": (b"\x01\x02", b"\x01\x03")}, {}, ["msg_id"]),
    "ShardAssignment": (ShardAssignment, {
        "prefix_bits": ("01", "011")}, {}, ["low", "high"]),
    "BlockHeader": (BlockHeader, {
        "parent_block_hash": (b"\x01" * 32, b"\x11" * 32),
        "height": (3, 4), "timestamp": (7, 8),
        "miner_address": (b"\x02" * 20, b"\x12" * 20),
        "confirmations_root": (b"\x03" * 32, b"\x13" * 32),
        "difficulty_bits": (EASY_BITS, 0x1F00FFFF), "nonce": (9, 10)},
        {}, []),
    "MainBlock": (main_block, {
        "header": (HEADER, BlockHeader(b"\x01" * 32, 3, 7, b"\x02" * 20,
                                       b"\x03" * 32, EASY_BITS, 10)),
        "body": (RECORD.encode(), b"")}, {}, ["block_hash"]),
    "Genesis": (Genesis, {
        "timestamp": (0, 1),
        "allocations": (((b"\x01" * 20, 5),), ((b"\x01" * 20, 6),))}, {},
        ["block_hash"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_semantics(name):
    cls, compared, ignored, derived = CASES[name]
    args = {field: pair[0] for field, pair in {**compared, **ignored}
            .items()}
    value = cls(**args)
    twin = cls(**args)
    assert value == twin and twin is not value and not value != twin
    for field, (_, other) in compared.items():
        assert cls(**dict(args, **{field: other})) != value, field
    for field, (_, other) in ignored.items():
        changed = cls(**dict(args, **{field: other}))
        assert changed == value and hash(changed) == hash(value), field
    assert hash(twin) == hash(value)
    for attr in [*compared, *ignored, *derived]:
        before = getattr(value, attr)
        with pytest.raises(AttributeError):
            setattr(value, attr, before)
        with pytest.raises(AttributeError):
            delattr(value, attr)
        assert getattr(value, attr) is before


def test_equality_with_another_class_is_left_to_it():
    """A value compared with one of another class, even a subclass with
    the same fields and values, returns NotImplemented, so Python falls
    back to identity: the two are unequal."""
    class Twin(Genesis):
        __slots__ = ()

    value, twin = Genesis(0, ()), Twin(0, ())
    assert value.__eq__(twin) is NotImplemented
    assert value.__eq__(HEADER) is NotImplemented
    assert value != twin and not value == twin and value != HEADER


def test_block_root_is_its_body_hash():
    """A block holds its root once, in its header: the root of the records
    it holds is the hash of its body, and it keeps no other copy."""
    header = HEADER._replace(confirmations_root=sha256(RECORD.encode()))
    block = main_block(header, RECORD.encode())
    assert block.header.confirmations_root == sha256(block.body)
    assert MainBlock.__slots__ == ("header", "body", "_block_hash")


def test_block_confirmations_decode_on_each_read():
    """A block holds no decoded records: ``confirmations`` decodes the
    body on each read, to equal records, and it cannot be set."""
    block = main_block(HEADER, RECORD.encode())
    first = block.confirmations
    assert first == block.confirmations == (RECORD,)
    assert first is not block.confirmations
    with pytest.raises(AttributeError):
        block.confirmations = first
