import dataclasses
import random
import struct

import pytest

from shardchain import codec, mainchain
from shardchain.codec import NULL_HASH, sha256d
from shardchain.errors import (
    BadPoW,
    DecodeError,
    MalformedBits,
    Oversize,
    RootMismatch,
    StaleConfirmation,
    UnknownParent,
    UnsortedRecords,
)
from shardchain.mainchain import (
    BLOCK_OVERHEAD,
    EASY_BITS,
    HEADER_LEN,
    RECORD_LEN,
    BlockHeader,
    ChainParams,
    ChainView,
    ConfirmationRecord,
    MainBlock,
    ViewClaimContext,
    block_work,
    capacity,
    confirmations_root,
    decode_block,
    decode_record,
    make_genesis,
    meets_target,
    seal,
    target,
    validate_block,
)

from conftest import build_chain, make_send

PARAMS = ChainParams(difficulty_bits=EASY_BITS, block_limit=2048)
MINER = b"\x4d" * 20


def mk_block(view, records=(), timestamp=None, miner=MINER, parent=None):
    parent = parent if parent is not None else view.tip
    header = BlockHeader(
        parent_block_hash=parent,
        height=view.height[parent] + 1,
        timestamp=view.height[parent] * 15 if timestamp is None else timestamp,
        miner_address=miner,
        confirmations_root=confirmations_root(records),
        difficulty_bits=view.params.difficulty_bits)
    return seal(MainBlock(header, tuple(records)))


class TestCapacity:
    def test_constants(self):
        assert RECORD_LEN == 20 + 32 + 8
        assert HEADER_LEN == len(BlockHeader(
            NULL_HASH, 0, 0, MINER, NULL_HASH, 0, 0).encode())
        assert BLOCK_OVERHEAD == HEADER_LEN + 4

    # capacities computed by hand: (limit - 116) // 60
    @pytest.mark.parametrize("limit,expected", [
        (2048, 32), (716, 10), (1 << 20, 17474), (40 * 1024, 680),
        (BLOCK_OVERHEAD, 0), (BLOCK_OVERHEAD + RECORD_LEN, 1),
    ])
    def test_capacity_values(self, limit, expected):
        assert capacity(limit) == expected

    def test_encoded_size_matches_model(self):
        genesis = make_genesis({})
        view = ChainView(genesis, PARAMS)
        recs = [ConfirmationRecord(bytes([i]) * 20, bytes([i]) * 32, i + 1)
                for i in range(5)]
        block = mk_block(view, recs)
        assert len(block.encode()) == BLOCK_OVERHEAD + 5 * RECORD_LEN


class TestCompactBits:
    def test_easy_bits_value(self):
        # exponent 0x20, mantissa 0x7fffff: target has top byte 0x7f
        t = target(EASY_BITS)
        assert t >> 248 == 0x7F
        assert t == 0x7FFFFF * 256 ** (0x20 - 3)

    def test_mantissa_linearity(self):
        assert target(0x20000002) == 2 * target(0x20000001)

    def test_exponent_shift(self):
        assert target(0x1F123456) * 256 == target(0x20123456)

    @pytest.mark.parametrize("bits", [0x00FFFFFF, 0x02FFFFFF, 0x21000001,
                                      0x20000000])
    def test_malformed(self, bits):
        with pytest.raises(MalformedBits):
            target(bits)

    def test_work_inverse_to_target(self):
        assert block_work(0x20000001) > block_work(0x20000002)
        # halving the target roughly doubles the work
        lo, hi = block_work(0x20000002), block_work(0x20000001)
        assert hi == 2 * lo or hi == 2 * lo + 1


class TestSeal:
    def test_seal_meets_target(self):
        genesis = make_genesis({})
        view = ChainView(genesis, PARAMS)
        block = mk_block(view)
        assert meets_target(block.block_hash, EASY_BITS)
        # sealing only touches nonce/timestamp
        assert block.header.parent_block_hash == genesis.block_hash

    def test_deterministic_for_fixed_header(self):
        genesis = make_genesis({})
        view = ChainView(genesis, PARAMS)
        a = mk_block(view, timestamp=42)
        b = mk_block(view, timestamp=42)
        assert a.block_hash == b.block_hash


class TestBlockCodec:
    def test_roundtrip(self):
        genesis = make_genesis({})
        view = ChainView(genesis, PARAMS)
        recs = [ConfirmationRecord(b"\x01" * 20, b"\x02" * 32, 9)]
        block = mk_block(view, recs)
        decoded = decode_block(block.encode())
        assert decoded == block
        # records, not bare tuples, which would compare equal too
        assert type(decoded.confirmations[0]) is ConfirmationRecord

    def test_record_fields_are_read_only(self):
        rec = ConfirmationRecord(b"\x01" * 20, b"\x02" * 32, 9)
        for name in ("address", "tip_hash", "tip_height"):
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        assert rec == ConfirmationRecord(address=b"\x01" * 20,
                                         tip_hash=b"\x02" * 32, tip_height=9)

    def test_header_hash_is_per_object(self):
        """Each header caches the hash of its own encoding: a decoded
        header and a copy with another nonce each hash what they hold."""
        view = ChainView(make_genesis({}), PARAMS)
        block = mk_block(view)
        header = decode_block(block.encode()).header
        assert header.block_hash == sha256d(header.encode()) \
            == block.block_hash
        copy = dataclasses.replace(header, nonce=header.nonce + 1)
        assert copy.block_hash == sha256d(copy.encode())
        assert copy.block_hash != header.block_hash

    def test_trailing_bytes_rejected(self):
        genesis = make_genesis({})
        view = ChainView(genesis, PARAMS)
        block = mk_block(view)
        with pytest.raises(Exception):
            decode_block(block.encode() + b"\x00")

    def test_short_input_raises_decode_error(self):
        genesis = make_genesis({})
        view = ChainView(genesis, PARAMS)
        recs = [ConfirmationRecord(b"\x01" * 20, b"\x02" * 32, 9)]
        data = mk_block(view, recs).encode()
        for cut in (0, 50, BLOCK_OVERHEAD - 1, len(data) - 1):
            with pytest.raises(DecodeError):
                decode_block(data[:cut])
        with pytest.raises(DecodeError):
            decode_record(recs[0].encode()[:-1])


class TestChainView:
    def test_linear_growth(self):
        view = ChainView(make_genesis({}), PARAMS)
        hashes = [view.genesis.block_hash]
        for _ in range(5):
            block = mk_block(view)
            assert view.extend(block)
            hashes.append(block.block_hash)
        assert view.canonical == hashes
        assert view.tip_height == 5

    def test_extend_idempotent(self):
        view = ChainView(make_genesis({}), PARAMS)
        block = mk_block(view)
        assert view.extend(block)
        assert not view.extend(block)
        assert view.tip_height == 1

    def test_unknown_parent(self):
        view = ChainView(make_genesis({}), PARAMS)
        header = BlockHeader(b"\x99" * 32, 1, 0, MINER,
                             confirmations_root(()), EASY_BITS)
        with pytest.raises(UnknownParent):
            view.extend(seal(MainBlock(header)))

    def test_first_seen_tie_break(self):
        view = ChainView(make_genesis({}), PARAMS)
        a = mk_block(view, timestamp=1)
        b = mk_block(view, timestamp=2)
        assert a.block_hash != b.block_hash
        view.extend(a)
        changed = view.extend(b)   # equal work: tip must not move
        assert not changed
        assert view.tip == a.block_hash

    def test_reorg_to_heavier_branch(self):
        view = ChainView(make_genesis({}), PARAMS)
        a1 = mk_block(view, timestamp=1)
        view.extend(a1)
        a2 = mk_block(view, timestamp=2)
        view.extend(a2)
        # competing branch from genesis, one longer
        b1 = mk_block(view, timestamp=10, parent=view.genesis.block_hash)
        view.extend(b1)
        assert view.tip == a2.block_hash
        b2 = mk_block(view, timestamp=11, parent=b1.block_hash)
        view.extend(b2)
        assert view.tip == a2.block_hash   # tie at height 2, first seen wins
        b3 = mk_block(view, timestamp=12, parent=b2.block_hash)
        assert view.extend(b3)
        assert view.tip == b3.block_hash
        assert view.canonical == [view.genesis.block_hash, b1.block_hash,
                                  b2.block_hash, b3.block_hash]

    def test_reorg_index_matches_scan(self):
        """After a reorg the incremental confirmation index must equal
        the from-scratch branch scan."""
        view = ChainView(make_genesis({}), PARAMS)
        addr = b"\xaa" * 20
        a1 = mk_block(view, [ConfirmationRecord(addr, b"\x01" * 32, 1)],
                      timestamp=1)
        view.extend(a1)
        b1 = mk_block(view, [ConfirmationRecord(addr, b"\x02" * 32, 2)],
                      timestamp=20, parent=view.genesis.block_hash)
        view.extend(b1)
        b2 = mk_block(view, [ConfirmationRecord(addr, b"\x03" * 32, 3)],
                      timestamp=21, parent=b1.block_hash)
        view.extend(b2)
        assert view.tip == b2.block_hash
        assert view.confirmations == view.confirmations_at(view.tip)
        assert view.confirmations[addr] == (b2.block_hash, b"\x03" * 32, 3)

    def test_depth(self):
        view = ChainView(make_genesis({}), PARAMS)
        b1 = mk_block(view)
        view.extend(b1)
        b2 = mk_block(view)
        view.extend(b2)
        assert view.depth(b2.block_hash) == 1
        assert view.depth(b1.block_hash) == 2
        assert view.depth(b"\x00" * 32) == 0


def hosted_setup(keys, n_txs=4):
    key = keys[0]
    view = ChainView(make_genesis({key.address: 1000}), PARAMS)
    chain = build_chain(key, n_txs, start_balance=1000)
    return key, view, chain


class TestValidateBlock:
    def test_returns_parent_branch_index(self, keys):
        key, view, chain = hosted_setup(keys)
        rec = ConfirmationRecord(key.address, chain[-1].tx_hash, 4)
        block = mk_block(view, [rec])
        assert validate_block(block, view) is view.confirmations
        view.extend(block)
        assert validate_block(mk_block(view), view)[key.address] \
            == (block.block_hash, chain[-1].tx_hash, 4)
        side = mk_block(view, [], parent=view.genesis.block_hash,
                        timestamp=99)
        assert validate_block(side, view).get(key.address) is None

    def test_unknown_parent(self, keys):
        key, view, chain = hosted_setup(keys)
        header = BlockHeader(b"\x01" * 32, 1, 0, MINER,
                             confirmations_root(()), EASY_BITS)
        with pytest.raises(UnknownParent):
            validate_block(seal(MainBlock(header, ())), view)

    def test_bad_pow(self, keys):
        key, view, chain = hosted_setup(keys)
        block = mk_block(view)
        hard = ChainParams(difficulty_bits=0x03000001, block_limit=2048)
        hard_view = ChainView(view.genesis, hard)
        with pytest.raises(BadPoW):
            validate_block(block, hard_view)

    def test_oversize(self, keys):
        key, view, chain = hosted_setup(keys)
        tiny = ChainView(view.genesis,
                         ChainParams(block_limit=BLOCK_OVERHEAD + RECORD_LEN))
        recs = sorted([ConfirmationRecord(bytes([i]) * 20, NULL_HASH, 1)
                       for i in range(1, 3)], key=lambda r: r.address)
        block = mk_block(tiny, recs)
        with pytest.raises(Oversize):
            validate_block(block, tiny)

    def test_unsorted_records(self, keys):
        key, view, chain = hosted_setup(keys)
        recs = [ConfirmationRecord(b"\x02" * 20, NULL_HASH, 1),
                ConfirmationRecord(b"\x01" * 20, NULL_HASH, 1)]
        header = BlockHeader(view.tip, 1, 0, MINER,
                             confirmations_root(recs), EASY_BITS)
        block = seal(MainBlock(header, tuple(recs)))
        with pytest.raises(UnsortedRecords):
            validate_block(block, view)

    def test_root_mismatch(self, keys):
        key, view, chain = hosted_setup(keys)
        recs = (ConfirmationRecord(key.address, chain[-1].tx_hash, 4),)
        header = BlockHeader(view.tip, 1, 0, MINER, NULL_HASH, EASY_BITS)
        block = seal(MainBlock(header, recs))
        with pytest.raises(RootMismatch):
            validate_block(block, view)

    def test_stale_confirmation(self, keys):
        key, view, chain = hosted_setup(keys)
        rec = ConfirmationRecord(key.address, chain[-1].tx_hash, 4)
        block = mk_block(view, [rec])
        validate_block(block, view)
        view.extend(block)
        # second block repeats the same height: must be rejected
        stale = mk_block(view, [rec], timestamp=99)
        with pytest.raises(StaleConfirmation):
            validate_block(stale, view)


class TestViewClaimContext:
    def test_coinbase_maturity_gate(self):
        params = ChainParams(block_limit=2048, maturity=3)
        view = ChainView(make_genesis({}), params)
        b1 = mk_block(view)
        view.extend(b1)
        ctx = ViewClaimContext(view, view.tip, lambda a, h: None)
        assert ctx.lookup_coinbase(b1.block_hash) is None   # depth 1 < 3
        for _ in range(2):
            view.extend(mk_block(view))
        ctx = ViewClaimContext(view, view.tip, lambda a, h: None)
        assert ctx.lookup_coinbase(b1.block_hash) == \
            (MINER, PARAMS.subsidy)

    def test_send_lookup_requires_confirmation(self, keys):
        key = keys[0]
        params = ChainParams(block_limit=2048, maturity=1)
        view = ChainView(make_genesis({key.address: 100}), params)
        send = make_send(key, amount=5)
        rec = ConfirmationRecord(key.address, send.tx_hash, 1)
        b1 = mk_block(view, [rec])
        view.extend(b1)
        ctx = ViewClaimContext(view, view.tip,
                               lambda a, h: send if h == send.tx_hash else None)
        assert ctx.lookup_send(key.address, send.tx_hash,
                               b1.block_hash) == send
        # a block that never confirmed the sender yields nothing
        assert ctx.lookup_send(b"\x55" * 20, send.tx_hash,
                               b1.block_hash) is None
        # off-branch block hash yields nothing
        assert ctx.lookup_send(key.address, send.tx_hash,
                               b"\x44" * 32) is None
