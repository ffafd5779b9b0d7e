import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from shardchain import codec, mainchain
from shardchain.codec import NULL_ADDRESS, NULL_HASH, sha256, sha256d
from shardchain.errors import (
    BadPoW,
    ConfigInvalid,
    DecodeError,
    MainChainError,
    MalformedBits,
    MalformedBlock,
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
    capacity,
    confirmations_root,
    decode_block,
    decode_records,
    make_genesis,
    meets_target,
    seal,
    target,
    validate_block,
)

from conftest import Calls, assert_index_is_scan, build_chain, index_scan, \
    make_send

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

    def test_block_hash_is_per_block(self, monkeypatch):
        """Each block caches the hash of its header's encoding: a decoded
        block, seeded with the hash of the wire bytes it was unpacked
        from, and a block on a header copy with another nonce each hash
        what they hold."""
        view = ChainView(make_genesis({}), PARAMS)
        block = mk_block(view)
        decoded = decode_block(block.encode())
        calls = Calls(monkeypatch, [(mainchain, "sha256d")])
        seeded = decoded.block_hash
        assert calls.take() == {}     # seeded, not computed
        monkeypatch.undo()
        header = decoded.header
        assert seeded == sha256d(header.encode()) == block.block_hash
        copy = MainBlock(header._replace(nonce=header.nonce + 1),
                         decoded.confirmations)
        assert copy.block_hash == sha256d(copy.header.encode())
        assert copy.block_hash != decoded.block_hash

    def test_sealed_block_hash_is_seeded(self, monkeypatch):
        """``new_block`` (through ``seal``) keeps the winning digest it
        computed, so its block's first hash read computes none; a block
        built by hand from a header, as a rival branch is built before
        sealing, hashes once and then reads its slot."""
        view = ChainView(make_genesis({}), PARAMS)
        built = mainchain.new_block(view.tip, 1, 0, MINER, ROOT_RECORDS,
                                    EASY_BITS)
        header = BlockHeader(view.tip, 1, 0, MINER,
                             confirmations_root(ROOT_RECORDS), EASY_BITS, 0)
        hand_built = MainBlock(header, tuple(ROOT_RECORDS))
        calls = Calls(monkeypatch, [(mainchain, "sha256d")])
        sealed = built.block_hash
        assert calls.take() == {}     # seeded, not computed
        first = hand_built.block_hash
        assert hand_built.block_hash is first
        assert calls.take() == {"sha256d": 1}
        monkeypatch.undo()
        assert sealed == sha256d(built.header.encode())
        assert meets_target(sealed, EASY_BITS)
        assert first == sha256d(header.encode())

    def test_decoded_records_are_read_only_records(self):
        view = ChainView(make_genesis({}), PARAMS)
        recs = [ConfirmationRecord(bytes([i]) * 20, bytes([i]) * 32, i + 1)
                for i in range(3)]
        decoded = decode_block(mk_block(view, recs).encode())
        assert decoded.confirmations == tuple(recs)
        for rec in decoded.confirmations + decode_records(recs[0].encode(), 1):
            assert type(rec) is ConfirmationRecord
            assert rec._asdict() == dict(zip(
                ("address", "tip_hash", "tip_height"), rec))
            for name in ConfirmationRecord._fields:
                with pytest.raises(AttributeError):
                    setattr(rec, name, getattr(rec, name))

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
            decode_records(recs[0].encode()[:-1], 1)


ROOT_RECORDS = [ConfirmationRecord(bytes([2 * i]) * 20, bytes([i]) * 32,
                                   i + 1) for i in range(4)]


class TestRecordsRoot:
    """``validate_block`` compares the header's root with the hash of the
    block's body: the record bytes ``decode_block`` unpacked, or those
    ``new_block`` and the constructor encoded once. The checks encode no
    record."""

    def test_seeded_roots_are_the_records_root(self, monkeypatch):
        """The root ``new_block`` puts in its header, and the one a decoded
        header holds, is the hash of the block's body."""
        view = ChainView(make_genesis({}), PARAMS)
        built = mainchain.new_block(view.tip, 1, 0, MINER,
                                    reversed(ROOT_RECORDS), EASY_BITS)
        decoded = decode_block(built.encode())
        calls = Calls(monkeypatch, [(mainchain, "confirmations_root"),
                                    (mainchain, "encode_records")])
        for block in (built, decoded):
            assert block.header.confirmations_root == sha256(block.body)
            validate_block(block, view)
        assert calls.take() == {}     # hashed from the body, not encoded
        monkeypatch.undo()
        for block in (built, decoded):
            assert sha256(block.body) \
                == confirmations_root(block.confirmations) \
                == confirmations_root(ROOT_RECORDS)

    @pytest.mark.parametrize("offset", [19, 20, RECORD_LEN - 1],
                             ids=["address", "tip_hash", "tip_height"])
    def test_altered_record_bytes_refused(self, offset):
        """One record byte changed after sealing, in each field, keeping
        the records sorted and advancing: the decoded block's root is the
        hash of the bytes it holds, so only the root check refuses it."""
        view = ChainView(make_genesis({}), PARAMS)
        data = bytearray(mk_block(view, ROOT_RECORDS).encode())
        data[BLOCK_OVERHEAD + RECORD_LEN + offset] ^= 1
        block = decode_block(bytes(data))
        assert sha256(block.body) == confirmations_root(block.confirmations)
        with pytest.raises(RootMismatch):
            validate_block(block, view)

    def test_regrouped_fields_refused(self):
        """Fields that would pack back to back as valid records, but are
        grouped otherwise (a pair, then four fields), are not records:
        they have no root and build no block."""
        (address, tip_hash, height), other = ROOT_RECORDS[:2]
        regrouped = ((address, tip_hash), (height, *other))
        with pytest.raises(MalformedBlock):
            confirmations_root(regrouped)

    def test_hand_built_block_computes_its_root(self, monkeypatch):
        view = ChainView(make_genesis({}), PARAMS)
        decoded = decode_block(mk_block(view, ROOT_RECORDS).encode())
        for records in (ROOT_RECORDS[1:], ROOT_RECORDS[:1]):
            calls = Calls(monkeypatch, [(mainchain, "encode_records")])
            block = MainBlock(decoded.header, tuple(records))
            root = sha256(block.body)
            assert calls.take() == {"encode_records": 1}
            monkeypatch.undo()
            assert block.body == b"".join(r.encode() for r in records)
            assert root == sha256(block.body) == confirmations_root(records)
            with pytest.raises(RootMismatch):
                validate_block(block, view)
        validate_block(MainBlock(decoded.header, tuple(ROOT_RECORDS)), view)


class TestGenesis:
    ADDRESS = b"\x01" * 20

    @pytest.mark.parametrize("allocations,timestamp", [
        # struct would pad it: the genesis would hash as the one of its
        # zero-padded twin, whose balance_of reads 0 at this address
        ({b"\x01" * 19: 5}, 0),
        ({b"\x01" * 21: 5}, 0),         # or cut it
        ({"\x01" * 20: 5}, 0),
        # sorted() cannot order a str address among bytes ones
        ({ADDRESS: 5, "a" * 20: 5}, 0),
        ({ADDRESS: 2 ** 64}, 0),
        ({ADDRESS: -1}, 0),
        ({ADDRESS: 5.0}, 0),
        ({ADDRESS: 5}, 2 ** 64),
    ], ids=["short", "long", "str", "mixed_types", "over_u64", "negative",
            "float", "timestamp"])
    def test_allocation_off_its_wire_form_refused(self, allocations,
                                                  timestamp):
        """A genesis hashes its allocations' wire bytes, so it commits to
        what it holds only when each of them reads back unchanged once
        packed: an allocation or a timestamp off its wire form is refused
        with ConfigInvalid."""
        with pytest.raises(ConfigInvalid):
            make_genesis(allocations, timestamp)


class TestChainView:
    def test_linear_growth(self):
        view = ChainView(make_genesis({}), PARAMS)
        hashes = [view.genesis.block_hash]
        for _ in range(5):
            block = mk_block(view)
            view.extend(block)
            hashes.append(block.block_hash)
            assert view.tip == block.block_hash
        assert view.canonical == hashes
        assert view.tip_height == 5

    def test_extend_idempotent(self):
        view = ChainView(make_genesis({}), PARAMS)
        block = mk_block(view)
        view.extend(block)
        canonical = list(view.canonical)
        view.extend(block)
        assert view.canonical == canonical
        assert view.tip == block.block_hash
        assert view.tip_height == 1

    def test_extend_computes_no_target(self, monkeypatch):
        """Fork choice reads heights: ``validate_block`` checked the
        PoW."""
        view = ChainView(make_genesis({}), PARAMS)
        block = mk_block(view)
        calls = Calls(monkeypatch, [(mainchain, "target")])
        view.extend(block)
        assert calls.take() == {}
        assert view.tip == block.block_hash

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
        canonical = list(view.canonical)
        view.extend(b)   # equal work: tip must not move
        assert view.tip == a.block_hash
        assert view.canonical == canonical

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
        view.extend(b3)
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
        assert (view.confirmed_by, view.tip_heights) \
            == index_scan(view, view.tip)
        assert view.confirmed_by[addr] == b2.block_hash
        assert view.tip_heights[addr] == 3
        assert view.undo[b2.block_hash] == ((b1.block_hash,), (2,))
        # the from-scratch rebuild gives the same chain and index
        incremental = (list(view.canonical), dict(view.confirmed_by),
                       dict(view.tip_heights))
        view.rebuild_index()
        assert (view.canonical, view.confirmed_by, view.tip_heights) \
            == incremental

    def test_extend_connects_from_what_validation_read(self, monkeypatch):
        """A block that ``validate_block`` checked on a side branch, which
        ``extend`` then makes the tip from the view's old tip, connects
        from the columns and prior heights that the check read, and every
        other block of its branch from its body: only the moved blocks'
        columns are read, and the index and each undo record are the
        from-genesis scan's (0 for an address first confirmed)."""
        view = ChainView(make_genesis({}), PARAMS)
        a, b = b"\x0a" * 20, b"\x0b" * 20
        for height in (1, 2):
            view.extend(mk_block(view, [
                ConfirmationRecord(a, bytes([height]) * 32, height)]))
        tip, canonical = view.tip, view.canonical[1:]
        side = []
        for height in (1, 2):
            block = mk_block(view, [
                ConfirmationRecord(b, bytes([height]) * 32, height)],
                timestamp=100 + height,
                parent=side[-1] if side else view.genesis.block_hash)
            view.extend(block)
            side.append(block.block_hash)
        block = mk_block(view, [ConfirmationRecord(a, b"\x0c" * 32, 1),
                                ConfirmationRecord(b, b"\x0d" * 32, 3)],
                         timestamp=200, parent=side[-1])
        keys, heights, prior, moved = validate_block(block, view)
        assert (keys, heights, prior, moved) \
            == ((a, b), (1, 3), (0, 2), (canonical, side))
        view.switch(tip)
        calls = Calls(monkeypatch, [(mainchain, "columns")])
        view.extend(block, (keys, heights, prior))
        assert calls.take() == {"columns": 4}
        assert view.canonical[1:] == [*side, block.block_hash]
        assert view.undo[block.block_hash] == ((None, side[-1]), (0, 2))
        assert_index_is_scan(view)

    def test_side_branch_index_matches_scan(self):
        """Switched to any block of a depth-6 rival branch that stays a
        side branch, or of the canonical chain below its tip, the view's
        index and chain are the from-genesis scan's: an address that only
        canonical blocks above the fork point confirmed is not indexed.
        Switching back restores the index, the chain and every undo
        record."""
        view = ChainView(make_genesis({}), PARAMS)
        addrs = [bytes([i]) * 20 for i in range(1, 7)]

        def record(i, height):
            return ConfirmationRecord(addrs[i], bytes([height]) * 32, height)

        canonical = {1: [0, 4], 2: [2], 5: [1], 7: [2, 3], 9: [0]}
        for height in range(1, 11):
            view.extend(mk_block(view, [record(i, height) for i in
                                        canonical.get(height, [])]))
        fork = view.canonical[3]
        side = {4: [5], 5: [0], 6: [3], 8: [2, 5]}
        parent = fork
        branch = []
        for height in range(4, 10):
            block = mk_block(view, [record(i, height) for i in
                                    side.get(height, [])],
                             timestamp=1000 + height, parent=parent)
            tip, canonical = view.tip, list(view.canonical)
            view.extend(block)
            assert view.tip == tip and view.canonical == canonical
            parent = block.block_hash
            branch.append(parent)
        tip = view.tip
        assert len(branch) == 6 and tip == view.canonical[10]
        before = (list(view.canonical), dict(view.confirmed_by),
                  dict(view.tip_heights), dict(view.undo))
        for bh in branch + view.canonical[:-1]:
            view.switch(bh)
            assert view.tip == bh
            assert (view.confirmed_by, view.tip_heights) \
                == index_scan(view, bh), bh.hex()
            assert view.canonical == view.branch(bh), bh.hex()
            if bh == branch[-1]:
                # at a side block above the fork, address 1 (only in
                # canonical block 5) is not indexed
                assert addrs[1] not in view.confirmed_by
                assert addrs[1] not in view.tip_heights
            view.switch(tip)
            assert view.tip == tip
            assert (view.canonical, view.confirmed_by, view.tip_heights,
                    view.undo) == before, bh.hex()
        assert view.confirmed_by[addrs[1]] == view.canonical[5]
        assert view.tip_heights[addrs[1]] == 5

    def test_depth(self):
        view = ChainView(make_genesis({}), PARAMS)
        b1 = mk_block(view)
        view.extend(b1)
        b2 = mk_block(view)
        view.extend(b2)
        assert view.depth(b2.block_hash) == 1
        assert view.depth(b1.block_hash) == 2
        assert view.depth(b"\x00" * 32) == 0

    # under 1 s for its 100 trees on a 2-core host
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 7)),
                    max_size=12))
    def test_fork_choice_over_random_trees(self, tree):
        """Blocks of a random tree, each on a parent drawn among those
        inserted before it (genesis included), each confirming the
        addresses of a bit mask, inserted parents-first. After each
        ``extend`` the tip is the first-inserted block of the greatest
        height, the canonical chain is its branch and the index is the
        scan of it."""
        view = ChainView(make_genesis({}), PARAMS)
        inserted = [view.genesis.block_hash]
        for i, (pick, mask) in enumerate(tree):
            parent = inserted[pick % len(inserted)]
            height = view.height[parent] + 1
            records = [ConfirmationRecord(bytes([a + 1]) * 20,
                                          bytes([i]) * 32, height)
                       for a in range(3) if mask >> a & 1]
            block = mk_block(view, records, timestamp=i, parent=parent)
            view.extend(block)
            inserted.append(block.block_hash)
            best = max(map(view.height.__getitem__, inserted))
            assert view.tip == next(h for h in inserted
                                    if view.height[h] == best)
            assert view.canonical == view.branch(view.tip)
            assert view.tip_height == len(view.canonical) - 1 == best
            assert (view.confirmed_by, view.tip_heights) \
                == index_scan(view, view.tip)


def hosted_setup(keys, n_txs=4):
    key = keys[0]
    view = ChainView(make_genesis({key.address: 1000}), PARAMS)
    chain = build_chain(key, n_txs, start_balance=1000)
    return key, view, chain


class TestValidateBlock:
    def test_returns_parent_branch_index(self, keys):
        """The block's addresses and tip heights, and the parent branch's
        tip height of each record's address, all in record order, 0 for an
        address it never confirmed, and the blocks the view moved by. A
        block off the tip is checked with the view switched to its parent,
        where it is left; there an address that only blocks above the fork
        point confirmed has no height: a record of it is fresh, not stale
        against the old tip's height."""
        key, view, chain = hosted_setup(keys)
        rec = ConfirmationRecord(key.address, chain[-1].tx_hash, 4)
        block = mk_block(view, [rec])
        assert validate_block(block, view) == ((key.address,), (4,), (0,),
                                               ([], []))
        view.extend(block)
        again = ConfirmationRecord(key.address, chain[-1].tx_hash, 5)
        assert validate_block(mk_block(view, [again]), view) \
            == ((key.address,), (5,), (4,), ([], []))
        assert view.confirmed_by[key.address] == block.block_hash
        side = mk_block(view, [rec], parent=view.genesis.block_hash,
                        timestamp=99)
        assert validate_block(side, view) == ((key.address,), (4,), (0,),
                                              ([block.block_hash], []))
        assert view.tip == view.genesis.block_hash
        assert view.canonical == [view.genesis.block_hash]
        assert key.address not in view.confirmed_by
        assert key.address not in view.tip_heights

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

    @pytest.mark.parametrize("width", [19, 21])
    def test_record_address_width(self, keys, width):
        """A record address of another width than 20 bytes: ``struct``
        would pad or truncate it into the root and ``hosted_slice`` would
        place it by byte order. It has no root, so the block's header
        holds its twin's, and the root check refuses it as the root
        computation does."""
        key, view, chain = hosted_setup(keys)
        rec = ConfirmationRecord(b"\x01" * width, NULL_HASH, 1)
        header = BlockHeader(view.tip, 1, 0, MINER, sha256(rec.encode()),
                             EASY_BITS)
        with pytest.raises(MalformedBlock):
            validate_block(seal(MainBlock(header, (rec,))), view)
        with pytest.raises(MalformedBlock):
            confirmations_root((rec,))

    @pytest.mark.parametrize("width", [0, 19, 21])
    def test_miner_address_width(self, keys, width):
        """A miner address off 20 bytes: ``struct`` pads or cuts it into
        the header, so a 19-byte one would hash as, and decode to, its
        zero-padded twin, whose coinbase is another address's. Its block
        is refused when built, so it is never validated and never enters
        a view; the twin validates and connects."""
        key, view, chain = hosted_setup(keys)
        miner = b"\x07" * width
        with pytest.raises(MalformedBlock):
            mk_block(view, miner=miner)
        twin = mk_block(view, miner=miner[:20].ljust(20, b"\x00"))
        assert twin.header._replace(miner_address=miner).encode() \
            == twin.header.encode()
        assert twin.header.miner_address != miner
        view.extend(twin, validate_block(twin, view)[:3])
        assert view.tip == twin.block_hash
        assert view.blocks[twin.block_hash].header.miner_address \
            == twin.header.miner_address

    @pytest.mark.parametrize("field,value", [
        ("timestamp", 2**64), ("timestamp", -1),
        ("nonce", 2**64), ("nonce", -1)])
    def test_header_integer_off_u64(self, keys, field, value):
        """A header integer outside u64 has no wire form: it is refused
        with a MainChainError before the header is hashed."""
        key, view, chain = hosted_setup(keys)
        block = mk_block(view)
        header = block.header._replace(**{field: value})
        with pytest.raises(struct.error):
            header.encode()
        with pytest.raises(MainChainError):
            validate_block(MainBlock(header, block.confirmations), view)

    # each header field retyped: a str of its width, a float equal to it
    RETYPED = {"miner_address": lambda v: "a" * len(v),
               "confirmations_root": lambda v: "r" * len(v),
               "timestamp": float, "height": float, "nonce": float,
               "difficulty_bits": float}

    @pytest.mark.parametrize("field", sorted(RETYPED))
    def test_header_field_mistyped(self, keys, field):
        """A header field of another type than its wire type, even one
        equal to the valid value (a float height passes the height test),
        is refused with MalformedBlock before the header is hashed."""
        key, view, chain = hosted_setup(keys)
        block = mk_block(view)
        value = self.RETYPED[field](getattr(block.header, field))
        header = block.header._replace(**{field: value})
        with pytest.raises(struct.error):
            header.encode()
        with pytest.raises(MalformedBlock):
            validate_block(MainBlock(header, block.confirmations), view)

    def test_unhashable_parent_unknown(self, keys):
        """A parent hash that is not bytes names no block: a list of the
        tip's bytes, which would not hash as a key, has no wire form, and
        its block is refused when built. A bytearray equal to the tip
        packs to the tip's hash, so its block holds that hash as bytes:
        it is the tip's child, and validates as such."""
        key, view, chain = hosted_setup(keys)
        block = mk_block(view)
        header = block.header._replace(parent_block_hash=list(view.tip))
        with pytest.raises(MalformedBlock):
            MainBlock(header, block.confirmations)
        header = block.header._replace(parent_block_hash=bytearray(view.tip))
        child = MainBlock(header, block.confirmations)
        assert type(child.header.parent_block_hash) is bytes
        assert child == block and child.block_hash == block.block_hash
        validate_block(child, view)

    @pytest.mark.parametrize("width,tip_height", [
        (31, 1), (33, 1), (32, 2**64), (32, -1)])
    def test_record_field_off_wire(self, keys, width, tip_height):
        """A record's tip hash off 32 bytes would hash into the root as its
        padded or cut twin; a height off u64 has no wire form. Neither
        has a root, so neither builds a block nor validates in one whose
        header holds its twin's root."""
        key, view, chain = hosted_setup(keys)
        rec = ConfirmationRecord(key.address, b"\x02" * width, tip_height)
        try:
            root = sha256(rec.encode())         # the twin's, struct's root
        except struct.error:
            root = NULL_HASH
        header = BlockHeader(view.tip, 1, 0, MINER, root, EASY_BITS)
        with pytest.raises(MainChainError):
            validate_block(seal(MainBlock(header, (rec,))), view)
        with pytest.raises(MainChainError):
            confirmations_root((rec,))

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
        ctx = ViewClaimContext(view, view.tip, lambda a, h, b: None)
        assert ctx.get((NULL_ADDRESS, NULL_HASH,
                        b1.block_hash)) is None   # depth 1 < 3
        for _ in range(2):
            view.extend(mk_block(view))
        ctx = ViewClaimContext(view, view.tip, lambda a, h, b: None)
        assert ctx.get((NULL_ADDRESS, NULL_HASH, b1.block_hash)) \
            == (MINER, mainchain.SUBSIDY)

    def test_send_lookup_requires_confirmation(self, keys):
        key = keys[0]
        params = ChainParams(block_limit=2048, maturity=1)
        view = ChainView(make_genesis({key.address: 100}), params)
        send = make_send(key, amount=5)
        rec = ConfirmationRecord(key.address, send.tx_hash, 1)
        b1 = mk_block(view, [rec])
        view.extend(b1)
        ctx = ViewClaimContext(
            view, view.tip, lambda a, h, b: send if (a, h, b) == (
                key.address, send.tx_hash, b1.block_hash) else None)
        assert ctx.get((key.address, send.tx_hash, b1.block_hash)) \
            == (send.recipient_address, send.amount)
        # a block that never confirmed the sender yields nothing
        assert ctx.get((b"\x55" * 20, send.tx_hash,
                        b1.block_hash)) is None
        # off-branch block hash yields nothing
        assert ctx.get((key.address, send.tx_hash,
                        b"\x44" * 32)) is None
