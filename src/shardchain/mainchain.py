"""Main chain: PoW-sealed blocks carrying subchain confirmation records.

Blocks never carry transactions. Each record binds an address to its
latest subchain tip; fork choice is the highest branch, the first seen
winning a tie: with one difficulty, the heaviest.
"""

from __future__ import annotations

import struct
from itertools import chain, repeat
from operator import attrgetter, ge, le
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import codec, subchain
from .codec import Frozen, sha256, sha256d
from .errors import (
    BadPoW,
    ConfigInvalid,
    MalformedBits,
    MalformedBlock,
    Oversize,
    RootMismatch,
    StaleConfirmation,
    UnknownParent,
    UnsortedRecords,
)

RECORD_LEN = 60          # 20-byte address + 32-byte tip hash + 8-byte height
HEADER_LEN = 112
BLOCK_OVERHEAD = HEADER_LEN + 4   # header plus the 4-byte record count

_RECORD = struct.Struct(">20s32sQ")
_HEADER = struct.Struct(">32sQQ20s32sIQ")
_COUNT = struct.Struct(">I")

SUBSIDY = 50 * 10**8   # each main block's coinbase
EASY_BITS = 0x207FFFFF   # top byte 0x7f: ~1/2 success per attempt


def capacity(block_limit: int) -> int:
    """Max confirmation records per block for a given byte limit."""
    return (block_limit - BLOCK_OVERHEAD) // RECORD_LEN


class ChainParams(NamedTuple):
    difficulty_bits: int = EASY_BITS
    block_limit: int = 1 << 20
    maturity: int = 6


class ConfirmationRecord(NamedTuple):
    address: bytes
    tip_hash: bytes
    tip_height: int

    def encode(self) -> bytes:
        return _RECORD.pack(self.address, self.tip_hash, self.tip_height)


def _check_count(data: bytes, count: int) -> None:
    if len(data) != count * RECORD_LEN:
        raise codec.DecodeError("%d records must be %d bytes, got %d"
                                % (count, count * RECORD_LEN, len(data)))


def decode_records(data: bytes, count: int
                   ) -> Tuple[ConfirmationRecord, ...]:
    """The ``count`` records packed back to back in ``data``, which they
    must fill exactly: a block's body, or a Hello reply's summaries."""
    _check_count(data, count)
    # each record is built in C from its unpacked fields: the same
    # read-only NamedTuple that _make gives, without a Python call
    return tuple(map(tuple.__new__, repeat(ConfirmationRecord),
                     _RECORD.iter_unpack(data)))


_set = object.__setattr__


class BlockHeader(NamedTuple):
    parent_block_hash: bytes
    height: int
    timestamp: int
    miner_address: bytes
    confirmations_root: bytes
    difficulty_bits: int
    nonce: int = 0

    def encode(self) -> bytes:
        return _HEADER.pack(*self)


def records_fit(records) -> Optional[bytes]:
    """The records' wire encodings, back to back, when each record has
    three fields and ``codec.packed`` packs them all; else None."""
    if any(len(record) != 3 for record in records):
        return None
    return codec.packed(struct.Struct(">" + _RECORD.format[1:] * len(records)),
                        tuple(chain.from_iterable(records)))


def encode_records(records) -> bytes:
    """The records' wire encodings, back to back: a block's body. A record
    off its wire type, width or range is refused with MalformedBlock."""
    body = records_fit(records)
    if body is None:
        raise MalformedBlock("a record field has no wire form")
    return body


def _wire_header(header) -> BlockHeader:
    """The header that ``header``'s wire bytes decode to, when
    ``codec.packed`` packs it; MalformedBlock when it has no wire form."""
    data = codec.packed(_HEADER, header)
    if data is None:
        raise MalformedBlock("a header field has no wire form")
    return tuple.__new__(BlockHeader, _HEADER.unpack(data))


def confirmations_root(records) -> bytes:
    return sha256(encode_records(records))


class MainBlock(Frozen):
    """A header and ``body``, its records' wire bytes, and nothing decoded
    from them: each pass unpacks the fields of the body it reads
    (``columns``, ``rows``), and ``confirmations`` decodes the whole body
    on each read. A block holds the header its bytes decode to: one with
    a field off its wire type, width or range is refused when built, with
    MalformedBlock, as is such a record."""
    __slots__ = ("header", "body", "_block_hash")
    _fields = ("header", "body")

    def __init__(self, header: BlockHeader, confirmations: tuple = ()):
        _set(self, "header", _wire_header(header))
        _set(self, "body", encode_records(tuple(confirmations)))

    @property
    def confirmations(self) -> Tuple[ConfirmationRecord, ...]:
        return decode_records(self.body, len(self.body) // RECORD_LEN)

    @property
    def block_hash(self) -> bytes:
        """The double SHA-256 of the header as encoded, computed once:
        ingest reads it several times. ``decode_block`` and ``seal`` seed
        it with the digest they already hold."""
        try:
            return self._block_hash
        except AttributeError:
            _set(self, "_block_hash", sha256d(self.header.encode()))
            return self._block_hash

    def encode(self) -> bytes:
        return b"".join((self.header.encode(),
                         _COUNT.pack(len(self.body) // RECORD_LEN),
                         self.body))


def _block(header: BlockHeader, body: bytes,
           block_hash: Optional[bytes] = None) -> MainBlock:
    # a block whose body is already encoded, with its hash if at hand
    block = object.__new__(MainBlock)
    _set(block, "header", header)
    _set(block, "body", body)
    if block_hash is not None:
        _set(block, "_block_hash", block_hash)
    return block


def columns(block: MainBlock) -> Tuple[tuple, tuple]:
    """Each record's address and each record's tip height, in record
    order, unpacked from the body in one call with no tuple per record.
    Every column read shares this format, one per record count: struct
    caches 100 compiled formats, and a miss compiles the whole format."""
    body = block.body
    both = struct.unpack(">" + "20s32xQ" * (len(body) // RECORD_LEN), body)
    return both[0::2], both[1::2]


def rows(block: MainBlock, span: slice):
    """The (address, tip hash, tip height) of each record in ``span``, a
    slice with bounds, read from that part of the body alone."""
    return _RECORD.iter_unpack(
        block.body[span.start * RECORD_LEN:span.stop * RECORD_LEN])


def decode_block(data: bytes) -> MainBlock:
    """The block ``data`` encodes. Its records are not decoded: the body
    must be ``count`` records long, and any bytes of that length are
    records of the wire types."""
    if len(data) < BLOCK_OVERHEAD:
        raise codec.DecodeError("block shorter than %d bytes"
                                % BLOCK_OVERHEAD)
    header = tuple.__new__(BlockHeader, _HEADER.unpack_from(data, 0))
    (count,) = _COUNT.unpack_from(data, HEADER_LEN)
    body = bytes(data[BLOCK_OVERHEAD:])
    _check_count(body, count)
    # the header re-encodes to exactly the bytes it was unpacked from
    return _block(header, body, sha256d(data[:HEADER_LEN]))


def target(difficulty_bits: int) -> int:
    """Compact-bits to 256-bit target: mantissa * 256^(exponent-3)."""
    exponent = difficulty_bits >> 24
    mantissa = difficulty_bits & 0x00FFFFFF
    if not 3 <= exponent <= 32:
        raise MalformedBits("exponent %d out of range" % exponent)
    if mantissa == 0:
        raise MalformedBits("zero mantissa")
    # mantissa < 2^24 and exponent <= 32: below 2^24 * 256^29 = 2^256
    return mantissa * (256 ** (exponent - 3))


def meets_target(block_hash: bytes, difficulty_bits: int) -> bool:
    return int.from_bytes(block_hash, "big") <= target(difficulty_bits)


def seal(block: MainBlock) -> MainBlock:
    """Iterate the nonce until the hash meets target."""
    header = block.header
    goal = target(header.difficulty_bits)
    base = header.encode()[:-8]
    nonce = header.nonce
    while True:
        h = sha256d(base + struct.pack(">Q", nonce))
        if int.from_bytes(h, "big") <= goal:
            return _block(header._replace(nonce=nonce), block.body, h)
        nonce = (nonce + 1) & 0xFFFFFFFFFFFFFFFF


def new_block(parent: bytes, height: int, timestamp: int,
              miner_address: bytes, records, difficulty_bits: int
              ) -> MainBlock:
    """The sealed block on ``parent`` confirming ``records``, which it
    sorts by address."""
    records = tuple(sorted(records, key=attrgetter("address")))
    body = encode_records(records)
    header = _wire_header((parent, height, timestamp, miner_address,
                           sha256(body), difficulty_bits, 0))
    return seal(_block(header, body))


class Genesis(Frozen):
    """Height-0 anchor: allocations are pre-confirmed subchain balances.
    Its hash commits to what it holds: a timestamp or an allocation that
    ``codec.packed`` does not pack is refused with ConfigInvalid."""
    __slots__ = ("timestamp", "allocations", "block_hash", "_alloc_map")
    _fields = ("timestamp", "allocations")

    def __init__(self, timestamp: int = 0, allocations: tuple = ()):
        _set(self, "timestamp", timestamp)
        # sorted tuple of (address, balance)
        _set(self, "allocations", allocations)
        # dict() refuses an allocation that is not a pair, before encode()
        # flattens them all
        _set(self, "_alloc_map", dict(allocations))
        # every view reads the hash at once and walks parent links
        # against it constantly
        _set(self, "block_hash", sha256d(self.encode()))

    def encode(self) -> bytes:
        count = len(self.allocations)
        data = codec.packed(struct.Struct(">QI" + "20sQ" * count), (
            self.timestamp, count, *chain.from_iterable(self.allocations)))
        if data is None:
            raise ConfigInvalid("a genesis field has no wire form")
        return data

    def balance_of(self, address: bytes) -> int:
        return self._alloc_map.get(address, 0)


def make_genesis(allocations: Dict[bytes, int], timestamp: int = 0) -> Genesis:
    return Genesis(timestamp=timestamp,
                   allocations=tuple(sorted(allocations.items())))


class ChainView:
    """Block DAG index: the canonical chain, from genesis to ``tip``, the
    first block seen at the greatest height, plus its index of each
    address's latest confirmation: its tip height (``tip_heights``) and
    the hash of the block that confirmed it (``confirmed_by``).

    Each canonical block keeps an undo record: the block hashes and the
    heights its records replaced. A reorg disconnects the old blocks down
    to the fork point with those records and connects the new branch, so
    its cost follows the fork distance, not the chain length. A block
    that ``validate_block`` checked connects from the columns and prior
    heights that the check read: only the blocks a reorg moves are read
    from their bodies."""

    def __init__(self, genesis: Genesis, params: ChainParams):
        self.genesis = genesis
        self.params = params
        self.blocks: Dict[bytes, MainBlock] = {}
        self.height: Dict[bytes, int] = {genesis.block_hash: 0}
        # canonical indexes
        self.canonical: List[bytes] = [genesis.block_hash]
        self.tip_heights: Dict[bytes, int] = {}
        self.confirmed_by: Dict[bytes, bytes] = {}
        # canonical block -> the block hashes and the heights its records
        # replaced, in record order: None and 0 for an address it
        # confirmed first
        self.undo: Dict[bytes, Tuple[tuple, tuple]] = {}

    # -- queries -------------------------------------------------------

    @property
    def tip(self) -> bytes:
        return self.canonical[-1]

    @property
    def tip_height(self) -> int:
        return len(self.canonical) - 1

    def is_canonical(self, block_hash: bytes) -> bool:
        h = self.height.get(block_hash)
        return h is not None and h < len(self.canonical) \
            and self.canonical[h] == block_hash

    def depth(self, block_hash: bytes) -> int:
        """Confirmation depth on the canonical chain; 0 if not canonical."""
        if not self.is_canonical(block_hash):
            return 0
        return self.tip_height - self.height[block_hash] + 1

    def branch(self, tip_hash: bytes) -> List[bytes]:
        """Hashes from genesis to tip_hash along parent links."""
        chain = []
        h = tip_hash
        while h != self.genesis.block_hash:
            chain.append(h)
            h = self.blocks[h].header.parent_block_hash
        chain.append(self.genesis.block_hash)
        chain.reverse()
        return chain

    def confirmations_at(self, branch_tip: bytes
                         ) -> Dict[bytes, Tuple[bytes, bytes, int]]:
        """Latest confirmation per address along an arbitrary branch,
        scanned from genesis, as (block hash, tip hash, tip height): the
        oracle for ``confirmed_by`` and ``tip_heights``."""
        index: Dict[bytes, Tuple[bytes, bytes, int]] = {}
        for bh in self.branch(branch_tip)[1:]:     # after genesis
            for rec in self.blocks[bh].confirmations:
                index[rec.address] = (bh, rec.tip_hash, rec.tip_height)
        return index

    # -- mutation ------------------------------------------------------

    def extend(self, block: MainBlock, read: Optional[tuple] = None
               ) -> None:
        """Insert a validated block. When it is higher than the tip, its
        branch becomes canonical; ``read``, the block's address column,
        height column and prior heights as ``validate_block`` returned
        them, connects it without reading its body (see ``switch``)."""
        parent = block.header.parent_block_hash
        if parent not in self.height:
            raise UnknownParent("parent block unknown")
        bh = block.block_hash
        if bh in self.blocks:
            return
        self.blocks[bh] = block
        height = self.height[bh] = self.height[parent] + 1
        if height > self.tip_height:
            self.switch(bh, read)

    def switch(self, tip: bytes, read: Optional[tuple] = None
               ) -> Tuple[List[bytes], List[bytes]]:
        """Make ``tip``'s branch the canonical one: disconnect the
        canonical blocks above its fork point with their undo records,
        then connect its blocks above it, each with the undo record it
        makes. ``read``, if given, is ``tip``'s address column, height
        column and prior heights on its parent's branch, which is the
        index when ``tip`` connects: ``tip`` connects from them, and every
        other block from its body. Returns the blocks disconnected and
        those connected, each oldest first."""
        # the blocks above the fork point, tip's last canonical ancestor
        connect = []
        h = tip
        while not self.is_canonical(h):
            connect.append(h)
            h = self.blocks[h].header.parent_block_hash
        connect.reverse()
        fork_height = self.height[h]
        disconnect = self.canonical[fork_height + 1:]
        del self.canonical[fork_height + 1:]
        confirmed_by, tip_heights = self.confirmed_by, self.tip_heights
        for h in reversed(disconnect):
            hashes, heights = self.undo.pop(h)
            for address, prior, height in zip(
                    columns(self.blocks[h])[0], hashes, heights):
                if prior is None:
                    del confirmed_by[address], tip_heights[address]
                else:
                    confirmed_by[address] = prior
                    tip_heights[address] = height
        for h in connect:
            # before h is connected, the index is its parent branch's
            if read is not None and h == tip:
                keys, heights, prior = read
            else:
                keys, heights = columns(self.blocks[h])
                prior = tuple(map(tip_heights.get, keys, repeat(0)))
            self.undo[h] = (tuple(map(confirmed_by.get, keys)), prior)
            confirmed_by.update(zip(keys, repeat(h)))
            tip_heights.update(zip(keys, heights))
            self.canonical.append(h)
        return disconnect, connect

    def rebuild_index(self) -> None:
        """From-scratch canonical scan: the oracle that the incremental
        indexes must equal."""
        self.canonical = self.branch(self.tip)
        scan = self.confirmations_at(self.tip).items()
        self.confirmed_by = {a: entry[0] for a, entry in scan}
        self.tip_heights = {a: entry[2] for a, entry in scan}


class ViewClaimContext:
    """The claim context (see ``subchain``) of a ChainView's canonical
    branch up to ``branch_tip``, the view's tip when it is built.

    ``send_source`` maps (sender_address, sender_tx_hash, block_hash) to
    the SendTx in the fragment of the sender that the block confirmed,
    else None: typically a node store lookup. A block is on the branch
    when it is canonical at or below ``branch_tip``'s height, so the
    answers hold until the view's canonical chain next changes.
    """

    def __init__(self, view: ChainView, branch_tip: bytes,
                 send_source: Callable[[bytes, bytes, bytes],
                                       Optional[codec.SendTx]]):
        self.view = view
        self.branch_tip = branch_tip
        self.branch_height = view.height[branch_tip]
        self.send_source = send_source
        self.maturity = view.params.maturity

    def _mature(self, block_hash: bytes) -> bool:
        height = self.view.height.get(block_hash)
        return self.view.is_canonical(block_hash) \
            and height <= self.branch_height \
            and self.branch_height - height + 1 >= self.maturity

    def get(self, citation):
        """(recipient, amount) of the cited send or coinbase when the
        cited block is mature on this branch and, for a send, is the
        block whose record confirmed it; else None."""
        block_hash = citation[2]
        # ``blocks`` holds no genesis entry: genesis is refused here too
        block = self.view.blocks.get(block_hash)
        if block is None or not self._mature(block_hash):
            return None
        if citation[:2] == subchain.COINBASE:
            return block.header.miner_address, SUBSIDY
        send = self.send_source(*citation)
        return None if send is None else (send.recipient_address,
                                          send.amount)


def validate_block(block: MainBlock, view: ChainView
                   ) -> Tuple[tuple, Tuple[int, ...], Tuple[int, ...],
                              Tuple[List[bytes], List[bytes]]]:
    """The main chain's one check of a block, on the branch it joins.
    First the checks that read only the parent's place in the view, none
    in time that grows with the chain or the fork distance: known parent,
    difficulty bits, height, size, PoW, record order, and root. A block's
    header and records are of their wire types, widths and ranges: it is
    built of ones that ``codec.packed`` packs, or decoded. Then, on the
    view switched to a parent off its tip and left there, refused or not,
    that each record advances its address; whether a record's fragment is
    a valid state transition is for the nodes that host the address to
    check. Returns the block's address and tip height columns, each
    record's address's tip height on the parent branch (0 for an address
    it never confirmed), all in record order, and the switch's lists
    (empty for a block on the tip). The first three are the ``read`` that
    ``ChainView.extend`` connects the block from."""
    header = block.header
    parent = header.parent_block_hash
    if parent not in view.height:
        raise UnknownParent("parent block unknown")
    if header.difficulty_bits != view.params.difficulty_bits:
        raise BadPoW("unexpected difficulty bits")
    if header.height != view.height[parent] + 1:
        raise BadPoW("wrong block height")
    if BLOCK_OVERHEAD + len(block.body) > view.params.block_limit:
        raise Oversize("block exceeds %d bytes" % view.params.block_limit)
    if not meets_target(block.block_hash, header.difficulty_bits):
        raise BadPoW("block hash above target")
    keys, heights = columns(block)
    if any(map(ge, keys, keys[1:])):
        raise UnsortedRecords("records must be strictly increasing")
    if header.confirmations_root != sha256(block.body):
        raise RootMismatch("confirmations root does not match records")
    moved = ([], []) if parent == view.tip else view.switch(parent)
    prior = tuple(map(view.tip_heights.get, keys, repeat(0)))
    if any(map(le, heights, prior)):
        for tip_height, prev_height in zip(heights, prior):
            if tip_height <= prev_height:
                raise StaleConfirmation(
                    "record does not advance beyond height %d" % prev_height)
    return keys, heights, prior, moved
