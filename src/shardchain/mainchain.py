"""Main chain: PoW-sealed blocks carrying subchain confirmation records.

Blocks never carry transactions. Each record binds an address to its
latest subchain tip; fork choice is heaviest cumulative work with
first-seen tie-break.
"""

from __future__ import annotations

import struct
from itertools import repeat
from operator import attrgetter, ge, itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import codec, subchain
from .codec import ADDR_LEN, HASH_LEN, Frozen, sha256, sha256d
from .errors import (
    BadPoW,
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
_U64 = 1 << 64
# a record's fields by position: whole-record passes map these over a
# block's records instead of reading NamedTuple fields one by one
_ADDRESS = itemgetter(0)
_TIP_HASH = itemgetter(1)
_TIP_HEIGHT = itemgetter(2)

DEFAULT_SUBSIDY = 50 * 10**8
EASY_BITS = 0x207FFFFF   # top byte 0x7f: ~1/2 success per attempt


def capacity(block_limit: int) -> int:
    """Max confirmation records per block for a given byte limit."""
    return (block_limit - BLOCK_OVERHEAD) // RECORD_LEN


class ChainParams(NamedTuple):
    difficulty_bits: int = EASY_BITS
    block_limit: int = 1 << 20
    subsidy: int = DEFAULT_SUBSIDY
    maturity: int = 6


class ConfirmationRecord(NamedTuple):
    address: bytes
    tip_hash: bytes
    tip_height: int

    def encode(self) -> bytes:
        return _RECORD.pack(self.address, self.tip_hash, self.tip_height)


def decode_records(data: bytes, count: int
                   ) -> Tuple[ConfirmationRecord, ...]:
    """The ``count`` records packed back to back in ``data``, which they
    must fill exactly: a block's body, or a Hello reply's summaries."""
    if len(data) != count * RECORD_LEN:
        raise codec.DecodeError("%d records must be %d bytes, got %d"
                                % (count, count * RECORD_LEN, len(data)))
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


def records_fit(records) -> bool:
    """Whether every record's fields are of their wire types, widths and
    ranges: struct would pad or cut a bytes field and refuse a height off
    u64 or a field of another type."""
    return all(isinstance(a, bytes) and len(a) == ADDR_LEN
               and isinstance(h, bytes) and len(h) == HASH_LEN
               and isinstance(n, int) and 0 <= n < _U64
               for a, h, n in records)


def confirmations_root(records) -> bytes:
    # only in-process records come here (a decoded block hashed its bytes)
    if not records_fit(records):
        raise MalformedBlock("a record field is off its wire type, width or "
                             "range")
    return sha256(b"".join(r.encode() for r in records))


class MainBlock(Frozen):
    __slots__ = ("header", "confirmations", "_block_hash", "_records_root")
    _fields = ("header", "confirmations")

    def __init__(self, header: BlockHeader, confirmations: tuple = ()):
        _set(self, "header", header)
        _set(self, "confirmations", confirmations)

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

    @property
    def records_root(self) -> bytes:
        """The root of the records as they are: what ``validate_block``
        compares with the header's, computed once. ``decode_block`` and
        ``new_block`` seed it with the root of the bytes they already
        hold."""
        try:
            return self._records_root
        except AttributeError:
            _set(self, "_records_root", confirmations_root(
                self.confirmations))
            return self._records_root

    def encode(self) -> bytes:
        parts = [self.header.encode(),
                 struct.pack(">I", len(self.confirmations))]
        parts.extend(r.encode() for r in self.confirmations)
        return b"".join(parts)


def decode_block(data: bytes) -> MainBlock:
    if len(data) < BLOCK_OVERHEAD:
        raise codec.DecodeError("block shorter than %d bytes"
                                % BLOCK_OVERHEAD)
    header = tuple.__new__(BlockHeader, _HEADER.unpack_from(data, 0))
    (count,) = struct.unpack_from(">I", data, HEADER_LEN)
    body = data[BLOCK_OVERHEAD:]
    block = MainBlock(header, decode_records(body, count))
    # the header and the records re-encode to exactly the bytes they were
    # unpacked from
    _set(block, "_block_hash", sha256d(data[:HEADER_LEN]))
    _set(block, "_records_root", sha256(body))
    return block


def target(difficulty_bits: int) -> int:
    """Compact-bits to 256-bit target: mantissa * 256^(exponent-3)."""
    exponent = difficulty_bits >> 24
    mantissa = difficulty_bits & 0x00FFFFFF
    if not 3 <= exponent <= 32:
        raise MalformedBits("exponent %d out of range" % exponent)
    if mantissa == 0:
        raise MalformedBits("zero mantissa")
    value = mantissa * (256 ** (exponent - 3))
    if value >= 1 << 256:
        raise MalformedBits("target overflows 256 bits")
    return value


def _work(goal: int) -> int:
    return (1 << 256) // (goal + 1)


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
            sealed = MainBlock(header._replace(nonce=nonce),
                               block.confirmations)
            _set(sealed, "_block_hash", h)
            return sealed
        nonce = (nonce + 1) & 0xFFFFFFFFFFFFFFFF


def new_block(parent: bytes, height: int, timestamp: int,
              miner_address: bytes, records, difficulty_bits: int
              ) -> MainBlock:
    """The sealed block on ``parent`` confirming ``records``, which it
    sorts by address."""
    records = tuple(sorted(records, key=attrgetter("address")))
    root = confirmations_root(records)
    header = BlockHeader(parent, height, timestamp, miner_address, root,
                         difficulty_bits, 0)
    block = seal(MainBlock(header, records))
    _set(block, "_records_root", root)
    return block


class Genesis(Frozen):
    """Height-0 anchor: allocations are pre-confirmed subchain balances."""
    __slots__ = ("timestamp", "allocations", "block_hash", "_alloc_map")
    _fields = ("timestamp", "allocations")

    def __init__(self, timestamp: int = 0, allocations: tuple = ()):
        _set(self, "timestamp", timestamp)
        # sorted tuple of (address, balance)
        _set(self, "allocations", allocations)
        # every view reads the hash at once and walks parent links
        # against it constantly
        _set(self, "block_hash", sha256d(self.encode()))
        _set(self, "_alloc_map", dict(allocations))

    def encode(self) -> bytes:
        parts = [struct.pack(">QI", self.timestamp, len(self.allocations))]
        for address, balance in self.allocations:
            parts.append(struct.pack(">20sQ", address, balance))
        return b"".join(parts)

    def balance_of(self, address: bytes) -> int:
        return self._alloc_map.get(address, 0)


def make_genesis(allocations: Dict[bytes, int], timestamp: int = 0) -> Genesis:
    return Genesis(timestamp=timestamp,
                   allocations=tuple(sorted(allocations.items())))


class ChainView:
    """Block DAG index: canonical tip by cumulative work, plus the
    per-address latest-confirmation map for the canonical chain only.

    Each canonical block keeps an undo record: the confirmation entries
    its records replaced. A reorg disconnects the old blocks down to the
    fork point with those records and connects the new branch, so its
    cost follows the fork distance, not the chain length."""

    def __init__(self, genesis: Genesis, params: ChainParams):
        self.genesis = genesis
        self.params = params
        self.blocks: Dict[bytes, MainBlock] = {}
        self.work: Dict[bytes, int] = {genesis.block_hash: 0}
        self.height: Dict[bytes, int] = {genesis.block_hash: 0}
        self.tip: bytes = genesis.block_hash
        # canonical indexes
        self.canonical: List[bytes] = [genesis.block_hash]
        self.confirmations: Dict[bytes, Tuple[bytes, bytes, int]] = {}
        # canonical block -> the entries its records replaced, in record
        # order, None for an address it confirmed first
        self.undo: Dict[bytes, Tuple[Optional[tuple], ...]] = {}

    # -- queries -------------------------------------------------------

    @property
    def tip_height(self) -> int:
        return self.height[self.tip]

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
        scanned from genesis: the oracle for ``confirmations``."""
        index: Dict[bytes, Tuple[bytes, bytes, int]] = {}
        for bh in self.branch(branch_tip)[1:]:     # after genesis
            for rec in self.blocks[bh].confirmations:
                index[rec.address] = (bh, rec.tip_hash, rec.tip_height)
        return index

    # -- mutation ------------------------------------------------------

    def extend(self, block: MainBlock,
               prior: Optional[Tuple[Optional[tuple], ...]] = None) -> bool:
        """Insert a validated block. ``prior``, when given, is what
        ``validate_block`` returned for it: its records' entries on the
        parent branch, which are its undo record once it is canonical.
        Returns True if the canonical tip changed (possibly a reorg)."""
        parent = block.header.parent_block_hash
        if parent not in self.work:
            raise UnknownParent("parent block unknown")
        bh = block.block_hash
        if bh in self.blocks:
            return False
        goal = target(block.header.difficulty_bits)
        assert int.from_bytes(bh, "big") <= goal
        self.blocks[bh] = block
        self.height[bh] = self.height[parent] + 1
        work = self.work[bh] = self.work[parent] + _work(goal)
        if work <= self.work[self.tip]:
            return False
        self.switch(bh, prior)
        return True

    def switch(self, tip: bytes,
               prior: Optional[Tuple[Optional[tuple], ...]] = None
               ) -> Tuple[List[bytes], List[bytes]]:
        """Make ``tip``'s branch the canonical one: disconnect the
        canonical blocks above its fork point with their undo records,
        then connect its blocks above it. ``prior``, when given, is
        ``tip``'s undo record. Returns the blocks disconnected and those
        connected, each oldest first."""
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
        confirmations = self.confirmations
        for h in reversed(disconnect):
            for address, entry in zip(map(_ADDRESS,
                                          self.blocks[h].confirmations),
                                      self.undo.pop(h)):
                if entry is None:
                    del confirmations[address]
                else:
                    confirmations[address] = entry
        for h in connect:
            records = self.blocks[h].confirmations
            # before h is connected, the index is its parent branch's
            self.undo[h] = prior if h == tip and prior is not None else \
                tuple(map(confirmations.get, map(_ADDRESS, records)))
            confirmations.update(zip(map(_ADDRESS, records), zip(
                repeat(h), map(_TIP_HASH, records),
                map(_TIP_HEIGHT, records))))
            self.canonical.append(h)
        self.tip = tip
        return disconnect, connect

    def rebuild_index(self) -> None:
        """From-scratch canonical scan: the oracle that the incremental
        indexes must equal."""
        self.canonical = self.branch(self.tip)
        self.confirmations = self.confirmations_at(self.tip)


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
            return block.header.miner_address, self.view.params.subsidy
        send = self.send_source(*citation)
        return None if send is None else (send.recipient_address,
                                          send.amount)


def check_header(block: MainBlock, view: ChainView) -> None:
    """The checks of ``validate_block`` that read only the parent's place
    in the view, none in time that grows with the chain: known parent,
    difficulty bits, height, size, header fields at their wire widths and
    ranges, PoW, record order, and root (whose computation refuses
    in-process records off theirs)."""
    header = block.header
    parent = header.parent_block_hash
    # a parent that is not bytes names no block, and may not even hash
    if not isinstance(parent, bytes) or parent not in view.work:
        raise UnknownParent("parent block unknown")
    if header.difficulty_bits != view.params.difficulty_bits:
        raise BadPoW("unexpected difficulty bits")
    if header.height != view.height[parent] + 1:
        raise BadPoW("wrong block height")
    records = block.confirmations
    # the length of block.encode(), without encoding the block
    if BLOCK_OVERHEAD + RECORD_LEN * len(records) > view.params.block_limit:
        raise Oversize("block exceeds %d bytes" % view.params.block_limit)
    # struct pads or cuts a bytes field and refuses an integer off its
    # range or a field of another type (records_fit's tests), so the hash
    # would cover other bytes than the header holds, or fail
    miner, ts, nonce = header.miner_address, header.timestamp, header.nonce
    if not (isinstance(miner, bytes) and len(miner) == ADDR_LEN
            and isinstance(header.confirmations_root, bytes)
            and isinstance(header.height, int)
            and isinstance(header.difficulty_bits, int)
            and isinstance(ts, int) and 0 <= ts < _U64
            and isinstance(nonce, int) and 0 <= nonce < _U64):
        raise MalformedBlock("a header field is off its wire type or range")
    if not meets_target(block.block_hash, header.difficulty_bits):
        raise BadPoW("block hash above target")
    addresses = list(map(_ADDRESS, records))
    if any(map(ge, addresses, addresses[1:])):
        raise UnsortedRecords("records must be strictly increasing")
    if header.confirmations_root != block.records_root:
        raise RootMismatch("confirmations root does not match records")


def validate_block(block: MainBlock, view: ChainView
                   ) -> Tuple[Optional[tuple], ...]:
    """The main chain's checks of one block on the view's tip (a block
    off it is checked after ``view.switch`` to its parent):
    ``check_header``, then that each record advances its address. Whether
    a record's fragment is a valid state transition is for the nodes that
    host the address to check. Returns each record's latest confirmation
    entry on the parent branch, in record order: (block hash, tip hash,
    tip height), or None for an address the branch never confirmed."""
    check_header(block, view)
    if block.header.parent_block_hash != view.tip:
        raise UnknownParent("parent block is not the view's tip")
    records = block.confirmations
    prior = tuple(map(view.confirmations.get, map(_ADDRESS, records)))
    for tip_height, entry in zip(map(_TIP_HEIGHT, records), prior):
        prev_height = entry[2] if entry else 0
        if tip_height <= prev_height:
            raise StaleConfirmation(
                "record does not advance beyond height %d" % prev_height)
    return prior
