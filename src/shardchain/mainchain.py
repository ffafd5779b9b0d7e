"""Main chain: PoW-sealed blocks carrying subchain confirmation records.

Blocks never carry transactions. Each record binds an address to its
latest subchain tip; fork choice is heaviest cumulative work with
first-seen tie-break.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import ChainMap
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, \
    Tuple

from . import codec, subchain
from .codec import sha256, sha256d
from .errors import (
    BadPoW,
    MalformedBits,
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

DEFAULT_SUBSIDY = 50 * 10**8
EASY_BITS = 0x207FFFFF   # top byte 0x7f: ~1/2 success per attempt


def capacity(block_limit: int) -> int:
    """Max confirmation records per block for a given byte limit."""
    return (block_limit - BLOCK_OVERHEAD) // RECORD_LEN


@dataclass(frozen=True)
class ChainParams:
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


def decode_record(data: bytes) -> ConfirmationRecord:
    if len(data) != RECORD_LEN:
        raise codec.DecodeError("record must be %d bytes, got %d"
                                % (RECORD_LEN, len(data)))
    return ConfirmationRecord._make(_RECORD.unpack(data))


@dataclass(frozen=True)
class BlockHeader:
    parent_block_hash: bytes
    height: int
    timestamp: int
    miner_address: bytes
    confirmations_root: bytes
    difficulty_bits: int
    nonce: int = 0

    def encode(self) -> bytes:
        return _HEADER.pack(self.parent_block_hash, self.height,
                            self.timestamp, self.miner_address,
                            self.confirmations_root, self.difficulty_bits,
                            self.nonce)

    @cached_property
    def block_hash(self) -> bytes:
        # cached: the header is immutable, and ingest reads the hash of
        # each block several times
        return sha256d(self.encode())


def confirmations_root(records) -> bytes:
    return sha256(b"".join(r.encode() for r in records))


@dataclass(frozen=True)
class MainBlock:
    header: BlockHeader
    confirmations: tuple = ()

    @property
    def block_hash(self) -> bytes:
        return self.header.block_hash

    def encode(self) -> bytes:
        parts = [self.header.encode(),
                 struct.pack(">I", len(self.confirmations))]
        parts.extend(r.encode() for r in self.confirmations)
        return b"".join(parts)


def decode_block(data: bytes) -> MainBlock:
    if len(data) < BLOCK_OVERHEAD:
        raise codec.DecodeError("block shorter than %d bytes"
                                % BLOCK_OVERHEAD)
    header = BlockHeader(*_HEADER.unpack_from(data, 0))
    (count,) = struct.unpack_from(">I", data, HEADER_LEN)
    if len(data) != BLOCK_OVERHEAD + count * RECORD_LEN:
        raise codec.DecodeError("block of %d records must be %d bytes, "
                                "got %d" % (count, BLOCK_OVERHEAD
                                            + count * RECORD_LEN, len(data)))
    records = tuple(map(ConfirmationRecord._make,
                        _RECORD.iter_unpack(data[BLOCK_OVERHEAD:])))
    return MainBlock(header=header, confirmations=records)


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


def block_work(difficulty_bits: int) -> int:
    return (1 << 256) // (target(difficulty_bits) + 1)


def meets_target(block_hash: bytes, difficulty_bits: int) -> bool:
    return int.from_bytes(block_hash, "big") <= target(difficulty_bits)


def seal(block: MainBlock) -> MainBlock:
    """Iterate the nonce (then the timestamp) until the hash meets target."""
    goal = target(block.header.difficulty_bits)
    header = block.header
    while True:
        base = header.encode()[:-8]
        nonce = header.nonce
        while True:
            h = sha256d(base + struct.pack(">Q", nonce))
            if int.from_bytes(h, "big") <= goal:
                sealed = BlockHeader(
                    header.parent_block_hash, header.height,
                    header.timestamp, header.miner_address,
                    header.confirmations_root, header.difficulty_bits,
                    nonce)
                return MainBlock(sealed, block.confirmations)
            nonce = (nonce + 1) & 0xFFFFFFFFFFFFFFFF
            if nonce == header.nonce:   # nonce space exhausted
                break
        header = BlockHeader(header.parent_block_hash, header.height,
                             header.timestamp + 1, header.miner_address,
                             header.confirmations_root,
                             header.difficulty_bits, 0)


def new_block(parent: bytes, height: int, timestamp: int,
              miner_address: bytes, records, difficulty_bits: int
              ) -> MainBlock:
    """The sealed block on ``parent`` confirming ``records``, which it
    sorts by address."""
    records = tuple(sorted(records, key=attrgetter("address")))
    header = BlockHeader(parent, height, timestamp, miner_address,
                         confirmations_root(records), difficulty_bits, 0)
    return seal(MainBlock(header, records))


@dataclass(frozen=True)
class Genesis:
    """Height-0 anchor: allocations are pre-confirmed subchain balances."""
    timestamp: int = 0
    allocations: tuple = ()   # sorted tuple of (address, balance)

    def encode(self) -> bytes:
        parts = [struct.pack(">QI", self.timestamp, len(self.allocations))]
        for address, balance in self.allocations:
            parts.append(struct.pack(">20sQ", address, balance))
        return b"".join(parts)

    @cached_property
    def block_hash(self) -> bytes:
        # cached: the view walks parent links against this hash constantly
        return sha256d(self.encode())

    @cached_property
    def _alloc_map(self) -> Dict[bytes, int]:
        return dict(self.allocations)

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

    def fork_path(self, branch_tip: bytes) -> List[bytes]:
        """The blocks of ``branch_tip``'s branch above its last canonical
        ancestor (the fork point), oldest first; empty when ``branch_tip``
        is canonical."""
        path = []
        h = branch_tip
        while not self.is_canonical(h):
            path.append(h)
            h = self.blocks[h].header.parent_block_hash
        path.reverse()
        return path

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
        scanned from genesis: the oracle for ``branch_confirmations``."""
        index: Dict[bytes, Tuple[bytes, bytes, int]] = {}
        for bh in self.branch(branch_tip):
            if bh == self.genesis.block_hash:
                continue
            for rec in self.blocks[bh].confirmations:
                index[rec.address] = (bh, rec.tip_hash, rec.tip_height)
        return index

    def branch_confirmations(self, branch_tip: bytes
                             ) -> Mapping[bytes, Optional[tuple]]:
        """Latest confirmation per address along ``branch_tip``'s branch,
        None for an address the branch never confirmed. The canonical
        index itself at the tip; elsewhere the index rolled back to the
        fork point and overlaid with the side blocks."""
        if branch_tip == self.tip:
            return self.confirmations
        side = self.fork_path(branch_tip)
        fork_height = self.height[branch_tip] - len(side)
        overlay: Dict[bytes, Optional[tuple]] = {}
        for bh in reversed(self.canonical[fork_height + 1:]):
            overlay.update(zip((r.address for r in
                                self.blocks[bh].confirmations),
                               self.undo[bh]))
        for bh in side:
            for rec in self.blocks[bh].confirmations:
                overlay[rec.address] = (bh, rec.tip_hash, rec.tip_height)
        return ChainMap(overlay, self.confirmations)

    # -- mutation ------------------------------------------------------

    def extend(self, block: MainBlock) -> bool:
        """Insert a validated block. Returns True if the canonical tip
        changed (possibly a reorg)."""
        parent = block.header.parent_block_hash
        if parent not in self.work:
            raise UnknownParent("parent block unknown")
        bh = block.block_hash
        if bh in self.blocks:
            return False
        assert meets_target(bh, block.header.difficulty_bits)
        self.blocks[bh] = block
        self.height[bh] = self.height[parent] + 1
        self.work[bh] = self.work[parent] \
            + block_work(block.header.difficulty_bits)
        if self.work[bh] <= self.work[self.tip]:
            return False
        connect = self.fork_path(bh)
        fork_height = self.height[bh] - len(connect)
        while len(self.canonical) > fork_height + 1:
            h = self.canonical.pop()
            for rec, entry in zip(self.blocks[h].confirmations,
                                  self.undo.pop(h)):
                if entry is None:
                    del self.confirmations[rec.address]
                else:
                    self.confirmations[rec.address] = entry
        for h in connect:
            records = self.blocks[h].confirmations
            self.undo[h] = tuple(self.confirmations.get(r.address)
                                 for r in records)
            for rec in records:
                self.confirmations[rec.address] = (h, rec.tip_hash,
                                                   rec.tip_height)
            self.canonical.append(h)
        self.tip = bh
        return True

    def rebuild_index(self) -> None:
        """From-scratch canonical scan: the oracle that the incremental
        indexes must equal."""
        self.canonical = self.branch(self.tip)
        self.confirmations = self.confirmations_at(self.tip)


class ViewClaimContext(subchain.ClaimContext):
    """ClaimContext bound to one branch of a ChainView.

    ``send_source`` maps (sender_address, sender_tx_hash) -> SendTx for
    confirmed transactions, typically a node store lookup or fragment
    fetch. A block is on the branch when it is canonical at or below the
    fork point or one of the side blocks above it, so the answers hold
    until the view's canonical chain next changes.
    """

    def __init__(self, view: ChainView, branch_tip: bytes,
                 send_source: Callable[[bytes, bytes],
                                       Optional[codec.SendTx]]):
        self.view = view
        self.branch_tip = branch_tip
        self.branch_height = view.height[branch_tip]
        self.send_source = send_source
        self.maturity = view.params.maturity
        self.side = view.fork_path(branch_tip)
        self.fork_height = self.branch_height - len(self.side)
        self._side_set = set(self.side)

    def _mature(self, block_hash: bytes) -> bool:
        height = self.view.height.get(block_hash)
        on_branch = block_hash in self._side_set or (
            self.view.is_canonical(block_hash)
            and height <= self.fork_height)
        return on_branch and self.branch_height - height + 1 >= self.maturity

    def lookup_send(self, sender_address, sender_tx_hash, main_block_hash):
        if not self._mature(main_block_hash):
            return None
        block = self.view.blocks.get(main_block_hash)
        if block is None:
            return None
        # validate_block admits only strictly increasing addresses
        records = block.confirmations
        i = bisect_left(records, sender_address, key=attrgetter("address"))
        if i == len(records) or records[i].address != sender_address:
            return None
        rec = records[i]
        send = self.send_source(sender_address, sender_tx_hash)
        if send is None or not isinstance(send, codec.SendTx):
            return None
        if send.tx_hash != sender_tx_hash:
            return None
        if send.height > rec.tip_height:
            return None
        return send

    def lookup_coinbase(self, main_block_hash):
        if not self._mature(main_block_hash):
            return None
        if main_block_hash == self.view.genesis.block_hash:
            return None
        return (self.view.blocks[main_block_hash].header.miner_address,
                self.view.params.subsidy)


def validate_block(block: MainBlock, view: ChainView
                   ) -> Mapping[bytes, Optional[tuple]]:
    """The main chain's checks of one block against its parent branch:
    known parent, PoW, difficulty bits, height, size, record order, root,
    and that each record advances its address. Whether a record's fragment
    is a valid state transition is for the nodes that host the address to
    check. Returns the parent branch's confirmation index.
    """
    parent = block.header.parent_block_hash
    if parent not in view.work:
        raise UnknownParent("parent block unknown")
    if not meets_target(block.block_hash, block.header.difficulty_bits):
        raise BadPoW("block hash above target")
    if block.header.difficulty_bits != view.params.difficulty_bits:
        raise BadPoW("unexpected difficulty bits")
    if block.header.height != view.height[parent] + 1:
        raise BadPoW("wrong block height")
    records = block.confirmations
    # the length of block.encode(), without encoding the block
    if BLOCK_OVERHEAD + RECORD_LEN * len(records) > view.params.block_limit:
        raise Oversize("block exceeds %d bytes" % view.params.block_limit)
    addresses = [r.address for r in records]
    if any(a >= b for a, b in zip(addresses, addresses[1:])):
        raise UnsortedRecords("records must be strictly increasing")
    if block.header.confirmations_root != confirmations_root(records):
        raise RootMismatch("confirmations root does not match records")

    index = view.branch_confirmations(parent)
    for rec in records:
        entry = index.get(rec.address)
        prev_height = entry[2] if entry else 0
        if rec.tip_height <= prev_height:
            raise StaleConfirmation(
                "record does not advance beyond height %d" % prev_height)
    return index
