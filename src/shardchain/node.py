"""The node role: host shards, keep the full main chain, validate blocks
incrementally for hosted addresses and serve subchain fragments.

A node checks the state transitions only of the shards it hosts;
non-hosted confirmation records get only the main chain's checks
(``mainchain.validate_block``) and are otherwise the hosting nodes' duty.
That asymmetry is the whole storage/compute saving of sharding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import codec, mainchain, subchain
from .codec import ReceiveTx, SendTx, SubchainTx
from .errors import (
    BadLink,
    ConfirmationMismatch,
    ConfirmedFrozen,
    DuplicateHashConflict,
    InvalidSignature,
    NotHosted,
    PartialFetch,
    RangeUnavailable,
    ShardChainError,
    SubchainError,
    TailConflict,
)
from .mainchain import ChainParams, ChainView, Genesis, MainBlock, \
    ViewClaimContext
from .sharding import ShardAssignment, hosts
from .subchain import SubchainFragment, SubchainState


@dataclass(frozen=True, slots=True)
class Inflow:
    """A canonical transfer toward an account; the recipient's
    ``claimed_sends``/``claimed_coinbases`` tell whether it is spent."""
    sender_address: bytes
    sender_tx_hash: bytes
    amount: int
    block_hash: bytes
    block_height: int
    coinbase: bool = False


@dataclass
class StorageReport:
    main_chain_bytes: int = 0
    subchain_bytes: int = 0
    shard_count: int = 0
    tx_count: int = 0

    def as_dict(self) -> dict:
        return {"main_chain_bytes": self.main_chain_bytes,
                "subchain_bytes": self.subchain_bytes,
                "shard_count": self.shard_count,
                "tx_count": self.tx_count}


class NodeStore:
    """In-memory keyspaces; byte accounting uses serialized sizes only."""

    def __init__(self):
        self.confirmed: Dict[bytes, SubchainState] = {}
        self.pending: Dict[bytes, List[SubchainTx]] = {}
        # the state each pending tail reaches from the confirmed state
        self.tail_states: Dict[bytes, SubchainState] = {}
        self.txs: Dict[Tuple[bytes, int], SubchainTx] = {}
        self.send_index: Dict[Tuple[bytes, bytes], SendTx] = {}
        self.inflows: Dict[bytes, Dict[bytes, Inflow]] = {}
        # every hosted fragment any accepted block confirmed, per (block,
        # address), and the validated state it led to: the confirmed state
        # of an address on any branch is the post-state of its latest
        # confirmation there, so no branch is ever replayed
        self.frag_archive: Dict[Tuple[bytes, bytes], tuple] = {}
        self.post_states: Dict[Tuple[bytes, bytes], SubchainState] = {}

    def find_send(self, address: bytes, tx_hash: bytes) -> Optional[SendTx]:
        return self.send_index.get((address, tx_hash))


class Node:
    def __init__(self, node_id: bytes, assignment: ShardAssignment,
                 genesis: Genesis, params: ChainParams,
                 fetch: Optional[Callable[[bytes, int, int],
                                          SubchainFragment]] = None):
        self.node_id = node_id
        self.assignment = assignment
        self.genesis = genesis
        self.params = params
        self.view = ChainView(genesis, params)
        self.store = NodeStore()
        self.fetch = fetch
        self.remote_send_lookup: Optional[Callable] = None

    # -- shard plumbing ------------------------------------------------

    def hosts(self, address: bytes) -> bool:
        return hosts(self.assignment, address)

    def base_state(self, address: bytes) -> SubchainState:
        return subchain.initial_state(address,
                                      self.genesis.balance_of(address))

    def confirmed_state(self, address: bytes) -> SubchainState:
        state = self.store.confirmed.get(address)
        return self.base_state(address) if state is None else state

    def full_state(self, address: bytes) -> SubchainState:
        """Confirmed state extended by the pending tail."""
        state = self.store.tail_states.get(address)
        return self.confirmed_state(address) if state is None else state

    def claim_context(self, branch_tip: Optional[bytes] = None
                      ) -> ViewClaimContext:
        ctx = ViewClaimContext(self.view, branch_tip or self.view.tip,
                               send_source=self._send_source)
        if ctx.side:
            # send_index holds canonical sends only; a side branch also
            # confirms the sends archived for its side blocks
            sends = {(tx.current_address, tx.tx_hash): tx
                     for bh in ctx.side
                     for rec in self.view.blocks[bh].confirmations
                     for tx in self.store.frag_archive.get((bh, rec.address),
                                                           ())
                     if isinstance(tx, SendTx)}
            ctx.send_source = lambda a, h: sends.get((a, h)) \
                or self._send_source(a, h)
        return ctx

    def _send_source(self, address: bytes, tx_hash: bytes):
        send = self.store.find_send(address, tx_hash)
        if send is None and not self.hosts(address) \
                and self.remote_send_lookup is not None:
            send = self.remote_send_lookup(address, tx_hash)
        return send

    # -- pending transactions -----------------------------------------

    def accept_pending_tx(self, tx: SubchainTx) -> bool:
        """Verify and pool a broadcast transaction for a hosted address.

        Returns True when pooled, and False for an exact duplicate of the
        tx this node holds at that height (confirmed or pending), which
        changes nothing; raises on rejection. A tx for an address outside
        the prefix is refused before any signature check and leaves
        nothing behind.
        """
        address = tx.current_address
        try:
            if not self.hosts(address):
                raise NotHosted("address outside this node's prefix")
            held = self._local_fragment(address, tx.height - 1, tx.height)
        except TypeError:       # a field of the wrong type, as verify_tx
            raise InvalidSignature("transaction failed local "
                                   "verification") from None
        if held is not None and held.txs[0].tx_hash == tx.tx_hash:
            if held.txs[0] == tx:       # every field, the signature too
                return False
            raise DuplicateHashConflict(
                "different transaction with the same hash")
        if not codec.verify_tx(tx):
            raise InvalidSignature("transaction failed local verification")
        state = self.full_state(address)
        if tx.height == state.tip_height + 1:
            self.store.tail_states[address] = subchain.apply_tx(
                state, tx, self.claim_context())
            self.store.pending.setdefault(address, []).append(tx)
        elif tx.height <= state.tip_height:
            # single-transaction fork: new tip would not be higher
            if tx.height <= self.confirmed_state(address).tip_height:
                raise ConfirmedFrozen("fork below the confirmed height")
            raise TailConflict("replacement tail does not win")
        else:
            raise BadLink("gap above the current tip", height=tx.height)
        return True

    def block_order(self) -> List[bytes]:
        """The addresses with a pending tail in the order a block confirms
        them: longest tail first, ties in the order the tails entered
        ``pending``."""
        pending = self.store.pending
        return sorted(pending, key=lambda a: -len(pending[a]))  # stable

    # -- block ingest --------------------------------------------------

    def ingest_block(self, block: MainBlock) -> Dict[bytes, tuple]:
        """Validate and apply one main block; idempotent.

        Returns the per-address (old_state, new_state, txs) deltas for
        hosted shards (empty on duplicate ingest).
        """
        bh = block.block_hash
        if bh in self.view.blocks:
            return {}
        index = mainchain.validate_block(block, self.view)
        parent = block.header.parent_block_hash
        ctx = self.claim_context(parent)
        pending = self.store.pending if parent == self.view.tip else {}
        deltas = {}
        for rec in block.confirmations:
            address = rec.address
            entry = index.get(address)
            lo = entry[2] if entry else 0
            # a record on the tip that confirms a whole pending tail takes
            # the tail's kept state: its replay under the tip's claim
            # context, which is this block's. Only hosted addresses have
            # tails; any other hosted record is replayed.
            tail = pending.get(address)
            pooled = tail and tail[0].height == lo + 1 \
                and tail[-1].tx_hash == rec.tip_hash \
                and tail[-1].height == rec.tip_height
            if not pooled and not self.hosts(address):
                continue
            old_state = self._state_after(entry, address)
            if pooled:
                new_state, txs = self.store.tail_states[address], tuple(tail)
            else:
                frag = self._shard_oracle(address, lo, rec.tip_height,
                                          rec.tip_hash)
                try:
                    new_state = subchain.verify_fragment(old_state, frag, ctx)
                except SubchainError as err:
                    err.address = address
                    raise
                if new_state.tip_hash != rec.tip_hash \
                        or new_state.tip_height != rec.tip_height:
                    raise ConfirmationMismatch(
                        "fragment tip does not match the record")
                txs = frag.txs
            deltas[address] = (old_state, new_state, txs)
        for address, (_, new_state, txs) in deltas.items():
            key = (bh, address)
            self.store.frag_archive[key] = txs
            self.store.post_states[key] = new_state
        disconnect = self.view.canonical[ctx.fork_height + 1:]
        if not self.view.extend(block):
            return deltas
        if disconnect:
            self._reorg(disconnect, ctx.side + [bh])
        else:
            self._connect(bh)
        return deltas

    def _state_after(self, entry: Optional[tuple],
                     address: bytes) -> SubchainState:
        """Confirmed state of a hosted address given its latest
        confirmation entry on some branch (None if it has none there)."""
        if entry is None:
            return self.base_state(address)
        return self.store.post_states[(entry[0], address)]

    def _shard_oracle(self, address: bytes, lo: int, hi: int,
                      tip_hash: bytes) -> SubchainFragment:
        """Fragment (lo, hi] ending at ``tip_hash``: the local one (the
        canonical txs, then the pending tail) when it ends there or no
        remote source exists, else remote; a side block may confirm
        another version of the chain than the local one."""
        local = self._local_fragment(address, lo, hi)
        if local is not None and (local.txs[-1].tx_hash == tip_hash
                                  or self.fetch is None):
            return local
        if self.fetch is None:
            raise PartialFetch("no local data and no fetch source for "
                               "heights (%d, %d]" % (lo, hi))
        frag = self.fetch(address, lo, hi)
        if frag is None:
            raise PartialFetch("remote fragment unavailable")
        return frag

    def _local_fragment(self, address, lo, hi):
        tail = self.store.pending.get(address, ())
        # a tail is contiguous, so height h sits at h - tail[0].height
        first = tail[0].height if tail else 0
        txs = []
        for h in range(lo + 1, hi + 1):
            tx = self.store.txs.get((address, h))
            if tx is None:
                if not 0 <= h - first < len(tail):
                    return None
                tx = tail[h - first]
            txs.append(tx)
        return SubchainFragment(address=address, from_height=lo,
                                txs=tuple(txs))

    def _connect(self, block_hash: bytes) -> None:
        """Apply a block's archived hosted deltas to the canonical
        keyspaces and index the inflows it makes."""
        block = self.view.blocks[block_hash]
        for rec in block.confirmations:
            address = rec.address
            key = (block_hash, address)
            new_state = self.store.post_states.get(key)
            if new_state is None:
                continue        # not hosted
            self.store.confirmed[address] = new_state
            for tx in self.store.frag_archive[key]:
                self.store.txs[(address, tx.height)] = tx
                if isinstance(tx, SendTx):
                    self.store.send_index[(address, tx.tx_hash)] = tx
            self._trim_pending(address, new_state)
        for address, key, flow in self._inflows(block_hash):
            self.store.inflows.setdefault(address, {})[key] = flow

    def _disconnect(self, block_hash: bytes) -> Dict[bytes, tuple]:
        """Remove the keys ``_connect`` added for a formerly canonical
        block; returns the txs it had confirmed, per address. The caller
        resets the confirmed states from the new canonical index."""
        orphaned = {}
        for rec in self.view.blocks[block_hash].confirmations:
            txs = self.store.frag_archive.get((block_hash, rec.address))
            if txs is None:
                continue        # not hosted
            orphaned[rec.address] = txs
            for tx in txs:
                del self.store.txs[(rec.address, tx.height)]
                if isinstance(tx, SendTx):
                    del self.store.send_index[(rec.address, tx.tx_hash)]
        for address, key, _ in self._inflows(block_hash):
            pool = self.store.inflows[address]
            del pool[key]
            if not pool:
                del self.store.inflows[address]
        return orphaned

    def _inflows(self, bh: bytes):
        """The inflows a canonical block makes, as (recipient, key,
        inflow): each archived send to a hosted recipient, keyed by send
        hash, and a hosted miner's coinbase, keyed by block hash."""
        block = self.view.blocks[bh]
        height = block.header.height
        for rec in block.confirmations:
            for tx in self.store.frag_archive.get((bh, rec.address), ()):
                if isinstance(tx, SendTx) \
                        and self.hosts(tx.recipient_address):
                    yield tx.recipient_address, tx.tx_hash, Inflow(
                        sender_address=rec.address, sender_tx_hash=tx.tx_hash,
                        amount=tx.amount, block_hash=bh, block_height=height)
        miner = block.header.miner_address
        if self.hosts(miner):
            yield miner, bh, Inflow(
                sender_address=codec.NULL_ADDRESS,
                sender_tx_hash=codec.NULL_HASH, amount=self.params.subsidy,
                block_hash=bh, block_height=height, coinbase=True)

    def _reorg(self, disconnect: List[bytes], connect: List[bytes]) -> None:
        """Switch the hosted keyspaces from the old canonical blocks
        ``disconnect`` to the new ones ``connect`` (both oldest first;
        the view has switched already), then re-admit tails only for the
        addresses this can change: the ones either side confirmed, and
        the ones whose pending tail claims from a disconnected block.
        Each tail is the orphaned formerly confirmed txs, then the old
        pending txs, stopping at the first that no longer applies."""
        orphaned: Dict[bytes, List[SubchainTx]] = {}
        for undone in reversed([self._disconnect(h)
                                for h in reversed(disconnect)]):
            for address, txs in undone.items():
                orphaned.setdefault(address, []).extend(txs)
        touched = set(orphaned)
        for h in connect:
            touched.update(rec.address
                           for rec in self.view.blocks[h].confirmations
                           if (h, rec.address) in self.store.post_states)
        gone = set(disconnect)
        touched.update(address for address, tail in self.store.pending.items()
                       if any(isinstance(tx, ReceiveTx)
                              and tx.main_block_hash in gone for tx in tail))
        tails = {address: self._pop_tail(address) for address in touched}
        for address in orphaned:
            entry = self.view.confirmations.get(address)
            if entry is None:
                del self.store.confirmed[address]
            else:
                self.store.confirmed[address] = \
                    self._state_after(entry, address)
        for h in connect:
            self._connect(h)
        ctx = self.claim_context()
        for address in sorted(touched):
            state = self.confirmed_state(address)
            tail = []
            for tx in orphaned.get(address, []) + tails[address]:
                if tx.height != state.tip_height + 1 \
                        or tx.parent_hash != state.tip_hash:
                    continue
                try:
                    state = subchain.apply_tx(state, tx, ctx)
                except ShardChainError:
                    break
                tail.append(tx)
            if tail:
                self.store.pending[address] = tail
                self.store.tail_states[address] = state

    def _trim_pending(self, address: bytes,
                      confirmed: SubchainState) -> None:
        tail = self.store.pending.get(address)
        if not tail:
            return
        kept = [t for t in tail if t.height > confirmed.tip_height]
        if kept and kept[0].parent_hash == confirmed.tip_hash \
                and kept[0].height == confirmed.tip_height + 1:
            # the hash chain fixes the kept suffix's state: it stays
            self.store.pending[address] = kept
        else:
            self._pop_tail(address)     # all confirmed, or no longer links

    def _pop_tail(self, address: bytes) -> List[SubchainTx]:
        self.store.tail_states.pop(address, None)
        return self.store.pending.pop(address, [])

    # -- serving -------------------------------------------------------

    def serve_fragment(self, address: bytes, from_height: int,
                       to_height: int) -> SubchainFragment:
        if not self.hosts(address):
            raise NotHosted("address outside this node's prefix")
        tip = self.confirmed_state(address).tip_height \
            + len(self.store.pending.get(address, []))
        if to_height > tip or from_height < 0 or from_height > to_height:
            raise RangeUnavailable("have tip %d, asked (%d, %d]"
                                   % (tip, from_height, to_height))
        frag = self._local_fragment(address, from_height, to_height)
        if frag is None:
            raise RangeUnavailable("range not contiguous locally")
        return frag

    def storage_report(self) -> StorageReport:
        # a block's encoding is its overhead plus fixed-width records
        main_bytes = len(self.genesis.encode()) + sum(
            mainchain.BLOCK_OVERHEAD
            + mainchain.RECORD_LEN * len(b.confirmations)
            for b in self.view.blocks.values())
        # every stored tx passed verify_tx, so its fields have the sizes
        # the fixed wire widths assume
        wire_len = {SendTx: codec.SEND_WIRE_LEN,
                    ReceiveTx: codec.RECV_WIRE_LEN}
        sub_bytes = 0
        shards = set()
        count = 0
        for (address, _), tx in self.store.txs.items():
            sub_bytes += wire_len[type(tx)]
            shards.add(address)
            count += 1
        for address, tail in self.store.pending.items():
            for tx in tail:
                sub_bytes += wire_len[type(tx)]
                count += 1
            shards.add(address)
        return StorageReport(main_chain_bytes=main_bytes,
                             subchain_bytes=sub_bytes,
                             shard_count=len(shards), tx_count=count)
