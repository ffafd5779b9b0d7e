"""The node role: host shards, keep the full main chain, validate blocks
incrementally for hosted addresses and serve subchain fragments.

A node checks the state transitions only of the shards it hosts;
non-hosted confirmation records get only the main chain's checks
(``mainchain.validate_block``) and are otherwise the hosting nodes' duty.
That asymmetry is the whole storage/compute saving of sharding.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import codec, mainchain, subchain
from .codec import NULL_ADDRESS, NULL_HASH, MsgKind, SendTx, SubchainTx
from .errors import (
    ConfirmationMismatch,
    ConfirmedFrozen,
    DecodeError,
    DuplicateHashConflict,
    FragmentMisaligned,
    InvalidSignature,
    NotHosted,
    PartialFetch,
    RangeUnavailable,
    ShardChainError,
    TailConflict,
)
from .mainchain import SUBSIDY, ChainParams, ChainView, Genesis, \
    MainBlock, ViewClaimContext
from .sharding import ShardAssignment, hosted_slice, hosts
from .subchain import COINBASE, SubchainFragment, SubchainState

_new = tuple.__new__


class Inflow(NamedTuple):
    """A canonical send or coinbase toward an account, as ``Node.inflows``
    indexes it. Its first three fields are what a claim of it cites; it is
    spent when its index key, ``subchain.inflow_key(flow[:3])``, is in the
    recipient's ``claimed`` set."""
    sender_address: bytes
    sender_tx_hash: bytes
    block_hash: bytes
    amount: int
    block_height: int


class StorageReport(NamedTuple):
    main_chain_bytes: int
    subchain_bytes: int
    shard_count: int
    tx_count: int


class NodeStore:
    """In-memory keyspaces; byte accounting uses serialized sizes only.

    ``chains[a]`` is every tx the node holds of hosted address ``a``,
    height h at index h - 1: the canonical txs up to ``confirmed[a]``'s
    tip height, then the pending tail. ``tail_states[a]`` is the state
    that tail reaches, in pooling order: ``a`` has a tail exactly when it
    has an entry there. ``inflows`` indexes the canonical blocks up to
    the first of ``unindexed``, the blocks connected since the index was
    last read, in connect order: read it through ``Node.inflows``."""

    def __init__(self):
        self.confirmed: Dict[bytes, SubchainState] = {}
        self.tail_states: Dict[bytes, SubchainState] = {}
        self.chains: Dict[bytes, List[SubchainTx]] = {}
        self.inflows: Dict[bytes, Dict[bytes, Inflow]] = {}
        self.unindexed: List[bytes] = []
        # every accepted block, main or side, mapped to the hosted
        # addresses it confirmed, in record order, each with its fragment
        # txs and the validated state they led to: the confirmed state of
        # an address on any branch is the post-state of its latest
        # confirmation there, so no branch is ever replayed
        self.archive: Dict[bytes, Dict[bytes,
                                       Tuple[tuple, SubchainState]]] = {}
        # the one object of each address and cited block hash the node
        # has decoded in a tx, which the decoders give every tx field of
        # that value (the null address is a coinbase inflow's)
        self.interned: Dict[bytes, bytes] = {NULL_ADDRESS: NULL_ADDRESS}

    @property
    def txs(self) -> Mapping:
        """The canonical txs by ``(address, height)``: a read-only view
        over each list up to its confirmed height."""
        return _TxView(self.chains, self.confirmed)

    def find_send(self, address: bytes, tx_hash: bytes,
                  block_hash: bytes) -> Optional[SendTx]:
        """The send ``tx_hash`` in the fragment of ``address`` that block
        ``block_hash`` confirmed, else None."""
        txs, _ = self.archive.get(block_hash, {}).get(address, ((), None))
        return next((tx for tx in txs if tx.tx_hash == tx_hash
                     and isinstance(tx, SendTx)), None)


class _TxView(Mapping):
    def __init__(self, chains, confirmed):
        self._chains = chains
        self._confirmed = confirmed

    def __getitem__(self, key):
        state = self._confirmed.get(key[0])
        if state is None or not 0 < key[1] <= state.tip_height:
            raise KeyError(key)
        return self._chains[key[0]][key[1] - 1]

    def __iter__(self):
        return ((a, h) for a, state in self._confirmed.items()
                for h in range(1, state.tip_height + 1))

    def __len__(self):
        return sum(state.tip_height for state in self._confirmed.values())


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

    def claim_context(self) -> ViewClaimContext:
        """The claim context of the view's tip."""
        return ViewClaimContext(self.view, self.view.tip,
                                send_source=self._send_source)

    def _send_source(self, address: bytes, tx_hash: bytes,
                     block_hash: bytes) -> Optional[SendTx]:
        send = self.store.find_send(address, tx_hash, block_hash)
        if send is None and not self.hosts(address) \
                and self.remote_send_lookup is not None:
            send = self.remote_send_lookup(address, tx_hash, block_hash)
        return send

    # -- messages ------------------------------------------------------

    def apply_request(self, kind: int, payload: bytes,
                      journal: Callable[[int, bytes], None]
                      = lambda kind, payload: None) -> None:
        """The one handler of a NewTx or NewBlock payload, in the sim, on a
        live node and for its journal, which ``journal`` extends by the
        record of each change. A NewTx fragment is pooled whole or not at
        all, and one whose header does not name its txs' address and
        first height is refused. A known NewBlock changes nothing, any
        other is ingested. A NewTx that changes nothing, refused or not,
        leaves no value in ``NodeStore.interned``."""
        if kind == MsgKind.NewBlock:
            if self.ingest_block(mainchain.decode_block(payload)) is None:
                return
        elif kind == MsgKind.NewTx:
            store = self.store
            table = store.interned
            kept = len(table)
            try:
                # a first tx that extends the tip the held txs reach holds
                # that tip's object as its parent
                address = subchain.fragment_address(payload)
                held = store.tail_states.get(address) \
                    or store.confirmed.get(address)
                address, from_height, txs = subchain.decode_fragment(
                    payload, table, held.tip_hash if held else NULL_HASH)
                # the header scopes the payload (routing, the journal), so
                # it must name the txs it carries before any is pooled
                if txs and (txs[0].height != from_height + 1 or any(
                        tx.current_address != address for tx in txs)):
                    raise FragmentMisaligned("fragment header does not "
                                             "name its transactions")
                if not txs or not self.accept_pending_tx(*txs):
                    return
                kept = len(table)
            finally:
                # the values the decode added are the table's last ones
                while len(table) > kept:
                    table.popitem()
        else:
            raise DecodeError("unknown request kind %d" % kind)
        journal(kind, payload)

    # -- pending transactions -----------------------------------------

    def accept_pending_tx(self, *txs: SubchainTx) -> bool:
        """Verify and pool one account's consecutive broadcast txs for a
        hosted address, all or none of them.

        Leading txs that this node holds at their heights (confirmed or
        pending) are skipped: an exact copy, or an unsigned copy of a held
        signed tx. A signed copy that verifies of a held unsigned tx
        replaces it, so that the held chain can serve a fragment ending
        there. Returns False when every tx is skipped and none replaces
        one, which changes nothing, and True otherwise. The rest must pass
        ``codec.verify_txs`` before any state changes, so a batch whose
        last tx alone is signed pools whole; any refusal raises and
        changes nothing. Txs for an address outside the prefix are refused
        before any signature check and leave nothing behind.
        """
        address = txs[0].current_address
        upgrades = []
        try:
            if not self.hosts(address):
                raise NotHosted("address outside this node's prefix")
            chain = self.store.chains.get(address, ())
            skip = 0
            for tx in txs:
                # a tx's height is its field 1, its hash the third from last
                i = operator.index(tx[1]) - 1
                if not 0 <= i < len(chain):
                    break
                held = chain[i]
                if held[-3] != tx[-3]:
                    break
                # key and signature aside, the same tx; an unsigned one
                # cannot verify, so it replaces nothing
                same = held[:-2] == tx[:-2]
                unsigned = codec.unsigned(tx)
                if same and not unsigned and codec.unsigned(held) \
                        and codec.verify_tx(tx):
                    upgrades.append((i, tx))
                elif held != tx and not (same and unsigned):
                    raise DuplicateHashConflict(
                        "different transaction with the same hash")
                skip += 1
        except TypeError:       # a field of the wrong type, as verify_tx
            raise InvalidSignature("transaction failed local "
                                   "verification") from None
        txs = txs[skip:]
        if txs:
            self._pool(address, txs)
        elif not upgrades:
            return False
        for i, tx in upgrades:
            chain[i] = tx
        return True

    def _pool(self, address: bytes, txs: Tuple[SubchainTx, ...]) -> None:
        # verify all, then fold all onto the tail's state: nothing changes
        # on a refusal
        if not codec.verify_txs(txs):
            raise InvalidSignature("transaction failed local verification")
        state = self.full_state(address)
        ctx = self.claim_context()
        # a fork: the new tip would not be higher
        if txs[0].height <= state.tip_height:
            if txs[0].height <= self.confirmed_state(address).tip_height:
                raise ConfirmedFrozen("fork below the confirmed height")
            raise TailConflict("replacement tail does not win")
        self.store.tail_states[address] = subchain.replay(
            txs, ctx, initial=state, verify=None)
        self.store.chains.setdefault(address, []).extend(txs)

    def pending_records(self) -> List[mainchain.ConfirmationRecord]:
        """The record that confirms each pending tail, in block order."""
        tails = self.store.tail_states
        return [_new(mainchain.ConfirmationRecord, (
            a, tails[a].tip_hash, tails[a].tip_height))
            for a in self.block_order()]

    def block_order(self) -> List[bytes]:
        """The addresses with a pending tail in the order a block confirms
        them: longest tail (its state's tip height above the confirmed
        one) first, ties in the order the tails entered ``tail_states``."""
        tails = self.store.tail_states
        return sorted(tails, key=lambda a: self.confirmed_state(
            a).tip_height - tails[a].tip_height)    # stable

    # -- block ingest --------------------------------------------------

    def ingest_block(self, block: MainBlock
                     ) -> Optional[Dict[bytes, Tuple[tuple, SubchainState]]]:
        """Validate and apply one main block; idempotent.

        Returns the archive entry it stores for the block: each hosted
        address the block confirms, in record order, mapped to its
        fragment's txs and the state they lead to. None for a block the
        view already holds.
        """
        bh = block.block_hash
        view = self.view
        if bh in view.blocks:
            return None
        tip, top = view.tip, view.tip_height
        wins = False
        try:
            # the block's addresses and tip heights, each record's tip
            # height on the parent branch, which its fragment starts from
            # here, and the blocks the view's switch to a parent off the
            # tip moved by
            addresses, heights, prior, (disconnect, connect) = \
                mainchain.validate_block(block, view)
            ctx = None
            tails = self.store.tail_states if view.tip == tip else {}
            chains = self.store.chains
            entry = {}
            span = hosted_slice(self.assignment, addresses)
            for (address, tip_hash, tip_height), lo in zip(
                    mainchain.rows(block, span), prior[span]):
                # a record on the tip that confirms a whole pending tail
                # takes the tail's kept state: its replay under the tip's
                # claim context, which is this block's. Any other record
                # is replayed from the state of its address's last
                # confirmation, under the claim context built for the
                # first such record. Each entry is keyed by its first tx's
                # address (field 2), the node's own object, not the row's.
                state = tails.get(address)
                if state and state.tip_hash == tip_hash \
                        and state.tip_height == tip_height:
                    txs = tuple(chains[address][lo:])
                    entry[txs[0][2]] = (txs, state)
                    continue
                if ctx is None:
                    ctx = self.claim_context()
                frag = self._shard_oracle(address, lo, tip_height, tip_hash)
                new_state = subchain.verify_fragment(
                    self._state_after(view.confirmed_by.get(address),
                                      address), frag, ctx)
                if new_state.tip_hash != tip_hash \
                        or new_state.tip_height != tip_height:
                    raise ConfirmationMismatch(
                        "fragment tip does not match the record")
                entry[frag.txs[0].current_address] = (frag.txs, new_state)
            # a block on a parent as high as the old tip wins, and connects
            # there; the view goes back for any other, or a refused one
            wins = view.tip_height >= top
        finally:
            if not wins and view.tip != tip:
                view.switch(tip)
        self.store.archive[bh] = entry
        view.extend(block, (addresses, heights, prior))
        if wins:    # to the parent, then the block
            self._follow(disconnect, [*connect, bh])
        return entry

    def _state_after(self, block_hash: Optional[bytes],
                     address: bytes) -> SubchainState:
        """Confirmed state of a hosted address given the block of its
        latest confirmation on some branch (None if it has none there)."""
        if block_hash is None:
            return self.base_state(address)
        return self.store.archive[block_hash][address][1]

    def _shard_oracle(self, address: bytes, lo: int, hi: int,
                      tip_hash: bytes) -> SubchainFragment:
        """Fragment (lo, hi] ending at ``tip_hash``: the local one (the
        canonical txs, then the pending tail) when it ends there at a
        signed tx or no remote source exists, else remote. A side block
        may confirm another version of the chain than the local one, and
        a local fragment that ends at an unsigned tx does not verify: the
        record names a signed copy of it."""
        local = self._local_fragment(address, lo, hi)
        if local is not None and (self.fetch is None or (
                local.txs[-1].tx_hash == tip_hash
                and not codec.unsigned(local.txs[-1]))):
            return local
        if self.fetch is None:
            raise PartialFetch("no local data and no fetch source for "
                               "heights (%d, %d]" % (lo, hi))
        frag = self.fetch(address, lo, hi)
        if frag is None:
            raise PartialFetch("remote fragment unavailable")
        return frag

    def _local_fragment(self, address, lo, hi):
        # the held txs at heights (lo, hi], else None, in no time in
        # proportion to ``hi`` (from a block's record)
        txs = tuple(self.store.chains.get(address, ())[lo:hi])
        if len(txs) != hi - lo:
            return None
        return _new(SubchainFragment, (address, lo, txs))

    def _follow(self, disconnect: List[bytes], connect: List[bytes]) -> None:
        """Move the hosted keyspaces from the old canonical blocks
        ``disconnect`` to the new ones ``connect`` (both oldest first; the
        view has switched already), then resubmit what the move leaves
        unconfirmed through ``accept_pending_tx``. On a reorg that is,
        for each address of a disconnected block or of a tail, every held
        tx above its height at the fork point, cut from its list: the txs
        the node held, so a signed copy that replaced an unsigned one goes
        back signed. Else it is what the connects leave of a tail. It goes
        in address order, in segments that each end at a signed tx, up to
        an address's first refusal."""
        store = self.store
        chains = store.chains
        resubmit: Dict[bytes, List[SubchainTx]] = {}
        if disconnect:
            # each address's height at the fork: below the first tx the
            # oldest disconnected block confirmed (a tx's height is its
            # field 1), else its confirmed height
            fork = {}
            for h in disconnect:
                for address, (txs, _) in store.archive[h].items():
                    fork.setdefault(address, txs[0][1] - 1)
                self._disconnect(h)
            for address in store.tail_states:
                fork.setdefault(address,
                                self.confirmed_state(address).tip_height)
            store.tail_states.clear()
            for address, height in fork.items():
                chain = chains[address]
                resubmit[address] = chain[height:]
                del chain[height:]
                if not chain:   # unconfirmed at the fork: the connects
                    # confirm it anew, so ``txs`` keeps canonical order
                    del chains[address]
                    store.confirmed.pop(address, None)
        for h in connect:
            resubmit.update(self._connect(h))
        for address in sorted(resubmit):
            segment = []
            for tx in resubmit[address]:
                segment.append(tx)
                if not codec.unsigned(tx):
                    try:
                        self.accept_pending_tx(*segment)
                    except ShardChainError:
                        break
                    segment = []

    def _connect(self, block_hash: bytes
                 ) -> List[Tuple[bytes, List[SubchainTx]]]:
        """Apply a block's archived hosted entry to the canonical
        keyspaces and queue the block for the inflow index, which
        ``inflows`` builds when read. Writes each fragment into its
        address's list from its first height, which ends the list there,
        and drops the tail state of each address it confirms. Returns the
        part of the list above the new confirmed height of each tail it
        confirms only in part, taken before the write, with its
        address."""
        store = self.store
        confirmed, chains, tail_states = (
            store.confirmed, store.chains, store.tail_states)
        partial = []
        for address, (txs, new_state) in store.archive[block_hash].items():
            confirmed[address] = new_state
            chain = chains.setdefault(address, [])
            if tail_states.pop(address, None) \
                    and len(chain) > new_state.tip_height:
                partial.append((address, chain[new_state.tip_height:]))
            chain[txs[0][1] - 1:] = txs     # a tx's height is its field 1
        store.unindexed.append(block_hash)
        return partial

    def _disconnect(self, block_hash: bytes) -> None:
        """Reset each confirmed state a formerly canonical block set from
        the view's new canonical index, which has switched already, and
        take the block out of the inflow index: out of the queue if it is
        not indexed yet, else by dropping the inflows it made. ``_follow``
        cuts the lists, and drops the state of an address the index
        lacks."""
        store = self.store
        entry = store.archive[block_hash]
        for address in entry:
            confirming = self.view.confirmed_by.get(address)
            if confirming is not None:
                store.confirmed[address] = self._state_after(confirming,
                                                             address)
        if block_hash in store.unindexed:
            store.unindexed.remove(block_hash)
            return
        low, high = self.assignment.low, self.assignment.high
        for txs, _ in entry.values():
            for tx in txs:
                if isinstance(tx, SendTx) \
                        and low <= tx.recipient_address <= high:
                    self._drop_inflow(tx.recipient_address, tx.tx_hash)
        miner = self.view.blocks[block_hash].header.miner_address
        if low <= miner <= high:
            self._drop_inflow(miner, block_hash)

    def _drop_inflow(self, address: bytes, key: bytes) -> None:
        pool = self.store.inflows[address]
        del pool[key]
        if not pool:
            del self.store.inflows[address]

    def inflows(self) -> Dict[bytes, Dict[bytes, Inflow]]:
        """The inflow index, by recipient: each canonical send to a hosted
        recipient, keyed by send hash, and each canonical coinbase of a
        hosted miner, keyed by block hash. Built when read: the blocks
        connected since the last read are indexed first, in connect
        order."""
        store = self.store
        inflows = store.inflows
        # hosts()'s range test, written inline below
        low, high = self.assignment.low, self.assignment.high
        for block_hash in store.unindexed:
            header = self.view.blocks[block_hash].header
            height = header.height
            for txs, _ in store.archive[block_hash].values():
                for tx in txs:
                    if type(tx) is SendTx:
                        # current_address, recipient_address, amount,
                        # timestamp, tx_hash: the tx's own address object,
                        # not the record's, which is decoded with no lookup
                        sender, recipient, amount, _, tx_hash = tx[2:7]
                        if low <= recipient <= high:
                            pool = inflows.get(recipient)
                            if pool is None:
                                pool = inflows[recipient] = {}
                            pool[tx_hash] = _new(Inflow, (
                                sender, tx_hash, block_hash, amount, height))
            if low <= header.miner_address <= high:
                inflows.setdefault(header.miner_address, {})[
                    block_hash] = _new(Inflow, (*COINBASE, block_hash,
                                                SUBSIDY, height))
        store.unindexed.clear()
        return inflows

    # -- serving -------------------------------------------------------

    def serve_fragment(self, address: bytes, from_height: int,
                       to_height: int) -> SubchainFragment:
        if not self.hosts(address):
            raise NotHosted("address outside this node's prefix")
        # _local_fragment is None for a range not wholly held; one that
        # ends at an unsigned tx would not verify, so it is not served
        frag = self._local_fragment(address, from_height, to_height) \
            if 0 <= from_height <= to_height else None
        if frag is None or frag.txs and codec.unsigned(frag.txs[-1]):
            raise RangeUnavailable("heights (%d, %d] not held up to a "
                                   "signed tx" % (from_height, to_height))
        return frag

    def storage_report(self) -> StorageReport:
        # a block's encoding is its overhead plus its body
        main_bytes = len(self.genesis.encode()) + sum(
            mainchain.BLOCK_OVERHEAD + len(b.body)
            for b in self.view.blocks.values())
        chains = self.store.chains
        return StorageReport(
            main_chain_bytes=main_bytes,
            subchain_bytes=sum(len(codec.encode_tx(tx))
                               for txs in chains.values() for tx in txs),
            shard_count=len(chains),
            tx_count=sum(map(len, chains.values())))
