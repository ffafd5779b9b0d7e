"""Per-account chain semantics: the state-transform function and friends.

A subchain is the totally ordered transaction history of one account.
All functions here are pure state -> state transforms; the full-chain
``replay`` is the brute-force oracle that the incremental path
``verify_fragment`` must agree with exactly. A state is only what replay
gives; how far an account is confirmed is the main chain's record.
"""

from __future__ import annotations

import struct
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from . import codec
from .codec import NULL_ADDRESS, NULL_HASH, SendTx, SubchainTx
from .errors import (
    AmountMismatch,
    BadLink,
    DoubleClaim,
    FragmentMisaligned,
    InsufficientBalance,
    InvalidSignature,
    MalformedBatch,
    UnconfirmedSend,
    WrongRecipient,
)

_new = tuple.__new__


# States, like txs and fragments, are NamedTuples. The STF steps build
# them by position, in this field order, with tuple.__new__: that calls
# no Python constructor on the ingest path.
class SubchainState(NamedTuple):
    address: bytes
    tip_hash: bytes = NULL_HASH
    tip_height: int = 0
    balance: int = 0
    # the key of each inflow claimed: a send's tx hash, or the block hash
    # of a coinbase, as ``NodeStore.inflows`` keys them
    claimed: frozenset = frozenset()


def initial_state(address: bytes, balance: int = 0) -> SubchainState:
    """Empty chain; a nonzero balance represents a genesis allocation."""
    return SubchainState(address, balance=balance)


# A claim context is anything with ``get(citation)``: a receive cites its
# ``tx[3:6]``, (sender_address, sender_tx_hash, main_block_hash), and
# ``get`` answers the inflow's (recipient, amount), or None when it is not
# confirmed at depth; a dict is the static context. A coinbase claim
# cites the null sender and null hash.
COINBASE = (NULL_ADDRESS, NULL_HASH)


def inflow_key(citation: Tuple[bytes, bytes, bytes]) -> bytes:
    """The key a state's ``claimed`` set and ``NodeStore.inflows`` hold a
    cited inflow under: the cited block's hash for a coinbase, else the
    send's tx hash."""
    return citation[2] if citation[:2] == COINBASE else citation[1]


def apply_tx(state: SubchainState, tx: SubchainTx, ctx) -> SubchainState:
    """One STF step. Caller is responsible for verify_tx."""
    # each field read once: a NamedTuple field read by name is slow
    address, tip_hash, tip_height, balance, claimed = state
    parent_hash, height, current_address = tx[0], tx[1], tx[2]
    amount = tx.amount
    if current_address != address:
        raise BadLink("transaction belongs to a different subchain",
                      height=height)
    if height != tip_height + 1 or parent_hash != tip_hash:
        raise BadLink("height/parent does not extend the tip", height=height)
    if amount < 1:
        raise BadLink("amount must be at least 1", height=height)

    if isinstance(tx, SendTx):
        if amount > balance:
            raise InsufficientBalance(
                "send of %d exceeds balance %d" % (amount, balance),
                height=height)
        return _new(SubchainState, (address, tx.tx_hash, height,
                                    balance - amount, claimed))

    citation = tx[3:6]
    key = inflow_key(citation)
    if key in claimed:
        raise DoubleClaim("inflow already claimed", height=height)
    inflow = ctx.get(citation)
    if inflow is None:
        raise UnconfirmedSend("cited inflow not confirmed at depth",
                              height=height)
    recipient, inflow_amount = inflow
    if recipient != address:
        raise WrongRecipient("inflow addressed to someone else", height=height)
    if amount != inflow_amount:
        raise AmountMismatch("claim of %d against inflow of %d"
                             % (amount, inflow_amount), height=height)
    return _new(SubchainState, (address, tx.tx_hash, height,
                                balance + amount, claimed | {key}))


def replay(txs: Sequence[SubchainTx], ctx, initial: SubchainState,
           verify: Optional[Callable[[Sequence[SubchainTx]], bool]]
           = codec.verify_txs,
           ) -> SubchainState:
    """Left-fold of apply_tx from the ``initial`` state (a genesis state,
    or one a fold reached), after ``verify`` accepts the whole sequence.

    This is the full-chain oracle; incremental verification paths must
    produce states equal to it field-for-field.
    """
    if verify is not None and not verify(txs):
        raise InvalidSignature("invalid transaction among heights %d to %d"
                               % (txs[0].height, txs[-1].height))
    state = initial
    for tx in txs:
        state = apply_tx(state, tx, ctx)
    return state


class SubchainFragment(NamedTuple):
    """Consecutive hash-linked slice of a subchain, above ``from_height``."""
    address: bytes
    from_height: int            # exclusive lower bound
    txs: tuple = ()


def verify_fragment(state: SubchainState, frag: SubchainFragment,
                    ctx) -> SubchainState:
    """Extend a verified state by a fragment; equals replay of the whole."""
    if frag.address != state.address:
        raise FragmentMisaligned("fragment is for a different address")
    if frag.from_height != state.tip_height:
        raise FragmentMisaligned(
            "fragment starts at %d, tip is %d"
            % (frag.from_height, state.tip_height))
    if frag.txs and frag.txs[0].parent_hash != state.tip_hash:
        raise FragmentMisaligned("fragment does not link to the tip hash")
    return replay(frag.txs, ctx, initial=state)


# --- fragment binary framing (shared with network and storage) ---

_FRAG_HEADER = struct.Struct(">20sQI")


def encode_fragment(frag: SubchainFragment) -> bytes:
    return b"".join([_FRAG_HEADER.pack(frag.address, frag.from_height,
                                       len(frag.txs)),
                     *map(codec.encode_tx, frag.txs)])


def encode_batch(txs: Sequence[SubchainTx]) -> bytes:
    """The NewTx payload of one account's consecutive txs: their fragment,
    which starts just below the first tx's height. A batch with no tx or
    a first tx below height 1 is refused before anything is packed."""
    if not txs:
        raise MalformedBatch("a batch holds at least one transaction")
    if txs[0].height < 1:
        raise MalformedBatch("a batch starts at height 1 or above, not %d"
                             % txs[0].height)
    return encode_fragment(_new(SubchainFragment, (
        txs[0].current_address, txs[0].height - 1, tuple(txs))))


def fragment_address(data: bytes) -> bytes:
    """The address of an encoded fragment, read from its header alone."""
    if len(data) < _FRAG_HEADER.size:
        raise codec.DecodeError("fragment shorter than its %d-byte header"
                                % _FRAG_HEADER.size)
    return data[:codec.ADDR_LEN]


def decode_fragment(data: bytes, table: Optional[dict] = None,
                    parent: bytes = NULL_HASH) -> SubchainFragment:
    """The fragment ``data`` encodes, its address the object ``table``
    holds for it and its txs decoded by ``codec.decode_txs`` through the
    same table, the first one's parent linked to ``parent``: a node
    passes the tip its held txs reach."""
    if len(data) < _FRAG_HEADER.size:
        raise codec.DecodeError("fragment shorter than its %d-byte header"
                                % _FRAG_HEADER.size)
    address, from_height, count = _FRAG_HEADER.unpack_from(data, 0)
    if table is None:
        table = {}
    address = table.setdefault(address, address)
    return _new(SubchainFragment, (address, from_height, codec.decode_txs(
        data, _FRAG_HEADER.size, count, address, table, parent)))
