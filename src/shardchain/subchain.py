"""Per-account chain semantics: the state-transform function and friends.

A subchain is the totally ordered transaction history of one account.
All functions here are pure state -> state transforms; the full-chain
``replay`` is the brute-force oracle that the incremental path
``verify_fragment`` must agree with exactly. A state is only what replay
gives; how far an account is confirmed is the main chain's record.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import codec
from .codec import NULL_HASH, SendTx, SubchainTx
from .errors import (
    AmountMismatch,
    BadLink,
    DoubleClaim,
    FragmentMisaligned,
    InsufficientBalance,
    InvalidSignature,
    UnconfirmedSend,
    WrongRecipient,
)


# The STF steps build states positionally, in this field order: on the
# ingest path that is cheaper than dataclasses.replace.
@dataclass(frozen=True, slots=True)
class SubchainState:
    address: bytes
    tip_hash: bytes = NULL_HASH
    tip_height: int = 0
    balance: int = 0
    claimed_sends: frozenset = frozenset()
    claimed_coinbases: frozenset = frozenset()


def initial_state(address: bytes, balance: int = 0) -> SubchainState:
    """Empty chain; a nonzero balance represents a genesis allocation."""
    return SubchainState(address=address, balance=balance)


class ClaimContext:
    """Read-only view of one immutable main-chain snapshot.

    ``lookup_send`` returns the referenced SendTx only when the named main
    block is canonical at sufficient depth (maturity) and confirms the
    sender's subchain at or beyond the send's height. ``lookup_coinbase``
    returns (miner_address, subsidy) under the same canonicity/maturity
    conditions. Both return None otherwise.
    """

    def lookup_send(self, sender_address: bytes, sender_tx_hash: bytes,
                    main_block_hash: bytes) -> Optional[SendTx]:
        raise NotImplementedError

    def lookup_coinbase(self, main_block_hash: bytes):
        raise NotImplementedError


class StaticClaimContext(ClaimContext):
    """Dict-backed context for tests and hand-built scenarios."""

    def __init__(self, sends=None, coinbases=None):
        # sends: {(sender_address, sender_tx_hash, main_block_hash): SendTx}
        # coinbases: {main_block_hash: (miner_address, subsidy)}
        self.sends = dict(sends or {})
        self.coinbases = dict(coinbases or {})

    def lookup_send(self, sender_address, sender_tx_hash, main_block_hash):
        return self.sends.get((sender_address, sender_tx_hash,
                               main_block_hash))

    def lookup_coinbase(self, main_block_hash):
        return self.coinbases.get(main_block_hash)


def apply_tx(state: SubchainState, tx: SubchainTx,
             ctx: ClaimContext) -> SubchainState:
    """One STF step. Caller is responsible for verify_tx."""
    if tx.current_address != state.address:
        raise BadLink("transaction belongs to a different subchain",
                      height=tx.height, address=state.address)
    if tx.height != state.tip_height + 1 or tx.parent_hash != state.tip_hash:
        raise BadLink("height/parent does not extend the tip",
                      height=tx.height, address=state.address)
    if tx.amount < 1:
        raise BadLink("amount must be at least 1",
                      height=tx.height, address=state.address)

    if isinstance(tx, SendTx):
        if tx.amount > state.balance:
            raise InsufficientBalance(
                "send of %d exceeds balance %d" % (tx.amount, state.balance),
                height=tx.height, address=state.address)
        return SubchainState(state.address, tx.tx_hash, tx.height,
                             state.balance - tx.amount, state.claimed_sends,
                             state.claimed_coinbases)

    if tx.is_coinbase:
        if tx.main_block_hash in state.claimed_coinbases:
            raise DoubleClaim("coinbase already claimed",
                              height=tx.height, address=state.address)
        info = ctx.lookup_coinbase(tx.main_block_hash)
        if info is None:
            raise UnconfirmedSend("coinbase block not canonical or immature",
                                  height=tx.height, address=state.address)
        miner_address, subsidy = info
        if miner_address != state.address:
            raise WrongRecipient("coinbase belongs to another miner",
                                 height=tx.height, address=state.address)
        if tx.amount != subsidy:
            raise AmountMismatch("claimed %d, subsidy is %d"
                                 % (tx.amount, subsidy),
                                 height=tx.height, address=state.address)
        return SubchainState(
            state.address, tx.tx_hash, tx.height, state.balance + tx.amount,
            state.claimed_sends,
            state.claimed_coinbases | {tx.main_block_hash})

    if tx.sender_tx_hash in state.claimed_sends:
        raise DoubleClaim("send already claimed",
                          height=tx.height, address=state.address)
    send = ctx.lookup_send(tx.sender_address, tx.sender_tx_hash,
                           tx.main_block_hash)
    if send is None:
        raise UnconfirmedSend("referenced send not confirmed at depth",
                              height=tx.height, address=state.address)
    if send.recipient_address != state.address:
        raise WrongRecipient("send addressed to someone else",
                             height=tx.height, address=state.address)
    if tx.amount != send.amount:
        raise AmountMismatch("claim of %d against send of %d"
                             % (tx.amount, send.amount),
                             height=tx.height, address=state.address)
    return SubchainState(state.address, tx.tx_hash, tx.height,
                         state.balance + tx.amount,
                         state.claimed_sends | {tx.sender_tx_hash},
                         state.claimed_coinbases)


def replay(txs: Sequence[SubchainTx], ctx: ClaimContext,
           initial: Optional[SubchainState] = None,
           verify: Optional[Callable[[SubchainTx], bool]] = codec.verify_tx,
           ) -> SubchainState:
    """Left-fold of apply_tx from the (genesis) initial state.

    This is the full-chain oracle; incremental verification paths must
    produce states equal to it field-for-field.
    """
    if initial is None:
        if not txs:
            raise ValueError("replay of empty list needs an initial state")
        initial = initial_state(txs[0].current_address)
    state = initial
    for tx in txs:
        if verify is not None and not verify(tx):
            raise InvalidSignature("invalid transaction at height %d"
                                   % tx.height)
        state = apply_tx(state, tx, ctx)
    return state


@dataclass(frozen=True)
class SubchainFragment:
    """Consecutive hash-linked slice of a subchain, above ``from_height``."""
    address: bytes
    from_height: int            # exclusive lower bound
    txs: tuple = ()

    @property
    def to_height(self) -> int:
        return self.from_height + len(self.txs)


def verify_fragment(state: SubchainState, frag: SubchainFragment,
                    ctx: ClaimContext) -> SubchainState:
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
    parts = [_FRAG_HEADER.pack(frag.address, frag.from_height,
                               len(frag.txs))]
    parts.extend(codec.encode_tx(tx) for tx in frag.txs)
    return b"".join(parts)


def fragment_address(data: bytes) -> bytes:
    """The address of an encoded fragment, read from its header alone."""
    if len(data) < _FRAG_HEADER.size:
        raise codec.DecodeError("fragment shorter than its %d-byte header"
                                % _FRAG_HEADER.size)
    return data[:codec.ADDR_LEN]


def decode_fragment(data: bytes) -> SubchainFragment:
    if len(data) < _FRAG_HEADER.size:
        raise codec.DecodeError("fragment shorter than its %d-byte header"
                                % _FRAG_HEADER.size)
    address, from_height, count = _FRAG_HEADER.unpack_from(data, 0)
    offset = _FRAG_HEADER.size
    txs = []
    for _ in range(count):
        if offset >= len(data):
            raise codec.DecodeError("fragment truncated")
        tag = data[offset]
        if tag == codec.TAG_SEND:
            end = offset + codec.SEND_WIRE_LEN
        elif tag == codec.TAG_RECEIVE:
            end = offset + codec.RECV_WIRE_LEN
        else:
            raise codec.DecodeError("unknown tag in fragment")
        txs.append(codec.decode_tx(data[offset:end]))
        offset = end
    if offset != len(data):
        raise codec.DecodeError("trailing bytes in fragment")
    return SubchainFragment(address=address, from_height=from_height,
                            txs=tuple(txs))
