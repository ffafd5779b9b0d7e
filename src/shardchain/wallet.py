"""Client-side transaction construction.

The default spending pattern claims every mature inflow first and then
appends the sends, so one confirmation record covers the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from . import codec, subchain
from .codec import KeyPair, NULL_ADDRESS, NULL_HASH, ReceiveTx, SendTx
from .errors import AlreadyClaimed, Immature, InsufficientBalance, KeyMismatch
from .node import Inflow


@dataclass
class AccountView:
    """Snapshot of one account: full-chain state (confirmed plus pending
    tail effects) and the claimable inflow list with canonical depths."""
    address: bytes
    state: subchain.SubchainState
    claimables: List[Tuple[Inflow, int]] = field(default_factory=list)
    maturity: int = 6

    @property
    def spendable(self) -> int:
        return self.state.balance

    def mature_inflows(self) -> List[Inflow]:
        flows = [flow for flow, depth in self.claimables
                 if depth >= self.maturity]
        flows.sort(key=lambda f: (f.block_height, f.sender_address,
                                  f.sender_tx_hash, f.block_hash))
        return flows


def account_view(node, address: bytes) -> AccountView:
    """Build an AccountView from a (full) node's indexes."""
    state = node.full_state(address)
    claimables = []
    for key, flow in node.store.inflows.get(address, {}).items():
        if flow.coinbase:
            if flow.block_hash in state.claimed_coinbases:
                continue
        elif flow.sender_tx_hash in state.claimed_sends:
            continue
        claimables.append((flow, node.view.depth(flow.block_hash)))
    return AccountView(address=address, state=state,
                       claimables=claimables, maturity=node.params.maturity)


def _advance(view: AccountView, tx, inflow: Inflow | None = None) -> None:
    """Apply ``tx`` to the view's state through the STF; a claim is
    answered from ``inflow``, the mature claimable it names, as the send
    or coinbase that inflow records."""
    sends, coinbases = {}, {}
    if inflow is not None and inflow.coinbase:
        coinbases[inflow.block_hash] = (view.address, inflow.amount)
    elif inflow is not None:
        sends[(inflow.sender_address, inflow.sender_tx_hash,
               inflow.block_hash)] = SendTx(
            parent_hash=NULL_HASH, height=0,
            current_address=inflow.sender_address,
            recipient_address=view.address, amount=inflow.amount,
            timestamp=0, tx_hash=inflow.sender_tx_hash)
    view.state = subchain.apply_tx(
        view.state, tx, subchain.StaticClaimContext(sends, coinbases))


def build_send(view: AccountView, recipient: bytes, amount: int,
               key: KeyPair, timestamp: int = 0) -> SendTx:
    if key.address != view.address:
        raise KeyMismatch("key does not control this account")
    if amount > view.spendable:
        raise InsufficientBalance("send of %d exceeds spendable %d"
                                  % (amount, view.spendable))
    tx = SendTx(parent_hash=view.state.tip_hash,
                height=view.state.tip_height + 1,
                current_address=view.address,
                recipient_address=recipient,
                amount=amount, timestamp=timestamp)
    tx = codec.sign_tx(tx, key)
    _advance(view, tx)
    return tx


def build_claim(view: AccountView, inflow: Inflow, key: KeyPair,
                timestamp: int = 0) -> ReceiveTx:
    if key.address != view.address:
        raise KeyMismatch("key does not control this account")
    depth = next((d for f, d in view.claimables if f == inflow), None)
    if inflow.coinbase:
        if inflow.block_hash in view.state.claimed_coinbases:
            raise AlreadyClaimed("coinbase already claimed")
    elif inflow.sender_tx_hash in view.state.claimed_sends:
        raise AlreadyClaimed("send already claimed")
    if depth is None or depth < view.maturity:
        raise Immature("inflow depth %s below maturity %d"
                       % (depth, view.maturity))
    if inflow.coinbase:
        sender, sender_tx = NULL_ADDRESS, NULL_HASH
    else:
        sender, sender_tx = inflow.sender_address, inflow.sender_tx_hash
    tx = ReceiveTx(parent_hash=view.state.tip_hash,
                   height=view.state.tip_height + 1,
                   current_address=view.address,
                   sender_address=sender, sender_tx_hash=sender_tx,
                   main_block_hash=inflow.block_hash,
                   amount=inflow.amount, timestamp=timestamp)
    tx = codec.sign_tx(tx, key)
    _advance(view, tx, inflow)
    return tx


def batch_settle(view: AccountView, sends: Sequence[Tuple[bytes, int]],
                 key: KeyPair, timestamp: int = 0) -> List:
    """Claim every mature inflow (oldest first), then emit the sends, as
    one contiguous tail extension. All-or-nothing planning: if the total
    cannot be covered even after claiming, nothing is emitted."""
    total = sum(amount for _, amount in sends)
    mature = view.mature_inflows()
    if total > view.spendable + sum(f.amount for f in mature):
        raise InsufficientBalance(
            "batch of %d exceeds spendable plus mature inflows" % total)
    txs: List = []
    for flow in mature:
        txs.append(build_claim(view, flow, key, timestamp))
    for recipient, amount in sends:
        txs.append(build_send(view, recipient, amount, key, timestamp))
    return txs
