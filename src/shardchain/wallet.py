"""Client-side transaction construction.

The default spending pattern claims every mature inflow first and then
appends the sends, so one confirmation record covers the whole batch.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from . import codec, subchain
from .codec import KeyPair, ReceiveTx, SendTx
from .errors import AlreadyClaimed, Immature, InsufficientBalance, KeyMismatch
from .node import Inflow


class AccountView:
    """Snapshot of one account: full-chain state (confirmed plus pending
    tail effects) and the claimable inflow list with canonical depths.
    The builders advance ``state`` past each tx they build."""

    __slots__ = ("address", "state", "claimables", "maturity")

    def __init__(self, address: bytes, state: subchain.SubchainState,
                 claimables: List[Tuple[Inflow, int]] | None = None,
                 maturity: int = 6):
        self.address = address
        self.state = state
        self.claimables = [] if claimables is None else claimables
        self.maturity = maturity

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
    claimed = state.claimed
    claimables = [(flow, node.view.depth(flow.block_hash))
                  for key, flow in node.inflows().get(address, {}).items()
                  if key not in claimed]
    return AccountView(address=address, state=state,
                       claimables=claimables, maturity=node.params.maturity)


def _advance(view: AccountView, tx, inflow: Inflow | None = None) -> None:
    """Apply ``tx`` to the view's state through the STF; a claim is
    answered from ``inflow``, the mature claimable it names."""
    ctx = {} if inflow is None else {
        inflow[:3]: (view.address, inflow.amount)}
    view.state = subchain.apply_tx(view.state, tx, ctx)


def build_send(view: AccountView, recipient: bytes, amount: int,
               key: KeyPair, timestamp: int = 0,
               signed: bool = True) -> SendTx:
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
    tx = codec.sign_tx(tx, key) if signed else codec.hash_tx(tx)
    _advance(view, tx)
    return tx


def build_claim(view: AccountView, inflow: Inflow, key: KeyPair,
                timestamp: int = 0, signed: bool = True) -> ReceiveTx:
    if key.address != view.address:
        raise KeyMismatch("key does not control this account")
    depth = next((d for f, d in view.claimables if f == inflow), None)
    if subchain.inflow_key(inflow[:3]) in view.state.claimed:
        raise AlreadyClaimed("inflow already claimed")
    if depth is None or depth < view.maturity:
        raise Immature("inflow depth %s below maturity %d"
                       % (depth, view.maturity))
    tx = ReceiveTx(parent_hash=view.state.tip_hash,
                   height=view.state.tip_height + 1,
                   current_address=view.address,
                   sender_address=inflow.sender_address,
                   sender_tx_hash=inflow.sender_tx_hash,
                   main_block_hash=inflow.block_hash,
                   amount=inflow.amount, timestamp=timestamp)
    tx = codec.sign_tx(tx, key) if signed else codec.hash_tx(tx)
    _advance(view, tx, inflow)
    return tx


def batch_settle(view: AccountView, sends: Sequence[Tuple[bytes, int]],
                 key: KeyPair, timestamp: int = 0) -> List:
    """Claim every mature inflow (oldest first), then emit the sends, as
    one contiguous tail extension. All-or-nothing planning: if the total
    cannot be covered even after claiming, nothing is emitted. Only the
    last tx is signed: its parent hash vouches for the ones below it
    (``codec.verify_txs``)."""
    total = sum(amount for _, amount in sends)
    mature = view.mature_inflows()
    if total > view.spendable + sum(f.amount for f in mature):
        raise InsufficientBalance(
            "batch of %d exceeds spendable plus mature inflows" % total)
    txs: List = [build_claim(view, flow, key, timestamp, signed=False)
                 for flow in mature]
    txs += [build_send(view, recipient, amount, key, timestamp, signed=False)
            for recipient, amount in sends]
    if txs:
        # signing leaves tx_hash, and so the view's state, as it was
        txs[-1] = codec.sign_tx(txs[-1], key)
    return txs
