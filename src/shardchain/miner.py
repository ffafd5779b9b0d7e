"""The miner role: one confirmation record per pending tail, in the
attached node's block order, sealed into a block.

One confirmation record covers an address's whole pending tail, so block
space scales with the number of active accounts, never with per-account
transaction counts. The node's pending tails therefore are the miner's
pool; a miner attached to a partial node sees only its hosted tails.

``Miner`` is kept only for the names the benchmark's span tracer wraps
and its episodes call (``pool_insert``, ``refresh_pool`` and
``build_template``); it goes with the next benchmark change (ROADMAP.md,
open item 1).
"""

from __future__ import annotations

from typing import List, Sequence

from . import codec, mainchain
from .mainchain import ConfirmationRecord, MainBlock, capacity
from .node import Node


class Miner:
    """Builds blocks on top of the chain view of its attached node."""

    def __init__(self, address: bytes, node: Node):
        self.address = address
        self.node = node

    def pool_insert(self, tx: codec.SubchainTx) -> bool:
        """Pool a transaction at the attached node; False for an exact
        duplicate of one it holds."""
        return self.node.accept_pending_tx(tx)

    def refresh_pool(self) -> None:
        """Nothing left to do: the node trims its tails as blocks connect."""

    def build_template(self, timestamp: int) -> MainBlock:
        """The sealed block on the node's tip: one record at the tail tip
        of each of the first capacity addresses in the block order."""
        node = self.node
        pending = node.store.pending
        records = [ConfirmationRecord(address, pending[address][-1].tx_hash,
                                      pending[address][-1].height)
                   for address in node.block_order()[
                       :capacity(node.params.block_limit)]]
        return mainchain.new_block(
            node.view.tip, node.view.tip_height + 1, timestamp,
            self.address, records, node.params.difficulty_bits)


# -- parallel verification --------------------------------------------

def _verify_wire_chunk(wires: List[bytes]) -> List[bool]:
    out = []
    for wire in wires:
        try:
            tx = codec.decode_tx(wire)
        except Exception:
            out.append(False)
            continue
        out.append(codec._verify_uncached(tx))
    return out


def verify_batch(txs: Sequence[codec.SubchainTx],
                 workers: int = 1) -> List[bool]:
    """Signature+digest verification sharded across worker processes.

    The verdict list is order-preserving and independent of the worker
    count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    wires = [codec.encode_tx(tx) for tx in txs]
    if workers == 1 or len(wires) < 2 * workers:
        return _verify_wire_chunk(wires)
    chunk = (len(wires) + workers - 1) // workers
    chunks = [wires[i:i + chunk] for i in range(0, len(wires), chunk)]
    import multiprocessing   # only this branch starts worker processes

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        results = pool.map(_verify_wire_chunk, chunks)
    verdicts: List[bool] = []
    for part in results:
        verdicts.extend(part)
    return verdicts
