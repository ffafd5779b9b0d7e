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
from .mainchain import MainBlock, capacity
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
        """Nothing left to do: the node's tails follow each winning block."""

    def build_template(self, timestamp: int) -> MainBlock:
        """The sealed block on the node's tip: one record at the tail tip
        of each of the first capacity addresses in the block order."""
        node = self.node
        return mainchain.new_block(
            node.view.tip, node.view.tip_height + 1, timestamp, self.address,
            node.pending_records()[:capacity(node.params.block_limit)],
            node.params.difficulty_bits)


# -- parallel verification --------------------------------------------

def _verify_chunk(txs: Sequence[codec.SubchainTx]) -> List[bool]:
    # module-level, so that a fork pool can map it; each signed tx is
    # checked anew, never read from the verify cache
    return codec.tx_verdicts(txs, codec._verify_uncached)


def verify_batch(txs: Sequence[codec.SubchainTx],
                 workers: int = 1) -> List[bool]:
    """Signature+digest verification sharded across worker processes.

    Each verdict is that of ``codec.tx_verdicts``: an unsigned tx reads
    True when the next tx in the list is its authentic child, so a chunk
    ends only after a signed tx.
    A value that is not a tx, or has a field off its wire type or range,
    reads False, as ``codec.verify_tx`` says. The verdict list is
    order-preserving and independent of the worker count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(txs) < 2 * workers:
        return _verify_chunk(txs)
    size = (len(txs) + workers - 1) // workers
    chunks, start = [], 0
    for end, tx in enumerate(txs, 1):
        if end - start >= size and not codec.unsigned(tx):
            chunks.append(txs[start:end])
            start = end
    if start < len(txs):
        chunks.append(txs[start:])
    import multiprocessing   # only this branch starts worker processes

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        results = pool.map(_verify_chunk, chunks)
    verdicts: List[bool] = []
    for part in results:
        verdicts.extend(part)
    return verdicts
