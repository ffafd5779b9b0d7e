"""The miner role: assemble confirmation records from the attached
node's pending tails, run PoW and publish blocks.

One confirmation record covers an address's whole pending tail, so block
space scales with the number of active accounts, never with per-account
transaction counts. The node's pending tails therefore are the miner's
pool; a miner attached to a partial node sees only its hosted tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from . import codec, mainchain
from .errors import Aborted
from .mainchain import (
    BlockHeader,
    ConfirmationRecord,
    MainBlock,
    capacity,
    confirmations_root,
)
from .node import Node


@dataclass(frozen=True)
class BlockTemplate:
    parent_block_hash: bytes
    height: int
    miner_address: bytes
    difficulty_bits: int
    records: tuple = ()

    def encoded_size(self) -> int:
        return mainchain.BLOCK_OVERHEAD \
            + mainchain.RECORD_LEN * len(self.records)


class Miner:
    """Builds blocks on top of the chain view of its attached node."""

    def __init__(self, address: bytes, node: Node):
        self.address = address
        self.node = node

    @property
    def view(self):
        return self.node.view

    # -- pool ----------------------------------------------------------

    def pool_insert(self, tx: codec.SubchainTx) -> bool:
        """Pool a transaction at the attached node; False for an exact
        duplicate of one it holds."""
        return self.node.accept_pending_tx(tx)

    def refresh_pool(self) -> None:
        """Nothing left to do: the node trims its tails as blocks connect."""

    # -- block building ------------------------------------------------

    def build_template(self, limit_bytes: Optional[int] = None
                       ) -> BlockTemplate:
        """Select up to capacity addresses, longest tail first (ties in
        the pool's insertion order); one record per address at its tail
        tip."""
        params = self.node.params
        limit = limit_bytes if limit_bytes is not None \
            else params.block_limit
        cap = capacity(limit)
        pending = self.node.store.pending
        order = sorted(pending, key=lambda a: -len(pending[a]))  # stable
        records = []
        for address in order[:cap]:
            tail = pending[address]
            records.append(ConfirmationRecord(
                address=address, tip_hash=tail[-1].tx_hash,
                tip_height=tail[-1].height))
        records.sort(key=lambda r: r.address)
        return BlockTemplate(
            parent_block_hash=self.view.tip,
            height=self.view.tip_height + 1,
            miner_address=self.address,
            difficulty_bits=params.difficulty_bits,
            records=tuple(records))

    def assemble(self, template: BlockTemplate, timestamp: int) -> MainBlock:
        header = BlockHeader(
            parent_block_hash=template.parent_block_hash,
            height=template.height, timestamp=timestamp,
            miner_address=template.miner_address,
            confirmations_root=confirmations_root(template.records),
            difficulty_bits=template.difficulty_bits, nonce=0)
        return MainBlock(header=header, confirmations=template.records)

    def mine_block(self, timestamp: int,
                   abort: Optional[Callable[[], bool]] = None) -> MainBlock:
        template = self.build_template()
        return mainchain.seal(self.assemble(template, timestamp),
                              abort=abort)

    def mine_loop(self, timestamps: Sequence[int],
                  publish: Callable[[MainBlock], None],
                  abort: Optional[Callable[[], bool]] = None):
        """Seal and publish one block per timestamp; a tip change during
        the PoW search restarts the template on the new tip."""
        published = []
        for ts in timestamps:
            while True:
                tip_before = self.view.tip
                combined = (lambda: (abort is not None and abort())
                            or self.view.tip != tip_before)
                try:
                    block = mainchain.seal(
                        self.assemble(self.build_template(), ts),
                        abort=combined)
                except Aborted:
                    if abort is not None and abort():
                        return published
                    continue   # rebuild on the new tip
                publish(block)
                self.refresh_pool()
                published.append(block)
                break
        return published


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
