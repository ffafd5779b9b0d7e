"""Deterministic multi-node simulation harness.

Drives a simulated node tree plus one miner through a configured number
of block intervals, reports confirmed transactions per simulated second
and storage, and checks exact value conservation at the end. Block
pacing uses the discrete-event clock, so a 600-second interval
simulates in milliseconds.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import codec, mainchain, miner as miner_mod
from . import sharding, subchain, wallet
from .codec import KeyPair, SendTx, sha256
from .errors import ConfigInvalid, InvalidSeed, InvariantViolation, \
    MalformedBits
from .mainchain import ChainParams, EASY_BITS, capacity, make_genesis
from .network import Envelope, FloodRouter, MsgKind, SimTransport, \
    TreeTopology
from .node import Node


class SimConfig(NamedTuple):
    seed: int = 1
    accounts: int = 100
    width: int = 10
    avg_txs: int = 1
    block_limit: int = 4096
    block_interval: int = 15
    blocks: int = 10
    node_count: int = 1
    latency_min_ms: float = 1.0
    latency_max_ms: float = 5.0
    difficulty_bits: int = EASY_BITS
    maturity: int = 6
    neighbor_count: int = 2
    initial_balance: int = 1_000_000
    send_amount: int = 1
    subsidy: int = mainchain.DEFAULT_SUBSIDY
    claim_inflows: bool = True

    def validate(self) -> None:
        positive = ["accounts", "avg_txs", "block_limit", "block_interval",
                    "blocks", "node_count", "maturity"]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigInvalid("%s must be positive" % name)
        # each is a u64 field of the genesis, a tx or a coinbase claim
        for name, low in [("initial_balance", 1), ("send_amount", 1),
                          ("subsidy", 0)]:
            if not low <= getattr(self, name) < 1 << 64:
                raise ConfigInvalid("%s must be in [%d, 2^64)" % (name, low))
        if self.neighbor_count < 0:
            raise ConfigInvalid("neighbor_count must not be negative")
        try:
            mainchain.target(self.difficulty_bits)
        except MalformedBits as err:
            raise ConfigInvalid("difficulty_bits: %s" % err) from None
        if self.width < 0 or self.width > self.accounts:
            raise ConfigInvalid("width must be in [0, accounts]")
        if capacity(self.block_limit) < 1:
            raise ConfigInvalid("block limit below one record")
        if not math.isfinite(self.latency_min_ms) \
                or not math.isfinite(self.latency_max_ms) \
                or self.latency_min_ms < 0 \
                or self.latency_max_ms < self.latency_min_ms:
            raise ConfigInvalid("bad latency range")


def derived_key(label: bytes) -> KeyPair:
    """Deterministic keypair from a label (retries on invalid scalars)."""
    seed = sha256(label)
    while True:
        try:
            return codec.keygen(seed)
        except InvalidSeed:
            seed = sha256(seed)


class Simulation:
    """One fully wired network instance; reusable by tests that need to
    poke at intermediate state."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.params = ChainParams(difficulty_bits=cfg.difficulty_bits,
                                  block_limit=cfg.block_limit,
                                  subsidy=cfg.subsidy,
                                  maturity=cfg.maturity)
        self.keys = [derived_key(b"account:%d:%d" % (cfg.seed, i))
                     for i in range(cfg.accounts)]
        self.addresses = [k.address for k in self.keys]
        self.key_of = dict(zip(self.addresses, self.keys))
        self.miner_key = derived_key(b"miner:%d" % cfg.seed)
        self.genesis = make_genesis(
            {a: cfg.initial_balance for a in self.addresses})

        self.topology = TreeTopology(neighbor_count=cfg.neighbor_count)
        root_id = self.topology.add_root()
        ids = [root_id]
        for i in range(1, cfg.node_count):
            parent = ids[(i - 1) // 2]
            nid, _ = self.topology.join(parent)
            ids.append(nid)
        self.transport = SimTransport(seed=cfg.seed,
                                      latency_ms=(cfg.latency_min_ms,
                                                  cfg.latency_max_ms))
        self.nodes: Dict[bytes, Node] = {}
        for nid in ids:
            n = Node(nid, self.topology.assignments[nid], self.genesis,
                     self.params)
            n.remote_send_lookup = self._send_lookup
            self.nodes[nid] = n
        self.root = self.nodes[root_id]
        self.router = FloodRouter(self.topology, self.transport,
                                  on_deliver=self._deliver,
                                  scope=self._scope)
        self.router.attach_all()
        self.miner = miner_mod.Miner(self.miner_key.address, self.root)
        self.active: set = set()
        self.block_rows: List[dict] = []
        self.errors: List[str] = []
        self.now = 0

    # -- network plumbing ---------------------------------------------

    def _send_lookup(self, address, tx_hash, block_hash):
        # only a node that does not host the sender asks, and it is on no
        # path of the sender's hosts
        for nid in sharding.nodes_path(self.topology, address):
            if self.transport.is_alive(nid):
                send = self.nodes[nid].store.find_send(address, tx_hash,
                                                       block_hash)
                if send is not None:
                    return send
        return None

    @staticmethod
    def _scope(env: Envelope) -> Optional[bytes]:
        # an account batch goes only to the nodes that host its account;
        # a block goes to every node
        if env.kind == MsgKind.NewTx:
            return subchain.fragment_address(env.payload)
        return None

    def _deliver(self, nid, env: Envelope):
        # a NewTx is one account's batch, as a fragment: its framing keeps
        # the batch's order whichever link brings it to a node first
        try:
            self.nodes[nid].apply_request(env.kind, env.payload)
        except Exception as err:
            self.errors.append("%s@%s: %r" % (
                "tx" if env.kind == MsgKind.NewTx else "block", nid.hex(),
                err))

    def broadcast(self, kind: MsgKind, payload: bytes) -> None:
        # from the root, which hosts every address a batch can be scoped to
        self.router.originate(self.root.node_id, Envelope(kind, payload))

    # -- workload ------------------------------------------------------

    def _eligible(self) -> List[bytes]:
        need = self.cfg.avg_txs * self.cfg.send_amount
        out = []
        for address in self.addresses:
            if self.root.store.pending.get(address):
                continue
            # inflows only add to the balance: a view is needed only
            # when the balance alone falls short
            if self.root.full_state(address).balance >= need:
                out.append(address)
                continue
            view = wallet.account_view(self.root, address)
            budget = view.spendable
            if self.cfg.claim_inflows:
                budget += sum(f.amount for f in view.mature_inflows())
            if budget >= need:
                out.append(address)
        return out

    def run_interval(self) -> dict:
        cfg = self.cfg
        self.now += cfg.block_interval
        eligible = self._eligible()
        senders = self.rng.sample(eligible,
                                  min(cfg.width, len(eligible)))
        for address in senders:
            view = wallet.account_view(self.root, address)
            if not cfg.claim_inflows:
                view.claimables = []
            sends = [(self.addresses[self.rng.randrange(cfg.accounts)],
                      cfg.send_amount) for _ in range(cfg.avg_txs)]
            batch = wallet.batch_settle(view, sends,
                                        self.key_of[address],
                                        timestamp=self.now)
            self.active.add(address)
            self.broadcast(MsgKind.NewTx, subchain.encode_batch(batch))
        self.transport.run()

        # the root applies its own block as every node does, on delivery
        block = self.miner.build_template(self.now)
        self.broadcast(MsgKind.NewBlock, block.encode())
        self.transport.run()
        self.miner.refresh_pool()

        archived = self.root.store.archive.get(block.block_hash, {})
        row = {"height": block.header.height,
               "records": len(block.confirmations),
               "txs_covered": sum(len(txs) for txs, _ in archived.values()),
               "bytes": len(block.encode())}
        self.block_rows.append(row)
        return row

    # -- end-of-run accounting ----------------------------------------

    def conservation(self) -> dict:
        root = self.root
        view = root.view
        touched = set(self.addresses) | set(root.store.confirmed) \
            | {self.miner_key.address}
        balances = sum(root.confirmed_state(a).balance for a in
                       sorted(touched))
        unclaimed_sends = 0
        for tx in itertools.chain.from_iterable(root.store.chains.values()):
            if isinstance(tx, SendTx):
                rcpt = root.confirmed_state(tx.recipient_address)
                if tx.tx_hash not in rcpt.claimed:
                    unclaimed_sends += tx.amount
        unclaimed_coinbase = 0
        for bh in view.canonical[1:]:
            block = view.blocks[bh]
            miner_state = root.confirmed_state(block.header.miner_address)
            if bh not in miner_state.claimed:
                unclaimed_coinbase += self.params.subsidy
        genesis_total = sum(b for _, b in self.genesis.allocations)
        subsidies = self.params.subsidy * (len(view.canonical) - 1)
        lhs = balances + unclaimed_sends + unclaimed_coinbase
        rhs = genesis_total + subsidies
        return {"balances": balances, "unclaimed_sends": unclaimed_sends,
                "unclaimed_coinbase": unclaimed_coinbase,
                "genesis_total": genesis_total, "subsidies": subsidies,
                "ok": lhs == rhs}

    def report(self) -> dict:
        """The run's report, after its conservation and shard-count checks.
        ``tps`` is confirmed transactions per simulated second (the total
        over ``blocks`` times ``block_interval``): a model output of the
        configured interval, not a measured speed; ``perfbench/`` measures
        speed."""
        cfg = self.cfg
        if self.errors:
            raise InvariantViolation(
                "node-side processing errors: %s" % "; ".join(self.errors[:5]))
        cons = self.conservation()
        if not cons["ok"]:
            raise InvariantViolation("value conservation failed: %r" % cons)
        non_empty = sum(
            1 for a in sorted(set(self.addresses)
                              | set(self.root.store.confirmed)
                              | {self.miner_key.address})
            if self.root.full_state(a).tip_height > 0)
        if non_empty != len(self.active):
            raise InvariantViolation(
                "shard count %d != active account count %d"
                % (non_empty, len(self.active)))
        total = sum(r["txs_covered"] for r in self.block_rows)
        elapsed = cfg.blocks * cfg.block_interval
        storage = {}
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            entry = n.storage_report()._asdict()
            entry["depth"] = n.assignment.depth
            storage[nid.hex()] = entry
        return {
            "config": cfg._asdict(),
            "capacity": capacity(cfg.block_limit),
            "blocks": self.block_rows,
            "total_txs_confirmed": total,
            "elapsed_sim_seconds": elapsed,
            "tps": total / elapsed,
            "conservation": cons,
            "non_empty_subchains": non_empty,
            "active_accounts": len(self.active),
            "storage": storage,
        }

    def run(self) -> dict:
        for _ in range(self.cfg.blocks):
            self.run_interval()
        return self.report()


def run_sim(cfg: SimConfig) -> dict:
    return Simulation(cfg).run()


def bench_verify(n_txs: int, worker_counts: List[int],
                 seed: int = 1) -> List[dict]:
    """Time verify_batch over freshly generated valid transactions."""
    if n_txs < 1:
        raise ConfigInvalid("n_txs must be >= 1")
    keys = [derived_key(b"bench:%d:%d" % (seed, i)) for i in range(32)]
    tips: Dict[bytes, Tuple[bytes, int]] = {
        k.address: (codec.NULL_HASH, 0) for k in keys}
    txs = []
    for i in range(n_txs):
        key = keys[i % len(keys)]
        parent, height = tips[key.address]
        tx = SendTx(parent_hash=parent, height=height + 1,
                    current_address=key.address,
                    recipient_address=keys[(i + 1) % len(keys)].address,
                    amount=1, timestamp=i)
        tx = codec.sign_tx(tx, key)
        tips[key.address] = (tx.tx_hash, tx.height)
        txs.append(tx)
    rows = []
    baseline = None
    for workers in worker_counts:
        start = time.perf_counter()
        verdicts = miner_mod.verify_batch(txs, workers=workers)
        seconds = time.perf_counter() - start
        if baseline is None:
            baseline = verdicts
        elif verdicts != baseline:
            raise InvariantViolation("verdicts differ across worker counts")
        rows.append({"workers": workers, "seconds": seconds,
                     "txs": n_txs, "all_valid": all(verdicts)})
    return rows


def bench_storage(cfg: SimConfig) -> List[dict]:
    """Run one simulation over a 7-node depth-2 tree (full, half, quarter
    nodes) and report per-node storage."""
    if cfg.node_count != 7:
        raise ConfigInvalid("bench_storage runs a 7-node tree")
    storage = run_sim(cfg)["storage"]
    return [{"node": nid, "depth": entry["depth"],
             "main_chain_bytes": entry["main_chain_bytes"],
             "subchain_bytes": entry["subchain_bytes"],
             "shard_count": entry["shard_count"]}
            for nid, entry in sorted(storage.items())]
