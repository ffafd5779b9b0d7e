"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line directly to the terminal (the
real stdout, bypassing capture) so a full run always shows the verdict
table. Criteria tied to multi-core hardware are skipped with an explicit
message on smaller hosts.
"""

import dataclasses
import json
import os
import random
import sys
import time

import pytest

from shardchain import codec, mainchain, subchain, wallet
from shardchain.codec import NULL_HASH
from shardchain.errors import (
    AmountMismatch,
    BadPoW,
    ConfirmedFrozen,
    DoubleClaim,
    DuplicateHashConflict,
    Immature,
    InsufficientBalance,
    Oversize,
    StaleConfirmation,
    UnconfirmedSend,
    WrongRecipient,
)
from shardchain.mainchain import (
    EASY_BITS,
    BlockHeader,
    ChainParams,
    ConfirmationRecord,
    MainBlock,
    capacity,
    confirmations_root,
    make_genesis,
    seal,
    validate_block,
)
from shardchain.network import Envelope, MsgKind, SimTransport, TreeTopology, \
    broadcast
from shardchain.node import Node
from shardchain.sharding import ShardAssignment
from shardchain.sim import SimConfig, bench_storage, bench_verify, \
    derived_key, run_sim
from shardchain.subchain import (
    StaticClaimContext,
    SubchainFragment,
    initial_state,
    replay,
    verify_fragment,
)

from conftest import make_receive, make_send


@pytest.fixture
def announce(capfd):
    """Verdict printer that bypasses output capture, so every run shows
    one ACCEPTANCE line per criterion."""
    def _announce(number: int, name: str, status: str) -> None:
        with capfd.disabled():
            sys.stdout.write("ACCEPTANCE %d (%s): %s\n"
                             % (number, name, status))
            sys.stdout.flush()
    return _announce


def cpu_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# -- 1. conservation ---------------------------------------------------

def conservation_configs():
    widths = [4, 8, 16, 24, 32, 40, 48, 12, 20, 28]
    for seed in range(1, 21):
        yield SimConfig(
            seed=seed,
            accounts=200 + ((seed - 1) % 5) * 200,
            width=widths[(seed - 1) % len(widths)],
            avg_txs=1,
            block_limit=2048,            # capacity 32 records
            block_interval=15,
            blocks=30 + (seed % 3) * 10,
            node_count=3 if seed % 7 == 0 else 1,
            maturity=3,
            initial_balance=1000,
            claim_inflows=seed % 2 == 0)


def test_criterion_1_conservation(announce):
    try:
        start = time.perf_counter()
        for cfg in conservation_configs():
            report = run_sim(cfg)
            assert report["conservation"]["ok"], \
                "conservation broke at seed %d: %r" \
                % (cfg.seed, report["conservation"])
            assert report["non_empty_subchains"] == \
                report["active_accounts"]
        elapsed = time.perf_counter() - start
        assert elapsed < 300, "suite took %.1fs (budget 300s)" % elapsed
    except BaseException:
        announce(1, "conservation", "FAIL")
        raise
    announce(1, "conservation", "PASS (20 sims, %.1fs)" % elapsed)


# -- 2. oracle equivalence ---------------------------------------------

def test_criterion_2_oracle_equivalence(announce):
    try:
        rng = random.Random(202)
        ctx = StaticClaimContext()
        pool = [derived_key(b"oracle:%d" % i) for i in range(10)]
        for case in range(100):
            key = pool[case % len(pool)]
            n = rng.randrange(1, 201)
            balance = n * 2
            txs = []
            parent, height = NULL_HASH, 0
            for _ in range(n):
                tx = make_send(key, parent=parent, height=height + 1,
                               recipient=rng.randbytes(20), amount=1,
                               timestamp=rng.randrange(1 << 20))
                txs.append(tx)
                parent, height = tx.tx_hash, tx.height
            init = initial_state(key.address, balance)
            whole = replay(txs, ctx, initial=init)
            cut = rng.randrange(0, n + 1)
            prefix = replay(txs[:cut], ctx, initial=init)
            frag = SubchainFragment(address=key.address, from_height=cut,
                                    txs=tuple(txs[cut:]))
            composed = verify_fragment(prefix, frag, ctx)
            assert composed == whole, "field mismatch at case %d" % case
    except BaseException:
        announce(2, "oracle equivalence", "FAIL")
        raise
    announce(2, "oracle equivalence", "PASS (100 random subchains)")


# -- 3. safety rejections ----------------------------------------------

def _pow_node(alloc, maturity=1):
    params = ChainParams(difficulty_bits=EASY_BITS, block_limit=2048,
                         maturity=maturity)
    return Node(b"\x00" * 8, ShardAssignment(), make_genesis(alloc), params)


def _sealed(node, records, timestamp=None, parent=None, miner=b"\x4d" * 20):
    parent = parent if parent is not None else node.view.tip
    ts = node.view.height[parent] * 15 if timestamp is None else timestamp
    header = BlockHeader(parent, node.view.height[parent] + 1, ts, miner,
                         confirmations_root(records),
                         node.params.difficulty_bits)
    return seal(MainBlock(header, tuple(records)))


def test_criterion_3_safety_rejections(announce):
    try:
        rejected = []

        def case(name, expected, attack, control):
            control()
            with pytest.raises(expected):
                attack()
            rejected.append(name)

        a = derived_key(b"adv:a")
        b = derived_key(b"adv:b")
        c = derived_key(b"adv:c")
        ctx = StaticClaimContext()

        # overspend
        state = initial_state(a.address, 10)
        case("overspend", InsufficientBalance,
             lambda: subchain.apply_tx(state, make_send(a, amount=11), ctx),
             lambda: subchain.apply_tx(state, make_send(a, amount=10), ctx))

        # double claim / wrong recipient / amount mismatch
        send = make_send(a, amount=5, recipient=b.address)
        block_hash = b"\xb7" * 32
        claim_ctx = StaticClaimContext(
            sends={(a.address, send.tx_hash, block_hash): send})
        claimed = subchain.apply_tx(
            initial_state(b.address),
            make_receive(b, NULL_HASH, 1, a.address, send.tx_hash,
                         block_hash, 5), claim_ctx)
        case("double claim", DoubleClaim,
             lambda: subchain.apply_tx(
                 claimed, make_receive(b, claimed.tip_hash, 2, a.address,
                                       send.tx_hash, block_hash, 5),
                 claim_ctx),
             lambda: None)
        case("wrong recipient", WrongRecipient,
             lambda: subchain.apply_tx(
                 initial_state(c.address),
                 make_receive(c, NULL_HASH, 1, a.address, send.tx_hash,
                              block_hash, 5), claim_ctx),
             lambda: None)
        case("amount mismatch", AmountMismatch,
             lambda: subchain.apply_tx(
                 initial_state(b.address),
                 make_receive(b, NULL_HASH, 1, a.address, send.tx_hash,
                              block_hash, 6), claim_ctx),
             lambda: None)

        # immature claim, end to end through a node (maturity 6)
        node = _pow_node({a.address: 100}, maturity=6)
        live_send = make_send(a, amount=5, recipient=b.address)
        node.accept_pending_tx(live_send)
        sblock = _sealed(node, [ConfirmationRecord(a.address,
                                                   live_send.tx_hash, 1)])
        node.ingest_block(sblock)
        for _ in range(4):
            node.ingest_block(_sealed(node, []))   # depth now 5 < 6
        view5 = wallet.account_view(node, b.address)
        case("immature claim", (Immature, UnconfirmedSend),
             lambda: wallet.build_claim(view5, view5.claimables[0][0], b),
             lambda: None)
        node.ingest_block(_sealed(node, []))       # depth 6: claimable
        view6 = wallet.account_view(node, b.address)
        node.accept_pending_tx(
            wallet.build_claim(view6, view6.claimables[0][0], b))

        # below-freeze fork
        frozen = _pow_node({c.address: 100})
        t1, t2 = None, None
        tx1 = make_send(c, amount=1)
        frozen.accept_pending_tx(tx1)
        frozen.ingest_block(_sealed(frozen, [ConfirmationRecord(
            c.address, tx1.tx_hash, 1)]))
        rival = make_send(c, amount=2, timestamp=9)   # forks at height 1
        follow = make_send(c, parent=tx1.tx_hash, height=2, amount=2)
        case("below-freeze fork", ConfirmedFrozen,
             lambda: frozen.accept_pending_tx(rival),
             lambda: frozen.accept_pending_tx(follow))

        # forged duplicate hash
        dup = _pow_node({a.address: 100})
        legit = make_send(a, amount=1)
        forged = dataclasses.replace(make_send(a, amount=2, timestamp=7),
                                     tx_hash=legit.tx_hash)
        case("forged duplicate hash", DuplicateHashConflict,
             lambda: dup.accept_pending_tx(forged),
             lambda: dup.accept_pending_tx(legit))

        # oversize block
        tiny = _pow_node({})
        tiny.params = ChainParams(difficulty_bits=EASY_BITS,
                                  block_limit=mainchain.BLOCK_OVERHEAD
                                  + mainchain.RECORD_LEN)
        tiny.view.params = tiny.params
        recs = sorted([ConfirmationRecord(bytes([i]) * 20, NULL_HASH, 1)
                       for i in (1, 2)], key=lambda r: r.address)
        fat = _sealed(tiny, recs)
        ok = _sealed(tiny, recs[:1])
        case("oversize block", Oversize,
             lambda: validate_block(fat, tiny.view),
             lambda: validate_block(ok, tiny.view))

        # bad PoW: sealed under easy bits, validated under hard bits
        hard = _pow_node({})
        weak = _sealed(hard, [])
        hard.params = ChainParams(difficulty_bits=0x1D00FFFF,
                                  block_limit=2048)
        hard.view.params = hard.params
        case("bad PoW", BadPoW,
             lambda: validate_block(weak, hard.view),
             lambda: None)

        # stale confirmation
        stale_node = _pow_node({a.address: 100})
        s1 = make_send(a, amount=1)
        stale_node.accept_pending_tx(s1)
        rec = ConfirmationRecord(a.address, s1.tx_hash, 1)
        stale_node.ingest_block(_sealed(stale_node, [rec]))
        repeat = _sealed(stale_node, [rec], timestamp=99)
        case("stale confirmation", StaleConfirmation,
             lambda: stale_node.ingest_block(repeat),
             lambda: stale_node.ingest_block(_sealed(stale_node, [])))

        assert len(rejected) == 10
    except BaseException:
        announce(3, "safety rejections", "FAIL")
        raise
    announce(3, "safety rejections",
             "PASS (%d attack classes, all controls accepted)"
             % len(rejected))


# -- 4. saturation law -------------------------------------------------

def test_criterion_4_saturation_law(announce):
    try:
        # capacity law pinned against the encoding
        assert capacity(2048) == (2048 - 116) // 60 == 32
        assert capacity(716) == 10
        assert capacity(1 << 20) == 17474
        assert capacity(40 * 1024) == 680

        # under capacity: TPS is exactly W * avg_txs / interval
        under = SimConfig(seed=41, accounts=60, width=10, avg_txs=2,
                          block_limit=2048, block_interval=15, blocks=8,
                          initial_balance=1000, claim_inflows=False)
        report = run_sim(under)
        assert report["tps"] == under.width * under.avg_txs \
            / under.block_interval

        # over capacity: every block carries exactly C records
        over = SimConfig(seed=42, accounts=60, width=20, avg_txs=1,
                         block_limit=716, block_interval=15, blocks=6,
                         initial_balance=1000, claim_inflows=False)
        report = run_sim(over)
        assert all(r["records"] == 10 for r in report["blocks"])
        assert report["tps"] == 10 / over.block_interval

        cores = cpu_cores()
        floor_note = ""
        if cores >= 4:
            rows = bench_verify(4000, [4])
            rate = rows[0]["txs"] / rows[0]["seconds"]
            assert rate > 1000, "verify rate %.0f tx/s below floor" % rate
            floor_note = ", %.0f tx/s with 4 workers" % rate
        else:
            floor_note = ("; verify-throughput floor needs a >=4-core "
                          "host, this one has %d" % cores)
    except BaseException:
        announce(4, "saturation law", "FAIL")
        raise
    announce(4, "saturation law",
             "PASS (exact TPS law and plateau%s)" % floor_note)


# -- 5. parallel verification ------------------------------------------

def test_criterion_5_parallel_verification(announce):
    cores = cpu_cores()
    if cores < 4:
        announce(5, "parallel verification",
                 "SKIP (needs a >=4-core host, this one has %d)" % cores)
        pytest.skip("parallel speedup is defined on a >=4-core host; "
                    "this host has %d usable cores" % cores)
    try:
        start = time.perf_counter()
        rows = bench_verify(10_000, [1, 4])
        elapsed = time.perf_counter() - start
        one = next(r for r in rows if r["workers"] == 1)["seconds"]
        four = next(r for r in rows if r["workers"] == 4)["seconds"]
        assert four <= 0.6 * one, \
            "4 workers %.2fs vs 1 worker %.2fs" % (four, one)
        assert all(r["all_valid"] for r in rows)
        assert elapsed < 120
    except BaseException:
        announce(5, "parallel verification", "FAIL")
        raise
    announce(5, "parallel verification",
             "PASS (4w/1w = %.2f)" % (four / one))


# -- 6. storage sharding -----------------------------------------------

def test_criterion_6_storage_sharding(announce):
    try:
        cfg = SimConfig(seed=61, accounts=2000, width=32, avg_txs=1,
                        block_limit=2048, block_interval=15, blocks=30,
                        node_count=7, initial_balance=1000,
                        claim_inflows=False)
        rows = bench_storage(cfg)
        assert len({r["main_chain_bytes"] for r in rows}) == 1
        full = next(r for r in rows if r["depth"] == 0)["subchain_bytes"]
        halves = [r["subchain_bytes"] / full for r in rows
                  if r["depth"] == 1]
        quarters = [r["subchain_bytes"] / full for r in rows
                    if r["depth"] == 2]
        assert len(halves) == 2 and len(quarters) == 4
        for ratio in halves:
            assert 0.40 <= ratio <= 0.60, "half ratio %.3f" % ratio
        for ratio in quarters:
            assert 0.15 <= ratio <= 0.35, "quarter ratio %.3f" % ratio
    except BaseException:
        announce(6, "storage sharding", "FAIL")
        raise
    announce(6, "storage sharding",
             "PASS (half %s, quarter %s)"
             % (["%.2f" % r for r in halves],
                ["%.2f" % r for r in quarters]))


# -- 7. broadcast resilience -------------------------------------------

def test_criterion_7_broadcast_resilience(announce):
    try:
        start = time.perf_counter()
        checked = 0
        for size in (7, 15, 31):
            topo = TreeTopology(neighbor_count=2)
            ids = [topo.add_root()]
            while len(ids) < size:
                nid, _ = topo.join(ids[(len(ids) - 1) // 2])
                ids.append(nid)
            for dead in [None] + ids:
                alive = [n for n in ids if n != dead]
                for origin in alive:
                    transport = SimTransport(seed=7)
                    for n in ids:
                        transport.alive[n] = n != dead
                    env = Envelope(MsgKind.NewTx,
                                   b"probe:%s:%s" % (dead or b"-", origin))
                    report = broadcast(origin, env, topo, transport)
                    assert set(report.reached) == set(alive), \
                        "partition: size %d, dead %r, origin %r" \
                        % (size, dead, origin)
                    checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60, "sweep took %.1fs (budget 60s)" % elapsed
    except BaseException:
        announce(7, "broadcast resilience", "FAIL")
        raise
    announce(7, "broadcast resilience",
             "PASS (%d broadcasts, %.1fs)" % (checked, elapsed))


# -- 8. reorg correctness ----------------------------------------------

def test_criterion_8_reorg_correctness(announce):
    try:
        sender = derived_key(b"reorg:sender")
        rcpt = derived_key(b"reorg:rcpt")
        node = _pow_node({sender.address: 100}, maturity=6)
        send = make_send(sender, amount=30, recipient=rcpt.address)
        node.accept_pending_tx(send)
        a1 = _sealed(node, [ConfirmationRecord(sender.address,
                                               send.tx_hash, 1)],
                     timestamp=1)
        node.ingest_block(a1)
        for _ in range(4):
            node.ingest_block(_sealed(node, []))
        # depth 5 < maturity 6: the claim must be refused
        claim = make_receive(rcpt, NULL_HASH, 1, sender.address,
                             send.tx_hash, a1.block_hash, 30)
        with pytest.raises(UnconfirmedSend):
            node.accept_pending_tx(claim)
        node.ingest_block(_sealed(node, []))       # depth 6: accepted
        node.accept_pending_tx(claim)
        assert node.full_state(rcpt.address).balance == 30

        # 2-block reorg from the fork point orphans the confirming chain
        fork_parent = node.view.canonical[4]       # height 4 on branch a
        b5 = _sealed(node, [], timestamp=50, parent=fork_parent)
        node.ingest_block(b5)
        b6 = _sealed(node, [], timestamp=51, parent=b5.block_hash)
        node.ingest_block(b6)
        assert node.view.tip == node.view.canonical[6]   # still branch a
        b7 = _sealed(node, [], timestamp=52, parent=b6.block_hash)
        node.ingest_block(b7)
        assert node.view.tip == b7.block_hash
        # the fork point is above the confirming block, so the send stays
        # canonical and mature and the pending claim survives the reorg
        assert node.view.depth(a1.block_hash) == 7
        assert node.store.pending[rcpt.address] == [claim]
        assert node.full_state(rcpt.address).balance == 30
        # confirmation index equals a from-scratch canonical scan
        assert node.view.confirmations == \
            node.view.confirmations_at(node.view.tip)

        # deeper reorg that orphans the confirmation itself
        node2 = _pow_node({sender.address: 100}, maturity=1)
        send2 = make_send(sender, amount=30, recipient=rcpt.address)
        node2.accept_pending_tx(send2)
        c1 = _sealed(node2, [ConfirmationRecord(sender.address,
                                                send2.tx_hash, 1)],
                     timestamp=1)
        node2.ingest_block(c1)
        claim2 = make_receive(rcpt, NULL_HASH, 1, sender.address,
                              send2.tx_hash, c1.block_hash, 30)
        node2.accept_pending_tx(claim2)
        g = node2.genesis.block_hash
        d1 = _sealed(node2, [], timestamp=60, parent=g)
        node2.ingest_block(d1)
        d2 = _sealed(node2, [], timestamp=61, parent=d1.block_hash)
        node2.ingest_block(d2)
        assert node2.view.tip == d2.block_hash
        # the claim referenced an orphaned confirmation: invalidated
        assert rcpt.address not in node2.store.pending
        assert node2.full_state(rcpt.address).balance == 0
        # the orphaned send returns to the pending pool for re-confirmation
        assert node2.store.pending[sender.address] == [send2]
        assert node2.view.confirmations == \
            node2.view.confirmations_at(node2.view.tip)
    except BaseException:
        announce(8, "reorg correctness", "FAIL")
        raise
    announce(8, "reorg correctness", "PASS")


# -- 9. determinism ----------------------------------------------------

def test_criterion_9_determinism(announce):
    try:
        cfg = SimConfig(seed=91, accounts=50, width=8, avg_txs=2,
                        block_limit=2048, block_interval=15, blocks=6,
                        node_count=3, maturity=3, initial_balance=1000)
        a = json.dumps(run_sim(cfg), sort_keys=True).encode()
        b = json.dumps(run_sim(cfg), sort_keys=True).encode()
        assert a == b
    except BaseException:
        announce(9, "determinism", "FAIL")
        raise
    announce(9, "determinism", "PASS (byte-identical reports)")
