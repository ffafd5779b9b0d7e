import gc
import hashlib
import json
import math
from collections import Counter, defaultdict

import pytest

from shardchain import codec, live, mainchain, miner, network, node, \
    subchain, wallet
from shardchain.codec import ReceiveTx, SendTx, sha256
from shardchain.errors import ConfigInvalid, InvalidSeed, InvariantViolation
from shardchain.mainchain import ConfirmationRecord, capacity
from shardchain.sim import (
    SimConfig,
    Simulation,
    bench_storage,
    bench_verify,
    derived_key,
    run_sim,
)

from conftest import assert_chains_are_canonical, \
    assert_confirmed_are_replays, assert_inflows_are_an_index, make_send, \
    rival_branch, tails


# the 7-node sim whose data dirs are compared across runs and builds
DATA_DIR_CFG = SimConfig(seed=5, accounts=40, width=8, avg_txs=2,
                         block_limit=2048, blocks=8, node_count=7)


def small_cfg(**overrides):
    base = dict(seed=3, accounts=30, width=6, avg_txs=2, block_limit=2048,
                block_interval=15, blocks=6, node_count=3,
                initial_balance=1000, claim_inflows=False)
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    @pytest.mark.parametrize("field,value", [
        ("accounts", 0), ("blocks", 0), ("block_interval", 0),
        ("node_count", 0), ("maturity", 0), ("maturity", -3),
        # bits that encode no target (mainchain.target): refused before
        # the first block is sealed
        ("difficulty_bits", 0), ("difficulty_bits", 0x01000000),
        ("difficulty_bits", 0x20000000),
    ])
    def test_positive_fields(self, field, value):
        with pytest.raises(ConfigInvalid):
            small_cfg(**{field: value}).validate()

    @pytest.mark.parametrize("field,value", [
        ("initial_balance", 2**64), ("initial_balance", -1),
    ])
    def test_u64_fields(self, field, value):
        """A u64 on the wire: a value outside it is refused before the
        genesis is encoded."""
        with pytest.raises(ConfigInvalid):
            small_cfg(**{field: value}).validate()
        small_cfg(**{field: 2**64 - 1}).validate()

    def test_width_bounds(self):
        with pytest.raises(ConfigInvalid):
            small_cfg(width=31).validate()
        small_cfg(width=0).validate()   # zero load is a valid heartbeat run

    def test_block_limit_floor(self):
        with pytest.raises(ConfigInvalid):
            small_cfg(block_limit=100).validate()

    def test_latency_range(self):
        with pytest.raises(ConfigInvalid):
            small_cfg(latency_min_ms=5.0, latency_max_ms=1.0).validate()

    @pytest.mark.parametrize("lo,hi", [
        (math.nan, math.nan), (math.nan, 5.0), (1.0, math.nan),
        (1.0, math.inf), (math.inf, math.inf)])
    def test_latency_must_be_finite(self, lo, hi):
        """A NaN or infinite latency would leave the event heap's order
        undefined and the report's config outside JSON."""
        with pytest.raises(ConfigInvalid):
            small_cfg(latency_min_ms=lo, latency_max_ms=hi).validate()


class TestRuns:
    def test_zero_width_heartbeats(self):
        report = run_sim(small_cfg(width=0, blocks=4))
        assert report["total_txs_confirmed"] == 0
        assert len(report["blocks"]) == 4
        assert all(r["records"] == 0 for r in report["blocks"])
        assert report["conservation"]["ok"]

    def test_conservation_and_shard_count(self):
        report = run_sim(small_cfg())
        assert report["conservation"]["ok"]
        assert report["non_empty_subchains"] == report["active_accounts"]
        assert report["total_txs_confirmed"] > 0

    def test_saturation_law_exact(self):
        """Under capacity, steady-state TPS is exactly width*avg_txs/interval."""
        cfg = small_cfg(accounts=40, width=10, avg_txs=2, blocks=8)
        report = run_sim(cfg)
        assert capacity(cfg.block_limit) >= cfg.width
        assert report["tps"] == pytest.approx(
            cfg.width * cfg.avg_txs / cfg.block_interval)

    def test_capacity_plateau_exact(self):
        """Over capacity, every block carries exactly `capacity` records."""
        cfg = small_cfg(accounts=40, width=20, avg_txs=1, block_limit=716,
                        blocks=6)
        assert capacity(716) == 10
        report = run_sim(cfg)
        assert all(r["records"] == 10 for r in report["blocks"])
        assert report["tps"] == pytest.approx(10 / cfg.block_interval)

    def test_deterministic_reports(self):
        a = json.dumps(run_sim(small_cfg()), sort_keys=True)
        b = json.dumps(run_sim(small_cfg()), sort_keys=True)
        assert a == b

    def test_deterministic_data_dirs(self, tmp_path):
        """Signatures take RFC 6979 nonces, so two runs of one seeded
        7-node sim write byte-identical data dirs at every node, not only
        equal reports."""
        runs = []
        for run in "ab":
            sim = Simulation(DATA_DIR_CFG)
            sim.run()
            files = {}
            for nid, n in sim.nodes.items():
                data_dir = tmp_path / run / nid.hex()
                live.save_node(n, str(data_dir))
                for name in (live.LOG_FILE, live.META_FILE):
                    files[nid, name] = (data_dir / name).read_bytes()
            runs.append(files)
        assert len(runs[0]) == 2 * 7
        assert all(len(runs[0][nid, live.LOG_FILE]) > 2 * 2048
                   for nid in sim.nodes)
        assert runs[0] == runs[1]

    def test_root_log_pinned(self, tmp_path):
        """The root's log.bin of that sim is byte-identical across builds,
        not only across runs: a change to the wire or log format shows
        here and must say why and re-pin it."""
        sim = Simulation(DATA_DIR_CFG)
        sim.run()
        live.save_node(sim.root, str(tmp_path))
        log = (tmp_path / live.LOG_FILE).read_bytes()
        assert hashlib.sha256(log).hexdigest() == \
            "14edf374eb246f3cc1eec3e667996fde5425d959f2e5d84f49139e0ade33de89"

    def test_each_node_holds_one_object_per_value(self):
        """After a 7-node run with claims, each node holds one object per
        address and per cited block hash across its held txs, its
        inflows' senders and its archive's keys, and each held tx holds
        the hash object of the held tx below it as its parent. Blocks are
        left out: a block is decoded with no lookup."""
        sim = Simulation(DATA_DIR_CFG._replace(maturity=2))
        sim.run()
        claims = 0
        for n in sim.nodes.values():
            objects = defaultdict(set)
            held = n.store.chains.values()
            values = [(tx.current_address, tx[3])
                      + ((tx.main_block_hash,) if type(tx) is ReceiveTx
                         else ()) for txs in held for tx in txs]
            values += [(recipient, flow.sender_address)
                       for recipient, pool in n.inflows().items()
                       for flow in pool.values()]
            values += [tuple(entry) for entry in n.store.archive.values()]
            for value in (v for vs in values for v in vs):
                objects[value].add(id(value))
            assert {v.hex(): len(ids) for v, ids in objects.items()
                    if len(ids) > 1} == {}, n.assignment.prefix_bits
            for txs in held:
                assert all(child.parent_hash is tx.tx_hash
                           for tx, child in zip(txs, txs[1:]))
            claims += sum(type(tx) is ReceiveTx for txs in held for tx in txs)
        assert claims

    def test_nothing_per_record_outlives_ingest(self):
        """After the 7-node run whose data dirs are compared, no record
        decoded in it is alive, and each node's index maps each address to
        its tip height, an int, and to the hash of a block it holds."""

        def records():
            gc.collect()
            return [o for o in gc.get_objects()
                    if type(o) is ConfirmationRecord]

        # other tests' records, held so that no new one takes their ids
        earlier = records()
        sim = Simulation(DATA_DIR_CFG)
        sim.run()
        assert set(map(id, records())) <= set(map(id, earlier))
        for n in sim.nodes.values():
            view = n.view
            assert view.blocks and view.tip_heights
            assert view.tip_heights.keys() == view.confirmed_by.keys()
            assert all(type(height) is int
                       for height in view.tip_heights.values())
            assert all(bh in view.blocks
                       for bh in view.confirmed_by.values())

    def test_seed_changes_outcome(self):
        a = run_sim(small_cfg(seed=3))
        b = run_sim(small_cfg(seed=4))
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_all_nodes_share_tip(self):
        sim = Simulation(small_cfg(node_count=7))
        sim.run()
        tips = {n.view.tip for n in sim.nodes.values()}
        assert len(tips) == 1

    def test_claim_inflows_cycle(self):
        """With claiming enabled, recipients spend received funds and the
        books still balance exactly."""
        report = run_sim(small_cfg(claim_inflows=True, maturity=2,
                                   blocks=8, initial_balance=4))
        assert report["conservation"]["ok"]

    # the case ids are fixed, so that a re-pin keeps each case's name
    @pytest.mark.parametrize("cfg,digest", [
        # the criterion-9 config
        (SimConfig(seed=91, accounts=50, width=8, avg_txs=2,
                   block_limit=2048, block_interval=15, blocks=6,
                   node_count=3, maturity=3, initial_balance=1000),
         "f7b6515dbed001e2888f56cfa6f34f347ee06ed80f4efcba12d191a0fb031f53"),
        # width 20 over capacity 10, claims on: tail lengths and ties
        # decide which addresses each block confirms
        (SimConfig(seed=5, accounts=40, width=20, avg_txs=2,
                   block_limit=716, block_interval=15, blocks=8,
                   node_count=3, maturity=2, initial_balance=1000),
         "2f18be71d88b2eba43d577151a0af85bfee25cd0b10ad89a9261dd4df966872e"),
        # the depth-2 tree, claims on: batches reach only their hosts
        (SimConfig(seed=7, accounts=40, width=10, avg_txs=2,
                   block_limit=2048, block_interval=15, blocks=8,
                   node_count=7, maturity=2, initial_balance=1000),
         "fb7e18d26c6f82e27b4cfe54be56b47f79125926f867104f2d32e354a7c34ab2"),
    ], ids=["criterion9", "over_capacity", "depth2_tree"])
    def test_reports_pinned(self, cfg, digest):
        """Reports are byte-identical across builds, not only across runs:
        a change that alters one must say why and re-pin it."""
        report = json.dumps(run_sim(cfg), sort_keys=True).encode()
        assert hashlib.sha256(report).hexdigest() == digest

    def test_batches_reach_only_their_hosts(self, monkeypatch):
        """On the depth-2 tree a node is handed only the txs of accounts
        it hosts, and an account batch costs a few link messages, not a
        flood of every link."""
        sim = Simulation(small_cfg(node_count=7, claim_inflows=True,
                                   maturity=2, blocks=6))
        accepted = Counter()
        links = Counter()
        batches = Counter()
        accept = node.Node.accept_pending_tx
        send = network.SimTransport.send
        originate = network.FloodRouter.originate

        def noted_accept(self, *txs):
            accepted[self.hosts(txs[0].current_address)] += 1
            return accept(self, *txs)

        def noted_send(self, sender, dest, env):
            links[env.kind] += 1
            return send(self, sender, dest, env)

        def noted_originate(self, origin, env):
            batches[env.kind] += 1
            return originate(self, origin, env)

        monkeypatch.setattr(node.Node, "accept_pending_tx", noted_accept)
        monkeypatch.setattr(network.SimTransport, "send", noted_send)
        monkeypatch.setattr(network.FloodRouter, "originate",
                            noted_originate)
        sim.run()
        new_tx = network.MsgKind.NewTx
        assert accepted[True] > 0 and accepted[False] == 0
        assert batches[new_tx] > 0
        assert links[new_tx] <= 5 * batches[new_tx]

    def test_errors_surface(self):
        sim = Simulation(small_cfg(blocks=2))
        sim.run_interval()
        sim.errors.append("synthetic failure")
        with pytest.raises(InvariantViolation):
            sim.report()

    @pytest.fixture
    def finished(self):
        sim = Simulation(small_cfg(blocks=3))
        sim.run()     # the untouched run passes both checks
        return sim

    def test_conservation_failure_surfaces(self, finished):
        """A confirmed balance one unit above what the chain gave it."""
        confirmed = finished.root.store.confirmed
        address = min(finished.active)
        confirmed[address] = confirmed[address]._replace(
            balance=confirmed[address].balance + 1)
        with pytest.raises(InvariantViolation, match="conservation"):
            finished.report()

    def test_shard_count_failure_surfaces(self, finished):
        """An account counted active that holds no subchain."""
        finished.active.add(next(a for a in finished.addresses
                                 if a not in finished.active))
        with pytest.raises(InvariantViolation, match="shard count"):
            finished.report()


# the sim-7node-shaped run, and a depth-3 tree of 15 nodes
SHARD_RUNS = [
    SimConfig(seed=1001, accounts=400, width=40, avg_txs=2, blocks=24,
              node_count=7),
    SimConfig(seed=3, accounts=120, width=15, avg_txs=2, blocks=16,
              node_count=15),
]


@pytest.fixture(scope="module", params=SHARD_RUNS,
                ids=lambda cfg: "%dnodes" % cfg.node_count)
def finished_sim(request):
    sim = Simulation(request.param)
    sim.run()       # the report raises on any sim error
    return sim


def by_address(node_, names):
    """The named keyspaces of a node's store, grouped by the address each
    entry belongs to: an (address, height) key by its address (an empty
    inflow pool counts as none). The inflow index is read through
    ``Node.inflows``."""
    out = defaultdict(dict)
    for name in names:
        held = node_.inflows() if name == "inflows" \
            else getattr(node_.store, name)
        for key, value in held.items():
            if isinstance(key, tuple):
                out[key[0]].setdefault(name, {})[key[1]] = value
            elif value or name != "inflows":
                out[key][name] = value
    return out


def assert_shards_match_root(sim, names):
    """Each non-root node holds, for every address it hosts, exactly what
    the full root node holds, and nothing for any other address."""
    assert sim.root.assignment.depth == 0
    full = by_address(sim.root, names)
    for node_ in sim.nodes.values():
        if node_ is sim.root:
            continue
        held = by_address(node_, names)
        assert dict(held) == {a: entries for a, entries in full.items()
                              if node_.hosts(a)}, node_.assignment


class TestPlumbing:
    def test_derived_key_hashes_a_refused_seed_again(self, monkeypatch):
        keygen, seeds = codec.keygen, []

        def refuse_first(seed):
            seeds.append(seed)
            if len(seeds) == 1:
                raise InvalidSeed("refused once")
            return keygen(seed)
        monkeypatch.setattr(codec, "keygen", refuse_first)
        key = derived_key(b"label")
        assert seeds == [sha256(b"label"), sha256(sha256(b"label"))]
        assert key == keygen(seeds[1])

    def test_send_lookup_asks_only_live_hosts(self):
        """A confirmed send is found at a live host on its sender's path,
        and at none once every node is down."""
        sim = Simulation(small_cfg(blocks=3))
        for _ in range(sim.cfg.blocks):
            sim.run_interval()
        root = sim.root
        bh, send = next((bh, tx) for bh in root.view.canonical[1:]
                        for txs, _ in root.store.archive[bh].values()
                        for tx in txs if type(tx) is SendTx)
        cited = (send.current_address, send.tx_hash, bh)
        assert sim._send_lookup(*cited) == send
        assert sim._send_lookup(send.current_address, sha256(b"none"),
                                bh) is None
        for nid in sim.nodes:
            sim.transport.alive[nid] = False
        assert sim._send_lookup(*cited) is None


class TestShardEquivalence:
    def test_nodes_agree_shard_by_shard(self, finished_sim):
        assert_shards_match_root(finished_sim, [
            "confirmed", "chains", "tail_states", "txs"])

    def test_root_states_are_replays(self, finished_sim):
        assert_confirmed_are_replays(finished_sim.root)

    def test_archive_holds_hosted_records(self, finished_sim):
        """Every node archives each block it accepted, and in each entry
        exactly the block's records it hosts, in record order."""
        for node_ in finished_sim.nodes.values():
            blocks = node_.view.blocks
            assert set(node_.store.archive) == set(blocks)
            for bh, entry in node_.store.archive.items():
                assert list(entry) == [
                    rec.address for rec in blocks[bh].confirmations
                    if node_.hosts(rec.address)], (node_.assignment, bh)

    def test_inflows_are_an_index(self, finished_sim):
        for node_ in finished_sim.nodes.values():
            assert_inflows_are_an_index(node_)

    @pytest.mark.xfail(raises=AssertionError,
                       reason="a partial node indexes no inflow from a "
                       "sender it does not host (ROADMAP item 2)")
    def test_hosted_inflows_agree(self, finished_sim):
        assert_shards_match_root(finished_sim, ["inflows"])


class TestHostedChains:
    """The hosted chains and the send index against the canonical
    archive, at every node after every block."""

    def test_sim_7node_run(self, monkeypatch):
        """Also counts each node's reads of its inflow index: the root's
        wallet reads it every interval, and a node that has not read it
        has indexed no block, however many it connected."""
        sim = Simulation(SHARD_RUNS[0])
        reads = Counter()
        read = node.Node.inflows

        def counted(node_):
            reads[node_.node_id] += 1
            return read(node_)

        monkeypatch.setattr(node.Node, "inflows", counted)
        for _ in range(sim.cfg.blocks):
            sim.run_interval()
            for node_ in sim.nodes.values():
                assert_chains_are_canonical(node_)
                if not reads[node_.node_id]:
                    assert node_.store.inflows == {}
                    assert node_.store.unindexed \
                        == node_.view.canonical[1:]
        assert not sim.errors
        assert list(reads) == [sim.root.node_id]

    def test_reorg_3node_run(self):
        """A full and two half nodes; every 10 blocks a rival branch of
        depth 1 or 6, in turn, wins. Before it floods, two accounts pool
        a batch of sends: one that the tip block confirms, and one that
        none of the last 6 blocks does. So the reorg meets a pending tail
        at each node hosting them, above a disconnected confirmation or
        not, and each tail pools again on the rival branch."""
        sim = Simulation(SimConfig(seed=1, accounts=200, width=20,
                                   avg_txs=1, blocks=60, node_count=3))
        rival = b"\x5a" * 20
        depths = iter([1, 6] * 3)
        root = sim.root

        def funded(address):
            return address not in root.store.tail_states \
                and root.full_state(address).balance >= 2

        for i in range(1, sim.cfg.blocks + 1):
            sim.run_interval()
            for node_ in sim.nodes.values():
                assert_chains_are_canonical(node_)
            if i % 10:
                continue
            view = root.view
            recent = {rec.address for bh in view.canonical[-6:]
                      for rec in view.blocks[bh].confirmations}
            batches = {}
            for address in (
                    next(rec.address for rec in
                         view.blocks[view.tip].confirmations
                         if funded(rec.address)),
                    next(a for a in sim.addresses
                         if a not in recent and funded(a))):
                # sends alone: a claim of an inflow the rival disconnects
                # would not pool again
                account = wallet.account_view(root, address)
                account.claimables = []
                batches[address] = wallet.batch_settle(
                    account, [(rival, 1)] * 2, sim.key_of[address],
                    timestamp=sim.now)
                sim.broadcast(codec.MsgKind.NewTx,
                              subchain.encode_batch(batches[address]))
            sim.transport.run()
            held = {n.node_id: {a: batch for a, batch in batches.items()
                                if n.hosts(a)}
                    for n in sim.nodes.values()}
            assert {n.node_id: tails(n) for n in sim.nodes.values()} == held
            for block in rival_branch(sim, next(depths), rival):
                for node_ in sim.nodes.values():
                    assert_chains_are_canonical(node_)
            assert root.view.tip == block.block_hash
            assert {n.node_id: tails(n) for n in sim.nodes.values()} == held


def stall_cfg(**overrides):
    return SimConfig(seed=5, accounts=40, width=8, avg_txs=2,
                     block_limit=2048, **overrides)


class TestStalls:
    """Three ways a node stops following the chain for good. Each test
    states the behaviour its ROADMAP item must give, and fails until
    then."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a node that missed two blocks asks no peer "
                       "for them, so it never catches up (ROADMAP item 18)")
    def test_node_catches_up_after_an_outage(self):
        """The last node (depth 2) is down for intervals 4 and 5, then
        up: it ends at the root's tip with no error."""
        sim = Simulation(stall_cfg(blocks=12, node_count=7))
        last = list(sim.nodes)[-1]
        for i in range(sim.cfg.blocks):
            sim.transport.alive[last] = i not in (4, 5)
            sim.run_interval()
        assert [n.view.tip for n in sim.nodes.values()] \
            == [sim.root.view.tip] * 7
        assert sim.errors == []

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a host that missed a NewTx flood has no "
                       "source for the fragment a block then confirms "
                       "(ROADMAP item 7)")
    def test_missed_new_tx_does_not_stall_a_host(self):
        """The last node (depth 2) is down for interval 4's NewTx flood
        only, and up again before that interval's block is built: it ends
        at the root's tip with no error."""
        sim = Simulation(stall_cfg(blocks=12, node_count=7))
        last = list(sim.nodes)[-1]
        build = sim.miner.build_template

        def revive_then_build(timestamp):
            sim.transport.alive[last] = True
            return build(timestamp)

        sim.miner.build_template = revive_then_build
        for i in range(sim.cfg.blocks):
            sim.transport.alive[last] = i != 4
            sim.run_interval()
        assert [n.view.tip for n in sim.nodes.values()] \
            == [sim.root.view.tip] * 7
        assert sim.errors == []

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="nothing serves a hosting node the confirmed "
                       "version of an equivocated send (ROADMAP item 7)")
    def test_equivocation_does_not_stall_a_host(self):
        """The root and a half node each pool another signed height-1
        send by one account that the half node hosts: every node ends at
        the root's tip, and the half node confirms what the root does."""
        sim = Simulation(stall_cfg(blocks=6, node_count=3))
        half = list(sim.nodes.values())[1]
        key = next(k for k in sim.keys if half.hosts(k.address))
        for node_, amount in ((sim.root, 1), (half, 2)):
            node_.apply_request(network.MsgKind.NewTx, subchain.encode_batch(
                [make_send(key, amount=amount)]))
        for _ in range(sim.cfg.blocks):
            sim.run_interval()
        assert [n.view.tip for n in sim.nodes.values()] \
            == [sim.root.view.tip] * 3
        assert half.confirmed_state(key.address) \
            == sim.root.confirmed_state(key.address)


class TestHostileMiner:
    """A hostile miner seals two blocks on the tip, each with one record
    whose tip hash no fragment backs, for an address that half node B
    hosts and half node A does not (ROADMAP item 27). A node fully
    checks the addresses it hosts and is SPV grade for the rest: it
    gives a foreign record only the main chain's checks."""

    HOSTILE = b"\xee" * 20

    @classmethod
    def split(cls):
        """The seed-5 3-node sim after 4 intervals, then the two forged
        blocks flooded from the root: the sim, A, B and the blocks."""
        sim = Simulation(SimConfig(seed=5, accounts=60, width=8,
                                   node_count=3))
        for _ in range(4):
            sim.run_interval()
        a, b = list(sim.nodes.values())[1:]
        address = next(x for x in sim.addresses
                       if b.hosts(x) and not a.hosts(x))
        view = sim.root.view
        parent, tip_height = view.tip, view.tip_height
        confirmed = view.tip_heights.get(address, 0)
        forged = []
        for i in (1, 2):
            block = mainchain.new_block(
                parent, tip_height + i, sim.now, cls.HOSTILE,
                [ConfirmationRecord(address, sha256(b"forged:%d" % i),
                                    confirmed + i)],
                sim.params.difficulty_bits)
            sim.broadcast(network.MsgKind.NewBlock, block.encode())
            sim.transport.run()
            forged.append(block)
            parent = block.block_hash
        return sim, a, b, forged

    def test_foreign_node_follows_then_returns(self, monkeypatch):
        """The root and B refuse the first forged block (no fragment) and
        so the second (unknown parent); A adopts both and sits two blocks
        ahead for two honest intervals. The third honest block outweighs
        its branch: A returns to the root's tip through that winning side
        block, one switch to its parent (2 blocks out, 2 in) and then its
        connect, and ends with hosted states equal to the root's. The
        root's errors make ``report`` raise, so node state is read."""
        sim, a, b, forged = self.split()
        honest = sim.root.view.tip
        assert a.view.tip == forged[-1].block_hash
        assert b.view.tip == honest
        assert sorted(e.split(": ")[1].split("(")[0] for e in sim.errors) \
            == ["PartialFetch", "PartialFetch", "UnknownParent",
                "UnknownParent"]
        for _ in range(2):
            sim.run_interval()
            assert a.view.tip == forged[-1].block_hash
            assert b.view.tip == sim.root.view.tip != forged[-1].block_hash
        moves = []
        switch = mainchain.ChainView.switch

        def counted(view, tip, read=None):
            out = switch(view, tip, read)
            if view is a.view:
                moves.append((len(out[0]), len(out[1])))
            return out
        monkeypatch.setattr(mainchain.ChainView, "switch", counted)
        sim.run_interval()
        assert moves == [(2, 2), (0, 1)]
        assert [n.view.tip for n in sim.nodes.values()] \
            == [sim.root.view.tip] * 3
        assert len(sim.errors) == 4
        names = ["confirmed", "chains", "tail_states", "txs"]
        full = by_address(sim.root, names)
        assert dict(by_address(a, names)) \
            == {x: held for x, held in full.items() if a.hosts(x)}
        assert_chains_are_canonical(a)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a node checks only its hosted records, so "
                       "the half node that does not host the forged "
                       "record's address adopts the block (ROADMAP item "
                       "27, stage 2)")
    def test_no_node_adopts_a_forged_record(self):
        sim, _, _, forged = self.split()
        assert not any(f.block_hash in n.view.blocks
                       for n in sim.nodes.values() for f in forged)


class TestBench:
    def test_bench_verify_counts(self):
        rows = bench_verify(40, [1, 2])
        assert [r["workers"] for r in rows] == [1, 2]
        assert all(r["all_valid"] and r["txs"] == 40 for r in rows)
        assert all(r["seconds"] > 0 for r in rows)

    def test_bench_verify_refuses_verdicts_that_differ(self, monkeypatch):
        counts = []

        def verdicts(txs, workers):
            counts.append(workers)
            return [workers == 1] * len(txs)
        monkeypatch.setattr(miner, "verify_batch", verdicts)
        with pytest.raises(InvariantViolation, match="differ"):
            bench_verify(4, [1, 2])
        assert counts == [1, 2]

    def test_bench_verify_bad_count(self):
        with pytest.raises(ConfigInvalid):
            bench_verify(0, [1])

    def test_bench_storage_refuses_other_node_counts(self):
        with pytest.raises(ConfigInvalid):
            bench_storage(small_cfg(node_count=3))

    def test_bench_storage_tree_shape(self):
        rows = bench_storage(small_cfg(blocks=4, accounts=40, width=8,
                                       node_count=7))
        assert len(rows) == 7
        assert sorted(r["depth"] for r in rows) == [0, 1, 1, 2, 2, 2, 2]
        # identical main chain everywhere
        assert len({r["main_chain_bytes"] for r in rows}) == 1
        full = next(r for r in rows if r["depth"] == 0)
        halves = [r for r in rows if r["depth"] == 1]
        # the two half nodes partition the full node's subchain bytes
        assert sum(r["subchain_bytes"] for r in halves) == \
            full["subchain_bytes"]
        assert sum(r["shard_count"] for r in halves) == full["shard_count"]
