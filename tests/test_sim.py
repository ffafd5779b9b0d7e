import hashlib
import json
from collections import Counter

import pytest

from shardchain import network, node
from shardchain.errors import ConfigInvalid, InvariantViolation
from shardchain.mainchain import capacity
from shardchain.sim import (
    SimConfig,
    Simulation,
    bench_storage,
    bench_verify,
    run_sim,
)


def small_cfg(**overrides):
    base = dict(seed=3, accounts=30, width=6, avg_txs=2, block_limit=2048,
                block_interval=15, blocks=6, node_count=3,
                initial_balance=1000, claim_inflows=False)
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    @pytest.mark.parametrize("field,value", [
        ("accounts", 0), ("blocks", 0), ("block_interval", 0),
        ("node_count", 0), ("send_amount", 0), ("maturity", 0),
        ("maturity", -3), ("neighbor_count", -1),
    ])
    def test_positive_fields(self, field, value):
        with pytest.raises(ConfigInvalid):
            small_cfg(**{field: value}).validate()

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

    @pytest.mark.parametrize("cfg,digest", [
        # the criterion-9 config
        (SimConfig(seed=91, accounts=50, width=8, avg_txs=2,
                   block_limit=2048, block_interval=15, blocks=6,
                   node_count=3, maturity=3, initial_balance=1000),
         "bb5e6799d2a847ddc0194903491636429ba80de4f858d34ed3ed4135231af790"),
        # width 20 over capacity 10, claims on: tail lengths and ties
        # decide which addresses each block confirms
        (SimConfig(seed=5, accounts=40, width=20, avg_txs=2,
                   block_limit=716, block_interval=15, blocks=8,
                   node_count=3, maturity=2, initial_balance=1000),
         "68c8111f7b90f5859683cb4044411aac5f1cba64fa58f7fd80f341c434595882"),
        # the depth-2 tree, claims on: batches reach only their hosts
        (SimConfig(seed=7, accounts=40, width=10, avg_txs=2,
                   block_limit=2048, block_interval=15, blocks=8,
                   node_count=7, maturity=2, initial_balance=1000),
         "c6e39f786116a4341be6fc9dbab0eb32e1e5845c20634f580d8c020b972bfae3"),
    ])
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

        def noted_accept(self, tx):
            accepted[self.hosts(tx.current_address)] += 1
            return accept(self, tx)

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


class TestBench:
    def test_bench_verify_counts(self):
        rows = bench_verify(40, [1, 2])
        assert [r["workers"] for r in rows] == [1, 2]
        assert all(r["all_valid"] and r["txs"] == 40 for r in rows)
        assert all(r["seconds"] > 0 for r in rows)

    def test_bench_verify_bad_count(self):
        with pytest.raises(ConfigInvalid):
            bench_verify(0, [1])

    def test_bench_storage_tree_shape(self):
        rows = bench_storage(small_cfg(blocks=4, accounts=40, width=8))
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
