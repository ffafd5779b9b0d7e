import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from shardchain import cli, codec, live
from shardchain.mainchain import ChainParams, EASY_BITS
from shardchain.sim import derived_key

from conftest import make_send

SIM_FLAGS = ["sim", "--seed", "5", "--accounts", "30", "--width", "5",
             "--avg-txs", "1", "--block-size", "2048", "--interval", "15",
             "--blocks", "4", "--nodes", "3", "--no-claims",
             "--initial-balance", "100"]


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "shardchain.cli"] + argv,
                          capture_output=True, text=True, timeout=300)


class TestKeygen:
    def test_seeded_deterministic(self):
        a = run_cli(["keygen", "--seed", "11" * 32])
        b = run_cli(["keygen", "--seed", "11" * 32])
        assert a.returncode == 0
        assert a.stdout == b.stdout
        out = json.loads(a.stdout)
        assert set(out) == {"secret", "public", "address"}
        assert len(bytes.fromhex(out["address"])) == 20

    def test_unseeded_random(self):
        a = json.loads(run_cli(["keygen"]).stdout)
        b = json.loads(run_cli(["keygen"]).stdout)
        assert a["address"] != b["address"]


class TestSim:
    def test_json_deterministic(self):
        a = run_cli(SIM_FLAGS)
        b = run_cli(SIM_FLAGS)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout
        report = json.loads(a.stdout)
        assert report["conservation"]["ok"]
        assert len(report["blocks"]) == 4

    def test_csv_output(self):
        res = run_cli(SIM_FLAGS + ["--out", "csv"])
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "height,records,txs_covered,bytes"
        assert len(lines) == 6   # header + 4 blocks + summary comment
        assert lines[-1].startswith("# tps=")

    def test_profile_overrides_size(self):
        res = run_cli(["sim", "--seed", "2", "--accounts", "20", "--width",
                       "3", "--blocks", "2", "--no-claims",
                       "--profile", "ethereum-like"])
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["config"]["block_limit"] == 40 * 1024
        assert report["config"]["block_interval"] == 15

    def test_config_error_json(self):
        res = run_cli(["sim", "--width", "200", "--accounts", "10"])
        assert res.returncode == 1
        assert json.loads(res.stdout)["error"] == "ConfigInvalid"

    def test_unknown_flag_exit_2(self):
        res = run_cli(["sim", "--bogus-flag"])
        assert res.returncode == 2

    def test_missing_command_exit_2(self):
        res = run_cli([])
        assert res.returncode == 2


class TestBenchCommands:
    def test_bench_verify_csv(self):
        res = run_cli(["bench-verify", "--txs", "20", "--workers", "1,2"])
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "workers,seconds,txs,all_valid"
        assert len(lines) == 3

    def test_bench_storage_json(self):
        res = run_cli(["bench-storage", "--seed", "5", "--accounts", "40",
                       "--width", "6", "--blocks", "3", "--no-claims",
                       "--initial-balance", "100", "--out", "json"])
        assert res.returncode == 0, res.stderr
        rows = json.loads(res.stdout)
        assert len(rows) == 7
        assert sorted(r["depth"] for r in rows) == [0, 1, 1, 2, 2, 2, 2]


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture
def live_node(tmp_path, keys):
    params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                         block_interval=15, maturity=1)
    alloc = {keys[0].address: 1000}
    data_dir = str(tmp_path / "node")
    live.init_data_dir(data_dir, alloc, params)
    port = free_port()
    server = live.NodeServer(data_dir, ("127.0.0.1", port))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, port, params
    server.shutdown()


class TestLiveNode:
    def test_tx_mine_persist_roundtrip(self, live_node, keys, tmp_path):
        server, port, params = live_node
        client = live.NodeClient("127.0.0.1", port)
        try:
            tx = make_send(keys[0], amount=7)
            client.submit_tx(tx)
            _, tip, tip_height, pending = client.hello()
            assert tip_height == 0 and len(pending) == 1
            block = live.mine_once(client, b"\x4d" * 20, params,
                                   timestamp=15)
            assert len(block.confirmations) == 1
            _, _, tip_height, pending = client.hello()
            assert tip_height == 1 and pending == []
        finally:
            client.close()
        # state survives a reload from the data directory
        reloaded = live.load_node(server.data_dir)
        assert reloaded.view.tip_height == 1
        assert reloaded.confirmed_state(keys[0].address).balance == 993

    def test_bad_tx_reported_as_error(self, live_node, keys):
        _, port, _ = live_node
        client = live.NodeClient("127.0.0.1", port)
        try:
            import dataclasses
            bad = dataclasses.replace(make_send(keys[0], amount=7),
                                      signature=b"\x01" * 64)
            with pytest.raises(Exception) as exc:
                client.submit_tx(bad)
            assert "InvalidSignature" in str(exc.value)
        finally:
            client.close()

    def test_fragment_fetch(self, live_node, keys):
        _, port, params = live_node
        client = live.NodeClient("127.0.0.1", port)
        try:
            tx = make_send(keys[0], amount=7)
            client.submit_tx(tx)
            frag = client.fetch_fragment(keys[0].address, 0, 1)
            assert frag.txs == (tx,)
        finally:
            client.close()


class TestCompactCommand:
    def test_compact_data_dir(self, tmp_path, keys):
        params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096)
        data_dir = str(tmp_path / "node")
        node = live.init_data_dir(data_dir, {keys[0].address: 100}, params)
        node.accept_pending_tx(make_send(keys[0], amount=1))
        live.save_node(node, data_dir)
        log = os.path.join(data_dir, live.LOG_FILE)
        before = os.path.getsize(log)
        res = run_cli(["compact", "--data-dir", data_dir])
        assert res.returncode == 0, res.stderr
        assert res.stdout == "rewrote log.bin as a snapshot: %d -> %d " \
            "bytes\n" % (before, os.path.getsize(log))
        compacted = live.load_node(data_dir)
        assert (compacted.view.tip, compacted.store.confirmed,
                compacted.store.pending, compacted.store.tail_states) == \
            (node.view.tip, node.store.confirmed, node.store.pending,
             node.store.tail_states)
