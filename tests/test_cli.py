import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from shardchain import cli, codec, live
from shardchain.mainchain import ChainParams, EASY_BITS
from shardchain.sim import derived_key

from conftest import make_send, tails

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

    @pytest.mark.parametrize("flag,value", [("--block-size", "2048"),
                                            ("--interval", "99")])
    def test_profile_excludes_size_flags(self, flag, value, capsys):
        """--profile sets the block size and interval, so an explicit
        flag for either is a usage error, not silently overridden."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["sim", "--accounts", "20", "--width", "3", "--blocks",
                      "2", "--no-claims", "--profile", "ethereum-like",
                      flag, value])
        assert exc.value.code == 2
        assert "error: --profile " in capsys.readouterr().err

    def test_config_error_json(self):
        res = run_cli(["sim", "--width", "200", "--accounts", "10"])
        assert res.returncode == 1
        assert json.loads(res.stdout)["error"] == "ConfigInvalid"

    def test_out_of_range_balance_error_json(self):
        res = run_cli(["sim", "--accounts", "5", "--width", "1",
                       "--blocks", "1", "--initial-balance", str(2**64)])
        assert res.returncode == 1, res.stderr
        assert json.loads(res.stdout)["error"] == "ConfigInvalid"
        assert res.stderr == ""

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

    def test_bench_storage_takes_no_node_count(self, capsys):
        """bench-storage always runs the 7-node tree: --nodes is not one
        of its flags, so it is refused rather than ignored."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench-storage", "--accounts", "20", "--width", "3",
                      "--blocks", "2", "--no-claims", "--nodes", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --nodes 3" \
            in capsys.readouterr().err


ADDR = "ab" * 20

MINER = ["miner", "--node", "127.0.0.1:1", "--address", ADDR]
BAD_BITS = ("0", "0x01000000", "0x2100ffff")

# per flag, argument lists that each give it one malformed value
MALFORMED = {
    "--alloc": [["node", "--init", "--alloc", v] for v in (
        "00=5", ADDR + "=-7", ADDR + "=%d" % (1 << 64), ADDR + "=x", ADDR)]
    # one address allocated twice, in either hex case
    + [["node", "--init", "--alloc", ADDR + "=5", "--alloc", a + "=7"]
       for a in (ADDR, ADDR.upper())],
    "--address": [["miner", "--node", "127.0.0.1:1", "--address", v]
                  for v in ("zz", "00", ADDR + "00", " " + ADDR[1:])],
    "--listen": [["node", "--init", "--listen", v] for v in (
        "127.0.0.1", "127.0.0.1:x", "127.0.0.1:65536", "127.0.0.1:-1")],
    "--node": [["miner", "--address", ADDR, "--node", v]
               for v in ("localhost", "localhost:", "localhost:http")],
    "--latency": [["sim", "--latency", v] for v in (
        "a:b", "1:x", "", "nan", "1:inf", "nan:5", "inf")],
    "--seed": [["keygen", "--seed", v] for v in (
        "zz", "11" * 31, "11" * 33, " " + "11" * 32)],
    "--prefix": [["node", "--init", "--prefix", v] for v in (
        "2", "0_1", " 01", "0" * 161)],
    # chain parameters no block could meet, refused before a data dir
    # or a miner connection exists
    "--block-size": [cmd + ["--block-size", v]
                     for cmd in (["sim"], ["bench-storage"],
                                 ["node", "--init"], MINER)
                     for v in ("0", "175", "x")],
    "--difficulty-bits": [cmd + ["--difficulty-bits", v]
                          for cmd in (["sim"], ["bench-storage"],
                                      ["node", "--init"])
                          for v in BAD_BITS],
    "--bits": [MINER + ["--bits", v] for v in BAD_BITS],
    "--blocks": [MINER + ["--blocks", "-1"]],
    # each refused while parsing, before any worker process starts
    "--workers": [["bench-verify", "--txs", "1", "--workers", v]
                  for v in ("1,x", "", "0", "2,0")],
}


class TestMalformedFlags:
    @pytest.mark.parametrize("flag", sorted(MALFORMED))
    def test_usage_error_before_any_work(self, flag, tmp_path, capsys):
        """A malformed value is refused while parsing: exit 2 with a usage
        error naming the flag, no exception, and no data dir written."""
        data_dir = str(tmp_path / "node")
        for argv in MALFORMED[flag]:
            if argv[0] == "node":
                argv = argv + ["--data-dir", data_dir]
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            assert "error: argument %s" % flag in capsys.readouterr().err
            assert not os.path.exists(data_dir), argv


# argument lists, without --data-dir, of node commands that would serve
# nowhere or ignore a flag
UNUSABLE_NODE = {
    "--listen": ["node"],
    "--alloc": ["node", "--listen", "127.0.0.1:0", "--alloc", ADDR + "=5"],
    "--prefix": ["node", "--listen", "127.0.0.1:0", "--prefix", "01"],
    "--block-size": ["node", "--listen", "127.0.0.1:0",
                     "--block-size", "5000"],
    "--difficulty-bits": ["node", "--listen", "127.0.0.1:0",
                          "--difficulty-bits", "0x207fffff"],
}


class TestNodeFlagUsage:
    @pytest.mark.parametrize("flag", sorted(UNUSABLE_NODE))
    def test_usage_error_before_any_file(self, flag, tmp_path, capsys):
        """Without --init, a node needs --listen and takes no flag that
        only --init uses: exit 2 naming the flag, no file opened."""
        data_dir = str(tmp_path / "node")
        with pytest.raises(SystemExit) as exc:
            cli.main(UNUSABLE_NODE[flag] + ["--data-dir", data_dir])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: node: %s " % flag in err
        assert not os.path.exists(data_dir)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture
def live_node(tmp_path, keys):
    params = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                         maturity=1)
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
            bad = make_send(keys[0], amount=7)._replace(
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


class TestNodeCommand:
    def test_interrupt_at_listening_line_closes_log(self, tmp_path, keys,
                                                    monkeypatch):
        """A SIGINT that lands on the "node listening" print still shuts
        the server down: the command returns 0 and the log is closed."""
        data_dir = str(tmp_path / "node")
        live.init_data_dir(data_dir, {keys[0].address: 100},
                           ChainParams(difficulty_bits=EASY_BITS))
        servers = []

        class Recorded(live.NodeServer):
            def __init__(self, *args):
                super().__init__(*args)
                servers.append(self)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(live, "NodeServer", Recorded)
        monkeypatch.setattr(cli, "print", interrupt, raising=False)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(cli.main(
            ["node", "--data-dir", data_dir, "--listen", "127.0.0.1:0"])),
            daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert codes == [0]
        assert len(servers) == 1 and servers[0].log.closed

    def test_off_main_thread_with_sigint_ignored(self, tmp_path, keys,
                                                 monkeypatch):
        """Off the main thread, where no SIGINT handler can be installed,
        a node that inherits an ignored SIGINT starts its server and stops
        at an interrupt as usual."""
        data_dir = str(tmp_path / "node")
        live.init_data_dir(data_dir, {keys[0].address: 100},
                           ChainParams(difficulty_bits=EASY_BITS))

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(signal, "getsignal", lambda _: signal.SIG_IGN)
        monkeypatch.setattr(cli, "print", interrupt, raising=False)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(cli.main(
            ["node", "--data-dir", data_dir, "--listen", "127.0.0.1:0"])),
            daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert codes == [0]

    def test_sigint_stops_node_started_with_it_ignored(self, tmp_path,
                                                       keys):
        """A node inherits an ignored SIGINT when it runs as a background
        job of a non-interactive shell; SIGINT still stops it."""
        data_dir = str(tmp_path / "node")
        live.init_data_dir(data_dir, {keys[0].address: 100},
                           ChainParams(difficulty_bits=EASY_BITS))
        proc = subprocess.Popen(
            [sys.executable, "-m", "shardchain.cli", "node", "--data-dir",
             data_dir, "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
        try:
            assert proc.stdout.readline().startswith("node listening")
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()


    def test_init_refuses_existing_data_dir(self, tmp_path, keys, capsys):
        """--init on a data dir that holds a node exits 1 and leaves both
        of its files byte for byte as they were."""
        data_dir = str(tmp_path / "node")
        node = live.init_data_dir(data_dir, {keys[0].address: 100},
                                  ChainParams(difficulty_bits=EASY_BITS))
        node.accept_pending_tx(make_send(keys[0], amount=1))
        live.save_node(node, data_dir)

        def files():
            out = {}
            for name in (live.META_FILE, live.LOG_FILE):
                with open(os.path.join(data_dir, name), "rb") as fh:
                    out[name] = fh.read()
            return out

        before = files()
        assert before[live.LOG_FILE]
        assert cli.main(["node", "--data-dir", data_dir, "--init",
                         "--alloc", ADDR + "=5"]) == 1
        assert "already holds a node" in capsys.readouterr().err
        assert files() == before


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
                tails(compacted), compacted.store.tail_states) == \
            (node.view.tip, node.store.confirmed, tails(node),
             node.store.tail_states)
