"""What each entry point loads, checked in a fresh interpreter.

A node process pays its imports on every start and restart, so the
modules a node runs must not pull in the simulator, the miner's worker
pool, the flood overlay or cryptography's key-serialization loaders."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

NOT_FOR_A_NODE = ["multiprocessing", "shardchain.sim", "shardchain.miner",
                  "shardchain.wallet", "shardchain.network",
                  "cryptography.hazmat.primitives.serialization"]


def run_fresh(code):
    """Run ``code`` in a new interpreter with the package on its path and
    return what it printed, parsed as JSON."""
    res = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_node_entry_points_load_no_simulator():
    loaded = run_fresh(
        "import json, sys\n"
        "import shardchain.cli, shardchain.live\n"
        "print(json.dumps([m for m in %r if m in sys.modules]))\n"
        % NOT_FOR_A_NODE)
    assert loaded == []


def test_worker_pool_loaded_only_when_used():
    out = run_fresh(
        "import dataclasses, json, sys\n"
        "import shardchain.sim\n"
        "from shardchain import codec\n"
        "from shardchain.miner import verify_batch\n"
        "unloaded = 'multiprocessing' not in sys.modules\n"
        "key = codec.keygen(b'\\x01' * 32)\n"
        "txs = [codec.sign_tx(codec.SendTx(\n"
        "    parent_hash=codec.NULL_HASH, height=1,\n"
        "    current_address=key.address, recipient_address=b'\\x07' * 20,\n"
        "    amount=n, timestamp=0), key) for n in range(1, 7)]\n"
        "txs[3] = dataclasses.replace(txs[3], amount=99)\n"
        "print(json.dumps([unloaded, verify_batch(txs, workers=1),\n"
        "                  verify_batch(txs, workers=2)]))\n")
    unloaded, serial, parallel = out
    assert unloaded
    assert serial == [True, True, True, False, True, True]
    assert parallel == serial
