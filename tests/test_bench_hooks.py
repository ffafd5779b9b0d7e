"""The benchmark's span tracer still finds what it wraps.

``perfbench/spans.py`` wraps functions and methods of the package by
name, so renaming or deleting one of them breaks every traced benchmark
run. This runs the tracer over a small sim in a fresh interpreter; it
reads ``perfbench/`` and changes nothing there."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BLOCKS = 3
TRACED_SIM = """
import json, sys
sys.path.insert(0, %r)
import spans
from shardchain import sim
tracer = spans.Tracer()
spans.install(tracer)
sim.run_sim(sim.SimConfig(seed=5, accounts=30, width=6, blocks=%d,
                          node_count=3))
print(json.dumps({name: row[0] for name, row in tracer.aggregate().items()}))
""" % (os.path.join(ROOT, "perfbench"), BLOCKS)


def test_spans_install_and_trace_a_sim():
    res = subprocess.run([sys.executable, "-c", TRACED_SIM],
                         env=dict(os.environ,
                                  PYTHONPATH=os.path.join(ROOT, "src")),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "AttributeError" not in res.stderr
    calls = json.loads(res.stdout)
    assert calls["miner.Miner.build_template"] == BLOCKS
    assert calls["mainchain.seal"] == BLOCKS
    assert calls["miner.Miner.refresh_pool"] == BLOCKS
