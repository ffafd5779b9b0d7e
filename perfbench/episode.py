"""One measured episode of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per episode, so the program's
process-global caches (the verify cache, the key LRU caches, the sim key
cache) start empty every time. The episode builds its inputs from
``--seed``, runs a fixed schedule, checks the program's outputs and writes
its measurements as JSON to ``--out``. Every timing is written twice: as
measured (under ``unscaled``), and scaled to a reference host speed by
the calibration loops that the episode runs between its operations.

    python3 perfbench/episode.py --workload sim-7node --seed 101 \
        --trace 0 --out result.json \
        --work <scratch dir inside the checkout>
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# processor time of this process: unlike wall time, it leaves out the
# stretches in which a shared host runs another tenant instead
cpu = time.process_time

# sim-7node: the paper's depth-2 tree (one full, two half, four quarter
# nodes), about 40 senders per interval, 2 sends each plus their claims.
SIM7 = dict(accounts=400, width=40, avg_txs=2, block_limit=4096,
            blocks=24, node_count=7)
# reorg-3node: a full node and two half nodes, light traffic, a long chain
# and a rival branch every RACE_EVERY blocks, alternating depths 1 and 6.
REORG3 = dict(accounts=200, width=20, avg_txs=1, block_limit=4096,
              blocks=60, node_count=3)
RACE_EVERY = 10
RACE_DEPTHS = (1, 6)
# live-tcp: one node process, one client connection, sends only.
LIVE_ACCOUNTS = 40
LIVE_SENDERS = 10
LIVE_BLOCKS = 40
LIVE_BALANCE = 1_000_000
# timings are scaled to a host on which one calibration loop takes
# REFERENCE_CAL_S of processor time, a round figure: on a shared 2-vCPU
# host the loop took 7 to 14 ms
CAL_ROUNDS = 2500
CAL_MODULUS = 2 ** 255 - 19
REFERENCE_CAL_S = 0.005
# loops this close to an operation, in wall seconds, also scale it: about
# one sim interval, or several live-tcp batches
CAL_WINDOW_S = 0.25


def calibrate() -> float:
    """Processor seconds taken by a fixed loop of stdlib work: hashing,
    big-integer modular arithmetic, dict, tuple and bytes handling. It
    never calls the program, so its time follows only the processor's
    speed, which on a shared host changes by up to 2.5x, for seconds to
    minutes at a time."""
    start = cpu()
    digest = b"calibrate"
    table = {}
    acc = 1
    for i in range(CAL_ROUNDS):
        digest = hashlib.sha256(digest + i.to_bytes(4, "big")).digest()
        table[digest[:8]] = (i, digest[8:])
        acc = pow(acc + int.from_bytes(digest, "big"), 3, CAL_MODULUS)
    if len(table) != CAL_ROUNDS or not acc:
        raise SystemExit("calibration loop gave an unexpected result")
    return cpu() - start


class HostSpeed:
    """Durations of one episode, each kept as measured and scaled to the
    reference host speed. On a shared host the processor's speed changes
    within seconds, so an operation is scaled by the median of the loops
    next to it: the one run last before it, the one before that, the one
    run next after it, and any other run within CAL_WINDOW_S of its end."""

    def __init__(self):
        self.cal_s = []
        self.cal_at = []
        self.raw = defaultdict(list)
        self.slot = defaultdict(list)

    def calibrate(self) -> None:
        self.cal_s.append(calibrate())
        self.cal_at.append(time.monotonic())

    def record(self, name: str, value: float) -> None:
        self.raw[name].append(value)
        self.slot[name].append((len(self.cal_s) - 1, time.monotonic()))

    def scaled(self, name: str) -> list:
        out = []
        for value, (slot, at) in zip(self.raw[name], self.slot[name]):
            lo = min(slot - 1, bisect.bisect_left(self.cal_at,
                                                  at - CAL_WINDOW_S))
            hi = max(slot + 1, bisect.bisect_right(self.cal_at,
                                                   at + CAL_WINDOW_S) - 1)
            near = self.cal_s[max(0, lo):hi + 1]
            out.append(value * REFERENCE_CAL_S / statistics.median(near))
        return out

    def episode_factor(self) -> float:
        """The scale for work not next to one loop: the episode's set-up
        and its per-layer times."""
        return REFERENCE_CAL_S / statistics.median(self.cal_s)

    def fields(self, series, setup_s: float) -> dict:
        """Result fields: the samples of each name in ``series`` and the
        set-up time, scaled, and the same as measured under ``unscaled``."""
        out = {name: self.scaled(name) for name in series}
        out["unscaled"] = {name: self.raw[name] for name in series}
        out["setup_s"] = setup_s * self.episode_factor()
        out["unscaled"]["setup_s"] = setup_s
        out["cal_s"] = self.cal_s
        out["factor"] = self.episode_factor()
        return out


def scale_layers(layers: dict, factor: float) -> dict:
    """Per-layer [calls, self_s, total_s] with both times scaled."""
    return {name: [calls, self_s * factor, total * factor]
            for name, (calls, self_s, total) in layers.items()}


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux: KiB


def replay_mismatches(node, addresses) -> list:
    """Accounts whose confirmed state at ``node`` differs from a
    ``subchain.replay`` of the node's stored transactions."""
    from shardchain import mainchain, subchain
    ctx = mainchain.ViewClaimContext(node.view, node.view.tip,
                                     send_source=node.store.find_send)
    bad = []
    for address in sorted(addresses):
        state = node.confirmed_state(address)
        initial = subchain.initial_state(address,
                                         node.genesis.balance_of(address))
        txs = [node.store.txs.get((address, h))
               for h in range(1, state.tip_height + 1)]
        if any(tx is None for tx in txs):
            bad.append(address.hex())
            continue
        oracle = subchain.replay(txs, ctx, initial=initial) if txs \
            else initial
        if (oracle.balance, oracle.tip_hash, oracle.tip_height) != \
                (state.balance, state.tip_hash, state.tip_height):
            bad.append(address.hex())
    return bad


def uncached_verify_us(txs, speed: HostSpeed) -> float:
    """Processor microseconds per transaction of
    ``miner.verify_batch(workers=1)``, which bypasses the verify cache,
    scaled to the reference speed."""
    from shardchain import miner
    speed.calibrate()
    start = cpu()
    verdicts = miner.verify_batch(txs, workers=1)
    speed.record("verify_uncached_us", 1e6 * (cpu() - start)
                 / max(1, len(txs)))
    if not all(verdicts):
        raise SystemExit("verify_batch rejected a transaction of the run")
    return speed.scaled("verify_uncached_us")[-1]


# -- the two simulated workloads ----------------------------------------

def sim_episode(workload: str, seed: int, tracer) -> dict:
    from shardchain import mainchain, network, sim, wallet
    races = workload == "reorg-3node"
    cfg = sim.SimConfig(seed=seed, **(REORG3 if races else SIM7))

    timing = {"client_s": 0.0, "sealed_at": None, "sealed_hash": None,
              "phase": "setup", "race_s": 0.0}
    speed = HostSpeed()
    ops = Counter()
    error_kinds = Counter()
    new_op = itertools.count(1).__next__

    settle = wallet.batch_settle

    def timed_settle(*a, **k):
        start = cpu()
        try:
            return settle(*a, **k)
        finally:
            timing["client_s"] += cpu() - start

    wallet.batch_settle = timed_settle

    seal = mainchain.seal

    def noted_seal(*a, **k):
        block = seal(*a, **k)
        timing["sealed_at"] = cpu()
        timing["sealed_hash"] = block.block_hash
        return block

    mainchain.seal = noted_seal

    s = sim.Simulation(cfg)
    root = s.root
    rival = sim.derived_key(b"rival:%d" % seed) if races else None

    refresh = s.miner.refresh_pool

    def noted_refresh():
        # sim-7node: a block is done once the flood of it has drained
        if timing["phase"] == "interval" and not races:
            speed.record("block_ms", 1e3 * (cpu() - timing["sealed_at"]))
        return refresh()

    s.miner.refresh_pool = noted_refresh

    ingest = root.ingest_block

    def timed_ingest(block):
        first = block.block_hash not in root.view.blocks
        start = cpu()
        try:
            return ingest(block)
        finally:
            took = cpu() - start
            speed.record("busy_s", took)
            if timing["phase"] == "race":
                timing["race_s"] += took
            elif races and first \
                    and block.block_hash == timing["sealed_hash"]:
                speed.record("block_ms", 1e3 * took)

    root.ingest_block = timed_ingest

    deliver = s.router.on_deliver

    def counted_deliver(nid, env):
        before = len(s.errors)
        if tracer is not None:
            outer = tracer.op_id
            tracer.op_id = new_op()
        start = cpu()
        try:
            deliver(nid, env)
        finally:
            took = cpu() - start
            if tracer is not None:
                tracer.op_id = outer
            ops["attempted"] += 1
            if len(s.errors) > before:
                ops["failed"] += 1
                for err in s.errors[before:]:
                    error_kinds[err.split(": ", 1)[-1].split("(")[0]] += 1
            if nid == root.node_id and env.kind == network.MsgKind.NewTx:
                speed.record("tx_accept_ms", 1e3 * took)
                speed.record("busy_s", took)

    s.router.on_deliver = counted_deliver

    def race(depth: int) -> bool:
        """Re-mine the last ``depth`` blocks' records on a sibling branch
        plus one more block, flooding each block from the full node."""
        view = root.view
        canon = list(view.canonical)
        tip = len(canon) - 1
        before = dict(root.store.confirmed)
        parent = canon[tip - depth]
        speed.calibrate()
        timing["phase"] = "race"
        timing["race_s"] = 0.0
        for height in range(tip - depth + 1, tip + 2):
            records = view.blocks[canon[height]].confirmations \
                if height <= tip else ()
            header = mainchain.BlockHeader(
                parent, height, s.now, rival.address,
                mainchain.confirmations_root(records),
                s.params.difficulty_bits, 0)
            block = mainchain.seal(mainchain.MainBlock(header,
                                                       tuple(records)))
            parent = block.block_hash
            s.router.originate(root.node_id, network.Envelope(
                network.MsgKind.NewBlock, block.encode()))
            s.transport.run()
        s.miner.refresh_pool()
        speed.record("reorg_ms", 1e3 * timing["race_s"])
        return view.tip == parent and dict(root.store.confirmed) == before

    setup_s = cpu()     # processor time since the process started
    confirmed = 0
    races_ok = True
    for i in range(cfg.blocks):
        speed.calibrate()
        if tracer is not None:
            tracer.op_id = new_op()
        timing["phase"] = "interval"
        client_before = timing["client_s"]
        start = cpu()
        row = s.run_interval()
        speed.record("interval_s", cpu() - start
                     - (timing["client_s"] - client_before))
        confirmed += row["txs_covered"]
        if races and (i + 1) % RACE_EVERY == 0:
            depth = RACE_DEPTHS[((i + 1) // RACE_EVERY - 1)
                                % len(RACE_DEPTHS)]
            races_ok &= race(depth)
    timing["phase"] = "checks"
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.enabled = False

    accounts = set(s.addresses) | set(root.store.confirmed) \
        | {s.miner_key.address}
    non_empty = sum(1 for a in accounts if root.full_state(a).tip_height)
    checks = {
        "conservation": s.conservation()["ok"],
        "shard_count": non_empty == len(s.active),
        "replay_oracle": not replay_mismatches(root, accounts),
    }
    if races:
        checks["race_keeps_confirmed_states"] = races_ok
    result = {
        "confirmed": confirmed, "client_s": timing["client_s"],
        "peak_rss_mb": rss, "attempted": ops["attempted"],
        "failed": ops["failed"], "error_kinds": dict(error_kinds),
        "checks": checks,
    }
    if tracer is not None:
        txs = [tx for _, tx in sorted(root.store.txs.items())]
        result["verify_uncached_us"] = uncached_verify_us(txs, speed)
    # system time: for reorg-3node the full node's busy time, so that
    # half-node work (which the known _branch_state defect cuts short)
    # does not enter the metric; for sim-7node each interval's processor
    # time less the client's signing in wallet.batch_settle
    result.update(speed.fields(("block_ms", "tx_accept_ms", "reorg_ms",
                                "busy_s" if races else "interval_s"),
                               setup_s))
    for fields in (result, result["unscaled"]):
        fields["system_s"] = sum(fields.pop("busy_s" if races
                                            else "interval_s"))
    return result


# -- the live workload ----------------------------------------------------

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class NodeProcess:
    """A ``shardchain node`` process; under tracing, the same command run
    through ``live_node.py`` so that its spans are recorded."""

    def __init__(self, argv, trace_base=None):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        if trace_base is None:
            cmd = [sys.executable, "-m", "shardchain.cli"] + argv
        else:
            cmd = [sys.executable, os.path.join(HERE, "live_node.py"),
                   trace_base] + argv
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        for line in self.proc.stdout:
            if line.startswith("node listening"):
                return
        self.proc.wait()
        raise SystemExit("node process exited before listening")

    def cpu_s(self) -> float:
        """Processor seconds of the node's running threads so far (a
        thread that has ended no longer counts)."""
        tasks = "/proc/%d/task" % self.proc.pid
        total = 0
        for tid in os.listdir(tasks):
            try:
                with open(os.path.join(tasks, tid, "schedstat")) as fh:
                    total += int(fh.read().split()[0])
            except FileNotFoundError:   # the thread ended meanwhile
                pass
        return total / 1e9

    def stop(self) -> None:
        """Interrupt the node (it shuts its server down on SIGINT) and
        wait for it to end; a no-op once it has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def live_episode(seed: int, tracer, work: str) -> dict:
    """Timings are processor time of this process and the node process
    together, both on one processor, the one calibrate() measures."""
    from shardchain import codec, live, mainchain, sim
    from shardchain.codec import SendTx
    from shardchain.errors import ShardChainError

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rng = random.Random(seed)
    keys = [sim.derived_key(b"live:%d:%d" % (seed, i))
            for i in range(LIVE_ACCOUNTS)]
    miner_key = sim.derived_key(b"live-miner:%d" % seed)
    params = mainchain.ChainParams()
    data_dir = os.path.join(work, "data-%d" % seed)
    shutil.rmtree(data_dir, ignore_errors=True)
    port = _free_port()
    serve = ["node", "--data-dir", data_dir,
             "--listen", "127.0.0.1:%d" % port]
    alloc = []
    for key in keys:
        alloc += ["--alloc", "%s=%d" % (key.address.hex(), LIVE_BALANCE)]
    trace_base = os.path.join(work, "node-%d" % seed) if tracer else None
    speed = HostSpeed()
    nodes = []
    try:
        nodes.append(NodeProcess(serve + ["--init"] + alloc,
                                 trace_base and trace_base + "-a"))
        client = live.NodeClient("127.0.0.1", port)
        setup_s = cpu() + nodes[0].cpu_s()

        # client side, outside the system path: pre-sign the whole schedule
        start = cpu()
        tips = {k.address: (codec.NULL_HASH, 0) for k in keys}
        ledger = {k.address: LIVE_BALANCE for k in keys}
        schedule = []
        for _ in range(LIVE_BLOCKS):
            batch = []
            for key in rng.sample(keys, LIVE_SENDERS):
                parent, height = tips[key.address]
                recipient = keys[rng.randrange(LIVE_ACCOUNTS)].address
                amount = 1 + rng.randrange(100)
                tx = codec.sign_tx(SendTx(
                    parent_hash=parent, height=height + 1,
                    current_address=key.address, recipient_address=recipient,
                    amount=amount, timestamp=len(schedule) + 1), key)
                tips[key.address] = (tx.tx_hash, tx.height)
                ledger[key.address] -= amount
                batch.append(tx)
            schedule.append(batch)
        client_s = cpu() - start

        ops = Counter()
        call = client.call

        def counted_call(env):
            ops["attempted"] += 1
            if tracer is not None:
                tracer.op_id = ops["attempted"]
            try:
                return call(env)
            except (ShardChainError, OSError):
                ops["failed"] += 1
                raise

        client.call = counted_call

        def round_trip(fn, *args, **kwargs):
            """``fn``'s result, None if the node refused, and the processor
            seconds the call took the client and the node together."""
            node_before = nodes[-1].cpu_s()
            start = cpu()
            try:
                result = fn(*args, **kwargs)
            except ShardChainError:
                result = None
            return result, cpu() - start + nodes[-1].cpu_s() - node_before

        last_block = None
        for number, batch in enumerate(schedule, start=1):
            speed.calibrate()
            for tx in batch:
                _, took = round_trip(client.submit_tx, tx)
                speed.record("tx_accept_ms", 1e3 * took)
            block, took = round_trip(live.mine_once, client,
                                     miner_key.address, params,
                                     timestamp=number)
            last_block = block or last_block
            speed.record("block_ms", 1e3 * took)
        client.close()
        nodes[0].stop()
        data_dir_bytes = sum(e.stat().st_size for e in os.scandir(data_dir)
                             if e.is_file())

        speed.calibrate()
        start = cpu()
        nodes.append(NodeProcess(serve, trace_base and trace_base + "-b"))
        client = live.NodeClient("127.0.0.1", port)
        _, tip, tip_height, pending = client.hello()
        speed.record("restart_s", cpu() - start + nodes[-1].cpu_s())
        client.close()
    finally:
        for node in nodes:
            node.stop()
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.enabled = False

    stored = live.load_node(data_dir)
    checks = {
        "restart_tip_is_last_mined": last_block is not None
        and tip == last_block.block_hash
        and tip_height == LIVE_BLOCKS and not pending,
        "balances_match_client_ledger": all(
            stored.confirmed_state(a).balance == ledger[a]
            and stored.confirmed_state(a).tip_hash == tips[a][0]
            for a in ledger),
        "replay_oracle": not replay_mismatches(stored, ledger),
    }
    confirmed = sum(stored.confirmed_state(a).tip_height for a in ledger)
    shutil.rmtree(data_dir, ignore_errors=True)
    result = {
        "confirmed": confirmed, "client_s": client_s,
        "data_dir_bytes": data_dir_bytes, "peak_rss_mb": rss,
        "attempted": ops["attempted"], "failed": ops["failed"],
        "checks": checks,
    }
    if tracer is not None:
        result["verify_uncached_us"] = uncached_verify_us(
            [tx for batch in schedule for tx in batch], speed)
        result["node_layers"] = []
        for suffix in ("-a", "-b"):
            with open(trace_base + suffix + ".layers.json") as fh:
                layers = json.load(fh)
            layers["layers"] = scale_layers(layers["layers"],
                                            speed.episode_factor())
            result["node_layers"].append(layers)
    result.update(speed.fields(("block_ms", "tx_accept_ms", "restart_s"),
                               setup_s))
    for fields in (result, result["unscaled"]):
        # system time: the summed submit_tx and mine_once round trips
        fields["system_s"] = (sum(fields["tx_accept_ms"])
                              + sum(fields["block_ms"])) / 1e3
        fields["restart_s"], = fields["restart_s"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sim-7node", "reorg-3node", "live-tcp"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    if args.workload == "live-tcp":
        result = live_episode(args.seed, tracer, args.work)
    else:
        result = sim_episode(args.workload, args.seed, tracer)
    if tracer is not None:
        result["layers"] = scale_layers(tracer.aggregate(),
                                        result["factor"])
        result["counts"] = dict(tracer.counts)
        tracer.write(os.path.join(args.work, "spans-%s-%d" % (
            args.workload, args.seed)))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
