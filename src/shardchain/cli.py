"""Operator command line: key generation, simulations, benchmarks, and
the persistent node/miner processes.

Only the sim and bench-* commands import the simulator, inside the
functions that run them, so that a node, miner, keygen or compact process
starts without loading it (a node pays its start-up on every restart)."""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys

from . import codec, live, mainchain, sharding
from .errors import ShardChainError
from .mainchain import ChainParams

PROFILES = {
    # (block size limit bytes, block interval seconds)
    "bitcoin-like": (1 << 20, 600),
    "ethereum-like": (40 * 1024, 15),
}


# Flag types: argparse turns the ValueError of a malformed value into a
# usage error (exit 2) before any command runs or writes a data dir.

def _hex(text: str, size: int) -> bytes:
    value = bytes.fromhex(text)
    if len(text) != 2 * size or len(value) != size:
        raise ValueError(text)
    return value


def hex_address(text: str) -> bytes:
    """A 20-byte address written as 40 hex digits."""
    return _hex(text, codec.ADDR_LEN)


def hex_seed(text: str) -> bytes:
    """A 32-byte keygen seed written as 64 hex digits."""
    return _hex(text, 32)


def prefix_bits(text: str) -> str:
    """A shard prefix: at most MAX_PREFIX_BITS '0'/'1' characters."""
    if len(text) > sharding.MAX_PREFIX_BITS or set(text) - {"0", "1"}:
        raise ValueError(text)
    return text


def allocation(text: str):
    """ADDRHEX=AMOUNT, the amount in 0..2^64-1."""
    addr, _, amount = text.partition("=")
    amount = int(amount)
    if not 0 <= amount < 1 << 64:
        raise ValueError(text)
    return hex_address(addr), amount


def host_port(text: str):
    """HOST:PORT, the port an integer in 0..65535."""
    host, sep, port = text.rpartition(":")
    if not sep or not 0 <= int(port) <= 0xFFFF:
        raise ValueError(text)
    return host, int(port)


def latency_range(text: str):
    """MIN[:MAX] in ms, each finite; MAX defaults to MIN."""
    lo, _, hi = text.partition(":")
    bounds = float(lo), float(hi or lo)
    if not all(map(math.isfinite, bounds)):
        raise ValueError(text)
    return bounds


def worker_counts(text: str):
    """Comma-separated worker counts, each an integer >= 1."""
    counts = [int(w) for w in text.split(",")]
    if min(counts) < 1:
        raise ValueError(text)
    return counts


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--accounts", type=int, default=100)
    p.add_argument("--width", type=int, default=10)
    p.add_argument("--avg-txs", type=int, default=1)
    p.add_argument("--block-size", type=int,
                   help="main block size limit in bytes (default 4096)")
    p.add_argument("--interval", type=int,
                   help="block interval in simulated seconds (default 15)")
    p.add_argument("--blocks", type=int, default=10)
    p.add_argument("--latency", type=latency_range, default="1:5",
                   help="per-link latency range MIN:MAX in ms")
    p.add_argument("--maturity", type=int, default=6)
    p.add_argument("--difficulty-bits", type=lambda s: int(s, 0),
                   default=mainchain.EASY_BITS)
    p.add_argument("--initial-balance", type=int, default=1_000_000)
    p.add_argument("--no-claims", action="store_true",
                   help="senders spend genesis balance only")
    p.add_argument("--profile", choices=sorted(PROFILES),
                   help="preset for --block-size/--interval, which it "
                   "excludes")
    p.add_argument("--out", choices=["json", "csv"], default="json")


def _sim_config(args, node_count: int):
    from .sim import SimConfig

    sizes = PROFILES[args.profile] if args.profile \
        else (args.block_size, args.interval)
    # an unset flag keeps the SimConfig default
    given = {k: v for k, v in zip(("block_limit", "block_interval"), sizes)
             if v is not None}
    return SimConfig(
        seed=args.seed, accounts=args.accounts, width=args.width,
        avg_txs=args.avg_txs, blocks=args.blocks, node_count=node_count,
        latency_min_ms=args.latency[0], latency_max_ms=args.latency[1],
        difficulty_bits=args.difficulty_bits, maturity=args.maturity,
        initial_balance=args.initial_balance,
        claim_inflows=not args.no_claims, **given)


def _emit(rows, columns, out_format: str) -> None:
    if out_format == "csv":
        import csv

        writer = csv.DictWriter(sys.stdout, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row[c] for c in columns})
    else:
        sys.stdout.write(json.dumps(rows, sort_keys=True, indent=1) + "\n")


def cmd_keygen(args) -> int:
    key = codec.keygen(args.seed)
    print(json.dumps({"secret": key.secret.hex(),
                      "public": key.public.hex(),
                      "address": key.address.hex()}, sort_keys=True))
    return 0


def cmd_sim(args) -> int:
    from .sim import run_sim

    report = run_sim(_sim_config(args, node_count=args.nodes))
    if args.out == "csv":
        _emit(report["blocks"],
              ["height", "records", "txs_covered", "bytes"], "csv")
        sys.stdout.write("# tps=%s capacity=%s conservation_ok=%s\n"
                         % (report["tps"], report["capacity"],
                            report["conservation"]["ok"]))
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return 0


def cmd_bench_verify(args) -> int:
    from .sim import bench_verify

    rows = bench_verify(args.txs, args.workers, seed=args.seed)
    _emit(rows, ["workers", "seconds", "txs", "all_valid"], args.out)
    return 0


def cmd_bench_storage(args) -> int:
    from .sim import bench_storage

    rows = bench_storage(_sim_config(args, node_count=7))
    _emit(rows, ["node", "depth", "main_chain_bytes", "subchain_bytes",
                 "shard_count"], args.out)
    return 0


# node flags that only shape the data dir --init creates
NODE_INIT_FLAGS = ("alloc", "prefix", "block_size", "difficulty_bits")


def cmd_node(args) -> int:
    if args.init:
        # an unset flag keeps the ChainParams default
        given = {"difficulty_bits": args.difficulty_bits,
                 "block_limit": args.block_size}
        params = ChainParams(**{k: v for k, v in given.items()
                                if v is not None})
        live.init_data_dir(args.data_dir, dict(args.alloc or ()), params,
                           prefix=args.prefix or "")
        print("initialized data dir %s" % args.data_dir)
        if not args.listen:
            return 0
    if signal.getsignal(signal.SIGINT) == signal.SIG_IGN:
        # inherited, as by a background job of a non-interactive shell:
        # without this no SIGINT could stop the server
        signal.signal(signal.SIGINT, signal.default_int_handler)
    server = live.NodeServer(args.data_dir, args.listen)
    try:
        print("node listening on %s:%d" % args.listen, flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    return 0


def cmd_miner(args) -> int:
    client = live.NodeClient(*args.node)
    params = ChainParams(difficulty_bits=args.bits,
                         block_limit=args.block_size)
    mined = 0
    try:
        while args.blocks == 0 or mined < args.blocks:
            block = live.mine_once(client, args.address, params)
            mined += 1
            print("mined block %d %s (%d records)"
                  % (block.header.height, block.block_hash.hex()[:16],
                     len(block.confirmations)), flush=True)
    finally:
        client.close()
    return 0


def cmd_compact(args) -> int:
    node = live.load_node(args.data_dir)
    path = os.path.join(args.data_dir, live.LOG_FILE)
    before = os.path.getsize(path)
    live.save_node(node, args.data_dir)
    print("rewrote %s as a snapshot: %d -> %d bytes"
          % (live.LOG_FILE, before, os.path.getsize(path)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shardchain",
        description="Per-account subchain sharding with a PoW main chain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a signing keypair")
    p.add_argument("--seed", type=hex_seed,
                   help="32-byte seed as 64 hex digits, for determinism")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("sim", help="run a deterministic simulation")
    _add_sim_flags(p)
    p.add_argument("--nodes", type=int, default=1)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("bench-verify",
                       help="parallel signature verification benchmark")
    p.add_argument("--txs", type=int, default=10_000)
    p.add_argument("--workers", type=worker_counts, default="1,2,4,8",
                   help="comma-separated worker counts")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_bench_verify)

    p = sub.add_parser("bench-storage",
                       help="full vs half vs quarter node storage, "
                       "over a 7-node tree")
    _add_sim_flags(p)
    p.set_defaults(func=cmd_bench_storage)

    p = sub.add_parser("node", help="run a persistent node")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--listen", type=host_port, help="HOST:PORT to serve on")
    p.add_argument("--init", action="store_true",
                   help="create the data directory first; it must not "
                   "hold a node yet")
    g = p.add_argument_group("the new data dir's chain (only with --init)")
    g.add_argument("--prefix", type=prefix_bits,
                   help="hosted shard prefix bits, e.g. '01'")
    g.add_argument("--alloc", type=allocation, action="append",
                   help="genesis allocation ADDRHEX=AMOUNT (repeatable)")
    g.add_argument("--block-size", type=int,
                   help="main block size limit (default 1 MiB)")
    g.add_argument("--difficulty-bits", type=lambda s: int(s, 0),
                   help="compact PoW target (default: the easy target)")
    p.set_defaults(func=cmd_node)

    p = sub.add_parser("miner", help="mine against a running node")
    p.add_argument("--node", type=host_port, required=True,
                   help="HOST:PORT of a node")
    p.add_argument("--address", type=hex_address, required=True,
                   help="miner reward address, hex")
    p.add_argument("--bits", type=lambda s: int(s, 0),
                   default=mainchain.EASY_BITS)
    p.add_argument("--block-size", type=int, default=1 << 20)
    p.add_argument("--blocks", type=int, default=1,
                   help="number of blocks to mine (0 = forever)")
    p.set_defaults(func=cmd_miner)

    p = sub.add_parser("compact",
                       help="rewrite the data dir's log as a snapshot")
    p.add_argument("--data-dir", required=True)
    p.set_defaults(func=cmd_compact)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "profile", None) and (args.block_size is not None
                                           or args.interval is not None):
        parser.error("--profile sets --block-size and --interval; give "
                     "either the profile or the flags")
    if args.command == "node" and not args.init:
        # refuse a node that would serve nowhere or ignore a flag
        if args.listen is None:
            parser.error("node: --listen is required without --init")
        for name in NODE_INIT_FLAGS:
            if getattr(args, name) is not None:
                parser.error("node: --%s applies only with --init"
                             % name.replace("_", "-"))
    try:
        return args.func(args)
    except ShardChainError as err:
        if getattr(args, "out", None) == "json":
            sys.stdout.write(json.dumps(
                {"error": type(err).__name__, "message": str(err)}) + "\n")
        else:
            print("error: %s: %s" % (type(err).__name__, err),
                  file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
