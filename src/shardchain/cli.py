"""Operator command line: key generation, simulations, benchmarks, and
the persistent node/miner processes."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict

from . import codec, live, mainchain
from .errors import ShardChainError
from .mainchain import ChainParams
from .sim import SimConfig, bench_storage, bench_verify, run_sim

PROFILES = {
    # (block size limit bytes, block interval seconds)
    "bitcoin-like": (1 << 20, 600),
    "ethereum-like": (40 * 1024, 15),
}


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--accounts", type=int, default=100)
    p.add_argument("--width", type=int, default=10)
    p.add_argument("--avg-txs", type=int, default=1)
    p.add_argument("--block-size", type=int, default=4096,
                   help="main block size limit in bytes")
    p.add_argument("--interval", type=int, default=15,
                   help="block interval in simulated seconds")
    p.add_argument("--blocks", type=int, default=10)
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--latency", default="1:5",
                   help="per-link latency range MIN:MAX in ms")
    p.add_argument("--maturity", type=int, default=6)
    p.add_argument("--difficulty-bits", type=lambda s: int(s, 0),
                   default=mainchain.EASY_BITS)
    p.add_argument("--initial-balance", type=int, default=1_000_000)
    p.add_argument("--no-claims", action="store_true",
                   help="senders spend genesis balance only")
    p.add_argument("--profile", choices=sorted(PROFILES),
                   help="preset for --block-size/--interval")
    p.add_argument("--out", choices=["json", "csv"], default="json")


def _sim_config(args) -> SimConfig:
    block_size, interval = args.block_size, args.interval
    if args.profile:
        block_size, interval = PROFILES[args.profile]
    lat_min, _, lat_max = args.latency.partition(":")
    return SimConfig(
        seed=args.seed, accounts=args.accounts, width=args.width,
        avg_txs=args.avg_txs, block_limit=block_size,
        block_interval=interval, blocks=args.blocks,
        node_count=args.nodes,
        latency_min_ms=float(lat_min), latency_max_ms=float(lat_max or
                                                            lat_min),
        difficulty_bits=args.difficulty_bits, maturity=args.maturity,
        initial_balance=args.initial_balance,
        claim_inflows=not args.no_claims)


def _emit(rows, columns, out_format: str) -> None:
    if out_format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row[c] for c in columns})
    else:
        sys.stdout.write(json.dumps(rows, sort_keys=True, indent=1) + "\n")


def cmd_keygen(args) -> int:
    seed = bytes.fromhex(args.seed) if args.seed else None
    key = codec.keygen(seed)
    print(json.dumps({"secret": key.secret.hex(),
                      "public": key.public.hex(),
                      "address": key.address.hex()}, sort_keys=True))
    return 0


def cmd_sim(args) -> int:
    report = run_sim(_sim_config(args))
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
    workers = [int(w) for w in args.workers.split(",")]
    rows = bench_verify(args.txs, workers, seed=args.seed)
    _emit(rows, ["workers", "seconds", "txs", "all_valid"], args.out)
    return 0


def cmd_bench_storage(args) -> int:
    rows = bench_storage(_sim_config(args))
    _emit(rows, ["node", "depth", "main_chain_bytes", "subchain_bytes",
                 "shard_count"], args.out)
    return 0


def cmd_node(args) -> int:
    if args.init:
        allocations = {}
        if args.alloc:
            for item in args.alloc:
                addr, _, amount = item.partition("=")
                allocations[bytes.fromhex(addr)] = int(amount)
        params = ChainParams(difficulty_bits=args.difficulty_bits,
                             block_limit=args.block_size,
                             block_interval=args.interval)
        live.init_data_dir(args.data_dir, allocations, params,
                           prefix=args.prefix)
        print("initialized data dir %s" % args.data_dir)
        if not args.listen:
            return 0
    host, _, port = args.listen.partition(":")
    server = live.NodeServer(args.data_dir, (host, int(port)))
    print("node listening on %s" % args.listen, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def cmd_miner(args) -> int:
    host, _, port = args.node.partition(":")
    client = live.NodeClient(host, int(port))
    params = ChainParams(difficulty_bits=args.bits,
                         block_limit=args.block_size)
    address = bytes.fromhex(args.address)
    mined = 0
    try:
        while args.blocks == 0 or mined < args.blocks:
            block = live.mine_once(client, address, params)
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

    p = sub.add_parser("keygen", help="generate a secp256k1 keypair")
    p.add_argument("--seed", help="32-byte hex seed for determinism")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("sim", help="run a deterministic simulation")
    _add_sim_flags(p)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("bench-verify",
                       help="parallel signature verification benchmark")
    p.add_argument("--txs", type=int, default=10_000)
    p.add_argument("--workers", default="1,2,4,8",
                   help="comma-separated worker counts")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_bench_verify)

    p = sub.add_parser("bench-storage",
                       help="full vs half vs quarter node storage")
    _add_sim_flags(p)
    p.set_defaults(func=cmd_bench_storage)

    p = sub.add_parser("node", help="run a persistent node")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--listen", help="HOST:PORT to serve on")
    p.add_argument("--init", action="store_true",
                   help="create the data directory first")
    p.add_argument("--prefix", default="",
                   help="hosted shard prefix bits, e.g. '01'")
    p.add_argument("--alloc", action="append",
                   help="genesis allocation ADDRHEX=AMOUNT (repeatable)")
    p.add_argument("--block-size", type=int, default=1 << 20)
    p.add_argument("--interval", type=int, default=600)
    p.add_argument("--difficulty-bits", type=lambda s: int(s, 0),
                   default=mainchain.EASY_BITS)
    p.set_defaults(func=cmd_node)

    p = sub.add_parser("miner", help="mine against a running node")
    p.add_argument("--node", required=True, help="HOST:PORT of a node")
    p.add_argument("--address", required=True,
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
