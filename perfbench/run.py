"""End-to-end and per-layer benchmark of shardchain.

    python3 perfbench/run.py --workload sim-7node --seed 1 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each run plays a fixed number of episodes of the workload, each in a fresh
interpreter (``episode.py``), with seeds derived from ``--seed``, so every
run of a seed measures the same inputs. Every episode checks the program's
outputs; a failed check makes the run incorrect and the exit code nonzero.
Episodes scale their timings to a reference host speed, measured by a
calibration loop run between operations. ``--trace 0`` prints
the end-to-end metrics named in BENCHMARK.json; ``--trace 1`` runs each
episode twice, untraced and then traced with the same seed, and prints the
per-layer metrics plus the tracing overhead. The last line of stdout is
one JSON object; the lines before it give every metric by name with its
unit, the host, the unscaled values and the percentile behind each
``.tail``. Raw episode results, spans and the run summary are kept under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("sim-7node", "reorg-3node", "live-tcp")
# episodes per run, so that a run takes 25 to 50 s on a shared 2-vCPU
# host; live-tcp has the noisiest tails and the cheapest episodes
EPISODES = {"sim-7node": 4, "reorg-3node": 3, "live-tcp": 6}
# an episode with this many samples of a timing supports p90 on its own
PER_EPISODE_TAIL = 100
EPISODE_TIMEOUT_S = 120


def fail(message: str) -> int:
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


# -- statistics ------------------------------------------------------------

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 99, with at least ten of ``n``
    samples beyond it."""
    return max(50, min(99, math.floor(100 * (1 - 10 / n))))


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, episodes: list, meta: dict) -> dict:
    """Every end-to-end metric of the workload from its episodes' results,
    each a median over all episodes; ``meta`` receives the percentile and
    sample count of each ``.tail``."""
    out = {
        "setup_s": median([e["setup_s"] for e in episodes]),
        "confirmed_tps": median([e["confirmed"] / e["system_s"]
                                 for e in episodes]),
        "peak_rss_mb": median([e["peak_rss_mb"] for e in episodes]),
    }
    for name in ("block_ms", "tx_accept_ms"):
        pooled = [x for e in episodes for x in e[name]]
        out[name + ".p50"] = median(pooled)
        per_episode = min(len(e[name]) for e in episodes)
        own = per_episode >= PER_EPISODE_TAIL
        if own:
            # each episode supports a tail of its own: take it per
            # episode, so one burst of contention moves one value only
            pct = tail_percentile(per_episode)
            out[name + ".tail"] = median([percentile(e[name], pct)
                                          for e in episodes])
        else:
            pct = tail_percentile(len(episodes) * per_episode)
            out[name + ".tail"] = percentile(pooled, pct)
        meta[name + ".tail"] = {"percentile": pct, "samples": len(pooled),
                                "per_episode": own}
    attempted = sum(e["attempted"] for e in episodes)
    out["ops_failed"] = sum(e["failed"] for e in episodes) / attempted
    if workload == "reorg-3node":
        out["reorg_ms.p50"] = median([x for e in episodes
                                      for x in e["reorg_ms"]])
        out["reorg_s.total"] = median([sum(e["reorg_ms"]) / 1e3
                                       for e in episodes])
    if workload == "live-tcp":
        out["restart_s"] = median([e["restart_s"] for e in episodes])
        out["data_dir_bytes"] = median([e["data_dir_bytes"]
                                        for e in episodes])
    return out


def layers(workload: str, plain: list, traced: list) -> dict:
    """Per-layer metrics: the median over traced episodes of each span
    name's calls and self time and of each counter, the workload-specific
    end-to-end metrics of the untraced twins, and the tracing overhead as
    traced over untraced end-to-end metrics."""
    per_episode = []
    for e in traced:
        spans, counts = {}, {}
        for source in [e] + e.get("node_layers", []):
            for name, (calls, self_s, _total) in source["layers"].items():
                row = spans.setdefault(name, [0, 0.0])
                row[0] += calls
                row[1] += self_s
            for name, count in source["counts"].items():
                counts[name] = counts.get(name, 0) + count
        if counts.get("network.deliveries"):
            # first receipts over a link = deliveries to the workload's
            # handler (its operations) minus flood originations
            counts["network.duplicates"] = counts["network.deliveries"] - (
                e["attempted"] - counts.get("network.originations", 0))
        per_episode.append((spans, counts))
    out = {}
    for name in {n for spans, _ in per_episode for n in spans}:
        out[name + ".calls"] = median([s.get(name, [0, 0.0])[0]
                                       for s, _ in per_episode])
        out[name + ".self_s"] = median([s.get(name, [0, 0.0])[1]
                                        for s, _ in per_episode])
    for name in {n for _, counts in per_episode for n in counts}:
        out[name] = median([c.get(name, 0) for _, c in per_episode])
    out["codec.verify_uncached.us_per_tx"] = median(
        [e["verify_uncached_us"] for e in traced])
    base = end_to_end(workload, plain, {})
    with_trace = end_to_end(workload, traced, {})
    for name, value in base.items():
        if name in ("reorg_ms.p50", "reorg_s.total", "restart_s",
                    "data_dir_bytes"):
            out[name] = value
        elif name != "ops_failed" and value:
            out["trace_overhead." + name] = with_trace[name] / value
    return out


# -- running episodes ------------------------------------------------------

def run_episode(workload: str, seed: int, trace: int, work: str) -> dict:
    out = os.path.join(work, "episode-%d-t%d.json" % (seed, trace))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "episode.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", out, "--work", work]
    # its own process group, so that a timeout also ends the node
    # processes a live-tcp episode started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    with open(out) as fh:
        return json.load(fh)


def host_record(workload: str, seed: int) -> dict:
    try:
        import cryptography
        crypto = cryptography.__version__
    except ImportError:
        crypto = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "cryptography": crypto, "git_commit": commit,
            "machine": platform.machine(), "workload": workload,
            "seed": seed}


def run_workload(workload: str, seed: int, trace: int) -> dict:
    work = os.path.join(OUT, "%s-s%d-t%d" % (workload, seed, trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plain, traced = [], []
    start = time.monotonic()
    for k in range(EPISODES[workload]):
        # untraced, then traced with the same seed when tracing
        plain.append(run_episode(workload, seed * 1000 + k, 0, work))
        if trace:
            traced.append(run_episode(workload, seed * 1000 + k, 1, work))
    episodes = plain + traced
    meta = {"host": host_record(workload, seed), "episodes": len(plain),
            "wall_s": time.monotonic() - start,
            "cal_ms": [1e3 * median(e["cal_s"]) for e in plain],
            "unscaled": end_to_end(workload, [dict(e, **e["unscaled"])
                                              for e in plain], {})}
    summary = {
        "workload": workload,
        "correct": all(all(e["checks"].values()) for e in episodes),
        "attempted": sum(e["attempted"] for e in plain),
        "failed": sum(e["failed"] for e in plain),
        "failed_checks": sorted({name for e in episodes
                                 for name, ok in e["checks"].items()
                                 if not ok}),
        "error_kinds": {},
        "end_to_end": end_to_end(workload, plain, meta),
        "meta": meta,
    }
    for e in plain:
        for kind, count in e.get("error_kinds", {}).items():
            summary["error_kinds"][kind] = \
                summary["error_kinds"].get(kind, 0) + count
    if trace:
        summary["per_layer"] = layers(workload, plain, traced)
    with open(os.path.join(work, "summary.json"), "w") as fh:
        json.dump({"summary": summary, "episodes": episodes}, fh, indent=1)
    return summary


def report(summary: dict, manifest: dict, trace: int, prefix: str = ""):
    """Print each metric with its unit; return the manifest's metrics."""
    wl, meta = summary["workload"], summary["meta"]
    print("# %s host %s" % (wl, json.dumps(meta["host"])))
    print("# %s episodes %d in %.1f s, tails %s" % (
        wl, meta["episodes"], meta["wall_s"],
        json.dumps({k: v for k, v in meta.items() if k.endswith(".tail")})))
    print("# %s calibration loop median ms per episode %s" % (
        wl, json.dumps([round(x, 3) for x in meta["cal_ms"]])))
    print("# %s unscaled %s" % (wl, json.dumps(
        {k: round(v, 6) for k, v in meta["unscaled"].items()})))
    print("# %s ops attempted %d failed %d %s" % (
        wl, summary["attempted"], summary["failed"],
        json.dumps(summary["error_kinds"])))
    if summary["failed_checks"]:
        print("# %s FAILED CHECKS %s" % (wl, summary["failed_checks"]))
    e2e_units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    extra_units = {"ops_failed": "ratio", "reorg_ms.p50": "ms",
                   "reorg_s.total": "s", "restart_s": "s",
                   "data_dir_bytes": "bytes"}
    for name, value in summary["end_to_end"].items():
        unit = e2e_units.get(name) or extra_units[name]
        print("%s %s = %.6g %s" % (wl, name, value, unit))
    wanted = manifest["per_layer"] if trace else manifest["end_to_end"]
    found = summary["per_layer"] if trace else summary["end_to_end"]
    if trace:
        units = {m["name"]: m["unit"] for m in wanted}
        for name in sorted(found):
            if name in units:
                print("%s %s = %.6g %s" % (wl, name, found[name],
                                           units[name]))
    # a layer a workload never calls reports zero; every end-to-end
    # metric must have been measured
    return {prefix + m["name"]: {
        "value": found.get(m["name"], 0) if trace else found[m["name"]],
        "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="must equal run_seconds in BENCHMARK.json; "
                        "the run length is fixed by its episode count")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "shardchain",
                                       "__init__.py")):
        return fail("no shardchain sources under %s/src" % ROOT)
    with open(manifest_path) as fh:
        manifest = json.load(fh)

    if args.seconds is not None and args.seconds != manifest["run_seconds"]:
        return fail("--seconds %d differs from run_seconds %d in "
                    "BENCHMARK.json" % (args.seconds,
                                        manifest["run_seconds"]))
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, correct, attempted, failed = {}, True, 0, 0
    for workload in chosen:
        try:
            summary = run_workload(workload, args.seed, args.trace)
        except (subprocess.SubprocessError, OSError, ValueError) as err:
            return fail("%s: episode failed: %s" % (workload, err))
        prefix = workload + ":" if args.workload == "all" else ""
        metrics.update(report(summary, manifest, args.trace, prefix))
        correct &= summary["correct"]
        attempted += summary["attempted"]
        failed += summary["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
