"""In-memory span tracer that wraps the public functions of ``shardchain``.

Nothing in the program is edited: ``install`` replaces module functions and
class methods with wrappers that record one span per call (name, start,
end, parent span, workload-operation id) plus counters taken at the same
boundaries. Spans are written out when the process ends; ``aggregate``
derives calls and self time per span name.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter

# processor time of the process, as for the sims' end-to-end timings: it
# leaves out the stretches in which a shared host runs another tenant
perf = time.process_time


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        # one stack for the process: every traced workload calls into the
        # program from one thread at a time (the live node serves its one
        # client connection on one handler thread)
        self.stack: list = []
        self.op_id = 0
        self.enabled = True

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.start.append(perf())
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf()
        self.stack.pop()

    def wrap(self, fn, namer):
        """Span-recording wrapper; ``namer`` is a fixed name or a callable
        computing the name from the call arguments."""
        fixed = namer if isinstance(namer, str) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            name = fixed or namer(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.counts[name + ".failed"] += 1
                raise
            finally:
                tracer.close(idx)

        traced.__wrapped_original__ = fn
        return traced

    # -- output -------------------------------------------------------

    def aggregate(self) -> dict:
        """{name: [calls, self_seconds, total_seconds]} over all spans."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict = {}
        names = self.names
        for i in range(n):
            dur = end[i] - start[i]
            row = out.setdefault(names[self.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur - child[i]
            row[2] += dur
        return out

    def write(self, base: str) -> None:
        """Spans as packed arrays in ``base.bin`` (name ids, starts, ends,
        parents, op ids, in that order) with names in ``base.json``."""
        with open(base + ".bin", "wb") as fh:
            for arr in (self.name, self.start, self.end, self.parent,
                        self.op):
                arr.tofile(fh)
        with open(base + ".json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.start),
                       "arrays": ["name:i", "start:d", "end:d", "parent:i",
                                  "op:i"],
                       "counts": dict(self.counts)}, fh)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "shardchain" or name.startswith("shardchain.")]


def _rebind(orig, wrapped) -> None:
    """Point every package-level name and default argument that holds
    ``orig`` at ``wrapped``."""
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
    for mod in _package_modules():
        for value in list(vars(mod).values()):
            funcs = [value] if inspect.isfunction(value) else (
                [v for v in vars(value).values() if inspect.isfunction(v)]
                if inspect.isclass(value) else [])
            for fn in funcs:
                fn = getattr(fn, "__wrapped_original__", fn)
                if fn.__defaults__ and any(d is orig for d in fn.__defaults__):
                    fn.__defaults__ = tuple(wrapped if d is orig else d
                                            for d in fn.__defaults__)


def wrap_function(tracer: Tracer, module, attr: str, name: str) -> None:
    orig = getattr(module, attr)
    _rebind(orig, tracer.wrap(orig, name))


def wrap_method(tracer: Tracer, cls, attr: str, namer) -> None:
    setattr(cls, attr, tracer.wrap(getattr(cls, attr), namer))


def _depth_namer(base: str):
    return lambda self, *a, **k: "%s.d%d" % (base, self.assignment.depth)


def _ingest_namer(self, block, *a, **k):
    if block.block_hash in self.view.blocks:
        return "node.ingest_block.known"
    path = "fast" if block.header.parent_block_hash == self.view.tip \
        else "side"
    return "node.ingest_block.%s.d%d" % (path, self.assignment.depth)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions and methods (imports the whole
    package first so that every module's names are rebound)."""
    from shardchain import (codec, live, mainchain, miner, network, node,
                            sharding, sim, subchain, wallet)

    for module, attr in [
            (codec, "sign_tx"), (codec, "verify_tx"), (codec, "keygen"),
            (subchain, "apply_tx"), (subchain, "replay"),
            (subchain, "decode_fragment"),
            (mainchain, "validate_block"), (mainchain, "seal"),
            (sharding, "hosts"), (sharding, "nodes_path"),
            (wallet, "account_view"), (wallet, "batch_settle"),
            (live, "load_node")]:
        wrap_function(tracer, module, attr,
                      "%s.%s" % (module.__name__.split(".")[-1], attr))

    for cls, attr in [(mainchain.ChainView, "branch"),
                      (mainchain.ChainView, "rebuild_index"),
                      (network.SimTransport, "run"),
                      (miner.Miner, "pool_insert"),
                      (miner.Miner, "build_template"),
                      (miner.Miner, "refresh_pool"),
                      (sim.Simulation, "run_interval"),
                      (live.NodeClient, "hello"),
                      (live.NodeClient, "fetch_fragment"),
                      (live.NodeClient, "submit_block")]:
        wrap_method(tracer, cls, attr, "%s.%s.%s" % (
            cls.__module__.split(".")[-1], cls.__name__, attr))

    for attr in ["accept_pending_tx", "full_state", "claim_context",
                 "serve_fragment"]:
        wrap_method(tracer, node.Node, attr, _depth_namer("node." + attr))
    wrap_method(tracer, node.Node, "ingest_block", _ingest_namer)

    # Link messages handed to the transport and flood originations, so
    # that duplicates = link messages - first receipts over a link.
    send = network.SimTransport.send
    originate = network.FloodRouter.originate

    def counted_send(self, *a, **k):
        if tracer.enabled:
            tracer.counts["network.deliveries"] += 1
        return send(self, *a, **k)

    def counted_originate(self, *a, **k):
        if tracer.enabled:
            tracer.counts["network.originations"] += 1
        return originate(self, *a, **k)

    network.SimTransport.send = counted_send
    network.FloodRouter.originate = counted_originate

    # request_fragment: span plus the hop distance to the serving node.
    request = tracer.wrap(network.request_fragment,
                          "network.request_fragment")

    def request_fragment(requester, address, lo, hi, topology, transport,
                         serve, *a, **k):
        served = []

        def serve_and_note(target, *sa):
            served.append(target)
            return serve(target, *sa)

        try:
            return request(requester, address, lo, hi, topology, transport,
                           serve_and_note, *a, **k)
        finally:
            if served and tracer.enabled:
                tracer.counts["network.fragment_hops"] += \
                    topology.hop_distance(requester, served[0])

    _rebind(network.request_fragment, request_fragment)

    # save_node: span plus the bytes the data dir holds after each save.
    save = tracer.wrap(live.save_node, "live.save_node")

    def save_node(node_obj, data_dir, *a, **k):
        result = save(node_obj, data_dir, *a, **k)
        if tracer.enabled:
            tracer.counts["live.save_node.bytes"] += sum(
                entry.stat().st_size for entry in os.scandir(data_dir)
                if entry.is_file())
        return result

    _rebind(live.save_node, save_node)
