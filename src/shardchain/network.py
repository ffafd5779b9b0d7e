"""Tree backbone overlay with failure-resilient flood broadcast.

The transport is an abstraction; the in-process deterministic simulation
is the primary implementation. Every node forwards a first-seen message
to its parent, children and nearby-neighbor links, so a single dead node
never partitions the broadcast. A message scoped to one address goes
only over links to nodes that host it, so it reaches just that address's
hosting path (the neighbor links lead around a dead node on it).
"""

from __future__ import annotations

import heapq
import random
import struct
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import sharding
from .codec import Envelope, MsgKind  # noqa: F401  (MsgKind re-exported)
from .errors import NoHost, ParentFull, Timeout, UnknownParent
from .sharding import ShardAssignment

NodeId = bytes   # opaque 8-byte identifier
NEIGHBORS = 2      # each node's nearby-neighbor links, before symmetry
TIMEOUT_MS = 10_000.0   # a fragment request's round-trip limit


class TreeTopology:
    """Binary tree of nodes plus symmetric nearby-neighbor links.

    Neighbors are the ``NEIGHBORS`` closest nodes by tree hop
    distance, excluding the node's own parent and children (those links
    already exist), ties broken by NodeId; the relation is symmetrized.
    """

    def __init__(self):
        self.parent: Dict[NodeId, Optional[NodeId]] = {}
        self.child_map: Dict[NodeId, List[NodeId]] = {}
        self.assignments: Dict[NodeId, ShardAssignment] = {}
        self.neighbor_map: Dict[NodeId, Set[NodeId]] = {}
        # each node's links() with the [low, high] range of each link's
        # assignment, rebuilt with the neighbours: the flood router's table
        self.link_ranges: Dict[NodeId, Tuple[Tuple[NodeId, bytes, bytes],
                                             ...]] = {}
        self.root: Optional[NodeId] = None
        self._next = 0

    def _new_id(self) -> NodeId:
        self._next += 1
        return struct.pack(">Q", self._next)

    def add_root(self) -> NodeId:
        assert self.root is None
        nid = self._new_id()
        self.root = nid
        self.parent[nid] = None
        self.child_map[nid] = []
        self.assignments[nid] = ShardAssignment()
        self.recompute_neighbors()
        return nid

    def join(self, parent: NodeId) -> Tuple[NodeId, ShardAssignment]:
        """Append a leaf under ``parent``; assignment extends the parent's
        prefix by one bit (left child 0, right child 1)."""
        if parent not in self.child_map:
            raise UnknownParent("no such parent node")
        siblings = self.child_map[parent]
        if len(siblings) >= 2:
            raise ParentFull("parent already has two children")
        nid = self._new_id()
        assignment = sharding.split(self.assignments[parent])[len(siblings)]
        self.parent[nid] = parent
        siblings.append(nid)
        self.child_map[nid] = []
        self.assignments[nid] = assignment
        self.recompute_neighbors()
        return nid, assignment

    def nodes(self) -> List[NodeId]:
        return sorted(self.parent)

    def tree_links(self, node: NodeId) -> List[NodeId]:
        links = list(self.child_map[node])
        if self.parent[node] is not None:
            links.append(self.parent[node])
        return links

    def distances_from(self, node: NodeId) -> Dict[NodeId, int]:
        dist = {node: 0}
        frontier = [node]
        while frontier:
            nxt = []
            for n in frontier:
                for m in self.tree_links(n):
                    if m not in dist:
                        dist[m] = dist[n] + 1
                        nxt.append(m)
            frontier = nxt
        return dist

    def hop_distance(self, a: NodeId, b: NodeId) -> int:
        return self.distances_from(a)[b]

    def recompute_neighbors(self) -> None:
        chosen: Dict[NodeId, Set[NodeId]] = {n: set() for n in self.parent}
        for node in self.parent:
            skip = set(self.tree_links(node)) | {node}
            dist = self.distances_from(node)
            ranked = sorted((d, n) for n, d in dist.items() if n not in skip)
            chosen[node].update(n for _, n in ranked[:NEIGHBORS])
        for node, nbrs in chosen.items():   # symmetric closure
            for m in nbrs:
                chosen[m].add(node)
        self.neighbor_map = chosen
        self.link_ranges = {
            node: tuple((link, self.assignments[link].low,
                         self.assignments[link].high)
                        for link in self.links(node))
            for node in self.parent}

    def links(self, node: NodeId) -> List[NodeId]:
        """All broadcast links: parent, children, then neighbors."""
        out = self.tree_links(node)
        out.extend(sorted(self.neighbor_map[node] - set(out)))
        return out


class SimTransport:
    """Deterministic discrete-event message queue.

    Identical seed, config and input schedule produce an identical
    delivery order. Time is in simulated milliseconds.
    """

    def __init__(self, seed: int = 0, latency_ms: Tuple[float, float] = (1, 5)):
        self.rng = random.Random(seed ^ 0x5EED)
        self.latency_ms = latency_ms
        self.queue: List[Tuple[float, int, NodeId, NodeId, Envelope]] = []
        self.handlers: Dict[NodeId, Callable] = {}
        self.alive: Dict[NodeId, bool] = {}
        self.now = 0.0
        self._seq = 0

    def register(self, node: NodeId,
                 handler: Callable[[NodeId, Envelope], None]) -> None:
        self.handlers[node] = handler
        self.alive.setdefault(node, True)

    def is_alive(self, node: NodeId) -> bool:
        return self.alive.get(node, False)

    def sample_latency(self) -> float:
        lo, hi = self.latency_ms
        return self.rng.uniform(lo, hi)

    def send(self, sender: NodeId, dest: NodeId, env: Envelope) -> None:
        if not self.is_alive(sender):
            return
        self._seq += 1
        at = self.now + self.sample_latency()
        heapq.heappush(self.queue, (at, self._seq, sender, dest, env))

    def run(self) -> None:
        """Deliver queued messages in time order until quiescent."""
        while self.queue:
            at, _, sender, dest, env = heapq.heappop(self.queue)
            self.now = max(self.now, at)
            if not self.is_alive(dest):
                continue
            handler = self.handlers.get(dest)
            if handler is not None:
                handler(sender, env)


class FloodRouter:
    """Per-node first-receipt forwarding over parent/children/neighbor
    links. A node that already has a hop count for a message drops
    further copies, so ``on_deliver`` fires once per node per flood. An
    origination into an empty queue forgets every earlier flood: no copy
    of any message is in flight then, so the router holds state only for
    the floods still draining and the last one.

    ``scope`` reads from a message the address it concerns, or None. A
    message with an address is forwarded only to links whose assignment
    hosts it, so from a hosting origin it reaches the alive nodes on that
    address's ``sharding.nodes_path`` and no other node; any other
    message floods every node."""

    def __init__(self, topology: TreeTopology, transport: SimTransport,
                 on_deliver: Callable[[NodeId, Envelope], None],
                 scope: Callable[[Envelope], Optional[bytes]]):
        self.topology = topology
        self.transport = transport
        self.on_deliver = on_deliver
        self.scope = scope
        # msg_id -> the nodes it reached -> hop count
        self.hops: Dict[bytes, Dict[NodeId, int]] = {}

    def attach_all(self) -> None:
        for node in self.topology.nodes():
            self.transport.register(node, lambda sender, env, n=node:
                                    self._receive(n, sender, env))

    def originate(self, origin: NodeId, env: Envelope) -> None:
        if not self.transport.is_alive(origin):
            return
        if not self.transport.queue:
            self.hops.clear()
        self.hops.setdefault(env.msg_id, {})[origin] = 0
        self.on_deliver(origin, env)
        self._forward(origin, None, env)

    def _receive(self, node: NodeId, sender: NodeId, env: Envelope) -> None:
        hops = self.hops[env.msg_id]
        if node in hops:
            return
        hops[node] = hops[sender] + 1
        self.on_deliver(node, env)
        self._forward(node, sender, env)

    def _forward(self, node: NodeId, came_from: Optional[NodeId],
                 env: Envelope) -> None:
        address = self.scope(env)
        # a link hosts the address when it lies in the link's range, as
        # sharding.hosts tests it
        for link, low, high in self.topology.link_ranges[node]:
            if link != came_from and (address is None
                                      or low <= address <= high):
                self.transport.send(node, link, env)


def request_fragment(requester: NodeId, address: bytes, from_height: int,
                     to_height: int, topology: TreeTopology,
                     transport: SimTransport,
                     serve: Callable[[NodeId, bytes, int, int], object]):
    """Route a fragment request to the nearest alive host on the
    address's hosting path; ``serve`` performs the actual lookup."""
    path = sharding.nodes_path(topology, address)
    alive_hosts = [n for n in path if transport.is_alive(n)]
    if not alive_hosts:
        raise NoHost("no alive node hosts this address")
    dist = topology.distances_from(requester)
    target = min(alive_hosts, key=lambda n: (dist[n], n))
    hops = dist[target]
    # simulated round trip across the hop path
    rtt = sum(transport.sample_latency() for _ in range(2 * hops))
    if rtt > TIMEOUT_MS:
        raise Timeout("fragment request exceeded %.0f ms" % TIMEOUT_MS)
    transport.now += rtt
    return serve(target, address, from_height, to_height)
