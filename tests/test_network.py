import random
from collections import Counter

import pytest

from shardchain.codec import decode_envelope
from shardchain.errors import DecodeError, NoHost, ParentFull, Timeout, \
    UnknownParent
from shardchain.network import (
    Envelope,
    FloodRouter,
    MsgKind,
    SimTransport,
    TreeTopology,
    broadcast,
    request_fragment,
)
from shardchain.sharding import nodes_path


def full_tree(nodes, neighbor_count=2):
    """Breadth-first tree of the given node count: node i's parent is
    (i-1)//2, matching a heap layout."""
    topo = TreeTopology(neighbor_count=neighbor_count)
    ids = [topo.add_root()]
    while len(ids) < nodes:
        parent = ids[(len(ids) - 1) // 2]
        nid, _ = topo.join(parent)
        ids.append(nid)
    return topo, ids


def tx_address(env):
    """Scope of the test messages: a NewTx payload starts with the
    address it is for; other kinds have none."""
    return env.payload[:20] if env.kind == MsgKind.NewTx else None


# one address per 5-bit prefix: every path of a 31-node tree, each twice
SPREAD = [bytes([i << 3]) + b"\x5a" * 19 for i in range(32)]


class TestEnvelope:
    def test_roundtrip(self):
        env = Envelope(MsgKind.NewTx, b"hello world")
        assert decode_envelope(env.encode()) == Envelope(MsgKind.NewTx,
                                                         b"hello world")

    def test_msg_id_binds_kind(self):
        a = Envelope(MsgKind.NewTx, b"x")
        b = Envelope(MsgKind.NewBlock, b"x")
        assert a.msg_id != b.msg_id

    def test_corrupt_id_rejected(self):
        data = bytearray(Envelope(MsgKind.Hello, b"payload").encode())
        data[6] ^= 0x01
        with pytest.raises(DecodeError):
            decode_envelope(bytes(data))


class TestTopology:
    def test_join_assignments(self):
        topo, ids = full_tree(7)
        prefixes = [topo.assignment(n).prefix_bits for n in ids]
        assert prefixes == ["", "0", "1", "00", "01", "10", "11"]

    def test_parent_full(self):
        topo, ids = full_tree(3)
        with pytest.raises(ParentFull):
            topo.join(ids[0])

    def test_unknown_parent(self):
        topo, _ = full_tree(1)
        with pytest.raises(UnknownParent):
            topo.join(b"\xff" * 8)

    def test_hop_distances(self):
        topo, ids = full_tree(7)
        assert topo.hop_distance(ids[0], ids[0]) == 0
        assert topo.hop_distance(ids[0], ids[1]) == 1
        assert topo.hop_distance(ids[3], ids[4]) == 2   # via their parent
        assert topo.hop_distance(ids[3], ids[6]) == 4   # across the root

    def test_neighbors_symmetric(self):
        topo, ids = full_tree(15)
        for n in topo.nodes():
            for m in topo.neighbors(n):
                assert n in topo.neighbors(m)
                assert m not in topo.tree_links(n)

    def test_links_superset_of_tree(self):
        topo, ids = full_tree(7)
        for n in topo.nodes():
            links = topo.links(n)
            assert set(topo.tree_links(n)) <= set(links)
            assert len(links) == len(set(links))


class TestBroadcast:
    def test_reaches_all(self):
        topo, ids = full_tree(15)
        transport = SimTransport(seed=1)
        report = broadcast(ids[0], Envelope(MsgKind.NewTx, b"m"), topo,
                           transport)
        assert set(report.reached) == set(ids)
        assert report.reached[ids[0]] == 0

    def test_duplicate_suppression(self):
        topo, ids = full_tree(7)
        transport = SimTransport(seed=1)
        delivered = []
        router = FloodRouter(topo, transport,
                             on_deliver=lambda n, e: delivered.append(n))
        router.attach_all()
        env = Envelope(MsgKind.NewTx, b"once")
        router.originate(ids[0], env)
        transport.run()
        assert sorted(delivered) == sorted(ids)   # exactly once per node
        # scoped: once per host of the 01 prefix (ids 0, 1 and 4) and
        # nowhere else, while a message the scope gives no address floods
        delivered = Counter()
        router = FloodRouter(
            topo, transport, scope=tx_address,
            on_deliver=lambda n, e: delivered.update([(e.kind, n)]))
        router.attach_all()
        payload = b"\x40" * 20 + b"once"
        router.originate(ids[0], Envelope(MsgKind.NewTx, payload))
        router.originate(ids[0], Envelope(MsgKind.NewBlock, payload))
        transport.run()
        assert delivered == Counter(
            [(MsgKind.NewTx, n) for n in (ids[0], ids[1], ids[4])]
            + [(MsgKind.NewBlock, n) for n in ids])

    def test_drained_floods_are_forgotten(self):
        """An origination into an empty queue forgets the floods before
        it, so several drained floods through one router leave state for
        the last one only; each broadcast still reports every node."""
        topo, ids = full_tree(7)
        transport = SimTransport(seed=3)
        router = FloodRouter(topo, transport)
        router.attach_all()
        for i in range(4):
            env = Envelope(MsgKind.NewBlock, b"flood %d" % i)
            report = broadcast(ids[i], env, topo, transport, router)
            assert set(report.reached) == set(ids)
            assert report.reached[ids[i]] == 0
        assert list(router.hops) == [env.msg_id]
        # a flood started while another's copies are in flight keeps both
        first = Envelope(MsgKind.NewBlock, b"first")
        second = Envelope(MsgKind.NewBlock, b"second")
        router.originate(ids[0], first)
        router.originate(ids[1], second)
        transport.run()
        assert list(router.hops) == [first.msg_id, second.msg_id]
        assert all(set(router.hops[m]) == set(ids) for m in router.hops)

    def test_single_failure_everyone_else_reached(self):
        """With neighbor_count=2, killing any single non-origin node never
        prevents the rest from hearing a broadcast."""
        for size in (7, 15):
            topo, ids = full_tree(size)
            for dead in ids[1:]:
                transport = SimTransport(seed=2)
                for n in ids:
                    transport.alive[n] = n != dead
                report = broadcast(ids[0], Envelope(MsgKind.NewTx, b"f"),
                                   topo, transport)
                expected = set(ids) - {dead}
                assert set(report.reached) == expected, \
                    "partition when %r is down" % dead

    def test_deterministic_trace(self):
        def trace():
            topo, ids = full_tree(15)
            transport = SimTransport(seed=42)
            router = FloodRouter(topo, transport)
            router.attach_all()
            log = []
            for dest, handler in list(transport.handlers.items()):
                def logged(sender, env, dest=dest, handler=handler):
                    log.append((transport.now, sender, dest, env.msg_id))
                    handler(sender, env)
                transport.register(dest, logged)
            broadcast(ids[0], Envelope(MsgKind.NewBlock, b"t"), topo,
                      transport, router)
            return log
        first = trace()
        assert len(first) > 14      # every node, plus duplicate receipts
        assert first == trace()

    def test_dead_origin_silent(self):
        topo, ids = full_tree(3)
        transport = SimTransport(seed=0)
        transport.alive = {n: True for n in ids}
        transport.alive[ids[0]] = False
        report = broadcast(ids[0], Envelope(MsgKind.NewTx, b"z"), topo,
                           transport)
        assert report.reached == {}
        router = FloodRouter(topo, transport, scope=tx_address)
        router.attach_all()
        report = broadcast(ids[0], Envelope(MsgKind.NewTx, b"\x00" * 20),
                           topo, transport, router)
        assert report.reached == {}

    def test_scoped_reaches_exactly_the_alive_hosts(self):
        """For every tree size, no or any one dead node, every alive
        origin on the address's hosting path and a spread of addresses,
        each alive host gets the message once and no other node gets it:
        the neighbor links carry it around a dead host."""
        for size in (7, 15, 31):
            topo, ids = full_tree(size)
            for dead in [None] + ids:
                for address in SPREAD:
                    hosts = [n for n in nodes_path(topo, address)
                             if n != dead]
                    for origin in hosts:
                        transport = SimTransport(seed=5)
                        for n in ids:
                            transport.alive[n] = n != dead
                        delivered = Counter()
                        router = FloodRouter(
                            topo, transport, scope=tx_address,
                            on_deliver=lambda n, e: delivered.update([n]))
                        router.attach_all()
                        router.originate(origin, Envelope(
                            MsgKind.NewTx, address + origin))
                        transport.run()
                        assert delivered == Counter(hosts), \
                            "size %d, dead %r, origin %r, address %s" \
                            % (size, dead, origin, address.hex())


class TestRequestFragment:
    def serve(self, node, address, lo, hi):
        return ("served", node, address, lo, hi)

    def test_routed_to_host_path(self):
        topo, ids = full_tree(7)
        transport = SimTransport(seed=3)
        for n in ids:
            transport.alive[n] = True
        addr = b"\x00" * 20
        result = request_fragment(ids[6], addr, 0, 5, topo, transport,
                                  self.serve)
        assert result[0] == "served"
        assert result[1] in (ids[0], ids[1], ids[3])   # the 00-prefix path

    def test_nearest_host_preferred(self):
        topo, ids = full_tree(7)
        transport = SimTransport(seed=3)
        for n in ids:
            transport.alive[n] = True
        addr = b"\x00" * 20
        # requester is the deepest host itself: zero-distance service
        result = request_fragment(ids[3], addr, 0, 5, topo, transport,
                                  self.serve)
        assert result[1] == ids[3]

    def test_failover_to_shallower_host(self):
        topo, ids = full_tree(7)
        transport = SimTransport(seed=3)
        for n in ids:
            transport.alive[n] = True
        transport.alive[ids[3]] = False
        result = request_fragment(ids[3], b"\x00" * 20, 0, 5, topo,
                                  transport, self.serve)
        assert result[1] in (ids[0], ids[1])

    def test_no_host(self):
        topo, ids = full_tree(3)
        transport = SimTransport(seed=3)
        for n in ids:
            transport.alive[n] = False
        with pytest.raises(NoHost):
            request_fragment(ids[1], b"\x00" * 20, 0, 5, topo, transport,
                             self.serve)

    def test_timeout(self):
        topo, ids = full_tree(7)
        transport = SimTransport(seed=3, latency_ms=(500, 900))
        for n in ids:
            transport.alive[n] = True
        with pytest.raises(Timeout):
            request_fragment(ids[6], b"\x00" * 20, 0, 5, topo, transport,
                             self.serve, timeout_ms=1.0)
