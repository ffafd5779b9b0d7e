import itertools
import random

import pytest
from hypothesis import given, strategies as st

from shardchain import sharding
from shardchain.errors import DecodeError, MaxDepth, ParentFull
from shardchain.network import TreeTopology
from shardchain.sharding import (
    MAX_PREFIX_BITS,
    ShardAssignment,
    decode_assignment,
    hosted_slice,
    hosts,
    nodes_path,
    split,
)


def address_bits(address: bytes, count: int) -> str:
    """First ``count`` bits of an address, most-significant bit first:
    the bit-string oracle that hosts() is checked against."""
    return format(int.from_bytes(address, "big"),
                  "0%db" % MAX_PREFIX_BITS)[:count]


class TestAddressBits:
    """An assignment's range bounds are its prefix, most-significant
    bit first, followed by zero bits (low) and by one bits (high)."""

    def test_msb_first(self):
        addr = b"\x80" + b"\x00" * 19
        assert hosts(ShardAssignment("1"), addr)
        assert not hosts(ShardAssignment("0"), addr)
        assert ShardAssignment("10000000").low == addr

    def test_zero_count(self):
        root = ShardAssignment("")
        assert root.low == b"\x00" * 20 and root.high == b"\xff" * 20
        assert hosts(root, b"\xff" * 20)

    def test_full_width(self):
        addr = b"\xff" * 20
        leaf = ShardAssignment("1" * MAX_PREFIX_BITS)
        assert leaf.low == leaf.high == addr


class TestAssignment:
    def test_root_hosts_everything(self):
        root = ShardAssignment()
        for b in (b"\x00" * 20, b"\xff" * 20, b"\xa5" * 20):
            assert hosts(root, b)

    def test_hosts_exhaustive_two_bits(self):
        """Brute force: every 2-bit assignment hosts exactly the addresses
        with that leading bit pattern."""
        for bits in ["00", "01", "10", "11"]:
            a = ShardAssignment(bits)
            for top in range(256):
                addr = bytes([top]) + b"\x00" * 19
                expected = format(top, "08b")[:2] == bits
                assert hosts(a, addr) == expected

    @given(address=st.binary(min_size=20, max_size=20),
           other=st.binary(min_size=20, max_size=20))
    def test_hosts_is_the_bit_string_compare(self, address, other):
        """At every depth, hosts() answers as comparing the address's
        leading bits with the prefix: for the address's own prefix, the
        same prefix with its last bit flipped, and another's prefix."""
        for depth in range(MAX_PREFIX_BITS + 1):
            own = address_bits(address, depth)
            flipped = own[:-1] + "10"[int(own[-1])] if depth else own
            for bits in (own, flipped, address_bits(other, depth)):
                assert hosts(ShardAssignment(bits), address) == \
                    (address_bits(address, depth) == bits)

    def test_split_partitions(self):
        rng = random.Random(5)
        parent = ShardAssignment("101")
        left, right = split(parent)
        for _ in range(500):
            addr = rng.randbytes(20)
            if hosts(parent, addr):
                assert hosts(left, addr) != hosts(right, addr)
            else:
                assert not hosts(left, addr) and not hosts(right, addr)

    def test_split_balance(self):
        """Random addresses under the root split roughly evenly."""
        rng = random.Random(11)
        left, right = split(ShardAssignment())
        n = 10_000
        lcount = sum(hosts(left, rng.randbytes(20)) for _ in range(n))
        # binomial(10k, 1/2): 5 sigma is 250
        assert abs(lcount - n // 2) < 300

    def test_max_depth(self):
        with pytest.raises(MaxDepth):
            split(ShardAssignment("0" * MAX_PREFIX_BITS))

    def test_child_sides(self):
        parent = ShardAssignment("1")
        assert split(parent)[0].prefix_bits == "10"
        assert split(parent)[1].prefix_bits == "11"

    @pytest.mark.parametrize("bits", ["", "0", "1", "10110", "0" * 17,
                                      "1" * 160])
    def test_encode_roundtrip(self, bits):
        a = ShardAssignment(bits)
        assert decode_assignment(a.encode()) == a

    def test_nonzero_padding_refused(self):
        """The bits after the prefix in its last byte are zero: a set bit
        there would be a second encoding of the same prefix."""
        data = ShardAssignment("101").encode()
        for bit in range(5):
            with pytest.raises(DecodeError):
                decode_assignment(data[:-1] + bytes([data[-1] | 1 << bit]))


PREFIXES = st.one_of(
    st.just(""),
    st.integers(1, MAX_PREFIX_BITS).map(lambda k: "0" * k),
    st.integers(1, MAX_PREFIX_BITS).map(lambda k: "1" * k),
    st.text(alphabet="01", max_size=MAX_PREFIX_BITS))


class TestHostedSlice:
    @given(bits=PREFIXES,
           others=st.lists(st.binary(min_size=20, max_size=20),
                           max_size=12),
           odd=st.lists(st.binary(max_size=24), max_size=4))
    def test_slice_is_the_hosts_filter(self, bits, others, odd):
        """Bisecting sorted records to the prefix range keeps exactly the
        records hosts() keeps. The records hold each bound of the range
        and the address just below it: the first hosted address, the
        upper bound (one past the last hosted address) where it has a
        20-byte form, which for a prefix of ones, 2^160, it has not. A few
        addresses of other lengths show that the slice needs only the
        order, not the width."""
        a = ShardAssignment(bits)
        shift = MAX_PREFIX_BITS - len(bits)
        first = int(bits or "0", 2) << shift
        bound = first + (1 << shift)
        assert a.low == first.to_bytes(20, "big")
        assert a.high == (bound - 1).to_bytes(20, "big")
        edges = [n.to_bytes(20, "big") for n in (first - 1, first,
                                                  bound - 1, bound)
                 if 0 <= n < 1 << MAX_PREFIX_BITS]
        addresses = sorted(set(edges + others + odd))
        kept = tuple(addresses)[hosted_slice(a, addresses)]
        assert kept == tuple(address for address in addresses
                             if hosts(a, address))


class TestNodesPath:
    def build(self, levels=3):
        topo = TreeTopology()
        root = topo.add_root()
        frontier = [root]
        for _ in range(levels - 1):
            nxt = []
            for parent in frontier:
                for _ in range(2):
                    nid, _ = topo.join(parent)
                    nxt.append(nid)
            frontier = nxt
        return topo

    def test_path_follows_prefix(self):
        topo = self.build()
        addr = b"\x00" * 20   # bits 00...
        path = nodes_path(topo, addr)
        assert len(path) == 3
        assert [topo.assignments[n].prefix_bits for n in path] == \
            ["", "0", "00"]

    def test_every_node_on_path_hosts(self):
        topo = self.build()
        rng = random.Random(3)
        for _ in range(200):
            addr = rng.randbytes(20)
            path = nodes_path(topo, addr)
            assert all(hosts(topo.assignments[n], addr) for n in path)
            # the path ends at a leaf in a full tree
            assert topo.child_map[path[-1]] == []

    def test_partial_tree_stops_early(self):
        topo = TreeTopology()
        root = topo.add_root()
        left, _ = topo.join(root)   # only the '0' child exists
        path = nodes_path(topo, b"\xff" * 20)
        assert path == [root]
        path = nodes_path(topo, b"\x00" * 20)
        assert path == [root, left]
