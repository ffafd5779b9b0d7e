"""Address-prefix shard assignment and the hosting-path computation.

One account is one shard. A node's position in the binary tree fixes a
bit-prefix; the node hosts exactly the addresses whose leading bits
match it (depth 0 = full node, hosting everything).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .codec import ADDR_LEN, Frozen
from .errors import DecodeError, MaxDepth

MAX_PREFIX_BITS = ADDR_LEN * 8


class ShardAssignment(Frozen):
    """A '0'/'1' prefix string, MSB-first, and the first and the last
    address it hosts, ``low`` and ``high``: the prefix followed by zero
    bits, and by one bits. hosts() is the range test low <= a <= high."""

    __slots__ = ("prefix_bits", "low", "high")
    _fields = ("prefix_bits",)

    def __init__(self, prefix_bits: str = ""):
        prefix = int(prefix_bits or "0", 2)
        shift = MAX_PREFIX_BITS - len(prefix_bits)
        object.__setattr__(self, "prefix_bits", prefix_bits)
        object.__setattr__(self, "low", (prefix << shift).to_bytes(
            ADDR_LEN, "big"))
        object.__setattr__(self, "high", (((prefix + 1) << shift) - 1)
                           .to_bytes(ADDR_LEN, "big"))

    @property
    def depth(self) -> int:
        return len(self.prefix_bits)

    def encode(self) -> bytes:
        """(length byte, packed bits) as used in node-hello messages."""
        size = (self.depth + 7) // 8
        packed = int(self.prefix_bits.ljust(8 * size, "0") or "0", 2)
        return bytes([self.depth]) + packed.to_bytes(size, "big")


def decode_assignment(data: bytes) -> ShardAssignment:
    if not data:
        raise DecodeError("empty assignment")
    depth = data[0]
    if depth > MAX_PREFIX_BITS:
        raise DecodeError("prefix of %d bits exceeds %d"
                          % (depth, MAX_PREFIX_BITS))
    if len(data) != 1 + (depth + 7) // 8:
        raise DecodeError("a %d-bit prefix takes %d bytes, got %d"
                          % (depth, 1 + (depth + 7) // 8, len(data)))
    bits = "".join(format(b, "08b") for b in data[1:])
    if "1" in bits[depth:]:
        raise DecodeError("nonzero padding after the prefix")
    return ShardAssignment(prefix_bits=bits[:depth])


def hosts(assignment: ShardAssignment, address: bytes) -> bool:
    """Whether the address lies in the assignment's [low, high] range: for
    a 20-byte address, whether its leading bits are the prefix."""
    return assignment.low <= address <= assignment.high


def hosted_slice(assignment: ShardAssignment, addresses) -> slice:
    """The slice of ``addresses``, a block's address column, that the
    assignment hosts, found by bisecting to its [low, high] range; it
    also cuts any sequence aligned with the block's records. It relies
    only on the addresses being strictly sorted, as
    ``mainchain.validate_block`` checks: the slice then holds the
    addresses ``hosts()`` keeps, since both are the same range test on
    the addresses' byte order."""
    return slice(bisect_left(addresses, assignment.low),
                 bisect_right(addresses, assignment.high))


def split(assignment: ShardAssignment):
    """Children partition the parent's host set by the next address bit."""
    if assignment.depth >= MAX_PREFIX_BITS:
        raise MaxDepth("cannot split a %d-bit prefix" % assignment.depth)
    return (ShardAssignment(assignment.prefix_bits + "0"),
            ShardAssignment(assignment.prefix_bits + "1"))


def nodes_path(tree, address: bytes) -> list:
    """Root-to-deepest chain of tree nodes whose prefixes match ``address``.

    ``tree`` is a ``network.TreeTopology``. Host-set sizes shrink along
    the path: the deeper the node, the fewer shards it keeps.
    """
    path = [tree.root]
    while True:
        step = next((child for child in tree.child_map[path[-1]]
                     if hosts(tree.assignments[child], address)), None)
        if step is None:
            return path
        path.append(step)
