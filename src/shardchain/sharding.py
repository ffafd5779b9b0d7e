"""Address-prefix shard assignment and the hosting-path computation.

One account is one shard. A node's position in the binary tree fixes a
bit-prefix; the node hosts exactly the addresses whose leading bits
match it (depth 0 = full node, hosting everything).
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import ADDR_LEN
from .errors import DecodeError, MaxDepth

MAX_PREFIX_BITS = ADDR_LEN * 8


def address_bits(address: bytes, count: int) -> str:
    """First ``count`` bits of an address, most-significant bit first."""
    return bin(int.from_bytes(address, "big"))[2:].zfill(MAX_PREFIX_BITS)[:count]


@dataclass(frozen=True)
class ShardAssignment:
    prefix_bits: str = ""   # '0'/'1' string, MSB-first

    @property
    def depth(self) -> int:
        return len(self.prefix_bits)

    def encode(self) -> bytes:
        """(length byte, packed bits) as used in node-hello messages."""
        padded = self.prefix_bits.ljust((self.depth + 7) // 8 * 8, "0")
        packed = bytes(int(padded[i:i + 8], 2)
                       for i in range(0, len(padded), 8))
        return bytes([self.depth]) + packed


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
    return address_bits(address, assignment.depth) == assignment.prefix_bits


def split(assignment: ShardAssignment):
    """Children partition the parent's host set by the next address bit."""
    if assignment.depth >= MAX_PREFIX_BITS:
        raise MaxDepth("cannot split a %d-bit prefix" % assignment.depth)
    return (ShardAssignment(assignment.prefix_bits + "0"),
            ShardAssignment(assignment.prefix_bits + "1"))


def child_assignment(parent: ShardAssignment, side: int) -> ShardAssignment:
    """Assignment for a new leaf joining under ``parent`` (0 left, 1 right)."""
    return split(parent)[side]


def nodes_path(tree, address: bytes) -> list:
    """Root-to-deepest chain of tree nodes whose prefixes match ``address``.

    ``tree`` is any topology exposing ``root``, ``children(node_id)`` and
    ``assignment(node_id)``. Host-set sizes shrink along the path: the
    deeper the node, the fewer shards it keeps.
    """
    path = [tree.root]
    current = tree.root
    while True:
        step = None
        for child in tree.children(current):
            if hosts(tree.assignment(child), address):
                step = child
                break
        if step is None:
            return path
        path.append(step)
        current = step
