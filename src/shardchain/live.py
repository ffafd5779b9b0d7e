"""Persistent single-process node and a miner client over stream sockets.

Wire format per message: the envelope framing (4-byte length, 1-byte
kind, 32-byte msg_id, payload). Every request gets one reply whose
payload begins with a status byte (0 = ok). The deterministic in-process
transport remains the primary implementation; this module exists so a
node and a miner can run as separate processes against a data directory.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import struct
import threading
import time
from typing import Iterator, List, Optional, Sequence, Tuple

from . import codec, mainchain, sharding, subchain
from .codec import ENVELOPE_HEADER, Envelope, MsgKind, decode_envelope
from .errors import ConfigInvalid, DecodeError, ShardChainError
from .mainchain import ChainParams, MainBlock, make_genesis
from .node import Node
from .sharding import ShardAssignment

OK = b"\x00"
ERR = b"\x01"


# -- data directory persistence ---------------------------------------
#
# A data dir holds meta.json (chain parameters and genesis) and log.bin,
# one [kind u8][len u32][payload] record per NewTx/NewBlock request that
# changed the node, the payload being the request's wire bytes. Loading
# replays the log through the calls the server makes for those requests.

META_FILE = "meta.json"
LOG_FILE = "log.bin"
_LOG_HEAD = struct.Struct(">BI")


def _log_record(kind: int, payload: bytes) -> bytes:
    return _LOG_HEAD.pack(kind, len(payload)) + payload


def _apply_request(node: Node, kind: int, payload: bytes) -> bool:
    """The one state transition for a persisted request; False when the
    request changed nothing (an exact duplicate tx, a known block)."""
    if kind == MsgKind.NewTx:
        return node.accept_pending_tx(codec.decode_tx(payload))
    if kind == MsgKind.NewBlock:
        block = mainchain.decode_block(payload)
        if block.block_hash in node.view.blocks:
            return False
        node.ingest_block(block)
        return True
    raise DecodeError("unknown log record kind %d" % kind)


def _read_log(path: str) -> Iterator[Tuple[int, int, bytes]]:
    """Yield (end offset, kind, payload) for each complete record. A
    record cut short by a crash mid-append ends the log."""
    end = 0
    with open(path, "rb") as fh:
        while True:
            head = fh.read(_LOG_HEAD.size)
            if len(head) < _LOG_HEAD.size:
                return
            kind, length = _LOG_HEAD.unpack(head)
            payload = fh.read(length)
            if len(payload) < length:
                return
            end += _LOG_HEAD.size + length
            yield end, kind, payload


def _replace_file(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_node(node: Node, data_dir: str) -> None:
    """Write a snapshot of the node: meta.json, and a log holding each
    canonical block preceded by the fragment txs it confirmed, then the
    pending tails. Each file is replaced atomically."""
    os.makedirs(data_dir, exist_ok=True)
    records = []
    for bh in node.view.canonical[1:]:
        block = node.view.blocks[bh]
        for txs, _ in node.store.archive[bh].values():
            for tx in txs:
                records.append(_log_record(MsgKind.NewTx,
                                           codec.encode_tx(tx)))
        records.append(_log_record(MsgKind.NewBlock, block.encode()))
    for address in sorted(node.store.pending):
        for tx in node.store.pending[address]:
            records.append(_log_record(MsgKind.NewTx, codec.encode_tx(tx)))
    _replace_file(os.path.join(data_dir, LOG_FILE), b"".join(records))
    meta = {
        "prefix": node.assignment.prefix_bits,
        "difficulty_bits": node.params.difficulty_bits,
        "block_limit": node.params.block_limit,
        "subsidy": node.params.subsidy,
        "maturity": node.params.maturity,
        "allocations": {a.hex(): b for a, b in node.genesis.allocations},
        "genesis_timestamp": node.genesis.timestamp,
    }
    _replace_file(os.path.join(data_dir, META_FILE),
                  json.dumps(meta, sort_keys=True, indent=1).encode())


def load_node(data_dir: str, node_id: bytes = b"\x00" * 8) -> Node:
    with open(os.path.join(data_dir, META_FILE)) as fh:
        meta = json.load(fh)
    params = ChainParams(difficulty_bits=meta["difficulty_bits"],
                         block_limit=meta["block_limit"],
                         subsidy=meta["subsidy"],
                         maturity=meta["maturity"])
    genesis = make_genesis({bytes.fromhex(a): b
                            for a, b in meta["allocations"].items()},
                           timestamp=meta["genesis_timestamp"])
    node = Node(node_id, ShardAssignment(meta["prefix"]), genesis, params)
    for _, kind, payload in _read_log(os.path.join(data_dir, LOG_FILE)):
        _apply_request(node, kind, payload)
    return node


def init_data_dir(data_dir: str, allocations, params: ChainParams,
                  prefix: str = "") -> Node:
    # a dir that holds a node already is left as it was
    if os.path.exists(os.path.join(data_dir, META_FILE)):
        raise ConfigInvalid("data dir %s already holds a node" % data_dir)
    genesis = make_genesis(allocations)
    node = Node(b"\x00" * 8, ShardAssignment(prefix), genesis, params)
    save_node(node, data_dir)
    return node


# -- framing helpers --------------------------------------------------

def read_envelope(sock, max_frame: Optional[int] = None
                  ) -> Optional[Envelope]:
    """Read one envelope; None when the peer closes the connection. A
    frame longer than ``max_frame`` bytes is refused with DecodeError
    before its payload is read."""
    head = bytearray(ENVELOPE_HEADER)
    if not _recv_into(sock, memoryview(head)):
        return None
    (length,) = struct.unpack_from(">I", head)
    if max_frame is not None and ENVELOPE_HEADER + length > max_frame:
        raise DecodeError("frame of %d bytes exceeds the %d-byte cap"
                          % (ENVELOPE_HEADER + length, max_frame))
    frame = bytearray(ENVELOPE_HEADER + length)
    frame[:ENVELOPE_HEADER] = head
    if not _recv_into(sock, memoryview(frame)[ENVELOPE_HEADER:]):
        return None
    return decode_envelope(bytes(frame))


def _recv_into(sock, view: memoryview) -> bool:
    """Fill ``view`` from the socket; False if the peer closes first."""
    while view:
        got = sock.recv_into(view)
        if not got:
            return False
        view = view[got:]
    return True


def send_envelope(sock, env: Envelope) -> None:
    sock.sendall(env.encode())


def _error_reply(err: ShardChainError) -> Envelope:
    return Envelope(MsgKind.Hello, ERR + type(err).__name__.encode()
                    + b": " + str(err).encode())


# -- node server ------------------------------------------------------

# a Hello reply summarises each pending tail as (address, tip hash, tip
# height, confirmed height, confirmed tip hash), after the node's shard
# assignment, its tip hash and the (tip height, summary count) pair
_PENDING_SUMMARY = struct.Struct(">20s32sQQ32s")
_HELLO_COUNTS = struct.Struct(">QI")
# a FragmentRequest is one or more ranges; the reply holds each fragment
# behind its length, in request order
_FRAGMENT_RANGE = struct.Struct(">20sQQ")
_FRAGMENT_LEN = struct.Struct(">I")


def encode_hello(assignment: ShardAssignment, tip: bytes, tip_height: int,
                 pending: Sequence[tuple]) -> bytes:
    """The body of an ok Hello reply, after its status byte."""
    return b"".join([assignment.encode(), tip,
                     _HELLO_COUNTS.pack(tip_height, len(pending))]
                    + [_PENDING_SUMMARY.pack(*entry) for entry in pending])


def decode_hello(body: bytes):
    """(assignment, tip hash, tip height, pending summaries) of a Hello
    reply body."""
    if not body:
        raise DecodeError("empty Hello reply")
    alen = 1 + (body[0] + 7) // 8
    head = alen + 32 + _HELLO_COUNTS.size
    if len(body) < head:
        raise DecodeError("Hello reply shorter than %d bytes" % head)
    assignment = sharding.decode_assignment(body[:alen])
    tip_height, count = _HELLO_COUNTS.unpack_from(body, alen + 32)
    if len(body) != head + count * _PENDING_SUMMARY.size:
        raise DecodeError("Hello reply of %d summaries must be %d bytes, "
                          "got %d" % (count, head + count
                                      * _PENDING_SUMMARY.size, len(body)))
    return (assignment, body[alen:alen + 32], tip_height,
            list(_PENDING_SUMMARY.iter_unpack(body[head:])))


class NodeServer:
    def __init__(self, data_dir: str, listen: Tuple[str, int]):
        self.data_dir = data_dir
        self.node = load_node(data_dir)
        self.max_frame = self.node.params.block_limit + ENVELOPE_HEADER
        self.lock = threading.Lock()
        self.listen = listen
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                while True:
                    try:
                        env = read_envelope(self.request, outer.max_frame)
                    except DecodeError as err:
                        # the stream cannot be resynchronised: reply, close
                        send_envelope(self.request, _error_reply(err))
                        return
                    if env is None:
                        return
                    send_envelope(self.request, outer.handle(env))

        self.server = socketserver.ThreadingTCPServer(listen, Handler)
        self.server.daemon_threads = True
        # drop a torn final record, then append after the last whole one
        path = os.path.join(data_dir, LOG_FILE)
        end = 0
        for end, _, _ in _read_log(path):
            pass
        self.log = open(path, "ab")
        self.log.truncate(end)

    def serve_forever(self):
        self.server.serve_forever()

    def shutdown(self):
        """Stop ``serve_forever`` running in another thread, then close."""
        self.server.shutdown()
        self.close()

    def close(self):
        """Close the listening socket and the log; ``serve_forever`` must
        not be running (it never started, or it has returned)."""
        self.server.server_close()
        with self.lock:
            self.log.close()

    def handle(self, env: Envelope) -> Envelope:
        with self.lock:
            try:
                return self._dispatch(env)
            except ShardChainError as err:
                return _error_reply(err)

    def _dispatch(self, env: Envelope) -> Envelope:
        node = self.node
        if env.kind == MsgKind.Hello:
            pending = []
            for address in node.block_order():
                tail = node.store.pending[address]
                confirmed = node.confirmed_state(address)
                pending.append((address, tail[-1].tx_hash, tail[-1].height,
                                confirmed.tip_height, confirmed.tip_hash))
            return Envelope(MsgKind.Hello, OK + encode_hello(
                node.assignment, node.view.tip, node.view.tip_height,
                pending))
        if env.kind in (MsgKind.NewTx, MsgKind.NewBlock):
            if _apply_request(node, env.kind, env.payload):
                self.log.write(_log_record(env.kind, env.payload))
                self.log.flush()
            return Envelope(MsgKind.Hello, OK)
        if env.kind == MsgKind.FragmentRequest:
            if not env.payload or len(env.payload) % _FRAGMENT_RANGE.size:
                raise DecodeError("FragmentRequest payload must be a "
                                  "positive multiple of %d bytes"
                                  % _FRAGMENT_RANGE.size)
            # every range is served before anything is sent: one that
            # fails fails the whole request
            body = [OK]
            for address, lo, hi in _FRAGMENT_RANGE.iter_unpack(env.payload):
                wire = subchain.encode_fragment(
                    node.serve_fragment(address, lo, hi))
                body += [_FRAGMENT_LEN.pack(len(wire)), wire]
            return Envelope(MsgKind.FragmentResponse, b"".join(body))
        return Envelope(MsgKind.Hello, ERR + b"unsupported kind")


# -- miner client -----------------------------------------------------

class NodeClient:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))

    def close(self):
        self.sock.close()

    def call(self, env: Envelope) -> bytes:
        send_envelope(self.sock, env)
        reply = read_envelope(self.sock)
        if reply is None:
            raise ConnectionError("node closed the connection")
        if not reply.payload.startswith(OK):
            raise ShardChainError(reply.payload[1:].decode("utf-8",
                                                           "replace"))
        return reply.payload[1:]

    def hello(self):
        return decode_hello(self.call(Envelope(MsgKind.Hello, b"")))

    def fetch_fragments(self, ranges: Sequence[Tuple[bytes, int, int]]
                        ) -> List[subchain.SubchainFragment]:
        """The fragment (lo, hi] of each (address, lo, hi) range, in
        order, from one request."""
        body = self.call(Envelope(MsgKind.FragmentRequest, b"".join(
            _FRAGMENT_RANGE.pack(*r) for r in ranges)))
        frags = []
        offset = 0
        for _ in ranges:
            start = offset + _FRAGMENT_LEN.size
            if start > len(body):
                raise DecodeError("FragmentResponse ends early")
            (length,) = _FRAGMENT_LEN.unpack_from(body, offset)
            offset = start + length
            frags.append(subchain.decode_fragment(body[start:offset]))
        if offset != len(body):
            raise DecodeError("FragmentResponse has trailing bytes")
        return frags

    def fetch_fragment(self, address: bytes, lo: int, hi: int
                       ) -> subchain.SubchainFragment:
        return self.fetch_fragments([(address, lo, hi)])[0]

    def submit_tx(self, tx) -> None:
        self.call(Envelope(MsgKind.NewTx, codec.encode_tx(tx)))

    def submit_block(self, block: MainBlock) -> None:
        self.call(Envelope(MsgKind.NewBlock, block.encode()))


def mine_once(client: NodeClient, miner_address: bytes, params: ChainParams,
              timestamp: Optional[int] = None) -> MainBlock:
    """Build one block from the first capacity tails of the node's Hello
    (which lists them in its block order), fetched in one request; check
    that each fragment is the tail its summary names, from the confirmed
    tip on, and is signed and link-valid, then seal and submit the
    block."""
    _, tip, tip_height, pending = client.hello()
    pending = pending[:mainchain.capacity(params.block_limit)]
    frags = client.fetch_fragments(
        [(address, confirmed, height)
         for address, _, height, confirmed, _ in pending]) if pending else []
    records = []
    for (address, tip_hash, height, confirmed, confirmed_hash), frag in zip(
            pending, frags, strict=True):
        if (frag.address != address or frag.from_height != confirmed
                or frag.to_height != height or not frag.txs
                or frag.txs[0].parent_hash != confirmed_hash
                or frag.txs[-1].tx_hash != tip_hash
                or any(tx.current_address != address
                       or tx.height != confirmed + 1 + i
                       for i, tx in enumerate(frag.txs))):
            raise ShardChainError("served fragment is not the requested tail")
        prev = None
        for tx in frag.txs:
            if not codec.verify_tx(tx):
                raise ShardChainError("bad signature in served fragment")
            if prev is not None and tx.parent_hash != prev.tx_hash:
                raise ShardChainError("served fragment is not link-valid")
            prev = tx
        records.append(mainchain.ConfirmationRecord(
            address=address, tip_hash=tip_hash, tip_height=height))
    block = mainchain.new_block(
        tip, tip_height + 1,
        int(time.time()) if timestamp is None else timestamp,
        miner_address, records, params.difficulty_bits)
    client.submit_block(block)
    return block
