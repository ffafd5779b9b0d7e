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
from typing import Iterator, Optional, Sequence, Tuple

from . import codec, mainchain, sharding, subchain
from .codec import ENVELOPE, ENVELOPE_HEADER, Envelope, MsgKind, envelope_of
from .errors import ConfigInvalid, DecodeError, MalformedEnvelope, \
    ShardChainError
from .mainchain import ChainParams, MainBlock, make_genesis
from .node import Node
from .sharding import ShardAssignment

OK = b"\x00"
ERR = b"\x01"


# -- data directory persistence ---------------------------------------
#
# A data dir holds meta.json (chain parameters and genesis) and log.bin,
# one [kind u8][len u32][payload] record per change a NewTx/NewBlock
# request made, its payload the request's wire bytes. Loading replays the
# log through Node.apply_request.

META_FILE = "meta.json"
NODE_ID = b"\x00" * 8   # a data dir's node: the only node of its process
LOG_FILE = "log.bin"
_LOG_HEAD = struct.Struct(">BI")


def _log_record(kind: int, payload: bytes) -> bytes:
    return _LOG_HEAD.pack(kind, len(payload)) + payload


def _read_log(path: str) -> Iterator[Tuple[int, bytes]]:
    """Yield (kind, payload) for each complete record. A record cut short
    by a crash mid-append ends the log."""
    with open(path, "rb") as fh:
        while True:
            head = fh.read(_LOG_HEAD.size)
            if len(head) < _LOG_HEAD.size:
                return
            kind, length = _LOG_HEAD.unpack(head)
            payload = fh.read(length)
            if len(payload) < length:
                return
            yield kind, payload


def _replace_file(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_node(node: Node, data_dir: str) -> None:
    """Write a snapshot of the node: meta.json, and a log holding each
    canonical block preceded by one fragment per address it confirmed,
    then one fragment per pending tail. Each file is replaced
    atomically."""
    os.makedirs(data_dir, exist_ok=True)
    records = []
    chains = node.store.chains
    for bh in node.view.canonical[1:]:
        # from the held chain: a signed copy may have replaced a tx
        records += [_log_record(MsgKind.NewTx, subchain.encode_batch(
            chains[a][txs[0].height - 1:txs[-1].height]))
            for a, (txs, _) in node.store.archive[bh].items()]
        records.append(_log_record(MsgKind.NewBlock,
                                   node.view.blocks[bh].encode()))
    records += [_log_record(MsgKind.NewTx, subchain.encode_batch(
        chains[a][node.confirmed_state(a).tip_height:]))
        for a in sorted(node.store.tail_states)]
    _replace_file(os.path.join(data_dir, LOG_FILE), b"".join(records))
    meta = {
        "prefix": node.assignment.prefix_bits,
        **node.params._asdict(),
        "allocations": {a.hex(): b for a, b in node.genesis.allocations},
        "genesis_timestamp": node.genesis.timestamp,
    }
    _replace_file(os.path.join(data_dir, META_FILE),
                  json.dumps(meta, sort_keys=True, indent=1).encode())


def load_node(data_dir: str) -> Node:
    with open(os.path.join(data_dir, META_FILE)) as fh:
        meta = json.load(fh)
    # a key of an older dir's parameters (block_interval, subsidy) is
    # ignored, and the next save drops it
    params = ChainParams(*(meta[name] for name in ChainParams._fields))
    genesis = make_genesis({bytes.fromhex(a): b
                            for a, b in meta["allocations"].items()},
                           timestamp=meta["genesis_timestamp"])
    node = Node(NODE_ID, ShardAssignment(meta["prefix"]), genesis, params)
    for kind, payload in _read_log(os.path.join(data_dir, LOG_FILE)):
        node.apply_request(kind, payload)
    return node


def init_data_dir(data_dir: str, allocations, params: ChainParams,
                  prefix: str = "") -> Node:
    # a dir that holds a node already is left as it was
    if os.path.exists(os.path.join(data_dir, META_FILE)):
        raise ConfigInvalid("data dir %s already holds a node" % data_dir)
    genesis = make_genesis(allocations)
    node = Node(NODE_ID, ShardAssignment(prefix), genesis, params)
    save_node(node, data_dir)
    return node


# -- framing helpers --------------------------------------------------

def _read_frame(rfile, max_frame: Optional[int] = None
                ) -> Optional[Tuple[int, bytes, bytes]]:
    """(kind byte, payload, msg_id) of one frame from a buffered binary
    reader; None when the peer closes the connection first. A frame
    longer than ``max_frame`` bytes is refused with DecodeError before
    its payload is read."""
    head = rfile.read(ENVELOPE_HEADER)
    if len(head) < ENVELOPE_HEADER:
        return None
    length, kind, msg_id = ENVELOPE.unpack(head)
    if max_frame is not None and ENVELOPE_HEADER + length > max_frame:
        raise DecodeError("frame of %d bytes exceeds the %d-byte cap"
                          % (ENVELOPE_HEADER + length, max_frame))
    payload = rfile.read(length)
    return (kind, payload, msg_id) if len(payload) == length else None


def read_envelope(rfile, max_frame: Optional[int] = None
                  ) -> Optional[Envelope]:
    """One envelope, read by ``_read_frame`` from a buffered binary reader
    such as a socket's ``makefile("rb")``."""
    frame = _read_frame(rfile, max_frame)
    return frame and envelope_of(*frame)


def _error_reply(err: ShardChainError) -> bytes:
    return Envelope(MsgKind.Hello, ERR + type(err).__name__.encode()
                    + b": " + str(err).encode()).encode()


# the reply frame to a request that succeeds with nothing to say, and
# the (kind byte, payload, msg_id) that _read_frame gives for it
OK_FRAME = Envelope(MsgKind.Hello, OK).encode()
_OK_FIELDS = (MsgKind.Hello, OK, ENVELOPE.unpack_from(OK_FRAME)[2])


# -- node server ------------------------------------------------------

# a Hello reply is the node's shard assignment, its tip hash, tip height
# and summary count, then one confirmation record per pending tail: the
# record that confirms the whole tail
_HELLO_HEAD = struct.Struct(">32sQI")
# a FragmentRequest is one (address, lo, hi) range; the ok reply holds
# its fragment
_FRAGMENT_RANGE = struct.Struct(">20sQQ")


def encode_hello(assignment: ShardAssignment, tip: bytes, tip_height: int,
                 pending: Sequence[mainchain.ConfirmationRecord]
                 ) -> bytes:
    """The body of an ok Hello reply, after its status byte. Fields that
    ``codec.packed`` does not pack are refused, with MalformedEnvelope."""
    head = codec.packed(_HELLO_HEAD, (tip, tip_height, len(pending)))
    records = mainchain.records_fit(pending)
    if head is None or records is None:
        raise MalformedEnvelope("a Hello field is off its wire type, width "
                                "or range")
    return assignment.encode() + head + records


def decode_hello(body: bytes):
    """(assignment, tip hash, tip height, pending tails' records) of a
    Hello reply body."""
    if not body:
        raise DecodeError("empty Hello reply")
    alen = 1 + (body[0] + 7) // 8
    head = alen + _HELLO_HEAD.size
    if len(body) < head:
        raise DecodeError("Hello reply shorter than %d bytes" % head)
    assignment = sharding.decode_assignment(body[:alen])
    tip, tip_height, count = _HELLO_HEAD.unpack_from(body, alen)
    return (assignment, tip, tip_height,
            list(mainchain.decode_records(body[head:], count)))


class NodeServer:
    def __init__(self, data_dir: str, listen: Tuple[str, int]):
        self.data_dir = data_dir
        self.node = load_node(data_dir)
        self.max_frame = self.node.params.block_limit + ENVELOPE_HEADER
        self.lock = threading.Lock()
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                while True:
                    try:
                        env = read_envelope(self.rfile, outer.max_frame)
                    except DecodeError as err:
                        # the stream cannot be resynchronised: reply, close
                        self.request.sendall(_error_reply(err))
                        return
                    if env is None:
                        return
                    self.request.sendall(outer.handle(env))

        self.server = socketserver.ThreadingTCPServer(listen, Handler)
        self.server.daemon_threads = True
        # drop a torn final record, then append after the last whole one
        path = os.path.join(data_dir, LOG_FILE)
        end = sum(_LOG_HEAD.size + len(p) for _, p in _read_log(path))
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

    def _journal(self, kind: int, payload: bytes) -> None:
        self.log.write(_log_record(kind, payload))
        self.log.flush()

    def handle(self, env: Envelope) -> bytes:
        """The reply frame to one request."""
        with self.lock:
            try:
                return self._dispatch(env)
            except ShardChainError as err:
                return _error_reply(err)

    def _dispatch(self, env: Envelope) -> bytes:
        node = self.node
        if env.kind == MsgKind.Hello:
            return Envelope(MsgKind.Hello, OK + encode_hello(
                node.assignment, node.view.tip, node.view.tip_height,
                node.pending_records())).encode()
        if env.kind in (MsgKind.NewTx, MsgKind.NewBlock):
            node.apply_request(env.kind, env.payload, self._journal)
            return OK_FRAME
        if env.kind == MsgKind.FragmentRequest:
            if len(env.payload) != _FRAGMENT_RANGE.size:
                raise DecodeError("FragmentRequest payload must be %d bytes"
                                  % _FRAGMENT_RANGE.size)
            frag = node.serve_fragment(
                *_FRAGMENT_RANGE.unpack(env.payload))
            return Envelope(MsgKind.FragmentResponse,
                            OK + subchain.encode_fragment(frag)).encode()
        raise DecodeError("a node serves no %s request" % env.kind.name)


# -- miner client -----------------------------------------------------

class NodeClient:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.rfile = self.sock.makefile("rb")

    def close(self):
        self.rfile.close()
        self.sock.close()

    def call(self, env: Envelope) -> bytes:
        self.sock.sendall(env.encode())
        frame = _read_frame(self.rfile)
        if frame is None:
            raise ConnectionError("node closed the connection")
        # an exact match with the ok frame proves its msg_id too
        if frame == _OK_FIELDS:
            return b""
        reply = envelope_of(*frame)
        if not reply.payload.startswith(OK):
            raise ShardChainError(reply.payload[1:].decode("utf-8",
                                                           "replace"))
        return reply.payload[1:]

    def hello(self):
        return decode_hello(self.call(Envelope(MsgKind.Hello, b"")))

    def fetch_fragment(self, address: bytes, lo: int, hi: int
                       ) -> subchain.SubchainFragment:
        """The fragment (lo, hi] of ``address``'s subchain. A range that
        ``codec.packed`` does not pack is refused, with MalformedEnvelope,
        and nothing is sent."""
        payload = codec.packed(_FRAGMENT_RANGE, (address, lo, hi))
        if payload is None:
            raise MalformedEnvelope("a FragmentRequest takes a 20-byte "
                                    "address and two u64 heights")
        return subchain.decode_fragment(self.call(Envelope(
            MsgKind.FragmentRequest, payload)))

    def submit_tx(self, tx) -> None:
        """Submit ``tx`` alone: a one-tx fragment, the one NewTx payload."""
        self.call(Envelope(MsgKind.NewTx, subchain.encode_batch((tx,))))

    def submit_block(self, block: MainBlock) -> None:
        self.call(Envelope(MsgKind.NewBlock, block.encode()))


def mine_once(client: NodeClient, miner_address: bytes, params: ChainParams,
              timestamp: Optional[int] = None) -> MainBlock:
    """Seal a block of the first capacity records of the node's Hello
    (which lists its pending tails in its block order) and submit it.

    The miner trusts its node, as a pool trusts the template of the node
    it mines for (BIP 22/23): checking the tail behind each record is the
    hosting nodes' duty, and each of them refuses a block that confirms a
    tail it does not hold, so a lying node wastes only its own miner's
    work."""
    _, tip, tip_height, pending = client.hello()
    block = mainchain.new_block(
        tip, tip_height + 1,
        int(time.time()) if timestamp is None else timestamp,
        miner_address, pending[:mainchain.capacity(params.block_limit)],
        params.difficulty_bits)
    client.submit_block(block)
    return block
