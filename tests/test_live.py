"""Data-dir journal, restart recovery and hostile input on the live node."""

import contextlib
import io
import json
import os
import socket
import struct
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from shardchain import cli, codec, live, mainchain, subchain
from shardchain.errors import ConfigInvalid, DecodeError, \
    FragmentMisaligned, MalformedBatch, ShardChainError, UnconfirmedSend
from shardchain.mainchain import ChainParams, EASY_BITS
from shardchain.miner import Miner
from shardchain.network import Envelope, MsgKind
from shardchain.node import Node
from shardchain.sharding import ShardAssignment
from shardchain.subchain import SubchainFragment

from conftest import build_chain, chain_signed, make_receive, make_send, \
    tails

PARAMS = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                     maturity=1)
MINER = b"\x4d" * 20


@contextlib.contextmanager
def serving(data_dir):
    """A NodeServer on an ephemeral port plus one client connected to it."""
    server = live.NodeServer(data_dir, ("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = live.NodeClient("127.0.0.1", server.server.server_address[1])
    try:
        yield server, client
    finally:
        client.close()
        server.shutdown()
        thread.join()


def node_state(node):
    return (node.view.tip, set(node.view.blocks), dict(node.store.confirmed),
            {address: [tx.tx_hash for tx in tail]
             for address, tail in tails(node).items()})


def log_path(data_dir):
    return os.path.join(data_dir, live.LOG_FILE)


def one_tx(tx):
    """The NewTx payload of ``tx`` alone: a one-tx fragment."""
    return subchain.encode_fragment(
        SubchainFragment(tx.current_address, tx.height - 1, (tx,)))


@pytest.fixture
def data_dir(tmp_path, keys):
    path = str(tmp_path / "node")
    live.init_data_dir(path, {k.address: 1000 for k in keys[:3]}, PARAMS)
    return path


def side_block(parent, height, timestamp):
    """An empty block that loses the fork choice to an equal-work tip."""
    header = mainchain.BlockHeader(
        parent_block_hash=parent, height=height, timestamp=timestamp,
        miner_address=b"\x5e" * 20,
        confirmations_root=mainchain.confirmations_root(()),
        difficulty_bits=PARAMS.difficulty_bits)
    return mainchain.seal(mainchain.MainBlock(header, ()))


class TestJournal:
    def test_restart_keeps_live_state(self, data_dir, keys):
        with serving(data_dir) as (server, client):
            genesis = server.node.view.tip
            first = make_send(keys[0], amount=7)
            client.submit_tx(first)
            client.submit_tx(make_send(keys[1], amount=3))
            live.mine_once(client, MINER, PARAMS, timestamp=15)
            client.submit_block(side_block(genesis, 1, 16))
            client.submit_tx(make_send(keys[0], parent=first.tx_hash,
                                       height=2, amount=5))
            live.mine_once(client, MINER, PARAMS, timestamp=30)
            client.submit_tx(make_send(keys[2], amount=9))
            live_state = node_state(server.node)
        assert len(live_state[1]) == 3      # two canonical, one side block
        assert node_state(live.load_node(data_dir)) == live_state

    def test_concurrent_clients_all_journaled(self, data_dir, keys):
        chains = [[], [], []]
        for key, chain in zip(keys[:3], chains):
            parent = codec.NULL_HASH
            for height in range(1, 6):
                chain.append(make_send(key, parent=parent, height=height))
                parent = chain[-1].tx_hash
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with serving(data_dir) as (server, _):
                port = server.server.server_address[1]

                def submit(chain):
                    client = live.NodeClient("127.0.0.1", port)
                    try:
                        for tx in chain:
                            client.submit_tx(tx)
                    finally:
                        client.close()

                threads = [threading.Thread(target=submit, args=(c,))
                           for c in chains]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                live_state = node_state(server.node)
        finally:
            sys.setswitchinterval(switch)
        assert sorted(map(len, live_state[3].values())) == [5, 5, 5]
        assert node_state(live.load_node(data_dir)) == live_state

    def test_rejected_request_writes_nothing(self, data_dir, keys):
        with serving(data_dir) as (_, client):
            client.submit_tx(make_send(keys[0], amount=7))
            size = os.path.getsize(log_path(data_dir))
            with pytest.raises(ShardChainError):
                client.submit_tx(make_send(keys[0], amount=8))  # same height
            assert os.path.getsize(log_path(data_dir)) == size

    def test_torn_tail_recovery(self, data_dir, keys):
        with serving(data_dir) as (server, client):
            client.submit_tx(make_send(keys[0], amount=7))
            live.mine_once(client, MINER, PARAMS, timestamp=15)
            client.submit_tx(make_send(keys[1], amount=3))
            before_last = node_state(server.node)
            whole = os.path.getsize(log_path(data_dir))
            client.submit_tx(make_send(keys[2], amount=9))
        with open(log_path(data_dir), "r+b") as fh:
            fh.truncate(whole + 100)        # cut the last record short
        assert node_state(live.load_node(data_dir)) == before_last

        late = make_send(keys[2], amount=4)
        with serving(data_dir) as (server, client):
            client.submit_tx(late)
            after = node_state(server.node)
        assert os.path.getsize(log_path(data_dir)) \
            == whole + len(live._log_record(MsgKind.NewTx, one_tx(late)))
        for _ in range(2):
            reloaded = live.load_node(data_dir)
            assert node_state(reloaded) == after
            assert tails(reloaded)[keys[2].address] == [late]

    @pytest.mark.parametrize("record", [
        struct.pack(">BI", MsgKind.NewBlock, 10) + b"\x00" * 10,
        struct.pack(">BI", MsgKind.NewTx, 3) + b"\x01\x00\x00",
        struct.pack(">BI", 9, 0),
    ])
    def test_whole_bad_record_raises(self, data_dir, record):
        with open(log_path(data_dir), "ab") as fh:
            fh.write(record)
        with pytest.raises(DecodeError):
            live.load_node(data_dir)

    def test_noop_request_not_journaled(self, data_dir, keys):
        """An exact-duplicate NewTx and a known NewBlock are answered OK
        and leave the log as it was."""
        send, pooled = make_send(keys[0], amount=7), make_send(keys[1])
        with serving(data_dir) as (server, client):
            client.submit_tx(send)
            block = live.mine_once(client, MINER, PARAMS, timestamp=15)
            client.submit_tx(pooled)
            state = node_state(server.node)
            size = os.path.getsize(log_path(data_dir))
            client.submit_tx(send)          # held confirmed
            client.submit_tx(pooled)        # held pending
            client.submit_block(block)
            assert os.path.getsize(log_path(data_dir)) == size
            assert node_state(server.node) == state
        assert node_state(live.load_node(data_dir)) == state

    def test_compact_rewrites_log(self, data_dir, keys):
        send = make_send(keys[0], amount=7, recipient=keys[1].address)
        with serving(data_dir) as (server, client):
            genesis = server.node.view.tip
            client.submit_tx(send)
            block = live.mine_once(client, MINER, PARAMS, timestamp=15)
            # journaled, but a snapshot keeps canonical blocks only
            side = side_block(genesis, 1, 16)
            client.submit_block(side)
            client.submit_tx(make_receive(keys[1], codec.NULL_HASH, 1,
                                          keys[0].address, send.tx_hash,
                                          block.block_hash, 7))
            live.mine_once(client, MINER, PARAMS, timestamp=30)
            client.submit_tx(make_send(keys[2], amount=3))
            live_state = node_state(server.node)
        tip, blocks, confirmed, pending = live_state
        assert confirmed[keys[1].address].balance == 1007
        assert side.block_hash in blocks and tip != side.block_hash
        size = os.path.getsize(log_path(data_dir))
        assert cli.main(["compact", "--data-dir", data_dir]) == 0
        assert os.path.getsize(log_path(data_dir)) < size
        assert node_state(live.load_node(data_dir)) \
            == (tip, blocks - {side.block_hash}, confirmed, pending)
        assert sorted(os.listdir(data_dir)) == [live.LOG_FILE,
                                                live.META_FILE]

    def test_compact_keeps_signed_copy_of_confirmed_tx(self, data_dir, keys):
        """A signed copy that replaced a confirmed unsigned tx is written
        in its block's fragment, so the reloaded node serves the fragment
        ending there as the saved one did."""
        key = keys[0]
        node = live.load_node(data_dir)
        u1, u2, s3 = chain_signed(key, [False, False, True])
        node.apply_request(MsgKind.NewTx, subchain.encode_batch((u1, u2, s3)))
        block = mainchain.new_block(
            node.view.tip, 1, 15, MINER,
            [mainchain.ConfirmationRecord(key.address, s3.tx_hash, 3)],
            PARAMS.difficulty_bits)
        node.apply_request(MsgKind.NewBlock, block.encode())
        assert node.store.confirmed[key.address].tip_height == 3
        s2 = codec.sign_tx(u2, key)
        node.apply_request(MsgKind.NewTx, subchain.encode_batch((u1, s2)))
        assert node.serve_fragment(key.address, 0, 2).txs == (u1, s2)
        live.save_node(node, data_dir)
        reloaded = live.load_node(data_dir)
        assert reloaded.serve_fragment(key.address, 0, 2).txs == (u1, s2)
        assert reloaded.store.chains == node.store.chains
        assert node_state(reloaded) == node_state(node)

    @pytest.mark.parametrize("first_held", [False, True])
    def test_refused_batch_pools_nothing(self, data_dir, keys, first_held):
        """A two-tx NewTx whose second tx is refused is refused whole: the
        node pools neither tx (it keeps the first only when it held it
        already), and the log gains nothing; a reload gives the server's
        node back."""
        first = make_send(keys[0], amount=7)
        second = make_send(keys[0], parent=first.tx_hash, height=2,
                           amount=5)._replace(signature=b"\x01" * 64)
        batch = subchain.encode_fragment(
            SubchainFragment(keys[0].address, 0, (first, second)))
        with serving(data_dir) as (server, client):
            if first_held:
                client.submit_tx(first)
            size = os.path.getsize(log_path(data_dir))
            with pytest.raises(ShardChainError) as exc:
                client.call(Envelope(MsgKind.NewTx, batch))
            assert str(exc.value) == ("InvalidSignature: transaction "
                                      "failed local verification")
            assert tails(server.node) == (
                {keys[0].address: [first]} if first_held else {})
            state = node_state(server.node)
        assert os.path.getsize(log_path(data_dir)) == size
        assert node_state(live.load_node(data_dir)) == state

    def test_earlier_build_tx_record_refused(self, data_dir, keys):
        """A NewTx record of an earlier build, one bare tx, is not a
        fragment: the data dir is refused."""
        with open(log_path(data_dir), "ab") as fh:
            fh.write(live._log_record(MsgKind.NewTx, codec.encode_tx(
                make_send(keys[0], amount=7))))
        with pytest.raises(DecodeError):
            live.load_node(data_dir)

    def test_earlier_layout_unsigned_tx_refused(self, data_dir, keys):
        """A log of an earlier build, whose unsigned tx carried the null key
        and the null signature under the signed tag, is refused, not
        misread: each tx has one encoding. The same batch in this build's
        layout loads."""
        u1, s2 = chain_signed(keys[0], [False, True])
        payload = subchain.encode_batch([u1, s2])
        bare = codec.encode_tx(u1)
        assert bare[0] == codec.TAG_SEND_UNSIGNED and bare in payload
        earlier = payload.replace(bare, bytes((codec.TAG_SEND,)) + bare[1:]
                                  + codec.NULL_KEY + codec.NULL_SIG)
        path = log_path(data_dir)
        size = os.path.getsize(path)

        def load_with(record):
            with open(path, "r+b") as fh:
                fh.truncate(size)
                fh.seek(size)
                fh.write(live._log_record(MsgKind.NewTx, record))
            return live.load_node(data_dir)

        assert tails(load_with(payload)) == {
            keys[0].address: [u1, s2]}
        with pytest.raises(DecodeError):
            load_with(earlier)

    # the chain parameters once held a block interval, and a subsidy
    @pytest.mark.parametrize("key,value", [("block_interval", 600),
                                           ("subsidy", mainchain.SUBSIDY)],
                             ids=["block_interval", "subsidy"])
    def test_meta_with_block_interval_loads(self, data_dir, keys, key,
                                            value):
        """A data dir written while the chain parameters still held a
        dropped key loads to an equal node, and its next save drops the
        key."""
        node = live.load_node(data_dir)
        node.accept_pending_tx(make_send(keys[0], amount=7))
        live.save_node(node, data_dir)
        meta_path = os.path.join(data_dir, live.META_FILE)
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta[key] = value
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        loaded = live.load_node(data_dir)
        assert (node_state(loaded), loaded.params) \
            == (node_state(node), node.params)
        live.save_node(loaded, data_dir)
        with open(meta_path) as fh:
            assert key not in json.load(fh)

    @pytest.mark.parametrize("balance", [2 ** 64, -1, "5"])
    def test_meta_with_off_wire_allocation_refused(self, data_dir, keys,
                                                   balance):
        """A meta.json whose allocation has no wire form is refused with
        ConfigInvalid, a ShardChainError, when the dir loads."""
        meta_path = os.path.join(data_dir, live.META_FILE)
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["allocations"] = {keys[0].address.hex(): balance}
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(ConfigInvalid):
            live.load_node(data_dir)


class TestHostileInput:
    @pytest.mark.parametrize("env", [
        Envelope(MsgKind.NewBlock, b"\x00" * 50),
        Envelope(MsgKind.NewBlock, b"\x00" * (mainchain.BLOCK_OVERHEAD + 7)),
        Envelope(MsgKind.FragmentRequest, b"\x00" * 35),
        Envelope(MsgKind.NewTx, b""),
        Envelope(MsgKind.FragmentRequest, b""),
        Envelope(MsgKind.FragmentRequest, b"\x00" * 37),
        # two ranges the node can serve, as an earlier build's client
        # sent them in one request
        Envelope(MsgKind.FragmentRequest, b"\x00" * 72),
        # a kind that no request of is served
        Envelope(MsgKind.FragmentResponse, live.OK),
    ])
    def test_malformed_request_gets_error(self, data_dir, env):
        with serving(data_dir) as (_, client):
            size = os.path.getsize(log_path(data_dir))
            with pytest.raises(ShardChainError) as exc:
                client.call(env)
            assert str(exc.value).startswith("DecodeError: ")
            _, _, tip_height, _ = client.hello()   # connection still open
            assert tip_height == 0
            assert os.path.getsize(log_path(data_dir)) == size

    def test_foreign_tx_refused_unjournaled(self, tmp_path, keys):
        """A partial node answers a NewTx for an address outside its
        prefix with an error reply, and journals and keeps nothing."""
        key = keys[0]
        bit = "1" if key.address[0] < 0x80 else "0"
        path = str(tmp_path / "partial")
        live.init_data_dir(path, {key.address: 1000}, PARAMS, prefix=bit)
        with serving(path) as (server, client):
            size = os.path.getsize(log_path(path))
            with pytest.raises(ShardChainError) as exc:
                client.submit_tx(make_send(key, amount=7))
            assert "NotHosted" in str(exc.value)
            assert os.path.getsize(log_path(path)) == size
            assert tails(server.node) == {}

    @staticmethod
    def misaligned(case, keys):
        """A NewTx fragment whose header does not name its txs: a foreign
        header, a wrong ``from_height``, or two accounts' txs."""
        a, b = keys[0].address, keys[1].address
        b_send = make_send(keys[1], amount=7)
        return subchain.encode_fragment({
            "foreign header": SubchainFragment(a, 0, (b_send,)),
            "wrong from_height": SubchainFragment(b, 7, (b_send,)),
            "two accounts": SubchainFragment(
                b, 0, (b_send, make_send(keys[0], amount=5))),
        }[case])

    @pytest.mark.parametrize("case", ["foreign header", "wrong from_height",
                                      "two accounts"])
    def test_misaligned_fragment_refused_whole(self, data_dir, keys, case):
        """A fragment is checked against its header before any tx is
        pooled: the refusal journals and keeps nothing, in the handler
        and through the server's reply."""
        payload = self.misaligned(case, keys)
        node, journal = live.load_node(data_dir), []
        with pytest.raises(FragmentMisaligned):
            node.apply_request(MsgKind.NewTx, payload,
                               lambda *record: journal.append(record))
        assert journal == [] and tails(node) == {}
        server = live.NodeServer(data_dir, ("127.0.0.1", 0))
        try:
            size = os.path.getsize(log_path(data_dir))
            reply = live.read_envelope(io.BytesIO(server.handle(
                Envelope(MsgKind.NewTx, payload))))
            assert reply.payload.startswith(live.ERR + b"FragmentMisaligned")
            assert tails(server.node) == {}
            assert os.path.getsize(log_path(data_dir)) == size
        finally:
            server.close()

    def test_height_zero_tx_refused_unsent(self, data_dir, keys):
        """submit_tx of a height-0 tx raises MalformedBatch before sending:
        the next reply on the connection is the Hello's."""
        with serving(data_dir) as (server, client):
            size = os.path.getsize(log_path(data_dir))
            with pytest.raises(MalformedBatch):
                client.submit_tx(make_send(keys[0], height=0, amount=7))
            _, _, tip_height, pending = client.hello()
            assert (tip_height, pending) == (0, [])
            assert os.path.getsize(log_path(data_dir)) == size
            assert tails(server.node) == {}

    def test_oversized_frame_refused_unread(self, data_dir):
        with serving(data_dir) as (server, _):
            assert server.max_frame == PARAMS.block_limit \
                + live.ENVELOPE_HEADER
            with socket.create_connection(server.server.server_address) \
                    as sock, sock.makefile("rb") as rfile:
                # a forged header only: no payload follows it
                sock.sendall(struct.pack(">IB32s", 0xFFFFFFFF,
                                         MsgKind.NewBlock, b"\x00" * 32))
                reply = live.read_envelope(rfile)
                assert reply.payload.startswith(live.ERR)
                assert b"exceeds" in reply.payload
                assert rfile.read(1) == b""     # then the node hangs up

    def test_unknown_kind_refused_then_closed(self, data_dir):
        """A frame whose kind byte names no message kind gets a
        DecodeError reply, and then the node hangs up."""
        with serving(data_dir) as (server, _):
            with socket.create_connection(server.server.server_address) \
                    as sock, sock.makefile("rb") as rfile:
                sock.sendall(struct.pack(">IB32s", 2, 0x77, b"\x00" * 32)
                             + b"\x01\x02")
                reply = live.read_envelope(rfile)
                assert reply.payload == live.ERR \
                    + b"DecodeError: unknown message kind 119"
                assert rfile.read(1) == b""

    def test_read_envelope_cap(self):
        left, right = socket.socketpair()
        with left, right, right.makefile("rb") as rfile:
            env = Envelope(MsgKind.NewTx, b"\x07" * 20)
            left.sendall(env.encode() + env.encode())
            assert live.read_envelope(rfile, max_frame=57) == env
            with pytest.raises(DecodeError):
                live.read_envelope(rfile, max_frame=56)


class Segmented(io.RawIOBase):
    """A raw stream that gives one of ``segments`` per read, as a socket
    gives what has arrived so far."""

    def __init__(self, segments):
        self.segments = list(segments)

    def readable(self):
        return True

    def readinto(self, buf):
        if not self.segments:
            return 0
        segment = self.segments.pop(0)
        got = min(len(buf), len(segment))
        buf[:got] = segment[:got]
        if got < len(segment):
            self.segments.insert(0, segment[got:])
        return got


@contextlib.contextmanager
def replying(frame):
    """A NodeClient whose peer answers its first request with ``frame``."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10)

        def answer():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile:
                live.read_envelope(rfile)
                conn.sendall(frame)
        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        client = live.NodeClient(*listener.getsockname())
        try:
            yield client
        finally:
            client.close()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestFraming:
    ENV = Envelope(MsgKind.NewTx, bytes(range(9)))

    def test_split_at_every_boundary_read_whole(self):
        """A frame in two segments, cut at every byte of its header and
        of its payload, reads as the one envelope."""
        frame = self.ENV.encode()
        for cut in range(1, len(frame)):
            rfile = io.BufferedReader(Segmented([frame[:cut], frame[cut:]]))
            assert live.read_envelope(rfile) == self.ENV, cut
            assert live.read_envelope(rfile) is None

    def test_two_frames_in_one_send(self):
        second = Envelope(MsgKind.NewBlock, b"\x02" * 50)
        left, right = socket.socketpair()
        with left, right, right.makefile("rb") as rfile:
            left.sendall(self.ENV.encode() + second.encode())
            left.shutdown(socket.SHUT_WR)
            assert [live.read_envelope(rfile) for _ in range(3)] \
                == [self.ENV, second, None]

    @pytest.mark.parametrize("cut", [1, live.ENVELOPE_HEADER - 1,
                                     live.ENVELOPE_HEADER,
                                     live.ENVELOPE_HEADER + 8])
    def test_peer_closing_mid_frame_gives_none(self, cut):
        left, right = socket.socketpair()
        with right, right.makefile("rb") as rfile:
            with left:
                left.sendall(self.ENV.encode()[:cut])
            assert live.read_envelope(rfile) is None

    @pytest.mark.parametrize("index", [5, live.ENVELOPE_HEADER - 1])
    def test_ok_frame_with_other_msg_id_refused(self, index):
        """A reply that is the ok frame but for one msg_id byte is not
        taken for it: decoding it finds the msg_id wrong."""
        frame = bytearray(live.OK_FRAME)
        frame[index] ^= 0x01
        with replying(bytes(frame)) as client:
            with pytest.raises(DecodeError, match="msg_id"):
                client.call(Envelope(MsgKind.Hello, b""))

    def test_peer_closing_before_reply_raises(self):
        """A peer that reads the request and closes the connection with
        no reply raises ConnectionError at the client."""
        with replying(b"") as client:
            with pytest.raises(ConnectionError, match="closed"):
                client.call(Envelope(MsgKind.Hello, b""))

    def test_error_reply_raises_node_text(self):
        text = b"NotHosted: address outside prefix 1"
        with replying(Envelope(MsgKind.Hello, live.ERR + text).encode()) \
                as client:
            with pytest.raises(ShardChainError) as exc:
                client.call(Envelope(MsgKind.Hello, b""))
        assert type(exc.value) is ShardChainError
        assert str(exc.value) == text.decode()


def first_bit(bit, keys):
    """A key whose address starts with the bit ``bit``."""
    return next(k for k in keys if k.address[0] >> 7 == bit)


class TestBatchedFragments:
    """A FragmentRequest asks for one range, and a range the node cannot
    serve gets an error reply on a connection that still serves."""

    def test_unavailable_range_fails_whole_request(self, data_dir, keys):
        with serving(data_dir) as (_, client):
            client.submit_tx(make_send(keys[0], amount=7))
            size = os.path.getsize(log_path(data_dir))
            with pytest.raises(ShardChainError) as exc:
                client.fetch_fragment(keys[0].address, 0, 2)
            assert "RangeUnavailable" in str(exc.value)
            assert os.path.getsize(log_path(data_dir)) == size
            # the connection still serves the good range
            assert len(client.fetch_fragment(keys[0].address, 0, 1).txs) \
                == 1

    def test_unhosted_range_fails_whole_request(self, tmp_path, keys):
        hosted, foreign = first_bit(1, keys), first_bit(0, keys)
        path = str(tmp_path / "partial")
        live.init_data_dir(path, {hosted.address: 1000}, PARAMS, prefix="1")
        with serving(path) as (_, client):
            client.submit_tx(make_send(hosted, amount=7))
            size = os.path.getsize(log_path(path))
            with pytest.raises(ShardChainError) as exc:
                client.fetch_fragment(foreign.address, 0, 1)
            assert "NotHosted" in str(exc.value)
            assert os.path.getsize(log_path(path)) == size
            assert len(client.fetch_fragment(hosted.address, 0, 1).txs) == 1


@pytest.fixture(scope="module")
def fragment_server(tmp_path_factory, keys):
    """A NodeServer, not listening for requests, of a prefix-1 node whose
    hosted account has two confirmed txs and one pending; its requests go
    straight to ``handle``."""
    hosted = first_bit(1, keys)
    path = str(tmp_path_factory.mktemp("fragments") / "node")
    live.init_data_dir(path, {hosted.address: 1000}, PARAMS, prefix="1")
    server = live.NodeServer(path, ("127.0.0.1", 0))
    txs = build_chain(hosted, 3, 1000)
    try:
        for tx in txs[:2]:
            assert server.handle(Envelope(MsgKind.NewTx, one_tx(tx))) \
                == live.OK_FRAME
        node = server.node
        block = mainchain.new_block(node.view.tip, 1, 15, MINER,
                                    node.pending_records(),
                                    PARAMS.difficulty_bits)
        for env in (Envelope(MsgKind.NewBlock, block.encode()),
                    Envelope(MsgKind.NewTx, one_tx(txs[2]))):
            assert server.handle(env) == live.OK_FRAME
        yield server, hosted.address
    finally:
        server.close()


_heights = st.integers(min_value=0, max_value=5) | st.integers(
    min_value=0, max_value=2**64 - 1)


@given(data=st.data())
def test_hostile_fragment_request(fragment_server, keys, data):
    """Any FragmentRequest payload gets the fragment that serve_fragment
    gives for its one range, or an error reply; nothing raises and the
    log does not grow."""
    server, hosted = fragment_server
    addresses = [hosted] + [k.address for k in keys[:4]] + [b"\x00" * 20]
    payload = data.draw(st.binary(max_size=80) | st.builds(
        struct.Struct(">20sQQ").pack, st.sampled_from(addresses)
        | st.binary(min_size=20, max_size=20), _heights, _heights))
    path = log_path(server.data_dir)
    size = os.path.getsize(path)
    reply = live.read_envelope(io.BytesIO(server.handle(
        Envelope(MsgKind.FragmentRequest, payload))))
    assert os.path.getsize(path) == size
    try:
        if len(payload) != 36:
            raise DecodeError("not one range")
        expected = server.node.serve_fragment(
            *struct.unpack(">20sQQ", payload))
    except ShardChainError as err:
        assert reply.kind == MsgKind.Hello
        assert reply.payload.startswith(
            live.ERR + type(err).__name__.encode() + b": ")
        return
    assert reply.kind == MsgKind.FragmentResponse
    assert reply.payload[:1] == live.OK
    assert subchain.decode_fragment(reply.payload[1:]) == expected


class LyingNode:
    """A client that forwards to ``client`` but answers Hello with
    ``records`` as the pending tails' summaries."""

    def __init__(self, client, records):
        self.client = client
        self.records = records

    def hello(self):
        assignment, tip, tip_height, _ = self.client.hello()
        return assignment, tip, tip_height, self.records

    def submit_block(self, block):
        self.client.submit_block(block)


class TestHello:
    def test_summary_names_confirmed_tip(self, data_dir, keys):
        first = make_send(keys[0], amount=7)
        second = make_send(keys[0], parent=first.tx_hash, height=2)
        other = make_send(keys[1], amount=3)
        with serving(data_dir) as (_, client):
            client.submit_tx(first)
            live.mine_once(client, MINER, PARAMS, timestamp=15)
            client.submit_tx(second)
            client.submit_tx(other)
            _, _, tip_height, pending = client.hello()
        assert tip_height == 1
        # each summary is the record that confirms the whole tail
        assert sorted(pending) == sorted([
            mainchain.ConfirmationRecord(keys[0].address, second.tx_hash, 2),
            mainchain.ConfirmationRecord(keys[1].address, other.tx_hash, 1)])
        assert all(type(r) is mainchain.ConfirmationRecord for r in pending)

    @pytest.mark.parametrize("body", [
        b"",
        b"\x00",                             # a prefix, then nothing
        b"\x00" * 11,
        # two summaries announced, none sent
        ShardAssignment().encode() + b"\x11" * 32
        + struct.pack(">QI", 3, 2),
        # a whole reply with a byte after it
        live.encode_hello(ShardAssignment("1"), b"\x11" * 32, 3, [])
        + b"\x00",
    ])
    def test_malformed_reply_refused(self, body):
        with pytest.raises(DecodeError):
            CannedReply(body).hello()


class CannedReply(live.NodeClient):
    """A client that gets ``body`` as the ok reply to every request."""

    def __init__(self, body):
        self.body = body

    def call(self, env):
        return self.body


class TestBlockOrder:
    def test_live_miner_confirms_the_sim_miners_tails(self, tmp_path, keys):
        """A pool over capacity whose address order is not its block
        order: tails of 1, 2 and 3 txs, with ties, pooled out of address
        order. Hello lists the tails in the node's block order, and
        mine_once over TCP seals the very block that the sim's miner
        builds from the same pool."""
        limit = mainchain.BLOCK_OVERHEAD + 4 * mainchain.RECORD_LEN
        params = PARAMS._replace(block_limit=limit)
        by_address = sorted(keys[:7], key=lambda k: k.address)
        lengths = [1, 1, 2, 3, 2, 3, 2]     # of each tail, by address
        arrival = [6, 3, 4, 0, 5, 2, 1]     # the order the tails are pooled
        txs = [tx for i in arrival for tx in build_chain(
            by_address[i], lengths[i], start_balance=1000)]
        order = [by_address[i].address for i in (3, 5, 6, 4, 2, 0, 1)]
        alloc = {k.address: 1000 for k in by_address}
        path = str(tmp_path / "node")
        live.init_data_dir(path, alloc, params)

        node = Node(b"\x00" * 8, ShardAssignment(),
                    mainchain.make_genesis(alloc), params)
        for tx in txs:
            node.accept_pending_tx(tx)
        assert node.block_order() == order
        sim_block = Miner(MINER, node).build_template(15)

        with serving(path) as (_, client):
            for tx in txs:
                client.submit_tx(tx)
            _, _, _, pending = client.hello()
            assert [entry[0] for entry in pending] == order
            block = live.mine_once(client, MINER, params, timestamp=15)
        assert block == sim_block
        assert [r.address for r in block.confirmations] == sorted(order[:4])


class TestMineOnce:
    def test_mine_once_makes_two_requests(self, tmp_path, keys):
        """One Hello and one NewBlock round trip, for a full pool and an
        empty one: no fragment is fetched."""
        path = str(tmp_path / "ten")
        live.init_data_dir(path, {k.address: 1000 for k in keys[:10]},
                           PARAMS)
        with serving(path) as (server, client):
            for key in keys[:10]:
                client.submit_tx(make_send(key, amount=7))
            kinds = []
            call = client.call

            def counted(env):
                kinds.append(env.kind)
                return call(env)

            client.call = counted
            block = live.mine_once(client, MINER, PARAMS, timestamp=15)
            assert len(block.confirmations) == 10
            assert kinds == [MsgKind.Hello, MsgKind.NewBlock]
            assert server.node.view.tip == block.block_hash
            kinds.clear()
            live.mine_once(client, MINER, PARAMS, timestamp=30)
            assert kinds == [MsgKind.Hello, MsgKind.NewBlock]

    def test_hello_records_mined_unchanged(self, data_dir, keys):
        """The block confirms the Hello's records as they are, sorted."""
        first = make_send(keys[0], amount=7)
        second = make_send(keys[0], parent=first.tx_hash, height=2)
        with serving(data_dir) as (server, client):
            for tx in (first, second, make_send(keys[1])):
                client.submit_tx(tx)
            _, _, _, pending = client.hello()
            block = live.mine_once(client, MINER, PARAMS, timestamp=15)
            assert server.node.view.tip == block.block_hash
        assert block.confirmations == tuple(
            sorted(pending, key=lambda r: r.address))
        assert (keys[0].address, second.tx_hash, 2) in block.confirmations

    @pytest.mark.parametrize("lie,error", [
        ("tip not held", "ConfirmationMismatch"),
        ("height skipped", "PartialFetch"),
        ("no tail", "PartialFetch")])
    def test_lying_hello_refused_by_node(self, data_dir, keys, lie, error):
        """A node that lies in its Hello costs its miner the block: the
        honest node refuses it with an error reply, its tip stays and
        nothing is journaled; its own Hello is then mined as usual."""
        first = make_send(keys[0], amount=7)
        a, b = keys[0].address, keys[1].address
        record = mainchain.ConfirmationRecord(*{
            "tip not held": (a, b"\x0f" * 32, 1),
            "height skipped": (a, first.tx_hash, 2),
            "no tail": (b, b"\x0f" * 32, 1)}[lie])
        with serving(data_dir) as (server, client):
            client.submit_tx(first)
            tip = server.node.view.tip
            size = os.path.getsize(log_path(data_dir))
            with pytest.raises(ShardChainError) as exc:
                live.mine_once(LyingNode(client, [record]), MINER, PARAMS,
                               timestamp=15)
            assert str(exc.value).startswith(error + ": ")
            assert server.node.view.tip == tip
            assert os.path.getsize(log_path(data_dir)) == size
            block = live.mine_once(client, MINER, PARAMS, timestamp=15)
            assert block.confirmations == ((a, first.tx_hash, 1),)
            assert server.node.view.tip == block.block_hash


def test_sim_root_and_live_node_apply_the_same_envelopes(tmp_path):
    """Every envelope a 3-node sim delivers to its root, handed to a fresh
    live node's handler, leaves that node where the root is; so does a
    reload of the node's journal."""
    from shardchain.sim import SimConfig, Simulation

    # blocks of 4 records, so that tails stay pending at the end
    sim = Simulation(SimConfig(seed=5, accounts=40, width=8, avg_txs=2,
                               blocks=8, node_count=3, block_limit=400))
    delivered = []
    deliver = sim.router.on_deliver

    def noted(nid, env):
        if nid == sim.root.node_id:
            delivered.append(env)
        deliver(nid, env)

    sim.router.on_deliver = noted
    sim.run()
    assert {env.kind for env in delivered} == {MsgKind.NewTx,
                                               MsgKind.NewBlock}
    path = str(tmp_path / "root")
    live.init_data_dir(path, dict(sim.genesis.allocations), sim.params)
    server = live.NodeServer(path, ("127.0.0.1", 0))
    try:
        assert all(server.handle(env) == live.OK_FRAME for env in delivered)
    finally:
        server.close()

    def held(node):
        return (node.view.tip, node.store.confirmed, tails(node),
                node.store.tail_states, node.inflows())

    root = sim.root
    assert root.view.tip_height == 8 and tails(root)
    assert held(server.node) == held(root)
    assert held(live.load_node(path)) == held(root)


# -- partial nodes of a sim --------------------------------------------

@pytest.fixture(scope="module")
def saved_sim_nodes(tmp_path_factory):
    """Every node of a 7-node sim, each saved to its own data dir, by
    prefix."""
    from shardchain.sim import SimConfig, Simulation

    sim = Simulation(SimConfig(seed=5, accounts=40, width=8, avg_txs=2,
                               blocks=8, node_count=7, block_limit=2048))
    sim.run()
    saved = {}
    for node in sim.nodes.values():
        prefix = node.assignment.prefix_bits
        data_dir = str(tmp_path_factory.mktemp("node" + prefix))
        live.save_node(node, data_dir)
        saved[prefix] = node, data_dir
    return saved


# the journal pools each confirmed claim again before its block; for a
# send whose sender the node does not host, a loaded node has no reach-in
# to find the send
NO_REACH_IN = pytest.mark.xfail(
    raises=UnconfirmedSend, strict=True,
    reason="a foreign send needs a receipt (ROADMAP item 2)")


@pytest.mark.parametrize("prefix", [
    "", "0", "00", "01", pytest.param("1", marks=NO_REACH_IN),
    pytest.param("10", marks=NO_REACH_IN), "11"])
def test_sim_node_save_load_roundtrip(saved_sim_nodes, prefix):
    """A saved sim node, full or partial, reloads to the same tip and an
    equal value in every store field: confirmed states, pending tails and
    their states, chains, inflows, archive and decoded values. The
    inflow index of each is read first, through ``Node.inflows``, which
    indexes the blocks connected since the last read."""
    node, data_dir = saved_sim_nodes[prefix]
    assert node.view.height[node.view.tip] == 8 and node.store.confirmed
    loaded = live.load_node(data_dir)
    assert loaded.view.tip == node.view.tip
    assert loaded.inflows() == node.inflows()
    for name, value in vars(node.store).items():
        assert getattr(loaded.store, name) == value, name
