"""Data-dir journal, restart recovery and hostile input on the live node."""

import contextlib
import os
import socket
import struct
import sys
import threading

import pytest

from shardchain import cli, codec, live, mainchain
from shardchain.errors import DecodeError, ShardChainError
from shardchain.mainchain import ChainParams, EASY_BITS
from shardchain.network import Envelope, MsgKind

from conftest import make_receive, make_send

PARAMS = ChainParams(difficulty_bits=EASY_BITS, block_limit=4096,
                     block_interval=15, maturity=1)
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
             for address, tail in node.store.pending.items()})


def log_path(data_dir):
    return os.path.join(data_dir, live.LOG_FILE)


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
            == whole + len(live._log_record(MsgKind.NewTx,
                                            codec.encode_tx(late)))
        for _ in range(2):
            reloaded = live.load_node(data_dir)
            assert node_state(reloaded) == after
            assert reloaded.store.pending[keys[2].address] == [late]

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

    def test_compact_rewrites_log(self, data_dir, keys):
        send = make_send(keys[0], amount=7, recipient=keys[1].address)
        with serving(data_dir) as (server, client):
            for _ in range(3):
                client.submit_tx(send)   # exact duplicates are accepted
            block = live.mine_once(client, MINER, PARAMS, timestamp=15)
            client.submit_tx(make_receive(keys[1], codec.NULL_HASH, 1,
                                          keys[0].address, send.tx_hash,
                                          block.block_hash, 7))
            live.mine_once(client, MINER, PARAMS, timestamp=30)
            client.submit_tx(make_send(keys[2], amount=3))
            live_state = node_state(server.node)
        assert live_state[2][keys[1].address].balance == 1007
        size = os.path.getsize(log_path(data_dir))
        assert cli.main(["compact", "--data-dir", data_dir]) == 0
        assert os.path.getsize(log_path(data_dir)) < size
        assert node_state(live.load_node(data_dir)) == live_state
        assert sorted(os.listdir(data_dir)) == [live.LOG_FILE,
                                                live.META_FILE]


class TestHostileInput:
    @pytest.mark.parametrize("env", [
        Envelope(MsgKind.NewBlock, b"\x00" * 50),
        Envelope(MsgKind.NewBlock, b"\x00" * (mainchain.BLOCK_OVERHEAD + 7)),
        Envelope(MsgKind.FragmentRequest, b"\x00" * 35),
        Envelope(MsgKind.NewTx, b""),
    ])
    def test_malformed_request_gets_error(self, data_dir, env):
        with serving(data_dir) as (_, client):
            size = os.path.getsize(log_path(data_dir))
            with pytest.raises(ShardChainError) as exc:
                client.call(env)
            assert "DecodeError" in str(exc.value)
            _, _, tip_height, _ = client.hello()   # connection still open
            assert tip_height == 0
            assert os.path.getsize(log_path(data_dir)) == size

    def test_oversized_frame_refused_unread(self, data_dir):
        with serving(data_dir) as (server, _):
            assert server.max_frame == PARAMS.block_limit \
                + live.ENVELOPE_HEADER
            with socket.create_connection(server.server.server_address) \
                    as sock:
                # a forged header only: no payload follows it
                sock.sendall(struct.pack(">IB32s", 0xFFFFFFFF,
                                         MsgKind.NewBlock, b"\x00" * 32))
                reply = live.read_envelope(sock)
                assert reply.payload.startswith(live.ERR)
                assert b"exceeds" in reply.payload
                assert sock.recv(1) == b""      # then the node hangs up

    def test_read_envelope_cap(self):
        left, right = socket.socketpair()
        with left, right:
            env = Envelope(MsgKind.NewTx, b"\x07" * 20)
            left.sendall(env.encode() + env.encode())
            assert live.read_envelope(right, max_frame=57) == env
            with pytest.raises(DecodeError):
                live.read_envelope(right, max_frame=56)
