"""Data-dir journal, restart recovery and hostile input on the live node."""

import contextlib
import dataclasses
import json
import os
import socket
import struct
import sys
import threading

import pytest

from shardchain import cli, codec, live, mainchain, subchain
from shardchain.errors import DecodeError, ShardChainError
from shardchain.mainchain import ChainParams, EASY_BITS
from shardchain.miner import Miner
from shardchain.network import Envelope, MsgKind
from shardchain.node import Node
from shardchain.sharding import ShardAssignment

from conftest import build_chain, make_receive, make_send

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

    def test_meta_with_block_interval_loads(self, data_dir, keys):
        """A data dir written while the chain parameters still held a block
        interval loads, and its next save drops the key."""
        node = live.load_node(data_dir)
        node.accept_pending_tx(make_send(keys[0], amount=7))
        live.save_node(node, data_dir)
        meta_path = os.path.join(data_dir, live.META_FILE)
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["block_interval"] = 600
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        loaded = live.load_node(data_dir)
        assert (node_state(loaded), loaded.params) \
            == (node_state(node), node.params)
        live.save_node(loaded, data_dir)
        with open(meta_path) as fh:
            assert "block_interval" not in json.load(fh)


class TestHostileInput:
    @pytest.mark.parametrize("env", [
        Envelope(MsgKind.NewBlock, b"\x00" * 50),
        Envelope(MsgKind.NewBlock, b"\x00" * (mainchain.BLOCK_OVERHEAD + 7)),
        Envelope(MsgKind.FragmentRequest, b"\x00" * 35),
        Envelope(MsgKind.NewTx, b""),
        Envelope(MsgKind.FragmentRequest, b""),
        Envelope(MsgKind.FragmentRequest, b"\x00" * 37),
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
            assert server.node.store.pending == {}

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


def first_bit(bit, keys):
    """A key whose address starts with the bit ``bit``."""
    return next(k for k in keys if k.address[0] >> 7 == bit)


class TestBatchedFragments:
    def test_fragments_in_request_order(self, data_dir, keys):
        first = make_send(keys[0], amount=7)
        second = make_send(keys[0], parent=first.tx_hash, height=2)
        other = make_send(keys[1], amount=3)
        last = make_send(keys[2], amount=9)
        with serving(data_dir) as (_, client):
            for tx in (first, second, other, last):
                client.submit_tx(tx)
            a0, a1, a2 = (k.address for k in keys[:3])
            frags = client.fetch_fragments(
                [(a2, 0, 1), (a0, 1, 2), (a1, 0, 1), (a0, 0, 2)])
        assert [(f.address, f.from_height, f.txs) for f in frags] == [
            (a2, 0, (last,)), (a0, 1, (second,)), (a1, 0, (other,)),
            (a0, 0, (first, second))]

    def test_full_capacity_batch_served(self, data_dir, keys):
        txs = [make_send(k, amount=5) for k in keys[:3]]
        cap = mainchain.capacity(PARAMS.block_limit)
        assert cap == 66
        ranges = [(txs[i % 3].current_address, 0, 1) for i in range(cap)]
        with serving(data_dir) as (_, client):
            for tx in txs:
                client.submit_tx(tx)
            frags = client.fetch_fragments(ranges)
        assert [f.txs for f in frags] == [(txs[i % 3],) for i in range(cap)]

    def test_unavailable_range_fails_whole_request(self, data_dir, keys):
        with serving(data_dir) as (_, client):
            client.submit_tx(make_send(keys[0], amount=7))
            size = os.path.getsize(log_path(data_dir))
            with pytest.raises(ShardChainError) as exc:
                client.fetch_fragments([(keys[0].address, 0, 1),
                                        (keys[0].address, 0, 2)])
            assert "RangeUnavailable" in str(exc.value)
            assert os.path.getsize(log_path(data_dir)) == size
            # the connection still serves the good range alone
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
                client.fetch_fragments([(hosted.address, 0, 1),
                                        (foreign.address, 0, 1)])
            assert "NotHosted" in str(exc.value)
            assert os.path.getsize(log_path(path)) == size

    def test_mine_once_makes_three_requests(self, tmp_path, keys):
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
            assert kinds == [MsgKind.Hello, MsgKind.FragmentRequest,
                             MsgKind.NewBlock]
            assert server.node.view.tip == block.block_hash
            # an empty pool fetches nothing
            kinds.clear()
            live.mine_once(client, MINER, PARAMS, timestamp=30)
            assert kinds == [MsgKind.Hello, MsgKind.NewBlock]


def fragment(*txs):
    return subchain.SubchainFragment(address=txs[0].current_address,
                                     from_height=txs[0].height - 1,
                                     txs=tuple(txs))


def summary(frag):
    """The Hello summary (address, tip, height, confirmed, confirmed hash)
    of a fragment."""
    return (frag.address, frag.txs[-1].tx_hash, frag.to_height,
            frag.from_height, frag.txs[0].parent_hash)


class LyingNode:
    """A stub client that serves fixed fragments for its pending tails,
    summarised as ``pending`` (by default, as the fragments themselves)."""

    def __init__(self, frags, pending=None):
        self.frags = frags
        self.pending = pending or [summary(f) for f in frags]
        self.submitted = []

    def hello(self):
        return None, b"\x00" * 32, 0, self.pending

    def fetch_fragments(self, ranges):
        assert ranges == [(address, confirmed, height)
                          for address, _, height, confirmed, _
                          in self.pending]
        return self.frags

    def submit_block(self, block):
        self.submitted.append(block)


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
        assert sorted(pending) == sorted([
            (keys[0].address, second.tx_hash, 2, 1, first.tx_hash),
            (keys[1].address, other.tx_hash, 1, 0, codec.NULL_HASH)])

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
        params = dataclasses.replace(PARAMS, block_limit=limit)
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


class TestMinerChecks:
    def test_honest_fragments_mined(self, keys):
        first = make_send(keys[0], amount=7)
        second = make_send(keys[0], parent=first.tx_hash, height=2)
        node = LyingNode([fragment(first, second),
                          fragment(make_send(keys[1]))])
        block = live.mine_once(node, MINER, PARAMS, timestamp=15)
        assert node.submitted == [block]
        assert len(block.confirmations) == 2

    @pytest.mark.parametrize("lie", ["signature", "parent link"])
    def test_lying_node_refused(self, keys, lie):
        first = make_send(keys[0], amount=7)
        if lie == "signature":
            sig = first.signature
            bad = fragment(dataclasses.replace(
                first, signature=sig[:10] + bytes([sig[10] ^ 1]) + sig[11:]))
        else:
            bad = fragment(first, make_send(keys[0], parent=b"\x0f" * 32,
                                            height=2))
        node = LyingNode([fragment(make_send(keys[1])), bad])
        with pytest.raises(ShardChainError) as exc:
            live.mine_once(node, MINER, PARAMS, timestamp=15)
        assert ("signature" if lie == "signature" else "link-valid") \
            in str(exc.value)
        assert node.submitted == []

    @pytest.mark.parametrize("lie", [
        "other account", "one tx short", "other last hash", "no first tx",
        "relabelled", "mislabelled", "height skew", "start skew", "empty",
        "unlinked start"])
    def test_wrong_tail_refused(self, keys, lie):
        """A served fragment must be the tail its summary names: its
        address, heights and tip hash, starting on the confirmed tip.
        Each of those checks, removed alone, lets one of these lies
        through."""
        a, b = keys[0].address, keys[1].address
        first = make_send(keys[0], amount=7)
        second = make_send(keys[0], parent=first.tx_hash, height=2)
        skewed = make_send(keys[0], height=2)   # parent: the null hash
        unlinked = make_send(keys[0], parent=b"\x0f" * 32)
        theirs = make_send(keys[1])
        frag = subchain.SubchainFragment
        asked, served = {
            # B's validly signed send, served for A's height-1 tail
            "other account": ((a, first.tx_hash, 1, 0), fragment(theirs)),
            "one tx short": ((a, first.tx_hash, 2, 0), fragment(first)),
            "other last hash": ((a, second.tx_hash, 1, 0), fragment(first)),
            "no first tx": ((a, second.tx_hash, 2, 0), fragment(second)),
            # B's send, labelled as A's fragment and announced as A's tip
            "relabelled": ((a, theirs.tx_hash, 1, 0), frag(a, 0, (theirs,))),
            "mislabelled": ((a, first.tx_hash, 1, 0), frag(b, 0, (first,))),
            "height skew": ((a, skewed.tx_hash, 1, 0), frag(a, 0, (skewed,))),
            "start skew": ((a, first.tx_hash, 2, 0), frag(a, 1, (first,))),
            "empty": ((a, first.tx_hash, 0, 0), frag(a, 0, ())),
            # A's height-1 send on a parent other than the empty subchain
            "unlinked start": ((a, unlinked.tx_hash, 1, 0),
                               fragment(unlinked)),
        }[lie]
        # every summary announces A's confirmed tip as the empty subchain
        node = LyingNode([served], pending=[asked + (codec.NULL_HASH,)])
        with pytest.raises(ShardChainError) as exc:
            live.mine_once(node, MINER, PARAMS, timestamp=15)
        assert "requested tail" in str(exc.value)
        assert node.submitted == []
