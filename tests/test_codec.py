import hashlib
import hmac
import random

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)
from hypothesis import assume, given, settings, strategies as st

from shardchain import codec
from shardchain.codec import (
    NULL_ADDRESS,
    NULL_HASH,
    RECV_WIRE_LEN,
    SEND_WIRE_LEN,
    ReceiveTx,
    SendTx,
)
from shardchain.errors import InvalidSeed, InvalidSignature, KeyMismatch
from shardchain.sim import derived_key

from conftest import FORGERIES, chain_signed, decode_tx, forge, \
    make_receive, make_send, random_tx

# SHA-256 of the all-zero SendTx preimage (tag 0x01 + 96 zero bytes),
# computed independently with hashlib over a hand-built byte string.
ZERO_SEND_DIGEST = bytes.fromhex(
    "d57a85c0063030b53f51d75232d6419f35ac86e5d8807898889463effcf29b7c")
ZERO_RECV_DIGEST = bytes.fromhex(
    "0639da134c95274c57fc1ce1899e31e5ebc7531040b4bae4f54ca29d9f797c1d")

SECP256K1_ORDER = int("FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFE"
                      "BAAEDCE6AF48A03BBFD25E8CD0364141", 16)


def zero_send():
    return SendTx(parent_hash=NULL_HASH, height=0,
                  current_address=b"\x00" * 20,
                  recipient_address=b"\x00" * 20, amount=0, timestamp=0)


class TestKeygen:
    def test_seeded_determinism(self):
        a = codec.keygen(b"\x01" * 32)
        b = codec.keygen(b"\x01" * 32)
        assert a.address == b.address
        assert len(a.public) == 33 and len(a.address) == 20

    def test_known_answer(self):
        """P-256 public key of the scalar 0x0101...01, compressed."""
        assert codec.keygen(b"\x01" * 32).public.hex() == (
            "026ff03b949241ce1dadd43519e6960e0a85b41a69a05c328103aa2bce1594ca16")

    @pytest.mark.parametrize("seed, prefix", [
        (b"\x01" * 32, 0x02),    # even y
        (b"\x05" * 32, 0x03),    # odd y
    ])
    def test_compressed_point_matches_x962(self, seed, prefix):
        """keygen builds the compressed point from the public numbers; it
        equals cryptography's own X9.62 compressed encoding."""
        key = codec.keygen(seed)
        assert key.public[0] == prefix
        assert key.public == key.signing_key.public_key().public_bytes(
            Encoding.X962, PublicFormat.CompressedPoint)

    def test_zero_seed_rejected(self):
        with pytest.raises(InvalidSeed):
            codec.keygen(b"\x00" * 32)

    def test_order_overflow_rejected(self):
        with pytest.raises(InvalidSeed):
            codec.keygen(codec.CURVE_ORDER.to_bytes(32, "big"))

    @pytest.mark.parametrize("length", [31, 33])
    def test_seed_of_another_length_rejected(self, length):
        """A seed one byte short or long is refused for its length, also
        when its bytes would read as a valid scalar."""
        with pytest.raises(InvalidSeed, match="32 bytes"):
            codec.keygen(b"\x01" * length)

    def test_unseeded_randomness(self):
        assert codec.keygen().address != codec.keygen().address

    def test_unseeded_draws_again_past_the_zero_scalar(self, monkeypatch):
        draws = [b"\x00" * 32, b"\x03" * 32]
        monkeypatch.setattr(codec.os, "urandom", lambda n: draws.pop(0))
        assert codec.keygen() == codec.keygen(b"\x03" * 32)
        assert draws == []

    def test_address_derivation(self):
        key = codec.keygen(b"\x02" * 32)
        assert key.address == hashlib.sha256(key.public).digest()[-20:]

    @pytest.mark.parametrize("size", [0, 32, 34, 65])
    def test_address_needs_a_compressed_key(self, size):
        with pytest.raises(ValueError):
            codec.address_from_public(b"\x02" * size)

    def test_signing_derives_no_key(self, monkeypatch):
        """A KeyPair carries the key object keygen derived: signing
        derives none, and the object takes no part in equality or repr."""
        key = codec.keygen(b"\x03" * 32)
        again = codec.keygen(b"\x03" * 32)
        assert key == again and key.signing_key is not again.signing_key
        assert "signing_key" not in repr(key)
        derived = []
        derive = codec.ec.derive_private_key
        monkeypatch.setattr(codec.ec, "derive_private_key",
                            lambda *a: derived.append(a) or derive(*a))
        tx = SendTx(parent_hash=NULL_HASH, height=1,
                    current_address=key.address,
                    recipient_address=b"\x07" * 20, amount=1, timestamp=0)
        assert codec.verify_tx(codec.sign_tx(tx, key))
        assert derived == []


class TestEncoding:
    def test_zero_send_layout(self):
        """The all-zero send holds the null key and signature, so it has
        the unsigned tag and leaves both out."""
        data = codec.encode_tx(zero_send())
        assert len(data) == codec.UNSIGNED_SEND_WIRE_LEN == 129
        assert data[0] == codec.TAG_SEND_UNSIGNED
        assert data[1:] == bytes(codec.UNSIGNED_SEND_WIRE_LEN - 1)

    def test_unsigned_layout_drops_key_and_signature(self, keys):
        """An unsigned tx encodes as its signed copy does, but for its tag
        and the 97 bytes of key and signature: 129 and 193 bytes."""
        for tx, tags in ((make_send(keys[0]), (0x01, 0x03)),
                         (make_receive(keys[1], NULL_HASH, 1, b"\x03" * 20,
                                       b"\x04" * 32, b"\x05" * 32, 7),
                          (0x02, 0x04))):
            signed = codec.encode_tx(tx)
            bare = codec.encode_tx(tx._replace(public_key=codec.NULL_KEY,
                                               signature=codec.NULL_SIG))
            assert (signed[0], bare[0]) == tags
            assert signed[1:-codec.AUTH_LEN] == bare[1:]
            assert len(signed) - len(bare) == codec.AUTH_LEN == 97
        assert (codec.UNSIGNED_SEND_WIRE_LEN,
                codec.UNSIGNED_RECV_WIRE_LEN) == (129, 193)
        assert (SEND_WIRE_LEN, RECV_WIRE_LEN) == (226, 290)

    def test_receive_longer_than_send(self):
        assert RECV_WIRE_LEN > SEND_WIRE_LEN
        # recipient_address is replaced by sender_address (same width);
        # the net growth is sender_tx_hash + main_block_hash
        assert RECV_WIRE_LEN - SEND_WIRE_LEN == 32 + 32

    def test_roundtrip_random(self, keys):
        rng = random.Random(1234)
        for _ in range(1000):
            tx = random_tx(rng, rng.choice(keys))
            assert decode_tx(codec.encode_tx(tx)) == tx

    def test_zero_send_digest_pinned(self):
        assert codec.hash_tx(zero_send()).tx_hash == ZERO_SEND_DIGEST

    def test_zero_receive_digest_pinned(self):
        tx = ReceiveTx(parent_hash=NULL_HASH, height=0,
                       current_address=b"\x00" * 20,
                       sender_address=b"\x00" * 20,
                       sender_tx_hash=NULL_HASH,
                       main_block_hash=NULL_HASH, amount=0, timestamp=0)
        assert codec.hash_tx(tx).tx_hash == ZERO_RECV_DIGEST

    def test_digest_differs_on_amount(self, keys):
        a = make_send(keys[0], amount=1, sign=False)
        b = make_send(keys[0], amount=2, sign=False)
        assert codec.hash_tx(a).tx_hash != codec.hash_tx(b).tx_hash

    def test_digest_invariant_under_reencode(self, keys):
        tx = make_send(keys[0])
        again = decode_tx(codec.encode_tx(tx))
        assert codec.hash_tx(again).tx_hash == codec.hash_tx(tx).tx_hash \
            == tx.tx_hash


@settings(max_examples=200, deadline=None)
@given(parent=st.binary(min_size=32, max_size=32),
       height=st.integers(min_value=1, max_value=2**64 - 1),
       rcpt=st.binary(min_size=20, max_size=20),
       amount=st.integers(min_value=1, max_value=2**64 - 1),
       ts=st.integers(min_value=0, max_value=2**64 - 1),
       tx_hash=st.binary(min_size=32, max_size=32),
       pub=st.binary(min_size=33, max_size=33),
       sig=st.binary(min_size=64, max_size=64))
def test_roundtrip_property(parent, height, rcpt, amount, ts, tx_hash,
                            pub, sig):
    tx = SendTx(parent_hash=parent, height=height,
                current_address=b"\x11" * 20, recipient_address=rcpt,
                amount=amount, timestamp=ts, tx_hash=tx_hash,
                public_key=pub, signature=sig)
    assert decode_tx(codec.encode_tx(tx)) == tx


def test_preimage_sensitivity(keys):
    """Flipping any single preimage byte changes the digest."""
    tx = make_send(keys[0], amount=9, timestamp=5)
    pre = codec._exact_preimage(tx)
    base = codec.hash_tx(tx).tx_hash
    assert codec.sha256(pre) == base
    for i in range(len(pre)):
        mutated = bytearray(pre)
        mutated[i] ^= 0x01
        assert hashlib.sha256(bytes(mutated)).digest() != base


def rfc6979_nonce(d: int, digest: bytes) -> int:
    """RFC 6979 section 3.2's nonce for P-256 and SHA-256 (the order and
    the hash are both 256 bits wide) from the secret scalar ``d`` and the
    signed digest: an oracle written from the RFC, not from the code."""
    n = codec.CURVE_ORDER
    x = d.to_bytes(32, "big")
    h = (int.from_bytes(digest, "big") % n).to_bytes(32, "big")
    v, k = b"\x01" * 32, b"\x00" * 32
    for sep in (b"\x00", b"\x01"):
        k = hmac.new(k, v + sep + x + h, "sha256").digest()
        v = hmac.new(k, v, "sha256").digest()
    while True:
        v = hmac.new(k, v, "sha256").digest()
        t = int.from_bytes(v, "big")
        if 1 <= t < n:
            return t
        k = hmac.new(k, v + b"\x00", "sha256").digest()
        v = hmac.new(k, v, "sha256").digest()


class TestSignatures:
    def test_known_answer_signature(self):
        """Signing takes RFC 6979's nonce, so the key of the scalar
        0x0101...01 signs this send to these 64 bytes every time (the
        known answer of docs/wire-format.md): r is the x coordinate of
        the nonce's point and s the low-s normalized ECDSA s."""
        key = codec.keygen(b"\x01" * 32)
        tx = SendTx(parent_hash=NULL_HASH, height=1,
                    current_address=key.address,
                    recipient_address=b"\x07" * 20, amount=5, timestamp=0)
        signed = codec.sign_tx(tx, key)
        assert signed.tx_hash.hex() == (
            "e97c612e8e2057a29429d9d97c87d4fc054f356c2fe7255c437b20f4512fd5d3")
        assert signed.signature.hex() == (
            "fcdeb62284a696b1419052491fd392a580c0bdd63da5eaf27bca17388de8b85a"
            "648d3b3a9e04d61149768838d9ce558338649f200b06bf3fb4067f8b73f0550c")
        assert codec.sign_tx(tx, key) == signed and codec.verify_tx(signed)
        # the oracle gives the RFC's own P-256/SHA-256 nonce (A.2.5)
        assert rfc6979_nonce(
            0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721,
            hashlib.sha256(b"sample").digest()) == \
            0xA6E3C57DD01ABE90086538398355DD4C3B17AA873382B0F24D6129493D8AAD60
        n, d = codec.CURVE_ORDER, int.from_bytes(b"\x01" * 32, "big")
        k = rfc6979_nonce(d, signed.tx_hash)
        r = ec.derive_private_key(k, codec.CURVE).public_key() \
            .public_numbers().x % n
        s = pow(k, -1, n) * (int.from_bytes(signed.tx_hash, "big")
                             + r * d) % n
        assert signed.signature == r.to_bytes(32, "big") \
            + min(s, n - s).to_bytes(32, "big")

    def test_sign_verify_roundtrip(self, keys):
        tx = make_send(keys[0])
        assert codec.verify_tx(tx)

    def test_wrong_key_rejected(self, keys):
        tx = make_send(keys[0], sign=False)
        with pytest.raises(KeyMismatch):
            codec.sign_tx(tx, keys[1])

    def test_tampered_recipient(self, keys):
        tx = make_send(keys[0])
        bad = tx._replace(recipient_address=b"\x09" * 20)
        assert not codec.verify_tx(bad)

    def test_extended_recipient_refused(self, keys):
        """``struct`` truncates a long field, so a send signed to 07 x 20
        has the preimage of the same send to 07 x 20 + 99."""
        tx = make_send(keys[0], recipient=b"\x07" * 20)
        longer = tx._replace(recipient_address=b"\x07" * 20 + b"\x99")
        assert codec._SEND_PREIMAGE.pack(codec.TAG_SEND, *longer[:6]) \
            == codec._SEND_PREIMAGE.pack(codec.TAG_SEND, *tx[:6])
        assert not codec.verify_tx(longer)

    def test_short_recipient_refused(self, keys):
        """``struct`` pads a short field with zeros, so a 19-byte
        recipient has the preimage of its zero-padded twin: such a send
        cannot be signed, and the twin's signature does not verify it."""
        short = b"\x07" * 19
        with pytest.raises(InvalidSignature):
            make_send(keys[0], recipient=short)
        padded = make_send(keys[0], recipient=short + b"\x00")
        tx = padded._replace(recipient_address=short)
        assert codec._SEND_PREIMAGE.pack(codec.TAG_SEND, *tx[:6]) \
            == codec._SEND_PREIMAGE.pack(codec.TAG_SEND, *padded[:6])
        assert not codec.verify_tx(tx)

    @pytest.mark.parametrize("field", [
        "parent_hash", "current_address", "sender_address", "sender_tx_hash",
        "main_block_hash", "tx_hash", "public_key", "signature"])
    def test_every_field_wire_width(self, keys, field):
        """A claim with any bytes field one byte longer or shorter than
        its wire width neither verifies nor signs."""
        tx = make_receive(keys[0], NULL_HASH, 1, b"\x03" * 20, b"\x04" * 32,
                          b"\x05" * 32, 7)
        value = getattr(tx, field)
        for wrong in (value + b"\x00", value[:-1]):
            bad = tx._replace(**{field: wrong})
            assert not codec.verify_tx(bad)
            with pytest.raises((InvalidSignature, KeyMismatch)):
                codec.sign_tx(bad, keys[0])

    def test_bit_flip_fuzz(self, keys):
        tx = make_send(keys[2], amount=17)
        wire = codec.encode_tx(tx)
        rng = random.Random(99)
        for _ in range(100):
            pos = rng.randrange(len(wire) * 8)
            mutated = bytearray(wire)
            mutated[pos // 8] ^= 1 << (pos % 8)
            try:
                cand = decode_tx(bytes(mutated))
            except Exception:
                continue
            assert not codec.verify_tx(cand)

    def test_high_s_rejected(self, keys):
        tx = make_send(keys[3])
        r = tx.signature[:32]
        s = int.from_bytes(tx.signature[32:], "big")
        high = (codec.CURVE_ORDER - s).to_bytes(32, "big")
        assert not codec.verify_tx(tx._replace(signature=r + high))

    def test_high_s_twin_is_p256_valid_but_refused(self, keys):
        """(r, n - s) verifies under plain P-256 ECDSA, so CURVE_ORDER is
        the curve's order n; verify_tx still refuses it as high-s."""
        tx = make_send(keys[3])
        r = int.from_bytes(tx.signature[:32], "big")
        s = int.from_bytes(tx.signature[32:], "big")
        high = codec.CURVE_ORDER - s
        pub = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(),
                                                           tx.public_key)
        pub.verify(encode_dss_signature(r, high), codec._exact_preimage(tx),
                   ec.ECDSA(hashes.SHA256()))
        assert not codec.verify_tx(tx._replace(
            signature=tx.signature[:32] + high.to_bytes(32, "big")))

    # secp256k1 scalars whose compressed public key is, as a P-256 point,
    # off the curve (7919) or on it (2 * 7919)
    @pytest.mark.parametrize("scalar,on_p256", [(7919, False),
                                                (2 * 7919, True)])
    def test_secp256k1_tx_refused(self, scalar, on_p256):
        priv = ec.derive_private_key(scalar, ec.SECP256K1())
        public = priv.public_key().public_bytes(Encoding.X962,
                                                PublicFormat.CompressedPoint)
        tx = SendTx(parent_hash=NULL_HASH, height=1,
                    current_address=codec.address_from_public(public),
                    recipient_address=b"\x07" * 20, amount=5, timestamp=1)
        pre = codec._exact_preimage(tx)
        r, s = decode_dss_signature(priv.sign(pre, ec.ECDSA(hashes.SHA256())))
        s = min(s, SECP256K1_ORDER - s)
        # in range and low-s for P-256 too: only the curve can refuse it
        assert 0 < r < codec.CURVE_ORDER and s <= codec.CURVE_ORDER // 2
        priv.public_key().verify(encode_dss_signature(r, s), pre,
                                 ec.ECDSA(hashes.SHA256()))
        try:
            ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(),
                                                         public)
        except ValueError:
            assert not on_p256
        else:
            assert on_p256
        tx = tx._replace(
            tx_hash=codec.sha256(pre), public_key=public,
            signature=r.to_bytes(32, "big") + s.to_bytes(32, "big"))
        assert codec.verify_tx(tx) is False

    def test_coinbase_claim_by_claimant(self, keys):
        from conftest import make_coinbase_claim
        tx = make_coinbase_claim(keys[4], NULL_HASH, 1, b"\xaa" * 32, 50)
        assert tx[3:5] == (NULL_ADDRESS, NULL_HASH)
        assert codec.verify_tx(tx)


class TestVerifyCache:
    """The verify cache is keyed by the transaction itself: an equal
    transaction is a hit, any changed field a fresh check."""

    def counted(self, monkeypatch):
        checked = []
        uncached = codec._verify_uncached

        def counted(tx):
            checked.append(tx)
            return uncached(tx)
        monkeypatch.setattr(codec, "_verify_uncached", counted)
        return checked

    def test_field_copy_hits(self, keys, monkeypatch):
        tx = make_send(keys[5], amount=3, timestamp=11)
        assert codec.verify_tx(tx)
        copy = SendTx(**{name: bytes(bytearray(v))
                         if isinstance(v, bytes) else v
                         for name, v in tx._asdict().items()})
        assert copy is not tx and copy.signature is not tx.signature
        checked = self.counted(monkeypatch)
        assert codec.verify_tx(copy)
        assert checked == []

    @pytest.mark.parametrize("name", ["signature", "amount", "public_key"])
    def test_changed_field_is_checked(self, keys, monkeypatch, name):
        tx = make_send(keys[5], amount=3, timestamp=12)
        assert codec.verify_tx(tx)
        value = {"signature": tx.signature[:-1]
                 + bytes([tx.signature[-1] ^ 1]),
                 "amount": 4, "public_key": keys[6].public}[name]
        changed = tx._replace(**{name: value})
        checked = self.counted(monkeypatch)
        assert codec.verify_tx(changed) is False
        assert checked == [changed]

    @pytest.mark.parametrize("flip", [0, 1])
    def test_unhashable_tx_gets_uncached_verdict(self, keys, monkeypatch,
                                                 flip):
        tx = make_send(keys[7], amount=5)
        sig = bytearray(tx.signature)
        sig[-1] ^= flip
        odd = tx._replace(signature=sig)
        with pytest.raises(TypeError):
            hash(odd)
        size = len(codec._verify_cache)
        checked = self.counted(monkeypatch)
        assert codec.verify_tx(odd) is codec.verify_tx(odd) is (flip == 0)
        assert len(checked) == 2 and len(codec._verify_cache) == size

    @pytest.mark.parametrize("name", ["parent_hash", "tx_hash", "public_key",
                                      "signature"])
    def test_memoryview_twin_leaves_the_tx_authentic(self, keys, name):
        """A field held as a memoryview has no wire form, so its tx reads
        False; the twin equals the genuine tx, which still reads True."""
        tx = make_send(keys[5], amount=3, timestamp=20 + len(name))
        twin = tx._replace(**{name: memoryview(getattr(tx, name))})
        assert twin == tx
        assert codec.verify_tx(twin) is False
        assert codec.verify_tx(tx) is True

    @pytest.mark.parametrize("name, convert, verdict", [
        ("tx_hash", memoryview, False), ("parent_hash", memoryview, False),
        ("public_key", memoryview, False), ("signature", memoryview, False),
        ("height", float, False), ("amount", float, False),
        ("height", bool, True)])
    def test_twin_of_a_cached_tx_is_checked(self, keys, monkeypatch, name,
                                            convert, verdict):
        """A twin of a cached tx with one field of another type than bytes
        or int equals it and hashes alike, so it would read the genuine
        tx's verdict: it is checked, never cached. A memoryview or a float
        has no wire form; a bool packs as its int."""
        tx = make_send(keys[5], amount=3, timestamp=40 + len(name))
        assert codec.verify_tx(tx)
        twin = tx._replace(**{name: convert(getattr(tx, name))})
        assert twin == tx and hash(twin) == hash(tx)
        size = len(codec._verify_cache)
        checked = self.counted(monkeypatch)
        assert codec.verify_tx(twin) is verdict
        assert checked == [twin] and len(codec._verify_cache) == size
        assert codec.verify_tx(tx) is True

    @pytest.mark.parametrize("convert, verdict", [(memoryview, False),
                                                  (bytearray, True)])
    def test_key_of_another_bytes_type_gets_a_verdict(self, convert,
                                                      verdict):
        """A key no check has seen yet, held as a memoryview, has no wire
        form; as a same-width bytearray it has the genuine tx's."""
        key = derived_key(b"key held as " + convert.__name__.encode())
        tx = make_send(key)
        odd = tx._replace(public_key=convert(tx.public_key))
        assert codec.verify_tx(odd) is verdict

    @pytest.mark.parametrize("name, value", [
        ("public_key", b"\x02" * 32), ("public_key", "k" * 33),
        ("signature", 7), ("height", -1)],
        ids=["short-key", "str-key", "int-signature", "negative-height"])
    def test_malformed_field_is_false(self, keys, name, value):
        tx = make_send(keys[8])._replace(**{name: value})
        assert codec.verify_tx(tx) is False


class TestChainSigned:
    """One signature per batch: the signed last tx authenticates the
    unsigned txs below it through their parent-hash links."""

    @pytest.mark.parametrize("forgery", FORGERIES)
    @given(shape=st.lists(st.tuples(st.booleans(), st.booleans()),
                          max_size=5),
           data=st.data())
    def test_chain_verifies_and_a_forgery_does_not(self, keys, forgery,
                                                   shape, data):
        """A 1-6-tx chain with its signed positions drawn and its last tx
        signed verifies; each forgery of it does not."""
        signed = [sign for sign, _ in shape] + [True]
        sends = [send for _, send in shape] + [data.draw(st.booleans())]
        txs = chain_signed(keys[0], signed, sends)
        assert codec.verify_txs(txs) is True
        for tx in txs:
            assert codec.verify_tx(tx) is not codec.unsigned(tx)

        def pick(options):
            assume(options)
            return data.draw(st.sampled_from(options))

        forged = forge(txs, forgery, pick, keys[0], keys[1])
        assert codec.verify_txs(forged) is False

    def test_hash_tx_fills_only_the_hash(self, keys):
        tx = make_send(keys[0], sign=False)
        hashed = codec.hash_tx(tx)
        assert hashed == tx._replace(tx_hash=codec.sign_tx(
            tx, keys[0]).tx_hash)
        assert codec.unsigned(hashed) and not codec.verify_tx(hashed)
        # its child vouches for it; a plain tuple of the child's fields,
        # which equals the child, is no tx and vouches for nothing
        child = make_send(keys[0], parent=hashed.tx_hash, height=2)
        assert codec.vouched(hashed, child) is True
        assert codec.vouched(hashed, tuple(child)) is False

    def test_hash_tx_refuses_a_field_off_its_width(self, keys):
        with pytest.raises(InvalidSignature):
            codec.hash_tx(make_send(keys[0], sign=False)._replace(
                current_address=b"\x01" * 19))
