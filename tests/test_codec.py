import dataclasses
import hashlib
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
from hypothesis import given, settings, strategies as st

from shardchain import codec
from shardchain.codec import (
    NULL_HASH,
    RECV_WIRE_LEN,
    SEND_WIRE_LEN,
    ReceiveTx,
    SendTx,
)
from shardchain.errors import InvalidSeed, KeyMismatch

from conftest import make_send, random_tx

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

    def test_unseeded_randomness(self):
        assert codec.keygen().address != codec.keygen().address

    def test_address_derivation(self):
        key = codec.keygen(b"\x02" * 32)
        assert key.address == hashlib.sha256(key.public).digest()[-20:]

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
        data = codec.encode_tx(zero_send())
        assert len(data) == SEND_WIRE_LEN
        assert data[0] == codec.TAG_SEND
        assert data[1:] == bytes(SEND_WIRE_LEN - 1)

    def test_receive_longer_than_send(self):
        assert RECV_WIRE_LEN > SEND_WIRE_LEN
        # recipient_address is replaced by sender_address (same width);
        # the net growth is sender_tx_hash + main_block_hash
        assert RECV_WIRE_LEN - SEND_WIRE_LEN == 32 + 32

    def test_roundtrip_random(self, keys):
        rng = random.Random(1234)
        for _ in range(1000):
            tx = random_tx(rng, rng.choice(keys))
            assert codec.decode_tx(codec.encode_tx(tx)) == tx

    def test_zero_send_digest_pinned(self):
        assert codec.tx_digest(zero_send()) == ZERO_SEND_DIGEST

    def test_zero_receive_digest_pinned(self):
        tx = ReceiveTx(parent_hash=NULL_HASH, height=0,
                       current_address=b"\x00" * 20,
                       sender_address=b"\x00" * 20,
                       sender_tx_hash=NULL_HASH,
                       main_block_hash=NULL_HASH, amount=0, timestamp=0)
        assert codec.tx_digest(tx) == ZERO_RECV_DIGEST

    def test_digest_differs_on_amount(self, keys):
        a = make_send(keys[0], amount=1, sign=False)
        b = make_send(keys[0], amount=2, sign=False)
        assert codec.tx_digest(a) != codec.tx_digest(b)

    def test_digest_invariant_under_reencode(self, keys):
        tx = make_send(keys[0])
        again = codec.decode_tx(codec.encode_tx(tx))
        assert codec.tx_digest(again) == codec.tx_digest(tx)


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
    assert codec.decode_tx(codec.encode_tx(tx)) == tx


def test_preimage_sensitivity(keys):
    """Flipping any single preimage byte changes the digest."""
    tx = make_send(keys[0], amount=9, timestamp=5)
    pre = codec.tx_preimage(tx)
    base = codec.tx_digest(tx)
    for i in range(len(pre)):
        mutated = bytearray(pre)
        mutated[i] ^= 0x01
        assert hashlib.sha256(bytes(mutated)).digest() != base


class TestSignatures:
    def test_sign_verify_roundtrip(self, keys):
        tx = make_send(keys[0])
        assert codec.verify_tx(tx)

    def test_wrong_key_rejected(self, keys):
        tx = make_send(keys[0], sign=False)
        with pytest.raises(KeyMismatch):
            codec.sign_tx(tx, keys[1])

    def test_tampered_recipient(self, keys):
        tx = make_send(keys[0])
        bad = dataclasses.replace(tx, recipient_address=b"\x09" * 20)
        assert not codec.verify_tx(bad)

    def test_bit_flip_fuzz(self, keys):
        tx = make_send(keys[2], amount=17)
        wire = codec.encode_tx(tx)
        rng = random.Random(99)
        for _ in range(100):
            pos = rng.randrange(len(wire) * 8)
            mutated = bytearray(wire)
            mutated[pos // 8] ^= 1 << (pos % 8)
            try:
                cand = codec.decode_tx(bytes(mutated))
            except Exception:
                continue
            assert not codec.verify_tx(cand)

    def test_high_s_rejected(self, keys):
        tx = make_send(keys[3])
        r = tx.signature[:32]
        s = int.from_bytes(tx.signature[32:], "big")
        high = (codec.CURVE_ORDER - s).to_bytes(32, "big")
        assert not codec.verify_tx(dataclasses.replace(
            tx, signature=r + high))

    def test_high_s_twin_is_p256_valid_but_refused(self, keys):
        """(r, n - s) verifies under plain P-256 ECDSA, so CURVE_ORDER is
        the curve's order n; verify_tx still refuses it as high-s."""
        tx = make_send(keys[3])
        r = int.from_bytes(tx.signature[:32], "big")
        s = int.from_bytes(tx.signature[32:], "big")
        high = codec.CURVE_ORDER - s
        pub = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(),
                                                           tx.public_key)
        pub.verify(encode_dss_signature(r, high), codec.tx_preimage(tx),
                   ec.ECDSA(hashes.SHA256()))
        assert not codec.verify_tx(dataclasses.replace(
            tx, signature=tx.signature[:32] + high.to_bytes(32, "big")))

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
        pre = codec.tx_preimage(tx)
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
        tx = dataclasses.replace(
            tx, tx_hash=codec.sha256(pre), public_key=public,
            signature=r.to_bytes(32, "big") + s.to_bytes(32, "big"))
        assert codec.verify_tx(tx) is False

    def test_coinbase_claim_by_claimant(self, keys):
        from conftest import make_coinbase_claim
        tx = make_coinbase_claim(keys[4], NULL_HASH, 1, b"\xaa" * 32, 50)
        assert tx.is_coinbase
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
        copy = SendTx(**{f.name: bytes(bytearray(v))
                         if isinstance(v, bytes) else v
                         for f in dataclasses.fields(tx)
                         for v in [getattr(tx, f.name)]})
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
        changed = dataclasses.replace(tx, **{name: value})
        checked = self.counted(monkeypatch)
        assert codec.verify_tx(changed) is False
        assert checked == [changed]

    @pytest.mark.parametrize("flip", [0, 1])
    def test_unhashable_tx_gets_uncached_verdict(self, keys, monkeypatch,
                                                 flip):
        tx = make_send(keys[7], amount=5)
        sig = bytearray(tx.signature)
        sig[-1] ^= flip
        odd = dataclasses.replace(tx, signature=sig)
        with pytest.raises(TypeError):
            hash(odd)
        size = len(codec._verify_cache)
        checked = self.counted(monkeypatch)
        assert codec.verify_tx(odd) is codec.verify_tx(odd) is (flip == 0)
        assert len(checked) == 2 and len(codec._verify_cache) == size

    @pytest.mark.parametrize("name, value", [
        ("public_key", b"\x02" * 32), ("public_key", "k" * 33),
        ("signature", 7), ("height", -1)],
        ids=["short-key", "str-key", "int-signature", "negative-height"])
    def test_malformed_field_is_false(self, keys, name, value):
        tx = dataclasses.replace(make_send(keys[8]), **{name: value})
        assert codec.verify_tx(tx) is False
