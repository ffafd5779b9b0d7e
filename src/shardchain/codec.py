"""Domain primitives, canonical byte encodings and message envelopes.

Every hash and signature in the system is computed over the fixed-width
big-endian layouts defined here, so two processes always agree bit-exactly
on transaction identity. See docs/wire-format.md for the layout reference
and pinned vectors.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import lru_cache
from typing import Union

from cryptography.exceptions import InvalidSignature as _CryptoBadSig
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)

from .errors import DecodeError, InvalidSeed, KeyMismatch

HASH_LEN = 32
ADDR_LEN = 20
PUBKEY_LEN = 33
SIG_LEN = 64

NULL_HASH = b"\x00" * HASH_LEN
NULL_ADDRESS = b"\x00" * ADDR_LEN

TAG_SEND = 0x01
TAG_RECEIVE = 0x02

# The one signature curve: NIST P-256 (secp256r1, FIPS 186-4), and its
# group order n, used for seed validation and low-s normalization.
CURVE = ec.SECP256R1()
CURVE_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

# Signing preimage: tag byte plus every field except tx_hash, public_key
# and signature, in table order.
_SEND_PREIMAGE = struct.Struct(">B32sQ20s20sQQ")
_RECV_PREIMAGE = struct.Struct(">B32sQ20s20s32s32sQQ")

SEND_WIRE_LEN = 1 + HASH_LEN + (_SEND_PREIMAGE.size - 1) + PUBKEY_LEN + SIG_LEN
RECV_WIRE_LEN = 1 + HASH_LEN + (_RECV_PREIMAGE.size - 1) + PUBKEY_LEN + SIG_LEN


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def sha256d(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def address_from_public(public: bytes) -> bytes:
    """Last 20 bytes of SHA-256 over the 33-byte compressed public key."""
    if len(public) != PUBKEY_LEN:
        raise ValueError("public key must be 33 compressed bytes")
    return sha256(public)[-ADDR_LEN:]


@dataclass(frozen=True)
class KeyPair:
    secret: bytes   # 32-byte scalar, big-endian
    public: bytes   # 33-byte compressed point
    # the key object keygen derives from ``secret``, kept for signing
    signing_key: ec.EllipticCurvePrivateKey = field(compare=False,
                                                    repr=False)

    @property
    def address(self) -> bytes:
        return address_from_public(self.public)


def keygen(seed: bytes | None = None) -> KeyPair:
    """Derive a P-256 keypair, deterministically when seeded."""
    if seed is None:
        seed = os.urandom(32)
        while not 0 < int.from_bytes(seed, "big") < CURVE_ORDER:
            seed = os.urandom(32)
    if len(seed) != 32:
        raise InvalidSeed("seed must be exactly 32 bytes")
    scalar = int.from_bytes(seed, "big")
    if not 0 < scalar < CURVE_ORDER:
        raise InvalidSeed("seed is not a valid nonzero scalar")
    priv = ec.derive_private_key(scalar, CURVE)
    # SEC1 compressed point: 0x02 or 0x03 for the parity of y, then x
    point = priv.public_key().public_numbers()
    public = bytes([2 | (point.y & 1)]) + point.x.to_bytes(32, "big")
    return KeyPair(secret=seed, public=public, signing_key=priv)


@dataclass(frozen=True, slots=True)
class SendTx:
    parent_hash: bytes
    height: int
    current_address: bytes
    recipient_address: bytes
    amount: int
    timestamp: int
    tx_hash: bytes = NULL_HASH
    public_key: bytes = b"\x00" * PUBKEY_LEN
    signature: bytes = b"\x00" * SIG_LEN


@dataclass(frozen=True, slots=True)
class ReceiveTx:
    parent_hash: bytes
    height: int
    current_address: bytes
    sender_address: bytes
    sender_tx_hash: bytes
    main_block_hash: bytes
    amount: int
    timestamp: int
    tx_hash: bytes = NULL_HASH
    public_key: bytes = b"\x00" * PUBKEY_LEN
    signature: bytes = b"\x00" * SIG_LEN

    @property
    def is_coinbase(self) -> bool:
        return (self.sender_address == NULL_ADDRESS
                and self.sender_tx_hash == NULL_HASH)


SubchainTx = Union[SendTx, ReceiveTx]


def tx_preimage(tx: SubchainTx) -> bytes:
    """Bytes that tx_hash and the signature commit to."""
    if isinstance(tx, SendTx):
        return _SEND_PREIMAGE.pack(
            TAG_SEND, tx.parent_hash, tx.height, tx.current_address,
            tx.recipient_address, tx.amount, tx.timestamp,
        )
    return _RECV_PREIMAGE.pack(
        TAG_RECEIVE, tx.parent_hash, tx.height, tx.current_address,
        tx.sender_address, tx.sender_tx_hash, tx.main_block_hash,
        tx.amount, tx.timestamp,
    )


def tx_digest(tx: SubchainTx) -> bytes:
    return sha256(tx_preimage(tx))


def encode_tx(tx: SubchainTx) -> bytes:
    pre = tx_preimage(tx)
    # Wire layout: tag, tx_hash, preimage body, public_key, signature.
    return pre[:1] + tx.tx_hash + pre[1:] + tx.public_key + tx.signature


def decode_tx(data: bytes) -> SubchainTx:
    if not data:
        raise DecodeError("empty transaction bytes")
    tag = data[0]
    if tag == TAG_SEND:
        if len(data) != SEND_WIRE_LEN:
            raise DecodeError("bad SendTx length %d" % len(data))
        tx_hash = data[1:33]
        body = data[:1] + data[33:33 + _SEND_PREIMAGE.size - 1]
        _, parent, height, cur, rcpt, amount, ts = _SEND_PREIMAGE.unpack(body)
        rest = data[33 + _SEND_PREIMAGE.size - 1:]
        return SendTx(parent_hash=parent, height=height, current_address=cur,
                      recipient_address=rcpt, amount=amount, timestamp=ts,
                      tx_hash=tx_hash, public_key=rest[:PUBKEY_LEN],
                      signature=rest[PUBKEY_LEN:])
    if tag == TAG_RECEIVE:
        if len(data) != RECV_WIRE_LEN:
            raise DecodeError("bad ReceiveTx length %d" % len(data))
        tx_hash = data[1:33]
        body = data[:1] + data[33:33 + _RECV_PREIMAGE.size - 1]
        (_, parent, height, cur, sender, sender_tx, block_hash,
         amount, ts) = _RECV_PREIMAGE.unpack(body)
        rest = data[33 + _RECV_PREIMAGE.size - 1:]
        return ReceiveTx(parent_hash=parent, height=height,
                         current_address=cur, sender_address=sender,
                         sender_tx_hash=sender_tx, main_block_hash=block_hash,
                         amount=amount, timestamp=ts, tx_hash=tx_hash,
                         public_key=rest[:PUBKEY_LEN],
                         signature=rest[PUBKEY_LEN:])
    raise DecodeError("unknown transaction tag 0x%02x" % tag)


@lru_cache(maxsize=65536)
def _public_key(public: bytes):
    return ec.EllipticCurvePublicKey.from_encoded_point(CURVE, public)


def _compact_signature(der: bytes) -> bytes:
    r, s = decode_dss_signature(der)
    if s > CURVE_ORDER // 2:
        s = CURVE_ORDER - s
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def sign_tx(tx: SubchainTx, key: KeyPair) -> SubchainTx:
    """Fill tx_hash, public_key and signature; key must own current_address."""
    if key.address != tx.current_address:
        raise KeyMismatch("key does not control the subchain address")
    pre = tx_preimage(tx)
    der = key.signing_key.sign(pre, ec.ECDSA(hashes.SHA256()))
    return replace(tx, tx_hash=sha256(pre), public_key=key.public,
                   signature=_compact_signature(der))


# Verification results memoized on the transaction itself: it is frozen
# and hashable, and equals another exactly when every field does, so every
# node/miner re-check of the same transaction is free without re-encoding
# it. A transaction with an unhashable field is checked, never cached.
_verify_cache: dict[SubchainTx, bool] = {}
_VERIFY_CACHE_MAX = 1 << 18


def verify_tx(tx: SubchainTx) -> bool:
    """Local check only: hash matches preimage, signature matches address."""
    try:
        cached = _verify_cache.get(tx)
    except TypeError:
        return _verify_uncached(tx)
    if cached is None:
        cached = _verify_uncached(tx)
        if len(_verify_cache) < _VERIFY_CACHE_MAX:
            _verify_cache[tx] = cached
    return cached


def _verify_uncached(tx: SubchainTx) -> bool:
    try:
        pre = tx_preimage(tx)
        if tx.tx_hash != sha256(pre):
            return False
        if address_from_public(tx.public_key) != tx.current_address:
            return False
        if len(tx.signature) != SIG_LEN:
            return False
        r = int.from_bytes(tx.signature[:32], "big")
        s = int.from_bytes(tx.signature[32:], "big")
    except (struct.error, TypeError, ValueError):
        return False        # a field of the wrong type or size
    if not (0 < r < CURVE_ORDER and 0 < s <= CURVE_ORDER // 2):
        return False
    try:
        pub = _public_key(tx.public_key)
        pub.verify(encode_dss_signature(r, s), pre, ec.ECDSA(hashes.SHA256()))
    except (_CryptoBadSig, ValueError):
        return False
    return True


class MsgKind(IntEnum):
    NewTx = 1
    NewBlock = 2
    FragmentRequest = 3
    FragmentResponse = 4
    Hello = 5


_ENVELOPE = struct.Struct(">IB32s")   # payload length, kind, msg_id
ENVELOPE_HEADER = _ENVELOPE.size      # 37


@dataclass(frozen=True)
class Envelope:
    kind: MsgKind
    payload: bytes
    # digest of kind and payload, computed once: the flood router reads
    # it on every receipt
    msg_id: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "msg_id",
                           sha256(bytes([self.kind]) + self.payload))

    def encode(self) -> bytes:
        # 4-byte length, 1-byte kind, 32-byte msg_id, payload
        return _ENVELOPE.pack(len(self.payload), self.kind,
                              self.msg_id) + self.payload


def decode_envelope(data: bytes) -> Envelope:
    if len(data) < ENVELOPE_HEADER:
        raise DecodeError("envelope shorter than its %d-byte header"
                          % ENVELOPE_HEADER)
    length, kind, msg_id = _ENVELOPE.unpack_from(data, 0)
    if len(data) != ENVELOPE_HEADER + length:
        raise DecodeError("envelope of a %d-byte payload must be %d bytes, "
                          "got %d" % (length, ENVELOPE_HEADER + length,
                                      len(data)))
    try:
        kind = MsgKind(kind)
    except ValueError:
        raise DecodeError("unknown message kind %d" % kind) from None
    env = Envelope(kind=kind, payload=bytes(data[ENVELOPE_HEADER:]))
    if env.msg_id != msg_id:
        raise DecodeError("envelope msg_id does not match payload")
    return env
