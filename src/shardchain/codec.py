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
from enum import IntEnum
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple, Union

from cryptography.exceptions import InvalidSignature as _CryptoBadSig
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    decode_dss_signature,
    encode_dss_signature,
)

from .errors import DecodeError, InvalidSeed, InvalidSignature, \
    KeyMismatch, MalformedEnvelope

HASH_LEN = 32
ADDR_LEN = 20
PUBKEY_LEN = 33
SIG_LEN = 64

NULL_HASH = b"\x00" * HASH_LEN
NULL_ADDRESS = b"\x00" * ADDR_LEN
# An unsigned tx carries the null key and the null signature: the signed
# tx above it in its batch authenticates it through its parent hash.
NULL_KEY = b"\x00" * PUBKEY_LEN
NULL_SIG = b"\x00" * SIG_LEN

TAG_SEND = 0x01
TAG_RECEIVE = 0x02

# The one signature curve: NIST P-256 (secp256r1, FIPS 186-4), and its
# group order n, used for seed validation and low-s normalization.
CURVE = ec.SECP256R1()
CURVE_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
# The one signature algorithm, ECDSA over SHA-256: an immutable object
# that signing and verification share instead of building one per call.
# Both pass it the SHA-256 of the preimage, which is the tx_hash too, so
# the preimage is hashed once.
_ECDSA = ec.ECDSA(Prehashed(hashes.SHA256()))

# Signing preimage: tag byte plus every field except tx_hash, public_key
# and signature, in table order.
_SEND_PREIMAGE = struct.Struct(">B32sQ20s20sQQ")
_RECV_PREIMAGE = struct.Struct(">B32sQ20s20s32s32sQQ")
# Wire layout: tag, tx_hash, preimage body, public_key, signature.
_SEND_WIRE = struct.Struct(">B32s32sQ20s20sQQ33s64s")
_RECV_WIRE = struct.Struct(">B32s32sQ20s20s32s32sQQ33s64s")

SEND_WIRE_LEN = _SEND_WIRE.size
RECV_WIRE_LEN = _RECV_WIRE.size


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def sha256d(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def address_from_public(public: bytes) -> bytes:
    """Last 20 bytes of SHA-256 over the 33-byte compressed public key."""
    if len(public) != PUBKEY_LEN:
        raise ValueError("public key must be 33 compressed bytes")
    return sha256(public)[-ADDR_LEN:]


_set = object.__setattr__


class Frozen:
    """Base of the slotted value classes. A subclass names in ``_fields``
    the fields that its equality, hash, repr and ``_replace`` read, and
    its constructor writes each slot once, through ``object.__setattr__``
    or the slot's descriptor; any later write raises AttributeError.
    Defining a subclass generates and compiles no code."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an immutable %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of an immutable %s"
                             % (name, type(self).__name__))

    def _replace(self, **changes):
        """A new object with ``changes`` over these ``_fields``, for a
        class whose constructor takes exactly its ``_fields``."""
        return type(self)(**{name: changes.pop(name, getattr(self, name))
                             for name in self._fields}, **changes)


class KeyPair(Frozen):
    """A secret scalar (32 bytes, big-endian) and its compressed public
    point (33 bytes). Equal keypairs have equal secret and public; the
    key object keygen derives from ``secret`` is kept for signing and
    left out of equality."""

    __slots__ = ("secret", "public", "signing_key")
    _fields = ("secret", "public")

    def __init__(self, secret: bytes, public: bytes,
                 signing_key: ec.EllipticCurvePrivateKey):
        _set(self, "secret", secret)
        _set(self, "public", public)
        _set(self, "signing_key", signing_key)

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


# Txs are NamedTuples, so their hash and equality run in C, and
# decode_txs builds them with tuple.__new__ over their fields, without a
# Python call. The preimage fields lead, in preimage order.
class SendTx(NamedTuple):
    parent_hash: bytes
    height: int
    current_address: bytes
    recipient_address: bytes
    amount: int
    timestamp: int
    tx_hash: bytes = NULL_HASH
    public_key: bytes = NULL_KEY
    signature: bytes = NULL_SIG


class ReceiveTx(NamedTuple):
    parent_hash: bytes
    height: int
    current_address: bytes
    sender_address: bytes
    sender_tx_hash: bytes
    main_block_hash: bytes
    amount: int
    timestamp: int
    tx_hash: bytes = NULL_HASH
    public_key: bytes = NULL_KEY
    signature: bytes = NULL_SIG


SubchainTx = Union[SendTx, ReceiveTx]
_TX_TYPES = (SendTx, ReceiveTx)
_new = tuple.__new__


def tx_preimage(tx: SubchainTx) -> bytes:
    """Bytes that tx_hash and the signature commit to."""
    if isinstance(tx, SendTx):
        return _SEND_PREIMAGE.pack(TAG_SEND, *tx[:6])
    return _RECV_PREIMAGE.pack(TAG_RECEIVE, *tx[:8])


# Each bytes field and its wire width. ``struct`` pads a short value and
# truncates a long one, so a tx whose fields are not exactly these widths
# would hash and sign other bytes than it holds.
_SEND_FIELDS = attrgetter("parent_hash", "current_address",
                          "recipient_address", "tx_hash", "public_key",
                          "signature")
_SEND_WIDTHS = (HASH_LEN, ADDR_LEN, ADDR_LEN, HASH_LEN, PUBKEY_LEN, SIG_LEN)
_RECV_FIELDS = attrgetter("parent_hash", "current_address", "sender_address",
                          "sender_tx_hash", "main_block_hash", "tx_hash",
                          "public_key", "signature")
_RECV_WIDTHS = (HASH_LEN, ADDR_LEN, ADDR_LEN, HASH_LEN, HASH_LEN, HASH_LEN,
                PUBKEY_LEN, SIG_LEN)


def _wire_exact(tx: SubchainTx) -> bool:
    """Whether every bytes field of ``tx`` has its wire width; raises
    TypeError for one that is not bytes-like."""
    if isinstance(tx, SendTx):
        fields, widths = _SEND_FIELDS(tx), _SEND_WIDTHS
    else:
        fields, widths = _RECV_FIELDS(tx), _RECV_WIDTHS
    b"".join(fields)        # the type check: join takes only bytes-likes
    return tuple(map(len, fields)) == widths


def encode_tx(tx: SubchainTx) -> bytes:
    pre = tx_preimage(tx)
    # Wire layout: tag, tx_hash, preimage body, public_key, signature.
    return pre[:1] + tx.tx_hash + pre[1:] + tx.public_key + tx.signature


def decode_tx(data: bytes) -> SubchainTx:
    return decode_txs(data, 0, 1)[0]


def decode_txs(data: bytes, offset: int, count: int,
               address: bytes = NULL_ADDRESS) -> tuple:
    """The ``count`` txs packed back to back in ``data`` from ``offset``,
    which they must fill exactly, each unpacked in place. Where equal, a
    tx holds ``address`` as its current address, the previous tx's hash
    (``NULL_HASH`` for the first) as its parent, ``NULL_KEY`` and
    ``NULL_SIG``: a batch holds each repeated field once."""
    txs, parent, size = [], NULL_HASH, len(data)
    for _ in range(count):
        tag = data[offset] if offset < size else None
        # a branch per layout: a shared one over a field list is slower
        if tag == TAG_SEND:
            end = offset + SEND_WIRE_LEN
            if end > size:
                raise DecodeError("SendTx cut short at byte %d" % size)
            (_, tx_hash, first, height, cur, rcpt, amount, ts, public,
             sig) = _SEND_WIRE.unpack_from(data, offset)
            txs.append(_new(SendTx, (
                parent if first == parent else first, height,
                address if cur == address else cur, rcpt, amount, ts,
                tx_hash, NULL_KEY if public == NULL_KEY else public,
                NULL_SIG if sig == NULL_SIG else sig)))
        elif tag == TAG_RECEIVE:
            end = offset + RECV_WIRE_LEN
            if end > size:
                raise DecodeError("ReceiveTx cut short at byte %d" % size)
            (_, tx_hash, first, height, cur, sender, sender_tx, block_hash,
             amount, ts, public, sig) = _RECV_WIRE.unpack_from(data, offset)
            txs.append(_new(ReceiveTx, (
                parent if first == parent else first, height,
                address if cur == address else cur, sender, sender_tx,
                block_hash, amount, ts, tx_hash,
                NULL_KEY if public == NULL_KEY else public,
                NULL_SIG if sig == NULL_SIG else sig)))
        else:
            raise DecodeError("no known tx tag at byte %d" % offset)
        parent, offset = tx_hash, end
    if offset != size:
        raise DecodeError("%d bytes after the transactions" % (size - offset))
    return tuple(txs)


@lru_cache(maxsize=65536)
def _public_key(public: bytes):
    return ec.EllipticCurvePublicKey.from_encoded_point(CURVE, public)


def _compact_signature(der: bytes) -> bytes:
    r, s = decode_dss_signature(der)
    if s > CURVE_ORDER // 2:
        s = CURVE_ORDER - s
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def _exact_preimage(tx: SubchainTx) -> bytes:
    """The preimage of a tx whose every field has its wire type, width and
    range; InvalidSignature for any other: it has no wire form to hash or
    sign."""
    try:
        if _wire_exact(tx):
            return tx_preimage(tx)
    except (struct.error, TypeError):
        pass
    raise InvalidSignature("a field is not of its wire type and width")


def hash_tx(tx: SubchainTx) -> SubchainTx:
    """Fill tx_hash only: an unsigned tx, which the signed tx above it in
    its batch authenticates (``verify_txs``). A tx with a field off its
    wire type, width or range is refused with InvalidSignature."""
    return tx._replace(tx_hash=sha256(_exact_preimage(tx)))


def sign_tx(tx: SubchainTx, key: KeyPair) -> SubchainTx:
    """Fill tx_hash, public_key and signature; key must own current_address.

    A tx with a field off its wire type, width or range is refused first,
    with InvalidSignature: it has no wire form to sign."""
    pre = _exact_preimage(tx)
    if key.address != tx.current_address:
        raise KeyMismatch("key does not control the subchain address")
    digest = sha256(pre)
    der = key.signing_key.sign(digest, _ECDSA)
    return tx._replace(tx_hash=digest, public_key=key.public,
                       signature=_compact_signature(der))


# Verification results memoized on the transaction tuple itself, behind
# the type check: tuple equality ignores the type, so only a SendTx or a
# ReceiveTx may read it. A tx equals another exactly when every field
# does, and its hash and equality run in C, so every node/miner re-check
# of the same transaction is free without re-encoding it. A transaction
# with an unhashable field is checked, never cached.
_verify_cache: dict[SubchainTx, bool] = {}
_VERIFY_CACHE_MAX = 1 << 18


def verify_tx(tx: SubchainTx) -> bool:
    """Local check only: hash matches preimage, signature matches address."""
    if type(tx) not in _TX_TYPES:
        return False
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
        if not _wire_exact(tx):
            return False
        digest = sha256(tx_preimage(tx))
        if tx.tx_hash != digest:
            return False
        if address_from_public(tx.public_key) != tx.current_address:
            return False
        r = int.from_bytes(tx.signature[:32], "big")
        s = int.from_bytes(tx.signature[32:], "big")
    except (struct.error, TypeError):
        return False        # a field of the wrong type or range
    if not (0 < r < CURVE_ORDER and 0 < s <= CURVE_ORDER // 2):
        return False
    try:
        pub = _public_key(tx.public_key)
        pub.verify(encode_dss_signature(r, s), digest, _ECDSA)
    except (_CryptoBadSig, ValueError):
        return False
    return True


_NULL_AUTH = (NULL_KEY, NULL_SIG)


def unsigned(tx) -> bool:
    """Whether ``tx`` is a tx with the null key and the null signature."""
    return type(tx) in _TX_TYPES and tx[-2:] == _NULL_AUTH


def vouched(tx: SubchainTx, child) -> bool:
    """Whether ``tx`` matches its hash and is the parent of ``child`` on
    the same account: an authentic ``child`` then commits to every field
    of ``tx`` through its parent hash, as a signed tree head commits to
    its log (RFC 6962)."""
    try:
        return (type(child) in _TX_TYPES and _wire_exact(tx)
                and tx.tx_hash == sha256(tx_preimage(tx))
                and child.parent_hash == tx.tx_hash
                and child.current_address == tx.current_address)
    except (struct.error, TypeError):
        return False        # a field of the wrong type or range


def verify_txs(txs) -> bool:
    """Whether one account's consecutive txs are authentic: each signed tx
    passes ``verify_tx``, each unsigned tx is ``vouched`` for by the next
    tx, and the last tx is signed. One signature thus authenticates a
    whole batch."""
    for tx, child in zip(txs, txs[1:]):
        if not (vouched(tx, child) if unsigned(tx) else verify_tx(tx)):
            return False
    return not txs or verify_tx(txs[-1])


class MsgKind(IntEnum):
    NewTx = 1
    NewBlock = 2
    FragmentRequest = 3
    FragmentResponse = 4
    Hello = 5


# the member of each kind byte, None for a byte that names none
_KIND_OF = tuple(map({kind.value: kind for kind in MsgKind}.get, range(256)))
ENVELOPE = struct.Struct(">IB32s")    # payload length, kind, msg_id
ENVELOPE_HEADER = ENVELOPE.size       # 37


class Envelope(Frozen):
    """A message: its kind, its payload and ``msg_id``, the digest of kind
    and payload, computed once: the flood router reads it on every
    receipt."""

    __slots__ = ("kind", "payload", "msg_id")
    _fields = ("kind", "payload")

    def __init__(self, kind: MsgKind, payload: bytes):
        # any other kind or payload type has no frame that decodes to it
        if type(kind) is not MsgKind or type(payload) is not bytes:
            raise MalformedEnvelope("an envelope takes a MsgKind and bytes, "
                                    "not %s and %s" % (type(kind).__name__,
                                                       type(payload).__name__))
        _set_kind(self, kind)
        _set_payload(self, payload)
        _set_msg_id(self, sha256(bytes((kind,)) + payload))

    def encode(self) -> bytes:
        # 4-byte length, 1-byte kind, 32-byte msg_id, payload
        return ENVELOPE.pack(len(self.payload), self.kind,
                             self.msg_id) + self.payload


# each slot is written once, through its descriptor: Frozen.__setattr__
# refuses every write
_set_kind, _set_payload, _set_msg_id = (
    Envelope.kind.__set__, Envelope.payload.__set__, Envelope.msg_id.__set__)


def envelope_of(kind: int, payload: bytes, msg_id: bytes) -> Envelope:
    """The envelope of a frame's kind byte, payload and msg_id; DecodeError
    for an unknown kind or a msg_id that is not the digest of kind and
    payload."""
    member = _KIND_OF[kind]
    if member is None:
        raise DecodeError("unknown message kind %d" % kind)
    env = Envelope(member, payload)
    if env.msg_id != msg_id:
        raise DecodeError("envelope msg_id does not match payload")
    return env

