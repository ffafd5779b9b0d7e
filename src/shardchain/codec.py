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
from typing import List, NamedTuple, Union

from cryptography.exceptions import InvalidSignature as _CryptoBadSig
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    decode_dss_signature,
    encode_dss_signature,
)

from .errors import DecodeError, InvalidSeed, InvalidSignature, \
    KeyMismatch, MalformedBatch, MalformedEnvelope

HASH_LEN = 32
ADDR_LEN = 20
PUBKEY_LEN = 33
SIG_LEN = 64
# the bytes a signed tx carries that an unsigned one leaves out
AUTH_LEN = PUBKEY_LEN + SIG_LEN

NULL_HASH = b"\x00" * HASH_LEN
NULL_ADDRESS = b"\x00" * ADDR_LEN
# An unsigned tx carries the null key and the null signature: the signed
# tx above it in its batch authenticates it through its parent hash.
NULL_KEY = b"\x00" * PUBKEY_LEN
NULL_SIG = b"\x00" * SIG_LEN
_NULL_AUTH = (NULL_KEY, NULL_SIG)

TAG_SEND = 0x01
TAG_RECEIVE = 0x02
# the wire tags of an unsigned tx, which leaves out the null key and the
# null signature; its preimage keeps the tag above
TAG_SEND_UNSIGNED = 0x03
TAG_RECEIVE_UNSIGNED = 0x04

# The one signature curve: NIST P-256 (secp256r1, FIPS 186-4), and its
# group order n, used for seed validation and low-s normalization.
CURVE = ec.SECP256R1()
CURVE_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
# The one signature algorithm, ECDSA over SHA-256: an immutable object
# that signing and verification share instead of building one per call.
# Both pass it the SHA-256 of the preimage, which is the tx_hash too, so
# the preimage is hashed once. Nonces are RFC 6979's, so a key signs a tx
# to the same bytes every time.
_ECDSA = ec.ECDSA(Prehashed(hashes.SHA256()), deterministic_signing=True)

# Signing preimage: tag byte plus every field except tx_hash, public_key
# and signature, in table order.
_SEND_PREIMAGE = struct.Struct(">B32sQ20s20sQQ")
_RECV_PREIMAGE = struct.Struct(">B32sQ20s20s32s32sQQ")
# Wire layout: tag, tx_hash, preimage body (an unsigned tx's whole
# encoding), then a signed tx's public_key and signature.
_SEND_WIRE = struct.Struct(">B32s32sQ20s20sQQ")
_RECV_WIRE = struct.Struct(">B32s32sQ20s20s32s32sQQ")
_AUTH = struct.Struct(">33s64s")
# A whole tx in field order: preimage, tx_hash, public_key, signature.
_SEND_TX = struct.Struct(_SEND_PREIMAGE.format + "32s33s64s")
_RECV_TX = struct.Struct(_RECV_PREIMAGE.format + "32s33s64s")

UNSIGNED_SEND_WIRE_LEN = _SEND_WIRE.size          # 129
UNSIGNED_RECV_WIRE_LEN = _RECV_WIRE.size          # 193
SEND_WIRE_LEN = UNSIGNED_SEND_WIRE_LEN + AUTH_LEN  # 226
RECV_WIRE_LEN = UNSIGNED_RECV_WIRE_LEN + AUTH_LEN  # 290


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
    """Base of the slotted value classes with derived or cached state. A
    subclass names in ``_fields`` the fields that its equality, hash and
    repr read, and its constructor writes each slot once, through
    ``object.__setattr__`` or the slot's descriptor; any later write
    raises AttributeError. Defining a subclass compiles no code."""

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


def encode_tx(tx: SubchainTx) -> bytes:
    """The wire bytes of ``tx``: tag, tx_hash, preimage body, then the key
    and signature of a signed tx; an unsigned tx, with the null key and
    the null signature, has its own tag and leaves both out. A tx with a
    field off its wire type, width or range is refused with
    MalformedBatch: it has no wire form."""
    pre = _exact_preimage(tx, MalformedBatch)
    if tx[-2:] == _NULL_AUTH:
        tag = TAG_SEND_UNSIGNED if pre[0] == TAG_SEND else TAG_RECEIVE_UNSIGNED
        return bytes((tag,)) + tx.tx_hash + pre[1:]
    return pre[:1] + tx.tx_hash + pre[1:] + tx.public_key + tx.signature


def _auth(data: bytes, end: int) -> tuple:
    """The key and signature that end a signed tx at ``end``, refused when
    both are null: such a tx has the unsigned tag, so that each tx has
    one encoding."""
    auth = _AUTH.unpack_from(data, end - AUTH_LEN)
    if auth == _NULL_AUTH:
        raise DecodeError("signed tag with the null key and signature "
                          "before byte %d" % end)
    return auth


def decode_txs(data: bytes, offset: int, count: int,
               address: bytes = NULL_ADDRESS, table: dict | None = None,
               parent: bytes = NULL_HASH) -> tuple:
    """The ``count`` txs packed back to back in ``data`` from ``offset``,
    which they must fill exactly, each unpacked in place. Where equal, a
    tx holds ``address`` as its current address and the previous tx's
    hash as its parent (``parent`` for the first); an unsigned tx holds
    ``NULL_KEY`` and ``NULL_SIG``; and a recipient or sender address or a
    cited block hash is the object that ``table``, a node's one object
    per value it has decoded, holds for it, which is added when the table
    has none: a node holds each repeated field once."""
    intern = ({} if table is None else table).setdefault
    txs, size = [], len(data)
    for _ in range(count):
        tag = data[offset] if offset < size else None
        # a branch per layout: a shared one over a field list is slower
        if tag == TAG_SEND or tag == TAG_SEND_UNSIGNED:
            signed = tag == TAG_SEND
            end = offset + (SEND_WIRE_LEN if signed
                            else UNSIGNED_SEND_WIRE_LEN)
            if end > size:
                raise DecodeError("SendTx cut short at byte %d" % size)
            (_, tx_hash, first, height, cur, rcpt, amount,
             ts) = _SEND_WIRE.unpack_from(data, offset)
            public, sig = _auth(data, end) if signed else _NULL_AUTH
            txs.append(_new(SendTx, (
                parent if first == parent else first, height,
                address if cur == address else cur, intern(rcpt, rcpt),
                amount, ts, tx_hash, public, sig)))
        elif tag == TAG_RECEIVE or tag == TAG_RECEIVE_UNSIGNED:
            signed = tag == TAG_RECEIVE
            end = offset + (RECV_WIRE_LEN if signed
                            else UNSIGNED_RECV_WIRE_LEN)
            if end > size:
                raise DecodeError("ReceiveTx cut short at byte %d" % size)
            (_, tx_hash, first, height, cur, sender, sender_tx, block_hash,
             amount, ts) = _RECV_WIRE.unpack_from(data, offset)
            public, sig = _auth(data, end) if signed else _NULL_AUTH
            txs.append(_new(ReceiveTx, (
                parent if first == parent else first, height,
                address if cur == address else cur, intern(sender, sender),
                sender_tx, intern(block_hash, block_hash), amount, ts,
                tx_hash, public, sig)))
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


def packed(form: struct.Struct, fields: tuple) -> bytes | None:
    """The bytes ``form`` packs ``fields`` to when they unpack to equal
    fields, else None: struct pads a short bytes field, cuts a long one
    and refuses an int off its range or a value of another type, so only
    such fields have a wire form, and it holds what they hold."""
    try:
        data = form.pack(*fields)
    except struct.error:
        return None
    return data if form.unpack(data) == fields else None


def _exact_preimage(tx: SubchainTx, error=InvalidSignature) -> bytes | None:
    """The preimage of a SendTx or a ReceiveTx that ``packed`` packs: only
    such a tx hashes, signs and sends the bytes it holds. Any other value
    has no wire form: ``error`` is raised, or None returned when
    ``error`` is None."""
    if type(tx) is SendTx:
        whole = packed(_SEND_TX, (TAG_SEND,) + tx)
    elif type(tx) is ReceiveTx:
        whole = packed(_RECV_TX, (TAG_RECEIVE,) + tx)
    else:
        whole = None
    if whole is not None:
        return whole[:-HASH_LEN - AUTH_LEN]
    if error is None:
        return None
    raise error("not a tx whose fields have their wire type, width and range")


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
# the type checks: tuple equality ignores the type, so only a SendTx or a
# ReceiveTx whose every field is exactly bytes or int may read or write
# it. A field of another type may equal one of these (a memoryview its
# bytes, a float or a bool its int) and hash alike, so such a twin would
# read its genuine tx's verdict; it is checked, never cached. Of bytes and
# ints, a tx equals another exactly when every field does, and its hash
# and equality run in C, so every node/miner re-check of the same
# transaction is free without re-encoding it.
_verify_cache: dict[SubchainTx, bool] = {}
_VERIFY_CACHE_MAX = 1 << 18
_CACHED_TYPES = frozenset((bytes, int))


def verify_tx(tx: SubchainTx) -> bool:
    """Local check only: hash matches preimage, signature matches address."""
    if type(tx) not in _TX_TYPES:
        return False
    if not _CACHED_TYPES.issuperset(map(type, tx)):
        return _verify_uncached(tx)
    cached = _verify_cache.get(tx)
    if cached is None:
        cached = _verify_uncached(tx)
        if len(_verify_cache) < _VERIFY_CACHE_MAX:
            _verify_cache[tx] = cached
    return cached


def _verify_uncached(tx: SubchainTx) -> bool:
    pre = _exact_preimage(tx, None)
    if pre is None:
        return False
    digest = sha256(pre)
    if tx.tx_hash != digest:
        return False
    if address_from_public(tx.public_key) != tx.current_address:
        return False
    r = int.from_bytes(tx.signature[:32], "big")
    s = int.from_bytes(tx.signature[32:], "big")
    if not (0 < r < CURVE_ORDER and 0 < s <= CURVE_ORDER // 2):
        return False
    try:
        # the key cache hashes its argument, which a bytearray key is not
        pub = _public_key(bytes(tx.public_key))
        pub.verify(encode_dss_signature(r, s), digest, _ECDSA)
    except (_CryptoBadSig, ValueError):
        return False
    return True


def unsigned(tx) -> bool:
    """Whether ``tx`` is a tx with the null key and the null signature."""
    return type(tx) in _TX_TYPES and tx[-2:] == _NULL_AUTH


def vouched(tx: SubchainTx, child) -> bool:
    """Whether ``tx`` matches its hash and is the parent of ``child`` on
    the same account: an authentic ``child`` then commits to every field
    of ``tx`` through its parent hash, as a signed tree head commits to
    its log (RFC 6962)."""
    if type(child) not in _TX_TYPES:
        return False
    pre = _exact_preimage(tx, None)
    return (pre is not None and tx.tx_hash == sha256(pre)
            and child.parent_hash == tx.tx_hash
            and child.current_address == tx.current_address)


def tx_verdicts(txs, verify=verify_tx) -> List[bool]:
    """Whether each of one account's consecutive txs is authentic: a
    signed tx when it passes ``verify``, an unsigned tx when it is
    ``vouched`` for by the next tx and that tx is authentic."""
    # last first: an unsigned tx reads its child's verdict
    out = []
    child, child_ok = None, False
    for tx in reversed(txs):
        child_ok = (child_ok and vouched(tx, child)) if unsigned(tx) \
            else verify(tx)
        out.append(child_ok)
        child = tx
    out.reverse()
    return out


def verify_txs(txs) -> bool:
    """Whether every verdict of ``tx_verdicts`` holds, which needs the
    last tx signed: one signature authenticates a whole batch."""
    return all(tx_verdicts(txs))


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

