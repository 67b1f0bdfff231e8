"""Key hierarchy, authentication vectors, and identity concealment.

All derivations are modeled with one keyed pseudorandom function using
string labels for domain separation: HMAC-SHA256 (RFC 2104), computed
directly over ``hashlib.sha256`` rather than through the ``hmac`` module's
per-call objects. The root secret K lives only in SubscriberRecord (home
network) and UsimState (device); every serving-network key derives from its
parent plus public context, so a holder of an anchor key can produce the
session keys without ever seeing K.

Two long-lived keys hold their padded states in an ``HmacKey``, hashed once
(RFC 2104 section 4): the root secret K, inside its ``RootSecret`` and so only
where K is, and the per-seed master key K derives from. K_NAS holds none: it
MACs about two express challenges, and building the states costs what
resuming them saves on two calls. ``prf`` stays the generic reference.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

KEY_LEN = 32  # 256-bit keys everywhere
RAND_LEN = 16

# Fixed network-operator concealment key for the modeled SUCI transform.
_CONCEAL_KEY = hashlib.sha256(b"randelsim/suci-concealment").digest()


class MacFailure(Exception):
    """Challenge MAC did not verify under the device's root secret."""


class SyncFailure(Exception):
    """Sequence number not fresh: the challenge is stale or replayed."""


@dataclass(frozen=True, slots=True)
class RootSecret:
    """Per-subscriber symmetric root key. Must never appear in RAN-side types."""

    value: bytes
    hmac_key: HmacKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.value) != KEY_LEN:
            raise ValueError("root secret must be 256 bits")
        object.__setattr__(self, "hmac_key", HmacKey(self.value))

    def __repr__(self) -> str:  # keep key material out of logs
        return "RootSecret(<hidden>)"


@dataclass(slots=True)
class SequenceState:
    """Home-network side counter; strictly increases per generated vector."""

    sqn_network: int = 0


@dataclass(slots=True)
class UsimState:
    """Device-side credentials: root secret plus highest accepted counter."""

    k: RootSecret
    sqn_ue: int = 0


class Autn(NamedTuple):
    """Network authentication token: counter plus MAC over (counter, nonce)."""

    sqn: int
    mac: bytes


class AuthenticationVector(NamedTuple):
    rand: bytes
    autn: Autn
    xres: bytes
    k_derived: bytes  # anchor key shipped with the vector


@dataclass(frozen=True)
class SessionKeys:
    """Session keys of one device, each derived from K_SEAF on first read.

    The anchor and the device's cached id are all a holder needs: K_AMF and
    K_NAS follow the K_SEAF -> K_AMF -> K_NAS chain; K_UP and K_RRC derive
    from K_SEAF directly. ``cached_property`` writes the instance
    ``__dict__``, so each key is derived at most once per instance.
    """

    k_seaf: bytes
    cached_id: bytes

    @cached_property
    def k_amf(self) -> bytes:
        return prf(self.k_seaf, "AMF", self.cached_id)

    @cached_property
    def k_nas(self) -> bytes:
        return derive_k_nas(self.k_seaf, self.cached_id)

    @cached_property
    def k_up(self) -> bytes:
        return prf(self.k_seaf, "UP", self.cached_id)

    @cached_property
    def k_rrc(self) -> bytes:
        return prf(self.k_seaf, "RRC", self.cached_id)


@dataclass(frozen=True, slots=True)
class UeIdentity:
    """A device's permanent identifier and the id the RAN knows it by."""

    supi: str
    cached_id: bytes  # SHA-256 of the concealed identifier (SUCI)


_BLOCK = 64  # SHA-256 block size in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
_sha256 = hashlib.sha256


def prf(key: bytes, label: str, context: bytes = b"") -> bytes:
    """Keyed PRF with domain-separating label.

    HMAC-SHA256 (RFC 2104) of ``label || 0x00 || context``, computed directly
    over ``hashlib``: the same bytes as ``hmac.new(key, msg, sha256)``.
    """
    if not label:
        raise ValueError("label must be nonempty")
    if len(key) > _BLOCK:
        key = _sha256(key).digest()
    key = key.ljust(_BLOCK, b"\x00")
    inner = _sha256(key.translate(_IPAD) + label.encode() + b"\x00"
                    + context).digest()
    return _sha256(key.translate(_OPAD) + inner).digest()


class HmacKey:
    """One key's padded HMAC-SHA256 states, as secret as the key. ``prf``
    resumes copies of them: the bytes of ``prf(key, label, context)``."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        if len(key) > _BLOCK:
            key = _sha256(key).digest()
        key = key.ljust(_BLOCK, b"\x00")
        self._inner = _sha256(key.translate(_IPAD))
        self._outer = _sha256(key.translate(_OPAD))

    def prf(self, label: str, context: bytes = b"") -> bytes:
        if not label:
            raise ValueError("label must be nonempty")
        inner = self._inner.copy()
        inner.update(label.encode() + b"\x00" + context)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def derive_k_nas(k_seaf: bytes, cached_id: bytes) -> bytes:
    """K_NAS by the K_SEAF -> K_AMF -> K_NAS chain (TS 33.501 Annex A)."""
    return prf(prf(k_seaf, "AMF", cached_id), "NAS", cached_id)


# The concealment key is fixed, so its states are hashed once; the inner one
# has also taken the "SUCI" label.
_CONCEAL = HmacKey(_CONCEAL_KEY)
_CONCEAL_INNER = _CONCEAL._inner.copy()
_CONCEAL_INNER.update(b"SUCI\x00")
_CONCEAL_OUTER = _CONCEAL._outer


def conceal_identity(supi: str) -> UeIdentity:
    """Model SUCI as a keyed transform of SUPI; cache key is SHA-256(SUCI).

    The transform is ``prf(_CONCEAL_KEY, "SUCI", supi)``, resumed from the
    precomputed pad states above. The SUCI only derives the cached id: the
    core files subscribers by SUPI, as its UDM does (TS 33.501 6.12).
    """
    if not supi:
        raise ValueError("supi must be nonempty")
    inner = _CONCEAL_INNER.copy()
    inner.update(supi.encode())
    outer = _CONCEAL_OUTER.copy()
    outer.update(inner.digest())
    suci = "suci-" + outer.hexdigest()[:32]
    return UeIdentity(supi, _sha256(suci.encode()).digest())


def _mac_over(k: HmacKey, sqn: int, rand: bytes) -> bytes:
    return k.prf("MAC", sqn.to_bytes(8, "big") + rand)


def generate_av(root: RootSecret, sequence: SequenceState, serving_network: str,
                rng: random.Random) -> AuthenticationVector:
    """Produce a fresh vector bound to the serving network; bumps the counter."""
    if not serving_network:
        raise ValueError("serving_network must be nonempty")
    rand = rng.randbytes(RAND_LEN)
    sequence.sqn_network += 1
    sqn = sequence.sqn_network
    k = root.hmac_key
    autn = Autn(sqn, _mac_over(k, sqn, rand))
    k_ausf = derive_k_ausf(k, serving_network, rand)
    return AuthenticationVector(rand, autn, k.prf("RES", rand), k_ausf)


def derive_k_ausf(k: HmacKey, serving_network: str, rand: bytes) -> bytes:
    """K_AUSF under K, bound to the serving network and the challenge."""
    return k.prf("AUSF", serving_network.encode() + rand)


def derive_k_seaf(k_ausf: bytes, serving_network: str) -> bytes:
    return prf(k_ausf, "SEAF", serving_network.encode())


def build_hierarchy(k_ausf: bytes, serving_network: str,
                    cached_id: bytes) -> SessionKeys:
    """The serving network's keys below K_AUSF, which stays in the AUSF."""
    return SessionKeys(derive_k_seaf(k_ausf, serving_network), cached_id)


def ue_verify_and_respond(usim: UsimState, rand: bytes, autn: Autn) -> bytes:
    """Device side of the challenge: verify MAC and freshness, answer, advance.

    Raises MacFailure on a wrong key, SyncFailure on a stale (replayed) counter.
    """
    expected_mac = _mac_over(usim.k.hmac_key, autn.sqn, rand)
    if not hmac.compare_digest(expected_mac, autn.mac):
        raise MacFailure("authentication token MAC mismatch")
    if autn.sqn <= usim.sqn_ue:
        raise SyncFailure("sequence number not fresh")
    usim.sqn_ue = autn.sqn
    return usim.k.hmac_key.prf("RES", rand)


def express_mac(k_nas: bytes, nonce: bytes) -> bytes:
    """Local re-registration proof: MAC over the nonce under K_NAS."""
    return prf(k_nas, "EXPRESS-RESP", nonce)


def express_response_mac(k_seaf: bytes, cached_id: bytes, nonce: bytes) -> bytes:
    """``express_mac`` under the K_NAS derived from the anchor."""
    return express_mac(derive_k_nas(k_seaf, cached_id), nonce)
