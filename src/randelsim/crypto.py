"""Key hierarchy, authentication vectors, and identity concealment.

All derivations are modeled with one keyed pseudorandom function using
string labels for domain separation: HMAC-SHA256 (RFC 2104), computed
directly over ``hashlib.sha256`` rather than through the ``hmac`` module's
per-call objects. The root secret K lives only in SubscriberRecord (home
network) and UsimState (device); every serving-network key derives from its
parent plus public context, so a holder of an anchor key can produce the
session keys without ever seeing K.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass
from functools import cached_property

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

    def __post_init__(self):
        if len(self.value) != KEY_LEN:
            raise ValueError("root secret must be 256 bits")

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


@dataclass(frozen=True)
class Autn:
    """Network authentication token: counter plus MAC over (counter, nonce)."""

    sqn: int
    mac: bytes


@dataclass(frozen=True)
class AuthenticationVector:
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
        return derive_key(self.k_seaf, "AMF", self.cached_id)

    @cached_property
    def k_nas(self) -> bytes:
        return derive_key(self.k_amf, "NAS", self.cached_id)

    @cached_property
    def k_up(self) -> bytes:
        return derive_key(self.k_seaf, "UP", self.cached_id)

    @cached_property
    def k_rrc(self) -> bytes:
        return derive_key(self.k_seaf, "RRC", self.cached_id)


@dataclass(frozen=True)
class KeyHierarchy(SessionKeys):
    """The serving network's chain for one device: K_AUSF, K_SEAF, session keys."""

    k_ausf: bytes
    serving_network: str


@dataclass(frozen=True, slots=True)
class UeIdentity:
    supi: str
    suci: str
    cached_id: bytes  # SHA-256 of the concealed identifier


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


def derive_key(parent: bytes, label: str, context: bytes = b"") -> bytes:
    return prf(parent, label, context)


# The concealment key is fixed, so its padded HMAC states are hashed once
# (RFC 2104 section 4); the inner one has also taken the "SUCI" label.
_CONCEAL_INNER = _sha256(_CONCEAL_KEY.ljust(_BLOCK, b"\x00").translate(_IPAD)
                         + b"SUCI\x00")
_CONCEAL_OUTER = _sha256(_CONCEAL_KEY.ljust(_BLOCK, b"\x00").translate(_OPAD))


def conceal_identity(supi: str) -> UeIdentity:
    """Model SUCI as a keyed transform of SUPI; cache key is SHA-256(SUCI).

    The transform is ``prf(_CONCEAL_KEY, "SUCI", supi)``, resumed from the
    precomputed pad states above.
    """
    if not supi:
        raise ValueError("supi must be nonempty")
    inner = _CONCEAL_INNER.copy()
    inner.update(supi.encode())
    outer = _CONCEAL_OUTER.copy()
    outer.update(inner.digest())
    suci = "suci-" + outer.hexdigest()[:32]
    cached_id = _sha256(suci.encode()).digest()
    return UeIdentity(supi=supi, suci=suci, cached_id=cached_id)


def _mac_over(k: bytes, sqn: int, rand: bytes) -> bytes:
    return prf(k, "MAC", sqn.to_bytes(8, "big") + rand)


def _response(k: bytes, rand: bytes) -> bytes:
    return prf(k, "RES", rand)


def generate_av(root: RootSecret, sequence: SequenceState, serving_network: str,
                rng: random.Random) -> AuthenticationVector:
    """Produce a fresh vector bound to the serving network; bumps the counter."""
    if not serving_network:
        raise ValueError("serving_network must be nonempty")
    rand = rng.randbytes(RAND_LEN)
    sequence.sqn_network += 1
    sqn = sequence.sqn_network
    autn = Autn(sqn=sqn, mac=_mac_over(root.value, sqn, rand))
    xres = _response(root.value, rand)
    k_ausf = derive_key(root.value, "AUSF", serving_network.encode() + rand)
    return AuthenticationVector(rand=rand, autn=autn, xres=xres, k_derived=k_ausf)


def derive_k_seaf(k_ausf: bytes, serving_network: str) -> bytes:
    return derive_key(k_ausf, "SEAF", serving_network.encode())


def derive_session_keys(k_seaf: bytes, cached_id: bytes) -> SessionKeys:
    """Session keys from the anchor alone; no root secret required."""
    return SessionKeys(k_seaf=k_seaf, cached_id=cached_id)


def build_hierarchy(k_ausf: bytes, serving_network: str, cached_id: bytes) -> KeyHierarchy:
    return KeyHierarchy(k_seaf=derive_k_seaf(k_ausf, serving_network),
                        cached_id=cached_id, k_ausf=k_ausf,
                        serving_network=serving_network)


def ue_verify_and_respond(usim: UsimState, rand: bytes, autn: Autn) -> bytes:
    """Device side of the challenge: verify MAC and freshness, answer, advance.

    Raises MacFailure on a wrong key, SyncFailure on a stale (replayed) counter.
    """
    expected_mac = _mac_over(usim.k.value, autn.sqn, rand)
    if not hmac.compare_digest(expected_mac, autn.mac):
        raise MacFailure("authentication token MAC mismatch")
    if autn.sqn <= usim.sqn_ue:
        raise SyncFailure("sequence number not fresh")
    usim.sqn_ue = autn.sqn
    return _response(usim.k.value, rand)


def express_mac(k_nas: bytes, nonce: bytes) -> bytes:
    """Local re-registration proof: MAC over the nonce under K_NAS."""
    return prf(k_nas, "EXPRESS-RESP", nonce)


def express_response_mac(k_seaf: bytes, cached_id: bytes, nonce: bytes) -> bytes:
    """``express_mac`` under the K_NAS derived from the anchor."""
    return express_mac(derive_session_keys(k_seaf, cached_id).k_nas, nonce)
