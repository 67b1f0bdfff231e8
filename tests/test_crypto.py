import hashlib
import hmac
import random
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from randelsim import crypto
from randelsim.crypto import (RootSecret, SequenceState, UsimState,
                              MacFailure, SyncFailure)

VECTORS = Path(__file__).parent / "data" / "kdf_vectors.txt"


def make_usim(k: bytes = b"\x07" * 32) -> UsimState:
    return UsimState(k=RootSecret(k))


class TestDeriveKey:
    def test_deterministic(self):
        a = crypto.prf(b"\x01" * 32, "AUSF", b"ctx")
        b = crypto.prf(b"\x01" * 32, "AUSF", b"ctx")
        assert a == b

    def test_labels_separate_domains(self):
        parent = b"\x02" * 32
        assert crypto.prf(parent, "AUSF") != crypto.prf(parent, "SEAF")

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            crypto.prf(b"\x00" * 32, "")

    def test_golden_vectors(self):
        for line in VECTORS.read_text().splitlines():
            if not line or line.startswith("#"):
                continue
            label, parent_hex, ctx_hex, expected_hex = line.split()
            ctx = b"" if ctx_hex == "-" else bytes.fromhex(ctx_hex)
            got = crypto.prf(bytes.fromhex(parent_hex), label, ctx)
            assert got.hex() == expected_hex, label

    def test_golden_vectors_through_hmac_key(self):
        for line in VECTORS.read_text().splitlines():
            if not line or line.startswith("#"):
                continue
            label, parent_hex, ctx_hex, expected_hex = line.split()
            ctx = b"" if ctx_hex == "-" else bytes.fromhex(ctx_hex)
            got = crypto.HmacKey(bytes.fromhex(parent_hex)).prf(label, ctx)
            assert got.hex() == expected_hex, label


class TestGenerateAv:
    def test_sequence_strictly_increases(self):
        seq = SequenceState()
        root = RootSecret(b"\x03" * 32)
        rng = random.Random(0)
        av1 = crypto.generate_av(root, seq, "net-a", rng)
        av2 = crypto.generate_av(root, seq, "net-a", rng)
        assert av2.autn.sqn > av1.autn.sqn

    def test_serving_network_binds_derived_key(self):
        root = RootSecret(b"\x03" * 32)
        av_a = crypto.generate_av(root, SequenceState(), "net-a", random.Random(0))
        av_b = crypto.generate_av(root, SequenceState(), "net-b", random.Random(0))
        assert av_a.k_derived != av_b.k_derived

    def test_matching_device_verifies_and_answers(self):
        root = RootSecret(b"\x04" * 32)
        usim = UsimState(k=root)
        av = crypto.generate_av(root, SequenceState(), "net-a", random.Random(1))
        assert crypto.ue_verify_and_respond(usim, av.rand, av.autn) == av.xres


class TestKSeaf:
    def test_deterministic(self):
        k = crypto.prf(b"\x05" * 32, "AUSF")
        assert crypto.derive_k_seaf(k, "net-a") == crypto.derive_k_seaf(k, "net-a")

    def test_network_bound(self):
        k = crypto.prf(b"\x05" * 32, "AUSF")
        assert crypto.derive_k_seaf(k, "net-a") != crypto.derive_k_seaf(k, "net-b")

    def test_chain_agrees_on_both_sides(self):
        # device and core run the same chain from K and meet at every level
        root = RootSecret(b"\x06" * 32)
        av = crypto.generate_av(root, SequenceState(), "net-a", random.Random(2))
        device_k_ausf = crypto.prf(root.value, "AUSF", b"net-a" + av.rand)
        assert device_k_ausf == av.k_derived
        assert crypto.derive_k_ausf(root.hmac_key, "net-a",
                                    av.rand) == device_k_ausf
        assert (crypto.derive_k_seaf(device_k_ausf, "net-a")
                == crypto.derive_k_seaf(av.k_derived, "net-a"))


class TestSessionKeys:
    CID = b"\x0a" * 32

    def test_four_keys_pairwise_distinct(self):
        sk = crypto.SessionKeys(b"\x08" * 32, self.CID)
        keys = [sk.k_amf, sk.k_nas, sk.k_up, sk.k_rrc]
        assert len(set(keys)) == 4

    def test_anchor_holder_matches_core(self):
        # a party holding only the anchor derives the same session keys
        k_seaf = crypto.derive_k_seaf(b"\x09" * 32, "net-a")
        assert (crypto.SessionKeys(k_seaf, self.CID)
                == crypto.SessionKeys(k_seaf, self.CID))

    def test_identity_changes_every_key(self):
        a = crypto.SessionKeys(b"\x08" * 32, b"\x0a" * 32)
        b = crypto.SessionKeys(b"\x08" * 32, b"\x0b" * 32)
        assert a.k_amf != b.k_amf
        assert a.k_nas != b.k_nas
        assert a.k_up != b.k_up
        assert a.k_rrc != b.k_rrc


class TestUeVerify:
    def test_wrong_key_mac_failure(self):
        root = RootSecret(b"\x0c" * 32)
        av = crypto.generate_av(root, SequenceState(), "net-a", random.Random(3))
        wrong = make_usim(b"\x0d" * 32)
        with pytest.raises(MacFailure):
            crypto.ue_verify_and_respond(wrong, av.rand, av.autn)

    def test_replayed_vector_sync_failure(self):
        root = RootSecret(b"\x0c" * 32)
        usim = UsimState(k=root)
        av = crypto.generate_av(root, SequenceState(), "net-a", random.Random(3))
        crypto.ue_verify_and_respond(usim, av.rand, av.autn)
        with pytest.raises(SyncFailure):
            crypto.ue_verify_and_respond(usim, av.rand, av.autn)

    def test_exactly_one_acceptance_per_vector(self):
        root = RootSecret(b"\x0e" * 32)
        usim = UsimState(k=root)
        seq = SequenceState()
        rng = random.Random(4)
        for _ in range(5):
            av = crypto.generate_av(root, seq, "net-a", rng)
            accepted = 0
            for _ in range(3):
                try:
                    crypto.ue_verify_and_respond(usim, av.rand, av.autn)
                    accepted += 1
                except SyncFailure:
                    pass
            assert accepted == 1


class TestConcealIdentity:
    def test_stable(self):
        assert (crypto.conceal_identity("ue-001").cached_id
                == crypto.conceal_identity("ue-001").cached_id)

    def test_distinct_supis_distinct_ids(self):
        a = crypto.conceal_identity("ue-001")
        b = crypto.conceal_identity("ue-002")
        assert a.cached_id != b.cached_id

    def test_cached_id_is_32_bytes(self):
        assert len(crypto.conceal_identity("ue-001").cached_id) == 32

    def test_empty_supi_rejected(self):
        with pytest.raises(ValueError):
            crypto.conceal_identity("")


@given(st.text(min_size=1, max_size=40))
@example("ue-001")
@example("\u00fc\u6f22\U0001f4e1")  # non-ASCII: several UTF-8 bytes each
def test_concealment_matches_generic_prf(supi):
    # the precomputed pad states must give the generic PRF's bytes
    identity = crypto.conceal_identity(supi)
    expected = crypto.prf(crypto._CONCEAL_KEY, "SUCI", supi.encode())
    suci = "suci-" + expected.hex()[:32]
    assert identity.cached_id == hashlib.sha256(suci.encode()).digest()
    assert identity.supi == supi


@given(st.binary(min_size=32, max_size=32),
       st.text(min_size=1, max_size=16),
       st.binary(max_size=32))
def test_derive_key_deterministic_property(parent, label, context):
    assert (crypto.prf(parent, label, context)
            == crypto.prf(parent, label, context))


@given(st.binary(max_size=200),
       st.text(min_size=1, max_size=16),
       st.binary(max_size=64))
@example(b"", "K", b"")
@example(b"\x01" * 64, "K", b"ctx")  # exactly one block: used as is
@example(b"\x01" * 65, "K", b"ctx")  # one byte over: hashed first
def test_prf_is_hmac_sha256(key, label, context):
    # keys on both sides of the 64-byte SHA-256 block
    expected = hmac.new(key, label.encode() + b"\x00" + context,
                        hashlib.sha256).digest()
    assert crypto.prf(key, label, context) == expected


# every label a key is used under in src/
LABELS = ("K", "MAC", "RES", "AUSF", "PREWARM", "SEAF", "AMF", "NAS", "UP",
          "RRC", "EXPRESS-RESP")


@given(st.binary(max_size=200), st.sampled_from(LABELS),
       st.binary(max_size=64))
@example(b"", "MAC", b"")
@example(b"\x01" * 32, "RES", b"ctx")  # the size of every key in a run
@example(b"\x01" * 64, "AUSF", b"ctx")  # exactly one block: used as is
@example(b"\x01" * 65, "K", b"ctx")  # one byte over: hashed first
def test_hmac_key_matches_prf(key, label, context):
    expected = hmac.new(key, label.encode() + b"\x00" + context,
                        hashlib.sha256).digest()
    keyed = crypto.HmacKey(key)
    assert keyed.prf(label, context) == crypto.prf(key, label, context) \
        == expected
    # resuming copies leaves the held states as they were
    assert keyed.prf(label, context) == expected


def test_hmac_key_rejects_empty_label():
    with pytest.raises(ValueError):
        crypto.HmacKey(b"\x00" * 32).prf("")
    with pytest.raises(ValueError):
        crypto.prf(b"\x00" * 32, "")


def test_root_secret_compares_and_prints_its_value_only():
    k = b"\x0f" * 32
    assert RootSecret(k) == RootSecret(k)
    assert hash(RootSecret(k)) == hash(RootSecret(k))
    assert RootSecret(k) != RootSecret(b"\x10" * 32)
    assert repr(RootSecret(k)) == "RootSecret(<hidden>)"


@given(st.integers(min_value=0, max_value=1000))
def test_dual_side_agreement_randomized(case):
    # full-chain equality, quantified over randomized subscribers
    rng = random.Random(case)
    root = RootSecret(rng.randbytes(32))
    cid = rng.randbytes(32)
    av = crypto.generate_av(root, SequenceState(), "net-x", rng)
    core = crypto.build_hierarchy(av.k_derived, "net-x", cid)
    device_k_ausf = crypto.prf(root.value, "AUSF", b"net-x" + av.rand)
    device = crypto.build_hierarchy(device_k_ausf, "net-x", cid)
    assert core == device
