import fcntl
import gc
import hashlib
import os
import random
import resource
import signal
import socket
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghub.canonical import canonical_bytes
from ghub.identity import build_and_sign_guest_document, generate_keypair
from ghub.registry import (
    GENESIS_PREV_HASH,
    KIND_CREATE,
    KIND_REVOKE,
    KIND_UPDATE,
    LedgerBlock,
    MemberId,
    Registry,
    RegistryClient,
    RegistryError,
    RegistryTx,
    ResolutionStatus,
    member_admission_bytes,
    registry_dispatcher,
    signed_tx,
    verify_blocks,
)
from ghub.wire import ConnectionPool, ServiceError, WireServer, request, unregister_local
from helpers import NOW, fold_resolution, seeded_keypair, unique_local


@pytest.fixture
def admin():
    return seeded_keypair(9)


@pytest.fixture
def alice():
    return seeded_keypair(7)


@pytest.fixture
def registry(admin, alice):
    return Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")])


def grant_tx(owner, guest, seq, resources=("iot:hue/light1",), not_after=NOW + 3600, kind=KIND_CREATE):
    sdoc = build_and_sign_guest_document(owner, guest.public_key, resources, None, not_after, NOW)
    return sdoc.document.id, signed_tx(kind, sdoc.document.id, sdoc, owner, "alice", seq)


class TestGenesis:
    def test_empty_member_list(self, admin):
        reg = Registry.create(admin.public_key, [])
        assert reg.height == 0
        assert reg.verify_chain()

    def test_two_members_admitted(self, admin, alice):
        bob = seeded_keypair(8)
        reg = Registry.create(
            admin.public_key, [MemberId(alice.public_key, "alice"), MemberId(bob.public_key, "bob")]
        )
        assert reg.is_member(alice.public_key)
        assert reg.is_member(bob.public_key)

    def test_duplicate_member_keys_rejected(self, admin, alice):
        with pytest.raises(RegistryError) as err:
            Registry.create(
                admin.public_key, [MemberId(alice.public_key, "a"), MemberId(alice.public_key, "b")]
            )
        assert err.value.code == "DuplicateMember"

    def test_verify_after_init(self, registry):
        assert registry.verify_chain()


class TestMembership:
    def test_admitted_member_can_submit(self, registry, admin):
        carol = seeded_keypair(11)
        member = MemberId(carol.public_key, "carol")
        registry.admit_member(admin.sign(member_admission_bytes(member)), member)
        guest = seeded_keypair(12)
        sdoc = build_and_sign_guest_document(carol, guest.public_key, ["iot:x/y"], None, NOW + 60, NOW)
        height = registry.submit(signed_tx(KIND_CREATE, sdoc.document.id, sdoc, carol, "carol", 1))
        assert height == registry.height

    def test_non_member_rejected(self, registry):
        mallory = seeded_keypair(13)
        guest = seeded_keypair(12)
        sdoc = build_and_sign_guest_document(mallory, guest.public_key, ["iot:x/y"], None, NOW + 60, NOW)
        with pytest.raises(RegistryError) as err:
            registry.submit(signed_tx(KIND_CREATE, sdoc.document.id, sdoc, mallory, "mallory", 1))
        assert err.value.code == "NotAMember"

    def test_bad_admin_signature_leaves_membership_unchanged(self, registry):
        carol = seeded_keypair(11)
        member = MemberId(carol.public_key, "carol")
        with pytest.raises(RegistryError) as err:
            registry.admit_member(seeded_keypair(13).sign(member_admission_bytes(member)), member)
        assert err.value.code == "BadAdminSignature"
        assert not registry.is_member(carol.public_key)

    def test_duplicate_admission_rejected(self, registry, admin, alice):
        member = MemberId(alice.public_key, "alice-again")
        with pytest.raises(RegistryError) as err:
            registry.admit_member(admin.sign(member_admission_bytes(member)), member)
        assert err.value.code == "DuplicateMember"


class TestSubmit:
    def test_create_then_resolve_active_with_payload(self, registry, alice):
        did, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        registry.submit(tx)
        result = registry.resolve(did, NOW)
        assert result.status is ResolutionStatus.ACTIVE
        assert result.document == tx.payload

    def test_duplicate_create_rejected(self, registry, alice):
        did, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        registry.submit(tx)
        _, again = grant_tx(alice, seeded_keypair(3), seq=2)
        with pytest.raises(RegistryError) as err:
            registry.submit(again)
        assert err.value.code == "DuplicateDid"

    def test_create_revoke_resolves_revoked(self, registry, alice):
        did, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        registry.submit(tx)
        registry.submit(signed_tx(KIND_REVOKE, did, None, alice, "alice", 2))
        assert registry.resolve(did, NOW).status is ResolutionStatus.REVOKED

    def test_update_replaces_resources(self, registry, alice):
        guest = seeded_keypair(3)
        did, tx = grant_tx(alice, guest, seq=1)
        registry.submit(tx)
        _, update = grant_tx(alice, guest, seq=2, resources=("iot:hue/light1", "iot:hue/light2"), kind=KIND_UPDATE)
        registry.submit(update)
        # replayed by hand: create then update leaves the update's document active
        expected_status, expected_doc = fold_resolution(registry.history(did), NOW)
        result = registry.resolve(did, NOW)
        assert (result.status.value, result.document) == (expected_status, expected_doc)
        assert result.document.document.resources == frozenset({"iot:hue/light1", "iot:hue/light2"})

    def test_stale_seq_rejected(self, registry, alice):
        _, tx = grant_tx(alice, seeded_keypair(3), seq=5)
        registry.submit(tx)
        _, stale = grant_tx(alice, seeded_keypair(4), seq=5)
        with pytest.raises(RegistryError) as err:
            registry.submit(stale)
        assert err.value.code == "StaleSeq"

    def test_replayed_tx_rejected(self, registry, alice):
        _, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        registry.submit(tx)
        with pytest.raises(RegistryError) as err:
            registry.submit(tx)
        assert err.value.code in ("StaleSeq", "DuplicateDid")

    def test_tampered_tx_signature_rejected(self, registry, alice):
        _, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        forged = RegistryTx(
            kind=tx.kind, did=tx.did, payload=tx.payload, submitter=tx.submitter,
            seq=tx.seq + 1, submitter_signature=tx.submitter_signature,
        )
        with pytest.raises(RegistryError) as err:
            registry.submit(forged)
        assert err.value.code == "BadSignature"

    def test_update_by_different_controller_rejected(self, registry, admin, alice):
        bob = seeded_keypair(8)
        member = MemberId(bob.public_key, "bob")
        registry.admit_member(admin.sign(member_admission_bytes(member)), member)
        guest = seeded_keypair(3)
        did, tx = grant_tx(alice, guest, seq=1)
        registry.submit(tx)
        sdoc = build_and_sign_guest_document(bob, guest.public_key, ["iot:z/z"], None, NOW + 60, NOW)
        hijack = signed_tx(KIND_UPDATE, did, sdoc, bob, "bob", 1)
        with pytest.raises(RegistryError) as err:
            registry.submit(hijack)
        assert err.value.code == "ControllerMismatch"

    def test_revoke_by_non_controller_rejected(self, registry, admin, alice):
        bob = seeded_keypair(8)
        member = MemberId(bob.public_key, "bob")
        registry.admit_member(admin.sign(member_admission_bytes(member)), member)
        did, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        registry.submit(tx)
        with pytest.raises(RegistryError) as err:
            registry.submit(signed_tx(KIND_REVOKE, did, None, bob, "bob", 1))
        assert err.value.code == "ControllerMismatch"

    def test_update_unknown_did_rejected(self, registry, alice):
        _, update = grant_tx(alice, seeded_keypair(3), seq=1, kind=KIND_UPDATE)
        with pytest.raises(RegistryError) as err:
            registry.submit(update)
        assert err.value.code == "UnknownDid"

    def test_operations_on_revoked_did_rejected(self, registry, alice):
        guest = seeded_keypair(3)
        did, tx = grant_tx(alice, guest, seq=1)
        registry.submit(tx)
        registry.submit(signed_tx(KIND_REVOKE, did, None, alice, "alice", 2))
        with pytest.raises(RegistryError) as err:
            registry.submit(signed_tx(KIND_REVOKE, did, None, alice, "alice", 3))
        assert err.value.code == "RevokedDid"
        _, update = grant_tx(alice, guest, seq=4, kind=KIND_UPDATE)
        with pytest.raises(RegistryError) as err:
            registry.submit(update)
        assert err.value.code == "RevokedDid"


class TestResolve:
    def test_never_created_not_found(self, registry):
        result = registry.resolve(seeded_keypair(3).did, NOW)
        assert result.status is ResolutionStatus.NOT_FOUND
        assert result.document is None

    def test_expiry_boundary(self, registry, alice):
        did, tx = grant_tx(alice, seeded_keypair(3), seq=1, not_after=NOW + 100)
        registry.submit(tx)
        assert registry.resolve(did, NOW + 99).status is ResolutionStatus.ACTIVE
        assert registry.resolve(did, NOW + 100).status is ResolutionStatus.EXPIRED

    def test_revoked_dominates_expired(self, registry, alice):
        did, tx = grant_tx(alice, seeded_keypair(3), seq=1, not_after=NOW + 100)
        registry.submit(tx)
        registry.submit(signed_tx(KIND_REVOKE, did, None, alice, "alice", 2))
        assert registry.resolve(did, NOW + 500).status is ResolutionStatus.REVOKED


class TestHistory:
    def test_full_lifecycle_in_order(self, registry, alice):
        guest = seeded_keypair(3)
        did, tx = grant_tx(alice, guest, seq=1)
        registry.submit(tx)
        _, update = grant_tx(alice, guest, seq=2, resources=("iot:a/b",), kind=KIND_UPDATE)
        registry.submit(update)
        registry.submit(signed_tx(KIND_REVOKE, did, None, alice, "alice", 3))
        entries = registry.history(did)
        assert [tx.kind for _, tx in entries] == [KIND_CREATE, KIND_UPDATE, KIND_REVOKE]
        heights = [h for h, _ in entries]
        assert heights == sorted(heights) and len(set(heights)) == 3

    def test_unknown_did_empty(self, registry):
        assert registry.history(seeded_keypair(3).did) == []

    def test_history_is_append_only(self, registry, alice):
        guest = seeded_keypair(3)
        did, tx = grant_tx(alice, guest, seq=1)
        registry.submit(tx)
        before = registry.history(did)
        registry.submit(signed_tx(KIND_REVOKE, did, None, alice, "alice", 2))
        after = registry.history(did)
        assert after[: len(before)] == before  # earlier history is a prefix of later


class TestChainIntegrity:
    def make_chain(self, registry, alice, n=10):
        for i in range(n):
            _, tx = grant_tx(alice, generate_keypair(), seq=i + 1)
            registry.submit(tx)

    def test_untampered_chain_verifies(self, registry, alice):
        self.make_chain(registry, alice)
        assert registry.verify_chain()

    def test_payload_tamper_detected(self, registry, alice):
        self.make_chain(registry, alice)
        blocks = registry.blocks
        victim = blocks[3]
        txs = [dict(victim.txs[0])]
        txs[0]["seq"] = 999
        blocks[3] = LedgerBlock(victim.height, victim.prev_hash, tuple(txs), victim.block_hash)
        assert not verify_blocks(blocks)

    def test_reordered_blocks_detected(self, registry, alice):
        self.make_chain(registry, alice)
        blocks = registry.blocks
        blocks[2], blocks[3] = blocks[3], blocks[2]
        assert not verify_blocks(blocks)

    def test_truncation_keeps_prefix_valid_but_breaks_heights(self, registry, alice):
        self.make_chain(registry, alice)
        blocks = registry.blocks
        assert verify_blocks(blocks[:5])  # a prefix is a valid chain
        assert not verify_blocks(blocks[5:])  # an interior slice is not


class TestPersistence:
    def test_reload_round_trip(self, tmp_path, admin, alice):
        path = tmp_path / "chain.ndjson"
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], chain_path=path)
        dids = []
        for i in range(5):
            did, tx = grant_tx(alice, generate_keypair(), seq=i + 1)
            reg.submit(tx)
            dids.append(did)
        reg.submit(signed_tx(KIND_REVOKE, dids[0], None, alice, "alice", 6))

        reloaded = Registry.load(path)
        assert reloaded.verify_chain()
        assert reloaded.height == reg.height
        assert reloaded.resolve(dids[0], NOW).status is ResolutionStatus.REVOKED
        assert reloaded.resolve(dids[1], NOW).status is ResolutionStatus.ACTIVE

    def test_reloaded_registry_accepts_new_txs(self, tmp_path, admin, alice):
        path = tmp_path / "chain.ndjson"
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], chain_path=path)
        _, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        reg.submit(tx)
        reloaded = Registry.load(path)
        did, tx2 = grant_tx(alice, seeded_keypair(4), seq=2)
        reloaded.submit(tx2)
        assert Registry.load(path).resolve(did, NOW).status is ResolutionStatus.ACTIVE

    def test_file_byte_flip_detected(self, tmp_path, admin, alice):
        path = tmp_path / "chain.ndjson"
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], chain_path=path)
        for i in range(3):
            _, tx = grant_tx(alice, generate_keypair(), seq=i + 1)
            reg.submit(tx)
        data = bytearray(path.read_bytes())
        rng = random.Random(1234)
        for _ in range(25):
            pos = rng.randrange(len(data))
            tampered = bytearray(data)
            tampered[pos] ^= 0x20
            path.write_bytes(bytes(tampered))
            with pytest.raises(RegistryError):
                Registry.load(path)
        path.write_bytes(bytes(data))
        assert Registry.load(path).verify_chain()


def test_randomized_sequences_match_fold_oracle(admin):
    """Linearized state: resolve == fold of history, on every prefix."""
    rng = random.Random(20240811)
    for _case in range(40):
        owners = [generate_keypair() for _ in range(2)]
        registry = Registry.create(
            admin.public_key, [MemberId(o.public_key, f"o{i}") for i, o in enumerate(owners)]
        )
        guests = [generate_keypair() for _ in range(4)]
        seqs = {o.public_key: 0 for o in owners}
        dids = set()
        for _step in range(rng.randrange(5, 30)):
            owner = rng.choice(owners)
            guest = rng.choice(guests)
            kind = rng.choice([KIND_CREATE, KIND_UPDATE, KIND_REVOKE])
            seqs[owner.public_key] += 1
            label = f"o{owners.index(owner)}"
            did = None
            try:
                if kind == KIND_REVOKE:
                    did = guest.did
                    registry.submit(signed_tx(kind, did, None, owner, label, seqs[owner.public_key]))
                else:
                    sdoc = build_and_sign_guest_document(
                        owner, guest.public_key,
                        [f"iot:gw/{rng.randrange(3)}"], None, NOW + rng.randrange(1, 500), NOW,
                    )
                    did = sdoc.document.id
                    registry.submit(signed_tx(kind, did, sdoc, owner, label, seqs[owner.public_key]))
            except RegistryError:
                pass
            if did is not None:
                dids.add(did)
            check_now = NOW + rng.randrange(0, 600)
            for d in dids:
                expected_status, expected_doc = fold_resolution(registry.history(d), check_now)
                got = registry.resolve(d, check_now)
                assert got.status.value == expected_status
                assert got.document == expected_doc
        assert registry.verify_chain()


def test_concurrent_submits_all_commit(admin, alice):
    registry = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")])
    txs = []
    for i in range(16):
        _, tx = grant_tx(alice, generate_keypair(), seq=i + 1)
        txs.append(tx)
    heights = []
    errors = []
    lock = threading.Lock()

    def worker(chunk):
        for tx in chunk:
            try:
                h = registry.submit(tx)
                with lock:
                    heights.append(h)
            except RegistryError as exc:
                with lock:
                    errors.append(exc.code)

    # seq ordering forces per-owner serialization, so feed whole per-thread chunks in order
    threads = [threading.Thread(target=worker, args=(txs[i::4],)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    committed = len(heights)
    assert committed >= 4  # interleaving may stale-seq some, but commits happened
    assert len(set(heights)) == committed  # distinct blocks
    assert registry.verify_chain()


def relinked(blocks):
    """The blocks with heights, links and hashes recomputed, as a forger with
    write access to the chain file would leave them."""
    out, prev = [], GENESIS_PREV_HASH
    for height, block in enumerate(blocks):
        body = {"height": height, "prev_hash": prev, "txs": list(block.txs)}
        prev = hashlib.sha256(canonical_bytes(body)).hexdigest()
        out.append(LedgerBlock(height, body["prev_hash"], tuple(block.txs), prev))
    return out


def write_chain(path, blocks):
    path.write_bytes(b"".join(canonical_bytes(b.to_json()) + b"\n" for b in blocks))
    return path


class TestOneValidator:
    """A forged chain with consistent hashes is refused by load and verify_blocks alike."""

    def test_resigned_stale_seq_refused(self, tmp_path, registry, alice):
        for i in range(3):
            _, tx = grant_tx(alice, seeded_keypair(20 + i), seq=i + 1)
            registry.submit(tx)
        blocks = registry.blocks
        tx = RegistryTx.from_json(blocks[3].txs[0])
        stale = signed_tx(tx.kind, tx.did, tx.payload, alice, "alice", 2)  # seq 2 is already spent
        blocks[3] = LedgerBlock(3, "", (stale.to_json(),), "")
        forged = relinked(blocks)
        assert not verify_blocks(forged)
        with pytest.raises(RegistryError) as err:
            Registry.load(write_chain(tmp_path / "chain.ndjson", forged))
        assert err.value.code == "CorruptChain"

    @pytest.mark.parametrize("entry", [["create", "did:ghub:x"], "create", 7, None])
    def test_non_object_tx_is_corrupt_chain(self, tmp_path, registry, alice, entry):
        _, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        registry.submit(tx)
        blocks = registry.blocks
        blocks[1] = LedgerBlock(1, "", (entry,), "")
        forged = relinked(blocks)
        assert verify_blocks(forged) is False
        with pytest.raises(RegistryError) as err:
            Registry.load(write_chain(tmp_path / "chain.ndjson", forged))
        assert err.value.code == "CorruptChain"

    @pytest.mark.parametrize("blocks", [[], None, [None], ["block"]])
    def test_verify_blocks_false_on_malformed_input(self, blocks):
        assert verify_blocks(blocks) is False

    def test_genesis_only_alone_at_height_zero(self, registry, alice):
        genesis = registry.blocks[0].txs[0]
        _, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        for txs in ([genesis, genesis], [genesis, tx.to_json()]):
            assert not verify_blocks(relinked([LedgerBlock(0, "", tuple(txs), "")]))
        assert not verify_blocks(relinked(registry.blocks + [registry.blocks[0]]))

    def test_multi_tx_block_replays(self, registry, alice):
        txs = [grant_tx(alice, seeded_keypair(20 + i), seq=i + 1)[1].to_json() for i in range(3)]
        assert verify_blocks(relinked(registry.blocks + [LedgerBlock(1, "", tuple(txs), "")]))
        txs[2] = txs[0]  # a replay inside the block is still refused
        assert not verify_blocks(relinked(registry.blocks + [LedgerBlock(1, "", tuple(txs), "")]))

    def test_failed_chain_write_changes_nothing(self, tmp_path, admin, alice):
        path = tmp_path / "chain" / "chain.ndjson"
        path.parent.mkdir()
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], chain_path=path)
        path.unlink()
        path.parent.rmdir()
        before = reg.blocks
        did, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        with pytest.raises(OSError):
            reg.submit(tx)
        assert reg.height == 0
        assert reg.blocks == before
        assert reg.resolve(did, NOW).status is ResolutionStatus.NOT_FOUND


OWNERS = [seeded_keypair(40 + i) for i in range(3)]  # the first two are members from genesis
GUESTS = [seeded_keypair(50 + i) for i in range(5)]
OUTSIDER = seeded_keypair(60)
# creates weigh most, so that a fair share of steps commit and chains grow past a few blocks
OPS = ["create"] * 6 + ["update"] * 3 + ["revoke"] * 2 + ["admit", "forged", "stale", "outsider"]
STEP = st.tuples(
    st.sampled_from(OPS),
    st.integers(0, len(OWNERS) - 1),
    st.integers(0, len(GUESTS) - 1),
    st.integers(1, 400),
)


@settings(max_examples=50, deadline=None)
@given(steps=st.lists(STEP, min_size=8, max_size=24))
def test_reload_and_verify_agree_with_live_registry(steps):
    """Valid and invalid submits on a persisted chain: the reloaded registry
    resolves like the live one, its blocks verify, and a dropped or swapped
    interior block does not."""
    admin = seeded_keypair(9)
    seqs = [0] * len(OWNERS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.ndjson"
        reg = Registry.create(
            admin.public_key, [MemberId(o.public_key, f"o{i}") for i, o in enumerate(OWNERS[:2])], path
        )
        for op, o, g, ttl in steps:
            owner, label, guest = OWNERS[o], f"o{o}", GUESTS[g]
            if op != "stale":  # a stale step reuses the owner's last seq
                seqs[o] += 1
            try:
                if op == "admit":
                    member = MemberId(owner.public_key, label)
                    reg.admit_member(admin.sign(member_admission_bytes(member)), member)
                elif op == "revoke":
                    reg.submit(signed_tx(KIND_REVOKE, guest.did, None, owner, label, seqs[o]))
                else:
                    signer = OUTSIDER if op == "outsider" else owner
                    kind = KIND_UPDATE if op == "update" else KIND_CREATE
                    sdoc = build_and_sign_guest_document(
                        signer, guest.public_key, ["iot:gw/a"], None, NOW + ttl, NOW
                    )
                    tx = signed_tx(kind, sdoc.document.id, sdoc, signer, label, seqs[o])
                    if op == "forged":
                        tx = RegistryTx(
                            tx.kind, tx.did, tx.payload, tx.submitter, tx.seq + 1, tx.submitter_signature
                        )
                    reg.submit(tx)
            except RegistryError:
                pass
        loaded = Registry.load(path)
        assert loaded.height == reg.height
        for guest in GUESTS:
            for now in (NOW, NOW + 200, NOW + 500):
                assert loaded.resolve(guest.did, now) == reg.resolve(guest.did, now)
    blocks = reg.blocks
    assert verify_blocks(blocks)
    for i in range(1, len(blocks) - 1):
        assert not verify_blocks(blocks[:i] + blocks[i + 1:])
        swapped = list(blocks)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert not verify_blocks(swapped)


@pytest.fixture(scope="module")
def churn_txs():
    """1,000 create/revoke pairs by alice (seqs 1..2000), each for a guest of its own."""
    alice = seeded_keypair(7)
    txs = []
    for i in range(1000):
        guest = generate_keypair(i.to_bytes(32, "big"))
        sdoc = build_and_sign_guest_document(alice, guest.public_key, ["iot:hue/light1"], None, NOW + 3600, NOW)
        txs.append(signed_tx(KIND_CREATE, sdoc.document.id, sdoc, alice, "alice", 2 * i + 1))
        txs.append(signed_tx(KIND_REVOKE, sdoc.document.id, None, alice, "alice", 2 * i + 2))
    return txs


def traced_growth(action):
    """Bytes of Python memory still allocated after `action()`, and its result."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    result = action()
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before, result


class TestStateNotHistory:
    """The registry keeps state in memory; the chain is the only copy of its blocks."""

    def test_memory_tracks_state_not_history(self, tmp_path, admin, alice, churn_txs):
        txs = churn_txs[:1000]  # 500 create/revoke pairs
        path = tmp_path / "chain.ndjson"
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], path)

        def commit_all():
            for tx in txs:
                reg.submit(tx)

        tracemalloc.start()
        try:
            live, _ = traced_growth(commit_all)
            loaded_bytes, loaded = traced_growth(lambda: Registry.load(path))
        finally:
            tracemalloc.stop()
        assert loaded.height == reg.height == len(txs)
        # the chain file itself takes about 710 B per transaction
        assert live / len(txs) < 1200
        assert loaded_bytes / len(txs) < 1200
        loaded.close()
        reg.close()

    def test_bytes_per_live_did_are_capped(self, admin, alice, churn_txs):
        creates = churn_txs[0::2]  # 1,000 creates, none revoked
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")])

        def commit_all():
            for tx in creates:
                reg.submit(tx)

        tracemalloc.start()
        try:
            live, _ = traced_growth(commit_all)
        finally:
            tracemalloc.stop()
        reg.close()
        assert reg.height == len(creates)
        # slotted values, one Did per DID text and one copy of each recurring
        # value; the same registry held about 1,340 B per DID when each value
        # kept its own dict and copies
        assert live / len(creates) < 1000

    @pytest.mark.parametrize("opened", ["created", "loaded"])
    def test_replaced_chain_file_refuses_the_commit(self, tmp_path, admin, alice, opened):
        path = tmp_path / "chain.ndjson"
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], path)
        _, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        reg.submit(tx)
        if opened == "loaded":  # replaced before the loaded registry's first write
            reg.close()
            reg = Registry.load(path)
        other = tmp_path / "other.ndjson"
        other.write_bytes(path.read_bytes())
        os.replace(other, path)
        replaced = path.read_bytes()
        height, blocks = reg.height, reg.blocks
        did, tx = grant_tx(alice, seeded_keypair(4), seq=2)
        with pytest.raises(OSError):
            reg.submit(tx)
        assert reg.height == height
        assert reg.blocks == blocks
        assert reg.resolve(did, NOW).status is ResolutionStatus.NOT_FOUND
        assert path.read_bytes() == replaced  # a restart loads exactly what it held before
        reg.close()

    def test_refused_write_leaves_no_bytes_behind(self, tmp_path, admin, alice):
        path = tmp_path / "chain.ndjson"
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], path)
        committed = path.read_bytes()
        refused_did, refused = grant_tx(alice, seeded_keypair(3), seq=1)
        # a file size limit stops the write part-way through the block: the kernel
        # takes the bytes below the limit, then fails the rest with EFBIG
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (len(committed) + 100, hard))
        try:
            with pytest.raises(OSError):
                reg.submit(refused)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)
        assert path.read_bytes() == committed
        assert reg.height == 0
        did, tx = grant_tx(alice, seeded_keypair(4), seq=1)  # seq 1 again: the refused tx never counted
        assert reg.submit(tx) == 1
        reg.close()
        loaded = Registry.load(path)
        assert loaded.height == 1 and loaded.verify_chain()
        assert loaded.resolve(refused_did, NOW).status is ResolutionStatus.NOT_FOUND
        assert loaded.resolve(did, NOW).status is ResolutionStatus.ACTIVE
        loaded.close()

    def test_chain_file_grown_outside_the_registry_refuses_the_commit(self, tmp_path, admin, alice):
        path = tmp_path / "chain.ndjson"
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], path)
        with open(path, "ab") as chain:
            chain.write(b'{"height": 1')
        grown = path.read_bytes()
        did, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        with pytest.raises(OSError):
            reg.submit(tx)
        assert path.read_bytes() == grown
        assert reg.height == 0
        assert reg.resolve(did, NOW).status is ResolutionStatus.NOT_FOUND
        reg.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors through /proc")
    def test_load_holds_the_chain_read_only_until_it_writes(self, tmp_path, admin, alice):
        path = tmp_path / "chain.ndjson"
        Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], path).close()

        def access_modes():
            held = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    if os.readlink(f"/proc/self/fd/{fd}") == str(path):
                        held.append(fcntl.fcntl(int(fd), fcntl.F_GETFL) & os.O_ACCMODE)
                except OSError:  # the descriptor that listed the directory, now closed
                    pass
            return sorted(held)

        loaded = Registry.load(path)
        assert access_modes() == [os.O_RDONLY]
        _, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        assert loaded.submit(tx) == 1
        assert access_modes() == sorted([os.O_RDONLY, os.O_WRONLY])
        loaded.close()
        assert access_modes() == []
        reloaded = Registry.load(path)
        assert reloaded.height == 1
        reloaded.close()

    def test_chain_files_are_closed_not_left_to_the_collector(self, tmp_path, admin, alice):
        path = tmp_path / "chain.ndjson"
        _, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], path)
            loaded = Registry.load(path)
            reg.close()
            loaded.close()
            with pytest.raises(ValueError):
                reg.submit(tx)
            path.write_bytes(path.read_bytes()[:-2])
            with pytest.raises(RegistryError):
                Registry.load(path)  # a refused load closes the file it opened
            del reg, loaded
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("backed", ["path", "no-path"])
    def test_reads_stream_beside_submits(self, tmp_path, admin, alice, churn_txs, backed):
        path = tmp_path / "chain.ndjson" if backed == "path" else None
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], path)
        txs = churn_txs[:200]
        heights, problems, reads = [], [], [0]
        done = threading.Event()

        def submitter():
            try:
                for tx in txs:
                    heights.append(reg.submit(tx))
            except Exception as exc:  # reported by the assertion below
                problems.append(repr(exc))
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    snapshot = reg.blocks
                    if not verify_blocks(snapshot):
                        problems.append(f"a snapshot of {len(snapshot)} blocks does not verify")
                    if len(reg.history(txs[0].did)) > 2:
                        problems.append("history holds more than a create and a revoke")
                    if not reg.verify_chain():
                        problems.append("verify_chain is false")
                    reads[0] += 1
            except Exception as exc:  # reported by the assertion below
                problems.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter), threading.Thread(target=reader)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert problems == []
        assert heights == list(range(1, len(txs) + 1))
        assert reads[0] >= 1
        assert verify_blocks(reg.blocks) and len(reg.blocks) == len(txs) + 1
        reg.close()

    def test_submit_does_not_wait_for_a_verify(self, tmp_path, admin, alice, churn_txs):
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], tmp_path / "chain.ndjson")
        for tx in churn_txs[:-1]:
            reg.submit(tx)
        started, result = threading.Event(), []

        def verifier():
            started.set()
            result.append(reg.verify_chain())

        thread = threading.Thread(target=verifier)
        thread.start()
        started.wait(timeout=10)
        # a ~2,000-block replay takes most of a second; one submit takes about a millisecond
        assert reg.submit(churn_txs[-1]) == len(churn_txs)
        replaying = thread.is_alive()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result == [True]
        assert replaying, "the submit waited for the replay to end"
        reg.close()


class TestOneCheckPerEntry:
    """Submit and replay check each entry and apply its state change in one pass."""

    @pytest.fixture
    def parses(self, monkeypatch):
        kinds = []
        from_json = RegistryTx.from_json.__func__

        def counted(cls, obj):
            kinds.append(obj["kind"])
            return from_json(cls, obj)

        monkeypatch.setattr(RegistryTx, "from_json", classmethod(counted))
        return kinds

    def test_each_did_entry_is_parsed_once(self, tmp_path, admin, alice, parses):
        path = tmp_path / "chain.ndjson"
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], path)
        guest = seeded_keypair(3)
        did, create = grant_tx(alice, guest, seq=1)
        _, update = grant_tx(alice, guest, seq=2, resources=("iot:hue/light2",), kind=KIND_UPDATE)
        revoke = signed_tx(KIND_REVOKE, did, None, alice, "alice", 3)
        for height, tx in enumerate((create, update, revoke), start=1):
            assert reg.submit(tx) == height
            assert len(parses) == height
        reg.close()
        parses.clear()
        loaded = Registry.load(path)
        assert parses == [KIND_CREATE, KIND_UPDATE, KIND_REVOKE]
        assert loaded.resolve(did, NOW).status is ResolutionStatus.REVOKED
        loaded.close()

    def test_a_wire_submit_parses_its_tx_once(self, registry, alice, parses):
        name, endpoint = unique_local(registry_dispatcher(registry), "registry")
        try:
            did, tx = grant_tx(alice, seeded_keypair(3), seq=1)
            assert RegistryClient(endpoint).submit(tx) == 1
            assert parses == [KIND_CREATE]
            assert registry.resolve(did, NOW).document == tx.payload
        finally:
            unregister_local(name)
            registry.close()

    def test_a_wire_tx_is_stored_as_parsed(self, registry, alice):
        name, endpoint = unique_local(registry_dispatcher(registry), "registry")
        try:
            _, tx = grant_tx(alice, seeded_keypair(3), seq=1)
            wire_tx = {**tx.to_json(), "note": "not a tx field"}
            assert request(endpoint, "registry.submit", {"tx": wire_tx})["height"] == 1
            assert registry.blocks[1].txs == (tx.to_json(),)
            with pytest.raises(ServiceError) as err:
                request(endpoint, "registry.submit", {"tx": {"kind": KIND_CREATE}})
            assert err.value.code == "MalformedTx"
            assert registry.height == 1 and registry.verify_chain()
        finally:
            unregister_local(name)
            registry.close()

    def test_no_append_onto_an_unterminated_last_block(self, tmp_path, admin, alice):
        path = tmp_path / "chain.ndjson"
        reg = Registry.create(admin.public_key, [MemberId(alice.public_key, "alice")], path)
        did, tx = grant_tx(alice, seeded_keypair(3), seq=1)
        reg.submit(tx)
        reg.close()
        path.write_bytes(path.read_bytes().removesuffix(b"\n"))
        unterminated = path.read_bytes()
        loaded = Registry.load(path)
        refused_did, refused = grant_tx(alice, seeded_keypair(4), seq=2)
        with pytest.raises(OSError):
            loaded.submit(refused)
        assert path.read_bytes() == unterminated
        assert loaded.height == 1 and loaded.verify_chain()
        assert loaded.resolve(did, NOW).status is ResolutionStatus.ACTIVE
        assert loaded.resolve(refused_did, NOW).status is ResolutionStatus.NOT_FOUND
        loaded.close()
        Registry.load(path).close()


class TestClientConnection:
    """A RegistryClient built without a pool keeps one connection for all its calls."""

    @pytest.fixture
    def connects(self, monkeypatch):
        made = []
        connect = socket.create_connection

        def counted(*args, **kwargs):
            sock = connect(*args, **kwargs)
            made.append(sock)
            return sock

        monkeypatch.setattr(socket, "create_connection", counted)
        return made

    @pytest.fixture
    def served(self, registry):
        server = WireServer(registry_dispatcher(registry)).start()
        yield server
        server.stop()
        registry.close()

    def test_ten_calls_open_one_connection(self, served, alice, connects):
        client = RegistryClient(served.endpoint)
        try:
            guest = seeded_keypair(3)
            did, create = grant_tx(alice, guest, seq=1)
            assert client.submit(create) == 1
            for _ in range(7):
                assert client.resolve(did, NOW).status is ResolutionStatus.ACTIVE
            assert client.verify_chain()
            assert client.submit(signed_tx(KIND_REVOKE, did, None, alice, "alice", 2)) == 2
        finally:
            client.close()
        assert len(connects) == 1

    def test_a_restarted_registry_is_reached_and_a_stopped_one_refuses(self, registry, alice, connects):
        server = WireServer(registry_dispatcher(registry)).start()
        client = RegistryClient(server.endpoint, timeout=2.0)
        guest = seeded_keypair(3)
        did, create = grant_tx(alice, guest, seq=1)
        try:
            assert client.submit(create) == 1
            server.stop()
            server = WireServer(registry_dispatcher(registry), port=server.port).start()
            assert client.resolve(did, NOW).status is ResolutionStatus.ACTIVE
            assert len(connects) == 2 and connects[0].fileno() == -1
            server.stop()
            started = time.monotonic()
            with pytest.raises(ConnectionRefusedError):
                client.resolve(did, NOW)
            assert time.monotonic() - started < 1.0
        finally:
            client.close()
            server.stop()
            registry.close()

    def test_close_closes_only_the_clients_own_pool(self, served, alice, connects):
        own = RegistryClient(served.endpoint)
        assert own.verify_chain()
        own.close()
        assert connects[0].fileno() == -1
        own.close()  # a second close does nothing
        assert connects[0].fileno() == -1

        pool = ConnectionPool()
        try:
            lent = RegistryClient(served.endpoint, pool=pool)
            assert lent.verify_chain()
            lent.close()
            assert connects[1].fileno() != -1
            assert RegistryClient(served.endpoint, pool=pool).verify_chain()
            assert len(connects) == 2
        finally:
            pool.close()
        assert connects[1].fileno() == -1
