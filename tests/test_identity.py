import dataclasses
import secrets

import pytest
from cryptography.hazmat.primitives.asymmetric import ed25519
from hypothesis import given, settings
from hypothesis import strategies as st

from ghub.canonical import parse
from ghub.identity import (
    AUTH_METHOD_ED25519,
    Did,
    DidDocument,
    DocumentStatus,
    Keypair,
    SignedDidDocument,
    build_and_sign_guest_document,
    canonicalize,
    derive_did,
    generate_keypair,
    load_keypair,
    load_public_key,
    make_challenge,
    parse_document,
    respond_to_challenge,
    save_keypair,
    save_public_key,
    verify_challenge,
    verify_document,
    verify_signature,
    _parse_did,
    _signed_status,
)
from helpers import NOW, seeded_keypair

# computed before the build with an independent RFC 8032 implementation
ZERO_SEED_PUBKEY_HEX = "3b6a27bcceb6a42d62a3a8d02a6f0d73653215771de243a63ac048a18b59da29"
ONE_SEED_PUBKEY_HEX = "8a88e3dd7409f195fd52db2d3cba5d72ca6709bf1d94121bf3748801b40f6f5c"
# base58btc(sha256(0^32)) via an independent digit-string base converter
ZERO_KEY_DID = "did:ghub:7tkzFg8RHBmMw1ncRJZCCZAizgq4rwCftTKYLce8RU8t"
ONE_SEED_DID = "did:ghub:4XmjKEd9A96KhoMX94zWJmd28dcPisbWGYWtad1dQ9v5"


class TestKeypairs:
    def test_zero_seed_matches_reference(self):
        kp = generate_keypair(bytes(32))
        assert kp.public_key.hex() == ZERO_SEED_PUBKEY_HEX

    def test_one_seed_matches_reference(self):
        kp = generate_keypair(bytes([1] * 32))
        assert kp.public_key.hex() == ONE_SEED_PUBKEY_HEX

    def test_same_seed_same_keys(self):
        assert generate_keypair(bytes([5] * 32)) == generate_keypair(bytes([5] * 32))

    def test_random_keys_differ(self):
        assert generate_keypair().public_key != generate_keypair().public_key

    def test_bad_seed_length(self):
        with pytest.raises(ValueError):
            generate_keypair(b"short")
        with pytest.raises(ValueError):
            generate_keypair(bytes(33))

    def test_sign_verify_round_trip(self):
        kp = generate_keypair()
        message = b"attack at dawn"
        assert verify_signature(kp.public_key, kp.sign(message), message)
        assert not verify_signature(kp.public_key, kp.sign(message), b"attack at dusk")

    def test_private_key_not_in_repr(self):
        kp = generate_keypair(bytes([42] * 32))
        text = repr(kp)
        assert kp.private_key.hex() not in text
        assert "private_key" not in text

    def test_a_keypair_builds_its_signing_key_once(self, monkeypatch):
        seeded = seeded_keypair(5)
        kp = Keypair(seeded.public_key, seeded.private_key)
        built = []
        from_private_bytes = ed25519.Ed25519PrivateKey.from_private_bytes

        def counted(data):
            built.append(data)
            return from_private_bytes(data)

        monkeypatch.setattr(ed25519.Ed25519PrivateKey, "from_private_bytes", staticmethod(counted))
        messages = [f"message {i}".encode() for i in range(100)]
        signatures = [kp.sign(m) for m in messages]
        assert len(built) == 1
        assert all(verify_signature(kp.public_key, sig, m) for sig, m in zip(signatures, messages))
        assert kp.did is kp.did and kp.did == derive_did(kp.public_key)
        # what the keypair keeps shows in neither its repr nor its equality
        text = repr(kp)
        assert kp.private_key.hex() not in text and "private" not in text
        assert kp == Keypair(kp.public_key, kp.private_key) == seeded
        assert hash(kp) == hash(Keypair(kp.public_key, kp.private_key))


class TestDids:
    def test_zero_key_golden(self):
        assert derive_did(bytes(32)).render() == ZERO_KEY_DID

    def test_one_seed_pubkey_golden(self):
        kp = generate_keypair(bytes([1] * 32))
        assert kp.did.render() == ONE_SEED_DID

    def test_pure_function(self):
        key = secrets.token_bytes(32)
        assert derive_did(key) == derive_did(key)

    def test_distinct_keys_distinct_dids(self):
        seen = {derive_did(bytes([i] * 32)).render() for i in range(32)}
        assert len(seen) == 32

    def test_rendered_length_bound(self):
        for i in range(16):
            assert len(derive_did(secrets.token_bytes(32)).id) <= 64

    def test_parse_render_round_trip(self):
        did = derive_did(secrets.token_bytes(32))
        assert Did.parse(did.render()) == did

    def test_wrong_key_length(self):
        with pytest.raises(ValueError):
            derive_did(b"too short")

    @pytest.mark.parametrize(
        "bad", ["", "did:ghub:", "did:other:abc", "ghub:abc", "did:ghub:0OIl", "did:ghub:a:b"]
    )
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            Did.parse(bad)

    def test_parse_gives_one_object_per_text(self):
        text = derive_did(secrets.token_bytes(32)).render()
        assert Did.parse(text) is Did.parse("".join(text))

    def test_malformed_text_raises_every_time_and_is_not_remembered(self):
        remembered = _parse_did.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError):
                Did.parse("did:ghub:0OIl")
        assert _parse_did.cache_info().currsize == remembered

    @pytest.mark.parametrize("value, error", [(b"did:ghub:abc", TypeError), (7, AttributeError), (None, AttributeError)])
    def test_non_text_raises(self, value, error):
        with pytest.raises(error):
            Did.parse(value)

    def test_memo_never_exceeds_its_cap(self):
        cap = _parse_did.cache_info().maxsize
        assert cap == 4096
        for i in range(cap + 50):
            Did.parse(derive_did(i.to_bytes(32, "big")).render())
        assert _parse_did.cache_info().currsize == cap


class TestSharedValues:
    """Values that recur across parsed documents are stored once."""

    def parsed(self, n, resources=("iot:hue/light1",), policy_endpoint=None):
        sdoc = sample_document(guest=seeded_keypair(n), resources=resources, policy_endpoint=policy_endpoint)
        return parse_document(canonicalize(sdoc.document))

    def test_documents_without_resources_share_one_empty_set(self):
        a, b = (self.parsed(n, resources=(), policy_endpoint="pdp://local:r1/p") for n in (30, 31))
        assert a.resources == frozenset() and a.resources is b.resources

    def test_equal_resource_sets_are_one_set(self):
        a, b = (self.parsed(n, resources=("iot:hue/light1", "iot:hue/light2")) for n in (30, 31))
        assert a.resources is b.resources

    def test_strings_are_interned(self):
        a, b = (self.parsed(n, resources=(f"iot:hue/light{n}",), policy_endpoint="pdp://local:r1/p") for n in (30, 31))
        assert a.policy_endpoint is b.policy_endpoint
        assert a.auth_method is b.auth_method
        assert next(iter(a.resources)) is next(iter(self.parsed(32, resources=("iot:hue/light30",)).resources))
        assert a.controller is b.controller


def sample_document(guest=None, owner=None, resources=("iot:hue/light1", "iot:hue/light2"),
                    policy_endpoint=None, not_after=NOW + 3600):
    guest = guest or seeded_keypair(3)
    owner = owner or seeded_keypair(7)
    return build_and_sign_guest_document(
        owner, guest.public_key, resources, policy_endpoint, not_after, NOW
    )


class TestCanonicalDocument:
    # generated once from the pinned sample document and frozen
    GOLDEN = (
        b'{"auth_method":"Ed25519ChallengeResponse","controller":"did:ghub:'
        b'J8Uo9u28953Fpeeg7ki5H3cYhQ9V2w9Zotxr1nhFE2FJ","guest_key":"7Ukoxi'
        b'jRwsbq6QM4kFmVYSlZJzpcY/k2NsFGFKyHN9E=","id":"did:ghub:DGAMCcQXJN'
        b'Ko6NdMuyAdAMWjLuy32cMTfexaRcq49SUx","not_after":1003600,"resource'
        b's":["iot:hue/light1","iot:hue/light2"]}'
    )

    def test_golden_bytes(self):
        sdoc = sample_document()
        assert canonicalize(sdoc.document) == self.GOLDEN

    def test_resource_order_is_normalized(self):
        a = sample_document(resources=("iot:b", "iot:a"))
        b = sample_document(resources=("iot:a", "iot:b"))
        assert canonicalize(a.document) == canonicalize(b.document)

    def test_round_trip_fixpoint(self):
        doc = sample_document().document
        data = canonicalize(doc)
        assert canonicalize(parse_document(data)) == data
        assert parse_document(data) == doc

    def test_policy_endpoint_presence_changes_bytes(self):
        plain = sample_document()
        delegated = sample_document(policy_endpoint="pdp://h:1/p?consensus=majority")
        assert canonicalize(plain.document) != canonicalize(delegated.document)


resource_lists = st.lists(
    st.from_regex(r"iot:[a-z]{1,8}/[a-z0-9]{1,8}", fullmatch=True), min_size=1, max_size=4
)


@given(resources=resource_lists, not_after_offset=st.integers(min_value=1, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_document_parse_canonicalize_round_trip(resources, not_after_offset):
    sdoc = sample_document(resources=tuple(resources), not_after=NOW + not_after_offset)
    assert SignedDidDocument.from_json(sdoc.to_json()) == sdoc
    assert DidDocument.from_json(parse(canonicalize(sdoc.document))) == sdoc.document


class TestBuildAndVerify:
    def test_fresh_document_is_active(self):
        owner = seeded_keypair(7)
        sdoc = sample_document(owner=owner)
        assert verify_document(sdoc, owner.public_key, NOW) is DocumentStatus.ACTIVE

    def test_not_after_at_now_rejected(self):
        with pytest.raises(ValueError):
            sample_document(not_after=NOW)

    def test_empty_authorization_rejected(self):
        owner = seeded_keypair(7)
        with pytest.raises(ValueError):
            build_and_sign_guest_document(owner, seeded_keypair(3).public_key, [], None, NOW + 10, NOW)

    def test_policy_endpoint_only_is_fine(self):
        owner = seeded_keypair(7)
        sdoc = sample_document(owner=owner, resources=(), policy_endpoint="pdp://h:1/p")
        assert sdoc.document.resources == frozenset()
        assert verify_document(sdoc, owner.public_key, NOW) is DocumentStatus.ACTIVE

    def test_expired_at_boundary(self):
        owner = seeded_keypair(7)
        sdoc = sample_document(owner=owner, not_after=NOW + 100)
        assert verify_document(sdoc, owner.public_key, NOW + 99) is DocumentStatus.ACTIVE
        assert verify_document(sdoc, owner.public_key, NOW + 100) is DocumentStatus.EXPIRED

    def test_altered_resource_is_bad_signature(self):
        owner = seeded_keypair(7)
        sdoc = sample_document(owner=owner)
        tampered = SignedDidDocument(
            document=DidDocument(
                id=sdoc.document.id,
                guest_key=sdoc.document.guest_key,
                auth_method=sdoc.document.auth_method,
                resources=sdoc.document.resources | {"iot:hue/light3"},
                policy_endpoint=sdoc.document.policy_endpoint,
                not_after=sdoc.document.not_after,
                controller=sdoc.document.controller,
            ),
            signer=sdoc.signer,
            signature=sdoc.signature,
        )
        assert verify_document(tampered, owner.public_key, NOW) is DocumentStatus.BAD_SIGNATURE

    def test_wrong_owner_key_is_bad_signature(self):
        sdoc = sample_document(owner=seeded_keypair(7))
        assert verify_document(sdoc, seeded_keypair(8).public_key, NOW) is DocumentStatus.BAD_SIGNATURE

    def test_signer_controller_mismatch_is_malformed(self):
        owner = seeded_keypair(7)
        other = seeded_keypair(8)
        sdoc = sample_document(owner=owner)
        forged = SignedDidDocument(document=sdoc.document, signer=other.did, signature=sdoc.signature)
        assert verify_document(forged, owner.public_key, NOW) is DocumentStatus.MALFORMED

    def test_id_key_mismatch_is_malformed(self):
        owner = seeded_keypair(7)
        sdoc = sample_document(owner=owner)
        wrong_id = DidDocument(
            id=derive_did(seeded_keypair(4).public_key),
            guest_key=sdoc.document.guest_key,
            auth_method=sdoc.document.auth_method,
            resources=sdoc.document.resources,
            policy_endpoint=None,
            not_after=sdoc.document.not_after,
            controller=sdoc.document.controller,
        )
        forged = SignedDidDocument(document=wrong_id, signer=sdoc.signer, signature=sdoc.signature)
        assert verify_document(forged, owner.public_key, NOW) is DocumentStatus.MALFORMED

    def test_every_sampled_byte_flip_breaks_the_signature(self):
        owner = seeded_keypair(7)
        sdoc = sample_document(owner=owner)
        data = canonicalize(sdoc.document)
        for pos in range(0, len(data), 7):
            flipped = bytearray(data)
            flipped[pos] ^= 0x01
            assert not verify_signature(owner.public_key, sdoc.signature, bytes(flipped))


ENVELOPE = ("signature", "signer")


def changed(sdoc: SignedDidDocument, field: str, value) -> SignedDidDocument:
    """`sdoc` with one field of the signed document, or of its envelope, replaced."""
    if field in ENVELOPE:
        return dataclasses.replace(sdoc, **{field: value})
    return dataclasses.replace(sdoc, document=dataclasses.replace(sdoc.document, **{field: value}))


CHANGES = {
    "resources": st.lists(st.from_regex(r"iot:[a-z]{1,8}/[a-z0-9]{1,8}", fullmatch=True), max_size=3).map(frozenset),
    "not_after": st.integers(min_value=NOW - 10, max_value=NOW + 10**6),
    "policy_endpoint": st.one_of(st.none(), st.from_regex(r"pdp://r[0-9]/p[a-z]{0,4}", fullmatch=True)),
    "signature": st.binary(min_size=64, max_size=64),
    "signer": st.sampled_from([seeded_keypair(7).did, seeded_keypair(8).did, derive_did(bytes(32))]),
}


class TestRememberedChecks:
    """verify_document remembers its signature checks, for exactly the document and owner key it checked."""

    @given(data=st.data(), field=st.sampled_from(sorted(CHANGES)))
    @settings(max_examples=100, deadline=None)
    def test_a_changed_document_is_classified_as_if_never_seen(self, data, field):
        owner = seeded_keypair(7)
        sdoc = sample_document(owner=owner, policy_endpoint=data.draw(CHANGES["policy_endpoint"]))
        assert verify_document(sdoc, owner.public_key, NOW) is DocumentStatus.ACTIVE
        old = getattr(sdoc if field in ENVELOPE else sdoc.document, field)
        other = changed(sdoc, field, data.draw(CHANGES[field].filter(lambda v: v != old)))
        owner_key = data.draw(st.sampled_from([owner.public_key, seeded_keypair(8).public_key]))
        now = data.draw(st.integers(min_value=NOW - 10, max_value=NOW + 10**6))
        remembered = verify_document(other, owner_key, now)
        _signed_status.cache_clear()
        assert remembered is verify_document(other, owner_key, now)
        assert remembered is not DocumentStatus.ACTIVE  # nothing changed was signed

    def test_another_owner_key_is_checked_afresh(self):
        owner = seeded_keypair(7)
        sdoc = sample_document(owner=owner)
        assert verify_document(sdoc, owner.public_key, NOW) is DocumentStatus.ACTIVE
        assert verify_document(sdoc, seeded_keypair(8).public_key, NOW) is DocumentStatus.BAD_SIGNATURE
        assert verify_document(sdoc, owner.public_key[:31], NOW) is DocumentStatus.BAD_SIGNATURE
        assert verify_document(sdoc, owner.public_key, NOW) is DocumentStatus.ACTIVE

    @given(offset=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_a_remembered_active_document_expires_at_its_not_after(self, offset):
        owner = seeded_keypair(7)
        sdoc = sample_document(owner=owner, not_after=NOW + 100)
        assert verify_document(sdoc, owner.public_key, NOW) is DocumentStatus.ACTIVE
        assert verify_document(sdoc, owner.public_key, NOW + 100 + offset) is DocumentStatus.EXPIRED
        assert verify_document(sdoc, owner.public_key, NOW + 99) is DocumentStatus.ACTIVE

    def test_an_equal_value_of_another_type_is_checked_afresh(self):
        # 1.0 compares equal to 1 but encodes apart, so the signature is not its
        owner = seeded_keypair(7)
        sdoc = sample_document(owner=owner, not_after=NOW + 1)
        assert verify_document(sdoc, owner.public_key, NOW) is DocumentStatus.ACTIVE
        as_float = changed(sdoc, "not_after", float(NOW + 1))
        assert as_float == sdoc
        assert verify_document(as_float, owner.public_key, NOW) is DocumentStatus.BAD_SIGNATURE

    def test_the_memo_never_outgrows_its_cap(self):
        owner = seeded_keypair(7)
        cap = _signed_status.cache_info().maxsize
        for i in range(cap + 16):
            sdoc = sample_document(owner=owner, not_after=NOW + 1 + i)
            assert verify_document(sdoc, owner.public_key, NOW) is DocumentStatus.ACTIVE
            assert _signed_status.cache_info().currsize <= cap
        assert _signed_status.cache_info().currsize == cap


class TestChallenges:
    def test_nonce_length_and_freshness(self):
        a = make_challenge("hub1", NOW)
        b = make_challenge("hub1", NOW)
        assert len(a.nonce) == 32
        assert a.nonce != b.nonce

    def test_issued_at_monotone_under_fixed_clock(self):
        stamps = [make_challenge("hub1", NOW + i).issued_at for i in range(5)]
        assert stamps == sorted(stamps)

    def test_honest_response_verifies(self):
        guest = seeded_keypair(3)
        challenge = make_challenge("hub1", NOW)
        response = respond_to_challenge(challenge, guest)
        assert verify_challenge(challenge, response, guest.public_key)

    def test_wrong_keypair_fails(self):
        challenge = make_challenge("hub1", NOW)
        response = respond_to_challenge(challenge, seeded_keypair(4))
        assert not verify_challenge(challenge, response, seeded_keypair(3).public_key)

    def test_replay_against_other_challenge_fails(self):
        guest = seeded_keypair(3)
        first = make_challenge("hub1", NOW)
        second = make_challenge("hub1", NOW)
        response = respond_to_challenge(first, guest)
        assert not verify_challenge(second, response, guest.public_key)

    def test_hub_id_and_timestamp_are_bound(self):
        guest = seeded_keypair(3)
        challenge = make_challenge("hub1", NOW)
        response = respond_to_challenge(challenge, guest)
        other_hub = type(challenge)(nonce=challenge.nonce, issued_at=challenge.issued_at, hub_id="hub2")
        other_time = type(challenge)(nonce=challenge.nonce, issued_at=NOW + 1, hub_id="hub1")
        assert not verify_challenge(other_hub, response, guest.public_key)
        assert not verify_challenge(other_time, response, guest.public_key)

    def test_random_responses_never_verify(self):
        # unforgeability at desk scale: 10^4 random responses all rejected
        guest = seeded_keypair(3)
        challenge = make_challenge("hub1", NOW)
        for _ in range(10_000):
            assert not verify_challenge(challenge, secrets.token_bytes(64), guest.public_key)


class TestKeyFiles:
    def test_seed_envelope_round_trip(self, tmp_path):
        kp = generate_keypair(bytes([6] * 32))
        path = tmp_path / "owner.key"
        save_keypair(path, kp)
        assert load_keypair(path) == kp
        envelope = path.read_text()
        assert '"kind": "ed25519-seed"' in envelope

    def test_public_envelope(self, tmp_path):
        kp = generate_keypair(bytes([6] * 32))
        path = tmp_path / "guest.pub"
        save_public_key(path, kp.public_key)
        assert load_public_key(path) == kp.public_key

    def test_public_key_from_seed_envelope(self, tmp_path):
        kp = generate_keypair(bytes([6] * 32))
        path = tmp_path / "guest.key"
        save_keypair(path, kp)
        assert load_public_key(path) == kp.public_key

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "junk.key"
        path.write_text('{"kind": "rsa-pem", "seed": "AA=="}')
        with pytest.raises(ValueError):
            load_keypair(path)


def test_auth_method_constant():
    assert sample_document().document.auth_method == AUTH_METHOD_ED25519
