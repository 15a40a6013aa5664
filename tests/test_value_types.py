"""The value types the program keeps per guest, per transaction and per call
are slotted dataclasses: no instance holds a `__dict__`, and equality, hash,
repr and `dataclasses.replace` still read exactly the declared fields."""

import dataclasses

import pytest

from ghub.hub import GatewayLink, GuestSession
from ghub.identity import Challenge, Did, build_and_sign_guest_document
from ghub.pdp import AccessDecision, PolicyRequest, PolicyVerdict, ReplicaFailure
from ghub.registry import (
    GENESIS_PREV_HASH,
    KIND_CREATE,
    LedgerBlock,
    MemberId,
    ResolutionResult,
    ResolutionStatus,
    signed_tx,
)
from ghub.wire import Envelope
from helpers import NOW, seeded_keypair


def signed_document():
    return build_and_sign_guest_document(seeded_keypair(7), seeded_keypair(3).public_key, ["iot:hue/light1"], None, NOW + 60, NOW)


# each factory builds a new object equal to the one before
SAMPLES = {
    "Did": lambda: Did(id=seeded_keypair(3).did.id),
    "DidDocument": lambda: signed_document().document,
    "SignedDidDocument": signed_document,
    "Challenge": lambda: Challenge(nonce=b"n" * 32, issued_at=NOW, hub_id="hub1"),
    "RegistryTx": lambda: signed_tx(KIND_CREATE, signed_document().document.id, signed_document(), seeded_keypair(7), "alice", 1),
    "MemberId": lambda: MemberId(seeded_keypair(7).public_key, "alice"),
    "LedgerBlock": lambda: LedgerBlock(0, GENESIS_PREV_HASH, (), "ab" * 32),
    "ResolutionResult": lambda: ResolutionResult(ResolutionStatus.ACTIVE, signed_document(), 4),
    "PolicyRequest": lambda: PolicyRequest("did:ghub:x", "iot:hue/light1", "read", {"hour": 3}, NOW),
    "PolicyVerdict": lambda: PolicyVerdict(True, NOW + 60, "r1", b"s" * 64),
    "ReplicaFailure": lambda: ReplicaFailure("local:r1", "timeout"),
    "AccessDecision": lambda: AccessDecision(True, NOW + 60, "simple-document", "listed"),
    "Envelope": lambda: Envelope("id-1", "hub.access", {"a": 1}),
    "GuestSession": lambda: GuestSession("s" * 32, seeded_keypair(3).did, signed_document()),
    "GatewayLink": lambda: GatewayLink("local:gw", "token"),
}

pytestmark = pytest.mark.parametrize("make", SAMPLES.values(), ids=SAMPLES.keys())


def field_values(value) -> tuple:
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


def test_no_instance_dict(make):
    value = make()
    assert not hasattr(value, "__dict__")
    assert type(value).__slots__ == tuple(f.name for f in dataclasses.fields(value))
    with pytest.raises((AttributeError, TypeError)):
        value.undeclared = 1


def test_equality_covers_the_fields(make):
    a, b = make(), make()
    assert a == b and a is not b
    first = dataclasses.fields(a)[0].name
    assert a != dataclasses.replace(a, **{first: "other"})


def test_hash_is_the_hash_of_the_fields(make):
    value = make()
    if type(value).__hash__ is None:  # a mutable session is not hashable, as before
        with pytest.raises(TypeError):
            hash(value)
        return
    try:
        expected = hash(field_values(value))
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(value)
        return
    assert hash(value) == expected == hash(make())


def test_repr_names_every_shown_field(make):
    value = make()
    shown = ", ".join(f"{f.name}={getattr(value, f.name)!r}" for f in dataclasses.fields(value) if f.repr)
    assert repr(value) == f"{type(value).__qualname__}({shown})"


def test_replace_builds_a_new_value(make):
    value = make()
    last = dataclasses.fields(value)[-1].name
    copy = dataclasses.replace(value, **{last: getattr(value, last)})
    assert copy == value and copy is not value and type(copy) is type(value)
    changed = dataclasses.replace(value, **{last: None})
    assert getattr(changed, last) is None
    assert field_values(changed)[:-1] == field_values(value)[:-1]
