"""Guest access control for multi-tenant IoT hubs.

Owners sign guest DID documents into a permissioned hash-chained registry;
hubs authenticate guests by challenge-response against the document's key,
authorize from the document's allow-list or via replicated policy decision
points combined by a consensus rule, and invoke unmodified gateways with the
owner's linked-account tokens.
"""

from .canonical import canonical_bytes, canonical_text
from .identity import (
    Challenge,
    Did,
    DidDocument,
    DocumentStatus,
    Keypair,
    SignedDidDocument,
    build_and_sign_guest_document,
    canonicalize,
    derive_did,
    generate_keypair,
    make_challenge,
    respond_to_challenge,
    verify_challenge,
    verify_document,
)
from .registry import (
    LedgerBlock,
    MemberId,
    Registry,
    RegistryClient,
    RegistryError,
    RegistryTx,
    ResolutionResult,
    ResolutionStatus,
)
from .pdp import (
    AccessDecision,
    ConsensusRule,
    PdpReplica,
    PolicyRequest,
    PolicyRule,
    PolicyUri,
    PolicyVerdict,
    aggregate,
    decide,
    evaluate,
    parse_policy,
    parse_policy_uri,
)
from .hub import GatewayLink, GuestSession, Hub, HubConfig, HubError
from .gateway import Gateway, GatewayResponse
from .wire import Envelope, ServiceError, WireServer

__version__ = "0.1.0"

__all__ = [
    "AccessDecision",
    "Challenge",
    "ConsensusRule",
    "Did",
    "DidDocument",
    "DocumentStatus",
    "Envelope",
    "Gateway",
    "GatewayLink",
    "GatewayResponse",
    "GuestSession",
    "Hub",
    "HubConfig",
    "HubError",
    "Keypair",
    "LedgerBlock",
    "MemberId",
    "PdpReplica",
    "PolicyRequest",
    "PolicyRule",
    "PolicyUri",
    "PolicyVerdict",
    "Registry",
    "RegistryClient",
    "RegistryError",
    "RegistryTx",
    "ResolutionResult",
    "ResolutionStatus",
    "ServiceError",
    "SignedDidDocument",
    "WireServer",
    "aggregate",
    "build_and_sign_guest_document",
    "canonical_bytes",
    "canonical_text",
    "canonicalize",
    "decide",
    "derive_did",
    "evaluate",
    "generate_keypair",
    "make_challenge",
    "parse_policy",
    "parse_policy_uri",
    "respond_to_challenge",
    "verify_challenge",
    "verify_document",
]
