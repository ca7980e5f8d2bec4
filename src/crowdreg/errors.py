"""Exception taxonomy shared across the package."""


class CrowdregError(Exception):
    """Base class for all package errors."""


# --- encoding ---

class DecodeError(CrowdregError):
    """Bytes do not decode: a short length prefix or a short field."""


class EncodeError(CrowdregError):
    """A value has no canonical encoding: a negative integer, or a
    verification payload with a field of another type than the one its
    encoding takes (`payload.VerificationPayload`)."""


# --- regulation ---

class RegulationSyntaxError(CrowdregError):
    """Regulation text does not match the grammar."""


class ThresholdRangeError(CrowdregError):
    """Threshold is negative."""


class EmptyRegistryError(CrowdregError):
    """A forall position expands over an empty registry set."""


class UnexpandedForAllError(CrowdregError):
    """Operation requires a regulation with no forall wildcards."""


class NoEnforceableRegulationError(CrowdregError):
    """Budget computation needs at least one enforceable regulation."""


# --- credentials ---

class MalformedKeyError(CrowdregError):
    """Key material breaks the one key rule of `credentials`: an unknown suite
    tag or suite, a key or seed that is not 32 bytes, or a low-order X25519
    manager key."""


class EmptyGroupError(CrowdregError):
    """Group setup needs at least one member."""


class NotManagerError(CrowdregError):
    """Opening attempted with a key other than the manager's."""


class OpeningInvalidError(CrowdregError):
    """Opening envelope decrypted but its inner evidence does not verify."""


# --- tokens ---

class BudgetExhaustedError(CrowdregError):
    """No unspent token remains for an applicable enforceable regulation."""


class SignatureRefusedError(CrowdregError):
    """A participant declined to co-sign a spend request."""


class InsufficientEvidenceError(CrowdregError):
    """Fewer committed v-tokens than a verifiable regulation requires."""


class MalformedEvidenceError(CrowdregError):
    """Alert evidence is not self-contained or does not verify."""


class ConfigError(CrowdregError):
    """A set-up that cannot be built: full v-token generation would exceed the
    tuple cap (declare the tuples), platform ids are not the topology's, a
    registry group is not a tuple of str or a registry lists an id twice, in
    one role or in two, a topology repeats a platform or a node or gives a
    platform the wrong number of nodes, the RA issues a nonce twice, or a
    node that `ledger.certify` needs a vote from has no key."""


# --- ledger ---

class InvalidBlockError(CrowdregError):
    """A ledger record is malformed when it is built (the shape rule of
    `Transaction` and `TransactionBlock`), or a ledger view refuses the block
    (`LedgerView.refusal`)."""


class GapError(InvalidBlockError):
    """Append would skip a sequence number for this platform."""


class CycleDetectedError(CrowdregError):
    """Union of ledger views is not acyclic."""


# --- registry and deployment ---

class UnknownParticipantError(CrowdregError):
    """An id that a participant registry does not list, or not in the role
    asked."""
