"""Exception taxonomy shared across the package."""


class CrowdregError(Exception):
    """Base class for all package errors."""


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
    """Key material cannot be parsed."""


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
    """Full v-token generation would exceed the tuple cap; declare the tuples."""


# --- ledger ---

class GapError(CrowdregError):
    """Append would skip a sequence number for this platform."""


class InvalidBlockError(CrowdregError):
    """Block failed validation on append."""


class CycleDetectedError(CrowdregError):
    """Union of ledger views is not acyclic."""
