"""Exception hierarchy shared by all modules."""


class ShardChainError(Exception):
    """Base class for every protocol-level rejection."""


# --- codec / keys ---

class InvalidSeed(ShardChainError):
    pass


class KeyMismatch(ShardChainError):
    pass


class InvalidSignature(ShardChainError):
    pass


class DecodeError(ShardChainError):
    pass


# --- subchain STF ---

class SubchainError(ShardChainError):
    """Base for state-transform rejections; carries the offending height."""

    def __init__(self, msg="", height=None, address=None):
        super().__init__(msg)
        self.height = height
        self.address = address


class BadLink(SubchainError):
    pass


class InsufficientBalance(SubchainError):
    pass


class DoubleClaim(SubchainError):
    pass


class UnconfirmedSend(SubchainError):
    pass


class AmountMismatch(SubchainError):
    pass


class WrongRecipient(SubchainError):
    pass


class FragmentMisaligned(SubchainError):
    pass


class ConfirmedFrozen(SubchainError):
    pass


# --- main chain ---

class MainChainError(ShardChainError):
    pass


class MalformedBits(MainChainError):
    pass


class BadPoW(MainChainError):
    pass


class Oversize(MainChainError):
    pass


class UnsortedRecords(MainChainError):
    pass


class RootMismatch(MainChainError):
    pass


class StaleConfirmation(MainChainError):
    pass


class ConfirmationMismatch(MainChainError):
    """Record tip does not match the verified fragment's resulting tip."""


class UnknownParent(MainChainError):
    pass


# --- sharding / network ---

class MaxDepth(ShardChainError):
    pass


class ParentFull(ShardChainError):
    pass


class NoHost(ShardChainError):
    pass


class Timeout(ShardChainError):
    pass


# --- node / pool ---

class NotHosted(ShardChainError):
    pass


class RangeUnavailable(ShardChainError):
    pass


class DuplicateHashConflict(ShardChainError):
    pass


class TailConflict(ShardChainError):
    pass


class PartialFetch(ShardChainError):
    pass


# --- wallet ---

class Immature(ShardChainError):
    pass


class AlreadyClaimed(ShardChainError):
    pass


# --- harness ---

class ConfigInvalid(ShardChainError):
    pass


class InvariantViolation(ShardChainError):
    """A conservation or oracle cross-check failed inside the simulator."""
