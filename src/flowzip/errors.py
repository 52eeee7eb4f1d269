"""Exception hierarchy shared across the toolkit.

CLI exit-code mapping: UsageError -> 1, VerificationError -> 3, every
other FlowzipError -> 2: DataFormatError, AlphabetOverflowError,
StageTimeoutError and DivergenceError.
"""


class FlowzipError(Exception):
    """Base class for all flowzip errors."""


class UsageError(FlowzipError):
    """Bad command-line arguments or invalid API usage."""


class DataFormatError(FlowzipError):
    """Malformed input data: images, config files, containers, checkpoints."""


class VerificationError(FlowzipError):
    """Integrity check failed (checksum mismatch, corrupt stream state)."""


class CorruptStreamError(VerificationError):
    """An entropy-coded payload failed to decode consistently."""


class ChecksumError(VerificationError):
    """Stored checksum does not match recomputed checksum."""


class AlphabetOverflowError(FlowzipError):
    """A latent value fell outside the symbol alphabet; widen the alphabet."""


class StageTimeoutError(FlowzipError):
    """A training stage hit its epoch cap before meeting its stop condition."""


class DivergenceError(FlowzipError):
    """A training step's loss was not finite; the stage stops before its checkpoint."""
