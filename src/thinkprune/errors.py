"""Exception types shared across the library."""


class PruneError(Exception):
    """Base class for every error raised by this package."""


class InputFormatError(PruneError):
    """A structured input (file or dict) is malformed; the message names the offending field."""


class EmptyReasoningRegion(PruneError):
    """The trace has no tokens after the prompt, so there is nothing to segment."""


class OffsetOutOfRange(PruneError):
    """A character offset falls outside the trace text."""


class NonNormalizedRow(PruneError):
    """An attention row's weights do not sum to one within tolerance."""


class BudgetExceedsStep(PruneError):
    """More evictions were requested from a step than it has live tokens."""


class ProtectedTokenEviction(PruneError):
    """An eviction plan touches a prompt or recent-window token."""


class UnknownToken(PruneError):
    """An eviction plan names a token that is not live at that (layer, head)."""


class BudgetInfeasible(PruneError):
    """A cache budget cannot be satisfied (cap smaller than the protected regions)."""


class SequenceTooLong(PruneError):
    """A prompt, or a forward's position, does not fit under the model's maximum
    sequence length."""


class ProbeLeak(PruneError):
    """A probe token survived in the cache after a probe cycle."""
