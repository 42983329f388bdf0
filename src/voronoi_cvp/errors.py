"""Shared exception types.

Exit-code mapping used by the CLI: input problems -> 2, size caps -> 3,
broken internal contracts -> 4.
"""


class InputError(ValueError):
    """Malformed user input (files, flags, parameters)."""


class SizeCapError(RuntimeError):
    """A configured enumeration / dimension cap would be exceeded."""


class ContractViolation(AssertionError):
    """A documented precondition or internal invariant failed."""


class TieDetected(RuntimeError):
    """Exact tie between candidate exit facets during line following.

    Carries the tied relevant vectors so the caller can decide between
    resampling the perturbation and a deterministic override.
    """

    def __init__(self, tied, alpha, step):
        super().__init__(
            f"facet exit tie among {len(tied)} relevant vectors at step {step}"
        )
        self.tied = tied
        self.alpha = alpha
        self.step = step


class RestartLimitExceeded(RuntimeError):
    """The Las Vegas attempt loop ran out of attempts without an answer."""
