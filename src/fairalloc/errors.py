"""Typed errors raised on domain violations.

Every arithmetic precondition that user data can break maps to its own
exception class, so callers (and the CLI) can report the violated rule by
name instead of guessing from a message string.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for violations of a metric's or operation's domain."""

    @property
    def name(self) -> str:
        """Bare error name, e.g. ``ZeroElement`` for ``ZeroElementError``."""
        return type(self).__name__.removesuffix("Error")


class ZeroSumError(DomainError):
    """Vector sums to zero where a share-based metric needs a positive total."""


class ZeroMeanError(DomainError):
    """Vector mean is zero where a mean-relative metric is undefined."""


class ZeroElementError(DomainError):
    """A zero element appears where strictly positive values are required."""


class ZeroInputError(DomainError):
    """An agent with zero input makes an input-relative ratio undefined."""


class ZeroBottomShareError(DomainError):
    """Bottom-40% share is zero, so the top/bottom ratio diverges."""


class DegeneratePopulationError(DomainError):
    """Population too small for the requested metric (e.g. n = 1)."""


class WeightMismatchError(DomainError):
    """Weight vector length does not match the utility vector."""


class NonFiniteScoreError(DomainError):
    """A score or ratio is not a finite float: it overflowed, or is NaN or infinite."""


class ScoringError(DomainError):
    """A domain error raised while scoring one candidate under one principle.

    Wraps the underlying :class:`DomainError` and remembers which principle
    and candidate triggered it. The three are its ``args``, so copy and
    pickle rebuild it through this constructor, as they do any exception.
    """

    def __init__(self, principle: str, candidate: str, cause: DomainError):
        super().__init__(principle, candidate, cause)
        self.principle, self.candidate, self.cause = principle, candidate, cause

    def __str__(self) -> str:
        principle, candidate, cause = self.args
        return f"principle '{principle}' on candidate '{candidate}': {cause.name}: {cause}"


class ConfigError(Exception):
    """Invalid outside input: a config document or file, or a command-line value.

    The message names what is wrong, e.g. the offending path in a document.
    """
