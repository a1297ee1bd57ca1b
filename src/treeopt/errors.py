"""Exceptions shared across the toolkit.

The CLI maps these onto exit codes: usage errors (ValueError and friends)
and OSError exit 2, cap refusals exit 3, internal consistency faults exit 4.
"""


class Graph6Error(ValueError):
    """Malformed graph6 input. `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedSizeError(ValueError):
    """Input is structurally valid but outside a hard size limit."""


class CapsExceededError(Exception):
    """Requested class is beyond the enumeration size caps."""


class InternalConsistencyError(Exception):
    """A self-check failed: two routes disagreed, a forked task was lost, a
    REFUTED certificate has no witness, a candidate is missing from its
    class. Indicates a bug, never bad input."""
