"""Exception hierarchy for the simulator and protocol machinery."""


class RrrtError(Exception):
    """Base class for all package errors."""


class PastTime(RrrtError):
    """Attempt to schedule an event before the current virtual clock."""


class UnknownLink(RrrtError):
    """Referenced link does not exist in the topology."""


class NoRoute(RrrtError):
    """No usable next hop towards the destination."""


class UnknownTarget(RrrtError):
    """Fault injection aimed at a node or link that does not exist."""


class InvalidTarget(RrrtError):
    """Reliability target is ill-formed (e.g. desired packet count of zero)."""


class InconsistentStats(RrrtError):
    """Interval statistics contradict the classified network condition."""


class DegenerateProbe(RrrtError):
    """Probe reached the receiver without any intermediate delay update."""


class DeadlineExpired(RrrtError):
    """Remaining event-to-action deadline is not positive while data remains."""


class StaleFeedback(RrrtError):
    """Rate feedback older than the last applied one; caller should ignore."""


class UnknownParameter(RrrtError):
    """Sweep refers to a configuration path that does not exist."""


class Corrupt(RrrtError):
    """Serialized trace cannot be parsed.

    Carries the byte offset (or line number) where parsing failed.
    """

    def __init__(self, offset, message="corrupt trace"):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class Validation(RrrtError):
    """A single scenario-field violation: field name plus reason."""

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class ScenarioInvalid(RrrtError):
    """Aggregate of every Validation found while loading a scenario."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"{len(self.violations)} violation(s): {lines}")


class InvariantViolation(RrrtError):
    """A runtime invariant of the simulation was broken (always fatal)."""
