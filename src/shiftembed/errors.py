"""Exception hierarchy and verification record shared across the package.

Every error raised on a structural failure carries enough provenance
(scale, block or position) to locate the offending object.  Every check
that reports instead of raising (schedule, tower and pipeline verification)
gives one `VerifyRecord` per check, collected in a `VerifyReport`.
"""

from dataclasses import dataclass, field


class ShiftEmbedError(Exception):
    """Base class for all package errors."""


class SpecParseError(ShiftEmbedError):
    """Malformed system/point/schedule document."""


class EmptySubshiftError(ShiftEmbedError):
    """Forbidden words kill every bi-infinite sequence."""


class InvalidPointError(SpecParseError):
    """Point representation is not admissible for its system."""


class EnumerationBudgetError(ShiftEmbedError):
    """A word enumeration would exceed the configured size budget."""


class SeparationError(ShiftEmbedError):
    """Cylinder radius too small to separate periodic orbits; enlarge r."""


class ScheduleError(ShiftEmbedError):
    """No admissible scale schedule (e.g. h_top >= log K), or invalid override."""


class PeriodicPointsError(ScheduleError):
    """More points of some least period below n_1 than the full K-shift has."""


class CapacityError(ShiftEmbedError):
    """Codebook domain exceeds K**length, or a block is too short for its budgets."""

    def __init__(self, message, scale=None, block=None):
        super().__init__(message)
        self.scale = scale
        self.block = block


class NestingError(ShiftEmbedError):
    """A special singular block whose deep middle lies outside the singular
    blocks of the previous scale."""

    def __init__(self, message, scale=None, block=None, position=None):
        super().__init__(message)
        self.scale = scale
        self.block = block
        self.position = position


class MalformedStreamError(ShiftEmbedError):
    """Symbol stream admits no consistent block parse."""

    def __init__(self, message, scale=None, position=None):
        super().__init__(message)
        self.scale = scale
        self.position = position


class WindowError(ShiftEmbedError):
    """Window too small for the requested operation (caller must widen)."""

    def __init__(self, message, scale=None, position=None):
        super().__init__(message)
        self.scale = scale
        self.position = position


@dataclass
class VerifyRecord:
    module: str
    name: str
    scale: object
    ok: bool
    detail: str = ""

    def line(self):
        return "%s %s scale=%s %s %s" % (self.module, self.name, self.scale,
                                         "PASS" if self.ok else "FAIL", self.detail)


@dataclass
class VerifyReport:
    records: list = field(default_factory=list)

    def add(self, module, name, scale, ok, detail=""):
        self.records.append(VerifyRecord(module, name, scale, ok, detail))

    @property
    def passed(self):
        return all(r.ok for r in self.records)

    def lines(self):
        return [r.line() for r in self.records]
