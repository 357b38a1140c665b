"""Exception types shared across the package."""


class Sc3Error(Exception):
    """Base class for all package errors."""


class ZeroResourceForPositiveData(Sc3Error):
    """A data part has positive bits but no compute or rate assigned to it."""


class NoFeasibleFlow(Sc3Error):
    """The sensor data cannot move anywhere (zero compute and zero backhaul)."""


class SingularStateMatrix(Sc3Error):
    """det(A) = 0, so the intrinsic entropy rate is undefined."""


class UnsupportedStructure(Sc3Error):
    """A plant mode has a zero input gain, so no control can reach it."""


class NoConvergence(Sc3Error):
    """A fixed-point or descent iteration exhausted its iteration budget."""


class CostBelowFloor(Sc3Error):
    """Requested LQR cost is at or below the information-theoretic floor."""


class Unstabilizable(Sc3Error):
    """Entropy supply does not exceed the loop's intrinsic entropy rate."""


class Infeasible(Sc3Error):
    """No stabilizing allocation exists under the given budgets."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report if report is not None else []


class InfeasibleSubproblem(Infeasible):
    """The convex inner problem admits no stabilizing point."""


class BadOverride(Sc3Error):
    """Unknown key passed to the scenario generator or sweep parser."""


class BadConfig(Sc3Error):
    """An input file holds a malformed or out-of-range value, or a file
    cannot be read or written."""
