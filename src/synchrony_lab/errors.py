"""Exception types shared across the library."""


class SynchronyError(Exception):
    """Base class for all errors raised by synchrony_lab."""


class DegenerateConvention(SynchronyError):
    """The (beta, k) pair makes the coordinate chart singular.

    Raised when (1 + beta*k)^2 - beta^2 <= 0, i.e. the chart's surfaces of
    simultaneity are no longer spacelike and the normalization factor is
    undefined.
    """

    def __init__(self, beta: float, k: float):
        self.beta = beta
        self.k = k
        super().__init__(
            f"degenerate synchrony chart: (1 + beta*k)^2 - beta^2 <= 0 "
            f"for beta={beta!r}, k={k!r}"
        )


class ConventionOutOfRange(SynchronyError):
    """An induced synchrony parameter left the legal band [-1, 1]."""

    def __init__(self, k_prime: float):
        self.k_prime = k_prime
        super().__init__(f"induced synchrony parameter {k_prime!r} outside [-1, 1]")


class UnresolvableChase(SynchronyError):
    """A finite-speed signal can never reach a receding target clock."""


class NotSynchronized(SynchronyError):
    """A measurement was requested before any synchronization protocol ran."""


class FileInvalid(SynchronyError):
    """An input file could not be opened, decoded or parsed; the message is the cause's type."""


class ScenarioError(ValueError):
    """A scenario file violates an invariant; carries a machine-readable tag."""

    def __init__(self, invariant: str, field_name: str, detail: str = ""):
        self.invariant = invariant
        self.field_name = field_name
        msg = f"scenario field {field_name!r} violates invariant {invariant!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class IllConditioned(SynchronyError):
    """The fit is unconstrained (under three distinct velocities) or its arithmetic overflowed."""
