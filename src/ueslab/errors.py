"""Exception types shared across the package."""


class ConfigError(Exception):
    """Bad, missing, or unknown experiment-config key; the message names the key."""


class AssemblyError(ValueError):
    """Controller parameter set violates a validity requirement."""


class CapabilityError(RuntimeError):
    """Operation needs map data (optimum, bounds, convexity order) that is absent."""


class AssumptionViolation(RuntimeError):
    """Sampled cost values contradict the declared minimum/growth structure."""


class WindowTooLate(RuntimeError):
    """Requested fit window lies below the numerical noise floor."""


class IntegrationDiverged(RuntimeError):
    """State left the finite range during integration.

    Carries the last time with a finite state and the partial trajectory
    recorded up to that point (may be None if nothing was recorded).  For a
    batch of states, ``rows`` names the rows that went non-finite; it is None
    when the failure cannot be pinned to rows, as when the rhs raised.
    """

    def __init__(self, message, t_last, trajectory=None, rows=None):
        super().__init__(message)
        self.t_last = t_last
        self.trajectory = trajectory
        self.rows = rows


class WorkerLost(RuntimeError):
    """A worker process ended without returning its job's result, for example killed from outside."""
