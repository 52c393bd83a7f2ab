"""Exception types shared across the package."""


class ConfigError(Exception):
    """Bad, missing, or unknown experiment-config key; the message names the key."""


class AssemblyError(ValueError):
    """Controller parameter set violates a validity requirement."""


class CapabilityError(RuntimeError):
    """The transformed frame or the averaged system is undefined for this schedule and map's convexity order."""


class AssumptionViolation(RuntimeError):
    """Sampled cost values contradict the declared minimum/growth structure."""


class WindowTooLate(RuntimeError):
    """Requested fit window lies below the numerical noise floor."""


class IntegrationDiverged(RuntimeError):
    """State left the finite range during integration.

    Carries the last time with a finite state and the partial trajectory
    recorded up to that point, which holds at least the start.
    """

    def __init__(self, message, t_last, trajectory):
        super().__init__(message)
        self.t_last = t_last
        self.trajectory = trajectory


class WorkerLost(RuntimeError):
    """A worker process ended without returning its job's result, for example killed from outside."""
