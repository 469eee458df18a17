"""Exception types shared across the package."""


class TrafficError(Exception):
    """Base class for errors raised by ringwave."""


class NoEquilibriumError(TrafficError):
    """No equilibrium flow exists for the requested speed or road length."""


class CollisionError(TrafficError):
    """A headway reached zero during evaluation or integration."""

    def __init__(self, message: str, *, time: float | None = None, index: int | None = None):
        super().__init__(message)
        self.time = time
        self.index = index


class ModelInvalidError(TrafficError):
    """A linearized trio violates alpha > 0 or beta > gamma > 0."""


class AmbiguousHeadwayError(TrafficError):
    """A custom driver law has more than one zero-acceleration headway."""


class PoleError(TrafficError):
    """The transfer product was evaluated at one of its poles."""


class InsufficientDataError(TrafficError):
    """Too few trace samples inside the requested fit window."""


class ConfigError(TrafficError):
    """An experiment configuration failed validation."""
