"""Exception types shared across the package."""


class Phi4LabError(Exception):
    """Base class for all phi4lab errors."""


class ConfigError(Phi4LabError):
    """Invalid or unreadable configuration; message names section and key."""


class ZeroFrequencyMode(Phi4LabError):
    """A grid mode has zero frequency (massless mode at k = 0)."""


class NonpositiveWeight(Phi4LabError):
    """A grid or quadrature weight is not strictly positive."""


class NegativeSpatialCutoff(Phi4LabError):
    """The spatial cutoff evaluates to a negative value at a quadrature node."""


class BasisTooLarge(Phi4LabError):
    """Requested basis exceeds the configured dimension cap."""

    def __init__(self, dim: int, cap: int):
        super().__init__(f"basis dimension {dim} exceeds cap {cap}")
        self.dim = dim
        self.cap = cap

    def __reduce__(self):  # rebuilt from (dim, cap), so it survives a pipe between processes
        return type(self), (self.dim, self.cap)


class TruncationTooSmall(Phi4LabError):
    """Occupation truncation too small for the requested quantity."""


class EpsilonOutOfRange(Phi4LabError):
    """The epsilon parameter lies outside its admissible interval."""


class IndefiniteShift(Phi4LabError):
    """Shifted operator is not positive definite; linear solve refused."""


class NoConvergence(Phi4LabError):
    """Iterative solver failed to reach tolerance within its budget."""


class SpectralConditionViolated(Phi4LabError):
    """Ground energy is not below the reduced free spectrum."""


class NearDegenerateWarning(UserWarning):
    """Two lowest Ritz values closer than the degeneracy threshold."""
