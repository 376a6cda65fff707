"""Exception taxonomy shared across the package."""


class QbmError(Exception):
    """Base class for all package-specific errors."""


class DivergentKernel(QbmError):
    """Imaginary-time kernel requested outside its convergence domain."""


class BranchCut(QbmError):
    """Self-energy evaluated on its branch cut without a prescription."""


class PoleOnAxis(QbmError):
    """Thermal self-energy hit an on-axis pole with prescriptions disabled."""


class InvalidGrid(QbmError):
    """Discretization or sweep grid parameters are unusable."""


class Instability(QbmError):
    """Kernel pole found beyond the solver's abscissa search window."""


class NoConvergence(QbmError):
    """Bromwich series failed its internal error estimate."""


class NonNormalizable(QbmError):
    """Gaussian kernel or moments violate normalizability."""


class NonTraceable(QbmError):
    """Bath block of the Gaussian partial trace is singular or not positive."""


class InvertedPotential(QbmError):
    """Stiffness matrix of the discretized model is not positive definite."""


class ZeroTemperature(QbmError):
    """Reduced partition function degenerates at the zero-temperature edge."""


class BranchAmbiguity(QbmError):
    """Moments fall on the unsupported branch (n + 1/2)^2 < |s|^2."""


class TruncationError(QbmError):
    """Fock-space truncation sensitivity exceeds tolerance."""


class UnstableReducedPotential(QbmError):
    """Reduced Hamiltonian has no real eigenfrequency."""


class ConfigError(QbmError):
    """Run configuration is malformed; carries the offending key."""

    def __init__(self, key: str, reason: str):
        self.key = key
        self.reason = reason
        super().__init__(f"{key}: {reason}")
