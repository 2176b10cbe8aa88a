"""Exception types raised by the library.

Every failure mode that callers are expected to handle gets its own class;
all inherit from AnnuharmError so blanket handling stays possible.
"""


class AnnuharmError(Exception):
    """Base class for all library errors."""


class UnknownMetric(AnnuharmError):
    """Metric spec string names no built-in density."""


class BadParameter(AnnuharmError):
    """Metric spec string carries a malformed or misplaced parameter."""


class OutOfDomain(AnnuharmError):
    """A radius or radius interval falls outside a metric's validity interval."""


class NoConvergence(AnnuharmError):
    """An adaptive routine exhausted its work budget without meeting tolerance."""


class DivergentIntegral(AnnuharmError):
    """An endpoint singularity is too strong to be integrable."""


class NoBracket(AnnuharmError):
    """Root finding was given endpoints with equal signs."""


class BelowCritical(AnnuharmError):
    """The requested domain annulus is fatter than the critical configuration
    admits; no radial minimizer exists.

    Attributes carry the critical constant and critical inner radius so
    callers can report how far the request was from feasibility.
    """

    def __init__(self, message, critical_c=None, critical_r=None):
        super().__init__(message)
        self.critical_c = critical_c
        self.critical_r = critical_r


class DivergentModulus(AnnuharmError):
    """The modulus integral diverges at the critical constant (every domain
    annulus admits a minimizer)."""


class ProfileMismatch(AnnuharmError):
    """The profile missed the inner target radius: the supplied
    (q, Q, r, c) combination is inconsistent."""


class OutOfAnnulus(AnnuharmError):
    """A query point lies outside the closed domain annulus."""


class StencilOutOfDomain(AnnuharmError):
    """A finite-difference stencil does not fit inside the annulus."""


class PerturbationLeavesRange(AnnuharmError):
    """A random radial perturbation could not be kept inside the metric's
    validity interval after the retry budget."""
