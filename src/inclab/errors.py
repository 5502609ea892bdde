"""Exception types shared across the package."""


class InclabError(Exception):
    """Base class for all package-specific failures."""


class InvalidShapeError(InclabError, ValueError):
    """Shape parameters violate a constructor precondition."""


class ResolutionError(InclabError, ValueError):
    """Requested discretization is below the supported minimum."""


class NearBoundaryError(InclabError, ValueError):
    """Evaluation point too close to the boundary for the given grid."""


class EmptySampleError(InclabError, ValueError):
    """Interior sampling could not satisfy the margin constraint."""


class SolveError(InclabError, RuntimeError):
    """Boundary solve failed or its residual exceeded the contract."""


class DomainError(InclabError, ValueError):
    """Point lies outside the domain of an analytic map."""


class ConfigError(InclabError, ValueError):
    """Invalid run configuration (bad flag value, malformed shape description)."""
