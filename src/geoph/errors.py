"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError -> 2, NumericalError -> 3.
"""


class GeophError(Exception):
    pass


class InputError(GeophError, ValueError):
    """Malformed or unusable input data (files, features, parameters); a ValueError too."""


class NumericalError(GeophError):
    """A geometric or numerical computation could not be completed."""


class DegenerateTriangulationError(NumericalError):
    """Triangulation input admits no triangles (for example, collinear points)."""
