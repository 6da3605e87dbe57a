"""Exception types shared across the package."""


class SparsemetricsError(Exception):
    """Base class for all package errors."""


class InvalidParams(SparsemetricsError):
    """A measure, distribution, or config parameter is out of range."""


class DegenerateInput(SparsemetricsError):
    """The requested measure is undefined for this vector (e.g. all-zero input)."""


class InvalidTransform(SparsemetricsError):
    """A criterion transformation's preconditions are not met."""


class GenerationFailure(SparsemetricsError):
    """The randomized trial generator could not produce a valid trial."""


class CatalogMiss(SparsemetricsError):
    """No catalog pair is mapped to the requested (measure, criterion) cell."""


class NonSeparableMeasure(SparsemetricsError):
    """Per-component contribution requested for a non-separable measure."""
