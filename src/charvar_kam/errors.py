"""Exception taxonomy shared across the package."""


class JetError(ValueError):
    """Base class for structural jet errors."""


class ShapeMismatchError(JetError):
    """Operands disagree on variable count or truncation degree."""


class ConstantTermError(JetError):
    """Composition received nonzero constant terms without recentering authorization."""


class PoleError(ZeroDivisionError):
    """Parameter hit a pole of a rational formula (s = 1/2)."""


class UnrealizableError(ValueError):
    """Parameter s does not correspond to an SU(2) representation."""


class OffVarietyError(ValueError):
    """Point violates the on-variety constraint U^2 = Q - P^2/4."""


class SingularChartError(ArithmeticError):
    """Explicit elimination has a non-positive radicand at the chart center."""


class DegenerateChartError(ArithmeticError):
    """Implicit elimination has a vanishing partial derivative at the chart center."""


class ResonanceError(ArithmeticError):
    """A normal-form denominator is resonant or too close to zero."""


class NonDiagonalizableError(ArithmeticError):
    """Eigendecomposition failed the residual test (matrix defective beyond tolerance)."""


class SpectrumStructureError(ValueError):
    """Eigenvalues could not be organized into conjugate pairs."""


class ConsistencyError(ArithmeticError):
    """An exact identity the construction relies on fails for its inputs."""
