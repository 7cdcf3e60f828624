"""Exception types shared across the solver modules."""


class DepcaError(Exception):
    """Base class for all solver errors."""


class ExpmOverflowError(DepcaError):
    """The matrix exponential needs more squarings than the cap, or overflows.

    Signals an ill-posed propagation window (||A t|| far too large).
    """


class EigenvalueError(DepcaError):
    """Eigenvalue iteration failed to converge."""


class BoundaryEigenvalueError(DepcaError):
    """An eigenvalue sits on the stability boundary: no exponential dichotomy.

    Carries the offending eigenvalue and its distance to the boundary.
    """

    def __init__(self, eigenvalue: complex, margin: float, mode: str):
        self.eigenvalue = eigenvalue
        self.margin = margin
        self.mode = mode
        boundary = "imaginary axis" if mode == "continuous" else "unit circle"
        super().__init__(
            f"eigenvalue {eigenvalue:.6g} lies within {margin:.3g} of the "
            f"{boundary}: no exponential dichotomy"
        )


class NotTriangularizableError(DepcaError):
    """No simultaneous triangularization was found for the matrix pair."""


class UserTInvalidError(DepcaError):
    """A user-supplied change of basis does not triangularize both matrices."""


class SingularCoefficientError(DepcaError):
    """A difference-equation coefficient matrix is numerically singular."""


class SingularCError(DepcaError):
    """The companion coefficient C = Z(n+1, n) is singular.

    The hybrid equation then has no backward-complete solution flow; the
    standing invertibility hypothesis on the propagator fails.  ``det`` is
    the per-factor scale-free determinant (|det C| e^{-Re tr A})^(1/p).
    """

    def __init__(self, det: float):
        self.det = det
        super().__init__(
            f"companion coefficient is singular ((|det C| e^(-Re tr A))^(1/p) = "
            f"{det:.3g}): no backward-complete solution flow"
        )


class ZInvertibilityError(DepcaError):
    """The interval propagator Z(t, tau) fails its invertibility screen."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class EigenConditionFailError(DepcaError):
    """An eigenvalue pair violates the propagator invertibility condition,
    or, with ``overflow``, its factor is not finite from ``u_star`` on."""

    def __init__(self, index: int, u_star: float, overflow: bool = False):
        self.index = index
        self.u_star = u_star
        self.overflow = overflow
        super().__init__(
            f"eigenvalue invertibility condition fails at cascade level {index}: "
            + (f"the pair factor is not finite from u = {u_star:.12g}" if overflow
               else f"the pair hits -1 at u* = {u_star:.12g}")
        )


class NoDichotomyError(DepcaError):
    """The companion difference system is not hyperbolic.

    Raised when the coefficient spectrum touches the unit circle, where no
    unique bounded solution can be selected.
    """


class InvalidCertificateError(DepcaError):
    """A dichotomy certificate failed verification and cannot be used."""


class ContinuityBreachError(DepcaError):
    """Stitched trajectory segments fail to meet at an integer node."""


class ResidualCheckError(DepcaError):
    """A computed trajectory violates its interior ODE residual bound."""


class QuadratureError(DepcaError):
    """Adaptive quadrature failed to converge within the refinement cap."""


class WindowTooSmallError(DepcaError):
    """A diagnostic window does not cover enough of the signal."""


class ConfigError(DepcaError):
    """Base class for CLI configuration problems."""


class ParseError(ConfigError):
    """Config file is not well-formed."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        self.message = message
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class ValidationError(ConfigError):
    """Config file is well-formed but violates the schema."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")
