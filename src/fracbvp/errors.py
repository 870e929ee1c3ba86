"""Exception taxonomy shared by all solver modules.

Hypothesis violations are raised before any heavy computation starts and
carry the name of the failing precondition so the CLI can report it
machine-readably.  Non-convergence errors carry the last iterate for
post-mortem inspection.

Each class carries the CLI exit code and the ``error`` kind of its
``error.json``; ``report_fields`` names the attributes that report adds.
"""

EXIT_HYPOTHESIS = 2
EXIT_NONCONVERGENCE = 3


class FracBVPError(Exception):
    """Base class for all package errors: a solver produced no result."""

    exit_code = EXIT_NONCONVERGENCE
    kind = "non_convergence"
    report_fields = ()


class HypothesisError(FracBVPError, ValueError):
    """A structural precondition on the problem data is violated.

    ``hypothesis`` names the violated condition, e.g. ``weight-positivity``,
    ``nonlinearity-positivity``, ``sublinear-ratio-condition``,
    ``superlinear-ratio-condition``, ``multiplicity-parameter-condition``,
    ``order-range``, ``mesh-size``, ``mesh-grading``, ``shooting-range`` or
    ``problem-spec``.  It is also a ``ValueError``: the data is invalid.
    """

    exit_code = EXIT_HYPOTHESIS
    kind = "hypothesis_violation"
    report_fields = ("hypothesis",)

    def __init__(self, hypothesis, message):
        super().__init__(f"{hypothesis}: {message}")
        self.hypothesis = hypothesis


class ConvergenceError(FracBVPError):
    """An iteration ran out of budget.  ``last`` holds the final iterate."""

    report_fields = ("iterations", "residual")

    def __init__(self, message, last=None, iterations=None, residual=None):
        super().__init__(message)
        self.last = last
        self.iterations = iterations
        self.residual = residual


class DegeneratePointError(ConvergenceError):
    """Newton hit a (numerically) singular linearization."""


class MonotonicityError(FracBVPError):
    """A monotone iteration produced a non-monotone step; the nonlinearity
    does not satisfy the ordering assumptions on the bracket range."""

    exit_code = EXIT_HYPOTHESIS
    kind = "hypothesis_violation"
    hypothesis = "monotonicity"
    report_fields = ("hypothesis",)


class IntegrationError(FracBVPError):
    """The IVP integrator failed; ``partial`` holds the trajectory so far."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class HorizonError(FracBVPError):
    """No zero of the shooting solution before the integration horizon."""

    def __init__(self, message, x_max=None):
        super().__init__(message)
        self.x_max = x_max


class TransversalityError(FracBVPError):
    """|u'(z)| is numerically zero; the zero of u is not transversal."""


class ScalingError(FracBVPError):
    """The scale exponent does not reproduce the unit-interval equation
    within tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}
