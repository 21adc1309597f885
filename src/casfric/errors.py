"""Exception types shared across the package."""


class NumericalFailure(RuntimeError):
    """An evolution or quadrature left its validated operating regime."""


class InvertedModeError(NumericalFailure):
    """Coupling strong enough to invert a normal mode (Omega^2 <= 0)."""


class NormDriftError(NumericalFailure):
    """State-vector norm drifted beyond tolerance; refine the step, or raise the truncation if the step is stable."""


class TailSpanError(NumericalFailure):
    """Grid does not reach far enough into the coupling tails."""
