"""Numerical lab for toric degenerations of flag manifolds and the
concentration behaviour of quantized sections."""

__version__ = "0.1.0"


class ToleranceError(RuntimeError):
    """A numerical invariant did not hold.  `invariant` names it; the CLI
    prints `tolerance failure: <invariant>: <detail>` and exits 1."""

    def __init__(self, invariant: str, detail: str):
        super().__init__(detail)
        self.invariant = invariant
