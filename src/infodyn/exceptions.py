"""Exception types shared across the package.

The command-line front end maps these onto its exit-code contract, so
library code raises the most specific type that applies and leaves
plain ``ValueError`` for malformed arguments and inputs.
"""


class InfodynError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(InfodynError):
    """Operands live on spaces of incompatible dimension."""


class OrbitEscape(InfodynError):
    """An iterated orbit left the map's domain box."""

    def __init__(self, point, box, step_index):
        self.point = tuple(float(v) for v in point)
        self.box = box
        self.step_index = int(step_index)
        super().__init__(
            f"orbit left the domain box at step {step_index}: point={self.point}, box={box}"
        )

    def __reduce__(self):
        # A process pool pickles a worker's exception; rebuilding it from
        # the message alone would not match this signature.
        return type(self), (self.point, self.box, self.step_index)


class OutsideDomain(InfodynError):
    """A conditioning map was applied to a state outside its domain.

    Normalized conditioning maps divide by the trace of the raw output,
    so inputs for which that trace vanishes are not in the domain.
    """


class ZeroProbabilityOutcome(OutsideDomain):
    """A recognition outcome with vanishing probability was selected."""
