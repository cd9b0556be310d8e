"""Exception types shared across the package."""


class NclilError(ValueError):
    """Base class for all validation and precondition failures."""


class ConfigError(NclilError):
    """Invalid parameters or configuration (CLI exit code 1)."""


class ShapeError(NclilError):
    """Dimension or storage mismatch between operators and models."""


class HypothesisViolation(NclilError):
    """A named hypothesis of an inequality fails on the supplied data.

    ``item`` identifies which hypothesis: "i" (centering), "ii" (uniform
    difference bound), "iii" (bracket domination) or "lambda" (the
    admissible range of the exponential tilt).
    """

    def __init__(self, item: str, message: str):
        super().__init__(f"hypothesis {item}: {message}")
        self.item = item


class InsufficientHorizonError(NclilError):
    """The realized horizon contains no usable complete block."""
