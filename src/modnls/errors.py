"""Exception types shared across the package.

Two failure classes matter for the CLI exit-code contract: violating a
theorem hypothesis (rejected up front, exit 2) and a numerical failure
discovered during a run (exit 1). Everything else is a plain ValueError.
"""


class HypothesisError(ValueError):
    """A requested computation violates a hypothesis it depends on.

    Carries the ledger as far as it got, a JSON-ready dict (see
    dispersion.ParamLedger.to_json), or None when the raiser builds none.
    """

    def __init__(self, message, ledger=None):
        super().__init__(message)
        self.ledger = ledger


class NumericsError(RuntimeError):
    """A run failed numerically (non-contraction, tail overflow, ...).

    Carries the partial report so callers can inspect what happened.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""
