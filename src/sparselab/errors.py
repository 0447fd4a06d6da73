"""Exception hierarchy shared by all modules.

Every error carries a stable category name (the class name) which the CLI
prints as ``error[Category]: message`` on stderr.
"""


class SparseLabError(Exception):
    """Base class for all library errors."""

    @property
    def category(self):
        return type(self).__name__


class ZeroColumn(SparseLabError):
    """A dictionary column has (numerically) zero norm."""

    def __init__(self, index, norm):
        super().__init__(f"column {index} has norm {norm:.3e}, below 1e-14")
        self.index = index
        self.norm = norm


class NonFinite(SparseLabError):
    """Input contains NaN or Inf entries."""


class RankDeficient(SparseLabError):
    """Restricted dictionary D_T is numerically rank deficient."""


class BudgetExceeded(SparseLabError):
    """An exact enumeration would exceed the support-count budget."""


class Divergence(SparseLabError):
    """Iterates grew without bound (operator-norm precondition violated)."""


class ConfigError(SparseLabError):
    """Invalid experiment configuration."""
