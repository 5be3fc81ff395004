"""Exception hierarchy shared across the package."""


class RelmapError(Exception):
    """Base class for all package errors."""


class CorpusError(RelmapError):
    """Corpus ingestion or cache failure (unreadable file, bad encoding)."""


class DataError(RelmapError):
    """Malformed or inconsistent input data (problem files, tables)."""


class ConfigError(RelmapError):
    """Invalid parameter value (k < 1, t <= 0, unknown mode)."""


class TransformError(RelmapError):
    """Matrix transform cannot proceed (e.g. all-zero frequency matrix)."""


class BudgetError(RelmapError):
    """Work refused because it passes a budget.

    Either exhaustive enumeration, when m! exceeds the enumeration
    budget, or the relation space's memory, when its dense arrays would
    pass the memory budget: with SVD the largest component's Gram block
    and the n_r x k factors, without it the n_r x n_r cosines.
    """


class UsageError(RelmapError):
    """Command-line usage problem."""
