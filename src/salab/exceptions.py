"""Exception types shared across the package."""

from contextlib import contextmanager


class SalabError(Exception):
    """Base class for package-specific failures."""


class ShapeError(SalabError, ValueError):
    """Operand shapes are incompatible."""


class EmptyPoolError(SalabError, ValueError):
    """A pooling or attention row had no unmasked entries."""


class PoisonedGradientError(SalabError, RuntimeError):
    """A gradient was non-finite (NaN or Inf); the optimizer step was aborted."""


class GraphConsumedError(SalabError, RuntimeError):
    """backward() reached a graph that an earlier backward() already freed."""


class NoTapeError(SalabError, RuntimeError):
    """backward() on an output that keeps no tape, so no gradient can reach a leaf."""


class UndefinedMetricError(SalabError, ValueError):
    """A metric is undefined for the given label composition."""


class EmptyDocumentError(SalabError, ValueError):
    """A document contained no tokens after truncation."""


class CheckpointError(SalabError, ValueError):
    """A checkpoint file is foreign or truncated, or does not fit the model."""


class DatasetError(SalabError, ValueError):
    """A dataset file has a line that is not a well-formed document."""


class BatchMemoryError(SalabError, MemoryError):
    """A batch of token ids [B, T, W] ran out of memory in `batch_memory_guard`; the message names its shape."""

    def __init__(self, shape: tuple, cause: MemoryError):
        super().__init__(f"a batch of [B, T, W] = {list(shape)} ran out of memory ({cause or 'no details'})")


@contextmanager
def batch_memory_guard(shape: tuple):
    try:
        yield
    except BatchMemoryError:
        raise
    except MemoryError as e:
        raise BatchMemoryError(shape, e) from e
