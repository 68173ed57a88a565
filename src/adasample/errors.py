"""Exception types shared across the package."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values and the run cannot continue.

    ``partial_log`` holds the metrics rows of the training steps that
    completed before the failure; ``trainer.train`` fills it.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.partial_log: list[dict] = []


class DegenerateOutputError(NumericError):
    """The network produced a zero vector that cannot be unit-normalized."""


class DegenerateDistributionError(ValueError):
    """All candidate masses are zero; no probability vector can be formed."""


class UndefinedCorrelationError(ValueError):
    """Pearson correlation is undefined because one input has zero variance."""


class DatasetError(ValueError):
    """The dataset cannot support the requested operation."""


class FormatError(ValueError):
    """A serialized file is malformed.

    Carries the byte offset at which the problem was detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class ByteReader:
    """Bounds-checked reads from the front of a file's bytes; ``offset``
    is the byte position the next read starts at."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.blob):
            raise FormatError(f"truncated file while reading {what}",
                              len(self.blob))
        chunk = self.blob[self.offset:self.offset + n]
        self.offset += n
        return chunk
