"""Shared exception hierarchy.

The CLI maps DataError to exit code 2 and NumericalError to exit code 3;
everything raised by this package derives from Error so callers can catch
library failures without also swallowing programming mistakes.
"""

import contextlib


class Error(Exception):
    """Base class for all segphrase errors."""


class DataError(Error):
    """Malformed or inconsistent input data (files, manifests, formats)."""


class NumericalError(Error):
    """Numerical or model failure (collapse, non-monotone fit, undefined value)."""


@contextlib.contextmanager
def open_text(path):
    """Open a text input for reading as strict UTF-8, whatever the locale;
    a byte sequence that does not decode is a DataError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text") from exc
