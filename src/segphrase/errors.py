"""Shared exception hierarchy: two kinds of library failure.

A DataError is malformed or inconsistent input (files, manifests,
formats), and the CLI exits 2 on it; a NumericalError is a numerical or
model failure, and the CLI exits 3 on it. Both derive from Error, so
callers can catch library failures without also swallowing programming
mistakes. The message says what failed; for a text input it names the
file and line. A subclass exists only where it carries behaviour:
latent.CollapseError (em_learn restarts on it), spt.ValidationError
(load_table wraps it), and imaging.SuperpixelTargetError and
latent.FeatureDimensionError, which are also ValueErrors.
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


def text_rows(path, split=str.split):
    """Yield (lineno, split(line)) for each line of a line-oriented text
    input, read through open_text. Lines count from 1; a line is stripped
    of surrounding whitespace first, and a blank line or one starting
    with '#' is skipped. A ValueError from split (shlex's unclosed quote)
    is a DataError naming file:line."""
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                fields = split(line)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad quoting ({exc})") from exc
            yield lineno, fields
