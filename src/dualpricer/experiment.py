"""Flat key-value experiment files.

One experiment per file: a ``command`` entry naming the CLI command it
drives, plus settings keyed by the names of that command's flags
(``Kd = 40`` stands for ``--Kd 40``, ``K = 50`` for ``-K 50``).  Values
stay strings until the CLI casts each one to the type of its flag.  A key
given twice is rejected here, and a key the command does not read is
rejected by the command.

Format, one pair per line::

    command = hedge
    scheme = wu-zhu
    Kd = 40

Blank lines and lines starting with ``#`` are ignored.  A file is a few
hundred bytes; one over 64 KiB is rejected after reading 64 KiB and one
byte, so a device or pipe that never ends is read no further.
"""

from __future__ import annotations

from .errors import PricingError

__all__ = ["load_file"]


def load_file(path: str) -> dict[str, str]:
    """The file's ``key -> value`` pairs, ``command`` included.

    A leading UTF-8 byte-order mark is skipped.  A file over 64 KiB or not
    UTF-8, a line that is not ``key = value``, a key that is empty, holds
    whitespace or is repeated, and a file with no ``command`` raise
    ``PricingError``.
    """
    limit = 1 << 16
    with open(path, "rb") as fh:
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise PricingError(f"experiment file {path!r} is over {limit} bytes")
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise PricingError(f"experiment file {path!r} is not UTF-8: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise PricingError(f"experiment line {lineno} is not 'key = value': {raw!r}")
        key = key.strip()
        if not key or any(c.isspace() for c in key):
            raise PricingError(f"bad experiment key: {key!r}")
        if key in values:
            raise PricingError(f"experiment key {key!r} is given twice")
        values[key] = value.strip()
    if "command" not in values:
        raise PricingError("experiment file is missing the 'command' entry")
    return values
