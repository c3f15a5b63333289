"""Flat key-value experiment files.

One experiment per file: a command name plus string-valued settings that
the CLI treats as flag defaults.  Values stay strings until the CLI casts
each one to the type of the flag it stands in for.

Format, one pair per line::

    command = hedge
    scheme = wu-zhu
    Kd = 40

Blank lines and lines starting with ``#`` are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PricingError

__all__ = ["ExperimentConfig", "loads", "load_file"]


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    values: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for key, value in list(self.values.items()) + [("command", self.command)]:
            if not key or any(c.isspace() for c in key):
                raise PricingError(f"bad experiment key: {key!r}")
            if "\n" in value or value != value.strip():
                raise PricingError(
                    f"experiment value for {key!r} must be a single trimmed line"
                )


def loads(text: str) -> ExperimentConfig:
    command = None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise PricingError(f"experiment line {lineno} is not 'key = value': {raw!r}")
        key = key.strip()
        value = value.strip()
        if key == "command":
            command = value
        else:
            values[key] = value
    if command is None:
        raise PricingError("experiment file is missing the 'command' entry")
    return ExperimentConfig(command=command, values=values)


def load_file(path: str) -> ExperimentConfig:
    """Parse an experiment file; one that is not UTF-8 raises ``PricingError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise PricingError(f"experiment file {path!r} is not UTF-8: {exc}") from None
    return loads(text)
