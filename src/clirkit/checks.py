"""The field type check every config dataclass runs first in ``__post_init__``."""

from __future__ import annotations

from dataclasses import fields

# Field types are annotation strings: every config module postpones annotations.
_NUMBER_TYPES = {"int": int, "float": (int, float)}


def check_number_fields(config) -> None:
    """Reject a number field of the dataclass ``config`` that holds a bool or
    anything but a number of its declared type (an int is a valid float)."""
    for f in fields(config):
        wanted = _NUMBER_TYPES.get(f.type)
        value = getattr(config, f.name)
        if wanted and (isinstance(value, bool) or not isinstance(value, wanted)):
            raise ValueError(f"{type(config).__name__}.{f.name} must be {f.type}, "
                             f"got {value!r}")
