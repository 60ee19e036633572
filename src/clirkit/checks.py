"""The field type check every config dataclass runs first in ``__post_init__``."""

from __future__ import annotations

import sys
from dataclasses import fields

# Field types are annotation strings: every config module postpones annotations.
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
                "str | None": (str, type(None))}


def check_field_types(config) -> None:
    """Reject a number, bool or string field of the dataclass ``config`` that
    holds anything but a value of its declared type. A float field must be
    finite: NaN, infinity and ints too large for a float are rejected, other
    ints are valid. True and False are valid only for a bool field."""
    for f in fields(config):
        wanted = _FIELD_TYPES.get(f.type)
        value = getattr(config, f.name)
        if wanted and (not isinstance(value, wanted)
                       or (isinstance(value, bool) and wanted is not bool)):
            raise ValueError(f"{type(config).__name__}.{f.name} must be {f.type}, "
                             f"got {value!r}")
        if f.type == "float" and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{type(config).__name__}.{f.name} must be finite, "
                             f"got {value!r}")
