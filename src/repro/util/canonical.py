"""The one byte-stable JSON spelling every committed report and journal uses."""

from __future__ import annotations

import json

__all__ = ["canonical_json"]


def canonical_json(obj) -> str:
    """Sorted keys, fixed separators.  NaN/Infinity are refused — they are
    not JSON, and a NaN never equals itself, so one in a golden-diffed report
    is a bug."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
