"""Deterministic text output for every treecast command.

All floating-point values are printed with 17 significant digits so the
decimal text round-trips to the identical IEEE double, and all composite
output (JSON with sorted keys, fixed comment headers, no timestamps) is a
pure function of its inputs.  Re-running a command with the same
configuration therefore reproduces files byte for byte.

Formats: reports are JSON with sorted keys; curves and couplings are CSV
with the run configuration embedded in ``#`` comment lines.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidParameter
from .conditioning import Coupling


def fmt_float(x: float) -> str:
    """17-significant-digit text for a float; ``inf``/``-inf``/``nan`` tokens."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def canonical_json(obj, level: int = 0) -> str:
    """Render JSON deterministically: sorted keys, 17-digit floats.

    Non-finite floats become the strings "inf", "-inf", "nan" (JSON has
    no literal for them).  numpy scalars and arrays are accepted.
    """
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(key))}: {canonical_json(obj[key], level + 1)}"
                 for key in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{canonical_json(v, level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = fmt_float(obj)
        return text if math.isfinite(obj) else json.dumps(text)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InvalidParameter(f"cannot serialize {type(obj).__name__}")


def config_comment(config: dict) -> str:
    """Run configuration as ``#``-prefixed canonical JSON lines."""
    return "\n".join("# " + line for line in canonical_json(config).splitlines())


def curve_csv(rows: list, config: dict) -> str:
    """Diagnostic-vs-depth curve as CSV with the config in comments.

    ``rows`` is a list of dicts sharing one key set; the known diagnostic
    columns come in a fixed order (depth, tv, mean_gap, var_A, their
    standard errors, infinite-mass fractions), any extras after them in
    sorted order.
    """
    if not rows:
        raise InvalidParameter("curve needs at least one row")
    preferred = ["depth", "tv", "se_tv", "mean_gap", "se_mean_gap",
                 "var_A", "se_var_A", "inf_mass0", "inf_mass1"]
    keys = [key for key in preferred if key in rows[0]]
    keys += sorted(set(rows[0]) - set(keys))
    lines = [config_comment(config), ",".join(keys)]
    lines += [",".join(str(int(row[key])) if key == "depth" else fmt_float(row[key])
                       for key in keys) for row in rows]
    return "\n".join(lines) + "\n"


def coupling_csv(coupling: Coupling, config: dict) -> str:
    """Coupling pairs as ``y0,y1,weight`` CSV with the config in comments:
    the diagonal atoms first, then the crossing pairs (``Coupling.pairs``)."""
    lines = [config_comment(config), "y0,y1,weight"]
    for a, b, w in zip(*coupling.pairs()):
        lines.append(f"{fmt_float(a)},{fmt_float(b)},{fmt_float(w)}")
    return "\n".join(lines) + "\n"


def report_json(payload: dict) -> str:
    """Canonical JSON document (trailing newline included)."""
    return canonical_json(payload) + "\n"
