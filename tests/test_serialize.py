"""Deterministic text formats: exact float round-trips, canonical JSON."""

import json
import math

import numpy as np
import pytest

from treecast import InvalidParameter, base_pair, symmetric_channel
from treecast.serialize import (
    canonical_json,
    config_comment,
    coupling_csv,
    curve_csv,
    fmt_float,
    report_json,
)


# ------------------------------------------------------------------- floats

def test_float_text_roundtrips_exactly():
    """17 significant digits reproduce the identical IEEE double."""
    rng = np.random.default_rng(61)
    xs = list(rng.normal(scale=1e3, size=500))
    xs += list(rng.uniform(-1, 1, size=300))
    xs += [x * 1e-200 for x in rng.uniform(1, 2, size=100)]
    xs += [0.0, -0.0, 1e308, 5e-324, math.pi]
    for x in xs:
        assert float(fmt_float(x)) == float(x)


def test_float_text_tokens():
    assert fmt_float(math.inf) == "inf"
    assert fmt_float(-math.inf) == "-inf"
    assert fmt_float(math.nan) == "nan"


# ----------------------------------------------------------- canonical JSON

def test_canonical_json_sorts_keys():
    a = canonical_json({"b": 1, "a": 2, "c": [3, {"z": 0, "y": 1}]})
    b = canonical_json({"c": [3, {"y": 1, "z": 0}], "a": 2, "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')


def test_canonical_json_value_types():
    text = canonical_json({"f": 0.1, "i": np.int64(7), "b": np.bool_(True),
                           "n": None, "s": "x", "arr": np.array([1.5, 2.5]),
                           "empty": {}, "evec": []})
    parsed = json.loads(text)
    assert parsed["f"] == 0.1 and parsed["i"] == 7 and parsed["b"] is True
    assert parsed["n"] is None and parsed["arr"] == [1.5, 2.5]
    assert parsed["empty"] == {} and parsed["evec"] == []


def test_canonical_json_nonfinite_as_strings():
    parsed = json.loads(canonical_json({"p": math.inf, "m": -math.inf, "q": math.nan}))
    assert parsed == {"p": "inf", "m": "-inf", "q": "nan"}


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(InvalidParameter):
        canonical_json({"x": object()})


# ---------------------------------------------------------------- documents

def test_config_comment_shape():
    text = config_comment({"seed": 0, "k": 2})
    assert all(line.startswith("# ") for line in text.splitlines())
    stripped = "\n".join(line[2:] for line in text.splitlines())
    assert json.loads(stripped) == {"seed": 0, "k": 2}


def test_curve_csv_column_order():
    rows = [{"depth": 1, "var_A": 0.1, "tv": 0.5, "mean_gap": 0.7, "zzz": 1.0},
            {"depth": 2, "var_A": 0.05, "tv": 0.4, "mean_gap": 0.6, "zzz": 2.0}]
    text = curve_csv(rows, {"seed": 0})
    lines = text.splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "depth,tv,mean_gap,var_A,zzz"
    first = [ln for ln in lines if not ln.startswith("#")][1]
    assert first.split(",")[0] == "1"  # depth stays integral
    with pytest.raises(InvalidParameter):
        curve_csv([], {})


def test_curve_csv_population_columns():
    rows = [{"depth": 1, "tv": 0.5, "se_tv": 0.01, "mean_gap": 0.7,
             "se_mean_gap": 0.02, "var_A": 0.1, "se_var_A": 0.001,
             "inf_mass0": 0.0, "inf_mass1": 0.0}]
    header = [ln for ln in curve_csv(rows, {}).splitlines() if not ln.startswith("#")][0]
    assert header == ("depth,tv,se_tv,mean_gap,se_mean_gap,"
                      "var_A,se_var_A,inf_mass0,inf_mass1")


def test_coupling_csv_shape():
    from treecast import build_coupling
    c = symmetric_channel(0.2)
    pair = base_pair(c, 2)
    cpl = build_coupling(pair, c)
    text = coupling_csv(cpl, {"seed": 0})
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "y0,y1,weight"
    assert len(lines) == 1 + len(cpl.weight)


def test_report_json_deterministic():
    a = report_json({"b": 0.25, "a": [1, 2]})
    b = report_json({"a": [1, 2], "b": 0.25})
    assert a == b and a.endswith("\n")
    assert json.loads(a) == {"a": [1, 2], "b": 0.25}
