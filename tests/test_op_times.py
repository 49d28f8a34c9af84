"""tools/op_times.py: the least CPU time per op key."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from op_times import least_times  # noqa: E402


def test_an_op_missing_from_a_run_is_missing_not_zero():
    runs = {"base": [{"compose": 1.0, "ft": 2.0}, {"compose": 0.5, "ft": 3.0}],
            "new": [{"compose": 0.7}, {"compose": 0.6, "ft": 1.0}]}
    best = least_times(runs)
    assert best["base"] == {"compose": 0.5, "ft": 2.0, "all ops": 3.0}
    assert best["new"] == {"compose": 0.6, "ft": None, "all ops": 0.7}
