"""tools/bench_pairs.py: the summary of paired benchmark runs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import summarize  # noqa: E402


def _pair(seed, first, base_ops, new_ops, base_p50, new_p50):
    return {"seed": seed, "first": first,
            "base": {"ops_per_s": base_ops, "op_p50_ms": base_p50, "correct": True, "failed": 0},
            "new": {"ops_per_s": new_ops, "op_p50_ms": new_p50, "correct": True, "failed": 0}}


def test_better_pairs_are_split_by_which_side_ran_first():
    pairs = [_pair(1, "base", 100.0, 110.0, 2.0, 1.0),
             _pair(2, "new", 100.0, 90.0, 2.0, 1.0),
             _pair(3, "base", 100.0, 120.0, 2.0, 3.0),
             _pair(4, "new", 100.0, 105.0, 2.0, 2.0),
             _pair(5, "base", 100.0, 100.0, 2.0, 1.5)]
    summary = summarize(pairs, {"ops_per_s": "higher", "op_p50_ms": "lower", "peak_rss_mb": "lower"})
    assert set(summary) == {"ops_per_s", "op_p50_ms"}
    ops, p50 = summary["ops_per_s"], summary["op_p50_ms"]
    # ties count for neither side
    assert (ops["new_better_pairs"], ops["new_better_when_first"], ops["new_better_when_second"]) == (3, 1, 2)
    assert (p50["new_better_pairs"], p50["new_better_when_first"], p50["new_better_when_second"]) == (3, 1, 2)
    assert ops["base_q1_median_q3"] == (100.0, 100.0, 100.0)
    assert ops["new_q1_median_q3"] == (100.0, 105.0, 110.0)
