"""The paired A/B gate's verdicts (``benchmarks/ab.py``) on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BASE = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 97.0, 100.0, 101.0]


def _run(rate, correct=True, failed=0):
    """A perfbench result line: ``rate`` events/s, 10 us per event."""
    metrics = {spec["name"]: {"value": 10.0} for spec in ab.SPEC["end_to_end"]}
    metrics["events_per_s"] = {"value": rate}
    return {"correct": correct, "attempted": 50, "failed": failed,
            "metrics": metrics}


def _pairs(base, head):
    return [(_run(b), _run(h)) for b, h in zip(base, head)]


def test_gain_needs_nine_wins_and_a_shift_beyond_the_base_iqr():
    spread = ab.compare(BASE, BASE, "higher", 0.2)["base"]
    iqr = spread["q3"] - spread["q1"]
    assert 0 < iqr < 5
    ahead = ab.compare(BASE, [x + 1.5 * iqr for x in BASE], "higher", 0.2)
    assert ahead["wins"] == 10 and ahead["gain"]
    # Every pair won, but by less than the base's own spread.
    inside = ab.compare(BASE, [x + 0.5 * iqr for x in BASE], "higher", 0.2)
    assert inside["wins"] == 10 and not inside["gain"]
    # Far ahead in the median, but two pairs lost: 8/10 < 9/10.
    head = [x + 10 for x in BASE]
    head[0] = head[1] = 0.0
    split = ab.compare(BASE, head, "higher", 0.2)
    assert split["wins"] == 8 and not split["gain"]
    # Ties count for neither side.
    assert ab.compare(BASE, BASE, "higher", 0.2)["wins"] == 0


def test_lower_is_better_metric_is_judged_the_right_way():
    faster = ab.compare(BASE, [x - 10 for x in BASE], "lower", 0.25)
    assert faster["wins"] == 10 and faster["gain"]
    assert not faster["regression"]
    slower = ab.compare(BASE, [x * 1.3 for x in BASE], "lower", 0.25)
    assert slower["wins"] == 0 and slower["regression"]
    assert slower["ratio"] == pytest.approx(1.3)


@pytest.mark.parametrize(
    "workload, bound", [("sim", 0.20), ("replay", 0.20),
                        ("replay-bounded", 0.20), ("serve", 0.25)]
)
def test_events_per_s_regression_bound_per_workload(workload, bound):
    base = [100.0] * 10
    within = ab.judge(workload, _pairs(base, [100 * (1 - bound) + 0.5] * 10))
    beyond = ab.judge(workload, _pairs(base, [100 * (1 - bound) - 0.5] * 10))
    assert within["metrics"]["events_per_s"]["bound"] == bound
    assert within["ok"] and not within["metrics"]["events_per_s"]["regression"]
    assert not beyond["ok"]
    assert beyond["metrics"]["events_per_s"]["regression"]


def test_lower_is_better_metrics_use_the_benchmark_bound():
    pairs = [(_run(100.0), _run(100.0)) for _ in range(10)]
    for _, head in pairs:
        head["metrics"]["setup_s"]["value"] = 12.45
    assert ab.judge("sim", pairs)["ok"]
    for _, head in pairs:
        head["metrics"]["setup_s"]["value"] = 12.55
    verdict = ab.judge("sim", pairs)
    assert verdict["metrics"]["setup_s"]["regression"] and not verdict["ok"]


@pytest.mark.parametrize(
    "bad", [_run(100.0, failed=1), _run(100.0, correct=False),
            {"correct": False, "error": "Traceback ..."}]
)
def test_any_failed_run_fails_the_gate(bad):
    pairs = _pairs(BASE, BASE)
    assert ab.judge("sim", pairs)["ok"]
    pairs[3] = (pairs[3][0], bad)
    verdict = ab.judge("sim", pairs)
    assert verdict["failed_runs"] == 1 and not verdict["ok"]
