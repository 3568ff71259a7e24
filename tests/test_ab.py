"""tools/ab.py's summary of parent/change pairs, on synthetic and recorded runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [{"name": "t", "unit": "ms", "better": "lower", "bound": 0.25}]


def _runs(pairs):
    """bench/run.py records of one workload, one (parent, change) value of t per pair."""
    return [{"workload": "w", "seed": 1, "pair": i, "side": side,
             "result": {"metrics": {"t": {"value": value}}}}
            for i, values in enumerate(pairs) for side, value in zip(ab.SIDES, values)]


@pytest.mark.parametrize("pairs, wins, resolved", [
    # three pairs resolve nothing, however far apart
    ([(10.0 + 0.1 * i, 5.0) for i in range(3)], 3, False),
    # ten wins and a gap far wider than the parent's quartiles
    ([(10.0 + 0.1 * i, 9.0 + 0.1 * i) for i in range(10)], 10, True),
    # nine in ten is enough, losses resolve as well as wins
    ([(10.0 + 0.1 * i, 12.0 if i else 9.0) for i in range(10)], 1, True),
    # four wins in ten: noise
    ([(10.0 + 0.1 * i, 9.0 if i < 4 else 12.0) for i in range(10)], 4, False),
    # ten wins, but the gap is inside the parent's interquartile range
    ([(10.0 + 0.1 * i, 9.99 + 0.1 * i) for i in range(10)], 10, False),
])
def test_summarise_resolves_only_ten_pairs_nine_in_ten_beyond_the_iqr(pairs, wins, resolved):
    row = ab.summarise(_runs(pairs), METRICS)["w"]["t"]
    assert (row["pairs"], row["change_wins"], row["resolved"]) == (len(pairs), wins, resolved)


def test_summarise_reads_the_identical_trees_setup_gap_as_unresolved():
    # BENCH_sides.json: the same code on both sides, many-patches setup_s +8.4% over 10 pairs
    record = json.loads((ROOT / "BENCH_sides.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = ab.summarise(record["runs"], spec["end_to_end"])["many-patches"]
    setup = rows["setup_s"]
    assert (setup["pairs"], setup["change_wins"], setup["resolved"]) == (10, 4, False)
    assert setup["median_change_frac"] == pytest.approx(0.084, abs=0.001)
    # the flag is the only field added to the stored summary
    assert {name: {k: v for k, v in row.items() if k != "resolved"}
            for name, row in rows.items()} == record["summary"]["many-patches"]


def test_op_time_takes_each_ops_minimum_over_alternating_fresh_runs(monkeypatch):
    # synthetic rounds of four ops: each process times "b" faster on the change side
    seconds = {"parent": {"a": 0.001, "b": 0.004, "c": 0.010, "d": 0.020},
               "change": {"a": 0.001, "b": 0.002, "c": 0.010, "d": 0.020}}
    calls = []

    def fake_script(tree, script, workload, seed):
        assert script == ab._OP_TIME_SCRIPT and (workload, seed) == ("w", 3)
        calls.append(tree)
        slow = 1.0 + 0.1 * len(calls)  # later processes run slower: the minimum is the first
        return [[name, s * slow] for name, s in seconds[tree].items()]

    monkeypatch.setattr(ab, "_op_script", fake_script)
    record = ab.op_time({side: side for side in ab.SIDES}, "w", 3)
    assert calls[:4] == ["parent", "change", "change", "parent"]
    assert len(calls) == 2 * ab.OP_TIME_REPEATS
    assert (record["seed"], record["repeats"]) == (3, ab.OP_TIME_REPEATS)
    rows = {row["op"]: row for row in record["ops"]}
    assert [row["op"] for row in record["ops"]] == ["d", "c", "b", "a"]  # slowest parent op first
    assert rows["b"]["parent_ms"] == pytest.approx(4.0 * 1.1)
    assert rows["b"]["change_ms"] == pytest.approx(2.0 * 1.2)
    assert rows["b"]["change_frac"] == pytest.approx(2.4 / 4.4 - 1.0)
    # the nearest-rank median of four ops is the second fastest, as bench/run.py takes p50
    assert record["median_op"]["parent"] == {"op": "b", "ms": pytest.approx(4.4)}
    assert record["median_op"]["change"]["op"] == "b"


def test_op_time_refuses_rounds_of_different_ops():
    runs = {"parent": [[["a", 0.1], ["b", 0.2]]], "change": [[["a", 0.1], ["c", 0.2]]]}
    with pytest.raises(ValueError, match="change ran a different round of ops"):
        ab.summarise_op_times(runs)
