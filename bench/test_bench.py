"""Tests of the benchmark itself:  python3 -m pytest bench/"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import layers
import ops
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run._load_package()


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_seed_fixes_the_operation_list(workload):
    assert ops.generate(workload, 7) == ops.generate(workload, 7)
    assert ops.generate(workload, 7) != ops.generate(workload, 8)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round_emits_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def _bindings():
    """Every attribute of the localcheb modules and of their classes, by identity."""
    seen = {}
    for mod in layers._localcheb_modules():
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("localcheb"):
                for name, member in vars(value).items():
                    seen[(mod.__name__, attr, name)] = member
    return seen


def test_traced_round_restores_every_name(lib):
    round_ = [op for op in ops.generate("paper-studies", 1) if op.check == "golden"]
    round_ += [op for op in ops.generate("high-resolution", 1) if op.check == "interp"]
    before = _bindings()
    tracer = layers.Tracer()
    record = run.Record(round_)
    with tracer.installed():
        assert hasattr(lib.quadrature.make_rule, "__bench_traced__")
        assert hasattr(lib.make_rule, "__bench_traced__")
        run.run_rounds(round_, record, lib, 0.0, tracer=tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not [key for key, value in after.items() if hasattr(value, "__bench_traced__")]
    figures = {name: value for name, (value, _) in tracer.metrics().items()}
    assert figures["cli.main.calls"] == 6
    assert figures["coefficients.CoefficientSet.evaluate.calls"] == 1000
    assert figures["analysis.evaluator.calls"] == figures["polynomials.affine_map.calls"] > 0
    assert all(span[3] < i for i, span in enumerate(tracer.spans))


def _quad_op():
    return ops.Op("quad", "quad", ("quad", "--rule", "cc", "--n", "4", "--fn", "exp",
                                    "--a", "0", "--b", "1"),
                  dict(rule="cc", n=4, patches=1, fn="exp", m=None, a=0.0, b=1.0, tol=1e-3))


def _quad_output(value: str) -> str:
    return ('{"rule": "cc", "n": 4, "patches": 1, "value": %s, "abs_error": 0.0, '
            '"evaluations": 4}\n' % value)


def test_invalid_output_counts_as_failed():
    op = _quad_op()
    record = run.Record([op])
    record.add(0, 0.1, 0, _quad_output("1.7182818284590453"))
    assert run.judge(record)[:2] == (1, 0)

    for bad in ("NaN", "Infinity", "2.5"):
        record = run.Record([op])
        record.add(0, 0.1, 0, _quad_output(bad))
        record.add(0, 0.1, 0, _quad_output(bad))
        attempted, failed, reasons = run.judge(record)
        assert (attempted, failed) == (2, 2), bad
        assert reasons


def test_changed_bytes_and_exit_codes_count_as_failed():
    record = run.Record([_quad_op()])
    record.add(0, 0.1, 0, _quad_output("1.7182818284590453"))
    record.add(0, 0.1, 0, _quad_output("1.7182818284590451"))
    record.add(0, 0.1, 1, "")
    assert run.judge(record)[:2] == (3, 2)


@pytest.mark.parametrize("rule", ops.RULES)
def test_fft_reference_matches_library_coefficients(lib, rule):
    n, a, b = 40, -0.3, 0.8
    cs = lib.discrete_coeffs(lib.QuadKind(rule), lib.function_by_id("xm_abs_exp", 1).sampled(),
                             lib.Interval(a, b), n)
    fvals = checks.samples_at_nodes(rule, n, "xm_abs_exp", 1, a, b)
    assert max(abs(np.array(cs.values) - checks.reference_coeffs(rule, fvals))) < 1e-14


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(15) == 50.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(1000) == 99.0


def test_exits_without_a_result_when_there_is_no_package():
    bare = run.BENCH / "out" / "bare"  # a tree with only BENCHMARK.json and bench/
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        for path in run.BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench" / path.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "many-patches", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
