"""localcheb benchmark: seeded CLI workloads run in-process in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One client runs one round of operations after another
(see ``ops.py``) until S seconds have passed, always finishing the round, so
every run measures whole rounds.  An operation is one call of
``localcheb.cli.main(argv)`` with stdout captured; each is timed alone.
Outputs are checked after the loop, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is measured in
fresh interpreters, never in this process.  ``--trace 1`` runs the same
untraced loop, then one more round with every public function of the
package wrapped (``layers.py``), and reports the per-layer metrics; the
spans go to ``bench/out/trace-<workload>-seed<N>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the same
figures for a reader, with the tail percentile and sample counts.  The exit
code is 0 whenever that line is printed, and 2 when the checkout has no
``src/localcheb`` to measure.
"""

from __future__ import annotations

import os

# One client, one process: keep numerical libraries single-threaded.  This
# must happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import layers
import ops as opsmod

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s, before and after the loop so that
# their median spans more than one phase of the machine's load, and for the
# -X importtime split.
SETUP_STARTS_BEFORE = 6
SETUP_STARTS_AFTER = 5
IMPORTTIME_STARTS = 5
# The tail is the highest of these percentiles with at least this many
# samples beyond it.  Decades keep the choice the same across runs whose
# operation counts differ by a few rounds.
TAIL_MIN_BEYOND = 10
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


class Record:
    """What one run of the operation list produced, op by op and round by round."""

    def __init__(self, ops: list[opsmod.Op]) -> None:
        self.ops = ops
        self.first_text: list[str | None] = [None] * len(ops)
        self.first_digest: list[bytes | None] = [None] * len(ops)
        # (op index, seconds, rc, digest) for every attempt
        self.attempts: list[tuple[int, float, object, bytes]] = []
        self.trace_failures: list[str] = []

    def add(self, i: int, seconds: float, rc, text: str) -> None:
        digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
        if self.first_text[i] is None and rc == 0:
            self.first_text[i], self.first_digest[i] = text, digest
        self.attempts.append((i, seconds, rc, digest))


def _fresh_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # an installed package has its bytecode cached; so does every timed start
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _fresh_import(extra: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *extra, "-c", "import localcheb.cli"],
                          env=_fresh_env(), cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=60)


def time_fresh_imports(starts: int) -> list[float]:
    """Wall times of fresh interpreters that import localcheb.cli and exit."""
    _fresh_import()  # writes the bytecode caches, so every timed start finds them
    times = []
    for _ in range(starts):
        t0 = perf_counter()
        _fresh_import()
        times.append(perf_counter() - t0)
    return times


def _importtime_split(stderr: str) -> tuple[float, float]:
    """(numpy, localcheb without numpy) cumulative import seconds from -X importtime."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    numpy_s = cumulative.get("numpy", 0.0)  # 0 if localcheb stops importing numpy
    return numpy_s, cumulative["localcheb.cli"] - numpy_s


def measure_import_layers() -> tuple[float, float]:
    """Medians of the numpy and localcheb shares of import time, in fresh interpreters."""
    _fresh_import()
    splits = [_importtime_split(_fresh_import(("-X", "importtime")).stderr)
              for _ in range(IMPORTTIME_STARTS)]
    return (statistics.median(s[0] for s in splits), statistics.median(s[1] for s in splits))


def _run_op(op: opsmod.Op, lib) -> tuple[float, object, str]:
    """Run one operation; returns (seconds, return code or error, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        result = None
        t0 = perf_counter()
        try:
            if op.argv is not None:
                rc = lib.cli.main(list(op.argv))
            else:
                result = _interp(op, lib)
                rc = 0
        except SystemExit as exc:
            rc = f"exit {exc.code}"
        except Exception as exc:  # an operation that raises is a failed operation
            rc = repr(exc)
        seconds = perf_counter() - t0
    if result is not None:
        cs, ys = result
        out.write(json.dumps({"values": list(cs.values), "ys": ys}))
    return seconds, rc, out.getvalue()


def _interp(op: opsmod.Op, lib):
    """The library-only operation: build an interpolant and evaluate it at op's points."""
    p = op.params
    fn = lib.analysis.function_by_id(p["fn"])
    return lib.quadrature.interpolant_eval(
        lib.rules.QuadKind(p["rule"]), fn.sampled(), lib.polynomials.Interval(p["a"], p["b"]),
        p["n"], p["xs"])


def run_rounds(ops, record: Record, lib, seconds: float, tracer=None) -> list[float]:
    """Whole rounds until `seconds` have passed (one round if traced); returns round times."""
    round_times = []
    t0 = perf_counter()
    while True:
        round_start = perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
                calls_before = tracer.calls["analysis.evaluator"]
            secs, rc, text = _run_op(op, lib)
            record.add(i, secs, rc, text)
            if tracer is not None:
                if op.argv is not None:
                    tracer.counts["cli.bytes_out"] += len(text.encode())
                _check_evaluations(op, text, tracer.calls["analysis.evaluator"] - calls_before,
                                   record)
        round_times.append(perf_counter() - round_start)
        if tracer is not None or perf_counter() - t0 >= seconds:
            return round_times


def _check_evaluations(op: opsmod.Op, text: str, evaluator_calls: int, record: Record) -> None:
    """In the traced round the evaluator must run as often as `quad` reports, and
    once per node for `coeffs`."""
    if op.check == "quad":
        try:
            reported = json.loads(text)["evaluations"]
        except (ValueError, KeyError, TypeError):
            return  # the output check reports malformed output
    elif op.check == "coeffs":
        reported = op.params["n"]
    else:
        return
    if evaluator_calls != reported:
        record.trace_failures.append(
            f"{op.name}: {evaluator_calls} evaluator calls, {reported} evaluations reported")


def judge(record: Record) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): rc, byte identity across rounds, and output checks."""
    reasons = []
    verdicts = []
    for i, op in enumerate(record.ops):
        text = record.first_text[i]
        why = checks.check(op, text, ROOT) if text is not None else "no successful run"
        verdicts.append(why)
        if why is not None:
            reasons.append(f"{op.name}: {why}")
    failed = 0
    for i, _, rc, digest in record.attempts:
        if rc != 0:
            failed += 1
            reasons.append(f"{record.ops[i].name}: return code {rc}")
        elif verdicts[i] is not None:
            failed += 1
        elif digest != record.first_digest[i]:
            failed += 1
            reasons.append(f"{record.ops[i].name}: output changed between rounds")
    failed += len(record.trace_failures)
    reasons.extend(record.trace_failures)
    return len(record.attempts), failed, reasons


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above its rank."""
    best = PERCENTILE_LADDER[0]
    for pct in PERCENTILE_LADDER:
        if count - math.ceil(pct / 100.0 * count) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def _load_package():
    sys.path.insert(0, str(SRC))
    import localcheb
    import localcheb.cli

    if Path(localcheb.__file__).resolve().parent != SRC / "localcheb":
        sys.exit(f"run.py: imported localcheb from {localcheb.__file__}, not from {SRC}")
    return localcheb


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(opsmod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "localcheb" / "__init__.py").is_file():
        print(f"run.py: no package to measure at {SRC / 'localcheb'}", file=sys.stderr)
        return 2
    if args.trace:
        numpy_s, localcheb_s = measure_import_layers()
    else:
        setup_times = time_fresh_imports(SETUP_STARTS_BEFORE)
    lib = _load_package()

    ops = opsmod.generate(args.workload, args.seed)
    record = Record(ops)
    round_times = run_rounds(ops, record, lib, args.seconds)
    # ops per second of the median round: robust to a burst of load on the host
    throughput = len(ops) / statistics.median(round_times)
    latencies = sorted(seconds for _, seconds, _, _ in record.attempts)
    print(f"workload {args.workload} seed {args.seed}: {len(round_times)} rounds of {len(ops)} ops "
          f"in {sum(round_times):.3f} s")

    if args.trace:
        tracer = layers.Tracer()
        with tracer.installed():
            [traced_round] = run_rounds(ops, record, lib, 0.0, tracer=tracer)
        trace_path = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        metrics = tracer.metrics()
        metrics["setup.numpy_import_s"] = (numpy_s, "s")
        metrics["setup.localcheb_import_s"] = (localcheb_s, "s")
        traced_throughput = len(ops) / traced_round
        metrics["trace.overhead_frac"] = ((throughput - traced_throughput) / throughput, "frac")
        print(f"traced round: {len(ops)} ops in {traced_round:.3f} s, {len(tracer.spans)} spans "
              f"written to {trace_path.relative_to(ROOT)}")
    else:
        setup_times += time_fresh_imports(SETUP_STARTS_AFTER)
        pct = tail_percentile(len(latencies))
        metrics = {
            "throughput_ops_s": (throughput, "ops/s"),
            "latency_p50_ms": (nearest_rank(latencies, 50.0) * 1e3, "ms"),
            "latency_tail_ms": (nearest_rank(latencies, pct) * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"throughput_ops_s is {len(ops)} ops over the median of {len(round_times)} rounds; "
              f"latency_p50_ms is p50 and latency_tail_ms p{pct:g} of {len(latencies)} ops; "
              f"setup_s is the median of {len(setup_times)} fresh imports")

    attempted, failed, reasons = judge(record)
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    # fail_frac is never in the JSON metrics: it is `failed` / `attempted` there
    print(f"{'fail_frac':44s} {failed / attempted:.6g} frac ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
