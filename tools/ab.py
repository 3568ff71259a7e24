"""Parent-against-change benchmark pairs, written to one BENCH_<topic>.json.

    python3 tools/ab.py --topic NAME [--parent REV] [--workload NAME[:PAIRS]]...
                        [--seed N]... [--seconds S] [--cli "ARGS"]...
                        [--op-rss WORKLOAD]...

The change is the checkout that holds this file, as it stands on disk: its
tracked and untracked files, ignored ones left out, written as a git tree
through a temporary index (their blobs go to the repository's object store,
as ``git add`` puts them).  The parent is the tree of REV (default HEAD).
Each side's tree is extracted by ``git archive`` into a temporary directory
by the same steps, so with identical code the two sides are identical trees
at the same depth; the record names both tree ids.  The directory is removed
on exit, also on error or interrupt.

For each workload and seed the tool runs PAIRS pairs (default 10) of
each tree's own ``bench/run.py --trace 0`` for S seconds (default the
``run_seconds`` of BENCHMARK.json), alternating which side goes first.  Each
``--cli`` gives a command line for fresh ``python -m localcheb`` runs, 12 of
each side in alternating order, with their wall time and maximum RSS.
Each ``--op-rss`` runs one round of a workload op by op in a fresh process per
side, right after the benchmark's own imports, and records how far each
operation raised the peak RSS.

The output holds every run's result line and the tail percentile it names,
per workload and metric both sides' median and quartiles, the pairs the
change won in the direction BENCHMARK.json gives and whether the pairs resolve
the gap at all (``resolved``: at least 10 pairs, the change winning or losing
at least 9 in 10 of them, and a median gap wider than the parent's
interquartile range; an unresolved gap is noise, not "unchanged"), and the
host, versions and commits.  Exit code 1 if any benchmark run reports
``"correct": false`` or prints no result line.  Stdlib only; it pins no CPU
and changes no machine setting, so the host's own drift is in every figure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import shlex
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
CLI_RUNS = 12
_TAIL = re.compile(r"latency_tail_ms p(\S+) of (\d+) ops")

# Runs in a fresh interpreter with cwd at a tree's root: one round of a
# workload through the benchmark's own op runner, after the benchmark's own
# imports, printing [op name, peak RSS step in KiB] per op as one JSON list.
_OP_RSS_SCRIPT = """
import json, resource, sys
sys.path.insert(0, "bench")
import run
lib = run._load_package()
steps = []
for op in run.opsmod.generate(sys.argv[1], int(sys.argv[2])):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run._run_op(op, lib)
    steps.append([op.name, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before])
print(json.dumps(steps))
"""


def _git(*args: str, env: dict[str, str] | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def _disk_tree(index: Path) -> str:
    """Tree id of the checkout's tracked and untracked files on disk, not the ignored ones."""
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    _git("add", "-A", env=env)
    return _git("write-tree", env=env)


def _extract(tree: str, dest: Path) -> None:
    """Write the files of a git tree to the directory dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", tree], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _env(tree: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    return env


def _orders(count: int):
    """(pair index, sides in run order), the first side alternating from pair to pair."""
    for i in range(count):
        yield i, SIDES if i % 2 == 0 else SIDES[::-1]


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` of a tree: its result line and the figures its text names."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=_env(tree), capture_output=True, text=True)
    run = {"wall_s": time.perf_counter() - t0, "returncode": proc.returncode, "result": None}
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and lines:
        run["result"] = json.loads(lines[-1])
        tail = _TAIL.search(proc.stdout)
        if tail:
            run["tail_percentile"] = float(tail.group(1))
            run["latency_samples"] = int(tail.group(2))
    else:
        run["stderr"] = proc.stderr[-2000:]
    return run


def cli_run(tree: Path, argv: list[str]) -> dict:
    """One fresh ``python -m localcheb argv``: wall time, maximum RSS, exit code, stdout digest."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "localcheb", *argv], cwd=tree,
                            env=_env(tree), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "max_rss_mb": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode, "stdout_sha256": hashlib.sha256(out).hexdigest()}


def op_rss(tree: Path, workload: str, seed: int) -> list:
    proc = subprocess.run([sys.executable, "-c", _OP_RSS_SCRIPT, workload, str(seed)],
                          cwd=tree, env=_env(tree), capture_output=True, text=True, check=True)
    return [[name, kib / 1024.0] for name, kib in json.loads(proc.stdout.splitlines()[-1])]


def _spread(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: both sides' spread and the pairs the change won."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[tuple, dict] = {}
        for r in runs:
            if r["workload"] == workload and r["result"] is not None:
                pairs.setdefault((r["seed"], r["pair"]), {})[r["side"]] = r["result"]["metrics"]
        pairs = {k: v for k, v in pairs.items() if len(v) == 2}
        rows = {}
        for m in metrics:
            name, sign = m["name"], (1 if m["better"] == "higher" else -1)
            got = [(p["parent"][name]["value"], p["change"][name]["value"]) for p in pairs.values()]
            if not got:
                continue
            parent, change = _spread([a for a, _ in got]), _spread([b for _, b in got])
            wins = sum(sign * (b - a) > 0 for a, b in got)
            losses = sum(sign * (b - a) < 0 for a, b in got)
            gap, iqr = change["median"] - parent["median"], parent["q3"] - parent["q1"]
            rows[name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": parent, "change": change,
                "pairs": len(got),
                "change_wins": wins,
                "change_losses": losses,
                "median_change_frac": gap / parent["median"],
                "parent_iqr": iqr,
                "resolved": (len(got) >= 10 and 10 * max(wins, losses) >= 9 * len(got)
                             and abs(gap) > iqr),
            }
        summary[workload] = rows
    return summary


def _cli_summary(runs: list[dict]) -> dict:
    out = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        out[side] = {"max_rss_mb": _spread([r["max_rss_mb"] for r in mine]),
                     "best_wall_s": min(r["wall_s"] for r in mine),
                     "median_wall_s": statistics.median(r["wall_s"] for r in mine),
                     "returncodes": sorted({r["returncode"] for r in mine}),
                     "stdout_sha256": sorted({r["stdout_sha256"] for r in mine})}
    out["same_stdout"] = out["parent"]["stdout_sha256"] == out["change"]["stdout_sha256"]
    return out


def _workload_pairs(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    return name, int(pairs) if pairs else PAIRS


def _host(parent: str) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    dirty = bool(_git("status", "--porcelain"))
    return {
        "platform": platform.platform(), "machine": platform.machine(),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version,
        "parent_commit": _git("rev-parse", f"{parent}^{{commit}}"),
        "change_commit": _git("rev-parse", "HEAD"),
        "change_has_uncommitted_edits": dirty,
    }


def _log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def measure(args, trees: dict[str, Path], tree_ids: dict[str, str]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    record: dict = {"topic": args.topic, "parent_rev": args.parent, "host": _host(args.parent),
                    "tree_ids": tree_ids, "seconds": seconds, "seeds": args.seed, "runs": []}
    for text in args.workload:
        workload, count = _workload_pairs(text)
        for seed in args.seed:
            for pair, order in _orders(count):
                for side in order:
                    run = bench_run(trees[side], workload, seed, seconds)
                    run.update(workload=workload, seed=seed, pair=pair, side=side,
                               first=side == order[0])
                    record["runs"].append(run)
                    ok = run["result"] is not None and run["result"]["correct"] is True
                    _log(f"{workload} seed {seed} pair {pair} {side}: "
                         f"{'ok' if ok else 'NOT CORRECT'} in {run['wall_s']:.1f} s")
    record["summary"] = summarise(record["runs"], spec["end_to_end"])
    record["cli"] = {}
    for text in args.cli:
        argv = shlex.split(text)
        runs = []
        for pair, order in _orders(CLI_RUNS):
            for side in order:
                runs.append({"side": side, "pair": pair, **cli_run(trees[side], argv)})
        record["cli"][text] = {"runs": runs, "summary": _cli_summary(runs)}
        _log(f"cli {text}: {CLI_RUNS} runs per side")
    record["op_rss"] = {
        workload: {"seed": args.seed[0],
                   **{side: op_rss(trees[side], workload, args.seed[0]) for side in SIDES}}
        for workload in args.op_rss
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topic", required=True, help="writes BENCH_<topic>.json at the checkout root")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--workload", action="append", default=[],
                        help=f"NAME or NAME:PAIRS (default {PAIRS} pairs), repeatable")
    parser.add_argument("--seed", action="append", type=int, help="repeatable (default 1)")
    parser.add_argument("--seconds", type=float, help="per run (default BENCHMARK.json's)")
    parser.add_argument("--cli", action="append", default=[],
                        help="localcheb arguments for fresh-process runs, repeatable")
    parser.add_argument("--op-rss", action="append", default=[], metavar="WORKLOAD",
                        help="per-op peak RSS steps of one round, repeatable")
    args = parser.parse_args(argv)
    args.seed = args.seed or [1]

    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tree_ids = {"parent": _git("rev-parse", f"{args.parent}^{{tree}}"),
                    "change": _disk_tree(Path(tmp) / "index")}
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            _extract(tree_ids[side], trees[side])
        record = measure(args, trees, tree_ids)
    out = ROOT / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    _log(f"wrote {out}")
    bad = [r for r in record["runs"] if r["result"] is None or r["result"]["correct"] is not True]
    for r in bad:
        _log(f"not correct: {r['workload']} seed {r['seed']} pair {r['pair']} {r['side']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
