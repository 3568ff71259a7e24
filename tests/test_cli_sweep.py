"""Byte identity of the command line over a fixed sweep of argument lists.

`tests/golden/cli_sweep.txt` holds one line per case: the sha256 of the
exit code, stdout and stderr of `localcheb <argv>`, two spaces, and the argv.
The sweep covers the three study commands, `quad`, `nodes`, `coeffs`,
`verify` and input errors, at sizes below the FFT switch (n <= 63).  Usage
errors are left out: their text comes from argparse and varies across
Python versions.

After an intentional change to any output, regenerate the file with:

    PYTHONPATH=src python3 tests/test_cli_sweep.py > tests/golden/cli_sweep.txt

With ``--fresh`` each argv runs in its own ``python -m localcheb`` process
instead of through ``main`` in this one, as a user runs it.  pytest imports
numpy before any case runs, so only this mode checks the bytes of commands
that run without numpy; it takes about a minute:

    PYTHONPATH=src python3 tests/test_cli_sweep.py --fresh | diff - tests/golden/cli_sweep.txt
"""

import contextlib
import hashlib
import io
import shlex
import subprocess
import sys
from pathlib import Path

from localcheb.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_sweep.txt"

RULES = ("f1", "cc", "f2", "f3", "f4")
NS = (2, 4, 8, 16)
SMALL_NS = (1, 2, 5, 8, 63)
KINK = ["--fn", "xm_abs_exp", "--m", "1"]
AB = ["--a", "-0.5", "--b", "1"]


def _cases() -> list[list[str]]:
    cases = []
    for rule in RULES:
        r = ["--rule", rule]
        for n in NS:
            cases += [
                ["study-decay", *r, "--n", str(n), "--m", "2"],
                ["study-quad", *r, "--n", str(n), "--m-range", "0..4"],
                ["study-composite", *r, "--n", str(n), *KINK, *AB],
            ]
        cases += [
            ["study-quad", *r, "--n-range", "2..16", "--m-range", "0..4"],
            ["study-quad", *r, "--n-range", "2..8", "--fn", "exp", "--p-max", "64"],
            ["study-decay", *r, "--n", "8", "--fn", "exp", "--p-max", "64"],
            ["study-decay", *r, "--n", "16", "--m", "0", "--k-range", "3..9"],
            ["study-composite", *r, "--n", "3", "--fn", "poly:1,-2,0.5,3", "--a", "3", "--b", "7.25"],
        ]
        for n in (2, 3, 8, 16):
            for fn in (["--fn", "exp"], KINK):
                for patches in (1, 7, 64):
                    cases.append(["quad", *r, "--n", str(n), "--patches", str(patches), *fn, *AB])
        for n in SMALL_NS:
            for fmt in ([], ["--json"]):
                cases.append(["nodes", *r, "--n", str(n), *fmt])
                cases.append(["coeffs", *r, "--n", str(n), "--fn", "exp", *AB, *fmt])
                cases.append(["coeffs", *r, "--n", str(n), *KINK, "--a", "3", "--b", "7.25", *fmt])
    cases += [
        ["verify"],
        ["study-quad", "--rule", "f1", "--n", "4", "--n-range", "2..5", "--m", "0"],
        ["study-decay", "--rule", "f2", "--n", "8", "--m", "1", "--k-range", "1..8"],
        ["coeffs", "--rule", "f1", "--n", "4", "--fn", "bogus", *AB],
    ]
    return cases


def _line(argv: list[str], rc: int, out: str, err: str) -> str:
    """The sweep line of one argv: sha256 of rc, stdout and stderr, then the argv."""
    blob = f"{rc}\0{out}\0{err}".encode()
    return f"{hashlib.sha256(blob).hexdigest()}  {shlex.join(argv)}"


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return _line(argv, rc, out.getvalue(), err.getvalue())


def _run_fresh(argv: list[str]) -> str:
    proc = subprocess.run([sys.executable, "-m", "localcheb", *argv],
                          capture_output=True, text=True, timeout=120)
    return _line(argv, proc.returncode, proc.stdout, proc.stderr)


def sweep_lines(fresh: bool = False) -> list[str]:
    run = _run_fresh if fresh else _run
    return [run(argv) for argv in _cases()]


def test_cli_sweep_matches_golden():
    want = GOLDEN.read_text().splitlines()
    got = sweep_lines()
    assert len(got) == len(want)
    changed = [g for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} of {len(want)} cases changed, first: {changed[0]}"


if __name__ == "__main__":
    fresh = sys.argv[1:] == ["--fresh"]
    if sys.argv[1:] and not fresh:
        sys.exit(f"usage: {sys.argv[0]} [--fresh]")
    sys.stdout.write("".join(line + "\n" for line in sweep_lines(fresh)))
