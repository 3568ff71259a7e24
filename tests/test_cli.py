"""Command-line layer: artifact formats, determinism, exit codes, goldens."""

import argparse
import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localcheb.cli as cli
import localcheb.verify as verify
from localcheb import ChebKind, coefficients
from localcheb.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# every golden file is regenerated with these exact arguments and compared
# byte for byte; regenerate after an intentional change with:
#   python3 -m localcheb <args> --out tests/golden/<name>
GOLDEN_CASES = [
    ("nodes_f1_n8.csv", ["nodes", "--rule", "f1", "--n", "8"]),
    ("nodes_cc_n5.csv", ["nodes", "--rule", "cc", "--n", "5"]),
    ("coeffs_f1_exp_n8.csv", ["coeffs", "--rule", "f1", "--n", "8", "--fn", "exp", "--a", "-0.5", "--b", "1"]),
    ("decay_f1_n8_m4_p256.csv", ["study-decay", "--rule", "f1", "--n", "8", "--m", "4", "--p-max", "256"]),
    ("quad_f1_n8_m0-2_p64.csv", ["study-quad", "--rule", "f1", "--n", "8", "--m-range", "0..2", "--p-max", "64"]),
    ("composite_cc_n4_m0_p64.csv", ["study-composite", "--rule", "cc", "--n", "4", "--fn", "xm_abs_exp", "--m", "0", "--a", "-0.5", "--b", "1", "--p-max", "64"]),
]


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "localcheb", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_nodes_single_point_exact_output(capsys):
    rc = main(["nodes", "--rule", "f1", "--n", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "j,theta,node,weight\n0,1.5707963267948966,6.123233995736766e-17,2\n"


def test_nodes_json(capsys):
    rc = main(["nodes", "--rule", "f3", "--n", "4", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["kind"] == "f3"
    assert payload["n"] == 4
    assert len(payload["nodes"]) == 4


def test_coeffs_csv_and_json(capsys):
    rc = main(["coeffs", "--rule", "f2", "--n", "4", "--fn", "exp", "--a", "-0.5", "--b", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,value"
    assert len(lines) == 5

    rc = main(["coeffs", "--rule", "f2", "--n", "4", "--fn", "exp", "--a", "-0.5", "--b", "1", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["family"] == "U"
    assert payload["source"] == {"rule": "f2", "n": 4}
    assert len(payload["values"]) == 4


def test_quad_json_payload_and_key_order(capsys):
    rc = main(["quad", "--rule", "f1", "--n", "8", "--fn", "xm_abs_exp", "--m", "0", "--a", "-0.5", "--b", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(2.741547096618709, abs=1e-15)
    assert payload["abs_error"] == pytest.approx(0.004795927872297323, rel=1e-12)
    assert payload["patches"] == 1
    assert payload["evaluations"] == 8
    keys = json.loads(out, object_pairs_hook=lambda pairs: [k for k, _ in pairs])
    assert keys == ["rule", "n", "patches", "value", "abs_error", "evaluations"]


def test_quad_composite_evaluation_count(capsys):
    rc = main(["quad", "--rule", "cc", "--n", "4", "--patches", "16", "--fn", "exp", "--a", "0", "--b", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["patches"] == 16
    assert payload["evaluations"] == 64
    assert payload["abs_error"] < 5e-9


def test_out_flag_matches_stdout(tmp_path, capsys):
    args = ["study-decay", "--rule", "f2", "--n", "6", "--m", "1", "--p-max", "16"]
    rc = main(args)
    streamed = capsys.readouterr().out
    assert rc == 0
    target = tmp_path / "report.csv"
    rc = main(args + ["--out", str(target)])
    capsys.readouterr()
    assert rc == 0
    assert target.read_text() == streamed


def test_repeated_runs_are_byte_identical():
    args = ["study-decay", "--rule", "f4", "--n", "8", "--m", "4", "--p-max", "64"]
    rc1, out1, _ = run_cli(args)
    rc2, out2, _ = run_cli(args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.startswith("family,rule,m,k,p,h,coeff_abs,ndr,tdr\n")


def test_usage_errors_exit_one():
    rc, _, err = run_cli(["nodes", "--rule", "banana", "--n", "4"])
    assert rc == 1
    rc, _, err = run_cli(["nodes", "--n", "4"])
    assert rc == 1
    rc, _, _ = run_cli([])
    assert rc == 1


@pytest.mark.parametrize("a", ["-1e-3", "-5E-1"])
def test_negative_endpoint_in_scientific_notation(a, capsys):
    args = ["quad", "--rule", "f1", "--n", "4", "--fn", "exp", "--b", "1"]
    rc = main(args + ["--a", a])
    spaced = capsys.readouterr()
    assert rc == 0, spaced.err
    rc = main(args + [f"--a={a}"])
    assert rc == 0
    assert spaced.out == capsys.readouterr().out


def test_input_errors_exit_one(capsys):
    # both node-count flags at once
    rc = main(["study-quad", "--rule", "f1", "--n", "4", "--n-range", "2..5", "--m", "0"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("localcheb: error:")
    # xm_abs_exp without a regularity choice
    rc = main(["study-quad", "--rule", "f1", "--n", "4"])
    capsys.readouterr()
    assert rc == 1
    # malformed range
    rc = main(["study-quad", "--rule", "f1", "--n-range", "5..2", "--m", "0"])
    capsys.readouterr()
    assert rc == 1
    # cc needs two nodes
    rc = main(["nodes", "--rule", "cc", "--n", "1"])
    capsys.readouterr()
    assert rc == 1


@pytest.mark.parametrize(
    "args, says",
    [
        (["quad", "--rule", "f1", "--n", "4", "--fn", "poly:nan", "--a", "0", "--b", "1"],
         "is not finite"),
        # an overflow names the function and the interval it was evaluated on
        (["quad", "--rule", "f1", "--n", "4", "--fn", "exp", "--a", "700", "--b", "800"],
         "numeric overflow evaluating exp on [700.0, 800.0] (math range error)"),
        (["coeffs", "--rule", "f1", "--n", "4", "--fn", "exp", "--a", "0", "--b", "1e308"],
         "numeric overflow evaluating exp on [0.0, 1e+308] (math range error)"),
        # finite samples whose FFT overflows once printed inf and nan rows with exit 0
        (["coeffs", "--rule", "f1", "--n", "64", "--fn", "poly:1.7e308", "--a", "0", "--b", "1"],
         "numeric overflow evaluating poly:1.7e308 on [0.0, 1.0] (coefficient of degree 0 is not "
         "finite)"),
        (["coeffs", "--rule", "f1", "--n", "64", "--fn", "poly:1.7e308", "--a", "0", "--b", "1",
          "--json"], "numeric overflow evaluating poly:1.7e308 on [0.0, 1.0] (coefficient of degree "
         "0 is not finite)"),
        (["study-decay", "--rule", "f1", "--n", "64", "--fn", "poly:1.7e308", "--p-max", "2"],
         "numeric overflow evaluating poly:1.7e308 (coefficient of degree 0 is not finite)"),
        (["nodes", "--rule", "f1", "--n", "4", "--out", "{missing_dir}/x.csv"],
         "No such file or directory"),
        # neighbouring breakpoints of 64 patches round together; refused before any sample
        (["quad", "--rule", "f1", "--n", "0", "--fn", "exp", "--a", "1", "--b", "1.000000000000001",
          "--patches", "64"], "breakpoints must be strictly increasing"),
        # a regularity given with a function that has none was once dropped with exit 0
        (["study-quad", "--rule", "f1", "--n", "4", "--fn", "exp", "--m-range", "0..3"],
         "--m-range applies only to --fn xm_abs_exp"),
        (["study-quad", "--rule", "f1", "--n", "4", "--fn", "poly:1,2", "--m-range", "0..3"],
         "--m-range applies only to --fn xm_abs_exp"),
        (["study-quad", "--rule", "f1", "--n", "4", "--fn", "exp", "--m", "2"],
         "takes no regularity parameter m"),
        (["quad", "--rule", "f1", "--n", "4", "--fn", "poly:1,2", "--m", "0", "--a", "0", "--b", "1"],
         "takes no regularity parameter m"),
        (["coeffs", "--rule", "f1", "--n", "4", "--fn", "exp", "--m", "1", "--a", "0", "--b", "1"],
         "takes no regularity parameter m"),
        (["study-decay", "--rule", "f1", "--n", "4", "--fn", "exp", "--m", "1"],
         "takes no regularity parameter m"),
        (["study-composite", "--rule", "f1", "--n", "4", "--fn", "exp", "--m", "1", "--a", "0",
          "--b", "1"], "takes no regularity parameter m"),
        # lower bounds name the flag, not the library's parameter (pieces, p_max)
        (["quad", "--rule", "f1", "--n", "4", "--patches", "0", "--fn", "exp", "--a", "0", "--b", "1"],
         "--patches must be at least 1, got 0"),
        (["quad", "--rule", "f1", "--n", "4", "--patches=-3", "--fn", "exp", "--a", "0", "--b", "1"],
         "--patches must be at least 1, got -3"),
        (["study-decay", "--rule", "f1", "--n", "8", "--m", "1", "--p-max", "0"],
         "--p-max must be at least 1, got 0"),
        (["study-quad", "--rule", "f1", "--n", "4", "--m", "1", "--p-max", "0"],
         "--p-max must be at least 1, got 0"),
        (["study-composite", "--rule", "f1", "--n", "4", "--fn", "exp", "--a", "0", "--b", "1",
          "--p-max", "0"], "--p-max must be at least 1, got 0"),
        # study-quad takes a single value or a range of node counts and of regularities
        (["study-quad", "--rule", "f1", "--n", "4", "--n-range", "2..4", "--m", "1"],
         "give exactly one of --n or --n-range"),
        (["study-quad", "--rule", "f1", "--m", "1"], "give exactly one of --n or --n-range"),
        (["study-quad", "--rule", "f1", "--n", "4", "--fn", "xm_abs_exp", "--m", "1",
          "--m-range", "0..2"], "give exactly one of --m or --m-range"),
        (["study-quad", "--rule", "f1", "--n", "4"], "give exactly one of --m or --m-range"),
        (["study-quad", "--rule", "f1", "--n-range", "2-4", "--m", "1"],
         "--n-range must look like LO..HI, got '2-4'"),
        (["study-decay", "--rule", "f1", "--n", "8", "--m", "1", "--k-range", "1..x"],
         "--k-range bounds must be integers, got '1..x'"),
        (["study-quad", "--rule", "f1", "--n", "4", "--m-range", "3..1"],
         "--m-range upper bound below lower bound in '3..1'"),
    ],
    ids=["non-finite", "overflow", "overflow-coeffs", "overflow-coeffs-fft",
         "overflow-coeffs-fft-json", "overflow-decay-fft", "unwritable-out",
         "breakpoints-collapse", "m-range-exp", "m-range-poly", "m-exp",
         "m-poly-quad", "m-exp-coeffs", "m-exp-decay", "m-exp-composite", "patches-zero",
         "patches-negative", "p-max-zero-decay", "p-max-zero-quad", "p-max-zero-composite",
         "n-and-n-range", "neither-n", "m-and-m-range", "neither-m", "range-shape",
         "range-not-integer", "range-reversed"],
)
def test_runtime_errors_exit_one_with_one_line(args, says, tmp_path, capsys):
    rc = main([a.format(missing_dir=tmp_path / "missing") for a in args])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("localcheb: error:")
    assert says in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["nodes", "--rule", "f1", "--n", str(cli.MAX_NODES + 1)],
        ["quad", "--rule", "cc", "--n", "4", "--patches", str(cli.MAX_PATCHES + 1),
         "--fn", "exp", "--a", "0", "--b", "1"],
        ["study-decay", "--rule", "f1", "--n", "8", "--m", "4", "--p-max", str(cli.MAX_PATCHES + 1)],
        ["study-quad", "--rule", "f1", "--n-range", f"2..{cli.MAX_NODES + 1}", "--m", "0"],
        ["study-decay", "--rule", "f1", "--n", "8", "--m", "4", "--k-range", f"1..{cli.MAX_NODES + 1}"],
        # a huge negative lower bound or an unbounded --m-range once built a list that ran out of memory
        ["study-quad", "--rule", "f1", "--n-range=-1000000000000000..2", "--m", "0"],
        ["study-decay", "--rule", "f1", "--n", "8", "--m", "1", "--k-range=-1000000000000000..2"],
        ["study-quad", "--rule", "f1", "--n", "2", "--m-range", "0..1000000000000000"],
    ],
    ids=["n", "patches", "p-max", "n-range", "k-range", "negative-n-range", "negative-k-range",
         "m-range"],
)
def test_size_limits_exit_one_with_one_line(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("localcheb: error:")
    assert "must be at most" in captured.err
    assert captured.err.count("\n") == 1


def test_reused_parser_does_not_leak_arguments(capsys):
    args = ["quad", "--rule", "f1", "--n", "4", "--fn", "exp", "--a", "0", "--b", "1"]
    assert main(args + ["--patches", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["patches"] == 7
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["patches"] == 1


def test_usage_error_between_calls_changes_nothing(capsys):
    args = ["nodes", "--rule", "f2", "--n", "5", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["nodes", "--rule", "banana", "--n", "4", "--json"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_quad_memory_does_not_grow_with_patches(capsys):
    argv = ["quad", "--rule", "cc", "--n", "4", "--fn", "exp", "--a", "0", "--b", "1", "--patches"]
    # build the parser and the rule first, so only the run itself is traced
    assert main(argv + ["2"]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv + ["65536"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["value"] == 1.7182818284590453
    # a tuple of the 65537 breakpoints alone would take over 2 MiB
    assert peak - start < 64 * 1024


def test_json_output_refuses_non_finite_values():
    with pytest.raises(ValueError):
        cli._json_dumps({"value": float("nan")})


_JSON_SCALAR = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False) | st.text())
_JSON_VALUE = st.recursive(
    _JSON_SCALAR,
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@settings(derandomize=True, deadline=None)
@given(_JSON_VALUE)
def test_json_dumps_matches_the_indented_encoder(obj):
    assert cli._json_dumps(obj) == json.dumps(obj, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [lambda v: [1.0, v], lambda v: {"value": v}, lambda v: {"k": [[v]]}])
def test_json_dumps_refuses_non_finite_with_the_encoder_text(bad, wrap):
    obj = wrap(bad)
    with pytest.raises(ValueError) as want:
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._json_dumps(obj)
    assert str(got.value) == str(want.value) and repr(bad) in str(got.value)


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_single_suite_passes(suite, capsys):
    rc = main(["verify", "--suite", suite])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith(f"{suite}: PASS")
    assert lines[-1] == "verify: PASS"


def test_verify_output_matches_golden(capsys):
    # every suite's worst residual, printed digit for digit
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / "verify.txt").read_bytes()


def test_suite_names_match_verify():
    # the parser lists the suites itself, so that only the verify command imports verify
    assert cli._SUITE_NAMES == tuple(verify.SUITES)


def test_exactness_intervals_are_the_seeded_draws():
    # the loop that drew the intervals at run time, kept as the table's referee
    rng = np.random.default_rng(271828)
    drawn = []
    while len(drawn) < 20:
        lo, hi = np.sort(rng.uniform(-2.0, 2.0, size=2))
        if hi - lo >= 0.25:
            drawn.append((float(lo), float(hi)))
    table = verify._EXACTNESS_INTERVALS
    assert [(a.hex(), b.hex()) for a, b in table] == [(a.hex(), b.hex()) for a, b in drawn]
    assert all(type(x) is float for pair in table for x in pair)


_VERIFY_WITHOUT_RANDOM_SCRIPT = """
import sys
from localcheb.cli import main

rc = main(["verify"])
if "numpy.random" in sys.modules:
    sys.exit("numpy.random imported by: localcheb verify")
sys.exit(rc)
"""


def test_verify_does_not_import_numpy_random():
    proc = subprocess.run([sys.executable, "-c", _VERIFY_WITHOUT_RANDOM_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.encode() == (GOLDEN_DIR / "verify.txt").read_bytes()


# Every option of every subcommand, in declaration order, as
# (flag, dest, required, default, type, choices, help).  The help output of
# argparse varies across Python versions, so no golden file pins these.
_RULE_ROW = ("--rule", "rule", True, None, None, ["f1", "cc", "f2", "f3", "f4"], None)
_N_ROW = ("--n", "n", True, None, int, None, None)
_FN_HELP = "test function id: xm_abs_exp (with --m), exp, poly:<c0,c1,...>"
_M_ROW = ("--m", "m", False, None, int, None, "regularity parameter for xm_abs_exp")
_AB_ROWS = [("--a", "a", True, None, float, None, None), ("--b", "b", True, None, float, None, None)]
_JSON_ROW = ("--json", "json", False, False, None, None, None)
_OUT_ROW = ("--out", "out", False, None, None, None, None)
PARSER_TABLE = {
    "nodes": ("print one rule's angles, nodes, and weights", [_RULE_ROW, _N_ROW, _JSON_ROW, _OUT_ROW]),
    "coeffs": ("discrete coefficients of a function on [a,b]", [
        _RULE_ROW, _N_ROW, ("--fn", "fn", True, None, None, None, _FN_HELP), _M_ROW, *_AB_ROWS,
        _JSON_ROW, _OUT_ROW,
    ]),
    "quad": ("integrate a function over [a,b]", [
        _RULE_ROW, _N_ROW, ("--patches", "patches", False, 1, int, None, None),
        ("--fn", "fn", True, None, None, None, _FN_HELP), _M_ROW, *_AB_ROWS, _OUT_ROW,
    ]),
    "study-decay": ("coefficient decay over the shrink schedule", [
        _RULE_ROW, _N_ROW, ("--fn", "fn", False, "xm_abs_exp", None, None, _FN_HELP), _M_ROW,
        ("--k-range", "k_range", False, None, None, None, "coefficient indices LO..HI (default 1..n-1)"),
        ("--p-max", "p_max", False, 1024, int, None, None), _OUT_ROW,
    ]),
    "study-quad": ("quadrature error over the shrink schedule", [
        _RULE_ROW, ("--n", "n", False, None, int, None, None),
        ("--n-range", "n_range", False, None, None, None, "node counts LO..HI"),
        ("--fn", "fn", False, "xm_abs_exp", None, None, _FN_HELP), _M_ROW,
        ("--m-range", "m_range", False, None, None, None, "regularities LO..HI"),
        ("--p-max", "p_max", False, 1024, int, None, None), _OUT_ROW,
    ]),
    "study-composite": ("composite-rule error on a fixed interval", [
        _RULE_ROW, _N_ROW, ("--fn", "fn", True, None, None, None, _FN_HELP), _M_ROW, *_AB_ROWS,
        ("--p-max", "p_max", False, 256, int, None, None), _OUT_ROW,
    ]),
    "verify": ("run the property suites and report pass/fail", [
        ("--suite", "suite", False, None, None,
         ["exactness", "kind-relations", "orthogonality", "trig-moments"], None),
    ]),
}


def test_parser_options_match_the_table():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [(c.dest, c.help) for c in sub._choices_actions] == [
        (name, help_text) for name, (help_text, _) in PARSER_TABLE.items()
    ]
    for name, (_, rows) in PARSER_TABLE.items():
        actions = [a for a in sub.choices[name]._actions if a.dest != "help"]
        got = [
            (*a.option_strings, a.dest, a.required, a.default, a.type, a.choices, a.help)
            for a in actions
        ]
        assert got == rows, name
        # --json is the only flag; every other option takes one value
        assert [a.nargs for a in actions] == [0 if a.dest == "json" else None for a in actions], name


# Runs in a fresh interpreter: every command at the paper's sizes, below the
# FFT cutoff, must leave numpy unimported; larger sizes and verify load it.
_NUMPY_FREE_SCRIPT = """
import sys
from localcheb.cli import main

if "numpy" in sys.modules:
    sys.exit("numpy imported by: import localcheb.cli")

def run(argv, numpy_free):
    if main(argv) != 0:
        sys.exit(f"failed: {argv}")
    if numpy_free and "numpy" in sys.modules:
        sys.exit(f"numpy imported by: {argv}")

run(["nodes", "--rule", "f1", "--n", "8"], True)
run(["nodes", "--rule", "cc", "--n", "16", "--json"], True)
run(["coeffs", "--rule", "f3", "--n", "16", "--fn", "exp", "--a", "-0.5", "--b", "1"], True)
run(["coeffs", "--rule", "f2", "--n", "8", "--fn", "exp", "--a", "0", "--b", "1", "--json"], True)
run(["quad", "--rule", "f1", "--n", "8", "--fn", "exp", "--a", "0", "--b", "1"], True)
run(["quad", "--rule", "f4", "--n", "16", "--patches", "7", "--fn", "exp", "--a", "0", "--b", "1"], True)
run(["study-decay", "--rule", "f1", "--n", "8", "--m", "2", "--p-max", "64"], True)
run(["study-quad", "--rule", "f2", "--n-range", "2..16", "--m-range", "0..2", "--p-max", "64"], True)
run(["study-composite", "--rule", "cc", "--n", "4", "--fn", "xm_abs_exp", "--m", "0",
     "--a", "-0.5", "--b", "1", "--p-max", "64"], True)
run(["nodes", "--rule", "f1", "--n", "64"], False)
run(["verify", "--suite", "exactness"], False)
"""


def test_small_commands_do_not_import_numpy():
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_verify_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "orthogonality", lambda: (False, "forced failure"))
    rc = main(["verify", "--suite", "orthogonality"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "orthogonality: FAIL (forced failure)" in out
    assert out.strip().splitlines()[-1] == "verify: FAIL"


def test_verify_reports_a_raising_suite_and_runs_the_rest(monkeypatch, capsys):
    def broken(kind, n):
        raise ValueError("no rule today")

    monkeypatch.setattr(verify, "make_rule", broken)
    rc = main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    golden = (GOLDEN_DIR / "verify.txt").read_text().splitlines()
    assert rc == 2
    assert lines == [golden[0], "exactness: FAIL (error: no rule today)", *golden[2:4],
                     "verify: FAIL"]


def _nan_first(real):
    def poisoned(*args):
        out = np.array(real(*args), dtype=float)
        out.flat[0] = math.nan
        return out
    return poisoned


def _nan_in_second_kind_k3(real):
    # one NaN in the middle of one family: Python's max over k drops it
    def poisoned(family, *args):
        cs = real(family, *args)
        if family is ChebKind.SECOND:
            cs = dataclasses.replace(cs, values=(*cs.values[:3], math.nan, *cs.values[4:]))
        return cs
    return poisoned


@pytest.mark.parametrize("suite, module, name, poison", [
    ("orthogonality", verify, "_family_matrix", _nan_first),
    ("exactness", verify, "_powers", _nan_first),
    ("kind-relations", coefficients, "continuous_coeffs", _nan_in_second_kind_k3),
    ("trig-moments", verify, "trig_moment", _nan_first),
])
def test_verify_suite_fails_on_a_nan_residual(suite, module, name, poison, monkeypatch, capsys):
    monkeypatch.setattr(module, name, poison(getattr(module, name)))
    ok, detail = verify.SUITES[suite]()
    assert ok is False
    assert "nan" in detail
    assert main(["verify", "--suite", suite]) == 2
    assert capsys.readouterr().out.strip().splitlines()[-1] == "verify: FAIL"


def test_study_quad_merges_regularities(capsys):
    rc = main(["study-quad", "--rule", "f1", "--n", "3", "--m-range", "0..1", "--p-max", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rule,m,n,p,h,error,noc,toc,floor_flag"
    assert len(lines) == 7  # 3 schedule steps x 2 regularities
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "1", "0", "1", "0", "1"]


def test_study_decay_default_k_range(capsys):
    rc = main(["study-decay", "--rule", "cc", "--n", "5", "--m", "2", "--p-max", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    ks = {line.split(",")[3] for line in out.strip().splitlines()[1:]}
    assert ks == {"1", "2", "3", "4"}


@pytest.mark.parametrize("name,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_artifacts(name, args, tmp_path):
    """CLI artifacts must match the committed goldens byte for byte."""
    golden = GOLDEN_DIR / name
    regenerated = tmp_path / name
    rc = main(args + ["--out", str(regenerated)])
    assert rc == 0
    assert regenerated.read_bytes() == golden.read_bytes(), name
