"""Bounded argv fuzz of the command line, run in process.

Each example is one subcommand with a drawn subset of its options, values
taken from edge floats (signed zeros, the smallest subnormal, +-1e308, nan,
+-inf), malformed ranges and malformed --fn ids.  Sizes are capped (n <= 64,
--patches and --p-max <= 256) so that no example builds a large rule, verify
runs only its trig-moments suite, and --out is never given.  Every example
must end with exit code 0 or 1, raise nothing else out of main, and print
strict JSON whenever --json succeeds.

Derandomized, so every run draws the same examples and tier-1 stays
deterministic.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from localcheb import cli

# each value is an edge or malformed case half the time and a plain one otherwise
EDGE_FLOATS = st.sampled_from(("0", "-0.0", "5e-324", "-5e-324", "1e308", "-1e308", "nan", "inf",
                               "-inf"))
RANGES = st.sampled_from(("5..2", "-1..3", "1..", "a..b")) | st.sampled_from(("1..4", "0..2", "2..6"))
FN_IDS = (st.sampled_from(("bogus", "poly:", "poly:nan", "poly:1,,2", "poly:1e308,1e308"))
          | st.sampled_from(("exp", "xm_abs_exp", "poly:1,-2,0.5")))

# one value strategy per option flag of cli._COMMANDS; a new option without a
# row here fails the test, so the fuzz keeps covering every option
VALUES = {
    "--rule": st.sampled_from(("f1", "cc", "f2", "f3", "f4")),
    "--n": st.integers(-1, 64).map(str),
    "--patches": st.integers(-1, 256).map(str),
    "--p-max": st.integers(-1, 256).map(str),
    "--fn": FN_IDS,
    "--m": st.integers(-1, 6).map(str),
    # plain left ends lie below plain right ends, so a plain pair is an interval
    "--a": EDGE_FLOATS | st.sampled_from(("-0.5", "0.0", "-2")),
    "--b": EDGE_FLOATS | st.sampled_from(("1", "2.5", "1e-3")),
    "--k-range": RANGES,
    "--n-range": RANGES,
    "--m-range": RANGES,
    "--json": st.none(),
    "--suite": st.just("trig-moments"),
}
ALWAYS = {"--suite"}
MOSTLY = st.sampled_from((True,) * 9 + (False,))
NEVER = {"--out"}


@st.composite
def argvs(draw) -> list[str]:
    name, _, _, options = draw(st.sampled_from(cli._COMMANDS))
    argv = [name]
    for flag, kwargs in options:
        if flag in NEVER:
            continue
        # required options are left out now and then, optional ones half the time
        keep = draw(MOSTLY if kwargs.get("required") else st.booleans())
        if not (keep or flag in ALWAYS):
            continue
        value = draw(VALUES[flag])
        # the = form keeps a negative value from reading as a flag
        argv.append(flag if value is None else f"{flag}={value}")
    return argv


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(derandomize=True, deadline=None, max_examples=500)
@given(argvs())
def test_cli_argv_fuzz_exits_zero_or_one(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1), (argv, code, err.getvalue())
    # quad writes JSON with or without the flag
    if code == 0 and ("--json" in argv or argv[0] == "quad"):
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
