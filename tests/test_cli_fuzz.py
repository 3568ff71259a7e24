"""Bounded argv fuzz of the command line, run in process.

Each example is one subcommand in one of two branches.  The edge branch
draws a subset of its options, values taken from edge floats (signed
zeros, the smallest subnormal, +-1e308, nan, +-inf), malformed ranges and
malformed --fn ids.  The plain branch gives every required option, exactly
one of each pair of alternatives the subcommand needs (--n or --n-range,
and for xm_abs_exp --m or --m-range), and plain values, so most of its
examples succeed.  Sizes are capped (n <= 64, --patches and --p-max <= 256)
so that no example builds a large rule, verify runs only its trig-moments
suite, and --out is never given.  Every example must end with exit code 0
or 1, raise nothing else out of main, and print strict JSON whenever --json
succeeds; each subcommand must succeed in at least its pinned number of
examples, so the checks after exit 0 keep seeing output.

Derandomized, so every run draws the same examples and tier-1 stays
deterministic.
"""

import contextlib
import io
import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from localcheb import cli

RULES = st.sampled_from(("f1", "cc", "f2", "f3", "f4"))
PLAIN_FNS = ("exp", "xm_abs_exp", "poly:1,-2,0.5")

# plain values: each is accepted wherever its option is
PLAIN = {
    "--rule": RULES,
    "--n": st.integers(4, 12).map(str),
    "--patches": st.integers(1, 256).map(str),
    "--p-max": st.integers(1, 256).map(str),
    "--fn": st.sampled_from(PLAIN_FNS),
    "--m": st.integers(0, 6).map(str),
    # plain left ends lie below plain right ends, so a plain pair is an interval
    "--a": st.sampled_from(("-0.5", "0.0", "-2")),
    "--b": st.sampled_from(("1", "2.5", "1e-3")),
    # k <= 3 stays below every plain n
    "--k-range": st.sampled_from(("1..3", "2..3")),
    "--n-range": st.sampled_from(("2..6", "4..8")),
    "--m-range": st.sampled_from(("0..2", "1..4")),
    "--json": st.none(),
    "--suite": st.just("trig-moments"),
}

# edge values: in the edge branch each is drawn half the time, a plain one otherwise
EDGE_FLOATS = st.sampled_from(("0", "-0.0", "5e-324", "-5e-324", "1e308", "-1e308", "nan", "inf",
                               "-inf"))
RANGES = st.sampled_from(("5..2", "-1..3", "1..", "a..b"))
EDGE = {
    "--n": st.integers(-1, 64).map(str),
    "--patches": st.integers(-1, 256).map(str),
    "--p-max": st.integers(-1, 256).map(str),
    "--fn": st.sampled_from(("bogus", "poly:", "poly:nan", "poly:1,,2", "poly:1e308,1e308")),
    "--m": st.integers(-1, 6).map(str),
    "--a": EDGE_FLOATS,
    "--b": EDGE_FLOATS,
    "--k-range": RANGES,
    "--n-range": RANGES,
    "--m-range": RANGES,
}
# one value strategy per option flag of cli._COMMANDS; a new option without a
# row here fails the test, so the fuzz keeps covering every option
VALUES = {flag: EDGE[flag] | PLAIN[flag] if flag in EDGE else PLAIN[flag] for flag in PLAIN}
ALWAYS = {"--suite"}
# the plain branch always names its function, since --fn is optional in the studies
PLAIN_ALWAYS = ALWAYS | {"--fn"}
MOSTLY = st.sampled_from((True,) * 9 + (False,))
NEVER = {"--out"}
# the plain branch gives exactly one flag of each pair a subcommand has both of
ALTERNATIVES = (("--n", "--n-range"), ("--m", "--m-range"))

# Fewest exit-0 examples of the 500 per subcommand, --json apart; each floor is
# about half the count the derandomized draw gives (quad 39, coeffs --json 21,
# nodes --json 20, study-composite 51), so a hypothesis release that draws
# other examples still clears it.  verify has a single argv, which hypothesis
# runs only a few times.
FLOORS = {
    "nodes": 8, "nodes --json": 10, "coeffs": 13, "coeffs --json": 10, "quad": 20,
    "study-decay": 32, "study-quad": 11, "study-composite": 25, "verify": 1,
}


def _plain_flags(draw, options) -> set[str]:
    """The flags a plain example gives: required ones, one of each pair, half of the rest."""
    flags = {flag for flag, _ in options}
    chosen = {flag for flag, kwargs in options if kwargs.get("required") or flag in PLAIN_ALWAYS}
    for group in ALTERNATIVES:
        present = [flag for flag in group if flag in flags]
        if len(present) == 2:
            chosen.add(draw(st.sampled_from(present)))
        elif present:
            chosen.add(present[0])
    optional = [flag for flag in flags - chosen if not any(flag in g for g in ALTERNATIVES)]
    return chosen | {flag for flag in sorted(optional) if draw(st.booleans())}


@st.composite
def argvs(draw) -> list[str]:
    name, _, _, options = draw(st.sampled_from(cli._COMMANDS))
    plain = draw(st.booleans())
    if plain:
        given_flags = _plain_flags(draw, options)
        fn = draw(PLAIN["--fn"])
        if fn != "xm_abs_exp":  # the smooth functions take no regularity
            given_flags -= {"--m", "--m-range"}
    argv = [name]
    for flag, kwargs in options:
        if flag in NEVER:
            continue
        if plain:
            if flag not in given_flags:
                continue
            value = fn if flag == "--fn" else draw(PLAIN[flag])
        else:
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


def test_cli_argv_fuzz_exits_zero_or_one():
    successes = Counter()

    @settings(derandomize=True, deadline=None, max_examples=500, database=None)
    @given(argvs())
    def run(argv):
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
        if code == 0:
            successes[argv[0] + (" --json" if "--json" in argv else "")] += 1

    run()
    short = {key: successes[key] for key, floor in FLOORS.items() if successes[key] < floor}
    assert not short, (short, successes)
