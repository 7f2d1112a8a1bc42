"""Differential test of the CLI's fast reader against argparse.

The fast reader takes only the canonical command line, the command followed
by ``--flag value`` pairs, and leaves every other form to argparse.  Command
lines are drawn from the flag table itself: its commands and flags, with a
space or ``=`` between flag and value, repeated and abbreviated flags, ``--``,
``-h`` and value texts that argparse reads in surprising ways.  Whatever the
fast reader returns must be None or exactly argparse's namespace.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from synchrony_lab import cli

PARSER = cli._build_parser()
OPTIONS = sorted({flag[0] for _, _, flags in cli.COMMANDS.values() for flag in flags})

#: Value texts argparse reads in surprising ways: a leading "-" makes a flag
#: unless the whole text is a plain negative number, and float() and int()
#: take underscores and surrounding whitespace.
QUIRKS = ["-0.5", "-.5", "-5", "-0", "-1e-3", "-inf", "nan", "1_0", " 1", "", "-5\n", "-",
          "--", "-h", "--k", "1,0", "-1,0", "x"]
INTEGER = st.integers(-99, 99).map(str)
#: Value texts each type of flag mostly accepts.
ACCEPTED = {float: st.one_of(st.floats().map(repr), INTEGER), int: INTEGER,
            str: st.text(max_size=8)}


def _value(kind):
    """A value text for a flag of ``kind``: mostly one it accepts, sometimes a quirk."""
    accepted = st.sampled_from(kind) if isinstance(kind, tuple) else ACCEPTED[kind]
    quirk = st.sampled_from(QUIRKS)
    return st.integers(0, 7).flatmap(lambda roll: quirk if roll == 0 else accepted)


@st.composite
def command_lines(draw):
    """A command line near the canonical form, often bent into one that argparse must read."""
    command = draw(st.sampled_from([*cli.COMMANDS, "frobnicate", "-h"]))
    flags = cli.COMMANDS.get(command, ("", None, ()))[2]
    pairs = [(option, draw(_value(kind))) for option, kind, _, required, _ in flags
             if draw(st.integers(0, 9)) > (0 if required else 6)]
    if draw(st.integers(0, 2)) == 0:  # a flag of any command, maybe abbreviated or repeated
        option = draw(st.sampled_from([*OPTIONS, "--bogus"]))
        option = option[:draw(st.integers(3, len(option)))]
        pairs.append((option, draw(_value(float))))
    argv = [command]
    for option, value in draw(st.permutations(pairs)):
        argv += [f"{option}={value}"] if draw(st.integers(0, 9)) == 0 else [option, value]
    if draw(st.integers(0, 9)) == 0:  # a bare token: help, the end of the flags, or a stray
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--", "x"])))
    return argv


def _argparse(argv):
    """argparse's namespace for ``argv``, or None where it shows help or a usage error."""
    try:
        return PARSER.parse_args(argv)
    except (cli.UsageError, cli._Help):
        return None


def _fields(namespace) -> dict:
    """Every attribute, floats by repr so that nan equals nan and -0.0 differs from 0.0."""
    return {name: repr(value) if isinstance(value, float) else value
            for name, value in vars(namespace).items()}


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
@example(argv=["oneway", "--k", "-1e-3"])  # argparse takes it for a flag
@example(argv=["oneway", "--k", "-inf"])
@example(argv=["oneway", "--k", "-.5"])  # a negative number: a value
@example(argv=["oneway", "--k", "-0"])
@example(argv=["oneway", "--k", "1_0"])
@example(argv=["oneway", "--k", " 1"])
@example(argv=["oneway", "--k", ""])
@example(argv=["oneway", "--k", "nan"])
@example(argv=["oneway", "--k", "0.1", "--k", "0.2"])  # the last one wins
@example(argv=["oneway", "--k=0.6"])
@example(argv=["oneway", "--k", "0.6", "--form", "csv"])
@example(argv=["oneway", "--", "--k", "0.6"])
@example(argv=["oneway"])
@example(argv=["transform", "--beta", "0.5"])
@example(argv=["sync", "--scenario", "", "--master", "-5"])
@example(argv=["sync", "--scenario", "s.json", "--protocol", "ntp"])
@example(argv=["probe", "--samples", "-"])
def test_the_fast_reader_returns_none_or_the_argparse_namespace(argv):
    fast = cli._read_canonical(argv)
    if fast is not None:
        slow = _argparse(argv)
        assert slow is not None, argv
        assert _fields(fast) == _fields(slow)


#: Value texts of each type that argparse takes for values, not flags.
CANONICAL = {
    float: st.one_of(st.floats(min_value=0).map(repr), st.just("nan"),
                     st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:f}"),
                     st.sampled_from(["-.5", "-5", "-0", "1_0", " 1"])),
    int: st.integers(-10**6, 10**6).map(str),
    str: st.text().filter(lambda text: not text.startswith("-")),
}


@st.composite
def canonical_lines(draw):
    """The command, then each required flag and some optional ones with values they take."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    pairs = [(option, draw(st.sampled_from(kind) if isinstance(kind, tuple) else CANONICAL[kind]))
             for option, kind, _, required, _ in cli.COMMANDS[command][2]
             if required or draw(st.booleans())]
    return [command, *(text for pair in draw(st.permutations(pairs)) for text in pair)]


@settings(max_examples=200, deadline=None)
@given(argv=canonical_lines())
@example(argv=["oneway", "--k", "-.5"])
@example(argv=["oneway", "--k", "1_0", "--precision", " 7"])
@example(argv=["sync", "--scenario", "", "--master", "-0"])
def test_the_fast_reader_reads_every_canonical_line(argv):
    fast = cli._read_canonical(argv)
    assert fast is not None, argv
    assert _fields(fast) == _fields(_argparse(argv))

