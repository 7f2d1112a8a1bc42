"""Command-line front end: transforms, sync runs, scans, and probe fits.

All commands are deterministic batch runs: the same invocation produces
byte-identical output.  Numbers are printed with a configurable number of
significant digits (default 15).  Instantaneous speeds serialize as "inf".
Setting the environment variable ``SYNCHRONY_LAB_C`` rescales printed
speed-valued fields (and only those) into SI units; a finite speed that it
scales past the largest float is invalid input, not "inf".

Exit codes: 0 success, 2 degenerate convention or usage error, 3 invalid
input file or parameters (including a ``scan``/``probe`` grid of more than
:data:`MAX_GRID_POINTS` points or whose step is lost to rounding),
4 ill-conditioned fit.  The estimator's time and memory are
O(grid + samples), so no cap applies to their product.
Every error path writes a single machine-parsable line
``error_code key=value ...`` to stderr.

Importing this module loads only ``kinematics`` and ``errors`` of the
package: each command imports the layer it runs (``sync`` and ``scan`` the
simulator, ``probe`` the estimator and numpy), and the renderer imports the
module of the format it writes (``json`` or ``csv``), so a cold start
compiles and runs no module its command does not use.

Each command's flags are declared once, in :data:`COMMANDS`.  A command line
in the canonical form, the command followed by ``--flag value`` pairs with
each flag spelled out in full and given once, is read without argparse.
Only help, usage errors and every other form (``--flag=value``, an
abbreviated or repeated flag, ``--``) load argparse, which reads them as it
always has.
"""

from __future__ import annotations

import io
import math
import os
import re
import sys
import types

from . import kinematics
from .errors import (DegenerateConvention, FileInvalid, IllConditioned, ScenarioError,
                     SynchronyError)

PRESETS = ("lorentz", "superluminal")
#: ``sync --protocol``'s choices: :data:`syncsim.PROTOCOLS`, which the parser may not import.
PROTOCOLS = ("einstein", "superluminal", "external-regulation")

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3
EXIT_ILL_CONDITIONED = 4

#: Largest beta grid ``scan`` and ``probe`` accept; checked before allocation.
MAX_GRID_POINTS = 10**6


class UsageError(Exception):
    """A command line the CLI cannot run; :func:`main` reports it as ``usage_error``."""


class _Help(Exception):
    """``-h``/``--help`` was given; carries the help text for :func:`main` to print."""


class Formatter:
    """Renders numbers at a fixed significant-digit budget."""

    def __init__(self, digits: int):
        if not (1 <= digits <= 17):
            raise ValueError("precision must be between 1 and 17 digits")
        self.digits = digits

    def num(self, value: float):
        """JSON-ready value: :meth:`text` read back as a float, or 'inf'/'-inf' strings."""
        text = self.text(value)
        return text if math.isinf(value) else float(text)

    def text(self, value: float) -> str:
        """``value`` at ``digits`` significant digits; 'inf'/'-inf' print as such."""
        text = f"{value + 0.0:.{self.digits}g}"  # inf if it rounds past the largest float
        return text if math.isfinite(float(text)) else repr(value + 0.0)


def _speed_scale() -> float:
    raw = os.environ.get("SYNCHRONY_LAB_C")
    if raw is None:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"SYNCHRONY_LAB_C must be a number, got {raw!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise ValueError("SYNCHRONY_LAB_C must be positive and finite")
    return value


def _scaled(speed: float, scale: float) -> float:
    """A speed in display units; a finite speed that overflows is rejected, not printed as inf."""
    value = speed * scale
    if math.isinf(value) and math.isfinite(speed):
        raise ValueError("speed overflows when scaled by SYNCHRONY_LAB_C")
    return value


def _walk(value, leaf):
    """Copy of a nested dict/list structure with every float mapped through ``leaf``."""
    if isinstance(value, dict):
        return {key: _walk(item, leaf) for key, item in value.items()}
    if isinstance(value, list):
        return [_walk(item, leaf) for item in value]
    return leaf(value) if isinstance(value, float) else value


def _render(stream, fmt: Formatter, output: str, document: dict,
            rows=(), columns=(), footer: str | None = None) -> None:
    """Write one command's result as pretty JSON, JSON lines, or CSV.

    JSON prints ``document``; JSON lines print ``rows``; CSV prints the
    ``columns`` of ``rows``, then ``document[footer]`` as one ``# footer
    key=value ...`` comment line.
    """
    if output == "json":
        import json  # each format's module is imported by the branch that writes it

        json.dump(_walk(document, fmt.num), stream, indent=2)
        stream.write("\n")
    elif output == "jsonl":
        import json

        for row in rows:
            stream.write(json.dumps(_walk(row, fmt.num)) + "\n")
    else:
        import csv

        writer = csv.DictWriter(stream, columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(_walk(row, fmt.text) for row in rows)
        if footer is not None:
            pairs = _walk(document[footer], fmt.text).items()
            stream.write(f"# {footer} " + " ".join(f"{k}={v}" for k, v in pairs) + "\n")


def _parse_event(text: str) -> kinematics.Event:
    parts = text.split(",")
    if len(parts) not in (2, 3, 4):
        raise ValueError("event must be 't,x', 't,x,y' or 't,x,y,z'")
    return kinematics.Event(*(float(p) for p in parts))


def cmd_transform(args):
    if args.preset is not None and (args.k is not None or args.k_prime is not None):
        raise UsageError("--preset conflicts with explicit --k/--k-prime")
    k = args.k if args.k is not None else 0.0
    k_prime = args.k_prime if args.k_prime is not None else 0.0
    if args.preset == "superluminal":  # the lorentz preset is k = k' = 0
        k_prime = kinematics.induced_synchrony(0.0, args.beta)

    source = _parse_event(args.event)
    coeffs = kinematics.edwards_coeffs(args.beta, k, k_prime)
    image = coeffs.apply(source, chart="S'")
    document = {
        "command": "transform",
        "parameters": {"beta": args.beta, "k": k, "k_prime": k_prime},
        "source": source._asdict(),
        "image": image._asdict(),
        "coefficients": coeffs._asdict(),
    }
    row = {f"{name}_{axis}": document[name][axis]
           for name in ("source", "image") for axis in "txyz"}
    row.update(document["coefficients"])
    return document, [row], list(row)


def cmd_oneway(args):
    scale = _speed_scale()
    document = {
        "command": "oneway",
        "k": args.k,
        "c_plus": _scaled(kinematics.one_way_speed(args.k, kinematics.PLUS_X), scale),
        "c_minus": _scaled(kinematics.one_way_speed(args.k, kinematics.MINUS_X), scale),
        "two_way_mean": _scaled(kinematics.C, scale),
    }
    return document, [document], ["k", "c_plus", "c_minus", "two_way_mean"]


def cmd_sync(args):
    from . import syncsim  # here, so that transform and oneway never load it

    scale = _speed_scale()
    scenario = syncsim.load_scenario(args.scenario)
    lattice, results = syncsim.run_scenario(scenario, protocol=args.protocol, master=args.master)
    measurements = [
        {
            "from": spec.source,
            "to": spec.target,
            "kind": spec.kind,
            "direction": result.direction,
            "distance": result.distance,
            "elapsed": result.elapsed,
            "speed": _scaled(result.speed, scale),
        }
        for spec, result in zip(scenario.signals, results)
    ]
    document = {
        "command": "sync",
        "beta": scenario.beta,
        "protocol": lattice.protocol,
        "realized_k": lattice.frame.k,
        "clock_rate": lattice.rate,
        "offsets": [{"node": i, "offset": offset} for i, offset in enumerate(lattice.offsets)],
        "measurements": measurements,
    }
    rows = [{"beta": scenario.beta, "protocol": lattice.protocol, **m} for m in measurements]
    return document, rows, ["beta", "protocol", "direction", "distance", "elapsed", "speed"]


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """``lo``, ``lo + step``, ... up to ``hi``, every point checked to lie in (-1, 1)."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if hi < lo:
        raise ValueError("grid maximum is below its minimum")
    if not (-1.0 < lo and hi < 1.0):  # every point lies in [lo, hi]
        raise ValueError("beta grid must stay within (-1, 1)")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # int(span) + 1 points; also catches overflow to inf
        raise ValueError(f"grid would have more than {MAX_GRID_POINTS} points")
    points = [min(lo + i * step, hi) for i in range(int(span) + 1)]  # the slack may pass hi
    if any(a >= b for a, b in zip(points, points[1:])):
        raise ValueError("grid step is lost to rounding")
    return points


def cmd_scan(args):
    from . import syncsim

    scale = _speed_scale()
    scan = syncsim.isotropy_scan(_grid(args.beta_min, args.beta_max, args.step))
    points = [
        {"beta": pt.beta, "c_plus": _scaled(pt.c_plus, scale),
         "c_minus": _scaled(pt.c_minus, scale), "anisotropy": _scaled(pt.anisotropy, scale)}
        for pt in scan
    ]
    best = points[min(range(len(scan)), key=lambda i: abs(scan[i].anisotropy))]
    document = {
        "command": "scan",
        "points": points,
        "argmin": {"beta": best["beta"], "anisotropy": best["anisotropy"]},
    }
    return document, points, ["beta", "c_plus", "c_minus", "anisotropy"], "argmin"


def cmd_probe(args):
    from . import probe  # here, so that the other commands never load it

    grid = _grid(args.beta_min, args.beta_max, args.step)  # before the file: it is cheap
    samples = probe.load_samples(args.samples)
    _, report = probe.estimate_absolute_frame(samples, grid)
    return {"command": "probe", **report.to_dict()}, [], []


def _output(*formats):
    """The ``--format`` and ``--precision`` flags of a command; its first format is the default."""
    return (("--format", formats, formats[0], False, None),
            ("--precision", int, 15, False, None))


#: Each command's help, handler and flags.  A flag is ``(option, type, default, required,
#: help)``: its dest is the option without the leading ``--`` and with ``-`` read as
#: ``_``, as argparse derives it, and a tuple type lists the flag's choices.
COMMANDS = {
    "transform": ("apply a convention boost to one event", cmd_transform, (
        ("--event", str, None, True, "comma-separated t,x[,y[,z]]"),
        ("--beta", float, None, True, None),
        ("--k", float, None, False, None),
        ("--k-prime", float, None, False, None),
        ("--preset", PRESETS, None, False, None),
        *_output("json", "csv"))),
    "oneway": ("closed-form one-way speeds for a convention", cmd_oneway, (
        ("--k", float, None, True, None),
        *_output("json", "csv"))),
    "sync": ("run a synchronization scenario file", cmd_sync, (
        ("--scenario", str, None, True, None),
        ("--protocol", PROTOCOLS, None, False, None),
        ("--master", int, 0, False, None),
        *_output("json", "csv", "jsonl"))),
    "scan": ("anisotropy scan over candidate drift velocities", cmd_scan, (
        ("--beta-min", float, None, True, None),
        ("--beta-max", float, None, True, None),
        ("--step", float, None, True, None),
        *_output("csv", "json"))),
    "probe": ("fit the preferred-frame velocity from samples", cmd_probe, (
        ("--samples", str, None, True, None),
        ("--beta-min", float, -0.9, False, None),
        ("--beta-max", float, 0.9, False, None),
        ("--step", float, 0.01, False, None),
        *_output("json"))),
}

#: argparse reads a value that starts with "-" as a flag unless it matches this rule.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read_canonical(argv: list[str]):
    """The namespace argparse would return for ``command --flag value ...``, or None.

    Only that form is read here: each flag spelled out in full and given once,
    every required flag given, and each value converted as argparse converts
    it.  Any other command line returns None, to be read by argparse: help,
    ``--flag=value``, an abbreviation, a repeated flag, ``--``, an unknown
    command or flag, a value its type or choices refuse, and a value that
    argparse would take for a flag, such as ``-1e-3`` or ``-inf``.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, handler, flags = COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) + 1 != len(argv):  # a flag given twice
        return None
    args = types.SimpleNamespace(command=argv[0], handler=handler)
    for option, kind, default, required, _ in flags:
        text = given.pop(option, None)
        if text is None:
            if required:
                return None
            value = default
        elif text.startswith("-") and not _NEGATIVE_NUMBER.match(text):
            return None
        elif isinstance(kind, tuple):
            if text not in kind:
                return None
            value = text
        else:
            try:
                value = kind(text)
            except ValueError:
                return None
        setattr(args, option[2:].replace("-", "_"), value)
    return None if given else args


def _build_parser():
    import argparse  # here, so that a command line in the canonical form never loads it

    class Parser(argparse.ArgumentParser):
        """Raises usage errors and help for :func:`main` to report on its own streams."""

        def error(self, message):
            raise UsageError(message)

        def print_help(self, file=None):
            raise _Help(self.format_help())

    parser = Parser(
        prog="synchrony-lab",
        description="Synchrony-convention kinematics, clock-sync simulation, and frame probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option, kind, default, required, text in flags:
            convert = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            command.add_argument(option, default=default, required=required, help=text,
                                 **convert)
        command.set_defaults(handler=handler)
    return parser


def _fail(stderr, code: int, error_code: str, **fields) -> int:
    pairs = " ".join(k + "=" + re.sub(r"\s", "_", str(v)) for k, v in fields.items())
    stderr.write(f"{error_code} {pairs}".rstrip() + "\n")
    return code


def main(argv=None, *, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    buffer = io.StringIO()
    try:
        args = _read_canonical(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        fmt = Formatter(args.precision)
        _render(buffer, fmt, args.format, *args.handler(args))
    except _Help as shown:
        stdout.write(str(shown))
        return EXIT_OK
    except UsageError as exc:
        return _fail(stderr, EXIT_USAGE, "usage_error", reason=exc)
    except DegenerateConvention as exc:
        return _fail(stderr, EXIT_DEGENERATE, "degenerate_convention",
                     beta=exc.beta, k=exc.k)
    except ScenarioError as exc:
        return _fail(stderr, EXIT_INVALID_INPUT, "scenario_invalid",
                     invariant=exc.invariant, field=exc.field_name)
    except IllConditioned as exc:
        return _fail(stderr, EXIT_ILL_CONDITIONED, "ill_conditioned", reason=exc)
    except FileInvalid as exc:
        return _fail(stderr, EXIT_INVALID_INPUT, "file_invalid", reason=exc)
    except (ValueError, SynchronyError) as exc:
        return _fail(stderr, EXIT_INVALID_INPUT, "invalid_input", reason=exc)
    stdout.write(buffer.getvalue())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
