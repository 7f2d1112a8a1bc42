"""Command-line front end: transforms, sync runs, scans, and probe fits.

All commands are deterministic batch runs: the same invocation produces
byte-identical output.  Numbers are printed with a configurable number of
significant digits (default 15).  Instantaneous speeds serialize as "inf".
Setting the environment variable ``SYNCHRONY_LAB_C`` rescales printed
speed-valued fields (and only those) into SI units; a finite speed that it
scales past the largest float is invalid input, not "inf".

Exit codes: 0 success, 2 degenerate convention or usage error, 3 invalid
input file or parameters (including a ``scan``/``probe`` grid of more than
:data:`MAX_GRID_POINTS` points, or a ``probe`` fit of more than
:data:`MAX_FIT_CELLS` grid points times samples), 4 ill-conditioned fit.
Every error path writes a single machine-parsable line
``error_code key=value ...`` to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import asdict

from . import kinematics, probe, syncsim
from .errors import DegenerateConvention, FileInvalid, IllConditioned, SynchronyError

PRESETS = ("lorentz", "superluminal")

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3
EXIT_ILL_CONDITIONED = 4

#: Largest beta grid ``scan`` and ``probe`` accept; checked before allocation.
MAX_GRID_POINTS = 10**6

#: Largest grid points x samples ``probe`` fits; checked before the estimator allocates.
MAX_FIT_CELLS = 10**7


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
        stream.write(json.dumps(_walk(document, fmt.num), indent=2) + "\n")
    elif output == "jsonl":
        for row in rows:
            stream.write(json.dumps(_walk(row, fmt.num)) + "\n")
    else:
        writer = csv.DictWriter(stream, columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(_walk(rows, fmt.text))
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
        raise argparse.ArgumentError(None, "--preset conflicts with explicit --k/--k-prime")
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
        "source": asdict(source),
        "image": asdict(image),
        "coefficients": asdict(coeffs),
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
    return [min(lo + i * step, hi) for i in range(int(span) + 1)]  # the slack may pass hi


def cmd_scan(args):
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
    samples = probe.load_samples(args.samples)
    grid = _grid(args.beta_min, args.beta_max, args.step)
    if len(grid) * len(samples) > MAX_FIT_CELLS:
        raise ValueError(f"fit would have more than {MAX_FIT_CELLS} grid-sample cells")
    _, report = probe.estimate_absolute_frame(samples, grid)
    return {"command": "probe", **report.to_dict()}, [], []


class _Parser(argparse.ArgumentParser):
    """Raises each usage error for :func:`main` to report, instead of printing usage and exiting."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="synchrony-lab",
        description="Synchrony-convention kinematics, clock-sync simulation, and frame probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", help="apply a convention boost to one event")
    tr.add_argument("--event", required=True, help="comma-separated t,x[,y[,z]]")
    tr.add_argument("--beta", type=float, required=True)
    tr.add_argument("--k", type=float, default=None)
    tr.add_argument("--k-prime", dest="k_prime", type=float, default=None)
    tr.add_argument("--preset", choices=PRESETS, default=None)

    ow = sub.add_parser("oneway", help="closed-form one-way speeds for a convention")
    ow.add_argument("--k", type=float, required=True)

    sy = sub.add_parser("sync", help="run a synchronization scenario file")
    sy.add_argument("--scenario", required=True)
    sy.add_argument("--protocol", choices=syncsim.PROTOCOLS, default=None)
    sy.add_argument("--master", type=int, default=0)

    sc = sub.add_parser("scan", help="anisotropy scan over candidate drift velocities")
    sc.add_argument("--beta-min", dest="beta_min", type=float, required=True)
    sc.add_argument("--beta-max", dest="beta_max", type=float, required=True)
    sc.add_argument("--step", type=float, required=True)

    pr = sub.add_parser("probe", help="fit the preferred-frame velocity from samples")
    pr.add_argument("--samples", required=True)
    pr.add_argument("--beta-min", dest="beta_min", type=float, default=-0.9)
    pr.add_argument("--beta-max", dest="beta_max", type=float, default=0.9)
    pr.add_argument("--step", type=float, default=0.01)

    # The first format listed is the command's default.
    for command, handler, formats in (
        (tr, cmd_transform, ("json", "csv")),
        (ow, cmd_oneway, ("json", "csv")),
        (sy, cmd_sync, ("json", "csv", "jsonl")),
        (sc, cmd_scan, ("csv", "json")),
        (pr, cmd_probe, ("json",)),
    ):
        command.add_argument("--format", choices=formats, default=formats[0])
        command.add_argument("--precision", type=int, default=15)
        command.set_defaults(handler=handler)
    return parser


def _fail(stderr, code: int, error_code: str, **fields) -> int:
    pairs = " ".join(k + "=" + re.sub(r"\s", "_", str(v)) for k, v in fields.items())
    stderr.write(f"{error_code} {pairs}".rstrip() + "\n")
    return code


def main(argv=None, *, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    buffer = io.StringIO()
    try:
        args = _build_parser().parse_args(argv)
        fmt = Formatter(args.precision)
        _render(buffer, fmt, args.format, *args.handler(args))
    except argparse.ArgumentError as exc:
        return _fail(stderr, EXIT_USAGE, "usage_error", reason=exc)
    except DegenerateConvention as exc:
        return _fail(stderr, EXIT_DEGENERATE, "degenerate_convention",
                     beta=exc.beta, k=exc.k)
    except syncsim.ScenarioError as exc:
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
