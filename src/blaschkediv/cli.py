"""Command-line front end.

Subcommands cover divisor I/O, the critical-divisor map and its
inverse, the boundary extension, classification, the lamination table,
the numerical experiments, and figure rendering.  Every command is pure
given its arguments and seed: identical invocations produce
byte-identical JSON/CSV, and SVG differs only in a timestamp comment
that ``--deterministic`` suppresses.

Exit codes: 0 success, 2 precondition violation, 3 numerical failure,
4 I/O or schema error.  Failures print a machine-readable JSON
diagnostic to stderr.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import numbers
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .blaschke import (critical_divisor, from_zero_divisor,
                       zeros_from_critical)
from .boundary import (DEFAULT_DEPTH, DEFAULT_TOL, boundary_from_json,
                       classify, extend_phi)
from .divisor import (_atom_from_json, _int, divisor_from_json,
                      divisor_to_json)
from .errors import (NumericalError, PreconditionError, SchemaError)
from .experiments import (SweepConfig, multiplier_limit_check,
                          prescribe_distance, verify_cont_orbit,
                          verify_extension_convergence)
from .lamination import lamination_table, ray_pairs, table_csv_rows
from .svgfig import disk_figure, profile_figure

__all__ = [
    "main",
    "cmd_critpts",
    "cmd_invert",
    "cmd_classify",
    "cmd_extend",
    "cmd_lamination",
    "cmd_experiment",
    "cmd_render",
]

LAMINATION_CSV_HEADER = [
    "point_re", "point_im", "level",
    "theta_minus_num", "theta_minus_den",
    "theta_plus_num", "theta_plus_den", "nu",
]


def _load_payload(value: str):
    """Parse an argument that is either inline JSON or a path to a JSON
    file (inline when it starts with ``{`` or ``[``)."""
    text = value.strip()
    if not text.startswith(("{", "[")):
        try:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {value!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {value!r}: {exc}") from exc


def _check_keys(config: dict, required: set, optional: set,
                where: str) -> None:
    keys = set(config)
    missing = required - keys
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def _json_text(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_critpts(args: argparse.Namespace) -> int:
    Z = divisor_from_json(_load_payload(args.zeros))
    B = from_zero_divisor(Z, args.m)
    ram = critical_divisor(B)
    _emit(_json_text(divisor_to_json(ram.free_ram)), args.out)
    if args.svg:
        zero_pts = [0j] + Z.points()
        crit_pts = ram.free_ram.points()
        if args.m >= 2:
            crit_pts = [0j] + crit_pts
        _emit(disk_figure(zeros=zero_pts, critical=crit_pts,
                          hull_generators=zero_pts,
                          deterministic=args.deterministic), args.svg)
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    R = divisor_from_json(_load_payload(args.ram))
    B = zeros_from_critical(R, args.m, newton_tol=args.tol)
    _emit(_json_text(divisor_to_json(B.free_zeros)), args.out)
    if args.svg:
        _emit(disk_figure(zeros=[0j] + B.free_zeros.points(),
                          critical=R.points(),
                          deterministic=args.deterministic), args.svg)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    D = boundary_from_json(_load_payload(args.divisor))
    report = classify(D, depth=args.depth, tol=args.tol)
    _emit(_json_text(report.to_json()), args.out)
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    D = boundary_from_json(_load_payload(args.divisor))
    m = args.m if args.m is not None else D.interior_part.m
    result = extend_phi(D, m)
    _emit(_json_text(divisor_to_json(result)), args.out)
    if args.svg:
        inputs = D.interior_part.free_zeros.points() + D.circle_part.points()
        interior = [z for z, _ in result.atoms if abs(z) < 1.0]
        circle = [z for z, mult in result.atoms if abs(z) >= 1.0
                  for _ in range(mult)]
        _emit(disk_figure(zeros=inputs + circle, critical=interior,
                          deterministic=args.deterministic), args.svg)
    return 0


def cmd_lamination(args: argparse.Namespace) -> int:
    D = boundary_from_json(_load_payload(args.divisor))
    table = lamination_table(D, args.depth)
    _emit(_csv_text(LAMINATION_CSV_HEADER, table_csv_rows(table)), args.out)
    if args.svg:
        leaves = [(cmath.exp(2j * cmath.pi * float(tm)),
                   cmath.exp(2j * cmath.pi * float(tp)))
                  for tm, tp in ray_pairs(table)]
        _emit(disk_figure(leaves=leaves, deterministic=args.deterministic),
              args.svg)
    return 0


def _value(config: dict, key: str, convert, default=None):
    """``convert(config[key])``, or ``default`` when the key is absent.
    A value of the wrong type is a schema error naming its key."""
    if key not in config:
        return default
    try:
        return convert(config[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"config key {key!r}: {exc}") from exc


def _list(value: object) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _ints(value: object) -> list[int]:
    return [_int(n) for n in _list(value)]


def _point(value: object) -> complex:
    z, mult = _atom_from_json(value)
    if mult != 1:
        raise SchemaError(f"a point has multiplicity 1, got {value!r}")
    return z


def _run_converge(config: dict) -> dict:
    D = boundary_from_json(config["divisor"])
    cfg = SweepConfig(
        _value(config, "epsilons", lambda v: [float(e) for e in _list(v)]),
        _value(config, "samples_per_epsilon", _int),
        _value(config, "rng_seed", _int),
        _value(config, "tolerances", lambda v: dict(v or {})))
    return verify_extension_convergence(D, _value(config, "m", _int), cfg)


def _run_multiplier(config: dict) -> dict:
    D = boundary_from_json(config["divisor"])
    return multiplier_limit_check(D, _value(config, "n_schedule", _ints))


def _run_cont_orbit(config: dict) -> dict:
    D = boundary_from_json(config["divisor"])
    return verify_cont_orbit(D, _value(config, "q", _point),
                             _value(config, "l", _int),
                             _value(config, "n_schedule", _ints))


def _run_prescribe(config: dict) -> dict:
    D = boundary_from_json(config["divisor"])
    return prescribe_distance(
        D, _value(config, "q", _point), _value(config, "l", _int),
        _value(config, "L", float), _value(config, "eps", float),
        tau=_value(config, "tau", float, 1e-3),
        max_attempts=_value(config, "max_attempts", _int, 8)).to_json()


class _Experiment(NamedTuple):
    """An experiment's config keys, its runner, the CSV columns of its
    report rows (each ``profile`` row, or the report itself when it has
    no profile), and its figure axes ``(x key, y key, x label, y label)``
    or None."""
    required: set
    optional: set
    run: Callable[[dict], dict]
    columns: list
    axes: Optional[tuple]


#: ``render`` draws a profile with the axes of the first entry whose
#: axis keys its rows carry.
_EXPERIMENTS = {
    "converge": _Experiment(
        {"divisor", "m", "epsilons", "samples_per_epsilon", "rng_seed"},
        {"tolerances"}, _run_converge,
        ["epsilon", "max_distance", "mean_distance", "projected_max",
         "failures"],
        ("epsilon", "max_distance", "epsilon", "max matching distance")),
    "multiplier": _Experiment(
        {"divisor", "n_schedule"}, set(), _run_multiplier,
        ["n", "deviation"], ("n", "deviation", "n", "multiplier deviation")),
    "cont-orbit": _Experiment(
        {"divisor", "q", "l", "n_schedule"}, set(), _run_cont_orbit,
        ["n", "distance", "circle_distance"],
        ("n", "distance", "n", "orbit distance")),
    "prescribe": _Experiment(
        {"divisor", "q", "l", "L", "eps"}, {"tau", "max_attempts"},
        _run_prescribe, ["target_L", "achieved", "residual", "iterations"],
        None),
}


def _real(value: object) -> numbers.Real:
    if not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _column(rows: list, key: str, convert) -> list:
    """``convert`` of each row's ``key``; a missing or non-numeric entry
    is a schema error naming the column."""
    try:
        return [convert(r[key]) for r in rows]
    except KeyError:
        raise SchemaError(f"a profile row has no {key!r} column") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"profile column {key!r}: {exc}") from exc


def _profile_svg(rows: list, axes: tuple, deterministic: bool) -> str:
    x, y, xlabel, ylabel = axes
    return profile_figure(_column(rows, x, float), _column(rows, y, _real),
                          xlabel, ylabel, deterministic=deterministic)


def cmd_experiment(args: argparse.Namespace) -> int:
    config = _load_payload(args.config)
    if not isinstance(config, dict):
        raise SchemaError("experiment config must be a JSON object")
    if args.seed is not None:
        config["rng_seed"] = args.seed
    exp = _EXPERIMENTS[args.name]
    _check_keys(config, exp.required, exp.optional, f"{args.name} config")
    if args.svg and exp.axes is None:
        raise SchemaError(f"no figure defined for {args.name!r} reports")
    report = exp.run(config)
    _emit(_json_text(report), args.out)
    rows = report.get("profile", [report])
    if args.csv:
        _emit(_csv_text(exp.columns,
                        [[r[c] for c in exp.columns] for r in rows]),
              args.csv)
    if args.svg:
        _emit(_profile_svg(rows, exp.axes, args.deterministic), args.svg)
    return 0


def _render_csv_table(path: str, deterministic: bool) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != LAMINATION_CSV_HEADER:
        raise SchemaError("CSV input is not a lamination table")
    points = []
    leaves = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            points.append(complex(float(row[0]), float(row[1])))
            tminus = Fraction(int(row[3]), int(row[4]))
            tplus = Fraction(int(row[5]), int(row[6]))
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"lamination CSV line {line}: {exc}") from exc
        if tplus != tminus:
            leaves.append((cmath.exp(2j * cmath.pi * float(tminus)),
                           cmath.exp(2j * cmath.pi * float(tplus))))
    return disk_figure(zeros=points, leaves=leaves,
                       deterministic=deterministic)


def cmd_render(args: argparse.Namespace) -> int:
    if not args.input.strip().startswith(("{", "[")) and \
            args.input.endswith(".csv"):
        text = _render_csv_table(args.input, args.deterministic)
        _emit(text, args.out)
        return 0
    payload = _load_payload(args.input)
    if isinstance(payload, dict) and "atoms" in payload:
        D = divisor_from_json(payload)
        interior = [z for z, mult in D.atoms if abs(z) < 1.0
                    for _ in range(mult)]
        circle = [z for z, mult in D.atoms if abs(z) >= 1.0
                  for _ in range(mult)]
        text = disk_figure(zeros=interior + circle,
                           deterministic=args.deterministic)
    elif isinstance(payload, dict) and "result_divisor" in payload:
        D = divisor_from_json(payload["result_divisor"])
        try:
            w = complex(*payload.get("orbit_value"))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"orbit_value is not a [re, im] pair: {exc}") \
                from exc
        text = disk_figure(zeros=D.points(), critical=[w],
                           deterministic=args.deterministic)
    elif isinstance(payload, dict) and "profile" in payload:
        rows = payload["profile"]
        if not isinstance(rows, list) or \
                not all(isinstance(r, dict) for r in rows):
            raise SchemaError("profile must be a list of JSON objects")
        axes = [exp.axes for exp in _EXPERIMENTS.values() if rows and
                exp.axes and exp.axes[0] in rows[0] and exp.axes[1] in rows[0]]
        if not axes:
            raise SchemaError("profile rows have no renderable columns")
        text = _profile_svg(rows, axes[0], args.deterministic)
    else:
        raise SchemaError("input is not a renderable report")
    _emit(text, args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process, on the first ``main`` call: every default
    # is an immutable scalar and ``parse_args`` returns a fresh
    # namespace, so one parser serves every call.  --out --svg
    # --deterministic are declared once on a parent parser; classify and
    # render, which draw no figure next to their output, declare their
    # own subset.
    figure = argparse.ArgumentParser(add_help=False)
    figure.add_argument("--out", default=None,
                        help="output path (default: stdout)")
    figure.add_argument("--svg", default=None,
                        help="also write an SVG figure to this path")
    figure.add_argument("--deterministic", action="store_true",
                        help="suppress timestamps in SVG output")

    parser = argparse.ArgumentParser(
        prog="blaschkediv",
        description="Divisor calculus of finite Blaschke products.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critpts", parents=[figure],
                       help="critical divisor of a product given by zeros")
    p.add_argument("--zeros", required=True,
                   help="zero divisor (inline JSON or path)")
    p.add_argument("--m", type=int, required=True,
                   help="multiplicity of the zero at the origin")

    p = sub.add_parser("invert", parents=[figure],
                       help="zeros from a prescribed ramification divisor")
    p.add_argument("--ram", required=True,
                   help="ramification divisor (inline JSON or path)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="largest residual of each critical-point condition "
                        "relative to the sum of the moduli of its terms "
                        "that each Newton solve must reach; finite and > 0")

    p = sub.add_parser("extend", parents=[figure],
                       help="boundary extension of the critical-divisor map")
    p.add_argument("--divisor", required=True,
                   help="boundary divisor (inline JSON or path)")
    p.add_argument("--m", type=int, default=None,
                   help="multiplicity at the origin (default: from input)")

    p = sub.add_parser("classify",
                       help="type classification of a boundary divisor")
    p.add_argument("--divisor", required=True)
    p.add_argument("--out", default=None,
                   help="output path (default: stdout)")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                   help="orbit depth of the numerical sweeps")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="tolerance of the numerical sweeps")

    p = sub.add_parser("lamination", parents=[figure],
                       help="exact angle table of the preimage tree")
    p.add_argument("--divisor", required=True)
    p.add_argument("--depth", type=int, default=3, help="tree depth")

    p = sub.add_parser("experiment", parents=[figure],
                       help="deterministic numerical experiments")
    p.add_argument("name", choices=sorted(_EXPERIMENTS))
    p.add_argument("--config", required=True,
                   help="experiment config (inline JSON or path)")
    p.add_argument("--csv", default=None,
                   help="also write the profile as CSV to this path")
    p.add_argument("--seed", type=int, default=None,
                   help="sets the config's rng_seed")

    p = sub.add_parser("render",
                       help="figure from a saved report (JSON or CSV)")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None,
                   help="output path (default: stdout)")
    p.add_argument("--deterministic", action="store_true",
                   help="suppress timestamps in SVG output")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up by name at call time, so a rebound ``cmd_*`` (a wrapper
    # or a test double) is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except SchemaError as exc:
        _diagnostic(exc)
        return 4
    except PreconditionError as exc:
        _diagnostic(exc)
        return 2
    except NumericalError as exc:
        _diagnostic(exc)
        return 3
    except OSError as exc:
        _diagnostic(exc)
        return 4


def _diagnostic(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    extra = getattr(exc, "last_good_t", None)
    if extra is not None:
        payload["last_good_t"] = extra
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
