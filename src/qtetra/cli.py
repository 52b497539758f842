"""Command-line surface: every supported data product behind one command.

Commands
    tetra        dihedral cosines for Bloch points or named states
    fluct        total fluctuation for Bloch points or named states
    reconstruct  classical tetrahedron parameters for Bloch points
    amplitude    vertex amplitude with the fifth node at given points
    sweep        amplitude grid over (theta, phi) for the fifth node
    table1       the ten named amplitudes fitted against the references
    table2       named-state coordinates and fluctuations
    experiment   noisy preparation/tomography/purification rehearsal

Outputs are deterministic: identical arguments (including seeds) produce
byte-identical files. Floats are written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import itertools
import json
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import named_states, tomography
from .geometry import InfeasibleGeometryError, expectations_to_geometry
from .tetrahedron import (
    BlochPoint,
    bloch_state,
    fluctuation,
    independent_dihedral_expectations,
)

# A sweep peaks at ~33 MB plus ~107 B per cell, so this cap is ~1.1 GB.
MAX_SWEEP_CELLS = 10_000_000

_CHUNK_ROWS = 4096
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _chunks(rows):
    """Lists of up to _CHUNK_ROWS consecutive rows."""
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        yield chunk


def _array_rows(table: np.ndarray):
    """The rows of a 2-D float array as lists of Python floats, one chunk at a time."""
    for start in range(0, len(table), _CHUNK_ROWS):
        yield from table[start:start + _CHUNK_ROWS].tolist()


def _json_cells(column) -> list[str]:
    """One column's cells as json.dumps writes them: strings quoted, the rest as floats."""
    if isinstance(column[0], str):
        return list(map(json.dumps, column))
    values = list(map(float, column))
    texts = list(map(float.__repr__, values))
    if not all(map(math.isfinite, values)):
        texts = [_JSON_NONFINITE.get(text, text) for text in texts]
    return texts


def _write_csv(header: list[str], rows, out) -> None:
    """Rows as CSV lines, strings verbatim and numbers with 17 significant digits.

    One ``%`` template, built from the first row's cell kinds, formats every
    row, so all rows must share those kinds.
    """
    out.write(",".join(header) + "\n")
    template = None
    for chunk in _chunks(rows):
        if template is None:
            template = ",".join("%s" if isinstance(c, str) else "%.17g" for c in chunk[0]) + "\n"
        out.write("".join([template % tuple(row) for row in chunk]))


def _write_json_rows(header: list[str], rows, out) -> None:
    """Rows as a JSON list of objects, written a chunk at a time.

    The bytes equal ``json.dumps(objects, indent=2, sort_keys=True) + "\\n"``
    for the objects ``dict(zip(header, row))`` with every non-string cell as a
    float. Cells are converted a column at a time, so each column must hold
    one kind, and all rows must have the first row's length (at least one).
    """
    out.write("[")
    template = None
    for chunk in _chunks(rows):
        if template is None:
            # a dict keeps a repeated key's last cell; zip stops at the row's end
            last = {key: i for i, key in enumerate(header[: len(chunk[0])])}
            keys = sorted(last)
            order = [last[key] for key in keys]
            quoted = [json.dumps(key).replace("%", "%%") for key in keys]
            fields = ",\n".join(f"    {key}: %s" for key in quoted)
            template = "\n  {\n" + fields + "\n  }"
            separator = ""
        columns = list(zip(*chunk))
        cells = zip(*[_json_cells(columns[i]) for i in order])
        out.write(separator + ",".join([template % row for row in cells]))
        separator = ","
    out.write("]\n" if template is None else "\n]\n")


def _write_json(obj, out) -> None:
    out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _output(path: str):
    """A text handle on stdout for '-', else on a temporary file next to ``path``.

    The temporary file replaces ``path`` only once the block has finished, so
    an error midway leaves ``path`` as it was. It takes the mode an existing
    file at ``path`` has, else the one a new file gets under the umask. A path
    that is not a regular file (a device such as /dev/null, a pipe) is
    written in place, since replacing it would destroy it.
    """
    if path in (None, "-"):
        yield sys.stdout
        return
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8") as handle:
            yield handle
        return
    try:
        fd, temporary = tempfile.mkstemp(
            prefix=f".{os.path.basename(target)}.", suffix=".tmp", dir=os.path.dirname(target))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.chmod(temporary, stat.S_IMODE(mode))
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise


def _emit(header, rows, args, payload=None) -> None:
    """Write the iterable ``rows`` as CSV, or ``payload`` (default: the rows) as JSON."""
    with _output(args.out) as out:
        if args.format == "csv":
            _write_csv(header, rows, out)
        elif payload is None:
            _write_json_rows(header, rows, out)
        else:
            _write_json(payload, out)


def _named_points(states: str) -> list[tuple[str, BlochPoint]]:
    """The named states of a comma-separated --states value, in order."""
    points = []
    for name in states.split(","):
        name = name.strip()
        if name not in named_states.NAMED_POINTS:
            raise ValueError(
                f"unknown state {name!r}; known: {', '.join(named_states.STATE_NAMES)}"
            )
        points.append((name, named_states.NAMED_POINTS[name]))
    return points


def _collect_points(args) -> list[tuple[str, BlochPoint]]:
    """Named states from --states plus anonymous (--theta, --phi) pairs."""
    points = _named_points(args.states) if args.states else []
    thetas = args.theta or []
    phis = args.phi or []
    if len(thetas) != len(phis):
        raise ValueError("--theta and --phi must be given the same number of times")
    for theta, phi in zip(thetas, phis):
        points.append(("", BlochPoint(theta, phi)))
    if not points:
        raise ValueError("no input points: pass --states and/or --theta/--phi pairs")
    return points


def _cmd_tetra(args) -> None:
    header = ["state", "theta", "phi", "cos12", "cos13", "cos14"]
    rows = []
    for name, point in _collect_points(args):
        cosines = independent_dihedral_expectations(point)
        if args.convention == "normals":  # outward normals meet at the supplement
            cosines = [-c for c in cosines]
        rows.append([name, point.theta, point.phi, *cosines])
    _emit(header, rows, args)


def _cmd_fluct(args) -> None:
    header = ["state", "theta", "phi", "delta"]
    rows = []
    for name, point in _collect_points(args):
        rows.append([name, point.theta, point.phi, fluctuation(point)])
    _emit(header, rows, args)


def _cmd_reconstruct(args) -> None:
    header = ["state", "theta", "phi", "status", "a", "b", "c", "d", "e", "f"]
    rows = []
    details = []
    for name, point in _collect_points(args):
        base = [name, point.theta, point.phi]
        try:
            tetra = expectations_to_geometry(point)
        except InfeasibleGeometryError as exc:
            rows.append(base + ["infeasible"] + [math.nan] * 6)
            details.append({"state": name, "theta": point.theta, "phi": point.phi,
                            "status": "infeasible", "detail": str(exc)})
            continue
        rows.append(base + ["ok"] + list(tetra.params))
        details.append(
            {
                "state": name,
                "theta": point.theta,
                "phi": point.phi,
                "status": "ok",
                "params": {k: float(v) for k, v in zip("abcdef", tetra.params)},
                "vertices": {
                    "A": list(tetra.A), "B": list(tetra.B),
                    "C": list(tetra.C), "D": list(tetra.D),
                },
            }
        )
    _emit(header, rows, args, details)


def _cmd_amplitude(args) -> None:
    header = ["state", "theta", "phi", "re", "im", "abs", "phase"]
    points = _collect_points(args)
    values = named_states.fifth_node_amplitudes([bloch_state(point) for _, point in points])
    rows = [
        [name, point.theta, point.phi, value.real, value.imag, abs(value), cmath.phase(value)]
        for (name, point), value in zip(points, values)
    ]
    _emit(header, rows, args)


def _cmd_sweep(args) -> None:
    if args.grid_theta < 1 or args.grid_phi < 1:
        raise ValueError("--grid-theta and --grid-phi must be positive")
    cells = args.grid_theta * args.grid_phi
    if cells > MAX_SWEEP_CELLS:
        raise ValueError(f"a {args.grid_theta}x{args.grid_phi} sweep has {cells} cells; "
                         f"the limit is {MAX_SWEEP_CELLS}")
    thetas = np.linspace(0.0, math.pi, args.grid_theta)
    phis = np.linspace(0.0, 2 * math.pi, args.grid_phi, endpoint=False)
    grid = named_states.fifth_node_sweep(thetas, phis)
    theta_grid, phi_grid = np.meshgrid(thetas, phis, indexing="ij")
    # np.hypot, not np.abs: it rounds each cell as the scalar abs() of a complex does
    columns = [theta_grid, phi_grid, grid.real, grid.imag, np.hypot(grid.real, grid.imag),
               np.angle(grid)]
    header = ["theta", "phi", "re", "im", "abs", "phase"]
    _emit(header, _array_rows(np.column_stack([c.ravel() for c in columns])), args)


def _cmd_table1(args) -> None:
    comparison = named_states.reference_comparison()
    convention = f"{comparison.rule}/{comparison.regular}"
    header = [
        "state", "theta", "phi", "re_raw", "im_raw", "re_fit", "im_fit",
        "re_ref", "im_ref", "rel_err_all", "rel_err_consistent", "convention",
        "scale_consistent_re", "scale_consistent_im", "scale_all_re", "scale_all_im",
        "note",
    ]
    rows = []
    for name in named_states.STATE_NAMES:
        point = named_states.NAMED_POINTS[name]
        raw = comparison.computed[name]
        fit = comparison.scale_consistent * raw
        ref = named_states.REFERENCE_AMPLITUDES[name]
        note = ""
        if name == named_states.INCONSISTENT_ENTRY:
            note = (
                "reference entry exceeds the multilinear prediction by factor "
                f"{comparison.inconsistency_factor:.6f} (= sqrt(2)); both values kept"
            )
        rows.append(
            [name, point.theta, point.phi, raw.real, raw.imag, fit.real, fit.imag,
             ref.real, ref.imag, comparison.errors_all[name],
             comparison.errors_consistent[name], convention,
             comparison.scale_consistent.real, comparison.scale_consistent.imag,
             comparison.scale_all.real, comparison.scale_all.imag, note]
        )
    meta = {
        "convention": {"slot_rule": comparison.rule, "regular_state": comparison.regular},
        "scale_all": {"re": comparison.scale_all.real, "im": comparison.scale_all.imag},
        "scale_consistent": {
            "re": comparison.scale_consistent.real,
            "im": comparison.scale_consistent.imag,
        },
        "inconsistency_factor": comparison.inconsistency_factor,
        "reference_units": "1e-5",
        "rows": [dict(zip(header, row)) for row in rows],
    }
    _emit(header, rows, args, meta)


def _cmd_table2(args) -> None:
    header = ["state", "theta", "phi", "delta_closed_form", "delta_reference", "note"]
    rows = []
    for name in named_states.STATE_NAMES:
        point = named_states.NAMED_POINTS[name]
        delta = fluctuation(point)
        ref = named_states.REFERENCE_FLUCTUATION[name]
        note = ""
        if abs(delta - ref) > 1e-9:
            note = (
                f"closed form gives {delta:.6f} but the reference lists {ref:.6f}; "
                "both emitted"
            )
        rows.append([name, point.theta, point.phi, delta, ref, note])
    _emit(header, rows, args)


def _cmd_experiment(args) -> None:
    noise = tomography.NoiseSpec(
        depolarizing_p=args.depolarizing_p,
        rotation_angle_sd=args.rotation_sd,
        seed=args.seed if args.seed is not None else tomography.DEFAULT_NOISE.seed,
    )
    targets = dict(_named_points(args.states)) if args.states else None
    report = tomography.simulate_experiment(targets=targets, noise=noise)
    header = [
        "state", "theta", "phi", "fidelity", "delta_theory", "delta_measured",
        "cos12", "cos13", "cos14", "re_amp_purified", "im_amp_purified",
    ]
    rows = []
    for t in report.targets:
        rows.append(
            [t.name, t.theta, t.phi, t.fidelity, t.delta_theory, t.delta_measured,
             t.dihedral_measured[0], t.dihedral_measured[1], t.dihedral_measured[2],
             t.amplitude_purified.real, t.amplitude_purified.imag]
        )
    _emit(header, rows, args, report.to_dict())


_HANDLERS = {
    "tetra": _cmd_tetra,
    "fluct": _cmd_fluct,
    "reconstruct": _cmd_reconstruct,
    "amplitude": _cmd_amplitude,
    "sweep": _cmd_sweep,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "experiment": _cmd_experiment,
}


def _add_states_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--states", type=str, default="", help="comma-separated named states, e.g. A0,C1")


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float, action="append", help="Bloch polar angle (repeatable)")
    parser.add_argument("--phi", type=float, action="append", help="Bloch azimuth (repeatable)")
    _add_states_arg(parser)


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=str, default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtetra",
        description="Quantum tetrahedra, vertex amplitudes and the tomography rehearsal",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="plain-text key=value file supplying the command and flags")
    sub = parser.add_subparsers(dest="command")

    for name in ("tetra", "fluct", "reconstruct", "amplitude"):
        p = sub.add_parser(name)
        _add_point_args(p)
        _add_output_args(p)
        if name == "tetra":
            p.add_argument("--convention", choices=("interior", "normals"), default="interior",
                           help="cosines of the interior angles, or of those between outward normals")

    p = sub.add_parser("sweep")
    _add_output_args(p)
    p.add_argument("--grid-theta", type=int, required=True, help="theta samples in [0, pi]")
    p.add_argument("--grid-phi", type=int, required=True, help="phi samples in [0, 2*pi)")

    for name in ("table1", "table2"):
        p = sub.add_parser(name)
        _add_output_args(p)

    p = sub.add_parser("experiment")
    _add_states_arg(p)
    _add_output_args(p)
    p.add_argument("--seed", type=int, default=None, help="noise seed")
    p.add_argument("--depolarizing-p", type=float, default=tomography.DEFAULT_NOISE.depolarizing_p)
    p.add_argument("--rotation-sd", type=float, default=tomography.DEFAULT_NOISE.rotation_angle_sd)

    return parser


def _argv_from_config(path: str) -> list[str]:
    argv: list[str] = []
    command = None
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key = value): {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "command":
                if command is not None:
                    raise ValueError("config key 'command' is set more than once")
                command = value
            else:
                # one --key=value token, so argparse never reads a value such
                # as -1e-05 as an option
                argv.append(f"--{key.replace('_', '-')}={value}")
    if command is None:
        raise ValueError("config file must set 'command'")
    if command not in _HANDLERS:
        raise ValueError(f"unknown command {command!r} in config")
    return [command] + argv


def _check_config_keys(args: argparse.Namespace, argv: list[str]) -> None:
    """Refuse a key that only abbreviates a flag, or repeats a flag that keeps one value."""
    keys = [token[2:].partition("=")[0].replace("-", "_") for token in argv[1:]]
    for key in keys:
        if key not in vars(args):
            raise ValueError(f"unknown config key {key!r}")
        if keys.count(key) > 1 and not isinstance(getattr(args, key), list):
            raise ValueError(f"config key {key!r} is set more than once")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            if args.command is not None:
                raise ValueError("--config supplies the command; do not also give one")
            config_argv = _argv_from_config(args.config)
            args = parser.parse_args(config_argv)
            _check_config_keys(args, config_argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: no command given", file=sys.stderr)
            return 2
        _HANDLERS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
