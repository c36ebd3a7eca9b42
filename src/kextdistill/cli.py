"""Batch experiment runner: thresholds, parameter sweeps to CSV, validation reports.

Exit codes: 0 success, 2 invalid arguments or configuration, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import validate as validate_mod
from .linalg import SolverConvergenceError
from .solver import BACKENDS, DEFAULT_TOL_ALPHA, SIDES, KExtProblem, check_tol_alpha, fidelity_threshold
from .states import StateValidationError, load_state
from .analytic import MnPTradeoff

CSV_HEADER = "# kext-csv v1"
ELLIPSE_HEADER = "# kext-ellipse v1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    """A sweep configuration failed validation."""


@dataclass
class SweepConfig:
    family: str = "werner"
    file: str | None = None
    d: int = 3
    parametrization: str = "gamma"
    start: float = -1.0
    stop: float = 1.0
    points: int = 81
    n_values: tuple[int, ...] = (1,)
    k_values: tuple[int, ...] = (1,)
    side: str = "bob"
    backend: str = "auto"
    tol_alpha: float = 1e-6
    output: str = "sweep_n{n}_k{k}.csv"

    def validate(self) -> None:
        if self.family not in ("werner", "file", "ellipse"):
            raise ConfigError(f"unknown family {self.family!r}")
        if self.family == "file" and not self.file:
            raise ConfigError("family=file needs a file= entry")
        if self.family == "werner":
            if self.parametrization not in ("gamma", "p"):
                raise ConfigError("parametrization must be gamma or p")
            low, high = (-1.0, 1.0) if self.parametrization == "gamma" else (0.0, 1.0)
            if not (low <= self.start <= high and low <= self.stop <= high):
                raise ConfigError(
                    f"range [{self.start}, {self.stop}] outside the valid domain [{low}, {high}]"
                )
        for key, value, allowed in (
            ("side", self.side, SIDES),
            ("backend", self.backend, BACKENDS),
        ):
            if value not in allowed:
                raise ConfigError(f"{key} must be one of {', '.join(allowed)}, got {value!r}")
        if self.points < 2:
            raise ConfigError("points must be >= 2")
        if not self.output:
            raise ConfigError("output must not be empty")
        try:
            check_tol_alpha(self.tol_alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.n_values or not self.k_values:
            raise ConfigError("n and k each need at least one value")
        if any(n < 1 for n in self.n_values) or any(k < 1 for k in self.k_values):
            raise ConfigError("n and k must be >= 1")
        for key, values in (("n", self.n_values), ("k", self.k_values)):
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} lists a value more than once: {','.join(map(str, values))}")
        multi = len(self.n_values) > 1 or len(self.k_values) > 1
        if self.family != "ellipse" and multi:
            if len(self.n_values) > 1 and "{n}" not in self.output:
                raise ConfigError("output pattern needs {n} when several n values are given")
            if len(self.k_values) > 1 and "{k}" not in self.output:
                raise ConfigError("output pattern needs {k} when several k values are given")


def _tol_alpha(text: str) -> float:
    try:
        return check_tol_alpha(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _ints(value: str) -> tuple[int, ...]:
    """The comma-separated integers of value; an empty value is (), and an empty item is a ValueError."""
    return tuple(int(v) for v in value.split(",")) if value else ()


# config key -> (SweepConfig field, parser of the value text)
CONFIG_KEYS = {
    "family": ("family", str),
    "file": ("file", str),
    "d": ("d", int),
    "parametrization": ("parametrization", str),
    "start": ("start", float),
    "stop": ("stop", float),
    "points": ("points", int),
    "n": ("n_values", _ints),
    "k": ("k_values", _ints),
    "side": ("side", str),
    "backend": ("backend", str),
    "tol_alpha": ("tol_alpha", float),
    "output": ("output", str),
}


def parse_config_text(text: str) -> SweepConfig:
    cfg = SweepConfig()
    seen = set()
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}; known keys: {', '.join(CONFIG_KEYS)}")
        if key in seen:
            raise ConfigError(f"config key {key!r} given more than once")
        seen.add(key)
        name, parse = CONFIG_KEYS[key]
        try:
            setattr(cfg, name, parse(value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    cfg.validate()
    return cfg


def load_recipe(name: str) -> str:
    ref = resources.files("kextdistill").joinpath("recipes", f"{name}.cfg")
    if not ref.is_file():
        available = sorted(
            p.name[: -len(".cfg")]
            for p in resources.files("kextdistill").joinpath("recipes").iterdir()
            if p.name.endswith(".cfg")
        )
        raise ConfigError(f"unknown recipe {name!r}; available: {', '.join(available)}")
    return ref.read_text()


def _problem(cfg: SweepConfig, param: float, n: int, k: int) -> KExtProblem:
    if cfg.family == "werner":
        kwargs = {"gamma": param} if cfg.parametrization == "gamma" else {"p": param}
        return KExtProblem.for_werner(
            d=cfg.d, n=n, k=k, side=cfg.side, backend=cfg.backend, **kwargs
        )
    state = load_state(cfg.file)
    return KExtProblem(state=state, n=n, k=k, side=cfg.side, backend=cfg.backend)


def _check_output(path: str) -> None:
    """ConfigError unless path names a file in an existing, writable directory."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise ConfigError(f"cannot write {path}: not a file in an existing, writable directory")


def _write(path: str, header: str, columns: str, rows) -> None:
    """Write header, columns and one line per row: str fields as they are, others by repr.

    The rows are formatted before the file is opened, and a file this call
    opened but failed to finish is removed.
    """
    lines = [header, columns] + [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
    fh = open(path, "w")
    try:
        with fh:
            fh.write("\n".join(lines) + "\n")
    except BaseException:
        os.remove(path)
        raise


def run_sweep(cfg: SweepConfig) -> list[str]:
    """Execute the sweep; returns the list of files written.

    Every problem is built and every output path checked before the first
    threshold runs, so a problem the configuration cannot describe, or an
    output that cannot be written, is a ConfigError and computes nothing.  Rows
    are emitted in parameter order.  A file is opened only once all its rows
    are computed, so a failed or interrupted sweep removes at most the file
    it was writing and leaves earlier outputs alone.
    """
    cfg.validate()
    if cfg.family == "ellipse":
        _check_output(cfg.output)
        rows = []
        for theta in np.linspace(0.0, 2.0 * math.pi, cfg.points, endpoint=False).tolist():
            pt = MnPTradeoff.from_angle(theta)
            rows.append((theta, pt.y_plus, pt.y_minus, pt.f1, pt.f2))
        _write(cfg.output, ELLIPSE_HEADER, "theta,y_plus,y_minus,F1,F2", rows)
        return [cfg.output]

    grid = []
    for n in cfg.n_values:
        for k in cfg.k_values:
            path = cfg.output.replace("{n}", str(n)).replace("{k}", str(k))
            _check_output(path)
            if cfg.family == "werner":
                params = [float(v) for v in np.linspace(cfg.start, cfg.stop, cfg.points)]
            else:
                params = [float(k)]
            try:
                problems = [(p, _problem(cfg, p, n, k)) for p in params]
            except (ValueError, OSError) as exc:
                raise ConfigError(f"n = {n}, k = {k}: {exc}") from exc
            grid.append((path, problems))
    written: list[str] = []
    for path, problems in grid:
        rows = []
        for param, problem in problems:
            result = fidelity_threshold(problem, tol_alpha=cfg.tol_alpha)
            rows.append((param, result.alpha_star, result.backend, result.lambda_residual))
        _write(path, CSV_HEADER, "param,alpha_star,backend,lambda_residual", rows)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# subcommands


def cmd_threshold(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.file is not None and (args.d, args.gamma, args.p) != (None, None, None):
        print("error: --file does not combine with --d, --gamma or --p", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.file is not None:
            state = load_state(args.file)
            problem = KExtProblem(state=state, n=args.n, k=args.k, side=args.side, backend=args.backend)
        else:
            problem = KExtProblem.for_werner(
                d=3 if args.d is None else args.d, gamma=args.gamma, p=args.p, n=args.n, k=args.k,
                side=args.side, backend=args.backend,
            )
    except (ValueError, StateValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = fidelity_threshold(problem, tol_alpha=args.tol_alpha)
    except (SolverConvergenceError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    wall = time.perf_counter() - t0
    print(f"alpha_star = {result.alpha_star:.10f}")
    print(f"backend = {result.backend}")
    print(f"full_rank = {result.full_rank}")
    print(f"lambda_residual = {result.lambda_residual:.3e}")
    print(f"wall_time_s = {wall:.3f}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        if args.recipe:
            cfg = parse_config_text(load_recipe(args.recipe))
        elif args.config:
            with open(args.config) as fh:
                cfg = parse_config_text(fh.read())
        else:
            print("error: provide --config PATH or --recipe NAME", file=sys.stderr)
            return EXIT_USAGE
        if args.output is not None:
            cfg.output = args.output
        if args.points is not None:
            cfg.points = args.points
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        written = run_sweep(cfg)
    except (ConfigError, StateValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverConvergenceError, ValueError, OSError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.output:
        try:
            _check_output(args.output)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    results = validate_mod.run_checks(fast=args.fast)
    doc = validate_mod.report(results)
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK if doc["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kext",
        description="EPR-pair fidelity under k-extendible maps: thresholds, sweeps, validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_thr = sub.add_parser("threshold", help="compute one fidelity threshold")
    p_thr.add_argument("--file", help="kext-state file; without it the state is a Werner state")
    p_thr.add_argument("--d", type=int, help="local dimension of the Werner state (default 3)")
    p_thr.add_argument("--gamma", type=float, help="Werner parameter in [-1, 1]")
    p_thr.add_argument("--p", type=float, help="symmetric weight in [0, 1]")
    p_thr.add_argument("--n", type=int, default=1, help="number of state copies")
    p_thr.add_argument("--k", type=int, default=1, help="number of extensions")
    p_thr.add_argument("--side", choices=SIDES, default="bob")
    p_thr.add_argument("--backend", choices=BACKENDS, default="auto")
    p_thr.add_argument("--tol-alpha", type=_tol_alpha, default=DEFAULT_TOL_ALPHA, dest="tol_alpha")
    p_thr.set_defaults(func=cmd_threshold)

    p_sw = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    p_sw.add_argument("--config", help="sweep configuration file (key = value lines)")
    p_sw.add_argument("--recipe", help="named in-package recipe (fig1, fig2, fig3, fig4, fig5)")
    p_sw.add_argument("--output", help="override the output path pattern")
    p_sw.add_argument("--points", type=int, help="override the grid size")
    p_sw.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the cross-validation suite")
    p_val.add_argument("--output", help="also write the JSON report here")
    p_val.add_argument("--fast", action="store_true", help="closed-form checks only")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
