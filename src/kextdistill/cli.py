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
from .solver import BACKENDS, BELLS, DEFAULT_TOL_ALPHA, SIDES, KExtProblem, check_tol_alpha, fidelity_threshold
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
    bell: str = "phi_plus"
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
            ("bell", self.bell, BELLS),
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
        if any(n < 1 for n in self.n_values) or any(k < 1 for k in self.k_values):
            raise ConfigError("n and k must be >= 1")
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
    return tuple(int(v.strip()) for v in value.split(",") if v.strip())


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
    "bell": ("bell", str),
    "backend": ("backend", str),
    "tol_alpha": ("tol_alpha", float),
    "output": ("output", str),
}


def parse_config_text(text: str) -> SweepConfig:
    cfg = SweepConfig()
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
            d=cfg.d, n=n, k=k, side=cfg.side, bell=cfg.bell, backend=cfg.backend, **kwargs
        )
    state = load_state(cfg.file)
    return KExtProblem(state=state, n=n, k=k, side=cfg.side, bell=cfg.bell, backend=cfg.backend)


def _write_csv(path: str, rows) -> None:
    lines = [CSV_HEADER, "param,alpha_star,backend,lambda_residual"]
    for param, alpha_star, backend, residual in rows:
        lines.append(f"{param!r},{alpha_star!r},{backend},{residual!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_ellipse(path: str, points: int) -> None:
    lines = [ELLIPSE_HEADER, "theta,y_plus,y_minus,F1,F2"]
    for theta in np.linspace(0.0, 2.0 * math.pi, points, endpoint=False):
        theta = float(theta)
        pt = MnPTradeoff.from_angle(theta)
        lines.append(f"{theta!r},{pt.y_plus!r},{pt.y_minus!r},{pt.f1!r},{pt.f2!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_sweep(cfg: SweepConfig) -> list[str]:
    """Execute the sweep; returns the list of files written.

    Every problem is built before the first threshold runs, so a problem the
    configuration cannot describe is a ConfigError and writes nothing.  Rows
    are emitted in parameter order, and a partially written output is removed
    on failure.
    """
    cfg.validate()
    written: list[str] = []
    if cfg.family == "ellipse":
        path = cfg.output
        try:
            _write_ellipse(path, cfg.points)
        except BaseException:
            if os.path.exists(path):
                os.remove(path)
            raise
        return [path]

    grid = []
    for n in cfg.n_values:
        for k in cfg.k_values:
            path = cfg.output.replace("{n}", str(n)).replace("{k}", str(k))
            if cfg.family == "werner":
                params = [float(v) for v in np.linspace(cfg.start, cfg.stop, cfg.points)]
            else:
                params = [float(k)]
            try:
                problems = [(p, _problem(cfg, p, n, k)) for p in params]
            except ValueError as exc:
                raise ConfigError(f"n = {n}, k = {k}: {exc}") from exc
            grid.append((path, problems))
    for path, problems in grid:
        try:
            rows = []
            for param, problem in problems:
                result = fidelity_threshold(problem, tol_alpha=cfg.tol_alpha)
                rows.append((param, result.alpha_star, result.backend, result.lambda_residual))
            _write_csv(path, rows)
        except BaseException:
            if os.path.exists(path):
                os.remove(path)
            raise
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# subcommands


def cmd_threshold(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    family = args.family or ("file" if args.file else "werner")
    werner_options = (args.d, args.gamma, args.p) != (None, None, None)
    if (family == "file") != bool(args.file) or (args.file and werner_options):
        print("error: give --file exactly for family file, and not with --d, --gamma or --p", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.file:
            state = load_state(args.file)
            problem = KExtProblem(
                state=state, n=args.n, k=args.k, side=args.side, bell=args.bell,
                backend=args.backend,
            )
        else:
            if args.gamma is None and args.p is None:
                print("error: provide --gamma or --p for the werner family", file=sys.stderr)
                return EXIT_USAGE
            problem = KExtProblem.for_werner(
                d=3 if args.d is None else args.d, gamma=args.gamma, p=args.p, n=args.n, k=args.k,
                side=args.side, bell=args.bell, backend=args.backend,
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
    p_thr.add_argument("--family", choices=("werner", "file"), help="werner unless --file is given")
    p_thr.add_argument("--file", help="kext-state file (implies family=file)")
    p_thr.add_argument("--d", type=int, help="local dimension of the Werner state (default 3)")
    p_thr.add_argument("--gamma", type=float, help="Werner parameter in [-1, 1]")
    p_thr.add_argument("--p", type=float, help="symmetric weight in [0, 1]")
    p_thr.add_argument("--n", type=int, default=1, help="number of state copies")
    p_thr.add_argument("--k", type=int, default=1, help="number of extensions")
    p_thr.add_argument("--side", choices=SIDES, default="bob")
    p_thr.add_argument("--bell", choices=BELLS, default="phi_plus")
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
