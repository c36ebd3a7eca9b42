import json

import numpy as np
import pytest

import kextdistill.analytic
from kextdistill import cli, solver, validate
from kextdistill.analytic import alpha_max_k1, maxmixed_bound
from kextdistill.cli import ConfigError, load_recipe, parse_config_text, run_sweep
from kextdistill.linalg import SolverConvergenceError, layout
from kextdistill.solver import KExtProblem, fidelity_threshold, lambda_min_alpha
from kextdistill.states import WernerParams, from_matrix, save_state, werner


def run_cli(args):
    return cli.main(args)


# ---------------------------------------------------------------------------
# threshold command


def parse_output(captured):
    values = {}
    for line in captured.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def test_threshold_antisymmetric_werner(capsys):
    code = run_cli(["threshold", "--family", "werner", "--d", "3", "--gamma", "-1",
                    "--n", "1", "--k", "1"])
    out = parse_output(capsys.readouterr().out)
    assert code == 0
    assert float(out["alpha_star"]) >= 0.999999
    assert out["backend"] == "dense"
    assert out["full_rank"] == "False"
    assert float(out["wall_time_s"]) >= 0.0


def test_threshold_two_extensions(capsys):
    code = run_cli(["threshold", "--family", "werner", "--d", "2", "--gamma", "0",
                    "--n", "1", "--k", "2"])
    out = parse_output(capsys.readouterr().out)
    assert code == 0
    assert abs(float(out["alpha_star"]) - 2.0 / 3.0) < 1e-6


def test_threshold_from_state_file(tmp_path, capsys):
    embedded = from_matrix(
        np.kron(np.eye(2) / 2.0, np.diag([0.5, 0.5, 0.0])), layout(("A", 2), ("B", 3))
    )
    path = tmp_path / "maxmixed_2x3.state"
    save_state(path, embedded)
    code = run_cli(["threshold", "--file", str(path), "--n", "1", "--k", "1"])
    out = parse_output(capsys.readouterr().out)
    assert code == 0
    assert float(out["alpha_star"]) >= 0.99
    assert out["full_rank"] == "False"


def test_threshold_block_backend_from_werner_state_file(tmp_path, capsys):
    path = tmp_path / "w.state"
    save_state(path, werner(WernerParams(d=3, gamma=-0.5)))
    code = run_cli(["threshold", "--file", str(path), "--backend", "s3_blocks"])
    out = parse_output(capsys.readouterr().out)
    assert code == 0
    assert out["backend"] == "s3_blocks"
    assert abs(float(out["alpha_star"]) - alpha_max_k1(-0.5)) < 1e-8


def test_threshold_invalid_arguments(capsys):
    assert run_cli(["threshold", "--family", "werner", "--d", "2", "--gamma", "1.5"]) == 2
    assert run_cli(["threshold", "--family", "werner", "--d", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "werner", "--file", "{path}", "--gamma", "-0.9", "--d", "3"],
        ["--family", "file", "--d", "2", "--gamma", "0.4"],
        ["--file", "{path}", "--gamma", "0.4"],
        ["--file", "{path}", "--p", "0.4"],
        ["--file", "{path}", "--d", "5"],
    ],
    ids=["werner_with_file", "file_without_file", "file_with_gamma", "file_with_p", "file_with_d"],
)
def test_threshold_rejects_a_family_the_other_options_contradict(tmp_path, capsys, args):
    path = tmp_path / "w.state"
    save_state(path, werner(WernerParams(d=2, gamma=0.4)))
    assert run_cli(["threshold"] + [a.format(path=path) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("tol_alpha", ["1e-12", "inf", "nan", "1.0"])
def test_threshold_rejects_tol_alpha_outside_its_range(capsys, tol_alpha):
    # below 1e-10 the eigensolvers cannot resolve the bracket; at 1, inf or NaN
    # hi - lo > tol_alpha was false at once, and alpha_star came out 0
    with pytest.raises(SystemExit) as exc:
        run_cli(["threshold", "--d", "2", "--gamma", "-0.5", "--tol-alpha", tol_alpha])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--tol-alpha" in captured.err and "solver failure" not in captured.err
    assert captured.out == ""


def test_threshold_solver_failure_exit_code(capsys, monkeypatch):
    def boom(problem, tol_alpha):
        raise SolverConvergenceError("stalled")

    monkeypatch.setattr(cli, "fidelity_threshold", boom)
    assert run_cli(["threshold", "--family", "werner", "--d", "2", "--gamma", "0"]) == 3
    assert "solver failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep configs and execution


BASE_CFG = """
family = werner
d = 2
parametrization = gamma
start = -0.8
stop = 0.8
points = 5
n = 1
k = 1
backend = s3_blocks
tol_alpha = 1e-7
output = {out}
"""


def test_config_parsing_and_validation():
    cfg = parse_config_text(BASE_CFG.format(out="x.csv"))
    assert cfg.points == 5 and cfg.n_values == (1,) and cfg.backend == "s3_blocks"
    with pytest.raises(ConfigError):
        parse_config_text("family = nosuch\n")
    with pytest.raises(ConfigError):
        parse_config_text("family = werner\nstart = -2.0\n")
    with pytest.raises(ConfigError):
        parse_config_text("family = werner\nn = 1,2\noutput = fixed.csv\n")
    with pytest.raises(ConfigError):
        parse_config_text("points only\n")


@pytest.mark.parametrize(
    "line",
    [
        "tol_alfa = 1e-9",  # misspelt key: must not run silently at the default tolerance
        "points = 5.5",
        "tol_alpha = tight",
        "tol_alpha = 1e-12",  # below the floor the eigensolvers can resolve
        "tol_alpha = inf",
        "tol_alpha = nan",
        "tol_alpha = 1.0",
        "output =",
        "n = 1,two",
        "side = charlie",
        "bell = phi_minus",
        "backend = lanczos",
        "threads = 2",  # sweeps run serially; a threads key is not silently ignored
    ],
)
def test_config_rejects_unknown_keys_and_bad_values(tmp_path, capsys, line):
    text = BASE_CFG.format(out=tmp_path / "x.csv") + line + "\n"
    with pytest.raises(ConfigError):
        parse_config_text(text)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_rows_match_closed_form(tmp_path):
    out = tmp_path / "curve.csv"
    cfg = parse_config_text(BASE_CFG.format(out=out))
    written = run_sweep(cfg)
    assert written == [str(out)]
    lines = out.read_text().splitlines()
    assert lines[0] == "# kext-csv v1"
    assert lines[1] == "param,alpha_star,backend,lambda_residual"
    rows = [line.split(",") for line in lines[2:]]
    params = [float(r[0]) for r in rows]
    assert params == sorted(params)
    for r in rows:
        gamma, alpha_star = float(r[0]), float(r[1])
        assert abs(alpha_star - alpha_max_k1(gamma)) < 1e-6
        assert r[2] == "s3_blocks"
        assert float(r[3]) < 0.0


def test_sweep_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(parse_config_text(BASE_CFG.format(out=out1)))
    run_sweep(parse_config_text(BASE_CFG.format(out=out2)))
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_partial_output_removed(tmp_path, monkeypatch):
    out = tmp_path / "partial.csv"

    def broken_write(path, rows):
        with open(path, "w") as fh:
            fh.write("half a header")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_csv", broken_write)
    with pytest.raises(OSError):
        run_sweep(parse_config_text(BASE_CFG.format(out=out)))
    assert not out.exists()


@pytest.mark.parametrize(
    "lines",
    [
        "backend = s3_blocks\nk = 1,2\n",  # the block backend covers k = 1 only
        "backend = dense\nd = 3\nn = 1,3\n",  # n = 3 exceeds the dense dimension limit
    ],
)
def test_sweep_rejects_unbuildable_problems_before_any_work(tmp_path, capsys, lines):
    text = BASE_CFG.format(out=tmp_path / "x_n{n}_k{k}.csv") + lines
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_block_backend_on_a_werner_state_file(tmp_path):
    state_path = tmp_path / "w.state"
    save_state(state_path, werner(WernerParams(d=3, gamma=-0.5)))
    out = tmp_path / "w.csv"
    cfg = parse_config_text(
        f"family = file\nfile = {state_path}\nbackend = s3_blocks\noutput = {out}\n"
    )
    assert run_sweep(cfg) == [str(out)]
    row = out.read_text().splitlines()[2].split(",")
    assert abs(float(row[1]) - alpha_max_k1(-0.5)) < 1e-6
    assert row[2] == "s3_blocks"


def test_sweep_missing_state_file(tmp_path):
    cfg = parse_config_text(
        f"family = file\nfile = {tmp_path/'missing.state'}\noutput = out.csv\n"
    )
    with pytest.raises(FileNotFoundError):
        run_sweep(cfg)
    assert not (tmp_path / "out.csv").exists()


# ---------------------------------------------------------------------------
# recipes


def test_all_recipes_load_and_parse():
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5"):
        cfg = parse_config_text(load_recipe(name))
        assert cfg.points >= 2
    with pytest.raises(ConfigError):
        load_recipe("fig99")


def test_fig1_recipe_shape():
    cfg = parse_config_text(load_recipe("fig1"))
    assert cfg.backend == "s3_blocks"
    assert cfg.points == 81
    assert cfg.n_values == (1, 2, 3, 4, 8)
    assert cfg.k_values == (1,)


def test_fig1_recipe_subset_matches_closed_form(tmp_path):
    cfg = parse_config_text(load_recipe("fig1"))
    cfg.points = 9
    cfg.n_values = (1,)
    cfg.output = str(tmp_path / "fig1_n{n}.csv")
    written = run_sweep(cfg)
    lines = open(written[0]).read().splitlines()
    for line in lines[2:]:
        gamma, alpha_star, *_ = line.split(",")
        assert abs(float(alpha_star) - alpha_max_k1(float(gamma))) < 1e-6


def test_fig2_recipe_emits_ellipse(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = parse_config_text(load_recipe("fig2"))
    written = run_sweep(cfg)
    lines = open(written[0]).read().splitlines()
    assert lines[0] == "# kext-ellipse v1"
    assert lines[1] == "theta,y_plus,y_minus,F1,F2"
    assert len(lines) == 2 + 720
    for line in lines[2:]:
        _, y_plus, y_minus, f1, f2 = (float(v) for v in line.split(","))
        assert abs(y_plus**2 + y_minus**2 / 3.0 - 1.0 / 16.0) < 1e-12
        assert abs(y_plus - (1.0 - f1 - f2) / 2.0) < 1e-12
        assert abs(y_minus - (f1 - f2) / 2.0) < 1e-12


def test_fig5_gamma_zero_matches_bound():
    # at the maximally mixed point every curve sits at (k+2)/(2(k+1))
    for d, n, k in ((2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2)):
        result = fidelity_threshold(
            KExtProblem.for_werner(d=d, gamma=0.0, n=n, k=k), tol_alpha=1e-7
        )
        assert abs(result.alpha_star - maxmixed_bound(k)) < 1e-6, (d, n, k)


def test_fig3_subset_curves_are_ordered():
    # two copies, d = 3: the k = 2 curve cannot exceed the k = 1 curve
    gamma = -0.6
    r1 = fidelity_threshold(
        KExtProblem.for_werner(d=3, gamma=gamma, n=2, k=1), tol_alpha=1e-6
    )
    prob2 = KExtProblem.for_werner(d=3, gamma=gamma, n=2, k=2)
    assert lambda_min_alpha(prob2, min(1.0, r1.alpha_star + 1e-5)) > -1e-9
    assert lambda_min_alpha(prob2, 0.85) < 0.0  # but well above the floor 2/3


def test_sweep_command_via_recipe_override(tmp_path, capsys):
    out = tmp_path / "mini_n{n}.csv"
    code = run_cli(["sweep", "--recipe", "fig1", "--output", str(out), "--points", "3"])
    captured = capsys.readouterr().out
    assert code == 0
    for n in (1, 2, 3, 4, 8):
        assert (tmp_path / f"mini_n{n}.csv").exists()
    assert "wrote" in captured


@pytest.mark.parametrize("override", [["--points", "0"], ["--output", ""]], ids=["points-0", "empty-output"])
def test_sweep_command_rejects_empty_overrides(tmp_path, monkeypatch, capsys, override):
    # both used to be dropped as falsy, and the recipe ran at its own values
    monkeypatch.chdir(tmp_path)
    assert run_cli(["sweep", "--recipe", "fig2"] + override) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_command_requires_source(capsys):
    assert run_cli(["sweep"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# validate command


def test_validate_fresh_checkout_passes():
    results = validate.run_checks()
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_validate_reports_margins():
    results = {r.name: r for r in validate.run_checks(fast=False)}
    details = results["k_monotonicity"].details
    assert "margins" in details and len(details["margins"]) == 2
    assert all(m > -1e-6 for m in details["margins"])


def test_validate_compares_the_iterative_solve_with_dense(monkeypatch):
    eig_min_iterative = solver.eig_min_iterative

    def shifted(handle, v0=None):
        value, vector = eig_min_iterative(handle, v0)
        return value + 1e-6, vector

    monkeypatch.setattr(solver, "eig_min_iterative", shifted)
    assert not validate.check_iterative_vs_dense().passed


def test_validate_detects_constant_mutation(monkeypatch):
    original = kextdistill.analytic.alpha_max_k1

    def shifted(gamma):
        return original(gamma) + 1e-3

    monkeypatch.setattr(kextdistill.analytic, "alpha_max_k1", shifted)
    results = {r.name: r for r in validate.run_checks(fast=True)}
    assert results["alpha1_symmetry"].passed
    assert not results["consistency_chain_mnp"].passed


def test_validate_command_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["validate", "--fast", "--output", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    doc = json.loads(printed)
    assert doc["all_passed"]
    assert json.loads(out.read_text()) == doc
    names = {c["name"] for c in doc["checks"]}
    assert "alpha1_symmetry" in names


def test_validate_command_nonzero_exit_on_failure(monkeypatch, capsys):
    def broken(fast=False):
        return [validate.CheckResult(name="x", passed=False, residual=1.0, tolerance=0.0)]

    monkeypatch.setattr(cli.validate_mod, "run_checks", broken)
    assert run_cli(["validate", "--fast"]) == 1
    capsys.readouterr()
