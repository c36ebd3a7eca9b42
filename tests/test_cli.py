import dataclasses
import json

import numpy as np
import pytest

import kextdistill.analytic
from kextdistill import cli, solver, validate
from kextdistill.analytic import alpha_max_k1, maxmixed_bound
from kextdistill.cli import ConfigError, load_recipe, parse_config_text, run_sweep
from kextdistill.linalg import ITER_EIG_TOL, SolverConvergenceError, layout
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
    code = run_cli(["threshold", "--d", "3", "--gamma", "-1",
                    "--n", "1", "--k", "1"])
    out = parse_output(capsys.readouterr().out)
    assert code == 0
    assert float(out["alpha_star"]) >= 0.999999
    assert out["backend"] == "schur_weyl"
    assert out["full_rank"] == "False"
    assert float(out["wall_time_s"]) >= 0.0


def test_threshold_two_extensions(capsys):
    code = run_cli(["threshold", "--d", "2", "--gamma", "0", "--n", "1", "--k", "2"])
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
    code = run_cli(["threshold", "--file", str(path), "--backend", "schur_weyl"])
    out = parse_output(capsys.readouterr().out)
    assert code == 0
    assert out["backend"] == "schur_weyl"
    assert abs(float(out["alpha_star"]) - alpha_max_k1(-0.5)) < 1e-8


def test_s3_blocks_is_an_unknown_backend(tmp_path, capsys):
    # schur_weyl is the one Werner block backend, k = 1 included; both errors name the valid backends
    with pytest.raises(SystemExit) as exc:
        run_cli(["threshold", "--d", "3", "--gamma", "-0.5", "--backend", "s3_blocks"])
    assert exc.value.code == 2
    errors = [capsys.readouterr().err]
    path = tmp_path / "s3.cfg"
    path.write_text(config_with(BASE_CFG.format(out=tmp_path / "x.csv"), ["backend = s3_blocks"]))
    assert run_cli(["sweep", "--config", str(path)]) == 2
    errors.append(capsys.readouterr().err)
    for err in errors:
        assert "'s3_blocks'" in err and all(backend in err for backend in solver.BACKENDS)
    assert not list(tmp_path.glob("*.csv"))


def test_threshold_schur_weyl_backend_needs_a_werner_state(tmp_path, capsys):
    werner_path, other_path = tmp_path / "w.state", tmp_path / "mixed_2x2.state"
    save_state(werner_path, werner(WernerParams(d=3, gamma=-0.5)))
    rng = np.random.default_rng(2)
    g = rng.standard_normal((4, 4))
    save_state(other_path, from_matrix(g @ g.T, layout(("A", 2), ("B", 2))))
    assert run_cli(["threshold", "--file", str(werner_path), "--backend", "schur_weyl", "--k", "3"]) == 0
    out = parse_output(capsys.readouterr().out)
    assert out["backend"] == "schur_weyl"
    assert run_cli(["threshold", "--file", str(other_path), "--backend", "schur_weyl"]) == 2
    assert "not a Werner state" in capsys.readouterr().err
    # above the block cap: d = 3, k = 7 has a block of 8064 rows
    assert run_cli(["threshold", "--d", "3", "--gamma", "0.5", "--k", "7", "--backend", "schur_weyl"]) == 2
    assert "8064" in capsys.readouterr().err


def test_threshold_and_sweep_on_a_one_by_one_state_file(tmp_path, capsys):
    # no Werner state, so auto takes dense and an explicit schur_weyl exits 2
    path = tmp_path / "one.state"
    save_state(path, from_matrix(np.eye(1), layout(("A", 1), ("B", 1))))
    assert run_cli(["threshold", "--file", str(path), "--k", "3"]) == 0
    out = parse_output(capsys.readouterr().out)
    assert out["backend"] == "dense"
    assert abs(float(out["alpha_star"]) - maxmixed_bound(3)) < 1e-8
    assert run_cli(["threshold", "--file", str(path), "--backend", "schur_weyl"]) == 2
    assert "not a Werner state" in capsys.readouterr().err
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"family = file\nfile = {path}\noutput = {tmp_path / 'one.csv'}\n")
    assert run_cli(["sweep", "--config", str(cfg)]) == 0
    row = (tmp_path / "one.csv").read_text().splitlines()[2].split(",")
    assert abs(float(row[1]) - maxmixed_bound(1)) < 1e-8 and row[2] == "dense"


def test_threshold_invalid_arguments(capsys):
    assert run_cli(["threshold", "--d", "2", "--gamma", "1.5"]) == 2
    capsys.readouterr()
    # WernerParams' own rule rejects a missing or doubled gamma/p
    for args in ([], ["--gamma", "0", "--p", "0.5"]):
        assert run_cli(["threshold", "--d", "2"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "exactly one of gamma or p" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["--file", "{path}", "--gamma", "-0.9", "--d", "3"],
        ["--file", "{path}", "--gamma", "0.4"],
        ["--file", "{path}", "--p", "0.4"],
        ["--file", "{path}", "--d", "5"],
        ["--file", "", "--gamma", "0.4"],  # an empty path ran a Werner threshold
    ],
    ids=["werner_with_file", "file_with_gamma", "file_with_p", "file_with_d", "empty_file_with_gamma"],
)
def test_threshold_rejects_a_family_the_other_options_contradict(tmp_path, capsys, args):
    path = tmp_path / "w.state"
    save_state(path, werner(WernerParams(d=2, gamma=0.4)))
    assert run_cli(["threshold"] + [a.format(path=path) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize(
    "args",
    [["--bell", "phi_plus"], ["--bell", "psi_minus"], ["--family", "werner"], ["--family", "file"]],
)
def test_threshold_rejects_removed_options(capsys, args):
    # the target is always phi_plus, and the state is a file exactly when --file is given
    with pytest.raises(SystemExit) as exc:
        run_cli(["threshold", "--d", "2", "--gamma", "-0.5"] + args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan 0.0", "inf 0.0", "0.5 nan"])
def test_threshold_rejects_a_state_file_with_a_non_finite_entry(tmp_path, capsys, bad):
    path = tmp_path / "bad.state"
    entries = ["0.5 0.0", "0.0 0.0", "0.0 0.0", bad]
    path.write_text("\n".join(["kext-state v1", "layout A:1 B:2", "dim 2"] + entries) + "\n")
    assert run_cli(["threshold", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "NaN or infinite" in captured.err


VALID_STATE = ["kext-state v1", "layout A:1 B:2", "dim 2", "0.5 0.0", "0.0 0.0", "0.0 0.0", "0.5 0.0"]


@pytest.mark.parametrize(
    "line, text, message",
    [
        (1, "layout A:1 B:two", "malformed layout token"),
        (2, None, "missing 'dim' line"),
        (2, "dim two", "malformed dim line"),
        (2, "dim 3", "does not match layout dimension"),
        (6, None, "expected 4 entry lines"),
        (6, "0.5 zero", "malformed entry line"),
    ],
    ids=["layout-token", "no-dim-line", "dim-line", "dim-not-layout", "entry-count", "entry-line"],
)
def test_threshold_rejects_a_malformed_state_file(tmp_path, capsys, line, text, message):
    # VALID_STATE runs; each case replaces or, for None, drops one of its lines
    lines = list(VALID_STATE)
    if text is None:
        del lines[line]
    else:
        lines[line] = text
    path = tmp_path / "bad.state"
    path.write_text("\n".join(lines) + "\n")
    assert run_cli(["threshold", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    path.write_text("\n".join(VALID_STATE) + "\n")
    assert run_cli(["threshold", "--file", str(path)]) == 0


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
    assert run_cli(["threshold", "--d", "2", "--gamma", "0"]) == 3
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
backend = schur_weyl
tol_alpha = 1e-7
output = {out}
"""


def test_config_parsing_and_validation():
    cfg = parse_config_text(BASE_CFG.format(out="x.csv"))
    assert cfg.points == 5 and cfg.n_values == (1,) and cfg.backend == "schur_weyl"
    with pytest.raises(ConfigError):
        parse_config_text("family = nosuch\n")
    with pytest.raises(ConfigError):
        parse_config_text("family = werner\nstart = -2.0\n")
    with pytest.raises(ConfigError):
        parse_config_text("family = werner\nn = 1,2\noutput = fixed.csv\n")
    with pytest.raises(ConfigError):
        parse_config_text("points only\n")


def config_with(base: str, lines: list[str]) -> str:
    """base with its entries for the keys of lines dropped, then lines: each key is given once, unless lines repeat it."""
    keys = {line.partition("=")[0].strip() for line in lines}
    kept = [entry for entry in base.splitlines() if entry.partition("=")[0].strip() not in keys]
    return "\n".join(kept + lines) + "\n"


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
        "n =",  # an empty list ran no curve and exited 0
        "k =",
        "n = 1,,2",  # an empty item was dropped: these ran n = (1, 2), k = (1,) and n = (1,)
        "k = 1,",
        "n = ,1",
        "n = 0",
        "k = 0",
        "family = file",  # with no file entry
        "parametrization = q",
        "k = 1,2",  # several k, and no {k} in the output pattern
        "side = charlie",
        "bell = phi_minus",
        "bell = phi_plus",  # the target is fixed: a bell key is unknown, whatever its value
        "backend = lanczos",
        "threads = 2",  # sweeps run serially; a threads key is not silently ignored
    ],
)
def test_config_rejects_unknown_keys_and_bad_values(tmp_path, capsys, line):
    text = config_with(BASE_CFG.format(out=tmp_path / "x.csv"), [line])
    with pytest.raises(ConfigError):
        parse_config_text(text)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "lines",
    [
        ["k = 1", "k = 3"],  # the later entry overrode the earlier one: k was (3,)
        ["backend = dense", "backend = schur_weyl"],
        ["n = 1,1"],  # the same CSV was computed and written twice
        ["k = 1,2,1"],
    ],
    ids=["repeated-k", "repeated-backend", "repeated-n-value", "repeated-k-value"],
)
def test_config_rejects_repeated_keys_and_list_values(tmp_path, capsys, lines):
    text = config_with(BASE_CFG.format(out=tmp_path / "x_n{n}_k{k}.csv"), lines)
    with pytest.raises(ConfigError, match="more than once"):
        parse_config_text(text)
    path = tmp_path / "repeated.cfg"
    path.write_text(text)
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "more than once" in capsys.readouterr().err
    assert not list(tmp_path.glob("x_*.csv"))


def test_config_keys_target_exactly_the_sweep_config_fields():
    # a knob removed from SweepConfig but left in CONFIG_KEYS, or the reverse, fails here
    targets = [name for name, _ in cli.CONFIG_KEYS.values()]
    assert sorted(targets) == sorted(f.name for f in dataclasses.fields(cli.SweepConfig))


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
        assert r[2] == "schur_weyl"
        assert float(r[3]) < 0.0


def test_sweep_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(parse_config_text(BASE_CFG.format(out=out1)))
    run_sweep(parse_config_text(BASE_CFG.format(out=out2)))
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_partial_output_removed(tmp_path, monkeypatch):
    out = tmp_path / "partial.csv"

    class BrokenFile:
        def __init__(self, path, mode):
            self.fh = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write("half a header")
            raise OSError("disk full")

    monkeypatch.setattr(cli, "open", BrokenFile, raising=False)
    with pytest.raises(OSError):
        run_sweep(parse_config_text(BASE_CFG.format(out=out)))
    assert not out.exists()


@pytest.mark.parametrize("error", [SolverConvergenceError, KeyboardInterrupt])
def test_failed_sweep_keeps_an_earlier_output(tmp_path, monkeypatch, error):
    # a sweep that fails before it writes leaves the previous run's curve alone
    out = tmp_path / "curve_n1_k1.csv"
    out.write_bytes(b"# kext-csv v1\nearlier run\n")
    config = tmp_path / "sweep.cfg"
    config.write_text(BASE_CFG.format(out=tmp_path / "curve_n{n}_k{k}.csv"))

    def interrupted(problem, tol_alpha):
        raise error("stopped")

    monkeypatch.setattr(cli, "fidelity_threshold", interrupted)
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            run_cli(["sweep", "--config", str(config)])
    else:
        assert run_cli(["sweep", "--config", str(config)]) == 3
    assert out.read_bytes() == b"# kext-csv v1\nearlier run\n"


@pytest.mark.parametrize(
    "lines",
    [
        "backend = s3_blocks\nk = 1,2\n",  # no longer a backend
        "backend = schur_weyl\nd = 3\nk = 1,7\n",  # k = 7 has a block of 8064 rows
        "backend = dense\nd = 3\nn = 1,3\n",  # n = 3: forms of 19683 rows, past the 1 GiB budget
    ],
)
def test_sweep_rejects_unbuildable_problems_before_any_work(tmp_path, capsys, lines):
    text = config_with(BASE_CFG.format(out=tmp_path / "x_n{n}_k{k}.csv"), lines.splitlines())
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("family", ["werner", "ellipse"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_sweep_rejects_an_unwritable_output_before_any_work(tmp_path, monkeypatch, capsys, family, where):
    # the write used to find a missing directory after every row was computed, and exit 3
    out = tmp_path / "missing" / "x_n{n}_k{k}.csv" if where == "missing-directory" else tmp_path
    path = tmp_path / "sweep.cfg"
    path.write_text(config_with(BASE_CFG.format(out=out), [f"family = {family}"]))

    def computed(*args, **kwargs):
        raise AssertionError("a row was computed before the output was checked")

    monkeypatch.setattr(cli, "fidelity_threshold", computed)
    monkeypatch.setattr(cli.MnPTradeoff, "from_angle", computed)
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_block_backend_on_a_werner_state_file(tmp_path):
    state_path = tmp_path / "w.state"
    save_state(state_path, werner(WernerParams(d=3, gamma=-0.5)))
    out = tmp_path / "w.csv"
    cfg = parse_config_text(
        f"family = file\nfile = {state_path}\nbackend = schur_weyl\noutput = {out}\n"
    )
    assert run_sweep(cfg) == [str(out)]
    row = out.read_text().splitlines()[2].split(",")
    assert abs(float(row[1]) - alpha_max_k1(-0.5)) < 1e-6
    assert row[2] == "schur_weyl"


def test_sweep_missing_state_file(tmp_path):
    cfg = parse_config_text(
        f"family = file\nfile = {tmp_path/'missing.state'}\noutput = {tmp_path/'out.csv'}\n"
    )
    with pytest.raises(ConfigError) as excinfo:
        run_sweep(cfg)
    assert isinstance(excinfo.value.__cause__, FileNotFoundError)
    assert not (tmp_path / "out.csv").exists()


def test_sweep_command_rejects_a_missing_state_file(tmp_path, capsys):
    # it used to be reported as a solver failure, exit 3
    path = tmp_path / "sweep.cfg"
    path.write_text(f"family = file\nfile = {tmp_path/'missing.state'}\noutput = {tmp_path/'out.csv'}\n")
    assert run_cli(["sweep", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


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
    assert cfg.backend == "schur_weyl"
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
    assert len(results) == 21
    assert {"schur_weyl_vs_probe", "schur_weyl_vs_s3", "pencil_vs_newton", "pair_spin_blocks"} <= {r.name for r in results}


def test_validate_reports_margins():
    details = validate.check_k_monotonicity().details
    assert "margins" in details and len(details["margins"]) == 2
    assert all(m > -1e-6 for m in details["margins"])


def test_validate_compares_the_iterative_solve_with_dense(monkeypatch):
    # the iterative value is the Rayleigh quotient of ARPACK's vector, not its Ritz value: shift that value
    lambda_min = solver.ProbeAssembly.lambda_min

    def shifted(self, alpha, residual=ITER_EIG_TOL):
        value, slope, vector = lambda_min(self, alpha, residual)
        return value + 1e-6, slope, vector

    monkeypatch.setattr(solver.ProbeAssembly, "lambda_min", shifted)
    assert not validate.check_iterative_vs_dense().passed


@pytest.mark.parametrize("shift", [2.0, -2.0])
def test_validate_certifies_the_iterative_alpha_star_by_dense_solves(monkeypatch, shift):
    # alpha* moved by two tol_alpha on both backends keeps their gap, but moved up the dense probe no longer
    # certifies it, and moved down the dense probe is still negative at alpha* + tol_alpha
    threshold = validate.fidelity_threshold

    def moved(problem, *args, **kwargs):
        result = threshold(problem, *args, **kwargs)
        return dataclasses.replace(result, alpha_star=result.alpha_star + shift * solver.DEFAULT_TOL_ALPHA)

    monkeypatch.setattr(validate, "fidelity_threshold", moved)
    result = validate.check_iterative_vs_dense()
    assert not result.passed and result.residual <= result.tolerance
    assert len(result.details["unsound_alpha_stars"]) == 3


def test_validate_compares_the_schur_weyl_blocks_with_the_probe(monkeypatch):
    lambda_min = kextdistill.blocks.BlockProbe.lambda_min
    intact = validate.check_schur_weyl_vs_probe()

    def shifted(self, alpha):
        value, slope, vec = lambda_min(self, alpha)
        return value + 1e-9, slope, vec

    monkeypatch.setattr(kextdistill.blocks.BlockProbe, "lambda_min", shifted)
    mutated = validate.check_schur_weyl_vs_probe()
    assert intact.passed and not mutated.passed
    # the reference alpha* runs no block solver, so the shift does not reach it
    assert len(intact.details["reference_alpha_stars"]) == 5
    assert mutated.details["reference_alpha_stars"] == intact.details["reference_alpha_stars"]
    assert not validate.check_schur_weyl_vs_s3().passed


def test_validate_compares_the_pair_spin_blocks_with_the_probe(monkeypatch):
    pair_spin_probe = kextdistill.blocks.pair_spin_probe

    def shifted(rho, d_s, d, k):
        probe = pair_spin_probe(rho, d_s, d, k)
        # every block's const moved by 1e-9 I: lambda_min and every pencil top move with it
        probe.solos = [(const - 1e-9 * np.eye(len(const)), *rest) for const, *rest in probe.solos]
        return probe

    monkeypatch.setattr(kextdistill.blocks, "pair_spin_probe", shifted)
    result = validate.check_pair_spin_blocks()
    assert not result.passed and result.residual > result.tolerance


def test_validate_certifies_the_pair_spin_alpha_star_by_arpack(monkeypatch):
    # alpha* moved up by two tol_alpha: its certificate no longer certifies it, and ARPACK finds it not tight
    threshold = validate.fidelity_threshold

    def moved(problem, *args, **kwargs):
        result = threshold(problem, *args, **kwargs)
        return dataclasses.replace(result, alpha_star=result.alpha_star + 2.0 * solver.DEFAULT_TOL_ALPHA)

    monkeypatch.setattr(validate, "fidelity_threshold", moved)
    result = validate.check_pair_spin_blocks()
    assert not result.passed and result.residual <= result.tolerance
    assert result.details["certificate_quotient"] >= -solver.TOL_EIG


def test_validate_compares_the_pencil_bracket_with_newton(monkeypatch):
    pencil_bracket = solver.pencil_bracket

    def shifted(tops):
        return pencil_bracket([(root - 1e-6, g) for root, g in tops])

    monkeypatch.setattr(solver, "pencil_bracket", shifted)
    assert not validate.check_pencil_vs_newton().passed


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


def test_validate_rejects_an_unwritable_output_before_any_check(tmp_path, monkeypatch, capsys):
    # the report used to fail to open after every check had run, with a traceback and exit 1
    def checks(fast=False):
        raise AssertionError("a check ran before the output was checked")

    monkeypatch.setattr(cli.validate_mod, "run_checks", checks)
    assert run_cli(["validate", "--fast", "--output", str(tmp_path / "missing" / "report.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_command_nonzero_exit_on_failure(monkeypatch, capsys):
    def broken(fast=False):
        return [validate.CheckResult(name="x", passed=False, residual=1.0, tolerance=0.0)]

    monkeypatch.setattr(cli.validate_mod, "run_checks", broken)
    assert run_cli(["validate", "--fast"]) == 1
    capsys.readouterr()
