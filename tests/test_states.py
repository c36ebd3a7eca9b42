import numpy as np
import pytest

from kextdistill.linalg import layout, partial_trace, swap_op
from kextdistill.states import (
    StateValidationError,
    WernerParams,
    bell_state,
    from_matrix,
    gamma_from_p,
    load_state,
    maximally_mixed,
    p_from_gamma,
    projectors,
    save_state,
    werner,
    werner_params_of,
)


def haar_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_density_operator_rejects_non_psd():
    with pytest.raises(StateValidationError):
        from_matrix(np.diag([1.0, -0.01]), layout(("A", 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_from_matrix_rejects_non_finite_entries(bad):
    # a NaN passed the Hermiticity test, since comparisons with NaN are false,
    # and np.linalg.eigvalsh(diag(1, 1, 1, nan)) returns [0, -0, 1, 1] without an error
    for where in ((3, 3), (0, 1)):
        mat = np.eye(4, dtype=complex)
        mat[where] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            from_matrix(mat, layout(("A", 2), ("B", 2)))


def test_density_operator_normalizes():
    rho = from_matrix(np.eye(4) * 3.0, layout(("A", 2), ("B", 2)))
    assert rho.op.trace() == pytest.approx(1.0, abs=1e-14)


def test_werner_gamma_zero_is_maximally_mixed():
    for d in (2, 3):
        rho = werner(WernerParams(d=d, gamma=0.0))
        assert np.abs(rho.matrix - np.eye(d * d) / d**2).max() < 1e-14


def test_werner_gamma_minus_one_is_antisymmetric_projector():
    for d in (2, 3):
        _, p_as = projectors(d)
        d_as = d * (d - 1) // 2
        rho = werner(WernerParams(d=d, gamma=-1.0))
        assert np.abs(rho.matrix - p_as.entries / d_as).max() < 1e-13


def test_werner_parametrization_crossover_point():
    # gamma = 0 corresponds to p = (d+1)/(2d)
    rho_g = werner(WernerParams(d=3, gamma=0.0))
    rho_p = werner(WernerParams(d=3, p=2.0 / 3.0))
    assert np.abs(rho_g.matrix - rho_p.matrix).max() < 1e-14


def test_werner_rejects_out_of_range():
    with pytest.raises(ValueError):
        WernerParams(d=2, gamma=1.5)
    with pytest.raises(ValueError):
        WernerParams(d=2, p=-0.1)
    with pytest.raises(ValueError):
        WernerParams(d=2, gamma=0.5, p=0.5)
    with pytest.raises(ValueError):
        WernerParams(d=1, gamma=0.0)


def test_gamma_from_p_endpoints():
    for d in (2, 3, 4):
        assert gamma_from_p(1.0, d) == pytest.approx(1.0, abs=1e-14)
        assert gamma_from_p(0.0, d) == pytest.approx(-1.0, abs=1e-14)
    assert gamma_from_p(2.0 / 3.0, 3) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_parametrization_round_trip(d):
    for p in np.linspace(0.0, 1.0, 50):
        assert abs(p_from_gamma(gamma_from_p(p, d), d) - p) < 1e-12


def test_bell_state_purity_and_orthogonality():
    phi = bell_state("phi_plus", 2)
    psi = bell_state("psi_minus", 2)
    assert np.trace(phi.matrix @ phi.matrix).real == pytest.approx(1.0, abs=1e-14)
    assert np.trace(phi.matrix @ psi.matrix).real == pytest.approx(0.0, abs=1e-14)
    assert np.trace(phi.matrix).real == pytest.approx(1.0, abs=1e-14)


def test_bell_state_marginal():
    for d in (2, 3, 4):
        phi = bell_state("phi_plus", d)
        marg = partial_trace(phi.op, (phi.layout.labels[1],))
        assert np.abs(marg.entries - np.eye(d) / d).max() < 1e-14


def test_psi_minus_requires_qubits():
    with pytest.raises(ValueError):
        bell_state("psi_minus", 3)
    with pytest.raises(ValueError):
        bell_state("phi_minus", 2)


def test_projectors_structure():
    for d in (2, 3):
        p_s, p_as = projectors(d)
        assert np.abs(p_s.entries @ p_s.entries - p_s.entries).max() < 1e-13
        assert np.abs(p_as.entries @ p_as.entries - p_as.entries).max() < 1e-13
        assert np.abs(p_s.entries @ p_as.entries).max() < 1e-13
        assert np.abs(p_s.entries + p_as.entries - np.eye(d * d)).max() < 1e-13
        assert round(p_s.trace()) == d * (d + 1) // 2
        assert round(p_as.trace()) == d * (d - 1) // 2


def test_antisymmetric_projector_is_singlet_for_qubits():
    _, p_as = projectors(2)
    psi = bell_state("psi_minus", 2)
    assert round(p_as.trace()) == 1
    assert np.abs(p_as.entries - psi.matrix).max() < 1e-14


def test_probe_operator_endpoints(probe_operator):
    assert np.abs(probe_operator(0.0).entries + bell_state("phi_plus", 2).matrix).max() < 1e-14
    m1 = probe_operator(1.0)
    assert np.linalg.eigvalsh(m1.entries)[0] == pytest.approx(0.0, abs=1e-14)
    m06 = probe_operator(0.6)
    assert np.linalg.eigvalsh(m06.entries)[0] == pytest.approx(-0.4, abs=1e-12)


def test_werner_uu_invariance():
    rng = np.random.default_rng(20)
    for d in (2, 3):
        rho = werner(WernerParams(d=d, gamma=0.37))
        for _ in range(20):
            u = haar_unitary(rng, d)
            big = np.kron(u, u)
            rotated = big @ rho.matrix @ big.conj().T
            assert np.abs(rotated - rho.matrix).max() < 1e-10


def test_werner_transpose_invariance():
    for d in (2, 3):
        rho = werner(WernerParams(d=d, gamma=-0.6))
        assert np.array_equal(rho.matrix, rho.matrix.T)


@pytest.mark.parametrize("d", [2, 3])
def test_werner_ppt_boundary(d):
    # the partial transpose goes negative exactly below gamma = -1/d
    for gamma in np.linspace(-1.0, 1.0, 41):
        if abs(gamma + 1.0 / d) < 1e-6:
            continue
        rho = werner(WernerParams(d=d, gamma=float(gamma)))
        # rho^{T_B}: B's row and column indices exchanged
        pt = rho.matrix.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
        min_eig = np.linalg.eigvalsh(pt)[0]
        if gamma < -1.0 / d:
            assert min_eig < -1e-12
        else:
            assert min_eig > -1e-12


def test_state_file_round_trip_exact(tmp_path):
    rho = werner(WernerParams(d=3, gamma=-0.456))
    path = tmp_path / "werner.state"
    save_state(path, rho)
    loaded = load_state(path)
    assert np.array_equal(loaded.matrix, rho.matrix)
    assert loaded.layout.dims == rho.layout.dims


def test_state_file_reports_offending_eigenvalue(tmp_path):
    bad = np.diag([1.01, -0.01])
    path = tmp_path / "bad.state"
    lines = ["kext-state v1", "layout A:2", "dim 2"]
    for entry in bad.ravel():
        lines.append(f"{float(entry)!r} 0.0")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StateValidationError, match=r"-1\.000e-02"):
        load_state(path)


def test_state_file_parse_failures(tmp_path):
    path = tmp_path / "junk.state"
    path.write_text("not a state file\n")
    with pytest.raises(StateValidationError):
        load_state(path)
    path.write_text("kext-state v1\ndim 2\n1.0 0.0\n")
    with pytest.raises(StateValidationError):
        load_state(path)


def test_bell_fixture_round_trip(tmp_path):
    phi = bell_state("phi_plus", 2)
    path = tmp_path / "phi.state"
    save_state(path, phi)
    loaded = load_state(path)
    assert np.array_equal(loaded.matrix, phi.matrix)


def test_maximally_mixed_marginals():
    rho = maximally_mixed(2, 3)
    assert rho.layout.dims == (2, 3)
    assert rho.op.trace() == pytest.approx(1.0, abs=1e-14)


def test_swap_symmetry_of_werner():
    rho = werner(WernerParams(d=3, gamma=0.25))
    v = swap_op(rho.layout, "A", "B").entries
    assert np.abs(v @ rho.matrix @ v - rho.matrix).max() < 1e-14


def test_werner_params_read_back_from_the_state():
    for d, gamma in ((2, -1.0), (3, -0.5), (3, 0.0), (4, 0.37), (3, 1.0)):
        params = werner_params_of(werner(WernerParams(d=d, gamma=gamma)))
        assert params.d == d
        assert abs(params.gamma - gamma) < 1e-15
    assert werner_params_of(maximally_mixed(3, 3)).gamma == 0.0
    # rho[01,01] = 0: no gamma can be read, and no Werner state has it
    with pytest.raises(ValueError):
        werner_params_of(from_matrix(np.diag([1.0, 0.0, 0.0, 0.0]), layout(("A", 2), ("B", 2))))
