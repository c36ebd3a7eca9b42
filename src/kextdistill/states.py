"""Constructors and validators for the states and fixed operators in play."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HermitianOperator,
    SystemLayout,
    eig_min_dense,
    layout,
    swap_op,
)

TOL_PSD = 1e-10
TOL_TRACE = 1e-12

STATE_FILE_HEADER = "kext-state v1"


class StateValidationError(ValueError):
    """A matrix failed a density-operator validation check."""


@dataclass(frozen=True)
class DensityOperator:
    """A Hermitian PSD matrix with a subsystem layout, stored normalized by default."""

    op: HermitianOperator
    normalized: bool = True

    def __post_init__(self) -> None:
        if self.normalized:
            tr = self.op.trace()
            if tr <= 0:
                raise StateValidationError("cannot normalize a matrix with non-positive trace")
            if abs(tr - 1.0) > TOL_TRACE:
                object.__setattr__(
                    self, "op", HermitianOperator(self.op.layout, self.op.entries / tr)
                )
        lam = eig_min_dense(self.op)
        if lam < -TOL_PSD:
            raise StateValidationError(f"matrix is not PSD: smallest eigenvalue {lam:.3e}")

    @property
    def layout(self) -> SystemLayout:
        return self.op.layout

    @property
    def matrix(self) -> np.ndarray:
        return self.op.entries

    @property
    def dim(self) -> int:
        return self.op.dim

    def eig_min(self) -> float:
        return eig_min_dense(self.op)

    def is_full_rank(self) -> bool:
        return self.eig_min() > TOL_PSD


def from_matrix(mat: np.ndarray, lay: SystemLayout, normalized: bool = True) -> DensityOperator:
    return DensityOperator(HermitianOperator(lay, mat), normalized=normalized)


@dataclass(frozen=True)
class WernerParams:
    """Werner-state parameters: either gamma (I + gamma*V form) or p (symmetric weight).

    The two parametrizations interconvert bijectively; the PPT/separability
    boundary sits at gamma = -1/d.
    """

    d: int
    gamma: float | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("Werner states need local dimension d >= 2")
        if (self.gamma is None) == (self.p is None):
            raise ValueError("specify exactly one of gamma or p")
        if self.gamma is not None and not -1.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [-1, 1], got {self.gamma}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    @property
    def gamma_value(self) -> float:
        if self.gamma is not None:
            return float(self.gamma)
        return gamma_from_p(self.p, self.d)


def gamma_from_p(p: float, d: int) -> float:
    """gamma = -(2dp - d - 1)/(2p - d - 1); the denominator is negative for d >= 2."""
    return -(2.0 * d * p - d - 1.0) / (2.0 * p - d - 1.0)


def p_from_gamma(gamma: float, d: int) -> float:
    """Inverse of gamma_from_p: p = (d + 1)(gamma + 1) / (2(gamma + d))."""
    return (d + 1.0) * (gamma + 1.0) / (2.0 * (gamma + d))


def _swap_matrix(d: int) -> np.ndarray:
    lay = layout(("A", d), ("B", d))
    return swap_op(lay, "A", "B").entries


def werner(params: WernerParams) -> DensityOperator:
    """Normalized Werner state (I + gamma*V)/(d^2 + gamma*d) on d x d."""
    d = params.d
    gamma = params.gamma_value
    mat = np.eye(d * d) + gamma * _swap_matrix(d)
    return from_matrix(mat, layout(("A", d), ("B", d)))


def werner_params_of(state: DensityOperator) -> WernerParams:
    """The parameters of a Werner state, with gamma read as rho[01,10] / rho[01,01].

    Raises ValueError unless the state is d x d and equals
    (I + gamma*V)/(d^2 + gamma*d) entrywise to 1e-10.
    """
    subs = state.layout.subsystems
    if len(subs) != 2 or subs[0][1] != subs[1][1]:
        raise ValueError("a Werner state lives on d x d")
    d = subs[0][1]
    rho = state.matrix
    # |01> sits at index 1 and |10> at index d; every Werner state has rho[01,01] > 0
    if rho[1, 1].real <= 1e-10:
        raise ValueError("state is not a Werner state")
    params = WernerParams(d=d, gamma=float((rho[1, d] / rho[1, 1]).real))
    gamma = params.gamma
    ref = (np.eye(d * d) + gamma * _swap_matrix(d)) / (d * d + gamma * d)
    if np.abs(ref - rho).max() > 1e-10:
        raise ValueError("state is not a Werner state")
    return params


def maximally_mixed(d_a: int, d_b: int) -> DensityOperator:
    return from_matrix(np.eye(d_a * d_b), layout(("A", d_a), ("B", d_b)))


def bell_state(kind: str, d: int = 2, labels: tuple[str, str] = ("a", "b")) -> DensityOperator:
    """Rank-1 projector onto phi_plus (any d) or psi_minus (d = 2 only)."""
    lay = layout((labels[0], d), (labels[1], d))
    if kind == "phi_plus":
        vec = np.zeros(d * d)
        for i in range(d):
            vec[i * d + i] = 1.0
        vec /= math.sqrt(d)
    elif kind == "psi_minus":
        if d != 2:
            raise ValueError("psi_minus is defined for d = 2 only")
        vec = np.zeros(4)
        vec[1] = 1.0 / math.sqrt(2)
        vec[2] = -1.0 / math.sqrt(2)
    else:
        raise ValueError(f"unknown Bell state kind {kind!r}")
    return from_matrix(np.outer(vec, vec), lay)


def projectors(d: int) -> tuple[HermitianOperator, HermitianOperator]:
    """Symmetric and antisymmetric projectors P_s = (I+V)/2, P_as = (I-V)/2 on d x d."""
    if d < 2:
        raise ValueError("need d >= 2")
    v = _swap_matrix(d)
    lay = layout(("A", d), ("B", d))
    p_s = HermitianOperator(lay, (np.eye(d * d) + v) / 2.0)
    p_as = HermitianOperator(lay, (np.eye(d * d) - v) / 2.0)
    return p_s, p_as


def probe_operator(alpha: float, kind: str = "phi_plus") -> HermitianOperator:
    """The two-qubit operator alpha*I - Bell, with spectrum {alpha-1, alpha, alpha, alpha}."""
    bell = bell_state(kind, 2)
    return HermitianOperator(bell.layout, alpha * np.eye(4) - bell.matrix)


# ---------------------------------------------------------------------------
# state files: versioned plain text, diff-able fixtures


def save_state(path, op: HermitianOperator | DensityOperator) -> None:
    """Write `kext-state v1` text: layout line, dim line, then `re im` rows (row-major)."""
    if isinstance(op, DensityOperator):
        op = op.op
    lay = op.layout
    mat = op.entries.astype(np.complex128, copy=False)
    lines = [STATE_FILE_HEADER]
    lines.append("layout " + " ".join(f"{lab}:{dim}" for lab, dim in lay.subsystems))
    lines.append(f"dim {lay.total_dim}")
    for entry in mat.ravel():
        lines.append(f"{float(entry.real)!r} {float(entry.imag)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_state(
    path,
    lay: SystemLayout | None = None,
    require_normalized: bool = True,
) -> DensityOperator:
    """Read a kext-state file and validate it (Hermitian, PSD, optionally normalized)."""
    with open(path) as fh:
        raw = [line.strip() for line in fh if line.strip()]
    if not raw or raw[0] != STATE_FILE_HEADER:
        raise StateValidationError(f"{path}: missing '{STATE_FILE_HEADER}' header")
    pos = 1
    file_layout: SystemLayout | None = None
    if pos < len(raw) and raw[pos].startswith("layout "):
        subs = []
        for token in raw[pos].split()[1:]:
            lab, _, dim = token.partition(":")
            if not dim.isdigit():
                raise StateValidationError(f"{path}: malformed layout token {token!r}")
            subs.append((lab, int(dim)))
        file_layout = SystemLayout(tuple(subs))
        pos += 1
    if pos >= len(raw) or not raw[pos].startswith("dim "):
        raise StateValidationError(f"{path}: missing 'dim' line")
    try:
        dim = int(raw[pos].split()[1])
    except (IndexError, ValueError) as exc:
        raise StateValidationError(f"{path}: malformed dim line {raw[pos]!r}") from exc
    pos += 1
    if lay is None:
        lay = file_layout
    if lay is None:
        raise StateValidationError(f"{path}: no layout line in file and none supplied")
    if file_layout is not None and file_layout.dims != lay.dims:
        raise StateValidationError(
            f"{path}: file layout dims {file_layout.dims} do not match requested {lay.dims}"
        )
    if lay.total_dim != dim:
        raise StateValidationError(f"{path}: dim {dim} does not match layout dimension {lay.total_dim}")
    rows = raw[pos:]
    if len(rows) != dim * dim:
        raise StateValidationError(f"{path}: expected {dim * dim} entry lines, found {len(rows)}")
    try:
        values = np.array([complex(float(a), float(b)) for a, b in (r.split() for r in rows)])
    except ValueError as exc:
        raise StateValidationError(f"{path}: malformed entry line") from exc
    mat = values.reshape(dim, dim)
    try:
        return from_matrix(mat, lay, normalized=require_normalized)
    except ValueError as exc:
        raise StateValidationError(f"{path}: {exc}") from exc
