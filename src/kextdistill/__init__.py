"""EPR-pair fidelity under k-extendible maps.

A bipartite state can be distilled toward the two-qubit Bell state by a
k-extendible map exactly when a symmetrized probe operator acquires a
negative eigenvalue; this package assembles those probes (dense or
matrix-free), finds the fidelity threshold, evaluates maps through their
Choi states, builds the measure-and-prepare strategies that reach unit
fidelity on rank-deficient states, and carries the closed-form Werner-state
results.  `BlockProbe` solves a probe held as blocks: the dense probe of
any state as one block per (spin, pair-permutation irrep) (`pair_spin_probe`),
and the Schur-Weyl blocks of any Werner probe at any n and k
(`werner_probe`), on the scale of I + gamma V, which is (d^2 + gamma d)^n
times the probe.  `s3_block_lambda_min` is the k = 1 reference the blocks
are checked against.  Helpers that only the tests call live in `tests/`.
"""

from .blocks import BlockProbe, pair_spin_probe, s3_block_lambda_min, werner_probe
from .linalg import (
    HermitianOperator,
    LinearMapHandle,
    SolverConvergenceError,
    SystemLayout,
    eig_min_dense,
    eig_min_iterative,
    embed,
    layout,
    partial_trace,
    permute_subsystems,
    swap_op,
)
from .solver import (
    CJOperator,
    KExtProblem,
    SingularOutputError,
    ThresholdResult,
    cj_of_mnp,
    construct_f1_strategy,
    evaluate_map_fidelity,
    fidelity_threshold,
    lambda_min_alpha,
    symmetrize,
)
from .states import (
    DensityOperator,
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
)
from .analytic import (
    IrrepCoefficients,
    MnPTradeoff,
    alpha_max_k1,
    maxmixed_bound,
    mnp_alpha_max,
    mnp_f,
    mnp_threshold_numeric,
    r_operators,
    reduced_eigenvalues,
    reduced_matrix,
    st_coefficients,
)

__version__ = "0.1.0"
