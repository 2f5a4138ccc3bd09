"""Exact simulation and certification of thermally perturbed energy landscapes."""

from . import errors
from .bath import (
    BathCorrelation,
    BathSpec,
    KernelTable,
    build_kernel_table,
    gamma,
    gamma_zero_temperature,
    lamb_kernel,
    overlap_kernel,
    window_hat,
)
from .circuit_hamiltonian import (
    CircuitSpec,
    ClockHamiltonian,
    binomial_weights,
    build_clock_hamiltonian,
    center_weight_bound,
    clock_jump_preset,
    effective_prop_block,
    history_state,
    load_circuit,
    make_circuit,
    observable_reduction,
)
from .descent import (
    DescentConfig,
    DescentTrace,
    StepRecord,
    cool_step,
    thermal_gradient_descent,
)
from .gradient import (
    CertificateResult,
    GradientReport,
    certify_local_min,
    gradient_operator,
    gradient_vector,
    localize_commuting,
    negative_gradient_condition,
    ngc_params,
)
from .hamiltonian import (
    BohrBlocks,
    LocalHamiltonian,
    SpectralData,
    assemble,
    bohr_decompose,
    build_ising_chain,
    spectral_data,
)
from .landscape_unitary import (
    PlateauStats,
    UnitaryPerturbationSet,
    make_generator_set,
    pauli_x_generators,
    plateau_stats,
    random_pure_state,
    trivial_predictor,
    unitary_gradient,
)
from .lindblad import (
    LindbladModel,
    build_model,
    dissipative_adjoint,
    evolve,
    generator_apply,
    lamb_shift_operator,
    lindblad_adjoint,
    weight_vector,
)
from .operators import (
    MAX_QUBITS,
    PAULI,
    PauliTerm,
    basis_density,
    basis_state,
    check_density_matrix,
    expectation,
    herm_eig,
    kron_embed,
    kron_embed_csr,
    maximally_mixed,
    pauli_matrix,
    projector,
)

__all__ = [name for name in dir() if not name.startswith("_")]
