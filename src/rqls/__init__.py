"""Randomized quantum linear systems solver toolkit.

Estimates <phi|A^{-1}|psi> by Fourier-series inversion of a rescaled
Hermitian matrix, importance sampling of evolution times, and randomized
Hamiltonian-simulation kernels (second-order product formula or truncated
Taylor LCU), with certified bias bounds and sample-count requirements.
"""

__version__ = "0.1.0"

from .estimator import (
    KernelConfig,
    Problem,
    ResourceEstimate,
    SampleRecord,
    SolveReport,
    exhaustive_mean,
    monte_carlo_mean,
    overlap_table_exact,
    overlap_table_pf,
    pf_bias_bound,
    pf_resources,
    rte_resources,
    run_solver,
)
from .fourier import (
    FourierSeries,
    SeriesSizeError,
    build_series,
    fourier_params,
    gauss_legendre,
    rescale,
    truncation_params,
)
from .kernel_pf import PFPlan, build_pf, step_rotations, trotter_number
from .kernel_rte import (
    RTEInfeasibleError,
    RTESegmentModel,
    RTEUnitary,
    RTEWeightOverflowError,
    choose_nmax,
    rte_bias_bound,
    rte_finite_lcu,
    sample_rte_overlaps_batch,
    sample_rte_unitary,
    segment_model,
)
from .pauli import (
    PauliDecomposition,
    PauliString,
    commutator_constant,
    materialize,
    pauli_decompose,
)
from .randmat import MatrixArtifact, gen_matrix, haar_unitary
from .sampler import AliasTable, TimeSampler, sample_rng
from .simulator import StateVector, exact_evolution, hadamard_shot
