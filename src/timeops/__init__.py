"""Numerical toolkit for time operators of truncated self-adjoint spectra.

The pipeline runs spectrum -> channel decomposition -> time operator or
ultra-weak form -> identity checks, with a grid-based continuous-spectrum
check and a symbolic exactly-solvable class on the side.  Everything is
finite-dimensional and every claimed identity ships with a measurable
residual.
"""
from .spectra import (
    Accumulation,
    DiscreteSpectrum,
    HermitianMatrix,
    harmonic_spectrum,
    hydrogen_point_spectrum,
    rabi_bound_check,
    rabi_hamiltonian,
)
from .decompose import (
    ChannelDecomposition,
    DecompositionReport,
    PartitionResult,
    bucket_index,
    channel_partition,
    decompose_spectrum,
    partition_null_sequence,
    verify_decomposition,
)
from .timeop import (
    BlockDiagonal,
    MatrixKind,
    TimeOperatorMatrix,
    assemble_time_operator,
    ccr_residual,
    channel_time_operator,
    commutator_defect_columns,
    galapon_matrix,
    osc_timeop_spectrum,
    project_to_difference_span,
    random_difference_vector,
)
from .uwform import (
    AdmissibilityError,
    AdmissibilityReport,
    FormChannel,
    FunctionKind,
    FunctionSpec,
    UncertaintyResult,
    assemble_uwform,
    describe_domains,
    evaluate_form,
    f_condition_check,
    f_transform_form,
    in_ccr_domain,
    project_to_ccr_domain,
    random_domain_vector,
    require_ccr_domain,
    uncertainty_check,
    uw_ccr_residual,
)
from .contspec import (
    AffineExpCombination,
    ExpCombination,
    GridState,
    ab_apply,
    free_evolve,
    make_packet,
    s0_apply,
    s0_strong_relation_check,
    s0_symmetry_residual,
    weak_weyl_residual,
    weak_weyl_residuals,
)
from .acceptance import DEFAULT_TOLERANCES, CriterionResult, run_all
from .cli import RunConfig, run

__version__ = "0.1.0"
