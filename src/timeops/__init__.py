"""Numerical toolkit for time operators of truncated self-adjoint spectra.

The pipeline runs spectrum -> channel decomposition -> time operator or
ultra-weak form -> identity checks, with a grid-based continuous-spectrum
check and a symbolic exactly-solvable class on the side.  Everything is
finite-dimensional and every claimed identity ships with a measurable
residual.
"""
from .spectra import (
    Accumulation,
    CertifiedEigenvalues,
    DiscreteSpectrum,
    HermitianMatrix,
    harmonic_spectrum,
    hydrogen_point_spectrum,
    rabi_bound_check,
    rabi_check,
    rabi_hamiltonian,
)
from .decompose import (
    ChannelDecomposition,
    DecompositionReport,
    channel_partition,
    channel_partition_sets,
    decompose_spectrum,
    verify_decomposition,
)
from .timeop import (
    ChannelStack,
    MatrixKind,
    OscillatorExtremes,
    assemble_time_operator,
    ccr_allowed,
    ccr_certificates,
    osc_timeop_extremes,
)
from .uwform import (
    AdmissibilityError,
    AdmissibilityReport,
    FunctionKind,
    FunctionSpec,
    assemble_uwform,
    describe_domains,
    f_condition_check,
    f_transform_form,
    uw_ccr_bounds,
)
from .contspec import (
    ExpCombination,
    GridState,
    make_packet,
    s0_apply,
    s0_strong_relation_check,
    s0_symmetry_bound,
    weak_weyl_residuals,
)
from .acceptance import CriterionResult, run_all
from .cli import DEFAULT_TOLERANCES, RunConfig, resolve_tolerances, run

__version__ = "0.1.0"
