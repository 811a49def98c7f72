"""Holonomies, geometric phases, isoholonomic bounds, and cyclic quantum
speed limits for curves of isospectral/isodegenerate density operators."""

from . import bundle, curves, dynamics, errors, invariants, linalg, serialize, spectra, synthesis
from .bundle import (
    Amplitude,
    ConnectionValue,
    GaugeElement,
    canonical_amplitude,
    connection_form,
    connection_form_isospectral,
    gauge_membership,
    holonomy,
    horizontal_lift,
    metric_G,
    metric_g,
    project,
    split,
    transported_frame,
)
from .curves import OperatorCurve, ProbabilityPath, TimeGrid, concatenate, fisher_rao, reparam_arclength, reverse
from .dynamics import (
    HamiltonianSchedule,
    SpeedLimitReport,
    evolve,
    horizontal_lift_unitary,
    qubit_hamiltonian,
    qubit_reference,
    speed_limit,
    split_hamiltonian,
    uncertainty,
)
from .invariants import (
    IsoReport,
    PhaseSpectrum,
    check_isoholonomic,
    curve_length_energy,
    eigenphases,
    geometric_phase,
    ihb_constrained,
    ihb_isospectral,
    pure_ihb,
    wilson_loop,
)
from .linalg import cluster, hermitian_eig, pinv, polar_unitary, propagator_step
from .spectra import (
    DensityOperator,
    EigenprojectorBasis,
    check_bound,
    spectral_decompose,
    validate,
)
from .synthesis import (
    PureLoopSpec,
    SaturatingPlan,
    SaturationReport,
    choose_planes,
    embedded_state,
    optimal_pure_loop,
    synthesize,
    verify_saturation,
)

__version__ = "0.1.0"
