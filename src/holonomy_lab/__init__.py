"""Holonomies and their eigenphases, isoholonomic bounds, and cyclic quantum
speed limits for curves of isospectral/isodegenerate density operators."""

from . import bundle, curves, dynamics, errors, invariants, linalg, serialize, spectra, synthesis
from .bundle import (
    Amplitude,
    ConnectionValue,
    GaugeElement,
    canonical_amplitude,
    connection_form,
    gauge_membership,
    holonomy,
    horizontal_lift,
    metric_G,
    split,
    transported_frame,
)
from .curves import OperatorCurve, ProbabilityPath, TimeGrid, concatenate, fisher_rao, reverse
from .dynamics import (
    HamiltonianSchedule,
    SpeedLimitReport,
    evolve,
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
    ihb_constrained,
    ihb_isospectral,
    pure_ihb,
    wilson_loop,
)
from .linalg import cluster, hermitian_eig, pinv, polar_unitary
from .spectra import (
    DensityOperator,
    EigenprojectorBasis,
    spectral_decompose,
    validate,
)
from .synthesis import (
    PureLoopSpec,
    SaturatingPlan,
    SaturationReport,
    embedded_state,
    synthesize,
    verify_saturation,
)

__version__ = "0.1.0"
