"""Every numerical threshold of the library, one name per check.

A threshold here decides whether a check raises or which branch runs; the
comment says what it guards and "relative" marks one scaled by a norm at
the point of use. Only six kernel parameters take a tolerance argument,
because callers or tests use more than one value: bundle.gauge_membership,
bundle.lift_tangents, bundle.path_speeds_sq, linalg.check_hermitian_stack,
linalg.polar_unitary_stack and spectra.validate.
"""

# matrices and spectra (linalg, spectra)
HERM_TOL = 1e-10  # Hermiticity of a single matrix or a schedule where it enters, relative
STEP_UNITARITY_TOL = 1e-9  # max|U^dag U - I| that the squarings of a propagator step may reach; caps them
CURVE_HERM_TOL = 1e-8  # Hermiticity of the samples of a state curve where it is decomposed, relative
GAP_TOL = 1e-9  # eigenvalues closer than this share a degenerate block
BLOCK_GAP_TOL = 10 * GAP_TOL  # least inter-block gap along a curve, so the clustering cannot flicker between samples
ZERO_TOL = 1e-10  # eigenvalues at or below this belong to the kernel
SINGULAR_TOL = 1e-12  # smallest singular value / Gram eigenvalue of an invertible map
STATE_TOL = 1e-10  # unit trace and positivity of a density matrix (HERM_TOL checks its Hermiticity)
NORM_TOL = 1e-12  # sum_j m_j p_j = 1 for a given spectral pair
ASSEMBLE_NORM_TOL = 1e-9  # sum_j m_j p_j = 1 for spectral data rebuilt into a matrix

# curves
ENDPOINT_TOL = 1e-9  # junction gap between concatenated curves
SPACING_TOL = 1e-9  # sample spacings of concatenated curves agree, relative
PATH_ORDER_TOL = 1e-9  # eigenvalue paths may rise by at most this between blocks
PATH_NORM_TOL = 1e-9  # normalization of every sample of an eigenvalue path

# bundle
AMPLITUDE_TOL = 1e-9  # W^dag W block-scalar with descending values
GAUGE_TOL = 1e-9  # unitarity, block-diagonality and skew-Hermiticity of gauge data, relative
CLOSED_TOL = 1e-8  # closure defect |rho_0 - rho_tau| of a closed curve
OFFBLOCK_TOL = 1e-6  # block-off-diagonal mass of a raw holonomy
TANGENT_TOL = 1e-6  # horizontal-lift residual of exact state tangents, relative
PROJECTION_TOL = 1e-8  # W W^dag or initial frames against the initial state
OVERLAP_TOL = 1e-8  # smallest singular value of consecutive eigenframe overlaps

# invariants
PHASE_TOL = 1e-7  # eigenphases this close to 0 mod 2pi, on either side, are set to 0
SLACK_TOL = 1e-6  # negative slack of the isoholonomic inequalities
CONST_SPECTRUM_TOL = 1e-7  # block means constant along a curve
LENGTH_TANGENT_TOL = 1e-3  # horizontal-lift residual of finite-difference tangents, relative
REGION_TOL = 1e-12  # block means below the spectral bounds alpha

# dynamics
INTERVAL_TOL = 1e-12  # state curve and schedule cover the same interval, relative
SPEED_IDENTITY_TOL = 1e-6  # squared state speed equals Delta^2 H_co, relative
MARGIN_TOL = 1e-6  # negative speed-limit margin tau - iHB / Delta E
AXIS_NORM_TOL = 1e-9  # the qubit precession axis is a unit vector
AXIS_TILT_TOL = 1e-18  # n_1^2 + n_2^2 at or below this leaves the qubit stationary

# synthesis
ORTHONORMAL_TOL = 1e-8  # the plane pair of a pure loop is orthonormal
SAT_INTEGRATION_TOL = 1e-5  # max|rho0 W - W rho0|_F, W = U^dag P: re-integrated against planned propagators
SAT_HOLONOMY_TOL = 1e-6  # realized holonomy against the target
SAT_LENGTH_TOL = 1e-5  # curve length against the isoholonomic bound
SAT_HIN_TOL = 1e-9  # incoherent mass of the drive, times tau
SAT_DH_TOL = 1e-6  # energy uncertainty against iHB / tau, times tau
SAT_ENERGY_TOL = 1e-5  # tau Delta E against the length, and (iHB / Delta E) / tau against 1
