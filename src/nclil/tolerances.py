"""Every comparison slack and floor of nclil: one entry per role and value, defined here only."""

HERM_ATOL = 1e-10       # hermitian flag: max|a - a^H| <= this (1 + max|a|)
RECON_TOL = 1e-9        # eigendecomposition reconstructs a within this (1 + max|a|)
PROJ_ATOL = 1e-8        # projection idempotence residual; psd_sqrt's floor, times (1 + max|w|)
ENDPOINT_FUZZ = 1e-12   # snapping width of spectral interval ends and of indices floor(x + this)
IMAG_ATOL = 1e-10       # imaginary part of a hermitian trace: <= this (1 + |real part|)
CE_AXIOM_TOL = 1e-8     # worst sampled conditional-expectation axiom residual that passes
MD_RESIDUAL_TOL = 1e-9  # martingale-property residual accepted downstream
MONOTONE_TOL = 1e-12    # a nondecreasing bracket may step down by this (1 + s^2_N)
SITE_NORM_FLOOR = 1e-8  # a traceless site draw of spectral radius <= this is redrawn
CENTERED_NORM_FLOOR = 1e-10     # a centered level element of norm <= this is redrawn
ROUND_REL = 1e-12       # a <= b (1 + this) of computed values; also u >= 1 - this
ROUND_ABS = 1e-12       # mass <= mass + this: implied deficit, Chebyshev monotonicity
TILT_FLOOR = 1e-15      # a tilt down to -this counts as 0
TILT_CAP_ABS = 1e-300   # absolute slack of the tilt cap, for a cap at the bottom of the float range
CENTER_TOL = 1e-9       # hypothesis (i): |tau(x_n)| <= this
BRACKET_TOL = 1e-9      # hypothesis (iii): D^2 - bracket >= -this (1 + D^2)
HOLD_TOL = 1e-10        # slack of log-scale inequality comparisons and of the Chebyshev residual
FEAS_TOL = 1e-8         # certificate domination slack
REPAIR_GAP_TOL = 1e-12  # a repair round ends once every domination gap is above -this
ENCLOSURE_REL_TOL = 1e-8        # relative slack of lower <= upper in the column-norm enclosure
ENCLOSURE_ABS_TOL = 1e-12       # absolute slack of the same comparison
SEARCH_REL_TOL = 1e-6   # relative objective gain below which the column-norm search stops
PSD_FLOOR = 1e-10       # a psd input's lambda_min may go down to -this (1 + ||x||_inf)
KERNEL_CUT = 1e-10      # dense e: deficiency-sum eigenvalues <= this (1 + count) are its kernel
BC_TOLERANCES = {"streaming-ensemble": (1e-12, 1e-12, 0.0),     # summability: (union slack,
                 "dense-certificate": (1e-8, 0.0, 1e-4)}        # limsup abs, rel); dense e is fuzzy
