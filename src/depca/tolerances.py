"""The library's numeric policy.

Every numeric margin the solvers compare against lives here, once, in
``DEFAULT``.  No function takes a tolerance set as an argument: each use
site reads ``DEFAULT.<field>`` from its own module's namespace at call
time, so a margin changes in one place for every caller.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # projections and splits
    projection_idem: float = 1e-9       # ||P^2 - P||
    boundary_margin: float = 1e-8       # spectral distance to the stability boundary

    # matrix exponential
    max_squarings: int = 40

    # simultaneous triangularization
    commute_tol: float = 1e-10          # ||AB - BA|| treated as commuting
    triangular_tol: float = 1e-9        # below-diagonal mass allowed in results
    common_eigvec_tol: float = 1e-7     # residual for a common eigenvector

    # propagator invertibility: the floor of each eigenvalue-pair factor
    # |1 + b u phi1(-a u)| and, on the grid screen and on C = Z(1), of the
    # factors' geometric mean (|det Z(u)| e^{-u Re tr A})^(1/p)
    det_threshold: float = 1e-10

    # forcing integrals
    resonance_margin: float = 1e-6      # |i*omega - lambda(A)| for closed forms
    quad_max_levels: int = 20

    # dichotomy certificates
    alpha_safety: float = 0.9           # certified alpha = 0.9 * spectral rate
    k_headroom: float = 1.05            # certified K = 1.05 * exact sup (round-off)

    # trajectory verification
    central_diff_step: float = 1e-5
    residual_scale: float = 1e-4        # residual <= this * (1+||A||+||B||) * sup|x|

    # boundedness screens
    growth_ratio: float = 1.8           # dyadic-window ratio flagging linear growth


DEFAULT = Tolerances()
