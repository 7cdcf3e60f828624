"""Central tolerance configuration.

Every numeric margin used by the library lives here so that the defaults
are visible in one place and can be overridden wholesale for experiments.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # projections and splits
    projection_sum: float = 1e-10       # ||P + Q - I||
    projection_idem: float = 1e-9       # ||P^2 - P||
    boundary_margin: float = 1e-8       # spectral distance to the stability boundary

    # matrix exponential
    max_squarings: int = 40

    # simultaneous triangularization
    commute_tol: float = 1e-10          # ||AB - BA|| treated as commuting
    triangular_tol: float = 1e-9        # below-diagonal mass allowed in results
    common_eigvec_tol: float = 1e-7     # residual for a common eigenvector

    # propagator invertibility
    eigen_condition_tol: float = 1e-10  # |expr + 1| treated as a violation
    det_threshold: float = 1e-10        # |det Z| grid screen
    det_floor: float = 1e-12            # |det C| below which C is singular

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
