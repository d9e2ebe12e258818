"""Neumann Laplace eigenvalues of smooth star-shaped planar domains.

The solver represents Helmholtz trial functions by exterior point sources,
minimizes a spectrally weighted boundary tension over the trial space at each
energy by a rank-regularized SVD, localizes the tension minima in energy, and
converts the minimum values into certified eigenvalue inclusion intervals.
An exact unit-disc module provides the analytic identities the solver is
validated against.
"""

from .assembly import (SystemBuilder, TensionSystem, interior_norm_matrix,
                       point_source_sum, sqrt_factor)
from .disc import (DiscMode, boundary_ratio, disc_modes_in_window,
                   interior_norm_disc, quasi_orth_gram_norm, weighted_ratio)
from .geometry import (BoundaryGrid, ChargeSet, InteriorGrid, RadialCurve,
                       arclength_spectral, area, build_grid, charge_points,
                       contains, interior_grid)
from .search import (EigenResult, SweepSample, TensionSolver, inclusion_bounds,
                     localize_minimum, mode_error_bound, parabolic_min, sweep,
                     weyl_index)
from .special import (bessel_jn, bessel_jn_prime, bessel_y0, bessel_y1,
                      jnprime_zero, jnprime_zeros, jnprime_zeros_upto)
from .tension import TensionEval, classical_tension, min_tension, tension_of
from .weights import (FilterSpec, LowRankFilter, build_filter_matrix, f_weight,
                      g_weight)

__version__ = "0.1.0"
