"""Neumann Laplace eigenvalues of smooth star-shaped planar domains.

The solver represents Helmholtz trial functions by exterior point sources,
minimizes a spectrally weighted boundary tension over the trial space at each
energy by a rank-regularized QR/SVD reduction, localizes the tension minima
in energy, and converts the minimum values into certified eigenvalue
inclusion intervals.  An exact unit-disc module provides the analytic
identities the solver is validated against.

The names below are imported from their modules on first access (PEP 562),
so ``import neuspec.cli`` loads no numpy: the CLI sets the BLAS thread
variables from ``--threads`` before anything starts the BLAS library.
"""

import importlib
import os

# OpenBLAS's idle threads spin 2^t cycles after each call (t = 28, 0.13 s at
# 2.1 GHz, by default) on the cores the kernel workers need, and wake at a cost.
# On 2 vCPUs at 2.1 GHz lobe-solve's command took 441 ms with t = 22, 455 ms
# with 20 and 575 ms with 28 (medians over 11, 12 and 6 processes).
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")

_EXPORTS = {
    "assembly": ("SystemBuilder", "TensionSystem", "interior_norm_matrix",
                 "point_source_sum", "raster_sum", "sqrt_factor"),
    "disc": ("DiscMode", "boundary_ratio", "disc_modes_in_window",
             "interior_norm_disc", "quasi_orth_gram_norm", "weighted_ratio"),
    "geometry": ("BoundaryGrid", "ChargeSet", "InteriorGrid", "RadialCurve",
                 "arclength_spectral", "area", "build_grid", "charge_points",
                 "contains", "interior_grid"),
    "search": ("EigenResult", "TensionSolver", "inclusion_bounds",
               "localize_minimum", "parabolic_min", "sweep", "weyl_index"),
    "special": ("bessel_jn", "bessel_jn_prime", "bessel_y0", "bessel_y1",
                "jnprime_zero", "jnprime_zeros", "jnprime_zeros_upto"),
    "tension": ("TensionEval", "classical_tension", "min_tension"),
    "weights": ("LowRankFilter", "build_filter_matrix", "f_weight",
                "g_weight"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
