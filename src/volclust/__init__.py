"""Indifference pricing of European puts under fast mean-reverting volatility.

The package computes risk-indifference put prices two ways, corrected
asymptotic formulas (price and implied volatility affine in the
log-moneyness-to-maturity ratio) and a direct solve of the full
semilinear pricing PDE, and calibrates the risk/correlation parameters
from implied-volatility quotes.
"""

from .asymptotics import (AsymptoticPrice, CorrectedIV, asymptotic_price,
                          corrected_iv, iv_correction_from_price)
from .bs import bs_put, bs_put_dx_derivatives, bs_vega, implied_vol
from .calibrate import (AffineFit, IVQuote, calibrate_from_surface, fit_affine,
                        recover_constants)
from .errors import VolclustError
from .measure import InvariantMeasure, average, build_invariant_measure
from .model import (Arctangent, Constant, ModelSpec, Tabulated,
                    arctangent_model, read_config, validate, write_config)
from .pde import Grid2D, PriceSurface, accuracy_sweep, make_grid, price_surface
from .poisson import (GroupConstants, PhiDerivatives, compute_group_constants,
                      group_constants_for, solve_phi_derivatives)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticPrice", "CorrectedIV", "asymptotic_price", "corrected_iv",
    "iv_correction_from_price", "bs_put", "bs_put_dx_derivatives", "bs_vega",
    "implied_vol", "AffineFit", "IVQuote", "calibrate_from_surface",
    "fit_affine", "recover_constants", "VolclustError", "InvariantMeasure",
    "average", "build_invariant_measure", "Arctangent", "Constant",
    "ModelSpec", "Tabulated", "arctangent_model", "read_config", "validate",
    "write_config", "Grid2D", "PriceSurface", "accuracy_sweep", "make_grid",
    "price_surface",
    "GroupConstants", "PhiDerivatives", "compute_group_constants",
    "group_constants_for", "solve_phi_derivatives",
]
