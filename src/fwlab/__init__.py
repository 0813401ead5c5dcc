"""fwlab: simulation and verification laboratory for the Fornberg-Whitham
equation u_t + u u_x + K*u_x = 0 with kernel K(x) = exp(-|x|)/2.

Strong (smooth) and weak entropy (shock) solvers plus mechanical checks of
the quantitative theory: conservation, wave-breaking criteria and blow-up
bounds, Riccati slope envelopes, Oleinik and L1-stability inequalities,
Kruzhkov entropy residuals, and traveling-wave identities.
"""

__version__ = "0.1.0"

from .grid import Domain, GridFn, derivative, line, norm, sample, torus
from .kernels import KernelOp, conv_K, conv_Kprime, kernel_eval
from .trajectory import Trajectory
from .strong import (OverflowAbort, StrongConfig, rhs, run_strong,
                     scaling_transport, step_rk4)
from .shock import FVConfig, fv_step, godunov_flux, run_fv, viscosity_sweep
from .diagnostics import (BreakingReport, ConservationReport, EntropyReport,
                          KruzhkovPair, TestFn, Thresholds, attach_observation,
                          breaking_precheck, conservation_report,
                          envelope_check, entropy_report, kruzhkov_residual,
                          l1_stability_check, make_test_family,
                          oleinik_check, oleinik_coefficient,
                          riccati_envelope, slope_extrema, weak_residual)
from .waves import (TravelingWave, b_formula, cusp_profile, cusp_seed_slope,
                    measured_cusp_jump, peakon, residual_scan, tw_defect,
                    tw_first_integral)

__all__ = [
    "__version__",
    "Domain", "GridFn", "derivative", "line", "norm", "sample", "torus",
    "KernelOp", "conv_K", "conv_Kprime", "kernel_eval",
    "Trajectory",
    "OverflowAbort", "StrongConfig", "rhs", "run_strong",
    "scaling_transport", "step_rk4",
    "FVConfig", "fv_step", "godunov_flux", "run_fv", "viscosity_sweep",
    "BreakingReport", "ConservationReport", "EntropyReport",
    "KruzhkovPair", "TestFn",
    "Thresholds", "attach_observation", "breaking_precheck",
    "conservation_report", "envelope_check", "entropy_report",
    "kruzhkov_residual", "l1_stability_check", "make_test_family",
    "oleinik_check", "oleinik_coefficient", "riccati_envelope",
    "slope_extrema", "weak_residual",
    "TravelingWave", "b_formula", "cusp_profile",
    "cusp_seed_slope", "measured_cusp_jump", "peakon", "residual_scan",
    "tw_defect", "tw_first_integral",
]
