"""Numerical information geometry of two Gaussian statistical manifolds.

Metric, connection and curvature in closed form with finite-difference and
quadrature cross-checks; geodesic flow with closed-form solutions; swept
statistical volumes and their entropy growth; Jacobi field dynamics and
growth exponents.  The headline quantities are the entropy-slope ratio
1/sqrt(2) and the matching exponent gap between the constrained (2D) and
unconstrained (3D) model.
"""

from .errors import DomainError, NumericalAbort
from .models import (MicroSample, Model2DConfig, ParameterPoint2D,
                     ParameterPoint3D, SCALAR_CURVATURE_2D,
                     SCALAR_CURVATURE_3D, christoffel_2d, christoffel_3d,
                     metric_2d, metric_3d, pdf_2d, pdf_3d, riemann_3d)
from .tensors import ChristoffelSymbols, MetricTensor, RiemannTensor
from .numgeo import (MetricField, christoffel_numeric, euclidean_field,
                     field_2d, field_3d, riemann_numeric, scalar_numeric)
from .fisher import QuadratureSpec, fisher_numeric_2d, fisher_numeric_3d
from .geodesics import (GeodesicSpec2D, GeodesicSpec3D, MU_SPAN_WIDE,
                        Trajectory, closed_form, closed_form_2d, closed_form_3d,
                        integrate_geodesic, residual_check, trajectory_to_csv)
from .ige import (IGEResult, IgeSoftening, SLOPE_WINDOW, VOLUME_WINDOW,
                  box_volume, box_volume_quadrature, ige_curve, ige_to_csv,
                  log_averaged_volume, log_box_volume,
                  log_closed_form_volume_2d, log_closed_form_volume_3d,
                  softening_ratio_ige)
from .jacobi import (EXPONENT_WINDOW, JacobiConstants, JacobiSoftening,
                     JacobiTrajectory, asymptotic_constants,
                     asymptotic_solutions, critically_damped,
                     default_initial, exact_jacobi, exponent_fit,
                     integrate_jlc, intensity, jacobi_to_csv,
                     jlc_coefficients, softening_gap, window_mask)
from .fitting import LineFit, fit_line

__version__ = "0.1.0"
