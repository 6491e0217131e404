"""The finite-difference, Fisher and volume oracles, bit for bit, at fixed points.

``oracle_bits.json`` holds the ``float.hex`` of every output for sigma from
1e-150 to 1e150: Gamma, every component of R and the scalar curvature at 3
points per model, and both quadrature schemes' Fisher matrices at the same
range plus one point per model with sigma_x << |mu_x| (past 1e-154 the squared
scores leave the double range in the Gram product).  For the volume layer it
holds, per model, the exact time average on a float time, on a 0-d array and
on a 2-D array whose rate * tau runs across ``EXACT_SWITCH`` (Gauss rule
below, closed form above), on float and ``np.float64`` times far out on the
tail (rate * tau = 1e3, 1e8 and 1e200), the box volume, and the box
quadrature on a one-panel and a two-panel box.  For the Jacobi layer it holds, per model,
the J, log intensities and slots of the exact field on a short grid in rate
* tau, at the volume spec and at a far spec (sigma0 = 1e-100, sigma0' = 1)
where J^3 underflows to 0, and the exact field from a start other than
the default at both specs (at the far spec one past the double range,
whose slots are inf and nan).  For the softening table it holds, per model,
the rows of the fits of ``softening_ratio_ige`` and ``softening_gap``, each
keyed by its function, at the default sweep and at (1e-6, 1, 1e6), and the
3D time average on times whose rate * tau straddles 19.06, where q = e^-2U
passes ``_LI2_NEGLIGIBLE``.  For the geodesic layer it holds, per model, the
closed form's ``residual_check`` on the CLI's grid at the default spec, at
lambda_f = 1e6 and 1e150 (sigma_y underflows to 0), at sigma0 = 1e-6 and
1e10, and at the default spec on a grid past rate * tau = 745, where
exp(l_1) = sech s underflows.  A change that reorders the floating-point
operations of any oracle fails here; regenerate the file only with such a
change, and give the size of the difference it makes:

    PYTHONPATH=src python tests/test_oracle_bits.py > tests/oracle_bits.json
"""

import json
import sys
from pathlib import Path

import numpy as np

from infogeo import fisher, ige, jacobi, numgeo
from infogeo.geodesics import GeodesicSpec2D, GeodesicSpec3D, residual_check
from infogeo.models import Model2DConfig, ParameterPoint2D, ParameterPoint3D

FD_POINTS = {"3d": [(0.3, 1e-150, 2.5), (-1.7, 0.8, 1e150), (4.0, 3e149, 7e-149)],
             "2d": [(0.3, 1e-150), (-1.7, 0.8), (4.0, 1e150)]}
FISHER_POINTS = {"3d": [(-3e-150, 1e-150, 2.5), (-1.7, 0.8, 1e150), (4e149, 3e149, 7e-149),
                        (0.3, 1e-20, 1.0)],
                 "2d": [(2e-150, 1e-150), (-1.7, 0.8), (4.0, 1e150), (1e6, 1e-3)]}
SCHEMES = (fisher.QuadratureSpec(), fisher.QuadratureSpec("truncated-grid"))
VOLUME_SPEC_3D = GeodesicSpec3D(0.0, 1.3, 1.1, 0.8, 0.9)
VOLUME_SPECS = {"3d": VOLUME_SPEC_3D, "2d": GeodesicSpec2D.from_3d(VOLUME_SPEC_3D)}
# times, not rate * tau: U = 0.42, 2.6 and 31 (3D) below, just above and far
# above the switch, and 0.29, 1.84 and 22 (2D), the middle one below it too
AVERAGE_TAUS = (0.4, 2.5, 30.0)
# rate * tau on the far tail: e^-U underflows to 0 at the last two
FAR_RATE_TAUS = (1e3, 1e8, 1e200)
MIXED_TAUS = np.linspace(0.1, 8.0, 40).reshape(5, 8)
BOX_TAUS = np.array([0.0, 0.3, 1.0, 5.0, 50.0])
# one panel per scale axis at the first time, two on the last axis at the second
QUADRATURE_TAUS = {"3d": (0.5, 1.0), "2d": (0.5, 2.0)}
FAR_SPEC_3D = GeodesicSpec3D(0.0, 1e-100, 1.0, 0.8, 0.9)
FAR_SPECS = {"3d": FAR_SPEC_3D, "2d": GeodesicSpec2D.from_3d(FAR_SPEC_3D)}
JACOBI_S = np.array([0.0, 0.5, 3.0, 20.0, 50.0])   # rate * tau
# (J, J') away from the default, signed zeros among them; at the far spec the
# sigma slot's J' / rate / sigma0 = 1e250 / 8e-101 / 1e-100 leaves the double range
JACOBI_STARTS = {"3d": ((0.3, -1.7, 0.0), (-0.0, 0.9, -2.5)), "2d": ((0.0, -0.0), (1.5, -0.0))}
FAR_STARTS = {"3d": ((0.3, -1.7, 0.0), (0.0, 1e250, -2.5)), "2d": ((0.0, 1.0), (1.0, 1e250))}
SWEEPS = ((0.5, 1.0, 2.0), (1e-6, 1.0, 1e6))
# rate * tau across U = 55 log(2) / 2 = 19.06, where e^-2U = _LI2_NEGLIGIBLE
LI2_CUTOFF_RATE_TAUS = np.linspace(18.5, 19.5, 41)
# (mu0, sigma0, sigma0', lambda', lambda_f) of each residual spec, on the CLI's
# grid; "far" runs the default spec to rate * tau = 1500 (3D) and 1061 (2D)
RESIDUAL_SPECS = {"default": (0.0, 1.0, 1.0, 1.0, 1.0),
                  "lambda_f 1e6": (0.0, 1.0, 1.0, 1.0, 1e6),
                  "lambda_f 1e150": (0.0, 1.0, 1.0, 1.0, 1e150),
                  "sigma0 1e-6": (0.0, 1e-6, 1.0, 1.0, 1.0),
                  "sigma0 1e10": (0.0, 1e10, 1.0, 1.0, 1.0)}
RESIDUAL_GRID = np.linspace(0.01, 10.0, 100)
FAR_RESIDUAL_GRID = np.linspace(0.01, 1500.0, 100)


def _hex(a) -> list:
    return [float(v).hex() for v in np.ravel(a)]


def oracle_bits() -> dict:
    out = {}
    for label, field in (("3d", numgeo.field_3d()), ("2d", numgeo.field_2d())):
        for p in FD_POINTS[label]:
            theta = np.array(p)
            out[f"fd {label} {p!r}"] = {
                "christoffel": _hex(numgeo.christoffel_numeric(field, theta).components),
                "riemann": _hex(numgeo.riemann_numeric(field, theta).components),
                "scalar": _hex(numgeo.scalar_numeric(field, theta)),
            }
    for p in FISHER_POINTS["3d"]:
        out[f"fisher 3d {p!r}"] = {q.scheme: _hex(fisher.fisher_numeric_3d(ParameterPoint3D(*p), q))
                                   for q in SCHEMES}
    for p in FISHER_POINTS["2d"]:
        out[f"fisher 2d {p!r}"] = {
            q.scheme: _hex(fisher.fisher_numeric_2d(ParameterPoint2D(*p), Model2DConfig(), q))
            for q in SCHEMES}
    for label, spec in VOLUME_SPECS.items():
        out[f"volume {label}"] = {
            "log_averaged_volume float": _hex([ige.log_averaged_volume(spec, t)
                                               for t in AVERAGE_TAUS]),
            "log_averaged_volume 0-d": _hex([ige.log_averaged_volume(spec, np.array(t))
                                             for t in AVERAGE_TAUS]),
            "log_averaged_volume mixed": _hex(ige.log_averaged_volume(spec, MIXED_TAUS)),
            "log_averaged_volume far float": _hex([ige.log_averaged_volume(spec, u / spec.rate)
                                                   for u in FAR_RATE_TAUS]),
            "log_averaged_volume far float64": _hex(
                [ige.log_averaged_volume(spec, t) for t in np.array(FAR_RATE_TAUS) / spec.rate]),
            "box_volume": _hex(ige.box_volume(spec, BOX_TAUS)),
            "box_volume_quadrature": _hex([ige.box_volume_quadrature(spec, t)
                                           for t in QUADRATURE_TAUS[label]]),
        }
    for label, spec in VOLUME_SPECS.items():
        out[f"jacobi {label}"] = {}
        for name, at in (("", spec), ("far ", FAR_SPECS[label])):
            traj = jacobi.exact_jacobi(at, JACOBI_S / at.rate)
            out[f"jacobi {label}"].update({f"{name}J": _hex(traj.J),
                                           f"{name}log_intensities": _hex(traj.log_intensities),
                                           f"{name}slots": _hex(traj.slots)})
        for name, at, start in (("start ", spec, JACOBI_STARTS[label]),
                                ("far start ", FAR_SPECS[label], FAR_STARTS[label])):
            traj = jacobi.exact_jacobi(at, JACOBI_S / at.rate, *start)
            out[f"jacobi {label}"].update({f"{name}J": _hex(traj.J),
                                           f"{name}log_intensities": _hex(traj.log_intensities),
                                           f"{name}slots": _hex(traj.slots)})
    for sweep in SWEEPS:
        specs_3d = [GeodesicSpec3D(0.0, s0, 1.0, 1.0, 1.0) for s0 in sweep]
        pairs = [(spec, GeodesicSpec2D.from_3d(spec)) for spec in specs_3d]
        rates = np.array([spec.rate for pair in pairs for spec in pair])
        taus = jacobi.exponent_times(rates, jacobi.EXPONENT_WINDOW)
        slopes = ige.softening_ratio_ige(pairs, ige.slope_times(rates, ige.SLOPE_WINDOW))
        exponents = jacobi.softening_gap(
            pairs, taus, jacobi.window_mask(taus, rates, jacobi.EXPONENT_WINDOW))
        for label in ("3d", "2d"):
            ige_fit, exponent_fit = (getattr(fits, f"fit_{label}") for fits in (slopes, exponents))
            out[f"softening {label} {sweep!r}"] = {
                "softening_ratio_ige": _hex([ige_fit.slope, ige_fit.r_squared]),
                "softening_gap": _hex([exponent_fit.slope, exponent_fit.r_squared])}
    spec = VOLUME_SPECS["3d"]
    out["volume 3d li2 cutoff"] = _hex(ige.log_averaged_volume(spec, LI2_CUTOFF_RATE_TAUS
                                                               / spec.rate))
    for label in ("3d", "2d"):
        out[f"residual {label}"] = {}
        for name, start in (*RESIDUAL_SPECS.items(), ("far", RESIDUAL_SPECS["default"])):
            spec = GeodesicSpec3D(*start)
            spec = spec if label == "3d" else GeodesicSpec2D.from_3d(spec)
            grid = FAR_RESIDUAL_GRID if name == "far" else RESIDUAL_GRID
            out[f"residual {label}"][name] = _hex([residual_check(spec, grid)])
    return out


def test_oracles_match_their_recorded_bits():
    recorded = json.loads((Path(__file__).parent / "oracle_bits.json").read_text())
    assert oracle_bits() == recorded


if __name__ == "__main__":
    json.dump(oracle_bits(), sys.stdout, indent=1)
    print()
