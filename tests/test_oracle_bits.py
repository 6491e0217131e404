"""The finite-difference and Fisher oracles, bit for bit, at fixed points.

``oracle_bits.json`` holds the ``float.hex`` of every output for sigma from
1e-150 to 1e150: Gamma, every component of R and the scalar curvature at 3
points per model, and both quadrature schemes' Fisher matrices at the same
range plus one point per model with sigma_x << |mu_x| (past 1e-154 the squared
scores leave the double range in the Gram product).  A change that reorders
the floating-point operations of either oracle fails here; regenerate the file
only with such a change, and give the size of the difference it makes:

    PYTHONPATH=src python tests/test_oracle_bits.py > tests/oracle_bits.json
"""

import json
import sys
from pathlib import Path

import numpy as np

from infogeo import fisher, numgeo
from infogeo.models import Model2DConfig, ParameterPoint2D, ParameterPoint3D

FD_POINTS = {"3d": [(0.3, 1e-150, 2.5), (-1.7, 0.8, 1e150), (4.0, 3e149, 7e-149)],
             "2d": [(0.3, 1e-150), (-1.7, 0.8), (4.0, 1e150)]}
FISHER_POINTS = {"3d": [(-3e-150, 1e-150, 2.5), (-1.7, 0.8, 1e150), (4e149, 3e149, 7e-149),
                        (0.3, 1e-20, 1.0)],
                 "2d": [(2e-150, 1e-150), (-1.7, 0.8), (4.0, 1e150), (1e6, 1e-3)]}
SCHEMES = (fisher.QuadratureSpec(), fisher.QuadratureSpec("truncated-grid"))


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
    return out


def test_oracles_match_their_recorded_bits():
    recorded = json.loads((Path(__file__).parent / "oracle_bits.json").read_text())
    assert oracle_bits() == recorded


if __name__ == "__main__":
    json.dump(oracle_bits(), sys.stdout, indent=1)
    print()
