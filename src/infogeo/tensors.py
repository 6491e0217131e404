"""Small dense tensor containers for 2- and 3-dimensional manifolds.

Index conventions:

* ``MetricTensor.components[l, m]``      is g_lm (covariant, symmetric).
* ``ChristoffelSymbols.components[k, i, j]`` is Gamma^k_ij (upper index first,
  symmetric in i, j).
* ``RiemannTensor.components[a, m, n, r]`` is R^a_mnr with the first index
  raised, antisymmetric in the last two indices.  Lowering the first index
  with the metric gives R_amnr.
* ``RicciTensor.components[i, j]``       is R_ij = R^k_ikj.

Zero components are stored explicitly so property checks can scan whole
tensors.  All containers are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError


def _as_locked(array, shape) -> np.ndarray:
    out = np.asarray(array, dtype=float)
    if out.shape != shape:
        raise ValueError(f"expected shape {shape}, got {out.shape}")
    out = out.copy()
    out.flags.writeable = False
    return out


def validate_metrics(g: np.ndarray) -> None:
    """Check each matrix of a stack g[..., l, m]: finite, symmetric, positive definite.

    Raises DomainError naming the first bad matrix and its first defect.
    """
    flat = g.reshape(-1, *g.shape[-2:])
    finite = np.isfinite(flat).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):     # inf - inf in a non-finite matrix
        symmetric = (np.abs(flat - flat.transpose(0, 2, 1)).max(axis=(1, 2))
                     <= 1e-12 * np.maximum(1.0, np.abs(flat).max(axis=(1, 2))))
    try:
        if finite.all() and symmetric.all():
            np.linalg.cholesky(flat)
            return
    except np.linalg.LinAlgError:
        pass
    for comps, fin, sym in zip(flat, finite, symmetric):
        if not fin:
            raise DomainError(f"metric has a non-finite entry:\n{comps}")
        if not sym:
            raise DomainError(f"metric is not symmetric:\n{comps}")
        try:
            np.linalg.cholesky(comps)
        except np.linalg.LinAlgError:
            raise DomainError(f"metric is not positive definite:\n{comps}") from None


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric positive definite metric at a point."""

    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        if comps.ndim != 2 or comps.shape[0] != comps.shape[1]:
            raise ValueError("metric components must be a square matrix")
        object.__setattr__(self, "components", _as_locked(comps, comps.shape))
        validate_metrics(comps)

    @cached_property
    def inverse(self) -> np.ndarray:
        """g^lm with g^lm g_mk = delta^l_k."""
        inv = np.linalg.inv(self.components)
        inv.flags.writeable = False
        return inv


@dataclass(frozen=True)
class ChristoffelSymbols:
    components: np.ndarray  # [k, i, j]

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        n = comps.shape[0]
        object.__setattr__(self, "components", _as_locked(comps, (n, n, n)))

    def symmetry_defect(self) -> float:
        """max |Gamma^k_ij - Gamma^k_ji| (zero for a Levi-Civita connection)."""
        c = self.components
        return float(np.abs(c - np.swapaxes(c, 1, 2)).max())


@dataclass(frozen=True)
class RiemannTensor:
    components: np.ndarray  # [a, m, n, r], first index raised

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        n = comps.shape[0]
        object.__setattr__(self, "components", _as_locked(comps, (n, n, n, n)))

    def antisymmetry_defect(self) -> float:
        """max |R^a_mnr + R^a_mrn|."""
        c = self.components
        return float(np.abs(c + np.swapaxes(c, 2, 3)).max())

    def first_bianchi_defect(self) -> float:
        """max over indices of |R^a_[mnr]| cyclic sum."""
        c = self.components
        cyc = c + np.transpose(c, (0, 2, 3, 1)) + np.transpose(c, (0, 3, 1, 2))
        return float(np.abs(cyc).max())

    def lowered(self, metric: MetricTensor) -> np.ndarray:
        """R_amnr = g_ab R^b_mnr."""
        return np.einsum("ab,bmnr->amnr", metric.components, self.components)

    def ricci(self) -> "RicciTensor":
        """R_mr = R^k_mkr."""
        return RicciTensor(np.einsum("kmkr->mr", self.components))


@dataclass(frozen=True)
class RicciTensor:
    components: np.ndarray  # [i, j]

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        n = comps.shape[0]
        object.__setattr__(self, "components", _as_locked(comps, (n, n)))

    def scalar(self, metric: MetricTensor) -> float:
        """R = g^ij R_ij."""
        return float(np.einsum("ij,ij->", metric.inverse, self.components))
