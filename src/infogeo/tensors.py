"""Small dense tensor containers for 2- and 3-dimensional manifolds.

Index conventions:

* ``MetricTensor.components[l, m]``      is g_lm (covariant, symmetric).
* ``ChristoffelSymbols.components[k, i, j]`` is Gamma^k_ij (upper index first,
  symmetric in i, j).
* ``RiemannTensor.components[a, m, n, r]`` is R^a_mnr with the first index
  raised, antisymmetric in the last two indices.  Lowering the first index
  with the metric gives R_amnr.
* ``ricci(R)[i, j]``                     is R_ij = R^k_ikj.

Zero components are stored explicitly so property checks can scan whole
tensors.  All containers are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Raises DomainError naming the first bad matrix and its first defect.  A
    finite, exactly symmetric batch takes one batched Cholesky; any other
    batch is judged matrix by matrix, symmetric to 1e-12 of its largest entry.
    """
    flat = g.reshape(-1, *g.shape[-2:])
    try:
        if np.isfinite(flat).all() and (flat == flat.transpose(0, 2, 1)).all():
            np.linalg.cholesky(flat)
            return
    except np.linalg.LinAlgError:
        pass
    finite = np.isfinite(flat).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):     # inf - inf in a non-finite matrix
        symmetric = (np.abs(flat - flat.transpose(0, 2, 1)).max(axis=(1, 2))
                     <= 1e-12 * np.abs(flat).max(axis=(1, 2)))
    for comps, fin, sym in zip(flat, finite, symmetric):
        if not fin:
            raise DomainError(f"metric has a non-finite entry: {comps.tolist()}")
        if not sym:
            raise DomainError(f"metric is not symmetric: {comps.tolist()}")
        try:
            np.linalg.cholesky(comps)
        except np.linalg.LinAlgError:
            raise DomainError(f"metric is not positive definite: {comps.tolist()}") from None


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


def ricci(R: np.ndarray) -> np.ndarray:
    """R_mr = R^k_mkr of R[a, m, n, r] = R^a_mnr."""
    return np.einsum("kmkr->mr", R)


def scalar(g: np.ndarray, ric: np.ndarray) -> float:
    """R = g^ij R_ij."""
    return float(np.einsum("ij,ij->", np.linalg.inv(g), ric))
