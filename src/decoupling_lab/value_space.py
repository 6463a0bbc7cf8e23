"""Finite-dimensional normed values and finite discrete distributions.

Values are plain floats (dimension 1) or numpy vectors; norms are the three
classic choices on R^d.  Distributions are finite lists of (atom, probability)
pairs, which is what makes exact enumeration of every downstream law possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

PROB_TOL = 1e-12
DEFAULT_ENUM_BUDGET = 2 ** 24  # items one exhaustive enumeration may list by default

NORM_KINDS = ("abs_sum", "euclidean", "maximum")


def norm(v, kind: str = "euclidean") -> float:
    """Norm of a scalar or 1-D vector value: `batch_norm` of that one value.

    Scalars (and 0-d arrays) are dimension 1, where all three kinds coincide
    with the absolute value.
    """
    a = np.asarray(v, dtype=float)
    if a.ndim > 1:
        raise ValidationError(f"norm expects a scalar or 1-D vector, got shape {a.shape}")
    return batch_norm(a, kind, a.size).item()


def batch_norm(values: np.ndarray, kind: str, dim: int) -> np.ndarray:
    """Norms of a batch of values: shape (B,) if dim == 1, else (B, dim)."""
    if kind not in NORM_KINDS:
        raise ValidationError(f"unknown norm kind {kind!r}")
    a = np.asarray(values, dtype=float)
    if dim == 1:
        return np.abs(a)
    if kind == "abs_sum":
        return np.sum(np.abs(a), axis=-1)
    if kind == "maximum":
        return np.max(np.abs(a), axis=-1)
    return np.sqrt(np.sum(a * a, axis=-1))


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite law given by atoms and probabilities.

    Atoms are floats for scalar laws or tuples of floats for vector laws.
    """

    atoms: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise ValidationError("distribution needs at least one atom")
        if len(self.atoms) != len(self.probs):
            raise ValidationError("atoms and probs length mismatch")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValidationError("duplicate atoms")
        for p in self.probs:
            if not (0.0 < p <= 1.0):
                raise ValidationError(f"probability {p} outside (0, 1]")
        total = float(sum(self.probs))
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"probabilities sum to {total}, not 1")

    @property
    def size(self) -> int:
        return len(self.atoms)

    def values_array(self) -> np.ndarray:
        """Atom values as a float array (requires numeric atoms)."""
        return np.asarray(self.atoms, dtype=float)

    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


def rademacher() -> DiscreteDistribution:
    return DiscreteDistribution((-1.0, 1.0), (0.5, 0.5))


def uniform(m: int) -> DiscreteDistribution:
    """m equiprobable integer-spaced points centered at zero."""
    if m < 1:
        raise ValidationError("uniform() needs m >= 1")
    shift = (m - 1) / 2.0
    vals = tuple(float(i) - shift for i in range(m))
    return DiscreteDistribution(vals, (1.0 / m,) * m)

