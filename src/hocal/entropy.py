"""Generalized entropies, their proper losses, and Bregman divergences.

A concave function G on the simplex induces the proper loss
L<p||q> = G(q) + grad G(q) . (p - q) and the divergence D = L - G.
Four families are built in: Shannon (KL divergence), Brier (squared
distance; optionally the 4p(1-p) binary normalization), the exponential
family G_t(p) = -exp(t . p) used as a moment-generating diagnostic, and
user-supplied concave polynomials in the binary bias coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError

CONCAVITY_GRID_STEP = 1e-3


@dataclass(frozen=True)
class EntropySpec:
    """Which entropy family to use, with its parameters.

    kind is one of "shannon" (finite log_base > 1), "brier" (binary_scaled
    picks 4p(1-p) on binary spaces), "exponential" (t a vector with entries
    in [-1, 1]), or "polynomial" (finite monomial coeffs in the bias
    coordinate, binary spaces only, concave on [0, 1]).
    """

    kind: str
    log_base: float = 2.0
    binary_scaled: bool = False
    t: tuple = ()
    coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in ("shannon", "brier", "exponential", "polynomial"):
            raise DomainError(f"unknown entropy kind {self.kind!r}")
        if self.kind == "shannon" and not 1.0 < self.log_base < math.inf:
            raise DomainError(f"log base must be finite and exceed 1, got {self.log_base}")
        if self.kind == "exponential":
            t = tuple(float(x) for x in self.t)
            if not t:
                raise DomainError("exponential entropy needs a t vector")
            if not all(abs(x) <= 1.0 for x in t):
                raise DomainError(f"t entries must lie in [-1, 1], got {t}")
            object.__setattr__(self, "t", t)
        if self.kind == "polynomial":
            coeffs = tuple(float(c) for c in self.coeffs)
            if not coeffs:
                raise DomainError("polynomial entropy needs coefficients")
            if not all(map(math.isfinite, coeffs)):
                raise DomainError(f"polynomial coefficients must be finite, got {coeffs}")
            object.__setattr__(self, "coeffs", coeffs)
            xs = np.arange(0.0, 1.0 + CONCAVITY_GRID_STEP / 2, CONCAVITY_GRID_STEP)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = np.polynomial.polynomial.polyval(xs, np.asarray(coeffs))
                second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            if not np.isfinite(vals).all():
                raise DomainError(f"polynomial {coeffs} is not finite on [0, 1]")
            if not second.max() <= 1e-12:
                raise DomainError("polynomial is not concave on [0, 1]")

    # -- constructors ---------------------------------------------------

    @classmethod
    def shannon(cls, log_base: float = 2.0) -> "EntropySpec":
        return cls(kind="shannon", log_base=log_base)

    @classmethod
    def brier(cls, binary_scaled: bool = False) -> "EntropySpec":
        return cls(kind="brier", binary_scaled=binary_scaled)

    @classmethod
    def exponential(cls, t) -> "EntropySpec":
        return cls(kind="exponential", t=tuple(t))

    @classmethod
    def polynomial(cls, coeffs) -> "EntropySpec":
        return cls(kind="polynomial", coeffs=tuple(coeffs))

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        payload = {"kind": self.kind}
        if self.kind == "shannon":
            payload["log_base"] = self.log_base
        elif self.kind == "brier":
            payload["binary_scaled"] = self.binary_scaled
        elif self.kind == "exponential":
            payload["t"] = list(self.t)
        else:
            payload["coeffs"] = list(self.coeffs)
        return payload


def _check_labels(g: EntropySpec, num_labels: int):
    if g.kind == "exponential" and len(g.t) != num_labels:
        raise DimensionMismatch(f"t has {len(g.t)} entries for a {num_labels}-label point")
    if g.kind == "polynomial" and num_labels != 2:
        raise DimensionMismatch(f"{g.kind} entropy with these parameters needs a binary space")


def _rows(*arrays) -> list:
    """Point arrays as C-ordered (n, l) float rows broadcast to one shape; a
    single row stands for all of them."""
    rows = [np.ascontiguousarray(np.atleast_2d(a), dtype=float) for a in arrays]
    if len({r.shape[1] for r in rows}) > 1:
        raise DimensionMismatch(f"{rows[0].shape[1]}-label point vs {rows[1].shape[1]}-label point")
    return np.broadcast_arrays(*rows)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for every row, each by one BLAS dot as a 1-d `@` computes it."""
    a, b = (np.ascontiguousarray(x) for x in np.broadcast_arrays(a, b))
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _kept_sums(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Row sums of terms over keep, each as numpy sums that row's kept entries
    on their own: numpy's pairwise summation depends on how many there are,
    so rows are summed in groups of equal count."""
    counts = keep.sum(axis=1)
    sums = np.empty(len(terms))
    for c in np.flatnonzero(np.bincount(counts)).tolist():  # the distinct counts
        rows = counts == c
        sums[rows] = terms[rows][keep[rows]].reshape(-1, c).sum(axis=1)
    return sums


def _shannon_pairs(g: EntropySpec, p: np.ndarray, q: np.ndarray, loss: bool) -> np.ndarray:
    """Shannon L<p||q> (loss) or D<p||q> row by row; inf where q lacks mass p has."""
    pos = p > 0.0
    log_q = np.log(np.where(pos & (q > 0.0), q, 1.0))
    if loss:
        sums = -_kept_sums(p * log_q, pos)
    else:
        sums = _kept_sums(p * (np.log(np.where(pos, p, 1.0)) - log_q), pos)
    return np.where((pos & (q <= 0.0)).any(axis=1), math.inf, sums / math.log(g.log_base))


def entropy_rows(g: EntropySpec, points) -> np.ndarray:
    """G(p) for every row of an (n, l) array, with 0*log(0) = 0 for Shannon."""
    (p,) = _rows(points)
    _check_labels(g, p.shape[1])
    if g.kind == "shannon":
        pos = p > 0.0
        return -_kept_sums(p * np.log(np.where(pos, p, 1.0)), pos) / math.log(g.log_base)
    if g.kind == "brier":
        if g.binary_scaled and p.shape[1] == 2:
            return 4.0 * p[:, 0] * p[:, 1]
        return 1.0 - (p**2).sum(axis=1)
    if g.kind == "exponential":
        return -np.exp(_row_dot(p, np.asarray(g.t)))
    return np.polynomial.polynomial.polyval(p[:, 1], np.asarray(g.coeffs))


def gradient_rows(g: EntropySpec, points) -> np.ndarray:
    """A gradient of G at every row (unique up to a shift along all-ones)."""
    (p,) = _rows(points)
    _check_labels(g, p.shape[1])
    if g.kind == "shannon":
        if (p <= 0.0).any():
            raise DomainError("Shannon gradient needs strictly positive coordinates")
        return -(np.log(p) + 1.0) / math.log(g.log_base)
    if g.kind == "brier":
        if g.binary_scaled and p.shape[1] == 2:
            return 4.0 * p[:, ::-1]
        return -2.0 * p
    if g.kind == "exponential":
        t = np.asarray(g.t)
        return -t * np.exp(_row_dot(p, t))[:, None]
    deriv = np.polynomial.polynomial.polyder(np.asarray(g.coeffs))
    return np.column_stack([np.zeros(len(p)), np.polynomial.polynomial.polyval(p[:, 1], deriv)])


def loss_rows(g: EntropySpec, p_true, q) -> np.ndarray:
    """L<p||q> = G(q) + grad G(q) . (p - q) row by row; a single row of
    either side stands for all. Shannon gives inf where q lacks mass p has."""
    p, q = _rows(p_true, q)
    if g.kind == "shannon":
        return _shannon_pairs(g, p, q, loss=True)
    return entropy_rows(g, q) + _row_dot(gradient_rows(g, q), p - q)


def divergence_rows(g: EntropySpec, p_rows, q_rows) -> np.ndarray:
    """D<p||q> = L<p||q> - G(p) row by row, as `loss_rows` pairs them."""
    p, q = _rows(p_rows, q_rows)
    if g.kind == "shannon":
        return _shannon_pairs(g, p, q, loss=False)
    if g.kind == "brier":
        if g.binary_scaled and p.shape[1] == 2:
            d = p[:, 1] - q[:, 1]
            return 4.0 * (d * d)
        return ((p - q) ** 2).sum(axis=1)
    return loss_rows(g, p, q) - entropy_rows(g, p)


def shannon_modulus_bound(x: float) -> float:
    """(4x)^(1/ln 4): a concave upper envelope for binary Shannon entropy in nats.

    Useful for sizing snapshot depth against a target estimation error.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"argument must lie in [0, 1], got {x}")
    return (4.0 * x) ** (1.0 / math.log(4.0))