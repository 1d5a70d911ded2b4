"""Moment recovery from k-th order mixtures (binary spaces) and polynomial
entropy estimation.

The weight functional for the m-th moment on a size-k snapshot with c
labels of class 1 is C(c, m)/C(k, m) (zero when c < m). Its expectation
under the exact k-th order projection equals the mixture's m-th raw
moment E[p^m] exactly, and it is m-Lipschitz in the histogram bias, which
is what turns a Wasserstein calibration budget eps into the per-moment
error bound m*eps/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import EntropySpec, entropy_rows
from .errors import DimensionMismatch, DomainError, InvalidDistribution
from .mixture import Mixture, _lattice_counts
from .simplex import _snapshot_size, _whole_number, simplex_rows

MAX_FIT_DEGREE = 24
SUP_ERROR_GRID = 10**4


@dataclass(frozen=True)
class MomentVector:
    """Estimates (m_1, ..., m_k) of E[p^i], with the eps budget they carry.

    Raw moments of a [0, 1]-valued variable are non-increasing in the
    order; that is validated here since every legitimate producer
    satisfies it exactly.
    """

    k: int
    values: tuple
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "k", _snapshot_size(self.k))
        if not 0.0 <= self.eps < math.inf:
            raise DomainError(f"eps must be finite and non-negative, got {self.eps}")
        values = tuple(float(v) for v in self.values)
        if len(values) != self.k:
            raise InvalidDistribution(f"expected {self.k} moments, got {len(values)}")
        for i, v in enumerate(values):
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise InvalidDistribution(f"moment m_{i + 1} = {v} outside [0, 1]")
        for i in range(len(values) - 1):
            if values[i + 1] > values[i] + 1e-9:
                raise InvalidDistribution(
                    f"moments must be non-increasing: m_{i + 1} = {values[i]} < m_{i + 2} = {values[i + 1]}"
                )
        object.__setattr__(self, "values", values)

    def bound(self, i: int) -> float:
        """Error bound on m_i under the carried calibration budget."""
        return i * self.eps / 2.0


@dataclass(frozen=True)
class PolyApprox:
    """A degree-d polynomial fit of an entropy with measured certificates.

    sup_error is measured on a dense grid (never assumed from theory);
    coeff_bound is the largest coefficient magnitude.
    """

    degree: int
    coeffs: tuple
    sup_error: float
    coeff_bound: float


def _moment_ratio(c: int, k: int, m: int) -> float:
    """C(c, m)/C(k, m): exact integers, and int true division rounds once."""
    return math.comb(c, m) / math.comb(k, m)


def estimate_moments(kth: Mixture, k: int, eps: float) -> MomentVector:
    """Moments of the underlying mixture read off a k-th order mixture.

    `kth` must be supported on the k-snapshot lattice. Each m_i carries
    the bound i*eps/2 against the true E[p^i] whenever kth is within
    Wasserstein distance eps of the exact projection.
    """
    if kth.space.num_labels != 2:
        raise DimensionMismatch("moment recovery is defined for binary spaces")
    k = _snapshot_size(k)
    ones = _lattice_counts(kth.points_array(), k)[:, 1].tolist()
    weights = kth.weights_array()
    values = []
    for m in range(1, k + 1):
        ratios = np.array([_moment_ratio(c, k, m) for c in ones])
        values.append(float(weights @ ratios))
    return MomentVector(k=k, values=tuple(values), eps=eps)


def central_moment(mv: MomentVector, j: int) -> tuple:
    """(c_j, error bound): the j-th central moment from raw moments.

    c_j = sum_{i=0}^{j} C(j, i) m_i (-m_1)^{j-i} with m_0 = 1; the bound
    is j * eps * (1 + m_1)^j / 2.
    """
    j = _whole_number(j, "moment order")
    if not 1 <= j <= mv.k:
        raise DomainError(f"need 1 <= j <= {mv.k}, got {j}")
    m1 = mv.values[0]
    total = (-m1) ** j
    for i in range(1, j + 1):
        total += math.comb(j, i) * mv.values[i - 1] * (-m1) ** (j - i)
    bound = j * mv.eps * (1.0 + m1) ** j / 2.0
    return float(total), bound


def chebyshev_fit(g: EntropySpec, d: int) -> PolyApprox:
    """Degree-d polynomial fit of G along the binary bias coordinate.

    Interpolates at Chebyshev points of the first kind mapped to [0, 1]
    (these avoid the endpoints, so Shannon needs no special casing) and
    converts to monomial coefficients. The sup error is then measured on
    a 10^4-point grid that does include the endpoints.
    """
    d = _whole_number(d, "degree")
    if not 1 <= d <= MAX_FIT_DEGREE:
        raise DomainError(f"degree must lie in [1, {MAX_FIT_DEGREE}], got {d}")

    def f(x):  # G along the bias coordinate
        x = np.atleast_1d(x)
        return entropy_rows(g, simplex_rows(np.column_stack([1.0 - x, x])))

    cheb = np.polynomial.chebyshev.Chebyshev.interpolate(f, d, domain=[0.0, 1.0])
    poly = cheb.convert(kind=np.polynomial.polynomial.Polynomial)
    coeffs = tuple(float(c) for c in poly.coef)
    grid = np.linspace(0.0, 1.0, SUP_ERROR_GRID)
    sup_error = float(
        np.abs(f(grid) - np.polynomial.polynomial.polyval(grid, np.asarray(coeffs))).max()
    )
    return PolyApprox(
        degree=d,
        coeffs=coeffs,
        sup_error=sup_error,
        coeff_bound=float(max(abs(c) for c in coeffs)),
    )


def poly_au_estimate(pa: PolyApprox, mv: MomentVector) -> tuple:
    """(estimate, bound) for the average entropy E[G(p)] from moments.

    The estimate is beta_0 + sum_i beta_i m_i; the bound combines the
    measured sup error with the moment budget: alpha + d^2 * eps * B / 2.
    """
    if pa.degree > mv.k:
        raise DomainError(
            f"degree {pa.degree} fit needs {pa.degree} moments, only {mv.k} available"
        )
    estimate = pa.coeffs[0] if pa.coeffs else 0.0
    for i in range(1, len(pa.coeffs)):
        estimate += pa.coeffs[i] * mv.values[i - 1]
    bound = pa.sup_error + pa.degree**2 * mv.eps * pa.coeff_bound / 2.0
    return float(estimate), float(bound)