"""Second-order polynomial regression -- PredictDDL's default regressor.

Sec. IV-B2: "we identify PR as an ideal regressor ... because of the added
benefit of including both the first and second powers of feature values."
The expansion includes first powers, squares and pairwise interaction
terms; ridge regularization keeps the expanded design well-conditioned
(embedding + cluster features expand to ~10^3 columns).
"""

from __future__ import annotations

import functools

import numpy as np

from .base import Regressor, StandardScaler, check_fitted

__all__ = ["polynomial_expand", "PolynomialRegression"]


def polynomial_expand(x: np.ndarray, degree: int = 2,
                      interactions: bool = True) -> np.ndarray:
    """Expand features with powers up to ``degree`` (and pairwise products).

    Vectorized: the interaction block is built from the upper-triangular
    index pairs in one einsum-free broadcast.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"X must be 2-d, got {x.shape}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    blocks = [x]
    for power in range(2, degree + 1):
        blocks.append(x ** power)
    if interactions and degree >= 2 and x.shape[1] > 1:
        iu, ju = _pair_indices(x.shape[1])
        blocks.append(x[:, iu] * x[:, ju])
    return np.hstack(blocks)


@functools.lru_cache(maxsize=16)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangular ``(i, j)`` column pairs, ``i < j < n``.

    Cached per width: building them costs more than the expansion of a
    single row, which is what every served prediction expands.
    """
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


class PolynomialRegression(Regressor):
    """Ridge regression on a degree-``degree`` polynomial expansion."""

    def __init__(self, degree: int = 2, alpha: float = 1e-3,
                 interactions: bool = True):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.degree = degree
        self.alpha = alpha
        self.interactions = interactions
        self._scaler = StandardScaler()
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self._phi_mean: np.ndarray | None = None

    def _features(self, x: np.ndarray, fit: bool) -> np.ndarray:
        scaled = (self._scaler.fit_transform(x) if fit
                  else self._scaler.transform(x))
        return polynomial_expand(scaled, self.degree, self.interactions)

    def fit(self, x, y) -> "PolynomialRegression":
        x, y = self._validate_xy(x, y)
        phi = self._features(x, fit=True)
        # Center the expanded columns so the (unpenalized) intercept
        # absorbs the constant component of squared/interaction terms.
        self._phi_mean = phi.mean(axis=0)
        phi = phi - self._phi_mean
        y_mean = y.mean()
        yc = y - y_mean
        gram = phi.T @ phi + self.alpha * np.eye(phi.shape[1])
        self.coef_ = np.linalg.solve(gram, phi.T @ yc)
        self.intercept_ = float(y_mean)
        self.fitted_ = True
        return self

    def predict(self, x) -> np.ndarray:
        check_fitted(self)
        phi = self._features(self._validate_x(x), fit=False)
        return (phi - self._phi_mean) @ self.coef_ + self.intercept_
