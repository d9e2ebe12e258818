"""Scalar spectral weights and the boundary Fourier filter matrix.

Two weights appear.  ``g_weight`` is the smooth regularized square root

    G_h(sigma) = sqrt(sigma) chi1(sigma / h^{2/3}) + h^{1/3} chi2(sigma / h^{2/3})

with a C-infinity partition chi1^2 + chi2^2 = 1 built from the bump-integral
smooth step; it is used for the exact disc identities.  ``f_weight`` is the
simpler inverse weight actually used inside the tension,

    F_h(sigma) = 1 / max(sigma_+^{1/2}, h^{1/3}),

and ``build_filter_matrix`` realizes F_h(1 - h^2 Laplacian) on a boundary
grid by filtering Fourier coefficients in the arclength variable.

The symbol F_h(1 - xi^2) equals the constant h^{-1/3} wherever
1 - xi^2 <= h^{2/3}, so only the K ~ 0.96 kL/pi modes inside that support
(k = 1/h, L the perimeter) differ from a multiple of the identity.  The
filter is therefore kept as a :class:`LowRankFilter`, h^{-1/3} I plus a
rank-K correction, and applied with ``@`` in O(MKN) for an M x N block; the
M x M matrix is never formed (``.dense()`` forms it for tests).

The symbol depends on n only through xi^2, so it is even in n, and the
correction's kernel sum_n d_n e^{2 pi i n (s - s')/L} over n = -n_k..n_k is
real: d_0 + sum_{n>=1} 2 d_n cos(2 pi n (s - s')/L).  It is applied through
the real basis {1, sqrt2 cos(2 pi n s/L), sqrt2 sin(2 pi n s/L)}, n = 1..n_k,
which spans the same K directions as the complex exponentials with K real
columns instead of 2K.  The symbol is therefore computed on n = 0..n_k only,
and the cosine and sine column of each n share its value, so the filter is
real by construction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCurveError

# Gauss-Legendre rule for the bump integral; the integrand is C-infinity with
# all derivatives vanishing at the endpoints, so 200 nodes is far beyond
# machine precision for the accuracy this weight needs.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(200)


def _bump_integral(b):
    """integral_0^b exp(-1/(v(1-v))) dv for b in [0, 1], vectorized."""
    b = np.asarray(b, dtype=float)
    x = 0.5 * b[..., None] * (_GL_X + 1.0)
    w = 0.5 * b[..., None] * _GL_W
    v = x * (1.0 - x)
    f = np.where(v > 0, np.exp(-1.0 / np.where(v > 0, v, 1.0)), 0.0)
    return (w * f).sum(-1)


_BUMP_TOTAL = float(_bump_integral(1.0))


def smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, bump-integral in between."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.clip(u, 0.0, 1.0).copy()
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        out[mid] = _bump_integral(u[mid]) / _BUMP_TOTAL
    return float(out[0]) if scalar else out


def g_weight(sigma, h):
    """Smooth regularized square root G_h(sigma).

    Equals sqrt(sigma) for sigma >= 2 h^{2/3} and h^{1/3} for
    sigma <= h^{2/3} (in particular for all sigma <= 0).
    """
    if not 0 < h <= 1:
        raise InvalidCurveError("h must lie in (0, 1]")
    sigma = np.asarray(sigma, dtype=float)
    t = sigma / h ** (2.0 / 3.0)
    c1 = np.sin(0.5 * np.pi * smooth_step(t - 1.0))
    c2 = np.sqrt(np.maximum(0.0, 1.0 - c1 * c1))
    out = np.sqrt(np.maximum(sigma, 0.0)) * c1 + h ** (1.0 / 3.0) * c2
    return float(out) if out.ndim == 0 else out


def f_weight(sigma, h):
    """Inverse spectral weight 1 / max(sigma_+^{1/2}, h^{1/3}), in [1, h^{-1/3}]
    for sigma <= 1."""
    if not 0 < h <= 1:
        raise InvalidCurveError("h must lie in (0, 1]")
    sigma = np.asarray(sigma, dtype=float)
    out = 1.0 / np.maximum(np.sqrt(np.maximum(sigma, 0.0)), h ** (1.0 / 3.0))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LowRankFilter:
    """F_h(1 - h^2 Laplacian) on a boundary grid, kept in low-rank form.

    The symbol is the constant h^{-1/3} outside its support 1 - xi^2 > h^{2/3},
    so the filter is h^{-1/3} I plus a rank-K correction through the K real
    Fourier columns P = [1, sqrt2 cos(2 pi n s/L) for n = 1..n_k,
    sqrt2 sin(2 pi n s/L) for n = 1..n_k] of the support |n| <= n_k:

        F X = h^{-1/3} X + 1/2 (P(d o P^T (w/L o X)) + w/L o P(d o P^T X)),

    the symmetric part of h^{-1/3} I + P diag(d) P^T diag(w/L), with d the
    symbol minus h^{-1/3} on the columns of P: on n = 0..n_k followed by
    n = 1..n_k.  Both halves are needed because the analysis weights w/L are
    not uniform.
    """

    shift: float         # h^{-1/3}, the symbol off its support
    P: np.ndarray        # (M, K) real Fourier columns on the support
    d: np.ndarray        # (K,) symbol minus shift on the columns of P
    wL: np.ndarray       # (M,) analysis weights w_m / L

    def __matmul__(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return (self @ X[:, None])[:, 0]
        d = self.d[:, None]
        wL = self.wL[:, None]
        out = self.P @ (d * (self.P.T @ X))
        out *= wL
        out += self.P @ (d * (self.P.T @ (wL * X)))
        out *= 0.5
        out += self.shift * X
        return out

    def dense(self):
        """The M x M matrix, exactly symmetric; a test oracle."""
        K = (self.P * self.d) @ self.P.T
        F = K * self.wL[None, :] + self.shift * np.eye(len(self.wL))
        return 0.5 * (F + F.T)


def build_filter_matrix(grid, h):
    """The boundary filter F_h(1 - h^2 Laplacian) on the grid, as a
    :class:`LowRankFilter`.

    Low frequencies |n| <= M/4 are handled by projection onto the boundary
    Fourier basis (s the spectral arclength), everything above defaults to
    h^{-1/3} I.  Only the frequencies in the symbol's support
    1 - xi^2 > h^{2/3}, |n| <= n_k, differ from h^{-1/3}; the K = 2 n_k + 1
    real columns spanning them are kept, at a cost of O(MK).  The analysis
    weights are w_m / L.  Raises ``InvalidCurveError`` unless M is divisible
    by 4.
    """
    if grid.M % 4:
        raise InvalidCurveError("grid size must be divisible by 4")
    n = np.arange(grid.M // 4 + 1)
    sigma = 1.0 - (2 * np.pi * n * h / grid.L) ** 2
    shift = h ** (-1.0 / 3.0)
    # sigma falls with n, so the support is n <= n_k: K = 2 n_k + 1, or 0
    d = f_weight(sigma[sigma > h ** (2.0 / 3.0)], h) - shift
    d = np.concatenate([d, d[1:]])
    K = len(d)
    n_k = K // 2
    phase = (2 * np.pi / grid.L) * np.outer(grid.s, np.arange(1, n_k + 1))
    P = np.empty((grid.M, K))
    P[:, :1] = 1.0
    np.cos(phase, out=P[:, 1:n_k + 1])
    np.sin(phase, out=P[:, n_k + 1:])
    P[:, 1:] *= np.sqrt(2.0)
    return LowRankFilter(shift=shift, P=P, d=d, wL=grid.w / grid.L)
