"""Star-shaped planar boundary curves and their discrete geometry.

A curve is given by a positive 2pi-periodic radius function r(theta); the
boundary is x(t) = (r(t) cos t, r(t) sin t), traversed counterclockwise.
Every radius formula used here is entire, so r and r' can be evaluated at
complex parameter values, which is how the exterior charge curve is produced.

Normals point outward.  The tension functional only uses norms of the
normal derivative, but Green's identity behind the interior-norm matrix
(``assembly``) needs the outward normal: an inward one flips its sign.

Arclength at the nodes comes from the spectrally integrated speed, one FFT
and one inverse FFT, so it costs O(M log M).

A curve with r even in theta is symmetric under y -> -y, and then node m
and charge n mirror node M - m and charge N - n (indices mod M and N).  The
orthonormal columns e_0, e_{N/2} (N even) and (e_n + e_{N-n})/sqrt2 span
the even class, (e_n - e_{N-n})/sqrt2 the odd one; ``mirror_fold`` and
``mirror_unfold`` apply this basis S by slices.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalError

_VALIDATION_SAMPLES = 4096
_SQRT_HALF = np.sqrt(0.5)


class RadialCurve:
    """Boundary radius r(theta), either the cosine-wobble formula or a
    finite trigonometric series.

    Use the constructors :meth:`radial`, :meth:`trig` or :meth:`circle`.
    """

    __slots__ = ("kind", "_params")

    def __init__(self, kind, params):
        self.kind = kind
        self._params = params
        self._validate()

    # -- constructors -------------------------------------------------------

    @classmethod
    def radial(cls, a0, eps, k, b):
        """r(theta) = a0 + eps*cos(k*(theta + b*sin(theta))), k a positive int."""
        k = int(k)
        if k < 1:
            raise DomainError("k must be a positive integer")
        return cls("radial", (float(a0), float(eps), k, float(b)))

    @classmethod
    def trig(cls, cos_coeffs, sin_coeffs=()):
        """r(theta) = sum_j c_j cos(j theta) + sum_j d_j sin(j theta).

        ``cos_coeffs[0]`` is the constant term; ``sin_coeffs[j-1]`` multiplies
        sin(j theta).
        """
        c = np.atleast_1d(np.asarray(cos_coeffs, dtype=float))
        d = np.atleast_1d(np.asarray(sin_coeffs, dtype=float)) if len(sin_coeffs) else np.zeros(0)
        if c.size == 0:
            raise DomainError("need at least the constant cosine coefficient")
        return cls("trig", (c, d))

    @classmethod
    def circle(cls, radius=1.0):
        return cls.trig([float(radius)])

    @property
    def symmetric(self):
        """Whether r is even in theta, so that the domain is symmetric under
        y -> -y: every ``radial`` curve, and ``trig`` curves without sine
        terms."""
        return self.kind == "radial" or not np.any(self._params[1])

    # -- evaluation ----------------------------------------------------------

    def radius(self, theta):
        """r(theta); theta may be real or complex, scalar or array."""
        theta = np.asarray(theta)
        if self.kind == "radial":
            a0, eps, k, b = self._params
            return a0 + eps * np.cos(k * (theta + b * np.sin(theta)))
        c, d = self._params
        out = np.zeros_like(theta, dtype=np.result_type(theta, float))
        for j, cj in enumerate(c):
            out = out + cj * np.cos(j * theta)
        for j, dj in enumerate(d, start=1):
            out = out + dj * np.sin(j * theta)
        return out

    def radius_deriv(self, theta):
        """dr/dtheta, same domain as :meth:`radius`."""
        theta = np.asarray(theta)
        if self.kind == "radial":
            a0, eps, k, b = self._params
            return -eps * np.sin(k * (theta + b * np.sin(theta))) * k * (1.0 + b * np.cos(theta))
        c, d = self._params
        out = np.zeros_like(theta, dtype=np.result_type(theta, float))
        for j, cj in enumerate(c):
            if j:
                out = out - cj * j * np.sin(j * theta)
        for j, dj in enumerate(d, start=1):
            out = out + dj * j * np.cos(j * theta)
        return out

    def position(self, t):
        """Boundary point as a complex number r(t) e^{it}."""
        return self.radius(t) * np.exp(1j * np.asarray(t, dtype=complex))

    def velocity(self, t):
        """d/dt of :meth:`position`."""
        t = np.asarray(t)
        return (self.radius_deriv(t) + 1j * self.radius(t)) * np.exp(1j * t)

    # -- internals -----------------------------------------------------------

    def _validate(self):
        th = 2 * np.pi * np.arange(_VALIDATION_SAMPLES) / _VALIDATION_SAMPLES
        r = self.radius(th)
        if not np.all(np.isfinite(r)) or np.min(r) <= 0.0:
            raise DomainError(
                f"radius must be positive; min sampled value {np.min(r):g}"
            )

    def __repr__(self):
        if self.kind == "radial":
            a0, eps, k, b = self._params
            return f"RadialCurve.radial(a0={a0}, eps={eps}, k={k}, b={b})"
        c, d = self._params
        return f"RadialCurve.trig({c.tolist()}, {d.tolist()})"


@dataclass(frozen=True)
class BoundaryGrid:
    """Periodic-trapezoid discretization of a boundary curve.

    Weights are w_m = 2pi |x'(t_m)| / M, so sum(w) reproduces the perimeter.
    ``s`` holds the spectrally computed arclength at the nodes.
    """

    M: int
    x: np.ndarray        # (M, 2) node coordinates
    w: np.ndarray        # quadrature weights (length units)
    nrm: np.ndarray      # (M, 2) outward unit normals
    tng: np.ndarray      # (M, 2) unit tangents, counterclockwise
    s: np.ndarray        # arclength at the nodes, s[0] = 0
    L: float             # perimeter


@dataclass(frozen=True)
class ChargeSet:
    """Exterior source points obtained by an imaginary shift of the
    boundary parametrization."""

    N: int
    y: np.ndarray        # (N, 2), all strictly exterior


@dataclass(frozen=True)
class InteriorGrid:
    """Rectangular raster over the curve's bounding box, masked to the interior."""

    xs: np.ndarray       # (nx,) grid abscissae
    ys: np.ndarray       # (nx,) grid ordinates
    inside: np.ndarray   # (nx, nx) bool, indexed [iy, ix]

    @cached_property
    def indices(self):
        """(K, 2) integer (ix, iy) pairs of the interior points, row-major
        over (iy, ix); formed once per grid and read-only, like
        :attr:`points`."""
        iy, ix = np.nonzero(self.inside)
        return _read_only(np.stack([ix, iy], axis=1))

    @cached_property
    def points(self):
        """(K, 2) interior points matching :attr:`indices`."""
        ix, iy = self.indices.T
        return _read_only(np.stack([self.xs[ix], self.ys[iy]], axis=1))


def _read_only(a):
    """``a``, no longer writable: a cached array is shared by every caller."""
    a.flags.writeable = False
    return a


def arclength_spectral(curve, M):
    """Arclength at the M grid nodes by integrating the trigonometric
    interpolant of the speed samples.

    The zero Fourier mode integrates to the linear term (L/2pi) t; each
    nonzero mode n contributes g_n (e^{i n t} - 1) with g_n = c_n/(i n).  The
    Nyquist mode integrates to zero at the nodes and is dropped.  The sum
    over n at all nodes is one inverse FFT, so the cost is O(M log M).
    Returns (s, L).
    """
    if M % 2:
        raise DomainError("M must be even")
    t = 2 * np.pi * np.arange(M) / M
    speed = np.abs(curve.velocity(t))
    c = np.fft.fft(speed) / M
    L = 2 * np.pi * c[0].real
    n = np.fft.fftfreq(M, d=1.0 / M)
    keep = (n != 0) & (np.abs(n) != M // 2)
    g = np.zeros(M, dtype=complex)
    g[keep] = c[keep] / (1j * n[keep])
    s = c[0].real * t + (M * np.fft.ifft(g) - g.sum()).real
    return s, L


def build_grid(curve, M):
    """Periodic trapezoid grid with nodes x(2pi m / M), m = 0..M-1."""
    M = int(M)
    if M < 8 or M % 2:
        raise DomainError("M must be an even integer >= 8")
    t = 2 * np.pi * np.arange(M) / M
    if np.min(curve.radius(t)) <= 0:
        raise DomainError("non-positive radius sample")
    z = curve.position(t)
    zp = curve.velocity(t)
    speed = np.abs(zp)
    w = 2 * np.pi * speed / M
    tng_c = zp / speed
    nrm_c = -1j * tng_c          # rotate tangent by -pi/2: outward for ccw
    s, L = arclength_spectral(curve, M)
    as_xy = lambda v: np.stack([v.real, v.imag], axis=1)
    return BoundaryGrid(M=M, x=as_xy(z), w=w, nrm=as_xy(nrm_c),
                        tng=as_xy(tng_c), s=s, L=L)


def charge_points(curve, N, tau):
    """Source points y_n = x(2pi(n/N - i tau)), n = 0..N-1.

    ``tau`` is quoted in turns of the boundary parameter: the complex
    parameter shift is 2pi*tau, so on the unit circle the points sit at
    radius e^{2pi tau}.  Every point is checked to be strictly exterior.
    """
    N = int(N)
    if N < 1:
        raise DomainError("N must be positive")
    if not tau > 0:
        raise DomainError("tau must be positive")
    theta = 2 * np.pi * (np.arange(N) / N - 1j * tau)
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow for absurd tau is caught by the finiteness check below
        z = curve.position(theta)
    y = np.stack([z.real, z.imag], axis=1)
    with np.errstate(invalid="ignore"):
        # strictly outside, so a point on the boundary fails too; a nan
        # point fails the comparison, an infinite one the finiteness test
        exterior = np.hypot(y[:, 0], y[:, 1]) > curve.radius(
            np.arctan2(y[:, 1], y[:, 0]))
    bad = np.flatnonzero(~(exterior & np.isfinite(y).all(axis=1)))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(f"charge point {i} at {tuple(map(float, y[i]))} "
                             "is not strictly exterior")
    return ChargeSet(N=N, y=y)


def mirror_fold(X, parity):
    """S^T X S: the paired rows and columns of X (i <-> n - i along an axis
    of length n) combined into the class of ``parity``, entry by entry:
    (X_ab + X_a'b' +- X_ab' +- X_a'b) / 2 on pairs, a sum over one pair
    over sqrt2 on a self-paired row or column.  Parity 0 returns X itself.
    """
    if not parity:
        return X
    (lo, hi, own), (lo_c, hi_c, own_c) = _pairs(len(X)), _pairs(X.shape[1])
    if parity < 0:
        return (X[lo, lo_c] + X[hi, hi_c] - X[lo, hi_c] - X[hi, lo_c]) / 2
    pairs = (X[lo, lo_c] + X[hi, hi_c] + X[lo, hi_c] + X[hi, lo_c]) / 2
    rows = (X[own, lo_c] + X[own, hi_c]) * _SQRT_HALF
    cols = (X[lo, own_c] + X[hi, own_c]) * _SQRT_HALF
    return np.block([[X[own][:, own_c], rows], [cols, pairs]])


def _pairs(n):
    """Slices of indices 1..h and of their mirrors n-1..n-h, and the list of
    the self-paired 0 and, for even n, n/2."""
    h = (n - 1) // 2
    own = [0, n // 2] if n % 2 == 0 else [0]
    return slice(1, h + 1), slice(None, n - h - 1, -1), own


def mirror_unfold(Y, n, parity):
    """S Y: class coefficients, the rows of Y, over all n indices.  Parity 0
    returns Y itself."""
    if not parity:
        return Y
    lo, hi, own = _pairs(n)
    X = np.zeros((n,) + Y.shape[1:])
    if parity > 0:
        X[own], Y = Y[:len(own)], Y[len(own):]
    X[lo] = Y * _SQRT_HALF
    X[hi] = X[lo] if parity > 0 else -X[lo]
    return X


def contains(curve, p):
    """Whether the points p, an array of shape (..., 2), lie strictly inside
    the curve: a bool array of shape p.shape[:-1], or one bool for one
    point."""
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    inside = np.hypot(x, y) < curve.radius(np.arctan2(y, x))
    return bool(inside) if inside.ndim == 0 else inside


def interior_grid(curve, nx):
    """nx-by-nx uniform raster over the boundary's bounding box, masked by
    :func:`contains`.  Boundary nodes are extremal for star-shaped curves, so
    the box is the min/max of 1024 nodes with no padding."""
    nx = int(nx)
    if nx < 2:
        raise DomainError("nx must be >= 2")
    t = 2 * np.pi * np.arange(1024) / 1024
    z = curve.position(t)
    xs = np.linspace(z.real.min(), z.real.max(), nx)
    ys = np.linspace(z.imag.min(), z.imag.max(), nx)
    inside = contains(curve, np.stack(np.meshgrid(xs, ys), axis=-1))
    return InteriorGrid(xs=xs, ys=ys, inside=inside)


def area(curve):
    """Enclosed area, (1/2) integral of r^2 by the 2048-point periodic
    trapezoid rule."""
    th = 2 * np.pi * np.arange(2048) / 2048
    r = curve.radius(th)
    return 0.5 * np.mean(r * r) * 2 * np.pi
