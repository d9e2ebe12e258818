"""Assembly of the boundary matrices at a fixed energy.

Basis functions are point sources phi_n(x) = Y0(sqrt(E) |x - y_n|) with the
charges y_n strictly exterior.  ``SystemBuilder.traces`` builds four weighted
trace matrices (values, normal derivative, tangential derivative, dilation
derivative), all with rows scaled by sqrt(w_m) so that Euclidean norms
approximate boundary L2 norms.  ``SystemBuilder.system`` reduces them to what
the tensions read: the filtered normal derivative A_w = F A_nor, the
unfiltered A_nor for the classical tension, and the interior-norm factor B.

On a curve symmetric under y -> -y the problem splits into an even and an
odd class (``geometry``).  The split comes after assembly: the traces, A_w
and H are formed whole, and ``sqrt_factor`` and ``min_tension`` slice each
class's blocks from them.  Assembling on half the nodes and charges would
change the rounding of A_w, which moves the benchmark's lobe-scan tensions
by about its 1e-8 check.  The ``mode`` raster uses the mirror for any
coefficients, without the classes: ``raster_sum`` evaluates one half of a
symmetric raster and takes the other from the same Y0 blocks.

The interior L2 norm of an E-Helmholtz function is evaluated on the boundary
through the Rellich-type identity

    2E ||u||^2_{L2(Omega)} =
        integral over the boundary of
            (x.n) (E u^2 - (d_n u)^2 - (d_t u)^2) + 2 (x.grad u)(d_n u) ds,

with n the outward normal.  (Note the minus sign on (d_n u)^2: with the full
gradient in the cross term this is the form that matches independent 2-D
quadrature; the terms differing from the commonly quoted
"+ (d_n u)^2" variant cancel on Neumann data, which is why both look right
near eigenvalues.)  The quadratic form is H; its truncated eigendecomposition
provides the square-root factor B with B^T B ~= H, keeping the eigenpairs
with lambda_j >= EPS_H * lambda_1 (EPS_H = 1e-12).  The form is used only on
domains star-shaped about the origin, where the boundary weight x.n is
positive (true of every ``RadialCurve``); ``interior_norm_matrix`` checks it
at every node.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import (DegenerateNormError, DomainError, InvalidCurveError,
                     SingularKernelError)
from .geometry import build_grid, charge_points, mirror_fold, mirror_unfold
from .special import bessel_y0, bessel_y1, kernel_threads
from .weights import build_filter_matrix

EPS_H = 1e-12


@dataclass(frozen=True)
class TensionSystem:
    """The matrices the tensions read at one energy."""

    A_w: np.ndarray      # F @ A_nor, the filtered normal derivative
    A_nor: np.ndarray
    B: np.ndarray        # B^T B ~= H, the interior-norm form
    basis: tuple         # sqrt_factor's (parity, V, D) per class


def interior_norm_matrix(grid, A_val, A_nor, A_tan, A_dil, E):
    """Quadratic form H with alpha^T H alpha ~= ||u||^2_{L2(Omega)} for
    u = sum alpha_n phi_n.  Valid because every basis column solves the
    Helmholtz equation at energy E inside the domain, which must be
    star-shaped about the origin: x.n > 0 at every node, else
    ``InvalidCurveError``."""
    xn = np.einsum("md,md->m", grid.x, grid.nrm)
    if not np.all(xn > 0):
        raise InvalidCurveError("the Rellich form needs x.n > 0 at every "
                                "boundary node (star-shaped about the origin)")
    xn = xn[:, None]
    X = A_dil.T @ A_nor
    H = (E * (A_val * xn).T @ A_val
         - (A_nor * xn).T @ A_nor
         - (A_tan * xn).T @ A_tan
         + X + X.T) / (2.0 * E)
    return 0.5 * (H + H.T)


def sqrt_factor(H, classes=(0,)):
    """Truncated square root of a symmetric matrix, per reflection class
    (the default is one class, the whole matrix).

    Eigenpairs of each class's block S^T H S (``mirror_fold``) with lambda <
    EPS_H * lambda_1, lambda_1 the largest of all, are dropped (H is formally
    positive but assembled in floating point), and so is a class that keeps
    none.  Returns (B, rank, basis): B = sqrt(Lambda) V^T S^T on the kept
    pairs, class by class, largest first, so B^T B ~= H; its row count; and
    ``min_tension``'s rotation, one (parity, V, D) per kept class: V every
    eigenvector of the block in ascending order, the dropped before the kept,
    and D = diag(sqrt(lambda)) of the kept.
    """
    eig = [np.linalg.eigh(mirror_fold(H, parity)) for parity in classes]
    top = max(lam[-1] for lam, _ in eig)
    if top <= 0:
        raise DegenerateNormError("interior-norm matrix has no positive eigenvalue")
    columns, basis = [], []
    for parity, (lam, V) in zip(classes, eig):
        rank = int((lam >= EPS_H * top).sum())
        if rank:
            root = np.sqrt(lam[-rank:])
            columns.append(mirror_unfold(V[:, -rank:][:, ::-1] * root[::-1],
                                         len(H), parity))
            basis.append((parity, V, np.diag(root)))
    B = np.hstack(columns).T
    return B, len(B), tuple(basis)


def point_source_sum(charges, alpha, E, points):
    """u(p) = sum_n alpha_n Y0(sqrt(E) |p - y_n|) at interior points: shape
    (K,) for ``alpha`` of shape (N,), or (K, c) for c coefficient columns
    (N, c), all from the same Y0 blocks.

    A pipeline over blocks of 65536 // N rows (gemv rounding depends on the
    row count, so the blocks keep this size).  :func:`kernel_threads`
    workers fill a ring of 2 x threads slots, allocated here once, with a
    block's ``special.bessel_y0(k * sqrt(dx*dx + dy*dy))`` formed in place.
    The caller takes the blocks in order, forms ``Y @ alpha`` and hands the
    slot on, so only that gemv runs beside the core OpenBLAS spins on after
    each call.  Memory is the ring's, 4 MB at two threads for any raster
    (arrays made on the workers would grow glibc's per-thread arenas).  One
    thread fills the blocks inline and starts none.  A point on a charge
    raises the worker's ``DomainError``."""
    k = np.sqrt(E)
    points = np.asarray(points, dtype=float)
    out = np.empty((len(points), *alpha.shape[1:]))
    block = max(1, 65536 // max(charges.N, 1))
    starts = range(0, len(points), block)
    threads = min(kernel_threads(), len(starts))
    ring = np.empty((2 * threads, 2, block, charges.N))

    def fill(i):
        p = points[starts[i]:starts[i] + block]
        dx, dy = ring[i % len(ring), :, :len(p)]
        np.subtract(p[:, :1], charges.y[:, 0], out=dx)
        np.subtract(p[:, 1:], charges.y[:, 1], out=dy)
        np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
        np.multiply(np.sqrt(dx, out=dx), k, out=dx)
        # not this module's bessel_y0: a tracer may wrap it for one thread
        return special.bessel_y0(dx, out=dx)

    if threads <= 1:
        for i, lo in enumerate(starts):
            out[lo:lo + block] = fill(i) @ alpha
        return out
    with ThreadPoolExecutor(threads) as pool:
        jobs = [pool.submit(fill, i)
                for i in range(min(len(ring), len(starts)))]
        for i, lo in enumerate(starts):
            out[lo:lo + block] = jobs[i].result() @ alpha
            if i + len(ring) < len(starts):
                jobs.append(pool.submit(fill, i + len(ring)))
    return out


def raster_sum(builder, alpha, E, grid):
    """``point_source_sum`` of ``builder``'s charges at the points of
    ``grid``, an ``interior_grid`` of the builder's curve, in the order of
    ``grid.indices``.

    With one class it is exactly that call.  With two, the curve and the
    charges are symmetric under y -> -y, charge N - n mirroring charge n, so
    for any alpha the mirror image (x, -y) of a point takes
    sum_n alpha_{-n mod N} Y0(sqrt(E) |p - y_n|), the point's own Y0 block
    times ``alpha[mirror]``.  Raster row iy mirrors row ny - 1 - iy: only
    the rows with 2 iy >= ny - 1, and each point whose twin lies outside the
    mask, are evaluated, against the two columns [alpha, alpha[mirror]], and
    every other point takes its twin's second column.  That halves the Y0
    values.  The raster and the charges mirror only to rounding, so the
    result is not the whole-raster sum bit for bit.  The two differ by
    3e-15 to 5e-15 of max_p sum_n |alpha_n Y0|, the order of the sum's own
    rounding: 9.3e-14 max|u| on the three-lobe ``mode`` at M=700,
    tau=0.025, nx=301 (|alpha| = 31), but 1.4e-10 max|u| at M=256,
    tau=0.05, sqrtE=10.3, nx=61, where |alpha| = 7.5e4 cancels."""
    if builder.classes == (0,):
        return point_source_sum(builder.charges, alpha, E, grid.points)
    ix, iy = grid.indices.T
    twin = len(grid.ys) - 1 - iy
    direct = (iy >= twin) | ~grid.inside[twin, ix]
    # where each directly evaluated point sits among them, by raster cell
    row = np.zeros(grid.inside.shape, dtype=np.intp)
    row[iy[direct], ix[direct]] = np.arange(np.count_nonzero(direct))
    mirror = -np.arange(builder.charges.N) % builder.charges.N
    pair = point_source_sum(builder.charges,
                            np.stack([alpha, alpha[mirror]], axis=1), E,
                            grid.points[direct])
    u = np.empty(len(ix))
    u[direct] = pair[:, 0]
    u[~direct] = pair[row[twin[~direct], ix[~direct]], 1]
    return u


class SystemBuilder:
    """Caches the energy-independent geometry so that assembling systems at
    many energies (a sweep, a minimum search) costs only the Bessel
    evaluations, the filter product, and the dense linear algebra."""

    def __init__(self, curve, M, N, tau):
        if M % 4:
            raise InvalidCurveError("M must be divisible by 4")
        if N > M:
            raise InvalidCurveError("N must not exceed M")
        self.grid = build_grid(curve, M)
        self.charges = charge_points(curve, N, tau)
        # parities of the classes; with N <= 2 every charge is its own mirror
        self.classes = (1, -1) if curve.symmetric and N > 2 else (0,)
        dx = self.grid.x[:, :1] - self.charges.y[:, 0]
        dy = self.grid.x[:, 1:] - self.charges.y[:, 1]
        self._dist = np.sqrt(dx * dx + dy * dy)
        if self._dist.min() < 1e-12:
            raise SingularKernelError("a node and a charge nearly coincide")
        inv = 1.0 / self._dist

        def proj(v):
            # (x_m - y_n) . v_m / |x_m - y_n|
            return (dx * v[:, :1] + dy * v[:, 1:]) * inv

        self._proj_nor = proj(self.grid.nrm)
        self._proj_tan = proj(self.grid.tng)
        self._proj_dil = proj(self.grid.x)
        self._sw = np.sqrt(self.grid.w)[:, None]

    def traces(self, E):
        """Weighted traces (A_val, A_nor, A_tan, A_dil) of the point-source
        basis and its derivatives at energy E, each M x N.

        grad phi_n(x) = -sqrt(E) Y1(sqrt(E)|x - y_n|) (x - y_n)/|x - y_n|.
        """
        if not E > 0:
            raise DomainError("E must be positive")
        k = np.sqrt(E)
        kd = k * self._dist
        sw_y1 = self._sw * (-k * bessel_y1(kd))
        A_val = self._sw * bessel_y0(kd)
        A_nor = sw_y1 * self._proj_nor
        A_tan = sw_y1 * self._proj_tan
        A_dil = sw_y1 * self._proj_dil
        return A_val, A_nor, A_tan, A_dil

    def system(self, E):
        """The TensionSystem at energy E.  The low-rank filter, H and the other
        three traces are freed on return."""
        A_val, A_nor, A_tan, A_dil = self.traces(E)
        A_w = build_filter_matrix(self.grid, 1.0 / np.sqrt(E)) @ A_nor
        H = interior_norm_matrix(self.grid, A_val, A_nor, A_tan, A_dil, E)
        B, _, basis = sqrt_factor(H, self.classes)
        return TensionSystem(A_w=A_w, A_nor=A_nor, B=B, basis=basis)
