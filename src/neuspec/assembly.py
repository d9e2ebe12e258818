"""Assembly of the boundary matrices at a fixed energy.

Basis functions are point sources phi_n(x) = Y0(sqrt(E) |x - y_n|) with the
charges y_n strictly exterior.  ``SystemBuilder.traces`` builds four weighted
trace matrices (values, normal derivatives, and the E-derivatives of both),
all with rows scaled by sqrt(w_m) so that Euclidean norms approximate
boundary L2 norms.  ``SystemBuilder.system`` reduces them to what the
tensions read: the filtered normal derivative A_w = F A_nor, the unfiltered
A_nor for the classical tension, and the interior-norm factor B.
The builder's tables, the traces and ``point_source_sum`` are filled in
row blocks on ``special.kernel_threads()`` workers (``_row_blocks``),
bit-equal for any thread count.

On a curve symmetric under y -> -y the problem splits into an even and an
odd class (``geometry``).  The split comes after assembly: the traces, A_w
and H are formed whole, and ``sqrt_factor`` and ``min_tension`` slice each
class's blocks from them.  Assembling on half the nodes and charges would
change the rounding of A_w, which moves the benchmark's lobe-scan tensions
by about its 1e-8 check.  For coefficients in one class, ``raster_sum``
evaluates half of a symmetric raster and mirrors the rest with the class's
sign.  It sums the points far from every charge through one local Bessel
expansion per raster tile (Graf's addition theorem, the local half of a
fast multipole method), and the rest through ``point_source_sum``.

The interior L2 norm comes from the boundary alone, on any domain, through
Green's identity in E: phi_n' = d phi_n / dE solves Delta phi' + E phi' =
-phi_n inside, so for u = sum alpha_n phi_n and n the outward normal

    ||u||^2_{L2(Omega)} = integral over the boundary of u' d_n u - u d_n u' ds,

where phi_n' = -(d / 2k) Y1(k d) and d_n phi_n' = -(d / 2) Y0(k d) (x -
y_n).n / d for k = sqrt(E), d = |x - y_n|.  So H = sym(A_E^T A_nor - A_val^T
A_En), two Gram products, and its truncated eigendecomposition gives B with
B^T B ~= H, keeping the eigenpairs with lambda_j >= EPS_H * lambda_1 (EPS_H =
1e-12).
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import DomainError, NumericalError
from .geometry import build_grid, charge_points, mirror_fold, mirror_unfold
from .special import bessel_y0, bessel_y1, kernel_threads
from .weights import build_filter_matrix

EPS_H = 1e-12
TILE_SIDE = 4.0
THETA_MAX = 0.35
TILE_POINTS = 8
TILE_TOL = 1e-16
ROW_BLOCK = 1 << 14


@dataclass(frozen=True)
class TensionSystem:
    """The matrices the tensions read at one energy."""

    A_w: np.ndarray      # F @ A_nor, the filtered normal derivative
    A_nor: np.ndarray
    B: np.ndarray        # B^T B ~= H, the interior-norm form
    basis: tuple         # sqrt_factor's (parity, V, D) per class
    traces: tuple        # SystemBuilder.traces, for interior_norm


def interior_norm_matrix(A_val, A_nor, A_E, A_En):
    """Quadratic form H with alpha^T H alpha ~= ||u||^2_{L2(Omega)} for
    u = sum alpha_n phi_n, from the traces of ``SystemBuilder.traces``
    (Green's identity in E, module docstring)."""
    H = A_E.T @ A_nor - A_val.T @ A_En
    return 0.5 * (H + H.T)


def interior_norm(traces, alpha):
    """(q, S_q): q = alpha^T H alpha for H of :func:`interior_norm_matrix`,
    formed from the products of the ``traces`` with ``alpha``, and its
    rounding scale S_q, the same form on |A| and |alpha| with both terms
    added."""
    val, nor, e, en = (A @ alpha for A in traces)
    a, buf = np.abs(alpha), np.empty_like(traces[0])
    abs_val, abs_nor, abs_e, abs_en = (np.abs(A, out=buf) @ a for A in traces)
    return float(e @ nor - val @ en), float(abs_e @ abs_nor + abs_val @ abs_en)


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
        raise NumericalError("interior-norm matrix has no positive eigenvalue")
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
    """u(p) = sum_n alpha_n Y0(sqrt(E) |p - y_n|) at interior points, for
    ``alpha`` of shape (N,) (else ``DomainError``).

    Filled by :func:`_row_blocks` in blocks of 65536 // N rows (gemv
    rounding depends on the row count, so the blocks keep this size).  Each
    worker forms its block's ``special.bessel_y0(k * sqrt(dx*dx + dy*dy))``
    in its own two scratch buffers and writes ``Y @ alpha`` into its rows
    of the result, so memory is threads x 2 x 65536 values (2 MB at two
    threads) for any number of points.  A point on a charge raises the
    worker's ``DomainError``."""
    alpha = checked_alpha(alpha, charges.N)
    k = np.sqrt(E)
    points = np.asarray(points, dtype=float)
    out = np.empty(len(points))

    def fill(lo, hi, buffers):
        p, (dx, dy) = points[lo:hi], buffers
        np.subtract(p[:, :1], charges.y[:, 0], out=dx)
        np.subtract(p[:, 1:], charges.y[:, 1], out=dy)
        np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
        np.multiply(np.sqrt(dx, out=dx), k, out=dx)
        # not this module's bessel_y0: a tracer may wrap it for one thread
        np.matmul(special.bessel_y0(dx, out=dx), alpha, out=out[lo:hi])

    _row_blocks(len(points), charges.N, 65536, 2, fill)
    return out


def checked_alpha(alpha, N):
    """``alpha`` as floats, if of shape (N,), else ``DomainError``."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (N,):
        raise DomainError(f"alpha has shape {alpha.shape}, not {(N,)}")
    return alpha


def raster_sum(builder, alpha, E, grid):
    """``point_source_sum`` of ``builder``'s charges at the points of
    ``grid``, an ``interior_grid`` of the builder's curve, in the order of
    ``grid.indices``, summed through local expansions about raster tiles.

    **Mirror.**  With two classes the curve and the charges are symmetric
    under y -> -y, charge N - n mirroring charge n.  Where alpha_{-n mod N}
    = s alpha_n bit for bit, s = 1 (even class) or -1 (odd), as
    ``TensionSolver.evaluate`` returns alpha, the mirror image (x, -y) of a
    point takes s times its sum.  Raster row iy mirrors row ny - 1 - iy, so
    then only the rows with 2 iy >= ny - 1, and each point whose twin lies
    outside the mask, are evaluated, and every other point takes s times
    its twin's value.  Any other alpha, or one class, evaluates every point.

    **Tiles.**  The evaluated points are grouped into tiles of b raster
    points a side, b the most with (b - 1) h <= TILE_SIDE / k for the
    raster spacing h of each axis; r_t is a tile's half-diagonal and c its
    centre.  A tile is far when it holds at least TILE_POINTS points and r_t
    <= THETA_MAX rho_min, rho_min its centre's distance to the nearest
    charge.  Graf's addition theorem (DLMF 10.23.7) then gives, at p = c +
    r e^{i psi},

        u(p) = sum_l J_l(k r) Re(e^{i l psi} C_l),
        C_l = eps_l sum_n alpha_n Y_l(k rho_n) e^{-i l phi_n},

    with y_n = c + rho_n e^{i phi_n}, eps_0 = 1 and eps_l = 2, truncated at
    L_t = ceil(k r_t + ln(TILE_TOL) / ln(r_t / rho_min)) + 2.  The Y_l come
    by upward recurrence from ``bessel_y0`` and ``bessel_y1`` at the tile
    centres, one value of each per far tile and charge; the J_l by Miller's
    backward recurrence normalized by J_0 + 2 sum J_2l = 1, in one sweep
    per point.  Every other tile goes through :func:`point_source_sum`, the
    exact near-field kernel, with its points in raster order, so a raster
    with no far tile takes exactly that call.  The far tiles go ROW_BLOCK //
    N at a time, so that no array outgrows the tables' row blocks and
    none holds points x L or tiles x N x L values.

    **Sizing,** on ``mode``'s lobe raster (M=700, N=350, tau=0.025, sqrtE =
    40.53, nx=301; 28,119 evaluated points): 168 far tiles leave 1,127
    points to the near field, so 394,450 Y0 values plus 58,800 Y0 and
    58,800 Y1 replace 9,841,650 Y0, and the sum takes about 0.04 s (medians
    of 11 calls in one process, two threads).  Tile sides of 2/k, 3/k, 6/k
    and 8/k took 1.2, 1.0, 1.2 and 1.9 times as long as 4/k; THETA_MAX =
    0.25 took 1.4 times as long, 0.5 about as long.  The side also keeps k r
    <= 2 sqrt 2 below j_1,1 = 3.83, the first zero of J_1, where the
    backward sweep's ratios are finite.  TILE_TOL = 1e-12 raised the error
    from 6.8e-15 S to 1.7e-14 S; 1e-14 left it at 6.8e-15 S.

    **Error.**  The result is not the whole-raster ``point_source_sum`` bit
    for bit.  Against a direct Y0-matrix sum it erred by at most 7.4e-15 S
    in every case measured, S = max_p sum_n |alpha_n Y0(k |p - y_n|)| the
    sum's cancellation scale (4.7e-15 S on the lobe raster above); the
    tests hold it to 1e-14 S.  On the disc at M=192, N=96, tau=0.1,
    sqrtE=15, nx=61, |alpha| = 4.7e5 cancels: 2.0e-15 S is 6.8e-10 max|u|.
    """
    charges = builder.charges
    alpha = checked_alpha(alpha, charges.N)
    ix, iy = grid.indices.T
    twin = len(grid.ys) - 1 - iy
    mirrored = alpha[-np.arange(charges.N) % charges.N]
    # the class's sign, or 0: every point evaluated
    sign = next((s for s in (1.0, -1.0) if builder.classes != (0,)
                 and np.array_equal(mirrored, s * alpha)), 0.0)
    direct = (iy >= twin) | ~grid.inside[twin, ix] | (sign == 0.0)
    u = np.empty(grid.inside.shape)
    u[iy[direct], ix[direct]] = _tiled_sum(charges, alpha, E, grid, direct)
    u[iy[~direct], ix[~direct]] = sign * u[twin[~direct], ix[~direct]]
    return u[iy, ix]


def _tiled_sum(charges, alpha, E, grid, mask):
    """The sum at ``grid.points[mask]``: far tiles by local expansion, the
    rest by ``point_source_sum`` (``raster_sum``)."""
    k = np.sqrt(E)
    points = grid.points[mask]
    ix, iy = grid.indices[mask].T
    step = np.array([grid.xs[1] - grid.xs[0], grid.ys[1] - grid.ys[0]])
    side = (TILE_SIDE / (k * step)).astype(int) + 1   # points a side
    across = -(-len(grid.xs) // side[0])              # tiles a row
    tile = ix // side[0] + across * (iy // side[1])
    count = np.bincount(tile)
    full = np.flatnonzero(count >= TILE_POINTS)
    centre = (np.array([grid.xs[0], grid.ys[0]]) + step * (
        np.stack([full % across, full // across], axis=1) * side
        + 0.5 * (side - 1)))
    radius = 0.5 * np.hypot(*((side - 1) * step))
    # a few tiles at a time, so that no array outgrows a row block
    batch = max(1, ROW_BLOCK // charges.N)
    rho = np.empty(len(full))
    for lo in range(0, len(full), batch):
        rho[lo:lo + batch] = np.min(
            _offsets(charges, centre[lo:lo + batch])[2], axis=1)
    far = radius <= THETA_MAX * rho
    L = np.ceil(k * radius + np.log(TILE_TOL) / np.log(radius / rho[far]))
    # far tiles by order, highest first, so that those still expanding at
    # any order are a prefix, and their points tile by tile
    order = np.argsort(-L, kind="stable")
    full, centre, L = full[far][order], centre[far][order], L[order]
    L = L.astype(int) + 2
    rank = np.full(len(count), -1)
    rank[full] = np.arange(len(full))
    owner = rank[tile]
    out = np.empty(len(points))
    near = owner < 0
    if near.any():
        out[near] = point_source_sum(charges, alpha, E, points[near])
    at = np.flatnonzero(~near)
    at = at[np.argsort(owner[at], kind="stable")]
    owner = owner[at]
    for lo in range(0, len(full), batch):
        hi = lo + batch
        C = _local_coefficients(k, *_offsets(charges, centre[lo:hi]),
                                L[lo:hi], alpha)
        a, b = np.searchsorted(owner, [lo, hi])
        p = at[a:b]
        out[p] = _local_values(k * (points[p] - centre[owner[a:b]]),
                               owner[a:b] - lo, L[lo:hi], C)
    return out


def _offsets(charges, centres):
    """(dx, dy, rho): the charges seen from each centre, one row each."""
    dx = charges.y[:, 0] - centres[:, :1]
    dy = charges.y[:, 1] - centres[:, 1:]
    return dx, dy, np.sqrt(dx * dx + dy * dy)


def _local_coefficients(k, dx, dy, rho, L, alpha):
    """C[l, t] = eps_l sum_n alpha[n] Y_l(k rho[t, n]) e^{-i l phi[t, n]}
    for l <= L[t] (zero above), where (dx, dy) = rho e^{i phi} are the
    charges seen from the centre of tile t; L descending."""
    kr = k * rho
    turn = (dx - 1j * dy) / rho
    wave = turn.copy()
    C = np.zeros((L[0] + 1, len(L)), dtype=complex)
    y_prev, y = bessel_y0(kr), bessel_y1(kr)
    C[0] = y_prev @ alpha
    C[1] = 2.0 * ((y * wave) @ alpha)
    two_over = 2.0 / kr
    for l in range(2, L[0] + 1):
        m = np.count_nonzero(L >= l)
        # Y_l = (2 (l - 1) / z) Y_{l-1} - Y_{l-2}: upward is stable for Y
        y_prev, y = y[:m], (l - 1) * two_over[:m] * y[:m] - y_prev[:m]
        wave = wave[:m] * turn[:m]
        C[l, :m] = 2.0 * ((y * wave) @ alpha)
    return C


def _local_values(kp, owner, L, C):
    """sum_l J_l(z) Re(e^{i l psi} C[l, owner]) at z e^{i psi} = ``kp``, one
    row per point, for C and L of :func:`_local_coefficients`; ``owner``
    ascending.

    Miller's backward recurrence as ratios R_l = J_l / J_{l-1} = z / (2 l -
    z R_{l+1}), from R = 0 above the point's L.  One sweep from l = L down
    to 2 sums, Horner-wise, S_u = sum_{l>=2} C_l e^{i (l-1) psi} J_l / J_1
    and S_n = sum_{m>=1} 2 J_2m / J_1.  With J_0 / J_1 = D / z, D = 2 - z
    R_2, the normalization J_0 + 2 sum J_2m = 1 gives

        u = (D Re C_0 + z Re(e^{i psi} (C_1 + S_u))) / (D + z S_n),

    whose denominator z / J_1 stays positive for z < j_1,1; z = 0 needs no
    case."""
    z = np.hypot(kp[:, 0], kp[:, 1])
    with np.errstate(invalid="ignore", divide="ignore"):
        turn = np.where(z > 0, (kp[:, 0] + 1j * kp[:, 1]) / z, 1.0)
    # the points of the tiles still expanding at order l are a prefix
    ends = np.searchsorted(owner, np.arange(len(L)), side="right")
    s_u = np.zeros(len(z), dtype=complex)
    s_n = np.zeros(len(z))
    ratio = np.zeros(len(z))
    for l in range(L[0], 1, -1):
        m = ends[np.count_nonzero(L >= l) - 1]
        r = ratio[:m] = z[:m] / (2 * l - z[:m] * ratio[:m])
        s_u[:m] = r * turn[:m] * (C[l, owner[:m]] + s_u[:m])
        s_n[:m] = r * (s_n[:m] + 2.0) if l % 2 == 0 else r * s_n[:m]
    d = 2.0 - z * ratio
    return ((d * C[0, owner].real + z * (turn * (C[1, owner] + s_u)).real)
            / (d + z * s_n))


def _row_blocks(rows, cols, values, scratch, fill):
    """``fill(lo, hi, buffers)`` for the blocks of ``values`` // cols rows
    (one at least) of a rows x cols table.  Worker j of
    :func:`kernel_threads` takes blocks j, j + threads, ... with its own
    ``scratch`` buffers of shape (hi - lo, cols), allocated here (arrays
    made on the workers would grow glibc's per-thread arenas).  One thread
    fills the blocks inline; neither it nor a table of no rows starts a
    thread.  Errors reach the caller."""
    block = max(1, values // max(cols, 1))
    starts = range(0, rows, block)
    threads = min(kernel_threads(), len(starts))
    if not threads:
        return
    buffers = np.empty((threads, scratch, block, cols))

    def work(j):
        for lo in starts[j::threads]:
            hi = min(lo + block, rows)
            fill(lo, hi, buffers[j, :, :hi - lo])

    if threads == 1:
        return work(0)
    with ThreadPoolExecutor(threads) as pool:
        for job in [pool.submit(work, j) for j in range(threads)]:
            job.result()


class SystemBuilder:
    """Caches the energy-independent geometry so that assembling systems at
    many energies (a sweep, a minimum search) costs only the Bessel
    evaluations, the filter product, and the dense linear algebra.

    The tables (``_dist`` = |x_m - y_n| and ``_proj_nor`` = (x_m - y_n) . n_m
    over it) and the traces fill in place, each worker its own rows
    (``_row_blocks``); a node within 1e-12 of a charge raises
    ``NumericalError`` before any 1/d is formed."""

    def __init__(self, curve, M, N, tau):
        if M % 4:
            raise DomainError("M must be divisible by 4")
        if N > M:
            raise DomainError("N must not exceed M")
        self.grid = build_grid(curve, M)
        self.charges = charge_points(curve, N, tau)
        # parities of the classes; with N <= 2 every charge is its own mirror
        self.classes = (1, -1) if curve.symmetric and N > 2 else (0,)
        shape = (len(self.grid.x), self.charges.N)
        self._dist, self._proj_nor = np.empty(shape), np.empty(shape)

        def fill(lo, hi, buffers):
            dx, dy = buffers
            x, nrm = self.grid.x[lo:hi], self.grid.nrm[lo:hi]
            d, p = self._dist[lo:hi], self._proj_nor[lo:hi]
            np.subtract(x[:, :1], self.charges.y[:, 0], out=dx)
            np.subtract(x[:, 1:], self.charges.y[:, 1], out=dy)
            np.add(np.square(dx, out=d), np.square(dy, out=p), out=d)
            np.sqrt(d, out=d)
            if d.min() < 1e-12:
                raise NumericalError("a node and a charge nearly coincide")
            np.add(np.multiply(dx, nrm[:, :1], out=p),
                   np.multiply(dy, nrm[:, 1:], out=dy), out=p)
            np.multiply(p, np.divide(1.0, d, out=dx), out=p)

        _row_blocks(*shape, ROW_BLOCK, 2, fill)
        self._sw = np.sqrt(self.grid.w)[:, None]

    def traces(self, E):
        """Weighted traces (A_val, A_nor, A_E, A_En) of the point-source
        basis at energy E, each M x N: the values and normal derivatives,
        and the E-derivatives of both (module docstring).

        grad phi_n(x) = -sqrt(E) Y1(sqrt(E)|x - y_n|) (x - y_n)/|x - y_n|.
        """
        if not 0 < E < np.inf:
            raise DomainError("E must be finite and positive")
        k = np.sqrt(E)
        A_val, A_nor, A_E, A_En = [np.empty(self._dist.shape)
                                   for _ in range(4)]

        def fill(lo, hi, buffers):
            kd, sw = buffers[0], self._sw[lo:hi]
            d, p = self._dist[lo:hi], self._proj_nor[lo:hi]
            np.multiply(k, d, out=kd)
            # special's names: a tracer may wrap this module's for one thread
            val = special.bessel_y0(kd, out=A_val[lo:hi])
            np.multiply(sw, val, out=val)
            sw_y1 = special.bessel_y1(kd, out=A_E[lo:hi])
            np.multiply(sw, np.multiply(-k, sw_y1, out=sw_y1), out=sw_y1)
            np.multiply(sw_y1, p, out=A_nor[lo:hi])
            # -(d / 2k) sqrt(w) Y1 and -(d / 2) sqrt(w) Y0 (x - y).n / d
            np.multiply(sw_y1, np.multiply(d, 0.5 / E, out=kd), out=sw_y1)
            en = np.multiply(val, np.multiply(d, -0.5, out=kd),
                             out=A_En[lo:hi])
            np.multiply(en, p, out=en)

        _row_blocks(*self._dist.shape, ROW_BLOCK, 1, fill)
        return A_val, A_nor, A_E, A_En

    def system(self, E):
        """The TensionSystem at energy E >= 1 (the filter scale 1/sqrtE is at
        most 1).  The low-rank filter and H are freed on return."""
        if 0 < E < 1:
            raise DomainError(f"sqrtE must be at least 1 (filter scale h = "
                              f"1/sqrtE), got {float(np.sqrt(E))!r}")
        traces = self.traces(E)
        A_w = build_filter_matrix(self.grid, 1.0 / np.sqrt(E)) @ traces[1]
        B, _, basis = sqrt_factor(interior_norm_matrix(*traces), self.classes)
        return TensionSystem(A_w=A_w, A_nor=traces[1], B=B, basis=basis,
                             traces=traces)
