"""Minimum weighted tension over the trial space at a fixed energy.

The ratio ||A_w a|| / ||B a|| is minimized through an orthonormal basis of
the column space of the stack [A_w; B], with rows Q_A of A_w and Q_B of B.
As Q_A^T Q_A + Q_B^T Q_B = I (the CS decomposition; Paige & Saunders, SIAM
J. Numer. Anal. 18, 1981), the minimum is c/sqrt(1 - c^2) at the smallest
singular value c of Q_A on the row space of Q_B (c = 1 off it), and c[-2]
gives the second-smallest tension, small too where the eigenvalue is
degenerate.  This generalized SVD (Betcke, SIAM J. Sci. Comput. 30, 2008;
Betcke & Trefethen, SIAM Review 47, 2005) is taken per reflection class,
one SVD each: on a domain symmetric under y -> -y the stack is block
diagonal, up to rounding, in the even and odd coefficients
(``geometry.mirror_fold``; Baecker, Lect. Notes Phys. 618, 2003).  The
smaller class minimum is the result; t_second is the smaller of that
class's second tension and the other class's minimum, so a doublet split
over the classes still reads small, and rank_eps sums over the classes.
Any other curve is one class, the whole stack.  Each class is taken in
coordinates a = V x, V = [Z Y] the eigenvectors of its block of H that
``sqrt_factor`` drops and keeps (r = rank_H), so its stack reads [A_w Z,
A_w Y; 0, D], D = diag(sqrt(lambda)):

1. the R-only QR of A_w V gives [[R11, R12], [0, R22]] (zero rows pad it
   when M < N);
2. [R22; D] = Q2 R2 gives the stack's triangular factor T = [[R11, R12],
   [0, R2]], whose basis has B rows [0, Q2[r:]] and, up to the orthonormal
   factor of A_w V, A rows diag(I, Q2[:r]);
3. the SVD of the r x r block Q2[:r] gives c and its right vector v, and
   x = T^{-1} [0; v]: y = R2^{-1} v and z = -R11^{-1} R12 y.

A numerically singular T would amplify directions by 1/sigma_min, so the
code then takes the truncated SVD of T, dropping singular values below
``EPS`` = 1e-14 times the largest (Betcke 2008); ``rank_eps`` counts the
kept ones, the class's column count on the QR path.  That path is taken
when LAPACK's 1-norm estimate (``trcon``) of the reciprocal condition
satisfies rcond(T) > EPS.  The estimate is no bound: per class it read 11
to 167 times the true 2-norm condition on the three-lobe domain (a0=1,
eps=0.3, k=3, b=0.2), but 2.0 to 2.5 times on the unit disc (M=256, N=128,
tau=0.1, sqrtE in [27.708, 27.748]: 7.7e12 to 3.5e13 against 3.6e12 to
1.4e13).  So every admitted stack measured had a true condition number 7
times below 1/EPS, where the truncated SVD keeps every singular value.
Per class (even|odd; SVD marks the fallback, and "whole" is the estimate
for the unsplit stack):

  M    N    tau     sqrtE cond_est       true cond      rank_eps       whole
  700  350  0.02    40.53 1.3e10|1.9e10  1.2e9|1.1e9    176|174        2.3e10
  700  350  0.025   40.53 7.0e12|3.0e12  2.8e11|2.5e11  176|174        8.2e12
  700  350  0.03    40.53 5.5e14|4.0e14  2.2e13|1.6e13  176|174 SVD    5.9e14
  700  350  0.035   40.53 8.6e15|7.1e15  4.6e14|3.7e14  170|169 SVD    1.1e16
  700  350  0.04    40.53 1.8e16|1.6e16  6.9e14|6.5e14  161|161 SVD    1.4e16
  1400 700  0.0125  80.9  1.1e13|6.7e12  2.8e11|2.7e11  351|349        1.1e13
  1400 700  0.025   80.9  4.6e16|4.2e16  6.5e14|5.9e14  249|249 SVD    4.6e16
  2800 1400 0.00625 161.8 1.7e13|1.8e13  3.1e11|3.0e11  701|699        2.3e13
  5000 2500 0.004   405.0 1.2e15|1.5e15  9.0e12|9.0e12  1251|1249 SVD  1.5e15

Forced onto the QR path, a singular stack misreports.  On 10 pairs sharing
a 3-dimensional null space (the tests' ``shared_null_pair``, seed 20240817)
it read t_min 0.31 to 1.00 where its alpha attains 0.80 to 2.57, against
0.76 to 1.24 from the fallback and the full-basis reference; on 40
``ill_conditioned_pair`` stacks it returned ||alpha|| 5e6 to 1.7e12, the
fallback 0.2 to 2.3.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrcon

from .assembly import checked_alpha
from .errors import DomainError, NumericalError
from .geometry import mirror_fold, mirror_unfold

EPS = 1e-14


@dataclass(frozen=True)
class TensionEval:
    """Result of one tension minimization.

    When the reported minimum c_min is degenerate the minimizing alpha is one
    arbitrary member of the minimizing subspace; ``t_second``, the
    second-smallest tension, is then small too.  It is inf when the trial
    space has fewer than two directions or the second has no interior mass,
    and it depends on the BLAS thread count (three-lobe solve: 1.86 at one
    thread, 2.13 at two).
    ``t_classical`` is the classical tension of alpha and ``rank_H`` the
    kept rank of the interior-norm form H (the rows of B).  ``q`` is
    alpha^T H alpha formed from the traces, 1 up to rounding as ||B alpha||
    = 1, and ``q_scale`` its rounding scale u S_q (``assembly.interior_norm``,
    u = 2^-53).  ``min_tension`` sees neither E nor the traces and leaves
    ``E``, ``t_classical``, ``rank_H``, ``q`` and ``q_scale`` nan, nan, 0,
    nan and nan; ``TensionSolver.evaluate`` fills them in.
    """

    E: float
    t_min: float
    alpha: np.ndarray
    rank_eps: int
    c_min: float
    t_second: float
    t_classical: float = float("nan")
    rank_H: int = 0
    q: float = float("nan")
    q_scale: float = float("nan")


def min_tension(A_w, B, basis=None):
    """Minimize ||A_w a|| / ||B a|| over coefficient vectors a.

    ``basis``, one (parity, V, D) per reflection class as ``sqrt_factor``
    returns it with B, splits the problem into its classes and rotates each
    (module docstring); without it, a complete QR of B^T gives one class's
    V and D.  The returned alpha is normalized so that ||B alpha|| = 1, i.e.
    unit interior norm.
    """
    A_w = np.asarray(A_w, dtype=float)
    B = np.asarray(B, dtype=float)
    if A_w.shape[1] != B.shape[1]:
        raise DomainError("A_w and B must share their column count")
    if not B.size:
        raise NumericalError("the interior-norm factor has no rows")
    if basis is None:
        # B^T = Q R: B Q = R^T, whose columns past min(B.shape) are zero
        Q, R = np.linalg.qr(B.T, mode="complete")
        basis = ((0, np.roll(Q, -min(B.shape), axis=1), R[:min(B.shape)].T),)
    N = A_w.shape[1]
    parts = []
    for parity, V, D in basis:
        c, a, r_eps = _rotated_min(mirror_fold(A_w, parity), V, D)
        parts.append((c, mirror_unfold(a, N, parity), r_eps))
    parts.sort(key=lambda part: part[0][-1])
    (c, alpha, _), others = parts[0], parts[1:]
    c_min = float(c[-1])
    if c_min >= 1.0 - 1e-14:
        raise NumericalError(
            "trial space numerically annihilated by the interior-norm factor"
        )
    t_min = c_min / np.sqrt(1.0 - c_min * c_min)
    # the second-smallest over all classes: the winner's next or another
    # class's smallest
    c_2 = min([float(c[-2]) if len(c) > 1 else 1.0]
              + [float(other[0][-1]) for other in others])
    t_second = c_2 / np.sqrt(1.0 - c_2 * c_2) if c_2 < 1.0 else float("inf")
    bnorm = np.linalg.norm(B @ alpha)
    if bnorm == 0.0:
        raise NumericalError("minimizer has zero interior norm")
    alpha = alpha / bnorm
    return TensionEval(E=float("nan"), t_min=float(t_min), alpha=alpha,
                       rank_eps=sum(part[2] for part in parts), c_min=c_min,
                       t_second=float(t_second))


def _rotated_min(A_w, V, D):
    """(c, a, rank_eps) of one class: the singular values c of Q_A on the
    row space of Q_B, descending, and a = V x, x the coefficients of the
    smallest (module docstring, steps 1-3 and the fallback)."""
    N, r = V.shape[1], D.shape[1]
    n0 = N - r
    T = np.linalg.qr(A_w @ V, mode="r")
    if T.shape[0] < N:
        T = np.vstack([T, np.zeros((N - T.shape[0], N))])
    Q2, T[n0:, n0:] = np.linalg.qr(np.vstack([T[n0:, n0:], D]))
    rcond, _ = dtrcon(T)
    if rcond > EPS:
        _, c, Wt = np.linalg.svd(Q2[:r])
        r_eps = N
        x = solve_triangular(T, np.concatenate([np.zeros(n0), Wt[-1]]))
    else:
        Ur, sig, Xt = np.linalg.svd(T)
        r_eps = int((sig >= EPS * sig[0]).sum()) if sig[0] > 0 else 0
        if r_eps == 0:
            raise NumericalError("numerical rank zero at cutoff EPS")
        # the kept basis is the QR path's times Ur: Q_A's SVD on W, the row
        # space of its B rows
        Ur = Ur[:, :r_eps]
        Q_A = np.vstack([Ur[:n0], Q2[:r] @ Ur[n0:]])
        W, _ = np.linalg.qr((Q2[r:] @ Ur[n0:]).T)
        _, c, Wt = np.linalg.svd(np.linalg.qr(Q_A @ W, mode="r"))
        x = Xt[:r_eps].T @ ((W @ Wt[-1]) / sig[:r_eps])
    return c, V @ x, r_eps


def classical_tension(alpha, A, B):
    """The ratio ||A alpha|| / ||B alpha|| for a given coefficient vector:
    with A = A_nor the unweighted (classical) boundary tension."""
    alpha = checked_alpha(alpha, A.shape[1])
    bnorm = np.linalg.norm(B @ alpha)
    if bnorm == 0.0:
        raise NumericalError("coefficient vector has zero interior norm")
    return float(np.linalg.norm(A @ alpha) / bnorm)
