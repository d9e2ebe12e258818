"""Minimum weighted tension over the trial space at a fixed energy.

The ratio ||A_w a|| / ||B a|| is minimized through an orthonormal basis of
the column space of the stack [A_w; B], with rows Q_A of A_w and Q_B of B.
As Q_A^T Q_A + Q_B^T Q_B = I (the CS decomposition; Paige & Saunders, SIAM
J. Numer. Anal. 18, 1981), the minimum is c/sqrt(1 - c^2) at the smallest
singular value c of Q_A on the row space of Q_B (c = 1 off it), and c[-2]
gives the second-smallest tension, small too where the eigenvalue is
degenerate.  This generalized SVD (Betcke, SIAM J. Sci. Comput. 30, 2008;
Betcke & Trefethen, SIAM Review 47, 2005) is taken in coordinates a = V x,
V = [Z Y] the eigenvectors of H that ``sqrt_factor`` drops and keeps (r =
rank_H), so the stack reads [A_w Z, A_w Y; 0, D], D = diag(sqrt(lambda)):

1. the R-only QR of A_w V gives [[R11, R12], [0, R22]] (zero rows pad it
   when M < N);
2. [R22; D] = Q2 R2 gives the stack's triangular factor T = [[R11, R12],
   [0, R2]], whose basis has B rows [0, Q2[r:]] and, up to the orthonormal
   factor of A_w V, A rows diag(I, Q2[:r]);
3. the SVD of the r x r block Q2[:r] gives c and its right vector v, and
   x = T^{-1} [0; v]: y = R2^{-1} v and z = -R11^{-1} R12 y.

A numerically singular T would amplify directions by 1/sigma_min, so the
code then takes the truncated SVD of T, dropping singular values below
``eps`` (``EPS_DEFAULT`` = 1e-14) times the largest (Betcke 2008);
``rank_eps`` counts the kept ones, N on the QR path.  That path is taken
when LAPACK's 1-norm estimate (``trcon``) satisfies cond_est(T) * eps <
QR_COND_LIMIT = 1.  The estimate reads high, as measured, not proved (it
can read low by a factor of order N): 17 to 180 times the true 2-norm
condition on the three-lobe domain (a0=1, eps=0.3, k=3, b=0.2), and 2.3 to
3.5 times on the unit disc (M=256, N=128, tau=0.1, sqrtE in [27.708,
27.748]: 1.7e13 to 3.2e13 against 6.5e12 to 9.2e12).  So every admitted
stack had a true condition number 10 times below 1/eps, where the
truncated SVD keeps every singular value.  The estimate for the factor of
the unrotated stack [R; B], R from the QR of A_w, sent those disc stacks
(8.6e13 to 2.1e14) to the fallback and the M=5000 one to the QR path:

    M     N     tau      sqrtE   cond_est  true cond  rank_eps   [R; B]
    700   350   0.02     40.53   2.0e10    1.2e9      350        9.7e9
    700   350   0.025    40.53   7.3e12    2.8e11     350        1.1e12
    700   350   0.03     40.53   6.4e14    2.4e13     350 (SVD)  4.8e14
    700   350   0.035    40.53   9.4e15    3.3e14     340 (SVD)  7.3e15
    700   350   0.04     40.53   1.6e16    5.4e14     325 (SVD)  2.0e16
    1400  700   0.0125   80.9    1.4e13    2.8e11     700        2.7e12
    1400  700   0.025    80.9    5.6e16    4.9e14     494 (SVD)  1.7e16
    2800  1400  0.00625  161.8   2.2e13    3.1e11     1400       2.5e12
    5000  2500  0.004    405.0   1.6e15    8.9e12     2500 (SVD) 7.0e13
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrcon

from .errors import DomainError, NoInteriorMassError, RankCollapseError

EPS_DEFAULT = 1e-14
QR_COND_LIMIT = 1.0


@dataclass(frozen=True)
class TensionEval:
    """Result of one tension minimization.

    When the reported minimum c_min is degenerate the minimizing alpha is one
    arbitrary member of the minimizing subspace; ``t_second``, the
    second-smallest tension, is then small too.  It is inf when the trial
    space has fewer than two directions or the second has no interior mass.
    ``t_classical`` is the classical tension of alpha and ``rank_H`` the
    kept rank of the interior-norm form H (the rows of B).  ``min_tension``
    sees neither E nor A_nor nor H and leaves ``E``, ``t_classical`` and
    ``rank_H`` nan, nan and 0; ``TensionSolver.evaluate`` fills them in.
    """

    E: float
    t_min: float
    alpha: np.ndarray
    rank_eps: int
    c_min: float
    t_second: float
    t_classical: float = float("nan")
    rank_H: int = 0


def min_tension(A_w, B, eps=EPS_DEFAULT, basis=None):
    """Minimize ||A_w a|| / ||B a|| over coefficient vectors a.

    ``basis`` = (V, D) rotates the coefficients (module docstring), as
    ``sqrt_factor`` returns it with B; without it, a complete QR of B^T
    gives V and D.  ``eps`` is the relative singular-value cutoff for the
    stacked matrix; it also sets when the QR path is taken.  The returned
    alpha is normalized so that ||B alpha|| = 1, i.e. unit interior norm.
    """
    A_w = np.asarray(A_w, dtype=float)
    B = np.asarray(B, dtype=float)
    if A_w.shape[1] != B.shape[1]:
        raise DomainError("A_w and B must share their column count")
    if not B.size:
        raise NoInteriorMassError("the interior-norm factor has no rows")
    if basis is None:
        # B^T = Q R: B Q = R^T, whose columns past min(B.shape) are zero
        Q, R = np.linalg.qr(B.T, mode="complete")
        basis = np.roll(Q, -min(B.shape), axis=1), R[:min(B.shape)].T
    V, D = basis
    N, r = V.shape[1], D.shape[1]
    n0 = N - r
    T = np.linalg.qr(A_w @ V, mode="r")
    if T.shape[0] < N:
        T = np.vstack([T, np.zeros((N - T.shape[0], N))])
    Q2, T[n0:, n0:] = np.linalg.qr(np.vstack([T[n0:, n0:], D]))
    rcond, _ = dtrcon(T)
    if rcond * QR_COND_LIMIT > eps:
        _, c, Wt = np.linalg.svd(Q2[:r])
        r_eps = N
        x = solve_triangular(T, np.concatenate([np.zeros(n0), Wt[-1]]))
    else:
        Ur, sig, Xt = np.linalg.svd(T)
        r_eps = int((sig >= eps * sig[0]).sum()) if sig[0] > 0 else 0
        if r_eps == 0:
            raise RankCollapseError("numerical rank zero at cutoff eps")
        # the kept basis is the QR path's times Ur: Q_A's SVD on W, the row
        # space of its B rows
        Ur = Ur[:, :r_eps]
        Q_A = np.vstack([Ur[:n0], Q2[:r] @ Ur[n0:]])
        W, _ = np.linalg.qr((Q2[r:] @ Ur[n0:]).T)
        _, c, Wt = np.linalg.svd(np.linalg.qr(Q_A @ W, mode="r"))
        x = Xt[:r_eps].T @ ((W @ Wt[-1]) / sig[:r_eps])
    c_min = float(c[-1])
    if c_min >= 1.0 - 1e-14:
        raise NoInteriorMassError(
            "trial space numerically annihilated by the interior-norm factor"
        )
    t_min = c_min / np.sqrt(1.0 - c_min * c_min)
    c_2 = float(c[-2]) if len(c) > 1 else 1.0
    t_second = c_2 / np.sqrt(1.0 - c_2 * c_2) if c_2 < 1.0 else float("inf")
    alpha = V @ x
    bnorm = np.linalg.norm(B @ alpha)
    if bnorm == 0.0:
        raise NoInteriorMassError("minimizer has zero interior norm")
    alpha = alpha / bnorm
    return TensionEval(E=float("nan"), t_min=float(t_min), alpha=alpha,
                       rank_eps=r_eps, c_min=c_min, t_second=float(t_second))


def classical_tension(alpha, A, B):
    """The ratio ||A alpha|| / ||B alpha|| for a given coefficient vector:
    with A = A_nor the unweighted (classical) boundary tension."""
    alpha = np.asarray(alpha, dtype=float)
    bnorm = np.linalg.norm(B @ alpha)
    if bnorm == 0.0:
        raise NoInteriorMassError("coefficient vector has zero interior norm")
    return float(np.linalg.norm(A @ alpha) / bnorm)
