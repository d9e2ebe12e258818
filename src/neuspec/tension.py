"""Minimum weighted tension over the trial space at a fixed energy.

The ratio ||A_w a|| / ||B a|| is minimized through an orthonormal basis of
the column space of the stack [A_w; B], split into the rows Q_A of A_w and
Q_B of B.  Since Q_A^T Q_A + Q_B^T Q_B = I (the CS decomposition; Paige &
Saunders, SIAM J. Numer. Anal. 18, 1981), the minimizer is the smallest
right singular vector of Q_A alone, and the minimum is c/sqrt(1 - c^2) at
its smallest singular value c; c[-2] gives the second-smallest tension the
same way, small too where the eigenvalue is degenerate.  Q_A's SVD is taken
on the row space of Q_B, the only one with c < 1 (see ``min_tension``).

A_w (M x N) is first reduced to the N x N factor R of A_w = Q R (zero rows
pad R when M < N), the standard reduction of the method of particular
solutions (Betcke & Trefethen, SIAM Review 47, 2005): [R; B] has the
singular values and right factor of [A_w; B].  Its basis comes from the
Householder QR [R; B] = Q2 R2, with alpha = R2^{-1} beta, when R2 is
numerically nonsingular.  Otherwise a basis of the whole column space would
carry directions amplified by 1/sigma_min, and the code takes the truncated
SVD of R2 instead, dropping singular values below ``eps`` (``EPS_DEFAULT``
= 1e-14) times the largest (Betcke, SIAM J. Sci. Comput. 30, 2008);
``rank_eps`` counts the kept ones, N on the QR path.

The QR path is taken when LAPACK's 1-norm condition estimate of R2
(``trcon``) satisfies

    cond_est(R2) * eps < QR_COND_LIMIT      (QR_COND_LIMIT = 1)

that is, when the estimate lies below the SVD cutoff 1/eps.  The margin
comes from the estimate reading high, which is measured, not proved (in the
worst case it can read low by a factor of order N).  On the three-lobe
domain (a0=1, eps=0.3, k=3, b=0.2) it read 4 to 37 times the stack's true
2-norm condition number in all nine stacks measured, so every stack the QR
path admitted had a true condition number at least 4 times below
1/eps = 1e14, where the truncated SVD keeps every singular value:

    M     N     tau      sqrtE   cond_est  true cond  rank_eps (SVD)
    700   350   0.02     40.53   9.7e9     1.2e9      350
    700   350   0.025    40.53   1.1e12    2.8e11     350
    700   350   0.03     40.53   4.8e14    2.4e13     350
    700   350   0.035    40.53   7.3e15    3.3e14     340
    700   350   0.04     40.53   2.0e16    5.4e14     325
    1400  700   0.0125   80.9    2.7e12    2.8e11     700
    1400  700   0.025    80.9    1.7e16    5.0e14     < 700
    2800  1400  0.00625  161.8   2.5e12    3.1e11     1400
    5000  2500  0.004    405.0   7.0e13    8.9e12     2500

At tau = 0.03 (fallback) both paths gave t_min = 0.00606052 to 6 digits.
On the unit disc (M=256, N=128, tau=0.1, sqrtE in [27.708, 27.748]) the
estimates read 21 to 26 times the true 5.5e12 to 1.1e13, so those stacks
take the fallback.
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


def _basis_rows(S, rows, eps):
    """(Q_A, Q_B, to_alpha, rank): the first ``rows`` rows and the remaining
    rows of an orthonormal basis of the kept column space of the stack S, the
    map from coordinates in that basis to coefficient vectors, and the kept
    rank.  S = Q R2 by Householder QR; when R2 is too ill-conditioned for the
    QR path, the truncated SVD of R2 = Ur diag(sig) Wt is that of S, with
    left factor Q Ur."""
    Q, R2 = np.linalg.qr(S)
    rcond, _ = dtrcon(R2)
    if rcond * QR_COND_LIMIT > eps:
        return (Q[:rows], Q[rows:], lambda beta: solve_triangular(R2, beta),
                S.shape[1])
    Ur, sig, Wt = np.linalg.svd(R2)
    if sig[0] == 0.0:
        raise RankCollapseError("stacked matrix is identically zero")
    r_eps = int((sig >= eps * sig[0]).sum())
    if r_eps == 0:
        raise RankCollapseError("numerical rank zero at the requested cutoff")
    sig = sig[:r_eps]
    Wt = Wt[:r_eps]
    Ur = Ur[:, :r_eps]
    return (Q[:rows] @ Ur, Q[rows:] @ Ur, lambda beta: Wt.T @ (beta / sig),
            r_eps)


def min_tension(A_w, B, eps=EPS_DEFAULT):
    """Minimize ||A_w a|| / ||B a|| over coefficient vectors a.

    ``eps`` is the relative singular-value cutoff for the stacked matrix; it
    also sets when the QR path is taken (``QR_COND_LIMIT``, see the module
    docstring).  The returned alpha is normalized so that ||B alpha|| = 1,
    i.e. unit interior norm.
    """
    A_w = np.asarray(A_w, dtype=float)
    B = np.asarray(B, dtype=float)
    if A_w.shape[1] != B.shape[1]:
        raise DomainError("A_w and B must share their column count")
    # A_w = Q R with orthonormal Q: [R; B] has the singular values and right
    # factor of [A_w; B], and the R rows of its basis give Q_A up to Q
    R = np.linalg.qr(A_w, mode="r")
    if R.shape[0] < R.shape[1]:
        # fewer rows than columns: pad so that Q_A below stays tall
        R = np.vstack([R, np.zeros((R.shape[1] - R.shape[0], R.shape[1]))])
    Q_A, Q_B, to_alpha, r_eps = _basis_rows(np.vstack([R, B]), R.shape[0],
                                            eps)
    # every direction outside the row space of Q_B has c = 1 exactly, so the
    # two smallest singular values of Q_A are those of Q_A W.  W has at most
    # r_eps <= N = rows of R columns, so Q_A W is tall; its singular values
    # and right vectors are those of its triangular factor, and c[-1] is the
    # smallest
    W, _ = np.linalg.qr(Q_B.T)
    _, c, Vt = np.linalg.svd(np.linalg.qr(Q_A @ W, mode="r"))
    # no rows in B leave no singular value below 1
    c_min = float(c[-1]) if len(c) else 1.0
    if c_min >= 1.0 - 1e-14:
        raise NoInteriorMassError(
            "trial space numerically annihilated by the interior-norm factor"
        )
    t_min = c_min / np.sqrt(1.0 - c_min * c_min)
    c_2 = float(c[-2]) if len(c) > 1 else 1.0
    t_second = c_2 / np.sqrt(1.0 - c_2 * c_2) if c_2 < 1.0 else float("inf")
    alpha = to_alpha(W @ Vt[-1])
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
