"""Minimum weighted tension over the trial space at a fixed energy.

The ratio ||A_w a|| / ||B a|| is minimized by a rank-regularized generalized
SVD: take the SVD of the stack [A_w; B], truncate at a relative cutoff, and
split the orthonormal column factor Q into the rows belonging to A_w and to
B.  Because Q has orthonormal columns, ||Q_A b||^2 + ||Q_B b||^2 = ||b||^2,
so the minimizer of ||Q_A b||/||Q_B b|| is the smallest right singular vector
of Q_A alone (the CS-decomposition shortcut; no general GSVD kernel needed),
and the minimum equals c/sqrt(1 - c^2) at the smallest singular value c.

A_w (M x N) is first reduced to the N x N triangular factor R of its QR
decomposition A_w = Q R (zero rows pad R when M < N), the standard reduction
of the method of particular solutions (Betcke & Trefethen, SIAM Review 47,
2005).  Q has orthonormal
columns, so [R; B] has the same singular values and right factor as
[A_w; B], and its left factor's R rows give Q_A up to the rotation Q, which
leaves the singular values and right vectors of Q_A unchanged.  Both SVDs
then act on N-row blocks instead of M-row ones.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoInteriorMassError, RankCollapseError


@dataclass(frozen=True)
class TensionEval:
    """Result of one tension minimization.

    When the reported minimum c_min is degenerate the minimizing alpha is one
    arbitrary member of the minimizing subspace.  ``t_classical`` is the
    classical tension of alpha; ``min_tension`` sees no A_nor and leaves it
    nan, ``TensionSolver.evaluate`` fills it in.
    """

    E: float
    t_min: float
    alpha: np.ndarray
    rank_eps: int
    c_min: float
    t_classical: float = float("nan")


def min_tension(A_w, B, eps=1e-14, energy=float("nan")):
    """Minimize ||A_w a|| / ||B a|| over coefficient vectors a.

    ``eps`` is the relative singular-value cutoff for the stacked matrix.
    The returned alpha is normalized so that ||B alpha|| = 1, i.e. unit
    interior norm.
    """
    A_w = np.asarray(A_w, dtype=float)
    B = np.asarray(B, dtype=float)
    if A_w.shape[1] != B.shape[1]:
        raise ValueError("A_w and B must share their column count")
    # A_w = Q R with orthonormal Q: [R; B] has the singular values and right
    # factor of [A_w; B], and the R rows of its left factor give Q_A up to Q
    R = np.linalg.qr(A_w, mode="r")
    if R.shape[0] < R.shape[1]:
        # fewer rows than columns: pad so that Q_A below stays tall
        R = np.vstack([R, np.zeros((R.shape[1] - R.shape[0], R.shape[1]))])
    U, sig, Wt = np.linalg.svd(np.vstack([R, B]), full_matrices=False)
    if sig[0] == 0.0:
        raise RankCollapseError("stacked matrix is identically zero")
    r_eps = int((sig >= eps * sig[0]).sum())
    if r_eps == 0:
        raise RankCollapseError("numerical rank zero at the requested cutoff")
    U = U[:, :r_eps]
    sig = sig[:r_eps]
    Wt = Wt[:r_eps]
    Q_A = U[: R.shape[0]]
    # r_eps <= N = rows of R, so Q_A is tall: its smallest singular value is c[-1]
    _, c, Vt = np.linalg.svd(Q_A, full_matrices=False)
    c_min = float(c[-1])
    if c_min >= 1.0 - 1e-14:
        raise NoInteriorMassError(
            "trial space numerically annihilated by the interior-norm factor"
        )
    beta = Vt[-1]
    t_min = c_min / np.sqrt(1.0 - c_min * c_min)
    alpha = Wt.T @ (beta / sig)
    bnorm = np.linalg.norm(B @ alpha)
    if bnorm == 0.0:
        raise NoInteriorMassError("minimizer has zero interior norm")
    alpha = alpha / bnorm
    return TensionEval(E=float(energy), t_min=float(t_min), alpha=alpha,
                       rank_eps=r_eps, c_min=c_min)


def tension_of(alpha, A_w, B):
    """The ratio ||A_w alpha|| / ||B alpha|| for a given coefficient vector."""
    alpha = np.asarray(alpha, dtype=float)
    bnorm = np.linalg.norm(B @ alpha)
    if bnorm == 0.0:
        raise NoInteriorMassError("coefficient vector has zero interior norm")
    return float(np.linalg.norm(A_w @ alpha) / bnorm)


def classical_tension(alpha, A_nor, B):
    """Unweighted boundary tension ||A_nor alpha|| / ||B alpha||."""
    return tension_of(alpha, A_nor, B)
