"""Exact unit-disc Neumann eigendata and the analytic identity suite.

Disc Neumann modes are (cos n theta or sin n theta) J_n(mu r) with mu a
positive zero of J_n'.  Everything here is closed-form modulo Bessel
evaluations, which makes the disc the ground truth the solver is validated
against: the boundary-to-interior norm ratio has the exact value
sqrt(2) (1 - h^2 n^2)^{-1/2}, and weighting the trace by the smooth spectral
weight collapses it to sqrt(2) wherever the weight is a pure square root.

Angular normalization is real (cos/sin): the squared angular factor
integrates to 2 pi for n = 0 and pi otherwise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IncompleteEnumerationError
from .special import (_N_MAX, bessel_jn, bessel_jn_prime, jnprime_zeros,
                      jnprime_zeros_upto)
from .weights import g_weight


@dataclass(frozen=True)
class DiscMode:
    """One disc Neumann eigenfunction: angular order n, radial index l,
    eigenfrequency mu (so the eigenvalue is mu^2), and parity of the angular
    factor."""

    n: int
    l: int
    mu: float
    parity: str  # 'cos' | 'sin'

    def __post_init__(self):
        if self.parity not in ("cos", "sin"):
            raise DomainError("parity must be 'cos' or 'sin'")
        if self.n == 0 and self.parity == "sin":
            raise DomainError("n = 0 has no sine mode")

    @property
    def h(self):
        return 1.0 / self.mu


def disc_modes_in_window(freq_lo, freq_hi):
    """All disc modes with eigenfrequency in [freq_lo, freq_hi].

    Both parities for n >= 1, one for n = 0.  Raises if the angular-order cap
    of the Bessel zeros (n <= 200) is reached while orders could still
    contribute (mu_{n,1} > n, so orders above freq_hi cannot)."""
    if not 0 < freq_lo < freq_hi:
        raise DomainError("need 0 < freq_lo < freq_hi")
    modes = []
    n = 0
    while True:
        if n >= 1 and n >= freq_hi:
            break  # first zero exceeds n, hence the window
        if n > _N_MAX:
            raise IncompleteEnumerationError(
                f"order cap {_N_MAX} reached with window [{freq_lo}, {freq_hi}] unfinished"
            )
        zeros = jnprime_zeros_upto(n, freq_hi)
        for l, mu in enumerate(zeros, start=1):
            if mu >= freq_lo:
                modes.append(DiscMode(n=n, l=l, mu=float(mu), parity="cos"))
                if n >= 1:
                    modes.append(DiscMode(n=n, l=l, mu=float(mu), parity="sin"))
        n += 1
    return modes


def interior_norm_disc(mode):
    """L2 norm over the unit disc of (cos/sin)(n theta) J_n(mu r).

    Uses the closed-form radial integral
        int_0^1 J_n(mu r)^2 r dr = (J_n'(mu)^2 + (1 - n^2/mu^2) J_n(mu)^2)/2;
    at a true zero of J_n' the first term contributes ~1e-22 relative, so the
    value matches sqrt(pi_n (1 - n^2/mu^2)/2) |J_n(mu)| to far beyond the
    tolerances used anywhere, while degrading visibly if mu is off a zero
    (that is what the identity checks exploit).
    """
    n, mu = mode.n, mode.mu
    pin = 2 * np.pi if n == 0 else np.pi
    jn = bessel_jn(n, mu)
    jnp = bessel_jn_prime(n, mu)
    rad2 = 0.5 * (jnp * jnp + (1.0 - (n / mu) ** 2) * jn * jn)
    return float(np.sqrt(pin * rad2))


def boundary_ratio(mode):
    """Boundary-to-interior norm ratio of the mode.

    Computed from the boundary trace |J_n(mu)| and :func:`interior_norm_disc`;
    exactly sqrt(2) (1 - h^2 n^2)^{-1/2}, which ``identity_checks`` compares
    it with.
    """
    n, mu = mode.n, mode.mu
    pin = 2 * np.pi if n == 0 else np.pi
    trace = np.sqrt(pin) * abs(bessel_jn(n, mu))
    return float(trace / interior_norm_disc(mode))


def weighted_ratio(mode):
    """Spectrally weighted boundary-to-interior ratio, exactly sqrt(2) where
    the weight is in its pure square-root regime (1 - h^2 n^2 >= 2 h^{2/3});
    outside that regime the identity is not exact and this raises."""
    n, h = mode.n, mode.h
    sigma = 1.0 - (h * n) ** 2
    if sigma < 2.0 * h ** (2.0 / 3.0):
        raise DomainError(
            f"mode (n={n}, l={mode.l}) outside the square-root regime: "
            f"sigma={sigma:.4f} < 2 h^(2/3) = {2 * h ** (2 / 3.0):.4f}"
        )
    return float(g_weight(sigma, h) * boundary_ratio(mode))


def quasi_orth_gram_norm(freq_center, M=1024):
    """Operator norm of the frame of weighted boundary traces of all
    L2-normalized disc modes in the frequency window freq_center +- 1.

    Traces are sampled on an M-point circle grid; on the circle the weight
    acts exactly by the scalar g_weight(1 - h^2 n^2) per angular order, so no
    filter matrix enters.  Returns the largest eigenvalue of the Gram matrix
    under the quadrature inner product (equal to the frame operator norm).
    Stays O(1) as the center frequency grows.
    """
    if freq_center < 5:
        raise DomainError("freq_center must be >= 5")
    h = 1.0 / freq_center
    modes = disc_modes_in_window(freq_center - 1.0, freq_center + 1.0)
    n_high = max(m.n for m in modes)
    if M < 4 * (n_high + 1):
        raise DomainError(f"M={M} below Nyquist for angular order {n_high}")
    theta = 2 * np.pi * np.arange(M) / M
    rows = []
    for m in modes:
        amp = bessel_jn(m.n, m.mu) / interior_norm_disc(m)
        angular = np.cos(m.n * theta) if m.parity == "cos" else np.sin(m.n * theta)
        rows.append(g_weight(1.0 - (h * m.n) ** 2, h) * amp * angular)
    T = np.array(rows)
    gram = (T @ T.T) * (2 * np.pi / M)
    return float(np.linalg.eigvalsh(gram)[-1])


def _relative_check(fn, mode, expected):
    """(value, expected, rel_err, ok) of fn(mode) against expected at 1e-10."""
    value = fn(mode)
    err = abs(value - expected) / expected
    return value, expected, err, err <= 1e-10


def identity_checks(nmax=60, lmax=5):
    """The identity suite, one row (check, n, l, parity, value, expected,
    rel_err, ok) per check.

    For every mode with n <= nmax and l <= lmax, both parities: the boundary
    ratio law ("v_ratio") and, inside the square-root regime, its weighted
    form ("v_ratio_2").  Then the quasi-orthogonality frame norm in unit
    windows at frequencies 20, 40 and 80 ("quasi_orth", within [0.3, 6]) and
    their largest ratio ("quasi_orth_spread", below 2).  ``nmax < 0``
    raises ``DomainError``: it would leave only the quasi-orthogonality rows.
    """
    if nmax < 0:
        raise DomainError("nmax must be >= 0")
    rows = []
    sqrt2 = np.sqrt(2.0)
    for n in range(nmax + 1):
        for l, mu in enumerate(jnprime_zeros(n, lmax), start=1):
            for parity in (("cos",) if n == 0 else ("cos", "sin")):
                mode = DiscMode(n=n, l=l, mu=float(mu), parity=parity)
                sigma = 1.0 - (mode.h * n) ** 2
                rows.append(("v_ratio", n, l, parity, *_relative_check(
                    boundary_ratio, mode, sqrt2 / np.sqrt(sigma))))
                if sigma >= 2.0 * mode.h ** (2.0 / 3.0):
                    rows.append(("v_ratio_2", n, l, parity,
                                 *_relative_check(weighted_ratio, mode, sqrt2)))
    norms = {center: quasi_orth_gram_norm(center) for center in (20, 40, 80)}
    for center, norm in norms.items():
        rows.append(("quasi_orth", center, 0, "-", norm, float("nan"),
                     float("nan"), 0.3 <= norm <= 6.0))
    spread = max(norms.values()) / min(norms.values())
    rows.append(("quasi_orth_spread", 0, 0, "-", spread, float("nan"),
                 float("nan"), spread < 2.0))
    return rows
