"""Closed-form recovery constants, conditions, and error bounds.

Each pursuit algorithm has a per-iteration recurrence

    err_l <= rho * err_{l-1} + tau * ||D_{T_e}* e||_2

whose coefficients depend on a restricted-isometry constant delta, a
contraction condition guaranteeing rho <= 1/2, and a final accuracy constant
C with err <= C * ||D_{T_e}* e||_2. Under white Gaussian noise the adversarial
term is replaced by a high-probability bound, giving the near-oracle form
C^2 * 2(1+a) * log(N) * K * sigma^2. log is the natural logarithm throughout
(it comes from the Gaussian maximal inequality).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .linalg import RANK_RCOND

SP_CONDITION = 0.139
COSAMP_CONDITION = 0.1
IHT_CONDITION = 1 / math.sqrt(32)

# the contraction condition of each iterative family: delta <= threshold
CONDITIONS = {"sp": SP_CONDITION, "cosamp": COSAMP_CONDITION, "iht": IHT_CONDITION}

_FAMILIES = ("sp", "cosamp", "iht", "ds")


def _check_delta(delta, below=1.0):
    """The one check of an isometry constant: 0 <= delta < below (so never NaN)."""
    if not 0 <= delta < below:
        raise ValueError(f"delta must lie in [0, {below}), got {delta!r}")


def _check_noise_correlation(value):
    """The one check of a noise correlation ||D_T* e||_2, unless None: finite and nonnegative (so never NaN)."""
    if value is not None and not 0 <= value < math.inf:
        raise ValueError(f"noise correlation must be finite and nonnegative, got {value!r}")


def power_overflows(base, exponent):
    """Whether base**exponent overflows a float, as N**a does for a huge probability exponent a."""
    try:
        return not math.isfinite(float(base) ** exponent)
    except OverflowError:
        return True


@dataclass(frozen=True)
class GuaranteeParams:
    """Inputs shared by the probabilistic bounds."""

    a: float
    n_atoms: int
    k: int
    sigma: float
    delta: float

    def __post_init__(self):
        if self.n_atoms < 2:
            raise ValueError("need at least two atoms")
        if not self.a > 0 or power_overflows(self.n_atoms, self.a):
            raise ValueError(f"probability exponent a must be positive and finite, with N**a finite, got {self.a!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (self.sigma >= 0 and math.isfinite(self.k * self.sigma * self.sigma)):
            raise ValueError(f"sigma must be finite and nonnegative, with k * sigma**2 finite, got {self.sigma!r}")
        _check_delta(self.delta)


@dataclass(frozen=True)
class BoundReport:
    algorithm: str
    condition_met: bool
    constant: float
    probabilistic_bound: float
    success_probability: float
    deterministic_bound: float | None = None


def _recurrence(name, d):
    """The (a, b) pair of each step err <= a err_prev + b nc, then the accuracy constant C.

    sp's steps are merge, prune and their composition (rho, tau); cosamp's and iht's are
    (rho, tau). Every sp and cosamp value is +inf at and past the pole d = 1.
    """
    if name == "iht":
        return (math.sqrt(8) * d, 4.0), 9.0
    if d >= 1:
        return ((math.inf, math.inf),) * (3 if name == "sp" else 1) + (math.inf,)
    sq = (1 - d) ** 2
    if name == "cosamp":
        return (4 * d / sq, (14 - 6 * d) / sq), (29 - 14 * d + d * d) / sq
    cb = (1 - d) ** 3
    return (
        (2 * d / sq, 2 / sq),
        ((1 + d) / (1 - d), 4 / (1 - d)),
        (2 * d * (1 + d) / cb, (6 - 6 * d + 4 * d * d) / cb),
        2 * (7 - 9 * d + 7 * d * d - d**3) / (1 - d) ** 4,
    )


def _constants(name, delta):
    *_, (rho, tau), c = _recurrence(name, float(delta))
    return rho, tau, c


def sp_constants(delta3k):
    """Recurrence coefficients (rho, tau) and accuracy constant C for SP at d = delta3k in [0, 1)."""
    _check_delta(delta3k)
    return _constants("sp", delta3k)


def cosamp_constants(delta4k):
    """(rho, tau, C) for CoSaMP at d = delta4k in [0, 1)."""
    _check_delta(delta4k)
    return _constants("cosamp", delta4k)


def iht_constants(delta3k):
    """(rho, tau, C) for IHT at d = delta3k >= 0; only rho depends on d."""
    _check_delta(delta3k, below=math.inf)
    return _constants("iht", delta3k)


def recurrence_coefficients(algorithm, delta):
    """Pairs (a, b) of the per-iteration inequalities err <= a err_prev + b nc.

    sp gives its merge step, its prune step and their composition (rho, tau);
    cosamp and iht give (rho, tau). Any finite delta >= 0 is accepted: past the
    sp/cosamp pole (delta >= 1) every coefficient is +inf.
    """
    _check_delta(delta, below=math.inf)
    name = _family(algorithm)
    if name == "ds":
        raise ValueError("ds has no iteration recurrence")
    return _recurrence(name, float(delta))[:-1]


def rip_order(algorithm, k):
    """Order of the isometry constant a guarantee reads: 4k for cosamp, k for the oracle, else 3k."""
    name = str(getattr(algorithm, "value", algorithm)).lower()
    return k if name == "oracle" else (4 if _family(name) == "cosamp" else 3) * k


def ds_constant(delta3k):
    """Accuracy constant 4 / (1 - 2d) of the Dantzig-selector style bound."""
    _check_delta(delta3k, below=0.5)
    return 4.0 / (1.0 - 2.0 * float(delta3k))


def _family(algorithm):
    name = getattr(algorithm, "value", algorithm)
    name = str(name).lower()
    if name not in _FAMILIES:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {_FAMILIES}")
    return name


def condition_check(algorithm, delta, second_delta=None):
    """Whether the contraction condition of the given family holds.

    sp: delta_3K <= 0.139; cosamp: delta_4K <= 0.1; iht: delta_3K <= 1/sqrt(32);
    ds: delta_2K + delta_3K <= 1 (pass both values, order irrelevant).
    """
    name = _family(algorithm)
    _check_delta(delta, below=math.inf)
    if name in CONDITIONS:
        return bool(delta <= CONDITIONS[name])
    if second_delta is None:
        raise ValueError("the ds condition needs both delta_2K and delta_3K")
    _check_delta(second_delta, below=math.inf)
    return bool(delta + second_delta <= 1.0)


def near_oracle_bound(c, params):
    """High-probability squared-error bound C^2 * 2(1+a) * ln(N) * K * sigma^2."""
    return c * c * 2.0 * (1.0 + params.a) * math.log(params.n_atoms) * params.k * params.sigma**2


def success_probability(a, n_atoms):
    """1 - 1 / (sqrt(pi (1+a) ln N) * N^a), the bounds' coverage probability."""
    if not a > 0:
        raise ValueError("probability exponent a must be positive")
    if n_atoms < 2:
        raise ValueError("need at least two atoms")
    return 1.0 - 1.0 / (math.sqrt(math.pi * (1.0 + a) * math.log(n_atoms)) * n_atoms**a)


def oracle_mse_bound(k, delta_k, sigma):
    """K sigma^2 / (1 - delta_K), the closed-form oracle MSE bound."""
    _check_delta(delta_k)
    return k * sigma * sigma / (1.0 - float(delta_k))


def oracle_mse_exact(D, T, sigma):
    """trace{(D_T* D_T)^-1} sigma^2, the exact oracle mean squared error."""
    sub = D.columns(T)
    if sub.shape[1] == 0:
        return 0.0
    if sub.shape[1] > D.m:
        raise RankDeficient(f"|T| = {sub.shape[1]} exceeds m = {D.m}")
    eigs = np.linalg.eigvalsh(sub.T @ sub)
    if eigs[0] <= 0 or eigs[0] / eigs[-1] < RANK_RCOND**2:  # lstsq's rank cut, on the eigenvalues of D_T* D_T
        raise RankDeficient("Gram matrix of D_T is numerically singular")
    return float(np.sum(1.0 / eigs)) * sigma * sigma


def bound_report(algorithm, params, noise_correlation=None, second_delta=None):
    """Assemble constants, bounds, and condition flags for one algorithm.

    `params.delta` is the family's relevant constant (delta_3K for sp/iht/ds,
    delta_4K for cosamp). Bounds are evaluated even when the condition fails;
    condition_met = False marks them as non-guarantees.
    """
    name = _family(algorithm)
    _check_noise_correlation(noise_correlation)
    c = ds_constant(params.delta) if name == "ds" else _constants(name, params.delta)[2]
    det = None if noise_correlation is None else c * float(noise_correlation)
    return BoundReport(
        algorithm=name,
        condition_met=condition_check(name, params.delta, second_delta),
        constant=c,
        probabilistic_bound=near_oracle_bound(c, params),
        success_probability=success_probability(params.a, params.n_atoms),
        deterministic_bound=det,
    )
