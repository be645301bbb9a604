"""Closed-form spectrum and ladder-algebra quantities of the trigonometric
Poschl-Teller well.

The model is H = p^2/2m + V0/cos^2(kx) on the box (-pi/2k, pi/2k), with
V0 = eps nu (nu - 1) and eps = hbar^2 k^2 / 2m.  The bound spectrum is
E_n = eps (n + nu)^2, and ladder operators b, b+ close on H through two
deforming functions, with an auxiliary h entering the Casimir invariant.
Sign conventions used throughout the package:

    [H, b+] = g(H) b+,   g(E) = -eps + 2 sqrt(eps E)
    [b, b+] = -f(H),    -f(E) = 1 + 2 s + nu (nu - 1) / (s (s - 1))
    C = b b+ + h(H),     h(E) = -(1 + s)^2 + nu (nu - 1) / s

where s = sqrt(E/eps).  At nu = 1 (square well) the nu(nu-1)/D terms with
nonzero D vanish, while the two spots where D itself degenerates to
nu(nu-1) -- f at the ground energy and the coefficient recursion at n = 1
-- take the value 1, the bottom-of-tower value the matrices realize.
`energy` and the level functions g, f and h take one value or a numpy
array of them, entry by entry in the same arithmetic, and a float gives a
float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ModelParams",
    "nu_from_v0",
    "energy",
    "g_of",
    "f_of",
    "f_of_uncorrected",
    "h_of",
    "alpha",
    "alpha_by_recursion",
    "casimir_eigenvalue",
    "su11_matrix_elements",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the well. ``nu >= 1`` selects the branch with
    hard walls; ``nu = 1`` is the plain infinite square well."""

    hbar: float = 1.0
    mass: float = 0.5
    k: float = 1.0
    nu: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "k", "nu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.hbar <= 0.0 or self.mass <= 0.0 or self.k <= 0.0:
            raise ValueError("hbar, mass and k must all be positive")
        if self.nu < 1.0:
            raise ValueError(f"nu must satisfy nu >= 1, got {self.nu}")
        try:
            eps = self.epsilon
        except OverflowError:  # float ** raises where * returns inf
            eps = math.inf
        if not 0.0 < eps < math.inf:
            raise ValueError(
                f"epsilon = hbar^2 k^2 / 2m must be positive and finite, got {eps} "
                f"(hbar={self.hbar}, mass={self.mass}, k={self.k})"
            )

    @property
    def epsilon(self) -> float:
        """Energy scale hbar^2 k^2 / 2m."""
        return self.hbar**2 * self.k**2 / (2.0 * self.mass)

    @property
    def v0(self) -> float:
        """Well strength eps nu (nu - 1)."""
        return self.epsilon * self.nu * (self.nu - 1.0)

    @property
    def box(self) -> tuple[float, float]:
        half = 0.5 * math.pi / self.k
        return (-half, half)

    @classmethod
    def from_v0(cls, v0: float, hbar: float = 1.0, mass: float = 0.5, k: float = 1.0) -> "ModelParams":
        units = cls(hbar=hbar, mass=mass, k=k)
        return replace(units, nu=nu_from_v0(v0, units.epsilon))

    def strength(self) -> float:
        """The combination nu (nu - 1); exactly 0.0 at nu = 1."""
        return self.nu * (self.nu - 1.0)


def nu_from_v0(v0: float, epsilon: float) -> float:
    """Upper root of nu (nu - 1) = V0/eps; inverse of ``ModelParams.v0``."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not math.isfinite(v0):
        raise ValueError(f"v0 must be finite, got {v0}")
    if v0 < 0.0:
        raise ValueError(f"v0 must be >= 0, got {v0}")
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * v0 / epsilon))


def energy(params: ModelParams, n):
    """Bound-state energy E_n = eps (n + nu)^2 of a level index, or of each
    entry of an integer array of them.  The square is s * s, s = n + nu, in
    both forms, so a float and the entry of an array agree bit for bit."""
    if np.any(n < 0):
        raise ValueError(f"level index must be >= 0, got {np.min(n)}")
    s = n + params.nu
    return params.epsilon * (s * s)


def _sqrt(x):
    """math.sqrt of a float, np.sqrt of an array: both correctly rounded,
    and a float gives a Python float."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _sqrt_ratio(params: ModelParams, e):
    if np.any(e <= 0.0):
        raise ValueError(f"energy argument must be positive, got {np.min(e)}")
    return _sqrt(e / params.epsilon)


def _strength_over(params: ModelParams, denom):
    """nu (nu - 1) / denom, entry by entry, resolved continuously at the
    square-well point.

    Every denominator this ratio meets in this package degenerates, when it
    degenerates at all, to nu (nu - 1) itself (the f term at the ground
    energy has s (s - 1) = nu (nu - 1); the coefficient recursion at n = 1
    has (n + nu - 1)(n + nu - 2) = nu (nu - 1)).  The 0/0 at nu = 1 is
    therefore a ratio of equal factors and its consistent value is 1 -- the
    value the ladder matrices actually realize at the bottom of the tower.
    A vanishing numerator over a nonzero denominator is plain 0, and a pole
    with nonzero numerator is a genuine error.
    """
    num = params.strength()
    pole = denom == 0.0  # a bool, or a bool array
    if num == 0.0:
        return pole * 1.0  # 1 at each vanishing denominator, 0 elsewhere
    if np.any(pole):
        raise ZeroDivisionError(
            "deforming function evaluated at its pole away from nu = 1"
        )
    return num / denom


def g_of(params: ModelParams, e):
    """Grading shift g(E) = -eps + 2 sqrt(eps E), so E_n - g(E_n) = E_{n-1}."""
    s = _sqrt_ratio(params, e)
    return params.epsilon * (2.0 * s - 1.0)


def f_of(params: ModelParams, e):
    """Deforming function f in [b, b+] = -f(H).

    The positive combination is -f(E) = 1 + 2s + nu(nu-1)/(s(s-1)) with
    s = sqrt(E/eps); this returns f itself, i.e. the negative of that.
    """
    s = _sqrt_ratio(params, e)
    return -(1.0 + 2.0 * s + _strength_over(params, s * (s - 1.0)))


def f_of_uncorrected(params: ModelParams, e):
    """The f that drops the nu(nu-1)/(s(s-1)) term.

    Using this in [b, b+] = -f(H) leaves an order-one defect for nu > 1;
    it coincides with `f_of` only at nu = 1.
    """
    s = _sqrt_ratio(params, e)
    return -(1.0 + 2.0 * s)


def h_of(params: ModelParams, e):
    """Casimir companion h(E) = -(1 + s)^2 + nu(nu-1)/s, s = sqrt(E/eps)."""
    s = _sqrt_ratio(params, e)
    t = 1.0 + s
    return -(t * t) + _strength_over(params, s)


def alpha(params: ModelParams, n: int) -> float:
    """Ladder matrix element: b psi_n = alpha_n psi_{n-1}, alpha_0 = 0.

    alpha_n = sqrt( n (n + nu) (n + 2 nu - 1) / (n + nu - 1) ) with the
    numerator evaluated first, so the n = 0, nu = 1 case is 0 rather
    than 0/0.
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    if n == 0:
        return 0.0
    nu = params.nu
    return math.sqrt(n * (n + nu) * (n + 2.0 * nu - 1.0) / (n + nu - 1.0))


def alpha_by_recursion(params: ModelParams, n_max: int) -> list[float]:
    """alpha_0..alpha_{n_max} from the difference equation

        |alpha_n|^2 = |alpha_{n-1}|^2 + 2n + 2 nu - 1
                      + nu(nu-1) / ((n + nu - 1)(n + nu - 2))

    seeded with alpha_0 = 0.  Independent of the closed form in `alpha`.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    nu = params.nu
    out = [0.0]
    sq = 0.0
    for n in range(1, n_max + 1):
        # Group the integers first: (n-2) + nu stays exact when nu is a
        # hair above 1, where n + nu - 2.0 at n = 1 can round to zero and
        # fake a pole.
        denom = ((n - 1) + nu) * ((n - 2) + nu)
        sq += 2.0 * n + 2.0 * nu - 1.0 + _strength_over(params, denom)
        out.append(math.sqrt(sq))
    return out


def casimir_eigenvalue(params: ModelParams) -> float:
    """Scalar value of C = b b+ + h(H) on the bound tower: -nu(nu-1)."""
    return -params.strength()


def su11_matrix_elements(params: ModelParams, n: int) -> tuple[float, float]:
    """(J0 eigenvalue, J+ matrix element) at level n for the undeformed
    su(1,1) generators J0 = sqrt(H/eps), J+ = b+ (J0/(J0+1))^(1/2).

    J0 |n> = (n + nu) |n> and <n+1| J+ |n> = sqrt((n+1)(n+2 nu)).
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    nu = params.nu
    j0 = n + nu
    jplus = alpha(params, n + 1) * math.sqrt((n + nu) / (n + nu + 1.0))
    return (j0, jplus)
