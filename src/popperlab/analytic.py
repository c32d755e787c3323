"""Closed-form spreads for the entangled pair and its measured reduction.

The source emits a two-particle Gaussian state whose amplitude factorizes in
the relative and centre-of-mass coordinates,

    ψ(y₁, y₂) ∝ exp(−(y₁−y₂)² σ²/ħ²) · exp(−(y₁+y₂)²/16Ω₀²),

so every spread below is exact Gaussian algebra.  With a = σ²/ħ²,
b = 1/16Ω₀² and c = 1/4ε² (pointer width ε), the pre-measurement marginals
are Δy = √(Ω₀² + ħ²/16σ²) and Δp_y = √(σ² + ħ²/16Ω₀²) for either particle.
Detecting particle 1 behind a Gaussian pointer of width ε collapses particle
2 to a Gaussian of width Ω with 1/4Ω² = (4ab + (a+b)c)/(a+b+c), and the
remote momentum spread ħ/2Ω never exceeds the pre-measurement value: the
measurement at station A cannot *add* momentum spread at station B.  The two
coincide exactly when Ω₀ = ħ/4σ, where the pair factorizes.

The pair is a two-mode Gaussian, so its Schmidt spectrum is geometric:
λₙ² = (1−μ)μⁿ with μ = ((√a−√b)/(√a+√b))² (Law, Walmsley & Eberly, PRL 84,
5304 (2000)), and the entanglement entropy is −ln(1−μ) − μ ln μ/(1−μ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .params import PhysicalParams
from .wavefunction import SCHMIDT_TRUNCATION

# A "strong correlation" source satisfies σ >> ħ/4Ω₀; a "narrow slit"
# satisfies ε << Ω₀.  Both >> and << are operationalized as this factor.
STRONG_CORRELATION_FACTOR = 40.0


@dataclass(frozen=True, slots=True)
class InitialSpreads:
    """Pre-measurement position and momentum spreads of both particles."""

    dy1: float
    dy2: float
    dp1y: float
    dp2y: float


@dataclass(frozen=True, slots=True)
class ReducedStateClosedForm:
    """Spreads after the Gaussian-pointer reduction of particle 1."""

    omega: float
    alpha: float
    dy2: float
    dp2y: float
    dp1y: float


@dataclass(frozen=True, slots=True)
class StrongCorrelationApprox:
    """Narrow-slit approximation ħ/√(ħ²/σ² + 4ε²) plus regime applicability."""

    value: float
    regime_ok: bool


class _PairSpectrum(NamedTuple):
    """The pair's exponents a = σ²/ħ², b = 1/16Ω₀² and its Schmidt spectrum.

    μ, the entropy and the mode count are read on demand, so a caller of a
    and b meets no failure of theirs.
    """

    a: float
    b: float

    @property
    def mu(self) -> float:
        ra, rb = math.sqrt(self.a), math.sqrt(self.b)
        return ((ra - rb) / (ra + rb)) ** 2

    @property
    def entropy(self) -> float:
        mu = self.mu
        if mu == 0.0:
            return 0.0
        if mu == 1.0:
            return math.inf
        return -math.log(1.0 - mu) - mu / (1.0 - mu) * math.log(mu)

    @property
    def modes(self) -> float:
        """Modes with λₙ/λ₀ = μ^{n/2} >= SCHMIDT_TRUNCATION; inf once μ rounds to 1."""
        mu = self.mu
        if mu == 0.0:
            return 1
        if mu == 1.0:
            return math.inf
        return math.floor(2.0 * math.log(SCHMIDT_TRUNCATION) / math.log(mu)) + 1


def _pair_spectrum(params: PhysicalParams) -> _PairSpectrum:
    """The one owner of the pair's exponents a and b."""
    return _PairSpectrum(params.sigma ** 2 / params.hbar ** 2,
                         1.0 / (16.0 * params.omega0 ** 2))


def initial_spreads(params: PhysicalParams) -> InitialSpreads:
    """Marginal spreads of the symmetric pair state; identical for 1 and 2."""
    sigma, omega0, hbar = params.sigma, params.omega0, params.hbar
    dy = math.sqrt(omega0 ** 2 + hbar ** 2 / (16.0 * sigma ** 2))
    dp = math.sqrt(sigma ** 2 + hbar ** 2 / (16.0 * omega0 ** 2))
    return InitialSpreads(dy1=dy, dy2=dy, dp1y=dp, dp2y=dp)


def reduced_spreads(params: PhysicalParams, eps: float) -> ReducedStateClosedForm:
    """Closed-form spreads of particle 2 after the pointer sees particle 1.

    Both radicals are the printed closed forms; Δp₂y · Δy₂ = ħ/2 holds
    identically because the reduced state is a pure Gaussian.
    """
    sigma, omega0, hbar = params.sigma, params.omega0, params.hbar
    s2, w2, e2, h2 = sigma ** 2, omega0 ** 2, eps ** 2, hbar ** 2
    alpha = s2 / h2 + 1.0 / (16.0 * w2) + 1.0 / (4.0 * e2)
    omega = math.sqrt(
        (e2 * (1.0 + h2 / (16.0 * s2 * w2)) + h2 / (4.0 * s2))
        / (1.0 + e2 / w2 + h2 / (16.0 * s2 * w2))
    )
    dp2y = math.sqrt(
        (s2 * (1.0 + e2 / w2) + h2 / (16.0 * w2))
        / (1.0 + 4.0 * e2 * (s2 / h2 + 1.0 / (16.0 * w2)))
    )
    return ReducedStateClosedForm(
        omega=omega,
        alpha=alpha,
        dy2=omega,
        dp2y=dp2y,
        dp1y=hbar / (2.0 * eps),
    )


def limit_dp2_eps_to_zero(params: PhysicalParams) -> float:
    """ε → 0 limit of the post-measurement Δp₂y: the pre-measurement spread."""
    return initial_spreads(params).dp2y


def approx_dp2_strong_correlation(params: PhysicalParams, eps: float) -> StrongCorrelationApprox:
    """Narrow-slit, strong-correlation approximation of the remote spread."""
    sigma, omega0, hbar = params.sigma, params.omega0, params.hbar
    value = hbar / math.sqrt(hbar ** 2 / sigma ** 2 + 4.0 * eps ** 2)
    regime_ok = (
        sigma >= STRONG_CORRELATION_FACTOR * hbar / (4.0 * omega0)
        and eps <= omega0 / STRONG_CORRELATION_FACTOR
    )
    return StrongCorrelationApprox(value=value, regime_ok=regime_ok)


def is_disentangled(params: PhysicalParams) -> bool:
    """True iff Ω₀ = ħ/4σ to 1e-12 relative, where the pair state factorizes."""
    pivot = params.hbar / (4.0 * params.sigma)
    return abs(params.omega0 - pivot) <= 1e-12 * pivot


def position_correlation(params: PhysicalParams) -> float:
    """Pearson correlation of y₁ and y₂: (Ω₀² − ħ²/16σ²)/(Ω₀² + ħ²/16σ²)."""
    w2 = params.omega0 ** 2
    q = params.hbar ** 2 / (16.0 * params.sigma ** 2)
    return (w2 - q) / (w2 + q)
