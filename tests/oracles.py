"""Independent oracles and frozen reference values.

Everything here is computed WITHOUT the package's grid/FFT machinery:
adaptive quadrature (scipy.integrate) on the analytic integrands, with the
momentum route going through the analytic derivative of the pair amplitude
(differentiation under the integral), plus straight-from-the-paper-trail
reference implementations of the generators, a searchsorted inverse-CDF
sampler, a row-materializing joint sampler (which borrows only the package's
row-block partition), and grid-state moments with every
continuum normalization written out.  Frozen constants below were
produced by these functions; ``python oracles.py`` regenerates them.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.integrate
from scipy.integrate import dblquad, quad

from popperlab.wavefunction import _blocks

M64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Reference random generators, written independently from the published
# recurrences (splitmix64, xoshiro256**).  Pure ints, no numpy.

def ref_splitmix64(seed: int, count: int) -> list[int]:
    out = []
    x = seed & M64
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & M64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & M64


def ref_xoshiro256ss(state: list[int], count: int) -> list[int]:
    s0, s1, s2, s3 = state
    out = []
    for _ in range(count):
        out.append((_rotl((s1 * 5) & M64, 7) * 9) & M64)
        t = (s1 << 17) & M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
    return out


def ref_jump(state: list[int]) -> list[int]:
    """The reference xoshiro256 jump(): the state 2^128 steps on."""
    s0, s1, s2, s3 = state
    a0 = a1 = a2 = a3 = 0
    for word in XOSHIRO256_JUMP:
        for b in range(64):
            if (word >> b) & 1:
                a0, a1, a2, a3 = a0 ^ s0, a1 ^ s1, a2 ^ s2, a3 ^ s3
            t = (s1 << 17) & M64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = _rotl(s3, 45)
    return [a0, a1, a2, a3]


def ref_uniforms(seed: int, count: int) -> np.ndarray:
    """Doubles (u64 >> 11) * 2^-53 from xoshiro256** seeded by splitmix64."""
    draws = ref_xoshiro256ss(ref_splitmix64(seed, 4), count)
    return np.array([(x >> 11) * 2.0 ** -53 for x in draws])


# First outputs of splitmix64 from seed 0; the leading value is the widely
# published check constant for this generator.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]

# xoshiro256** outputs from state [1, 2, 3, 4].  The first three are easy to
# reproduce by hand: rotl(2*5,7)*9 = 11520, then s1 becomes 0, then 262149*5
# rotated and scaled gives 1509978240.
XOSHIRO_STATE1234 = [
    11520,
    0,
    1509978240,
    1215971899390074240,
    1216172134540287360,
    607988272756665600,
]

# The published xoshiro256 jump() constants (Blackman & Vigna's reference C
# code): bit k of word i is the coefficient of x^(64i + k) in x^(2^128) mod
# the transition's characteristic polynomial.
XOSHIRO256_JUMP = [
    0x180EC6D33CFD0ABA,
    0xD5A61266F0C9392C,
    0xA9582618E03FC9AA,
    0x39ABDC4529B1661C,
]


# ---------------------------------------------------------------------------
# Reference samplers.  Slit mode inverts the cumulative trapezoid of |psi|^2
# with searchsorted.  Coincidence mode draws y1 by inverting the marginal's
# cumulative trapezoid the same way, then y2 by inverting the conditional
# cumulative trapezoid blended between the two neighbouring y1 rows, with
# every blended row built in full.

def _ref_invert(y, c, u, dy):
    idx = np.clip(np.searchsorted(c, u, side="right") - 1, 0, len(c) - 2)
    denom = c[idx + 1] - c[idx]
    frac = np.where(denom > 0, (u - c[idx]) / np.where(denom > 0, denom, 1.0), 0.0)
    frac = np.clip(frac, 0.0, 1.0)
    return y[idx] + frac * dy, idx, frac


def ref_sample_positions(wf, u: np.ndarray) -> np.ndarray:
    """Slit-mode draws of a WaveFunction1D for the given uniforms."""
    g = wf.grid
    dens = np.abs(wf.amps) ** 2
    c = np.concatenate(([0.0], np.cumsum(0.5 * (dens[:-1] + dens[1:]) * g.dy)))
    if c[-1] <= 0:
        raise ValueError("density integrates to zero")
    y = np.linspace(g.y_min, g.y_max, g.n_points)
    return _ref_invert(y, c / c[-1], u, g.dy)[0]


def ref_sample_joint(psi, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """(y1, y2) pairs of a WaveFunction2D for the given y1 and y2 uniforms."""
    g1, g2 = psi.grid1, psi.grid2
    dens = np.abs(psi.amps) ** 2
    w2 = np.full(g2.n_points, g2.dy)
    w2[0] *= 0.5
    w2[-1] *= 0.5
    # Row blocks, as the block reader takes y1's marginal: a whole-array
    # product's last bits depend on the BLAS thread count.
    marginal = np.concatenate([dens[b] @ w2 for b in _blocks(*dens.shape)])
    c1 = np.concatenate(([0.0], np.cumsum(0.5 * (marginal[:-1] + marginal[1:]) * g1.dy)))
    if c1[-1] <= 0:
        raise ValueError("density integrates to zero")
    y1 = np.linspace(g1.y_min, g1.y_max, g1.n_points)
    y2grid = np.linspace(g2.y_min, g2.y_max, g2.n_points)
    seg = 0.5 * (dens[:, :-1] + dens[:, 1:]) * g2.dy
    rows = np.concatenate((np.zeros((dens.shape[0], 1)), np.cumsum(seg, axis=1)), axis=1)

    n = len(u1)
    out = np.empty((n, 2))
    out[:, 0], idx1, frac1 = _ref_invert(y1, c1 / c1[-1], u1, g1.dy)
    chunk = 4096  # bounds the chunk x N temporaries; results do not depend on it
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        i = idx1[lo:hi]
        f = frac1[lo:hi, None]
        cond = rows[i, :] * (1.0 - f) + rows[i + 1, :] * f
        total = cond[:, -1:]
        total = np.where(total > 0, total, 1.0)
        target = u2[lo:hi, None] * total
        j = np.clip((cond <= target).sum(axis=1) - 1, 0, rows.shape[1] - 2)
        take = np.arange(len(i))
        denom = cond[take, j + 1] - cond[take, j]
        frac2 = np.where(denom > 0, (target[:, 0] - cond[take, j]) / np.where(denom > 0, denom, 1.0), 0.0)
        out[lo:hi, 1] = y2grid[j] + np.clip(frac2, 0.0, 1.0) * g2.dy
    return out


# ---------------------------------------------------------------------------
# Reference pair amplitude: the closed form written out of place, one new
# array per operation.

def ref_joint_amplitude(y1, y2, sigma: float, omega0: float, hbar: float = 1.0):
    """exp(-(y1-y2)^2 sigma^2/hbar^2 - (y1+y2)^2/(16 omega0^2))."""
    rel = (y1 - y2) ** 2 * sigma ** 2 / hbar ** 2
    com = (y1 + y2) ** 2 / (16.0 * omega0 ** 2)
    return np.exp(-rel - com)


# ---------------------------------------------------------------------------
# Quadrature oracles for the pair state exp(-a(y1-y2)^2 - b(y1+y2)^2),
# a = sigma^2/hbar^2, b = 1/(16 omega0^2), and its pointer reduction.

def oracle_initial_spreads(sigma: float, omega0: float,
                           hbar: float = 1.0) -> tuple[float, float]:
    """(position std, momentum std) of particle 2 by adaptive 2D quadrature."""
    a = sigma ** 2 / hbar ** 2
    b = 1.0 / (16.0 * omega0 ** 2)

    def psi(y1, y2):
        return math.exp(-a * (y1 - y2) ** 2 - b * (y1 + y2) ** 2)

    def dpsi(y1, y2):
        # analytic d/dy2 of the exponent
        return psi(y1, y2) * (2 * a * (y1 - y2) - 2 * b * (y1 + y2))

    L = 12.0 * max(omega0, hbar / (4.0 * sigma), 1.0)
    kw = dict(epsabs=1e-14, epsrel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        n2 = dblquad(lambda y1, y2: psi(y1, y2) ** 2, -L, L, -L, L, **kw)[0]
        m2 = dblquad(lambda y1, y2: y2 ** 2 * psi(y1, y2) ** 2,
                     -L, L, -L, L, **kw)[0]
        p2 = dblquad(lambda y1, y2: dpsi(y1, y2) ** 2, -L, L, -L, L, **kw)[0]
    return math.sqrt(m2 / n2), hbar * math.sqrt(p2 / n2)


def oracle_reduced_spreads(sigma: float, omega0: float, eps: float,
                           hbar: float = 1.0) -> tuple[float, float]:
    """Same two numbers after projecting particle 1 on the Gaussian pointer.

    phi2(y2) and its y2-derivative are both evaluated as 1D integrals over
    y1 (derivative taken analytically under the integral sign), then the
    moments are 1D integrals over y2.  No grids, no FFT anywhere.
    """
    a = sigma ** 2 / hbar ** 2
    b = 1.0 / (16.0 * omega0 ** 2)

    def psi(y1, y2):
        return math.exp(-a * (y1 - y2) ** 2 - b * (y1 + y2) ** 2)

    def pointer(y1):
        return math.exp(-y1 ** 2 / (4.0 * eps ** 2))

    L1 = 12.0 * max(omega0, eps, 1.0)
    L2 = 12.0 * max(omega0, 1.0)
    kw = dict(epsabs=1e-15, epsrel=1e-13, limit=300)

    def phi2(y2):
        return quad(lambda y1: pointer(y1) * psi(y1, y2), -L1, L1, **kw)[0]

    def dphi2(y2):
        return quad(lambda y1: pointer(y1) * psi(y1, y2)
                    * (2 * a * (y1 - y2) - 2 * b * (y1 + y2)), -L1, L1, **kw)[0]

    with warnings.catch_warnings():
        # tolerances are set at the roundoff limit on purpose
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        n2 = quad(lambda y2: phi2(y2) ** 2, -L2, L2, **kw)[0]
        m2 = quad(lambda y2: y2 ** 2 * phi2(y2) ** 2, -L2, L2, **kw)[0]
        p2 = quad(lambda y2: dphi2(y2) ** 2, -L2, L2, **kw)[0]
    return math.sqrt(m2 / n2), hbar * math.sqrt(p2 / n2)


def oracle_schmidt_entropy(sigma: float, omega0: float, hbar: float = 1.0) -> float:
    """Entanglement entropy from the geometric Schmidt spectrum.

    For exp(-k(y1^2+y2^2) + 2g*y1*y2) the Schmidt values are (1-mu)*mu^n
    with mu = ((sqrt(a)-sqrt(b))/(sqrt(a)+sqrt(b)))^2 -- a textbook result
    for two-mode Gaussians, derivable from the Mehler kernel expansion.
    """
    a = sigma ** 2 / hbar ** 2
    b = 1.0 / (16.0 * omega0 ** 2)
    mu = ((math.sqrt(a) - math.sqrt(b)) / (math.sqrt(a) + math.sqrt(b))) ** 2
    if mu == 0.0:
        return 0.0
    return -math.log(1.0 - mu) - mu / (1.0 - mu) * math.log(mu)


# ---------------------------------------------------------------------------
# Reference moments of a grid state, written with every continuum constant
# spelled out: ψ̃ = FFT·dy/√(2π) on the wavenumber step dk = 2π/(N dy), and
# the transformed density matrix's diagonal scaled by N dy²/(2π).  The
# package drops these constants because they cancel in the moments.

def _ref_trap_weights(g) -> np.ndarray:
    w = np.full(g.n_points, g.dy)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _ref_axis(wf, particle):
    """(grid of the particle, grid of its partner or None, axis)."""
    if wf.amps.ndim == 1:
        return wf.grid, None, 0
    return (wf.grid1, wf.grid2, 0) if particle == 1 else (wf.grid2, wf.grid1, 1)


def _ref_marginal(values, other, axis):
    if other is None:
        return values
    w = _ref_trap_weights(other)
    return values @ w if axis == 0 else w @ values


def ref_position_stats(wf, particle=None) -> tuple[float, float]:
    """(mean, std) of position under |ψ|² quadrature."""
    g, other, axis = _ref_axis(wf, particle)
    dens = _ref_marginal(np.abs(wf.amps) ** 2, other, axis)
    y = np.linspace(g.y_min, g.y_max, g.n_points)
    w = _ref_trap_weights(g)
    total = np.sum(w * dens)
    mean = float(np.sum(w * y * dens) / total)
    var = float(np.sum(w * (y - mean) ** 2 * dens) / total)
    return mean, math.sqrt(max(var, 0.0))


def _ref_momentum_std(g, pk, hbar):
    k = 2.0 * np.pi * np.fft.fftfreq(g.n_points, d=g.dy)
    dk = 2.0 * math.pi / (g.n_points * g.dy)
    total = float(np.sum(pk) * dk)
    mean = float(np.sum(hbar * k * pk) * dk / total)
    var = float(np.sum((hbar * k - mean) ** 2 * pk) * dk / total)
    return math.sqrt(max(var, 0.0))


def ref_momentum_std_spectral(wf, particle=None, hbar: float = 1.0) -> float:
    """Momentum spread from the normalized continuum transform |ψ̃(k)|²."""
    g, other, axis = _ref_axis(wf, particle)
    psit = np.fft.fft(wf.amps, axis=axis) * g.dy / math.sqrt(2.0 * math.pi)
    return _ref_momentum_std(g, _ref_marginal(np.abs(psit) ** 2, other, axis), hbar)


def ref_momentum_std_derivative(wf, particle=None, hbar: float = 1.0) -> float:
    """Momentum spread from ψ*(−iħ∂)ψ and ψ*(−ħ²∂²)ψ with 4th-order central
    stencils applied to the whole array, integrated by the trapezoid rule."""
    g, other, axis = _ref_axis(wf, particle)
    a = wf.amps
    h = g.dy

    def shifted(k):
        return np.roll(a, -k, axis=axis)

    d1 = (-shifted(2) + 8.0 * shifted(1) - 8.0 * shifted(-1) + shifted(-2)) / (12.0 * h)
    d2 = (-shifted(2) + 16.0 * shifted(1) - 30.0 * a + 16.0 * shifted(-1)
          - shifted(-2)) / (12.0 * h * h)
    w = _ref_trap_weights(g)

    def integral(values):
        return np.sum(w * _ref_marginal(values, other, axis))

    total = float(integral(np.abs(a) ** 2))
    p1 = float(np.real(integral(np.conj(a) * (-1j * hbar) * d1))) / total
    p2 = float(np.real(integral(np.conj(a) * (-(hbar ** 2)) * d2))) / total
    return math.sqrt(max(p2 - p1 ** 2, 0.0))


def ref_reduced_density_momentum_std(psi, particle: int, hbar: float = 1.0) -> float:
    """Momentum spread off the transformed reduced density matrix's diagonal."""
    g, other, _ = _ref_axis(psi, particle)
    a = psi.amps
    w = _ref_trap_weights(other)
    if particle == 2:
        rho = (a * w[:, None]).T @ a.conj()
    else:
        rho = (a * w[None, :]) @ a.conj().T
    s2 = np.fft.ifft(np.fft.fft(rho, axis=0), axis=1)
    pk = np.real(np.diagonal(s2)).copy() * g.n_points * g.dy ** 2 / (2.0 * math.pi)
    return _ref_momentum_std(g, pk, hbar)


def _ref_norm(amps, g1, g2) -> float:
    marginal = np.abs(amps) ** 2 @ _ref_trap_weights(g2)
    return float(np.sqrt(np.sum(_ref_trap_weights(g1) * marginal)))


def ref_aperture_postselect(psi, profile) -> tuple[np.ndarray, float]:
    """(surviving amplitudes, pass probability) of a y₁ aperture, from both norms.

    The cut pair is divided by its own norm, and the pass probability is the
    squared ratio of that norm to the uncut pair's.
    """
    g1 = psi.grid1
    t = profile.transmission(np.linspace(g1.y_min, g1.y_max, g1.n_points))
    cut = t[:, None] * psi.amps
    n_after = _ref_norm(cut, psi.grid1, psi.grid2)
    return cut / n_after, float((n_after / _ref_norm(psi.amps, psi.grid1, psi.grid2)) ** 2)


# Frozen outputs of the functions above (17 significant digits as printed by
# the regeneration run; agreement with closed forms was at machine epsilon).
INITIAL_ORACLE = {
    # (sigma, omega0): (dy2, dp2y)
    (1.0, 2.0): (2.0155644370746373, 1.0077822185373186),
    (0.7, 0.4): (0.5362378394035274, 0.938416218956173),
    (3.0, 0.5): (0.5068968775248527, 3.041381265149114),
}

REDUCED_ORACLE = {
    # (sigma, omega0, eps): (dy2, dp2y)
    (1.0, 2.0, 0.5): (0.6836602258050604, 0.7313574508612275),
    (0.7, 0.4, 0.3): (0.5336311105643694, 0.936976855549518),
    (3.0, 0.5, 1.2): (0.47130805394720526, 1.0608772666040815),
}

SCHMIDT_ENTROPY_ORACLE = {
    (1.0, 2.0): 1.6983636884829871,
    (0.7, 0.4): 0.021669928529488413,
}

# Free-flight width law w(t) = w0*sqrt(1+(hbar*t/(2*m*w0^2))^2) evaluated at
# w0 = 1/(2*sqrt(2)), m = hbar = 1: the scale factors are sqrt(5), sqrt(17),
# sqrt(65) for t = 0.5, 1, 2.  Values checked in exact rational arithmetic
# (Fraction) with a single final rounding.
SPREADING_W0 = 0.35355339059327373
SPREADING_WIDTHS = {
    0.5: 0.7905694150420949,
    1.0: 1.4577379737113252,
    2.0: 2.8504385627478452,
}


if __name__ == "__main__":
    for (s, o) in sorted(INITIAL_ORACLE):
        print((s, o), oracle_initial_spreads(s, o))
    for (s, o, e) in sorted(REDUCED_ORACLE):
        print((s, o, e), oracle_reduced_spreads(s, o, e))
    for (s, o) in sorted(SCHMIDT_ENTROPY_ORACLE):
        print((s, o), oracle_schmidt_entropy(s, o))
