"""Detector-plane statistics: seeded sampling, histograms and scenario runs.

Sampling draws positions from |ψ|² by inverting the cumulative trapezoid of
the grid density with linear interpolation inside cells, driven by the
portable xoshiro generator, so a (config, seed) pair pins every count in the
output bit-for-bit.  Coincidence runs sample the joint density by drawing y₁
from its marginal and then y₂ from the conditional slice, blended linearly
between the two neighbouring grid rows; the stream is consumed as n uniforms
for the y₁ draws followed by n uniforms for the y₂ draws.  One cumulative
trapezoid builds the 1D CDFs and the conditional rows, and one exact inverse
serves all three draws (slit-mode position, y₁, y₂).  It bisects each draw's
CDF, probing O(log N) columns, so no blended row is ever built; it runs over
fixed-size slices of draws, so its working set does not grow with n.

The sampled hits are checked against |ψ|² by a Kolmogorov-Smirnov test:
``sampled.ks`` holds D and its exact two-sided p-value P(D_n ≥ D), both
computed with numpy and equal to scipy's ``stats.ks_1samp`` bit for bit,
except where scipy's Durbin matrix overflows and scipy returns 0.
The p-value ports scipy's ``kstwo.sf`` dispatch (Simard & L'Ecuyer 2011):
Ruben-Gambino end cases, the Durbin matrix and, at typical sizes, the
Pelz-Good series; where scipy would run Pomeranz (n ≤ 140) Durbin agrees to
2e-14.  scipy is imported only on demand: ``scipy.special.smirnov`` for a
p-value in the tail (D ≥ 0.5, or nD² ≥ 2.2; nD² > 4 for n ≤ 140), and
``scipy.special.chdtrc`` for the χ² test that ``verify`` runs.  The stats
package of scipy is never imported.

``run_scenario`` is the whole tabletop: build the pair, record closed-form
and grid-measured spreads, optionally reduce the source pair behind the
pointer (by convolution, without reading the built pair), fly to the
detector plane, sample, and bin.  Every numeric field in the report is tagged
with the grid that produced it, and timings live in their own block so that
reports stay byte-comparable across runs.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import (
    approx_dp2_strong_correlation,
    initial_spreads,
    is_disentangled,
    position_correlation,
    reduced_spreads,
)
from .errors import ScenarioFailure, UserParameterError
from .evolution import EvolutionParams, free_propagate, gaussian_width_at
from .measurement import reduce_pair
from .params import DetectorGeometry, GridSpec, ScenarioConfig, validate
from .rng import Xoshiro256StarStar
from .states import JointStateRecipe, build_joint_state, build_pointer_state
from .wavefunction import (
    WaveFunction1D,
    WaveFunction2D,
    grid_points,
    marginal_density,
    momentum_std_spectral,
    position_stats,
    schmidt,
    trap_weights,
)

SCHMIDT_MAX_POINTS = 2048


@dataclass(frozen=True)
class DetectorHistogram:
    """Counts per bin plus everything that fell off the detector."""

    geometry: DetectorGeometry
    counts: np.ndarray
    underflow: int
    overflow: int
    total: int

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64)
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def edges(self) -> np.ndarray:
        lo, hi = self.geometry.y_range
        return np.linspace(lo, hi, self.geometry.n_bins + 1)


# Draws inverted at once: bounds the bisection's temporaries, changes no draw.
_SLICE = 1 << 16


def _cumulative_trapezoid(density: np.ndarray, dy: float) -> np.ndarray:
    """Cumulative trapezoid along the last axis, starting from 0."""
    seg = 0.5 * (density[..., :-1] + density[..., 1:]) * dy
    c = np.zeros(density.shape)
    np.cumsum(seg, axis=-1, out=c[..., 1:])
    return c


def cumulative_distribution(grid: GridSpec, density: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid points and the normalized cumulative trapezoid of a density."""
    c = _cumulative_trapezoid(density, grid.dy)
    total = c[-1]
    if total <= 0:
        raise ValueError("density integrates to zero")
    return grid_points(grid), c / total


def _invert(cdf, u: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Piecewise-linear inverse CDFs, one per draw: (positions, cells, fractions).

    ``cdf(j)`` evaluates each draw's nondecreasing CDF on ``grid`` at its own
    column j.  The columns <= u times the last knot form a prefix, whose
    length bisection finds; a vanishing CDF takes the last interior cell.
    """
    n_knots = grid.n_points
    target = u * cdf(n_knots - 1)
    count = np.zeros(len(u), dtype=np.intp)
    step = 1 << (n_knots.bit_length() - 1)
    while step:
        probe = count + step
        hit = (probe <= n_knots) & (cdf(np.minimum(probe, n_knots) - 1) <= target)
        count = np.where(hit, probe, count)
        step >>= 1
    j = np.clip(count - 1, 0, n_knots - 2)
    c_lo = cdf(j)
    denom = cdf(j + 1) - c_lo
    frac = np.where(denom > 0, (target - c_lo) / np.where(denom > 0, denom, 1.0), 0.0)
    frac = np.clip(frac, 0.0, 1.0)
    return grid_points(grid)[j] + frac * grid.dy, j, frac


def sample_positions(wf: WaveFunction1D, n: int, seed: int) -> np.ndarray:
    """n deterministic draws from |ψ(y)|² dy."""
    if n == 0:
        return np.empty(0)
    _, c = cumulative_distribution(wf.grid, np.abs(wf.amps) ** 2)
    u = Xoshiro256StarStar(seed).uniforms(n)
    out = np.empty(n)
    for lo in range(0, n, _SLICE):
        s = slice(lo, lo + _SLICE)
        out[s] = _invert(c.__getitem__, u[s], wf.grid)[0]
    return out


def sample_joint(psi: WaveFunction2D, n: int, seed: int) -> np.ndarray:
    """n deterministic (y₁, y₂) coincidence draws from the joint density."""
    if n == 0:
        return np.empty((0, 2))
    dens = np.abs(psi.amps) ** 2
    _, c1 = cumulative_distribution(psi.grid1, dens @ trap_weights(psi.grid2))
    # Unnormalized conditional CDFs along y₂, one row per y₁ grid line.
    flat = _cumulative_trapezoid(dens, psi.grid2.dy).ravel()
    n2 = dens.shape[1]
    del dens

    gen = Xoshiro256StarStar(seed)
    u1 = gen.uniforms(n)
    u2 = gen.uniforms(n)
    out = np.empty((n, 2))
    for lo in range(0, n, _SLICE):
        s = slice(lo, lo + _SLICE)
        out[s, 0], i, f = _invert(c1.__getitem__, u1[s], psi.grid1)
        # y₂ inverts rows i and i+1 blended with weights 1-f and f; a blend
        # of two nondecreasing rows stays nondecreasing under IEEE rounding.
        lower, upper, g = i * n2, (i + 1) * n2, 1.0 - f
        out[s, 1] = _invert(lambda j: flat[lower + j] * g + flat[upper + j] * f,
                            u2[s], psi.grid2)[0]
    return out


def histogram(samples: np.ndarray, geometry: DetectorGeometry) -> DetectorHistogram:
    """Bin samples on the detector; bins are [lo+iw, lo+(i+1)w), last bin closed."""
    lo, hi = geometry.y_range
    width = (hi - lo) / geometry.n_bins
    idx = np.floor((samples - lo) / width).astype(np.int64)
    idx[samples == hi] = geometry.n_bins - 1
    underflow = int(np.sum(idx < 0))
    overflow = int(np.sum(idx >= geometry.n_bins))
    kept = idx[(idx >= 0) & (idx < geometry.n_bins)]
    counts = np.bincount(kept, minlength=geometry.n_bins)
    return DetectorHistogram(
        geometry=geometry,
        counts=counts,
        underflow=underflow,
        overflow=overflow,
        total=int(samples.size),
    )


def chi_square_against_density(hist: DetectorHistogram, grid: GridSpec,
                               density: np.ndarray,
                               min_expected: float = 5.0) -> tuple[float, int, float]:
    """χ² of observed bin counts against quadrature bin probabilities.

    Bins with expected count below ``min_expected`` are excluded and the
    remaining probabilities renormalized (conditional goodness of fit).
    Returns (statistic, degrees of freedom, p-value).
    """
    # Imported here: only verify tests χ², so run and sweep import numpy only.
    from scipy import special

    y, c = cumulative_distribution(grid, density)
    cdf_at = np.interp(hist.edges, y, c, left=0.0, right=1.0)
    probs = np.diff(cdf_at)
    counts = hist.counts.astype(float)
    expected = probs * hist.total
    keep = expected >= min_expected
    if keep.sum() < 2:
        raise ValueError("fewer than two usable histogram bins")
    p = probs[keep] / probs[keep].sum()
    obs = counts[keep]
    n_kept = obs.sum()
    exp = n_kept * p
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = int(keep.sum() - 1)
    return stat, dof, float(special.chdtrc(dof, stat))


def ks_against_density(samples: np.ndarray, grid: GridSpec,
                       density: np.ndarray) -> tuple[float, float]:
    """KS statistic D against the grid CDF and its exact two-sided p-value.

    D is formed as scipy's ``_compute_d`` forms it, so both equal ``ks_1samp``'s.
    """
    n = len(samples)
    if n == 0:
        return math.nan, math.nan  # As ks_1samp gives for an empty sample.
    y, c = cumulative_distribution(grid, density)
    cdf = np.interp(np.sort(samples), y, c, left=0.0, right=1.0)
    d = max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n))
    return float(d), _kolmogorov_sf(n, d)


# Constants of scipy's stats/_ksstats.py: long-double 2**±128 rescale the Durbin
# powers; the Stirling series of log(n!/n**n) holds B_2j / (2j (2j-1)).
_EP128, _EM128 = np.longdouble(2.0 ** 128), np.longdouble(2.0 ** -128)
_STIRLING = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
             -1.9175269175269175269e-3, 8.4175084175084175084e-4,
             -5.952380952380952381e-4, 7.9365079365079365079e-4,
             -2.7777777777777777778e-3, 8.3333333333333333333e-2]
_PI_SQUARED, _PI_FOUR, _PI_SIX = np.pi ** 2, np.pi ** 4, np.pi ** 6
_SQRT2PI, _SQRT3 = np.sqrt(2 * np.pi), np.sqrt(3)


def _kolmogorov_sf(n: int, x: float) -> float:
    """P(D_n ≥ x): scipy's ``kstwo.sf`` dispatch (Simard & L'Ecuyer 2011).

    Its operations in its order, on x as the 0-d array scipy passes on, give
    scipy's bits, except where scipy's Durbin powers overflow; where scipy
    runs Pomeranz (n ≤ 140, 0.754693 < nx² ≤ 4) the Durbin matrix runs
    instead, within 2e-14.
    """
    x = np.asarray(x, dtype=np.float64)
    if x >= 1.0:
        return 0.0
    t = n * x
    if x <= 0.5 / n or t <= 0.5:
        return 1.0
    if t <= 1.0:  # Ruben-Gambino
        if n <= 140:
            cdf = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            rn = 1.0 / n
            cdf = np.exp(np.log(n) / 2 - n + np.log(2 * np.pi) / 2
                         + rn * np.polyval(_STIRLING, rn / n) + n * np.log(2 * t - 1))
        return float(np.clip(1.0 - cdf, 0.0, 1.0))
    if t >= n - 1:  # Ruben-Gambino
        return float(np.clip(2 * (1.0 - x) ** n, 0.0, 1.0))
    nxx = t * x
    if x < 0.5 and n > 140 and nxx >= 370.0:
        return 0.0
    if x >= 0.5 or (nxx > 4 if n <= 140 else nxx >= 2.2):
        from scipy import special  # Exact for x ≥ 0.5; Miller's approximation below.
        return float(np.clip(2 * special.smirnov(n, x), 0.0, 1.0))
    if n <= 140 or (n <= 100000 and n * x ** 1.5 <= 1.4):
        cdf = _durbin_cdf(n, x)
    else:
        cdf = _pelz_good_cdf(n, x)
    return float(np.clip(1.0 - cdf, 0.0, 1.0))


def _durbin_cdf(n, d):
    """P(D_n ≤ d) by Durbin's matrix (Marsaglia, Tsang & Wang 2003), nd > 1."""
    # d = (k - h)/n; the k-th diagonal entry of H**n, scaled by n!/n**n.
    k = int(np.ceil(n * d))
    h, m = k - n * d, 2 * k - 1
    intm = np.arange(1, m + 1)
    v, w, fac = 1.0 - h ** intm, np.empty(m), 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    v[-1] = (1.0 + (max(2 * h - 1.0, 0) ** m - 2 * h ** m)) * fac
    H = np.zeros([m, m])
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)
    Hpwr, nn, expnt, Hexpnt = np.eye(m), n, 0, 0
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt + 128 * _shrink(Hpwr)
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += 128
        Hexpnt += 128 * _shrink(H)
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= 128
    return np.ldexp(p, expnt)


def _shrink(a) -> int:
    """Divide ``a`` in place by 2**128 until no entry exceeds 2**500; the count.

    scipy rescales only the (k, k) entry, so other entries of the Durbin powers
    can overflow.  With m = 2k - 1 <= 115 rows, a product of two matrices with
    entries <= 2**500 stays far below the float range.
    """
    count = 0
    while np.abs(a).max() > 2.0 ** 500:
        a /= _EP128
        count += 1
    return count


def _pelz_good_cdf(n, x):
    """P(D_n ≤ x) by the Pelz-Good series (J. R. Stat. Soc. B 38, 1976)."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < -708:
        return 0.0
    q = np.exp(qlog)
    k1a, k1b = -zsquared, _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8
    # K0..K3: Horner sums of c_m q**(m²) over odd m = 2k - 1 ...
    K = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        K *= np.power(q, 8 * k)
        K += np.array([1.0, k1a + k1b * m**2, k2a + k2b * m**2 + k2c * m**4,
                       k3a + k3b * m**2 + k3c * m**4 + k3d * m**6])
    K *= q
    K *= _SQRT2PI
    K /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])
    # ... plus the K2 and K3 terms in exp(-π²k²/2z²) over every k.
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    qpwers = np.exp(-_PI_SQUARED / 2 / zsquared) ** ksquared
    K[2] += np.sum(ksquared * qpwers) * (_PI_SQUARED * _SQRT2PI / (-36 * zthree))
    sqrt3z, kspi = _SQRT3 * z, np.pi * ks
    K[3] += (np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
             * (_PI_SQUARED * _SQRT2PI / (216 * zsix)))
    K /= np.power(n * 1.0, np.arange(len(K)) / 2.0)
    return sum(K)


@dataclass(frozen=True)
class ScenarioReport:
    """Structured outcome of one scenario; see run_scenario for the layout.

    ``states`` holds the computed wavefunctions keyed by role ("joint",
    "pointer", "reduced", "detector") for callers that want to serialize or
    inspect them; it never enters the JSON document.
    """

    config: ScenarioConfig
    seed: int
    analytic: dict
    numeric: dict
    sampled: dict | None
    timings: dict
    states: dict

    def to_json_dict(self, include_timings: bool = True) -> dict:
        doc = {
            "config": self.config.to_json_dict(),
            "seed": self.seed,
            "analytic": self.analytic,
            "numeric": self.numeric,
            "sampled": self.sampled,
        }
        if include_timings:
            doc["timings"] = self.timings
        return doc


@contextlib.contextmanager
def _stage(timings: dict, name: str):
    """Time one stage into ``timings``; an error inside it fails that stage.

    Only ``Exception`` is wrapped, so Ctrl-C and ``SystemExit`` pass through.
    """
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise ScenarioFailure(name, exc) from exc
    finally:
        timings[name] = time.perf_counter() - t0


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Execute the full pipeline described by a validated configuration."""
    report = validate(config)
    if not report.ok:
        raise UserParameterError("; ".join(report.violations))

    params = config.params
    ms = config.measurement
    t_flight = config.evolution_time
    timings: dict = {}

    with _stage(timings, "build"):
        psi = build_joint_state(JointStateRecipe(params, config.grid, config.grid))
    states: dict = {"joint": psi}

    init = initial_spreads(params)
    analytic = {
        "initial": asdict(init),
        "position_correlation": position_correlation(params),
        "disentangled": is_disentangled(params),
        "reduced": None,
    }
    ep = EvolutionParams(time=t_flight, mass=params.mass, hbar=params.hbar)
    if ms is not None:
        closed = reduced_spreads(params, ms.epsilon)
        approx = approx_dp2_strong_correlation(params, ms.epsilon)
        analytic["reduced"] = {
            **asdict(closed),
            "dp2y_eps_to_zero": init.dp2y,
            "strong_correlation": asdict(approx),
            "detector_width_at_t": gaussian_width_at(closed.dy2, ep),
        }

    with _stage(timings, "numeric_initial"):
        st1 = position_stats(psi, particle=1)
        st2 = position_stats(psi, particle=2)
        dp2_initial = momentum_std_spectral(psi, particle=2, hbar=params.hbar)
    numeric = {
        "grid": {**asdict(config.grid), "dy": config.grid.dy},
        "initial": {"dy1": st1.std, "dy2": st2.std, "dp2y": dp2_initial},
        "schmidt_entropy": None,
        "reduced": None,
        "ratios": None,
    }
    if config.grid.n_points <= SCHMIDT_MAX_POINTS:
        with _stage(timings, "schmidt"):
            numeric["schmidt_entropy"] = schmidt(psi).entropy

    if ms is not None:
        with _stage(timings, "reduce"):
            phi1 = build_pointer_state(ms, config.grid)
            red = reduce_pair(phi1, params, ms.epsilon)
        states["pointer"] = phi1
        states["reduced"] = red.phi2
        numeric["reduced"] = {
            "dy2": red.dy2_numeric,
            "dp2y": red.dp2_numeric,
            "residual": red.residual,
        }
        numeric["ratios"] = {
            "dp2_post_over_initial_closed": red.dp2_closed / init.dp2y,
            "dp2_post_over_initial_numeric": red.dp2_numeric / dp2_initial,
        }
        # Side B holds the reduced particle 2, side A the pointer itself.
        side_state, side_width = ((red.phi2, red.dy2_closed) if config.detector.side == "B"
                                  else (phi1, ms.epsilon))
        if t_flight > 0:
            with _stage(timings, "propagate"):
                side_state = free_propagate(side_state, ep)
            states["detector"] = side_state

    sampled = None
    if config.n_samples > 0:
        with _stage(timings, "sample"):
            if ms is not None:
                # Slit mode: one particle at the detector plane on its side.
                samples = sample_positions(side_state, config.n_samples, config.seed)
                grid, dens = side_state.grid, np.abs(side_state.amps) ** 2
                corr = None
                predicted = gaussian_width_at(side_width, ep)
            else:
                # Coincidence mode: both particles sampled at the slit plane.
                pairs = sample_joint(psi, config.n_samples, config.seed)
                particle = 1 if config.detector.side == "A" else 2
                samples = pairs[:, particle - 1]
                grid = psi.grid1 if particle == 1 else psi.grid2
                dens = marginal_density(psi, particle)
                # Undefined for one pair or a coordinate without spread;
                # reported as null rather than NaN, which is not JSON.
                corr = None
                if len(pairs) >= 2 and np.all(np.std(pairs, axis=0) > 0):
                    corr = float(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1])
                predicted = None
            hist = histogram(samples, config.detector)
            ks_stat, ks_p = ks_against_density(samples, grid, dens)
        sampled = {
            "n": config.n_samples,
            "side": config.detector.side,
            "mean": float(np.mean(samples)),
            "std": float(np.std(samples)),
            "ks": {"statistic": ks_stat, "pvalue": ks_p},
            "correlation": corr,
            "predicted_detector_width": predicted,
            "histogram": _histogram_dict(hist),
        }

    return ScenarioReport(
        config=config,
        seed=config.seed,
        analytic=analytic,
        numeric=numeric,
        sampled=sampled,
        timings=timings,
        states=states,
    )


def _histogram_dict(hist: DetectorHistogram) -> dict:
    return {
        **asdict(hist.geometry),
        "y_range": list(hist.geometry.y_range),
        "counts": [int(x) for x in hist.counts],
        "underflow": hist.underflow,
        "overflow": hist.overflow,
        "total": hist.total,
    }
