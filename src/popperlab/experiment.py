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

``run_scenario`` is the whole tabletop: build the pair, record closed-form
and grid-measured spreads, optionally reduce the source pair behind the
pointer (by convolution, without reading the built pair), fly to the
detector plane, sample, and bin.  Every numeric field in the report is tagged
with the grid that produced it, and timings live in their own block so that
reports stay byte-comparable across runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

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
    # Imported here, as scipy.stats is in ks_against_density: a run or a
    # sweep that never samples then imports numpy only.
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
    """Kolmogorov-Smirnov statistic and p-value against the grid CDF."""
    # Imported here: scipy.stats is most of the package's import time, and
    # only sampled runs reach this function.
    from scipy import stats

    y, c = cumulative_distribution(grid, density)
    result = stats.ks_1samp(samples, lambda x: np.interp(x, y, c, left=0.0, right=1.0))
    return float(result.statistic), float(result.pvalue)


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


def _stage(timings: dict, name: str):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()

        def __exit__(self, exc_type, exc, tb):
            timings[name] = time.perf_counter() - self.t0
            if exc is not None and not isinstance(exc, ScenarioFailure):
                raise ScenarioFailure(name, exc) from exc

    return _Timer()


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
        "initial": {"dy1": init.dy1, "dy2": init.dy2,
                    "dp1y": init.dp1y, "dp2y": init.dp2y},
        "position_correlation": position_correlation(params),
        "disentangled": is_disentangled(params),
        "reduced": None,
    }
    ep = EvolutionParams(time=t_flight, mass=params.mass, hbar=params.hbar)
    if ms is not None:
        closed = reduced_spreads(params, ms.epsilon)
        approx = approx_dp2_strong_correlation(params, ms.epsilon)
        analytic["reduced"] = {
            "omega": closed.omega,
            "alpha": closed.alpha,
            "dy2": closed.dy2,
            "dp2y": closed.dp2y,
            "dp1y": closed.dp1y,
            "dp2y_eps_to_zero": init.dp2y,
            "strong_correlation": {"value": approx.value, "regime_ok": approx.regime_ok},
            "detector_width_at_t": gaussian_width_at(closed.dy2, ep),
        }

    with _stage(timings, "numeric_initial"):
        st1 = position_stats(psi, particle=1)
        st2 = position_stats(psi, particle=2)
        dp2_initial = momentum_std_spectral(psi, particle=2, hbar=params.hbar)
    numeric = {
        "grid": {"n_points": config.grid.n_points, "y_min": config.grid.y_min,
                 "y_max": config.grid.y_max, "dy": config.grid.dy},
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
        side_state = red.phi2 if config.detector.side == "B" else phi1
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
                predicted = gaussian_width_at(red.dy2_closed, ep)
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
        "n_bins": hist.geometry.n_bins,
        "y_range": list(hist.geometry.y_range),
        "side": hist.geometry.side,
        "counts": [int(x) for x in hist.counts],
        "underflow": hist.underflow,
        "overflow": hist.overflow,
        "total": hist.total,
    }
