"""Physical parameters, grid specification and scenario configuration.

Natural units throughout: ħ = 1 and m = 1 unless overridden.  The two-particle
source is characterized by σ (relative-momentum scale of the pair) and Ω₀
(centre-of-mass length scale).  A virtual slit at station A is a Gaussian
pointer of width ε.  Everything downstream (state builders, reduction,
propagation, sampling) reads these values; nothing else carries hidden state.

Grid policy
-----------
A uniform grid must simultaneously contain the widest state it will hold
and resolve the narrowest feature it will represent.  Containment is one
rule: ``validate`` asks ``EXTENT_SIGMAS`` ≈ 7.43 position spreads, where a
Gaussian falls to the 1e-6 tail contract, around each state a run builds
(the pair at zero; the reduced state at its own centre c₂, flown on side B),
and auto-built grids keep 8.  No band is asked around the side-A pointer:
``auto_grid`` has no side, so its grids must validate on both, and a side-B
run may legitimately cut a wide pointer (ε = 10 at 16.2 on the README
source).  The pointer is checked where it is sampled.

``auto_grid`` targets 8 points per conservative feature scale
min(ε, ħ/4σ, Ω₀); when that demand overflows the point cap it degrades to
the largest allowed power of two, provided the spacing still samples every
*actual* Gaussian width (pointer width, conditional width ħ/2σ, reduced
width) at ≥ 1.2 points, and the pointer width ε at ≥ 1.5, the pointer
builder's own floor.  Below that floor spectral aliasing enters the 1e-6
accuracy band and the request is refused with ``CapExceededError``;
``validate`` holds user grids to the same spacing cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .errors import CapExceededError, UserParameterError

MIN_GRID_POINTS = 64
DEFAULT_MAX_POINTS = 2 ** 14
# Upper bounds on the sizes a config may request, checked before anything
# is allocated.  Joint sampling holds about 32 B per pair on top of a fixed
# working set (a tracemalloc peak of 45.6 MiB at 10⁶ pairs on a 1024-point
# pair state, so about 0.3 GiB at the bound); report.json and
# histogram.csv list every bin.
MAX_SAMPLES = 10 ** 7
MAX_BINS = 10 ** 5
# Tail contract: a state's boundary amplitude is at most this share of its peak.
TAIL_RATIO_MAX = 1e-6
# Validation floor: at x spreads a Gaussian's amplitude is exp(-x^2/4), which
# reaches TAIL_RATIO_MAX at x ~ 7.43; auto-built grids keep 8 (exp(-16) ~ 1e-7).
EXTENT_SIGMAS = 2.0 * math.sqrt(math.log(1.0 / TAIL_RATIO_MAX))
AUTO_EXTENT_SIGMAS = 8.0
TARGET_POINTS_PER_SCALE = 8.0
FLOOR_POINTS_PER_WIDTH = 1.2
# The pointer builder refuses spacings coarser than eps/1.5, so degraded
# grids must honor that floor for the slit scale specifically.
POINTER_MIN_POINTS_PER_WIDTH = 1.5


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _integer(value, name: str) -> int:
    """A config count as an int; fractions, booleans and strings are errors, not coerced."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """A config number as a float; booleans and strings are errors, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True, slots=True)
class PhysicalParams:
    """Source parameters σ, Ω₀ plus the unit choices ħ and m."""

    sigma: float
    omega0: float
    hbar: float = 1.0
    mass: float = 1.0


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Uniform 1D grid with both endpoints on the grid."""

    n_points: int
    y_min: float
    y_max: float

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / (self.n_points - 1)

    @property
    def half_extent(self) -> float:
        return 0.5 * (self.y_max - self.y_min)


@dataclass(frozen=True, slots=True)
class MeasurementSpec:
    """Gaussian pointer: resolution ε and slit centre."""

    epsilon: float
    center: float = 0.0


@dataclass(frozen=True, slots=True)
class DetectorGeometry:
    """Binned detector plane on side A (particle 1) or B (particle 2)."""

    n_bins: int
    y_range: tuple[float, float]
    side: str = "B"


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Complete, serializable description of one laboratory run."""

    params: PhysicalParams
    grid: GridSpec
    detector: DetectorGeometry
    measurement: MeasurementSpec | None = None
    evolution_time: float = 0.0
    n_samples: int = 0
    seed: int = 0

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["detector"]["y_range"] = list(self.detector.y_range)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScenarioConfig":
        p = doc["params"]
        g = doc["grid"]
        d = doc["detector"]
        m = doc.get("measurement")
        y_range = d["y_range"]
        if not isinstance(y_range, (list, tuple)) or len(y_range) != 2:
            raise ValueError(f"detector y_range must be two numbers, got {y_range!r}")
        return cls(
            params=PhysicalParams(
                sigma=_real(p["sigma"], "sigma"),
                omega0=_real(p["omega0"], "omega0"),
                hbar=_real(p.get("hbar", 1.0), "hbar"),
                mass=_real(p.get("mass", 1.0), "mass"),
            ),
            grid=GridSpec(
                n_points=_integer(g["n_points"], "n_points"),
                y_min=_real(g["y_min"], "y_min"),
                y_max=_real(g["y_max"], "y_max"),
            ),
            detector=DetectorGeometry(
                n_bins=_integer(d["n_bins"], "n_bins"),
                y_range=(_real(y_range[0], "y_range"), _real(y_range[1], "y_range")),
                side=str(d.get("side", "B")),
            ),
            measurement=None if m is None else MeasurementSpec(
                epsilon=_real(m["epsilon"], "epsilon"),
                center=_real(m.get("center", 0.0), "center"),
            ),
            evolution_time=_real(doc.get("evolution_time", 0.0), "evolution_time"),
            n_samples=_integer(doc.get("n_samples", 0), "n_samples"),
            seed=_integer(doc.get("seed", 0), "seed"),
        )


def config_to_json(config: ScenarioConfig) -> str:
    return json.dumps(config.to_json_dict(), indent=2, sort_keys=True)


def config_from_json(text: str) -> ScenarioConfig:
    return ScenarioConfig.from_json_dict(json.loads(text))


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Outcome of ``validate``: empty violation list means runnable."""

    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def _positive_finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def _physics_violations(params: PhysicalParams,
                        measurement: MeasurementSpec | None) -> list[str]:
    v = [f"{name} must be > 0 and finite" for name in ("sigma", "omega0", "hbar", "mass")
         if not _positive_finite(getattr(params, name))]
    if measurement is not None:
        if not _positive_finite(measurement.epsilon):
            v.append("epsilon must be > 0")
        if not math.isfinite(measurement.center):
            v.append("measurement center must be finite")
    return v


class _Scales(NamedTuple):
    """What ``validate`` and ``auto_grid`` read of the closed forms."""

    widest: float  # the largest spread an auto grid contains
    proxy: float  # the conservative feature scale behind the 8-points target
    dy_cap: float  # the coarsest spacing that resolves every true width
    held: list  # (what, centre, which width, width) of each state validate holds


def _length_scales(params: PhysicalParams, measurement: MeasurementSpec | None,
                   evolution_time: float, side: str = "B") -> _Scales:
    """Each closed form a grid must honour, computed once.

    The proxy drives the 8-points target; the true widths drive the spacing
    cap min(narrowest true width / 1.2, ε / 1.5), ε / 1.5 being the pointer
    builder's own floor.  The proxy is intentionally pessimistic (ħ/4σ is
    ~2.8x below the actual conditional width ħ/√2σ of the pair amplitude).
    With a = σ²/ħ², b = 1/16Ω₀² and e = 1/4ε², a pointer at c leaves the
    reduced state at c₂ = (a−b)·e·c / (4ab + (a+b)e), computed below divided
    through by e.  Its width is Ω; on side B it flies, widening but keeping
    c₂, since the reduced state is real and carries no mean momentum.  The
    widest spread counts the flown width on either side: ``auto_grid`` has
    no side.  Positive finite parameters can still overflow or underflow the
    closed forms (σ = 1e300, Ω₀ = 1e-300); that raises ``UserParameterError``.
    """
    from .analytic import _pair_spectrum, initial_spreads, reduced_spreads
    from .evolution import EvolutionParams, gaussian_width_at

    try:
        sigma, omega0, hbar = params.sigma, params.omega0, params.hbar
        dy_init = initial_spreads(params).dy2
        widest, proxy = dy_init, min(hbar / (4.0 * sigma), omega0)
        true_widths = [hbar / (2.0 * sigma), 2.0 * omega0]
        held = [("the pair is", 0.0, "initial position spread", dy_init)]
        if measurement is not None:
            eps, c = measurement.epsilon, measurement.center
            red = reduced_spreads(params, eps)
            flown = red.dy2
            if evolution_time > 0:
                ep = EvolutionParams(time=evolution_time, mass=params.mass, hbar=hbar)
                flown = gaussian_width_at(red.dy2, ep)
            widest, proxy = max(dy_init, flown), min(proxy, eps)
            true_widths += [1.0 / math.sqrt(2.0 * red.alpha), red.dy2]
            (a, b), e = _pair_spectrum(params), 1.0 / (4.0 * eps ** 2)
            flies = side == "B" and evolution_time > 0
            held.append((f"pointer centre {c:.6g} leaves the reduced state",
                         (a - b) * c / (4.0 * a * b / e + a + b),
                         "post-evolution width" if flies else "width",
                         flown if flies else red.dy2))
    except ArithmeticError as exc:
        raise UserParameterError(f"parameters overflow the closed forms ({exc})") from exc
    dy_cap = min(true_widths) / FLOOR_POINTS_PER_WIDTH
    if measurement is not None:
        dy_cap = min(dy_cap, measurement.epsilon / POINTER_MIN_POINTS_PER_WIDTH)
    return _Scales(widest, proxy, dy_cap, held)


def validate(config: ScenarioConfig) -> ValidationReport:
    """Check a scenario for runnability; report every violation found."""
    p = config.params
    m = config.measurement
    physics = _physics_violations(p, m)
    v = list(physics)

    g = config.grid
    points_ok = isinstance(g.n_points, int) and g.n_points >= MIN_GRID_POINTS
    if not points_ok:
        v.append(f"n_points must be an integer >= {MIN_GRID_POINTS}")
    elif not _is_pow2(g.n_points):
        v.append("n_points must be a power of two")
    elif g.n_points > DEFAULT_MAX_POINTS:
        v.append(f"n_points must be <= {DEFAULT_MAX_POINTS}")
    grid_ok = math.isfinite(g.y_min) and math.isfinite(g.y_max) and g.y_max > g.y_min
    if not grid_ok:
        v.append("grid must satisfy y_max > y_min with finite bounds")

    time_ok = math.isfinite(config.evolution_time) and config.evolution_time >= 0
    if not time_ok:
        v.append("evolution_time must be >= 0 and finite")
    if not isinstance(config.n_samples, int) or not 0 <= config.n_samples <= MAX_SAMPLES:
        v.append(f"n_samples must be an integer in [0, {MAX_SAMPLES}]")
    if not isinstance(config.seed, int) or not (0 <= config.seed < 2 ** 64):
        v.append("seed must be an integer in [0, 2^64)")

    d = config.detector
    if not isinstance(d.n_bins, int) or not 8 <= d.n_bins <= MAX_BINS:
        v.append(f"detector n_bins must be an integer in [8, {MAX_BINS}]")
    lo, hi = d.y_range
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        v.append("detector y_range must be a finite increasing interval")
    if d.side not in ("A", "B"):
        v.append("detector side must be 'A' or 'B'")

    # Relational checks need sane params and grid bounds.
    if not physics and grid_ok and time_ok:
        try:
            scales = _length_scales(p, m, config.evolution_time, d.side)
        except UserParameterError as e:
            return ValidationReport(violations=tuple(v + [str(e)]))
        for what, centre, which, width in scales.held:
            low, high = centre - EXTENT_SIGMAS * width, centre + EXTENT_SIGMAS * width
            # written so that a NaN centre is refused too
            if not (g.y_min <= low and high <= g.y_max):
                v.append(
                    f"{what} at {centre:.6g}; {EXTENT_SIGMAS:.3g} x its {which} "
                    f"{width:.6g} spans [{low:.6g}, {high:.6g}], outside the grid "
                    f"extent [{g.y_min:.6g}, {g.y_max:.6g}]"
                )
        # The accuracy floor auto_grid enforces on degraded grids.
        if points_ok and g.dy > scales.dy_cap:
            v.append(
                f"grid spacing {g.dy:.6g} > {scales.dy_cap:.6g}, the coarsest that "
                f"resolves every width (narrowest / {FLOOR_POINTS_PER_WIDTH:g}, "
                f"pointer / {POINTER_MIN_POINTS_PER_WIDTH:g}); use more points "
                f"or a smaller extent"
            )
    return ValidationReport(violations=tuple(v))


def auto_grid(params: PhysicalParams, measurement: MeasurementSpec | None = None,
              evolution_time: float = 0.0, *,
              max_points: int = DEFAULT_MAX_POINTS) -> GridSpec:
    """Choose a grid that holds the pair and the flown reduced state and
    resolves every width; having no side, it does not hold the side-A pointer.

    Deterministic in its inputs.  Raises ``CapExceededError`` when even
    ``max_points`` cannot hold 1.2 samples per narrowest physical width, and
    ``UserParameterError`` for parameters ``validate`` would reject or whose
    span or spacing leaves the float range.
    """
    if max_points < MIN_GRID_POINTS:
        raise ValueError(f"max_points must be >= {MIN_GRID_POINTS}")
    violations = _physics_violations(params, measurement)
    if violations:
        raise UserParameterError("; ".join(violations))
    widest, proxy, dy_cap, _ = _length_scales(params, measurement, evolution_time)
    center = abs(measurement.center) if measurement is not None else 0.0
    extent = AUTO_EXTENT_SIGMAS * widest + center
    span = 2.0 * extent
    target_dy = proxy / TARGET_POINTS_PER_SCALE
    # A span that overflows to inf or a spacing that underflows to 0 leaves
    # no point count to take the ceiling of.
    try:
        # The least power of two >= m is 1 << (m - 1).bit_length().
        n = 1 << (max(MIN_GRID_POINTS, math.ceil(span / target_dy) + 1) - 1).bit_length()
        if n > max_points:
            n = 1 << (max_points.bit_length() - 1)
            dy = span / (n - 1)
            if dy > dy_cap:
                need = 1 << math.ceil(span / dy_cap).bit_length()
                raise CapExceededError(
                    f"scale ratio needs >= {need} points for spacing "
                    f"{dy_cap:.3g} over span {span:.3g}; cap is {max_points}"
                )
    except ArithmeticError as exc:
        raise UserParameterError(f"parameters overflow the grid arithmetic ({exc})") from exc
    return GridSpec(n_points=n, y_min=-extent, y_max=extent)
