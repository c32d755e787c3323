"""Configuration validation, grid selection and JSON round-trips."""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from popperlab import (
    CapExceededError,
    DetectorGeometry,
    GridSpec,
    MeasurementSpec,
    PhysicalParams,
    ScenarioConfig,
    UserParameterError,
    auto_grid,
    build_pointer_state,
    config_from_json,
    config_to_json,
    validate,
)
from popperlab.params import (
    AUTO_EXTENT_SIGMAS,
    DEFAULT_MAX_POINTS,
    EXTENT_SIGMAS,
    FLOWN_EXTENT_SIGMAS,
    FLOOR_POINTS_PER_WIDTH,
    MAX_BINS,
    MAX_SAMPLES,
    NORM_FLOOR,
    TAIL_RATIO_MAX,
    _length_scales,
)
from popperlab.analytic import _pair_spectrum
from popperlab.measurement import reduce_pair
from popperlab.wavefunction import position_stats


def make_config(**overrides):
    base = dict(
        params=PhysicalParams(sigma=1.0, omega0=1.0),
        grid=GridSpec(n_points=1024, y_min=-16.0, y_max=16.0),
        detector=DetectorGeometry(n_bins=32, y_range=(-5.0, 5.0)),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestValidate:
    def test_reference_config_is_valid(self):
        report = validate(make_config())
        assert report.ok
        assert report.violations == ()

    def test_small_extent_flagged(self):
        # spread is ~10 while the grid reaches only 4
        cfg = make_config(params=PhysicalParams(sigma=1.0, omega0=10.0),
                          grid=GridSpec(n_points=1024, y_min=-4.0, y_max=4.0))
        report = validate(cfg)
        assert not report.ok
        assert any("extent" in v and "initial position spread" in v
                   for v in report.violations)

    def test_zero_epsilon_message(self):
        cfg = make_config(measurement=MeasurementSpec(epsilon=0.0))
        report = validate(cfg)
        assert "epsilon must be > 0" in report.violations

    def test_negative_epsilon(self):
        cfg = make_config(measurement=MeasurementSpec(epsilon=-0.5))
        assert not validate(cfg).ok

    @pytest.mark.parametrize("field,value", [
        ("sigma", 0.0), ("sigma", -1.0), ("sigma", math.nan),
        ("omega0", 0.0), ("omega0", math.inf),
        ("hbar", 0.0), ("mass", -2.0),
    ])
    def test_bad_physical_params(self, field, value):
        kw = dict(sigma=1.0, omega0=1.0)
        kw[field] = value
        report = validate(make_config(params=PhysicalParams(**kw)))
        assert any(field in v for v in report.violations)

    @pytest.mark.parametrize("field,value", [
        ("sigma", 1e300), ("omega0", 1e-300), ("hbar", 1e300),
    ])
    def test_overflowing_params_are_violations(self, field, value):
        # positive and finite, but the closed forms overflow or divide by zero
        kw = dict(sigma=1.0, omega0=1.0)
        kw[field] = value
        report = validate(make_config(params=PhysicalParams(**kw)))
        assert any("overflow" in v for v in report.violations)

    def test_grid_point_rules(self):
        cfg = make_config(grid=GridSpec(n_points=48, y_min=-16.0, y_max=16.0))
        assert any("64" in v for v in validate(cfg).violations)
        cfg = make_config(grid=GridSpec(n_points=1000, y_min=-16.0, y_max=16.0))
        assert any("power of two" in v for v in validate(cfg).violations)

    def test_inverted_grid_bounds(self):
        cfg = make_config(grid=GridSpec(n_points=1024, y_min=4.0, y_max=-4.0))
        assert not validate(cfg).ok

    def test_post_evolution_width_check(self):
        # extent 16 comfortably holds the initial spread but not what free
        # flight makes of the reduced state after a long time
        cfg = make_config(measurement=MeasurementSpec(epsilon=0.5),
                          evolution_time=50.0)
        report = validate(cfg)
        assert any("post-evolution" in v for v in report.violations)

    @pytest.mark.parametrize("sigma,n_points,extent,measurement", [
        # dy ~ 0.51 cannot resolve the conditional width 1/2sigma = 0.05;
        # left unflagged, run reported dp2 = 3.57 against the closed-form 10.0
        (10.0, 64, 16.0, None),
        # dy ~ 0.378 resolves every width at 1.2 points but not the pointer
        # at eps/1.5 = 0.333; left unflagged, run failed in stage 'reduce'
        (0.1, 128, 24.0, MeasurementSpec(epsilon=0.5)),
    ], ids=["conditional_width", "pointer_floor"])
    def test_under_resolved_grid_flagged(self, sigma, n_points, extent, measurement):
        cfg = make_config(params=PhysicalParams(sigma=sigma, omega0=2.0),
                          grid=GridSpec(n_points=n_points, y_min=-extent, y_max=extent),
                          measurement=measurement)
        assert any("grid spacing" in v for v in validate(cfg).violations)

    def test_detector_rules(self):
        cfg = make_config(detector=DetectorGeometry(n_bins=4, y_range=(-1.0, 1.0)))
        assert any("n_bins" in v for v in validate(cfg).violations)
        cfg = make_config(detector=DetectorGeometry(n_bins=16, y_range=(2.0, -2.0)))
        assert any("y_range" in v for v in validate(cfg).violations)
        cfg = make_config(detector=DetectorGeometry(n_bins=16, y_range=(-1.0, 1.0),
                                                    side="C"))
        assert any("side" in v for v in validate(cfg).violations)

    def test_seed_and_samples_rules(self):
        assert any("seed" in v for v in validate(make_config(seed=-1)).violations)
        assert any("seed" in v for v in
                   validate(make_config(seed=2 ** 64)).violations)
        assert any("n_samples" in v for v in
                   validate(make_config(n_samples=-5)).violations)
        assert any("evolution_time" in v for v in
                   validate(make_config(evolution_time=-1.0)).violations)

    @pytest.mark.parametrize("field,ok,too_big", [
        ("n_points", DEFAULT_MAX_POINTS, 2 * DEFAULT_MAX_POINTS),
        ("n_samples", MAX_SAMPLES, MAX_SAMPLES + 1),
        ("n_samples", MAX_SAMPLES, 10 ** 300),
        ("n_bins", MAX_BINS, MAX_BINS + 1),
    ], ids=["n_points", "n_samples", "n_samples_1e300", "n_bins"])
    def test_size_upper_bounds(self, field, ok, too_big):
        def config(value):
            if field == "n_points":
                return make_config(grid=GridSpec(n_points=value, y_min=-16.0, y_max=16.0))
            if field == "n_bins":
                return make_config(detector=DetectorGeometry(n_bins=value, y_range=(-5.0, 5.0)))
            return make_config(n_samples=value)

        assert not any(field in v for v in validate(config(ok)).violations)
        assert any(field in v for v in validate(config(too_big)).violations)

    @pytest.mark.parametrize("center", [16.2, 17.2, -17.2, 1e6])
    def test_reduced_state_must_fit_around_its_centre(self, center):
        # README source: the reduced state sits at 0.913 x the pointer centre
        cfg = make_config(params=PhysicalParams(sigma=1.0, omega0=2.0),
                          grid=GridSpec(n_points=1024, y_min=-16.2, y_max=16.2),
                          measurement=MeasurementSpec(epsilon=0.5, center=center))
        violation, *rest = validate(cfg).violations
        assert violation.startswith(f"pointer centre {center:.6g} leaves the reduced state at")
        # a million pair widths off, the pointer misses the pair as well
        assert len(rest) == (center == 1e6)

    @pytest.mark.parametrize("eps,center,side,refused", [
        # a wide pointer leaves the reduced state near zero: no band of ε is
        # held around a side-B pointer
        (10.0, 16.2, "B", []),
        # the reduced state at 10.96 holds 7.43 x 0.684 on side A; on side B
        # it flies to width 0.900 and 7.43 x 0.900 passes the edge at 16.2.
        # On side A the pointer flies instead, to 0.943 around 12, and
        # passes the edge too
        (0.5, 12.0, "A", ["the side-A pointer is at 12"]),
        (0.5, 12.0, "B", ["pointer centre 12 leaves the reduced state at 10.9565"]),
    ])
    def test_flight_widens_the_band_on_side_b_only(self, eps, center, side, refused):
        cfg = make_config(params=PhysicalParams(sigma=1.0, omega0=2.0),
                          grid=GridSpec(n_points=1024, y_min=-16.2, y_max=16.2),
                          detector=DetectorGeometry(n_bins=32, y_range=(-5.0, 5.0), side=side),
                          measurement=MeasurementSpec(epsilon=eps, center=center),
                          evolution_time=0.8)
        assert [v.partition(";")[0] for v in validate(cfg).violations] == refused

    @pytest.mark.parametrize("sigma,omega0,eps,center", [
        (1.0, 2.0, 0.5, 3.0),
        (0.3, 5.0, 0.2, -4.0),
        (0.1, 0.5, 1.0, 2.0),  # a < b: the reduced state sits across zero
        (1.0, 0.25, 0.5, 3.0),  # factorized pair: it stays at zero
    ])
    def test_reduced_centre_matches_the_grid_mean(self, sigma, omega0, eps, center):
        p = PhysicalParams(sigma=sigma, omega0=omega0)
        ms = MeasurementSpec(epsilon=eps, center=center)
        red = reduce_pair(build_pointer_state(ms, auto_grid(p, ms)), p, eps)
        _, (_, c2, _, width, _) = _length_scales(p, ms, 0.0).held
        assert width == red.dy2_closed
        assert c2 == pytest.approx(position_stats(red.phi2).mean, rel=1e-12, abs=1e-12)

    @given(sigma=st.floats(0.1, 10.0), omega0=st.floats(0.1, 10.0),
           eps=st.floats(0.1, 10.0), center=st.floats(-20.0, 20.0),
           side=st.sampled_from(["A", "B"]), time=st.floats(0.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_auto_grid_holds_the_reduced_state(self, sigma, omega0, eps, center, side,
                                               time):
        p = PhysicalParams(sigma=sigma, omega0=omega0)
        ms = MeasurementSpec(epsilon=eps, center=center)
        try:
            grid = auto_grid(p, ms, time)
        except CapExceededError:
            return
        cfg = make_config(params=p, grid=grid, measurement=ms, evolution_time=time,
                          detector=DetectorGeometry(n_bins=32, y_range=(-5.0, 5.0),
                                                    side=side))
        # A pointer far enough off the pair is refused for its overlap, on
        # any grid; that is the only violation an auto grid may meet, apart
        # from the side-A pointer, which auto_grid, having no side, does not
        # hold.
        missed = _length_scales(p, ms, time).log_overlap < math.log(NORM_FLOOR)
        violations = [v.partition(" with norm")[0] for v in validate(cfg).violations
                      if not v.startswith("the side-A pointer is")]
        assert violations == ([f"pointer centre {center:.6g} overlaps the pair"] if missed else [])

    @pytest.mark.parametrize("sigma,omega0,eps,center", [
        (1.0, 2.0, 0.5, 0.0),
        (1.0, 2.0, 0.5, 3.0),
        (1.0, 0.25, 0.3, 1.5),  # factorized pair
        (3.0, 0.1, 0.05, 0.7),
        (3.38, 0.0133, 0.0266, -0.2),  # a < b
    ])
    def test_overlap_is_the_norm_the_reduction_divides_out(self, sigma, omega0, eps, center):
        p = PhysicalParams(sigma=sigma, omega0=omega0)
        ms = MeasurementSpec(epsilon=eps, center=center)
        red = reduce_pair(build_pointer_state(ms, auto_grid(p, ms)), p, eps)
        overlap = math.exp(_length_scales(p, ms, 0.0).log_overlap)
        assert overlap == pytest.approx(red.phi2.norm_tag, rel=1e-12)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_pointer_off_the_pair_is_refused(self, side):
        # 49 pair widths off the pair, inside a grid that holds the reduced
        # state: the overlap is e^-536, which the reduction cannot normalize.
        p = PhysicalParams(sigma=3.38, omega0=0.0133)
        ms = MeasurementSpec(epsilon=0.0266, center=-3.69)
        cfg = make_config(params=p, grid=auto_grid(p, ms, max_points=512), measurement=ms,
                          detector=DetectorGeometry(n_bins=32, y_range=(-5.0, 5.0), side=side))
        (violation,) = validate(cfg).violations
        assert violation.startswith("pointer centre -3.69 overlaps the pair with norm e^-536")

    def test_all_violations_reported_at_once(self):
        cfg = make_config(params=PhysicalParams(sigma=-1.0, omega0=1.0),
                          seed=-1, n_samples=-1)
        assert len(validate(cfg).violations) >= 3


class TestContainmentRule:
    def test_validation_floor_is_the_tail_contract(self):
        # a Gaussian's amplitude exp(-x²/4σ²) reaches the contract at the floor
        assert math.exp(-EXTENT_SIGMAS ** 2 / 4) == pytest.approx(TAIL_RATIO_MAX)

    def test_auto_grids_keep_a_margin_over_the_floor(self):
        assert EXTENT_SIGMAS < FLOWN_EXTENT_SIGMAS < AUTO_EXTENT_SIGMAS

    def test_a_flown_state_and_its_image_share_the_contract(self):
        # the periodic flight's boundary meets two tails, each at half of it
        assert 2.0 * math.exp(-FLOWN_EXTENT_SIGMAS ** 2 / 4) == pytest.approx(TAIL_RATIO_MAX)

    @pytest.mark.parametrize("t,side,refused", [
        (0.8, "B", True), (0.0, "B", False), (0.8, "A", False)])
    def test_only_the_flown_side_b_state_is_held_with_its_image(self, t, side, refused):
        # the README source on a grid whose half extent holds 7.5 of the
        # reduced state's widths, flown or not: between the two rules
        p, ms = PhysicalParams(sigma=1.0, omega0=2.0), MeasurementSpec(epsilon=0.5)
        width = _length_scales(p, ms, t, "B").held[1][3]
        half = 7.5 * width
        cfg = make_config(params=p, grid=GridSpec(n_points=1024, y_min=-half, y_max=half),
                          detector=DetectorGeometry(n_bins=32, y_range=(-1.0, 1.0), side=side),
                          measurement=ms, evolution_time=t)
        leaves = [v for v in validate(cfg).violations if "leaves the reduced state" in v]
        assert bool(leaves) == refused

    def test_one_tail_contract(self):
        from popperlab import wavefunction
        assert wavefunction.TAIL_RATIO_MAX is TAIL_RATIO_MAX


class TestGridSpec:
    def test_spacing_and_extent(self):
        g = GridSpec(n_points=129, y_min=-4.0, y_max=4.0)
        assert g.dy == pytest.approx(8.0 / 128)
        assert g.half_extent == 4.0

    def test_endpoints_inclusive(self):
        import popperlab.wavefunction as wf
        g = GridSpec(n_points=64, y_min=-2.0, y_max=2.0)
        y = wf.grid_points(g)
        assert y[0] == -2.0 and y[-1] == 2.0
        assert len(y) == 64


class TestAutoGrid:
    def test_reference_point(self):
        # sigma=1, omega0=1: extent must cover +-6.2 and spacing must reach
        # the conservative feature scale (hbar/4sigma)/8 = 1/32
        g = auto_grid(PhysicalParams(sigma=1.0, omega0=1.0))
        assert g.y_max >= 6.2 and g.y_min <= -6.2
        assert g.dy <= 0.03125
        assert g.n_points & (g.n_points - 1) == 0

    def test_deterministic(self):
        p = PhysicalParams(sigma=0.37, omega0=2.12)
        ms = MeasurementSpec(epsilon=0.21)
        assert auto_grid(p, ms) == auto_grid(p, ms)

    def test_valid_by_construction(self):
        p = PhysicalParams(sigma=2.0, omega0=0.3)
        ms = MeasurementSpec(epsilon=0.7)
        g = auto_grid(p, ms)
        cfg = ScenarioConfig(params=p, grid=g, measurement=ms,
                             detector=DetectorGeometry(n_bins=16, y_range=(-1, 1)))
        assert validate(cfg).ok

    def test_slit_center_extends_grid(self):
        p = PhysicalParams(sigma=1.0, omega0=1.0)
        g0 = auto_grid(p, MeasurementSpec(epsilon=0.5, center=0.0))
        g3 = auto_grid(p, MeasurementSpec(epsilon=0.5, center=3.0))
        assert g3.y_max >= g0.y_max + 3.0

    @pytest.mark.parametrize("params,ms", [
        (PhysicalParams(sigma=-1.0, omega0=1.0), None),
        (PhysicalParams(sigma=1.0, omega0=1.0, hbar=0.0), None),
        (PhysicalParams(sigma=1.0, omega0=1.0), MeasurementSpec(epsilon=0.5, center=math.nan)),
        (PhysicalParams(sigma=1e300, omega0=1.0), MeasurementSpec(epsilon=0.5)),
    ])
    def test_rejects_what_validate_rejects(self, params, ms):
        with pytest.raises(UserParameterError):
            auto_grid(params, ms)

    @pytest.mark.parametrize("params,ms", [
        # the span overflows to inf: the point count has no ceiling
        (PhysicalParams(sigma=1e-150, omega0=2.0), MeasurementSpec(epsilon=1e120)),
        # the reduced width underflows to 0: the spacing cap is 0
        (PhysicalParams(sigma=1.0, omega0=2.0), MeasurementSpec(epsilon=1e-160)),
    ])
    def test_grid_arithmetic_out_of_range_is_a_parameter_error(self, params, ms):
        with pytest.raises(UserParameterError, match="grid arithmetic"):
            auto_grid(params, ms)

    def test_pair_exponents_keep_their_bits(self):
        # _length_scales and reduce_pair read a and b from analytic's one
        # owner; its values are the expressions both wrote inline before.
        rng = random.Random(20261019)
        for _ in range(2000):
            lo, hi = rng.choice([(-1, 1), (-150, 150), (-300, 300)])
            p = PhysicalParams(sigma=10 ** rng.uniform(lo, hi),
                               omega0=10 ** rng.uniform(lo, hi),
                               hbar=10 ** rng.uniform(-1, 1))
            try:
                expected = (p.sigma ** 2 / p.hbar ** 2, 1.0 / (16.0 * p.omega0 ** 2))
            except ArithmeticError as exc:
                with pytest.raises(type(exc)):
                    _pair_spectrum(p)
                continue
            assert tuple(_pair_spectrum(p)) == expected

    def test_cap_exceeded(self):
        # scale ratio ~2000 with a 256-point budget cannot work
        p = PhysicalParams(sigma=100.0, omega0=10.0)
        with pytest.raises(CapExceededError):
            auto_grid(p, MeasurementSpec(epsilon=0.005), max_points=256)

    def test_degraded_mode_stays_above_floor(self):
        # demands more than the cap, degrades, but must still resolve the
        # conditional width hbar/2sigma at the documented floor
        p = PhysicalParams(sigma=10.0, omega0=10.0)
        g = auto_grid(p, MeasurementSpec(epsilon=0.1), max_points=4096)
        assert g.n_points == 4096
        assert g.dy <= (0.05 / FLOOR_POINTS_PER_WIDTH) * (1 + 1e-12)

    def test_degraded_mode_never_starves_the_pointer(self):
        # when the slit is the narrowest scale, degrading to the cap must not
        # hand out spacings the pointer builder would reject
        p = PhysicalParams(sigma=10.0, omega0=10.0)
        with pytest.raises(CapExceededError):
            auto_grid(p, MeasurementSpec(epsilon=0.05), max_points=4096)
        g = auto_grid(p, MeasurementSpec(epsilon=0.05), max_points=8192)
        assert g.dy <= 0.05 / 1.5

    @pytest.mark.parametrize("sigma,omega0,ms,time,cap,expected", [
        # plain pair, no pointer
        (1.0, 1.0, None, 0.0, DEFAULT_MAX_POINTS,
         GridSpec(1024, -8.246211251235321, 8.246211251235321)),
        # the README source, a >= b, centred and off centre
        (1.0, 2.0, (0.5, 0.0), 0.0, DEFAULT_MAX_POINTS,
         GridSpec(2048, -16.1245154965971, 16.1245154965971)),
        (1.0, 2.0, (0.5, 3.0), 0.0, DEFAULT_MAX_POINTS,
         GridSpec(2048, -19.1245154965971, 19.1245154965971)),
        # a < b, centred and off centre
        (0.1, 0.5, (1.0, 0.0), 0.0, DEFAULT_MAX_POINTS,
         GridSpec(1024, -20.396078054371138, 20.396078054371138)),
        (0.1, 0.5, (1.0, -2.0), 0.0, DEFAULT_MAX_POINTS,
         GridSpec(1024, -22.396078054371138, 22.396078054371138)),
        # slit flight: the pair is still the widest at t = 0.8, the flown
        # reduced state is at t = 20
        (1.0, 2.0, (0.5, 0.0), 0.8, DEFAULT_MAX_POINTS,
         GridSpec(2048, -16.1245154965971, 16.1245154965971)),
        (1.0, 2.0, (0.5, 1.0), 20.0, DEFAULT_MAX_POINTS,
         GridSpec(8192, -118.14493714750209, 118.14493714750209)),
        # degraded to the cap
        (10.0, 10.0, (0.1, 0.0), 0.0, 4096,
         GridSpec(4096, -80.00024999960938, 80.00024999960938)),
        # refused: the conditional width, then the pointer, sets the cap
        (100.0, 10.0, (0.005, 0.0), 0.0, 256,
         "scale ratio needs >= 65536 points for spacing 0.00333 over span 160; cap is 256"),
        (10.0, 10.0, (0.05, 0.0), 0.0, 4096,
         "scale ratio needs >= 8192 points for spacing 0.0333 over span 160; cap is 4096"),
    ])
    def test_pinned_grids(self, sigma, omega0, ms, time, cap, expected):
        p = PhysicalParams(sigma=sigma, omega0=omega0)
        ms = None if ms is None else MeasurementSpec(epsilon=ms[0], center=ms[1])
        if isinstance(expected, GridSpec):
            assert auto_grid(p, ms, time, max_points=cap) == expected
        else:
            with pytest.raises(CapExceededError) as err:
                auto_grid(p, ms, time, max_points=cap)
            assert str(err.value) == expected

    def test_extent_contains_widest_state(self):
        p = PhysicalParams(sigma=0.2, omega0=5.0)
        g = auto_grid(p)
        dy_init = math.sqrt(p.omega0 ** 2 + 1.0 / (16 * p.sigma ** 2))
        assert g.half_extent >= AUTO_EXTENT_SIGMAS * dy_init - 1e-12

    @given(
        sigma=st.floats(0.1, 10.0),
        omega0=st.floats(0.1, 10.0),
        eps=st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_returns_unusable_grid(self, sigma, omega0, eps):
        p = PhysicalParams(sigma=sigma, omega0=omega0)
        ms = MeasurementSpec(epsilon=eps)
        try:
            g = auto_grid(p, ms, max_points=4096)
        except CapExceededError:
            return
        assert 64 <= g.n_points <= 4096
        assert g.n_points & (g.n_points - 1) == 0
        # pointer construction has the strictest per-width spacing demand
        assert g.dy <= eps / 1.5 + 1e-15


class TestJsonRoundTrip:
    def test_full_roundtrip(self):
        cfg = make_config(measurement=MeasurementSpec(epsilon=0.5, center=1.5),
                          evolution_time=2.0, n_samples=1000, seed=99)
        back = config_from_json(config_to_json(cfg))
        assert back == cfg

    def test_no_measurement_roundtrip(self):
        cfg = make_config()
        back = config_from_json(config_to_json(cfg))
        assert back == cfg
        assert back.measurement is None

    def test_defaults_fill_in(self):
        doc = {
            "params": {"sigma": 1.0, "omega0": 2.0},
            "grid": {"n_points": 256, "y_min": -8.0, "y_max": 8.0},
            "detector": {"n_bins": 16, "y_range": [-2.0, 2.0]},
        }
        cfg = ScenarioConfig.from_json_dict(doc)
        assert cfg.params.hbar == 1.0 and cfg.params.mass == 1.0
        assert cfg.detector.side == "B"
        assert cfg.n_samples == 0 and cfg.seed == 0

    @pytest.mark.parametrize("measurement", [None, MeasurementSpec(epsilon=0.5, center=1.5)])
    def test_json_dict_layout(self, measurement):
        cfg = make_config(measurement=measurement, evolution_time=2.0, n_samples=10, seed=7)
        expected = {
            "params": {"sigma": 1.0, "omega0": 1.0, "hbar": 1.0, "mass": 1.0},
            "grid": {"n_points": 1024, "y_min": -16.0, "y_max": 16.0},
            "detector": {"n_bins": 32, "y_range": [-5.0, 5.0], "side": "B"},
            "measurement": None if measurement is None else {"epsilon": 0.5, "center": 1.5},
            "evolution_time": 2.0,
            "n_samples": 10,
            "seed": 7,
        }
        # json.dumps without sort_keys also pins the key order.
        assert json.dumps(cfg.to_json_dict()) == json.dumps(expected)

    def test_integral_floats_are_counts(self):
        doc = json.loads(config_to_json(make_config(n_samples=10, seed=7)))
        doc["grid"]["n_points"] = 2048.0
        doc["detector"]["n_bins"] = 32.0
        doc["n_samples"], doc["seed"] = 10.0, 7.0
        cfg = ScenarioConfig.from_json_dict(doc)
        assert (cfg.grid.n_points, cfg.detector.n_bins, cfg.n_samples, cfg.seed) == (2048, 32, 10, 7)
        assert all(type(v) is int for v in (cfg.grid.n_points, cfg.detector.n_bins,
                                            cfg.n_samples, cfg.seed))

    def test_json_is_stable(self):
        cfg = make_config(seed=5)
        assert config_to_json(cfg) == config_to_json(cfg)
        json.loads(config_to_json(cfg))  # well-formed
