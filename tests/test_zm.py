"""Two-parameter power-law model: sums, training, and grid inference."""

import math
import sys
from dataclasses import asdict

import numpy as np
import pytest

from pktstats import (
    ZmParams,
    infer_parameters,
    model_distribution,
    train_delta,
    zm,
)
from pktstats.netstats import PooledDistribution, bin_edges
from pktstats.zm import (
    DEFAULT_GRID,
    AlphaGrid,
    InferenceError,
    admissible_bins,
    half_norm_loss,
    leaf_parameter,
)

from dict_reference import rho, rho_grad_delta, rho_sum


class TestParams:
    def test_validation(self):
        ZmParams(0.5, 0.0, 1)
        with pytest.raises(ValueError):
            ZmParams(0.0, 0.0, 1)
        with pytest.raises(ValueError):
            ZmParams(1.0, -0.1, 1)
        with pytest.raises(ValueError):
            ZmParams(1.0, 0.0, 0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.inf, 0.5, 100), "alpha must be finite, got inf"),
            ((1.5, math.inf, 100), "delta must be finite, got inf"),
            ((math.nan, 0.5, 100), "alpha must be > 0, got nan"),
            ((1.5, math.nan, 100), "delta must be >= 0, got nan"),
            ((2000.0, 0.5, 100), r"largest density .* is 0.0 at alpha 2000.0"),
            ((1.5, 0.5, 10.5), "d_max must be an integer, got 10.5"),
            ((1.5, 0.5, True), "d_max must be an integer, got True"),
            ((1.5, 0.5, np.int64(10)), "d_max must be an integer, got "),
        ],
    )
    def test_refuses_models_that_cannot_be_normalized(self, args, message):
        with pytest.raises(ValueError, match=message):
            ZmParams(*args)

    def test_smallest_positive_largest_density_is_accepted(self):
        # 1.5**-alpha is a subnormal float here: the model still normalizes.
        params = ZmParams(1800.0, 0.5, 100)
        assert 0.0 < leaf_parameter(params) < sys.float_info.min
        assert model_distribution(params).values[0] == 1.0

    def test_alpha_grid_default_has_391_points(self):
        values = DEFAULT_GRID.values
        assert len(values) == 391
        assert values[0] == 0.1
        assert values[-1] == 4.0
        assert values[100] == 1.1
        steps = {round(b - a, 9) for a, b in zip(values, values[1:])}
        assert steps == {0.01}

    def test_alpha_grid_values_are_built_once(self):
        grid = AlphaGrid(0.1, 4.0, 0.01)
        assert grid.values is grid.values
        assert grid.values == tuple(round(0.1 + k * 0.01, 9) for k in range(391))
        assert grid == DEFAULT_GRID and asdict(grid) == asdict(DEFAULT_GRID)

    def test_alpha_grid_custom(self):
        assert AlphaGrid(1.0, 2.0, 0.5).values == (1.0, 1.5, 2.0)
        assert AlphaGrid(0.5, 0.5, 0.1).values == (0.5,)

    def test_alpha_grid_validation(self):
        with pytest.raises(ValueError):
            AlphaGrid(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            AlphaGrid(1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            AlphaGrid(1.0, 2.0, 0.0)

    @pytest.mark.parametrize(
        "fields",
        [(0.1, 4.0, math.inf), (0.1, 4.0, math.nan), (math.inf, math.inf, 1.0)],
    )
    def test_alpha_grid_refuses_non_finite_fields(self, fields):
        with pytest.raises(ValueError, match="grid (step|stop) must be"):
            AlphaGrid(*fields)

    def test_alpha_grid_stops_where_training_powers_stay_finite(self):
        # Training evaluates (1 + delta)**alpha up to the upper delta bound.
        base = 1.0 + zm.TRAIN_DELTA_BOUNDS[1]
        top = math.log(sys.float_info.max) / math.log(base)
        assert math.isfinite(base**top)
        with pytest.raises(OverflowError):
            base ** math.nextafter(top, math.inf)
        for stop in (math.nextafter(top, math.inf), 300.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="grid stop must be <="):
                AlphaGrid(290.0, stop, 5.0)
        # The last point, rounded to 9 decimals, would lie past the bound.
        with pytest.raises(ValueError):
            AlphaGrid(top - 10.0, top, 5.0)

    def test_alpha_grid_just_under_the_bound_is_accepted_and_trains(
        self, monkeypatch
    ):
        grid = AlphaGrid(286.0, 296.0, 5.0)
        assert grid.values == (286.0, 291.0, 296.0)
        # Every alpha is admitted at delta = 0; training them all makes each
        # training evaluate the upper delta bound, where no delta solves.
        monkeypatch.setattr(zm, "_screen", undecided_screen)
        pool = model_distribution(ZmParams(1.5, 0.5, 1024))
        with pytest.raises(InferenceError, match="no grid alpha admitted"):
            infer_parameters(pool, grid)


class TestDensity:
    def test_rho_frozen_values(self):
        assert rho(1, 1.0, 0.0) == 1.0
        assert rho(2, 1.5, 0.5) == pytest.approx(0.25298221281347033, rel=1e-15)
        assert rho(4, 2.0, 0.0) == pytest.approx(0.0625, rel=0)

    def test_gradient_frozen_value(self):
        assert rho_grad_delta(2, 1.5, 0.5) == pytest.approx(
            -0.15178932768808218, rel=1e-15
        )

    def test_gradient_matches_finite_difference(self):
        for d, alpha, delta in [(1, 0.7, 0.0), (5, 1.3, 2.5), (40, 2.2, 0.1)]:
            h = 1e-6 * (d + delta + 1.0)
            numeric = (rho(d, alpha, delta + h) - rho(d, alpha, delta - h)) / (2 * h)
            assert rho_grad_delta(d, alpha, delta) == pytest.approx(numeric, rel=1e-8)


class TestRhoSum:
    def test_harmonic_sum(self):
        assert rho_sum(ZmParams(1.0, 0.0, 4)) == pytest.approx(25 / 12, rel=1e-15)

    def test_shifted_quadratic_sum(self):
        assert rho_sum(ZmParams(2.0, 1.0, 3)) == pytest.approx(61 / 144, rel=1e-15)

    def test_single_term(self):
        assert rho_sum(ZmParams(3.0, 1.0, 1)) == pytest.approx(0.125, rel=0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_tail_matches_exact_summation(self, alpha, delta):
        params = ZmParams(alpha, delta, 50_000)
        exact = rho_sum(params, exact_terms=10**6)
        tailed = rho_sum(params, exact_terms=1_000)
        assert tailed == pytest.approx(exact, rel=1e-9)


class TestModelDistribution:
    def test_harmonic_model_on_three_bins(self):
        pooled = model_distribution(ZmParams(1.0, 0.0, 4))
        assert pooled.bin_edges == (1, 2, 4)
        assert pooled.values == pytest.approx((0.48, 0.24, 0.28), rel=1e-14)
        assert pooled.sigmas == (0.0, 0.0, 0.0)
        assert pooled.n_windows == 1
        assert abs(pooled.total() - 1.0) <= 1e-12

    def test_totals_normalize_across_parameters(self):
        for alpha in (0.3, 1.0, 2.7):
            for d_max in (1, 2, 37, 4096):
                pooled = model_distribution(ZmParams(alpha, 0.4, d_max))
                assert abs(pooled.total() - 1.0) <= 1e-12

    def test_leaf_parameter(self):
        assert leaf_parameter(ZmParams(2.0, 1.0, 10)) == pytest.approx(0.25, rel=0)
        assert leaf_parameter(ZmParams(3.0, 1.0, 10)) == pytest.approx(0.125, rel=0)
        assert leaf_parameter(ZmParams(1.7, 0.0, 10)) == 1.0


class TestTrainDelta:
    def test_recovers_known_offset(self):
        # At alpha=1, d_max=2 the degree-1 mass 3/5 corresponds to delta=1.
        trained = train_delta(0.6, 1.0, 2)
        assert trained is not None
        assert trained.delta == pytest.approx(1.0, abs=1e-12)
        model = model_distribution(ZmParams(1.0, trained.delta, 2))
        assert model.values[0] == 0.6

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.6, 2.4])
    @pytest.mark.parametrize("delta", [0.05, 0.8, 3.0])
    @pytest.mark.parametrize("d_max", [40, 500])
    def test_round_trip_is_bit_exact(self, alpha, delta, d_max):
        target = model_distribution(ZmParams(alpha, delta, d_max)).values[0]
        trained = train_delta(target, alpha, d_max)
        assert trained is not None
        assert abs(trained.delta - delta) < 1e-3
        assert trained.residual <= 1e-9
        again = model_distribution(ZmParams(alpha, trained.delta, d_max))
        assert again.values[0] == target

    def test_no_root_below_lower_bound(self):
        # Degree-1 mass above the delta=0 model value needs negative delta.
        assert train_delta(0.9, 1.0, 2) is None

    def test_no_root_above_upper_bound(self):
        # Mass below the delta=10 model value needs delta outside the bracket.
        assert train_delta(0.5, 1.0, 2) is None

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            train_delta(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            train_delta(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            train_delta(0.5, 0.0, 4)
        with pytest.raises(ValueError):
            train_delta(0.5, 1.0, 0)
        # Alphas past the top, where (1 + delta)**alpha overflows, and a
        # d_max that is not an int >= 1 are refused as ZmParams refuses them.
        top = zm._ALPHA_TOP
        for alpha, d_max in (
            (400.0, 4),  # (1 + delta)**alpha overflows
            (math.nextafter(top, math.inf), 4),
            (math.inf, 4),
            (math.nan, 4),
            (1.0, 2.5),
            (1.0, True),
            (1.0, np.int64(4)),
        ):
            with pytest.raises(ValueError, match="alpha must be in|d_max must be"):
                train_delta(0.5, alpha, d_max)
        # The top of the alpha range still trains; no delta solves there.
        assert train_delta(0.5, top, 4) is None


def make_data(values, sigmas=None, d_max=None):
    if d_max is None:
        d_max = 1 << (len(values) - 1)
    if sigmas is None:
        sigmas = (0.0,) * len(values)
    return PooledDistribution(
        bin_edges(d_max), tuple(values), tuple(sigmas), 1, d_max, "k"
    )


class TestLoss:
    def test_admissible_requires_value_above_sigma_and_nonzero(self):
        data = make_data((0.5, 0.3, 0.2), sigmas=(0.0, 0.3, 0.1))
        assert admissible_bins(data) == (0, 2)
        data = make_data((0.5, 0.0, 0.5))
        assert admissible_bins(data) == (0, 2)

    def test_identical_distributions_have_zero_loss(self):
        data = make_data((0.5, 0.25, 0.25))
        assert half_norm_loss(data, data) == 0.0

    def test_frozen_two_bin_loss(self):
        data = make_data((0.5, 0.25, 0.25))
        model = make_data((0.5 * math.e, 0.25, 0.25 / math.e))
        # Log gaps are (1, 0, 1); each contributes sqrt(1).
        assert half_norm_loss(data, model) == pytest.approx(2.0, rel=1e-9)

    def test_noise_floor_clamps_sub_ulp_gaps(self):
        data = make_data((0.5, 0.5))
        model = make_data((0.5 * (1 + 1e-13), 0.5))
        assert half_norm_loss(data, model) == 0.0

    def test_nonpositive_model_value_is_infinite_loss(self):
        data = make_data((0.5, 0.5))
        model = make_data((0.5, 0.0))
        assert half_norm_loss(data, model) == math.inf

    def test_misaligned_bins_rejected(self):
        with pytest.raises(ValueError):
            half_norm_loss(make_data((0.5, 0.5)), make_data((0.5, 0.25, 0.25)))

    def test_all_zero_data_rejected(self):
        with pytest.raises(ValueError):
            half_norm_loss(make_data((0.0, 0.0)), make_data((0.5, 0.5)))


class TestInference:
    def test_exact_grid_recovery(self):
        true = ZmParams(1.5, 0.3, 300)
        fit = infer_parameters(model_distribution(true))
        assert fit.params.alpha == 1.5
        assert abs(fit.params.delta - true.delta) <= 1e-3
        assert fit.loss <= 1e-9
        assert fit.leaf == leaf_parameter(fit.params)
        assert fit.bins_used == len(bin_edges(300))

    def test_custom_grid_recovery(self):
        grid = AlphaGrid(1.0, 2.0, 0.25)
        fit = infer_parameters(
            model_distribution(ZmParams(1.25, 0.9, 128)), grid
        )
        assert fit.params.alpha == 1.25
        assert fit.loss <= 1e-9

    def test_degenerate_degree_one_mass(self):
        with pytest.raises(InferenceError):
            infer_parameters(make_data((0.0, 1.0)))
        with pytest.raises(InferenceError):
            infer_parameters(make_data((1.0,), d_max=1))

    def test_no_admissible_bins(self):
        with pytest.raises(InferenceError):
            infer_parameters(make_data((0.3, 0.7), sigmas=(0.5, 0.8)))

    def test_untrainable_everywhere(self):
        with pytest.raises(InferenceError):
            infer_parameters(make_data((0.97, 0.03)))


class TestBatchedSolver:
    @pytest.mark.parametrize(
        "data",
        [
            model_distribution(ZmParams(1.5, 0.3, 300)),
            model_distribution(ZmParams(0.7, 4.0, 40)),
            model_distribution(ZmParams(2.3, 0.05, 945)),
            make_data((0.6, 0.2, 0.1, 0.07, 0.03), sigmas=(0.0, 0.01, 0.0, 0.0, 0.0)),
        ],
    )
    def test_fit_is_the_training_of_its_alpha(self, data):
        d1, d_max = data.values[0], data.d_max
        grid = AlphaGrid(0.1, 4.0, 0.05)
        fit = infer_parameters(data, grid)
        trained = train_delta(d1, fit.params.alpha, d_max)
        assert fit.params.delta == trained.delta
        assert fit.loss == half_norm_loss(data, model_distribution(fit.params))
        skipped = sum(train_delta(d1, alpha, d_max) is None for alpha in grid.values)
        assert skipped < len(grid.values)

    def test_frozen_values_at_alpha_one(self):
        fit = infer_parameters(model_distribution(ZmParams(1.0, 3.0, 40)))
        assert fit.params.delta == 3.0
        fit = infer_parameters(model_distribution(ZmParams(1.0, 0.5, 300)))
        assert fit.params.delta == 0.4999999999999997

    def test_head_and_tail_path(self, monkeypatch):
        monkeypatch.setattr(zm, "EXACT_SUM_TERMS", 64)
        data = model_distribution(ZmParams(1.5, 0.3, 300))
        fit = infer_parameters(data, AlphaGrid(1.0, 2.0, 0.05))
        assert fit.params.alpha == 1.5
        assert fit.params.delta == 0.29999999989514164
        assert fit.loss == 6.556485662440223e-05

    def test_grid_is_evaluated_in_few_batches(self, monkeypatch):
        # Exact sums only for the few alphas the screen leaves, each
        # (delta, part) once; training every grid alpha would take thousands.
        calls = count_sums(monkeypatch)
        data = model_distribution(ZmParams(1.5, 0.3, 945))
        grid = AlphaGrid(0.10, 4.00, 0.005)
        fit = infer_parameters(data, grid)
        assert fit.params.alpha == 1.5
        assert len(calls) <= 60

    def test_trainings_go_through_the_public_functions(self, monkeypatch):
        # A tracer that wraps zm.train_delta and zm.model_distribution sees
        # every exact training of a fit and the model of each success.
        trained, modelled = [], []
        train, model = zm.train_delta, zm.model_distribution

        def counted_train(d1, alpha, d_max):
            result = train(d1, alpha, d_max)
            trained.append((alpha, result))
            return result

        def counted_model(params):
            modelled.append(params)
            return model(params)

        data = model_distribution(ZmParams(1.5, 0.5, 1024))
        monkeypatch.setattr(zm, "train_delta", counted_train)
        monkeypatch.setattr(zm, "model_distribution", counted_model)
        callers = count_sums(monkeypatch)
        fit = infer_parameters(data, FINE_GRID)
        assert fit.params.alpha == 1.5
        assert fit.params.alpha in [alpha for alpha, _ in trained]
        assert modelled == [
            ZmParams(alpha, result.delta, 1024)
            for alpha, result in trained
            if result is not None
        ]
        # No exact sum is taken outside them.
        assert set(callers) == {"train_delta.<locals>.sums", "model_distribution"}
        assert callers.count("model_distribution") == len(modelled)


FINE_GRID = AlphaGrid(0.10, 4.00, 0.005)


def noisy_pool(rng, params, samples, windows):
    """Mean and spread of multinomial draws from a model's pooled values."""
    model = np.array(model_distribution(params).values)
    draws = rng.multinomial(samples, model / model.sum(), size=windows) / samples
    sigmas = draws.std(axis=0) if windows > 1 else np.zeros(len(model))
    return PooledDistribution(
        bin_edges(params.d_max),
        tuple(draws.mean(axis=0).tolist()),
        tuple(sigmas.tolist()),
        windows,
        params.d_max,
        "k",
    )


def tie_pool(d1, d_max, j, grid, k):
    """A pool whose only admissible bins are 0 (value d1) and j, on which
    grid alphas k and k + 1 have the same exact loss: bin j's value starts
    at the geometric mean of their model values and moves by ulps until
    the losses are equal.  None when no such value is found."""
    models = []
    for alpha in grid.values[k : k + 2]:
        trained = train_delta(d1, alpha, d_max)
        if trained is None:
            return None
        models.append(model_distribution(ZmParams(alpha, trained.delta, d_max)))
    values = list(models[0].values)
    values[0] = d1
    sigmas = list(values)
    sigmas[0] = sigmas[j] = 0.0
    up = down = math.sqrt(models[0].values[j] * models[1].values[j])
    for _ in range(64):
        for value in (up, down):
            values[j] = value
            data = make_data(values, sigmas, d_max)
            if half_norm_loss(data, models[0]) == half_norm_loss(data, models[1]):
                return data
        up = math.nextafter(up, 1.0)
        down = math.nextafter(down, 0.0)
    return None


def generated_pools(kind, count, seed):
    """``count`` pools of one kind: model pools, one-window or four-window
    multinomial pools, engineered two-alpha ties, or model pools of a grid
    alpha at the upper delta bound (whose training the screen cannot
    decide), with d_max spread log-uniformly over 1..4096, each with the
    grid it is fitted on."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        grid = (DEFAULT_GRID, FINE_GRID)[len(cases) % 2]
        d_max = int(round(math.exp(rng.uniform(0.0, math.log(4096)))))
        params = ZmParams(rng.uniform(0.2, 3.9), rng.uniform(0.0, 9.0), d_max)
        if kind == "model":
            data = model_distribution(params)
        elif kind == "noisy":
            data = noisy_pool(rng, params, int(rng.integers(20, 100_000)), 1)
        elif kind == "windows":
            data = noisy_pool(rng, params, int(rng.integers(20, 10_000)), 4)
        elif kind == "boundary":
            alpha = grid.values[int(rng.integers(0, len(grid.values)))]
            upper = zm.TRAIN_DELTA_BOUNDS[1]
            data = model_distribution(ZmParams(alpha, upper, d_max))
        else:
            bins = len(bin_edges(d_max))
            if bins < 2:
                continue
            k = int(rng.integers(0, len(grid.values) - 1))
            shifted = ZmParams(grid.values[k] + grid.step / 2, params.delta, d_max)
            d1 = model_distribution(shifted).values[0]
            data = tie_pool(d1, d_max, int(rng.integers(1, bins)), grid, k)
            if data is None:
                continue
        cases.append((data, grid))
    return cases


def undecided_screen(data, alphas):
    """A screen that decides no alpha, so every admitted alpha is trained."""
    n = len(alphas)
    return zm._Screen(np.full(n, np.nan), np.full(n, np.inf), np.zeros(n, np.int8))


def count_sums(monkeypatch):
    """Patch zm._sums to record the qualified name of each call's caller."""
    callers = []
    sums = zm._sums

    def counted(alpha, delta, d_max, bins):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return sums(alpha, delta, d_max, bins)

    monkeypatch.setattr(zm, "_sums", counted)
    return callers


def inference_outcome(data, grid):
    try:
        return infer_parameters(data, grid)
    except InferenceError as exc:
        return str(exc)


@pytest.fixture
def trained_counts(monkeypatch):
    """The number of alphas each infer_parameters call trains through
    zm.train_delta, in call order, for the calls that train any."""
    counts = []
    last = None
    train = zm.train_delta

    def counted(d1, alpha, d_max):
        nonlocal last
        caller = sys._getframe(1)
        if caller.f_code is zm.infer_parameters.__code__:
            if caller is not last:  # held, so a new fit has a new frame
                counts.append(0)
                last = caller
            counts[-1] += 1
        return train(d1, alpha, d_max)

    monkeypatch.setattr(zm, "train_delta", counted)
    return counts


class TestScreenedInference:
    @pytest.mark.parametrize("kind", ["model", "noisy", "windows", "tie", "boundary"])
    def test_matches_confirming_every_alpha(self, monkeypatch, kind):
        outcomes = []
        for data, grid in generated_pools(kind, 40, seed=20261018):
            screened = inference_outcome(data, grid)
            with monkeypatch.context() as patch:
                patch.setattr(zm, "_screen", undecided_screen)
                confirmed = inference_outcome(data, grid)
            assert screened == confirmed, data
            outcomes.append(screened)
        fits = [fit for fit in outcomes if isinstance(fit, zm.ZmFit)]
        assert len(fits) >= 25
        assert len({fit.params.d_max for fit in fits}) >= 15

    def test_tie_goes_to_the_smaller_alpha(self, trained_counts):
        d1 = model_distribution(ZmParams(1.5025, 0.7, 1000)).values[0]
        data = tie_pool(d1, 1000, 7, FINE_GRID, FINE_GRID.values.index(1.5))
        trained_counts.clear()
        fit = infer_parameters(data, FINE_GRID)
        assert fit.params.alpha == 1.5
        other = train_delta(d1, 1.505, 1000)
        model = model_distribution(ZmParams(1.505, other.delta, 1000))
        assert half_norm_loss(data, model) == fit.loss > 0.0
        assert 2 <= trained_counts[0] <= 10

    @pytest.mark.parametrize(
        "exact_terms, sizes, grid",
        [
            (zm.EXACT_SUM_TERMS, (1, 2, 37, 300, 3000), FINE_GRID),
            # _sums' head-and-tail path.
            (64, (65, 300), AlphaGrid(0.1, 4.0, 0.03)),
        ],
    )
    def test_bound_holds_for_every_admitted_alpha(
        self, monkeypatch, exact_terms, sizes, grid
    ):
        monkeypatch.setattr(zm, "EXACT_SUM_TERMS", exact_terms)
        rng = np.random.default_rng(5)
        verdicts = []
        for d_max in sizes:
            params = ZmParams(1.3, 0.6, d_max)
            for data in (
                model_distribution(params),
                noisy_pool(rng, params, 5000, 1),
                noisy_pool(rng, params, 500, 4),
            ):
                d1 = data.values[0]
                alphas = grid.values
                screen = zm._screen(data, np.array(alphas))
                for k, alpha in enumerate(alphas):
                    verdict = screen.verdict[k]
                    verdicts.append(verdict)
                    if d1 == 1.0:
                        # train_delta and infer_parameters refuse the pool.
                        with pytest.raises(ValueError):
                            train_delta(d1, alpha, d_max)
                        assert verdict != 1, alpha
                        continue
                    trained = train_delta(d1, alpha, d_max)
                    if verdict == -1:
                        assert trained is None, alpha
                    elif verdict == 1:
                        assert trained is not None, alpha
                        model = model_distribution(ZmParams(alpha, trained.delta, d_max))
                        loss = half_norm_loss(data, model)
                        assert abs(loss - screen.loss[k]) <= screen.bound[k], alpha
        assert verdicts.count(1) >= 100 and verdicts.count(-1) >= 20

    @pytest.mark.parametrize(
        "exact_terms, data, grid, most",
        [
            (zm.EXACT_SUM_TERMS, model_distribution(ZmParams(1.5, 0.3, 945)),
             FINE_GRID, 40),
            (64, model_distribution(ZmParams(1.3, 0.6, 300)),
             AlphaGrid(0.1, 4.0, 0.03), 60),
        ],
    )
    def test_screen_decides_admission(self, monkeypatch, exact_terms, data, grid, most):
        # Exact sums are asked only for the alphas the screen leaves open
        # or cannot rule out, not for the bracket test of every grid alpha.
        monkeypatch.setattr(zm, "EXACT_SUM_TERMS", exact_terms)
        calls = count_sums(monkeypatch)
        infer_parameters(data, grid)
        assert len(calls) <= most

    def test_trains_every_alpha_the_screen_cannot_rule_out(self, trained_counts):
        # With only bin 0 admissible every trained alpha scores 0, so the
        # screen rules out none of the admitted alphas it proves trainable.
        model = model_distribution(ZmParams(1.5, 2.0, 64))
        data = make_data(model.values, (0.0,) + model.values[1:], 64)
        fit = infer_parameters(data, FINE_GRID)
        assert fit.loss == 0.0
        infer_parameters(model, FINE_GRID)
        assert trained_counts[1] < trained_counts[0] / 100
