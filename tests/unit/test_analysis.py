"""Unit tests for the analysis layer (stats, fitting, sweep, tables)."""

import math

import pytest

from repro.analysis import (
    LogFit,
    ProportionEstimate,
    SweepSpec,
    fit_linear,
    fit_log,
    format_table,
    mean,
    run_sweep,
    run_sweep_point,
    sample_std,
    wilson_interval,
)
from repro.channels import CorrelatedNoiseChannel, NoiselessChannel
from repro.core import run_protocol
from repro.errors import ConfigurationError
from repro.simulation import RepetitionSimulator
from repro.tasks import InputSetTask, OrTask


class TestMeanStd:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ConfigurationError):
            mean([])

    def test_std_known_value(self):
        assert sample_std([2.0, 4.0]) == pytest.approx(math.sqrt(2.0))

    def test_std_single_value_zero(self):
        assert sample_std([5.0]) == 0.0


class TestWilson:
    def test_symmetric_at_half(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        assert (0.5 - low) == pytest.approx(high - 0.5, abs=1e-9)

    def test_extreme_success_stays_in_unit_interval(self):
        low, high = wilson_interval(100, 100)
        assert high <= 1.0
        assert low > 0.9

    def test_extreme_failure(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert high < 0.1

    def test_narrower_with_more_trials(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 0)
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 3)

    def test_proportion_estimate(self):
        estimate = ProportionEstimate(successes=8, trials=10)
        assert estimate.value == 0.8
        low, high = estimate.interval
        assert low < 0.8 < high
        assert "8/10" in str(estimate)

    def test_zero_trials_value(self):
        assert ProportionEstimate(0, 0).value == 0.0


class TestFitting:
    def test_exact_linear_fit(self):
        fit = fit_linear([1, 2, 3, 4], [3, 5, 7, 9])
        assert fit.intercept == pytest.approx(1.0)
        assert fit.slope == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_exact_log_fit(self):
        ns = [4, 8, 16, 32]
        ys = [1 + 3 * math.log2(n) for n in ns]
        fit = fit_log(ns, ys)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.slope == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_data(self):
        fit = fit_linear([1, 2, 3], [5, 5, 5])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == 1.0

    def test_predict(self):
        fit = LogFit(intercept=1.0, slope=2.0, r_squared=1.0)
        assert fit.predict(3.0) == 7.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fit_linear([1], [1])
        with pytest.raises(ConfigurationError):
            fit_linear([1, 2], [1])
        with pytest.raises(ConfigurationError):
            fit_log([0, 2], [1, 1])

    def test_noisy_log_data_good_r2(self):
        ns = [4, 8, 16, 32, 64]
        ys = [2 + 1.5 * math.log2(n) + 0.01 * (-1) ** i for i, n in enumerate(ns)]
        fit = fit_log(ns, ys)
        assert fit.r_squared > 0.99
        assert fit.slope == pytest.approx(1.5, abs=0.1)


class TestSweep:
    def _noiseless_executor(self, task):
        def executor(inputs, trial_seed):
            return run_protocol(
                task.noiseless_protocol(), inputs, NoiselessChannel()
            )

        return executor

    def test_noiseless_sweep_is_perfect(self):
        task = OrTask(3)
        point = run_sweep_point(
            task, self._noiseless_executor(task), SweepSpec(20, 0)
        )
        assert point.success.value == 1.0
        assert point.mean_rounds == 1.0
        assert point.mean_overhead == 1.0

    def test_reproducible(self):
        task = InputSetTask(3)

        def executor(inputs, trial_seed):
            channel = CorrelatedNoiseChannel(0.3, rng=trial_seed)
            return run_protocol(
                task.noiseless_protocol(), inputs, channel
            )

        a = run_sweep_point(task, executor, SweepSpec(30, 5))
        b = run_sweep_point(task, executor, SweepSpec(30, 5))
        assert a.success.successes == b.success.successes

    def test_simulator_metadata_aggregated(self):
        task = InputSetTask(3)
        simulator = RepetitionSimulator()

        def executor(inputs, trial_seed):
            channel = CorrelatedNoiseChannel(0.1, rng=trial_seed)
            return simulator.simulate(
                task.noiseless_protocol(), inputs, channel
            )

        point = run_sweep_point(task, executor, SweepSpec(5, 1))
        assert "completion_rate" in point.extras

    def test_params_recorded(self):
        task = OrTask(2)
        point = run_sweep_point(
            task,
            self._noiseless_executor(task),
            SweepSpec(trials=3),
            params={"n": 2},
        )
        assert point.params == {"n": 2}

    def test_trials_validated(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(trials=0)

    def test_run_sweep_over_grid(self):
        def builder(n):
            task = OrTask(n)

            def executor(inputs, trial_seed):
                return run_protocol(
                    task.noiseless_protocol(), inputs, NoiselessChannel()
                )

            return task, executor, {"n": n}

        points = run_sweep([2, 3], builder, SweepSpec(5, 0))
        assert len(points) == 2
        assert all(point.success.value == 1.0 for point in points)
        pairs = [(p.params["n"], p.mean_overhead) for p in points]
        assert pairs == [(2, 1.0), (3, 1.0)]


class TestFormatTable:
    def test_basic_shape(self):
        table = format_table(
            ["n", "overhead"], [[8, 3.25], [16, 4.5]], title="E1"
        )
        lines = table.splitlines()
        assert lines[0] == "E1"
        assert "n" in lines[1] and "overhead" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "3.25" in table and "16" in table

    def test_float_formatting(self):
        table = format_table(["x"], [[0.123456789]])
        assert "0.1235" in table

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table

    def test_row_width_validated(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1]])

    def test_no_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])
