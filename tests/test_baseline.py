"""Unit tests for baseline selection and z-score analysis (repro.core.baseline)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.baseline import (
    BaselineModel,
    BaselineMoments,
    BaselineSpec,
    ZScoreCategory,
    classify_zscores,
    compute_zscores,
    select_baseline_mask,
)


class TestBaselineSpec:
    def test_valid_spec(self):
        spec = BaselineSpec(value_range=(46.0, 57.0), time_range=(0, 100))
        assert spec.value_range == (46.0, 57.0)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            BaselineSpec(value_range=(57.0, 46.0))
        with pytest.raises(ValueError):
            BaselineSpec(time_range=(100, 0))
        with pytest.raises(ValueError):
            BaselineSpec(min_fraction=1.5)


class TestSelectBaselineMask:
    def test_value_range_selection(self):
        data = np.array([[45.0, 50.0, 60.0], [55.0, 58.0, 47.0]])
        mask = select_baseline_mask(data, BaselineSpec(value_range=(46.0, 57.0)))
        assert mask.tolist() == [[False, True, False], [True, False, True]]

    def test_time_range_selection(self):
        data = np.ones((2, 5))
        mask = select_baseline_mask(data, BaselineSpec(time_range=(1, 3)))
        assert mask[:, 1:3].all() and not mask[:, 0].any() and not mask[:, 3:].any()

    def test_row_indices_selection(self):
        data = np.ones((3, 4))
        mask = select_baseline_mask(data, BaselineSpec(row_indices=np.array([1])))
        assert mask[1].all() and not mask[0].any() and not mask[2].any()

    def test_conjunction_of_selectors(self):
        data = np.arange(12, dtype=float).reshape(3, 4)
        spec = BaselineSpec(value_range=(4.0, 11.0), time_range=(0, 2), row_indices=np.array([1, 2]))
        mask = select_baseline_mask(data, spec)
        assert mask.sum() == 4  # rows 1-2, cols 0-1, values 4,5,8,9

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            select_baseline_mask(np.ones(5), BaselineSpec())


class TestZScoreFunctions:
    def test_compute_zscores_basic(self):
        z = compute_zscores(np.array([5.0, 10.0]), 5.0, 2.5)
        assert np.allclose(z, [0.0, 2.0])

    def test_compute_zscores_std_floor(self):
        z = compute_zscores(np.array([1.0]), 0.0, 0.0, std_floor=0.5)
        assert z[0] == pytest.approx(2.0)

    def test_classification_thresholds(self):
        z = np.array([-3.0, -1.7, 0.0, 1.7, 3.0])
        cats = classify_zscores(z)
        assert cats.tolist() == [
            ZScoreCategory.VERY_LOW,
            ZScoreCategory.LOW,
            ZScoreCategory.BASELINE,
            ZScoreCategory.ELEVATED,
            ZScoreCategory.VERY_HIGH,
        ]

    def test_classification_boundary_values(self):
        cats = classify_zscores(np.array([1.5, -1.5, 2.0, -2.0]))
        assert cats[0] is ZScoreCategory.BASELINE
        assert cats[1] is ZScoreCategory.BASELINE
        assert cats[2] is ZScoreCategory.ELEVATED
        assert cats[3] is ZScoreCategory.LOW

    def test_classification_invalid_thresholds(self):
        with pytest.raises(ValueError):
            classify_zscores(np.zeros(3), near=2.0, extreme=1.0)
        with pytest.raises(ValueError):
            classify_zscores(np.zeros(3), near=0.0)


class TestBaselineModel:
    def make_data(self):
        gen = np.random.default_rng(0)
        data = 50.0 + gen.standard_normal((20, 200))
        data[3] += 15.0     # hot row
        data[7] -= 15.0     # cold row
        return data

    def test_from_data_flags_hot_and_cold_rows(self):
        data = self.make_data()
        model = BaselineModel.from_data(data, BaselineSpec(value_range=(46.0, 54.0)))
        result = model.score(data)
        assert result.categories[3] is ZScoreCategory.VERY_HIGH
        assert result.categories[7] is ZScoreCategory.VERY_LOW
        assert result.categories[0] is ZScoreCategory.BASELINE

    def test_result_helpers(self):
        data = self.make_data()
        model = BaselineModel.from_data(data, BaselineSpec(value_range=(46.0, 54.0)))
        result = model.score(data)
        assert 3 in result.hot_rows()
        assert 7 in result.cold_rows()
        assert len(result.baseline_rows()) >= 15
        counts = result.counts()
        assert sum(counts.values()) == 20
        assert 0.0 < result.fraction_outside_baseline() < 0.5

    def test_rows_without_baseline_samples_fall_back_to_global(self):
        data = self.make_data()
        # Row 3 is entirely outside the band; it must still get finite stats.
        model = BaselineModel.from_data(data, BaselineSpec(value_range=(46.0, 54.0)))
        assert np.all(np.isfinite(model.mean))
        assert np.all(model.std > 0)

    def test_score_reducers(self):
        data = self.make_data()
        model = BaselineModel.from_data(data, BaselineSpec(value_range=(46.0, 54.0)))
        for reducer in ("mean", "max", "median", "last"):
            result = model.score(data, reducer=reducer)
            assert result.zscores.shape == (20,)
        with pytest.raises(ValueError):
            model.score(data, reducer="nope")

    def test_score_time_range(self):
        data = self.make_data()
        data[5, 100:] += 20.0    # becomes hot only in the second half
        model = BaselineModel.from_data(data[:, :100], BaselineSpec(value_range=(46.0, 54.0)))
        first = model.score(data, time_range=(0, 100))
        second = model.score(data, time_range=(100, 200))
        assert first.categories[5] is ZScoreCategory.BASELINE
        assert second.categories[5] is ZScoreCategory.VERY_HIGH
        with pytest.raises(ValueError):
            model.score(data, time_range=(300, 400))

    def test_score_vector_input(self):
        data = self.make_data()
        model = BaselineModel.from_data(data, BaselineSpec(value_range=(46.0, 54.0)))
        result = model.score(data.mean(axis=1))
        assert result.zscores.shape == (20,)
        with pytest.raises(ValueError):
            model.score(np.zeros((2, 2, 2)))

    def test_score_values_shape_check(self):
        data = self.make_data()
        model = BaselineModel.from_data(data, BaselineSpec(value_range=(46.0, 54.0)))
        with pytest.raises(ValueError):
            model.score_values(np.zeros(5))

    def test_from_reference_rows(self):
        data = self.make_data()
        model = BaselineModel.from_reference_rows(data, np.array([0, 1, 2]))
        result = model.score(data)
        assert result.categories[3] is ZScoreCategory.VERY_HIGH
        with pytest.raises(ValueError):
            BaselineModel.from_reference_rows(data, np.array([], dtype=int))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BaselineModel(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            BaselineModel(np.zeros(3), -np.ones(3))

    def test_custom_thresholds_propagate(self):
        data = self.make_data()
        model = BaselineModel.from_data(
            data, BaselineSpec(value_range=(46.0, 54.0)), near=1.0, extreme=3.0
        )
        result = model.score(data)
        assert result.near == 1.0 and result.extreme == 3.0

    def test_no_baseline_samples_at_all(self):
        data = np.full((4, 10), 100.0)
        model = BaselineModel.from_data(data, BaselineSpec(value_range=(0.0, 1.0)))
        result = model.score(data)
        assert np.all(np.isfinite(result.zscores))

    def test_min_fraction_counts_only_the_selected_columns(self):
        # Regression: min_count used every column, so a 100-of-1000-column
        # time_range with min_fraction=0.5 sent every row to the fallback.
        gen = np.random.default_rng(1)
        data = 50.0 + gen.standard_normal((6, 1000)) + np.arange(6)[:, None]
        spec = BaselineSpec(value_range=(40.0, 60.0), time_range=(0, 100), min_fraction=0.5)
        model = BaselineModel.from_data(data, spec)
        assert np.allclose(model.mean, data[:, :100].mean(axis=1), rtol=1e-12)
        assert np.allclose(model.std, data[:, :100].std(axis=1), rtol=1e-12)


class TestBaselineMoments:
    def make_data(self):
        gen = np.random.default_rng(2)
        data = 50.0 + 4.0 * gen.standard_normal((12, 300))
        data[2] += 30.0  # never in band
        data[5, 150:] = np.nan  # only reached through the mask below
        return np.nan_to_num(data, nan=-1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            BaselineSpec(value_range=(46.0, 54.0)),
            BaselineSpec(value_range=(46.0, 54.0), time_range=(70, 220)),
            BaselineSpec(value_range=(46.0, 54.0), time_range=(0, 40), min_fraction=0.6),
            BaselineSpec(value_range=(0.0, 1.0)),
            BaselineSpec(row_indices=np.array([0, 3, 4])),
        ],
    )
    def test_block_fold_matches_one_block(self, spec):
        data = self.make_data()
        edges = [0, 35, 100, 101, 250, 300]
        folded = None
        for lo, hi in zip(edges[:-1], edges[1:]):
            block = BaselineMoments.of_block(data[:, lo:hi], spec, start=lo)
            folded = block if folded is None else folded.merge(block)
        whole = BaselineMoments.of_block(data, spec)
        assert folded.selected_cols == whole.selected_cols
        assert np.array_equal(folded.count, whole.count)
        fit = BaselineModel.from_moments(folded, spec)
        reference = BaselineModel.from_data(data, spec)
        assert np.allclose(fit.mean, reference.mean, rtol=1e-12)
        assert np.allclose(fit.std, reference.std, rtol=1e-12)

    def test_merging_an_empty_block_is_exact(self):
        data = self.make_data()
        spec = BaselineSpec(value_range=(46.0, 54.0), time_range=(0, 100))
        head = BaselineMoments.of_block(data[:, :100], spec)
        tail = BaselineMoments.of_block(data[:, 100:], spec, start=100)
        merged = head.merge(tail)
        assert tail.selected_cols == 0
        assert np.array_equal(merged.mean, head.mean, equal_nan=True)
        assert np.array_equal(merged.m2, head.m2)
        assert merged.pooled == head.pooled

    def test_one_block_reproduces_nanmean_and_nanstd(self):
        data = self.make_data()
        spec = BaselineSpec(value_range=(46.0, 54.0))
        model = BaselineModel.from_data(data, spec)
        masked = np.where(select_baseline_mask(data, spec), data, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the all-NaN row
            mean = np.nanmean(masked, axis=1)
            std = np.nanstd(masked, axis=1)
        keep = np.isfinite(mean)
        assert np.array_equal(model.mean[keep], mean[keep])
        assert np.array_equal(model.std[keep], std[keep])
