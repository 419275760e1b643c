import numpy as np
import pytest
from conftest import make_exp_linear_path
from hypothesis import given, settings
from hypothesis import strategies as st

from rvolest import (
    DegenerateInput,
    ObservationPath,
    RobustConfig,
    estimate,
    get_preset,
    kmeans,
    make_builtin,
    merge_consecutive,
    residuals,
    simulate,
    suggest_k,
)
from rvolest.clustering import MergeMode, Partition, _lloyd


def partition_from_flags(flags):
    """Build a 2-cluster Partition with given in-D flags (label 0 = D)."""
    flags = np.asarray(flags, dtype=bool)
    labels = np.where(flags, 0, 1)
    sizes = np.bincount(labels, minlength=2)
    return Partition(k=2, labels=labels, centers=np.array([10.0, 0.1]),
                     sizes=sizes, wcss=0.0)


class TestResiduals:
    def test_clean_data_standardized(self, rng):
        path, model = make_exp_linear_path(rng, n=5000)
        eps_hat = residuals(path, model, np.array([-2.0, 3.0, 0.0]))
        assert np.mean(eps_hat**2) == pytest.approx(1.0, abs=0.1)

    def test_spike_hits_two_increments(self, rng):
        path, model = make_exp_linear_path(rng, n=300)
        theta = np.array([-2.0, 3.0, 0.0])
        y = np.array(path.responses[:, 0], copy=True)
        j = 150
        y[j] += 100.0 * np.sqrt(path.h)
        spiked = ObservationPath(n=path.n, T=path.T, times=path.times,
                                 covariates=path.covariates, responses=y)
        eps_hat = residuals(spiked, model, theta)
        assert eps_hat[j - 1] > 3.0 and eps_hat[j] > 3.0

    def test_zero_increments_zero_residuals(self):
        model = make_builtin("const-levy")
        path = ObservationPath(
            n=4, T=1.0, times=np.arange(5) / 4.0,
            covariates=np.zeros((5, 1)), responses=np.zeros(5),
        )
        np.testing.assert_array_equal(residuals(path, model, np.zeros(1)), np.zeros(4))

    def test_nonnegative_and_length(self, rng):
        path, model = make_exp_linear_path(rng, n=64)
        eps_hat = residuals(path, model, np.zeros(3))
        assert eps_hat.shape == (64,)
        assert np.all(eps_hat >= 0.0)


class TestKmeans:
    def test_separated_clusters(self):
        values = np.concatenate([np.full(50, 0.1), np.full(5, 10.0)])
        part = kmeans(values, 2)
        assert sorted(part.d_indices) == list(range(51, 56))
        assert part.sizes.tolist() == [5, 50]

    def test_partition_is_partition(self, rng):
        values = rng.exponential(size=200)
        part = kmeans(values, 4)
        assert part.sizes.sum() == 200
        c_indices = np.flatnonzero(~part.in_d) + 1
        assert set(np.concatenate([c_indices, part.d_indices])) == set(range(1, 201))
        assert not set(c_indices) & set(part.d_indices)
        # sizes ascending with C last
        assert all(a <= b for a, b in zip(part.sizes, part.sizes[1:]))

    def test_deterministic(self, rng):
        values = rng.exponential(size=500)
        a = kmeans(values, 3, seed=7)
        b = kmeans(values, 3, seed=7)
        np.testing.assert_array_equal(a.labels, b.labels)

    @given(st.floats(0.01, 1000.0))
    @settings(max_examples=10, deadline=None)
    def test_scale_equivariant_labels(self, c):
        rng = np.random.default_rng(99)
        values = rng.exponential(size=120)
        base = kmeans(values, 3, seed=1)
        scaled = kmeans(c * values, 3, seed=1)
        np.testing.assert_array_equal(base.labels, scaled.labels)

    def test_wcss_monotone_descent(self, rng):
        values = rng.exponential(size=300)
        init = np.array([0.1, 1.0, 5.0])
        prev = np.inf
        for iters in range(1, 12):
            _, _, wcss = _lloyd(values.copy(), init.copy(), max_iter=iters)
            assert wcss <= prev + 1e-12
            prev = wcss

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            kmeans(np.ones(10), 2)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.random(5), 1)
        with pytest.raises(ValueError):
            kmeans(rng.random(3), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises_naming_its_index(self, bad, rng, monkeypatch):
        def no_lloyd(*args, **kwargs):
            raise AssertionError("a Lloyd pass ran on non-finite values")

        monkeypatch.setattr("rvolest.clustering._lloyd", no_lloyd)
        values = rng.exponential(size=200)
        values[[57, 120]] = bad
        with pytest.raises(ValueError, match=r"^values\[57\] is -?(nan|inf), not a finite"):
            kmeans(values, 3)
        with pytest.raises(ValueError, match=r"^values\[57\] is"):
            suggest_k(values, range(2, 5))

    def test_flagged_mean_exceeds_kept_mean(self, rng):
        sc = get_preset("sec6-1-spike", n=2000, seed=4)
        bundle = simulate(sc)
        model = make_builtin("exp-linear-3")
        res = estimate(bundle.observed, model, RobustConfig.density_power(0.5))
        eps_hat = residuals(bundle.observed, model, res.theta_hat)
        part = kmeans(eps_hat, 4)
        assert eps_hat[part.in_d].mean() > eps_hat[~part.in_d].mean()


class TestMergeConsecutive:
    def test_pair_drops_second(self):
        flags = np.zeros(12, dtype=bool)
        flags[[6, 7]] = True  # increments j=7, j=8 (1-based)
        merged = merge_consecutive(partition_from_flags(flags))
        assert merged.d_indices.tolist() == [7]

    def test_no_pairs_unchanged(self):
        flags = np.zeros(12, dtype=bool)
        flags[[2, 6, 9]] = True
        part = partition_from_flags(flags)
        merged = merge_consecutive(part)
        np.testing.assert_array_equal(merged.labels, part.labels)

    def test_run_of_three(self):
        # {3,4,5} -> {3,5}: left-to-right sweep on the evolving flags
        flags = np.zeros(10, dtype=bool)
        flags[[2, 3, 4]] = True  # 1-based indices 3, 4, 5
        merged = merge_consecutive(partition_from_flags(flags))
        assert merged.d_indices.tolist() == [3, 5]

    def test_off_mode_identity(self):
        flags = np.zeros(6, dtype=bool)
        flags[[1, 2]] = True
        part = partition_from_flags(flags)
        assert merge_consecutive(part, MergeMode.OFF) is part

    def test_sizes_updated(self):
        flags = np.zeros(8, dtype=bool)
        flags[[0, 1]] = True
        merged = merge_consecutive(partition_from_flags(flags))
        assert merged.sizes.tolist() == [1, 7]


class TestSuggestK:
    def test_two_scale_synthetic(self, rng):
        values = np.concatenate([
            rng.normal(1.0, 0.02, size=400).clip(0.5, 1.5),
            rng.normal(100.0, 0.02, size=12),
        ])
        sweep = suggest_k(values, range(2, 8))
        assert sweep.abrupt_found
        assert sweep.suggested_k == 2
        assert sweep.d_sizes[0] == 12

    def test_no_abrupt_change_flags_max(self, rng):
        values = rng.random(100)  # uniform: |D| grows smoothly with K
        sweep = suggest_k(values, range(2, 6), threshold=50.0)
        assert not sweep.abrupt_found
        assert sweep.suggested_k == 5

    def test_gapped_range_suggests_the_scanned_k_before_the_break(self):
        # |D| jumps between K = 2 and K = 4: the suggestion is 2, a scanned K,
        # not 4 - 1 = 3
        values = np.abs(np.random.default_rng(0).standard_t(2, size=500))
        sweep = suggest_k(values, [2, 4, 8, 9], seed=0)
        assert sweep.ks == (2, 4, 8, 9)
        assert sweep.d_sizes[1] >= 8 * sweep.d_sizes[0]
        assert sweep.abrupt_found and sweep.suggested_k == 2

    @pytest.mark.parametrize("k_range, threshold", [
        ([2, 4, 8, 9], 8.0), (range(2, 6), 50.0), (range(2, 8), 5.0),
    ], ids=["gapped", "no-break", "contiguous"])
    def test_partition_is_kmeans_at_the_suggested_k(self, k_range, threshold):
        values = np.abs(np.random.default_rng(0).standard_t(2, size=500))
        sweep = suggest_k(values, k_range, seed=3, threshold=threshold)
        again = kmeans(values, sweep.suggested_k, seed=3)
        part = sweep.partition
        assert part.k == sweep.suggested_k
        np.testing.assert_array_equal(part.labels, again.labels)
        np.testing.assert_array_equal(part.centers, again.centers)
        np.testing.assert_array_equal(part.sizes, again.sizes)
        assert part.wcss == again.wcss

    def test_invalid_range(self, rng):
        with pytest.raises(ValueError):
            suggest_k(rng.random(10), [])
        with pytest.raises(ValueError):
            suggest_k(rng.random(10), [1, 2])

    def test_empty_range_has_its_own_message(self, rng):
        with pytest.raises(ValueError, match="^k_range is empty$"):
            suggest_k(rng.random(10), range(5, 4))
        with pytest.raises(ValueError, match="^k_range must contain integers >= 2$"):
            suggest_k(rng.random(10), [1, 2])

    def test_spike_data_suggestion_plausible(self):
        sc = get_preset("sec6-1-spike", n=5000, seed=12)
        bundle = simulate(sc)
        model = make_builtin("exp-linear-3")
        res = estimate(bundle.observed, model, RobustConfig.density_power(0.5))
        eps_hat = residuals(bundle.observed, model, res.theta_hat)
        sweep = suggest_k(eps_hat, range(2, 11))
        assert sweep.abrupt_found
        assert 2 <= sweep.suggested_k <= 7

    @pytest.mark.parametrize("seed", [201, 202, 203])
    def test_jump_data_flagged_part_matches_jump_count(self, seed):
        # at the suggested K the flagged part has roughly jump-count size and
        # holds most jump-affected increments
        sc = get_preset("sec6-2-jump-normal", n=5000, seed=seed)
        bundle = simulate(sc)
        model = make_builtin("exp-linear-3")
        res = estimate(bundle.observed, model, RobustConfig.density_power(0.5))
        eps_hat = residuals(bundle.observed, model, res.theta_hat)
        sweep = suggest_k(eps_hat, range(2, 11))
        assert sweep.abrupt_found
        part = kmeans(eps_hat, sweep.suggested_k)
        d_size = int(part.in_d.sum())
        assert 20 <= d_size <= 70
        jump_incr = set(np.ceil(bundle.jump_times * sc.n / sc.T).astype(int))
        caught = len(jump_incr & set(part.d_indices))
        assert caught >= 0.5 * len(jump_incr)
