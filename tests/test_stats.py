import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from dfa_meet.stats import (
    exponential_cdf,
    exponential_fit,
    exponential_quantile,
    geometric_cdf,
    geometric_quantile,
    geometric_tail_fit,
    ks_distance,
    sample_fit,
    w1_distance,
)


def test_ks_quantile_construction():
    n = 500
    quantiles = exponential_quantile(1.0)((np.arange(n) + 0.5) / n)
    assert ks_distance(quantiles, exponential_cdf(1.0)) <= 1.0 / n


def test_ks_single_sample_at_median():
    median = np.log(2.0)  # of Exp(1)
    assert ks_distance([median], exponential_cdf(1.0)) == pytest.approx(0.5)


def test_ks_dkw_scale():
    rng = np.random.default_rng(1)
    assert ks_distance(rng.exponential(size=10_000), exponential_cdf(1.0)) <= 0.02


def test_ks_against_own_ecdf_is_zero():
    rng = np.random.default_rng(2)
    values = np.sort(rng.random(100))

    def ecdf(x):
        return np.searchsorted(values, x, side="right") / values.size

    assert ks_distance(values, ecdf) == 0.0


def test_w1_identical_and_point_masses():
    assert w1_distance([1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0])) == 0.0
    assert w1_distance([2.5], np.array([7.0])) == pytest.approx(4.5)


def test_w1_matches_scipy_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.exponential(size=int(rng.integers(5, 400)))
        b = rng.gamma(2.0, size=int(rng.integers(5, 400)))
        assert w1_distance(a, b) == pytest.approx(wasserstein_distance(a, b), abs=1e-12)


def test_w1_equal_size_is_order_stat_mean():
    rng = np.random.default_rng(4)
    a, b = rng.random(50), rng.random(50)
    expected = np.abs(np.sort(a) - np.sort(b)).mean()
    assert w1_distance(a, b) == pytest.approx(expected, abs=1e-14)


def test_w1_triangle_inequality_spot_check():
    rng = np.random.default_rng(5)
    a, b, c = rng.random(64), rng.exponential(size=64), rng.gamma(3.0, size=64)
    dab = w1_distance(a, b)
    dbc = w1_distance(b, c)
    dac = w1_distance(a, c)
    assert dac <= dab + dbc + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=60), st.data())
def test_statistics_permutation_invariant(values, data):
    """Every fit and distance gives the same bits on a permuted sample as on the sorted one."""
    perm = data.draw(st.permutations(values))
    reference = data.draw(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=60))

    def results(x):
        return repr([
            ks_distance(x, exponential_cdf(1.0)),
            w1_distance(x, exponential_quantile(1.0)),
            w1_distance(x, reference),
            exponential_fit(x, 1.0).as_dict(),
            geometric_tail_fit(x, 0.2).as_dict(),
            sample_fit(x, reference, "reference").as_dict(),
        ])

    assert results(perm) == results(sorted(values))


def test_geometric_fit_on_exact_quantiles():
    # the tail-ratio normalization (1-lam)^t is the survival of the shifted
    # geometric, so feed it a sample with exactly that survival function
    lam = 0.2
    n = 2000
    sample = geometric_quantile(lam)((np.arange(n) + 0.5) / n) + 1.0
    fit = geometric_tail_fit(sample, lam)
    # the deep tail is quantized at 1/n, which moves the sup a bit past the
    # 2/sqrt(n) body scale
    assert abs(fit.sup_tail_ratio - 1.0) <= 0.1
    assert fit.sample_mean == pytest.approx(1 / lam, rel=0.05)


def test_geometric_fit_ks_on_exact_quantiles():
    lam = 0.2
    n = 2000
    sample = geometric_quantile(lam)((np.arange(n) + 0.5) / n)
    fit = geometric_tail_fit(sample, lam)
    assert fit.ks_distance <= 1.0 / n


def test_geometric_fit_degenerate_rate():
    fit = geometric_tail_fit([0, 0, 0], 1.0)
    assert fit.sup_tail_ratio == 1.0
    assert fit.ks_distance is None


def test_geometric_fit_against_true_geometric_sample():
    rng = np.random.default_rng(6)
    lam = 0.1
    sample = rng.geometric(lam, size=20_000)  # support {1, 2, ...}
    fit = geometric_tail_fit(sample, lam)
    # KS reference lives on {0, 1, ...}: the shift contributes about lam
    assert fit.ks_distance <= lam + 0.02
    # extreme order statistics put multiplicative noise on the sup
    assert 0.8 <= fit.sup_tail_ratio <= 1.5


def test_exponential_fit_report_fields():
    rng = np.random.default_rng(7)
    fit = exponential_fit(rng.exponential(size=5000), 1.0)
    assert fit.reference == "exponential"
    assert fit.ks_distance <= 0.03
    assert fit.w1_distance <= 0.05
    assert fit.sem == pytest.approx(np.sqrt(fit.sample_variance / 5000))


@pytest.mark.parametrize("mean", [-1.0, 0.0, float("nan"), float("inf")])
def test_exponential_fit_rejects_a_mean_outside_zero_to_infinity(mean):
    with pytest.raises(ValueError, match="mean must be finite and positive"):
        exponential_fit([0.5, 1.0, 2.0], mean)


def test_sample_fit_two_sample():
    rng = np.random.default_rng(8)
    a = rng.exponential(size=2000)
    ref = rng.exponential(size=50_000)
    fit = sample_fit(a, ref, "exp-ref")
    assert fit.ks_distance <= 0.05
    assert fit.w1_distance <= 0.05


def test_geometric_cdf_quantile_consistency():
    lam = 0.37
    cdf = geometric_cdf(lam)
    quantile = geometric_quantile(lam)
    for k in range(12):
        p = float(cdf(np.array([k]))[0])
        assert quantile(np.array([p - 1e-12]))[0] == k
