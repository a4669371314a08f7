"""Sample-size math of §4.4.2."""
import pytest

from repro.core.stats import (
    binom_pmf,
    binom_sf,
    sample_size_for_support,
)


def test_pmf_sums_to_one():
    assert sum(binom_pmf(20, k, 0.3) for k in range(21)) == pytest.approx(1.0)


def test_pmf_edges():
    assert binom_pmf(10, -1, 0.5) == 0.0
    assert binom_pmf(10, 11, 0.5) == 0.0
    assert binom_pmf(10, 0, 0.0) == 1.0


def test_sf_monotone_in_k():
    vals = [binom_sf(50, k, 0.2) for k in range(0, 12)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1.0


def test_sample_size_paper_defaults():
    """theta=0.1, rho=0.95, support 5 => k = 89 (P(X>=5) crosses 0.95)."""
    k = sample_size_for_support(0.1, 0.95, 5)
    assert binom_sf(k, 5, 0.1) >= 0.95
    assert binom_sf(k - 1, 5, 0.1) < 0.95
    assert k == 89


def test_sample_size_larger_theta_needs_fewer():
    assert sample_size_for_support(0.5, 0.95, 5) < sample_size_for_support(0.1, 0.95, 5)


def test_sample_size_validation():
    with pytest.raises(ValueError):
        sample_size_for_support(0.0, 0.95, 5)
    with pytest.raises(ValueError):
        sample_size_for_support(0.1, 1.0, 5)

