import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitline.statkit import (DistParams, EmptySampleError, UndefinedCovError,
                               coefficient_of_variation, dist_params,
                               entropy_from_counts)


# ---- naive reference implementations (pure python, from the definitions) --

def ref_entropy(values, n_bins=20):
    lo, hi = min(values), max(values)
    if lo == hi:
        return 0.0
    if all(v == math.floor(v) for v in values):
        counts = Counter(values)
    else:
        width = (hi - lo) / n_bins
        counts = Counter(min(int((v - lo) / width), n_bins - 1)
                         for v in values)
    n = len(values)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def ref_dist_params(values):
    n = len(values)
    mean = sum(values) / n
    ordered = sorted(values)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    m2 = sum((v - mean) ** 2 for v in values) / n
    m3 = sum((v - mean) ** 3 for v in values) / n
    skew = 0.0 if m2 == 0 else m3 / m2 ** 1.5
    return (ordered[0], ordered[-1], mean, median, math.sqrt(m2), skew,
            ref_entropy(values))


# ---- the single-pass kernels as they stood, kept verbatim as bitwise oracles --

def _oracle_as_array(values):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size == 0:
        raise EmptySampleError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


def oracle_entropy_from_counts(counts):
    c = np.asarray(list(counts), dtype=np.float64)
    c = c[c > 0]
    if c.size == 0:
        raise EmptySampleError("empty sample")
    p = c / c.sum()
    return float(-np.sum(p * np.log2(p)))


def oracle_entropy_of(values):
    arr = _oracle_as_array(values)
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        return 0.0
    if np.all(arr == np.floor(arr)):
        _, counts = np.unique(arr, return_counts=True)
    else:
        width = (hi - lo) / 20
        idx = np.minimum(((arr - lo) / width).astype(np.int64), 20 - 1)
        counts = np.bincount(idx, minlength=20)
    return oracle_entropy_from_counts(counts)


def oracle_dist_params(values):
    arr = _oracle_as_array(values)
    mean = float(arr.mean())
    centered = arr - mean
    m2 = float(np.mean(centered ** 2))
    if m2 == 0.0:
        skew = 0.0
    else:
        m3 = float(np.mean(centered ** 3))
        skew = m3 / m2 ** 1.5
    return (float(arr.min()), float(arr.max()), mean,
            float(np.median(arr)), math.sqrt(m2), skew,
            oracle_entropy_of(arr))


def bits(values):
    """Floats as hex strings: equal lists mean equal bits, signed zeros too."""
    return [float(v).hex() for v in values]


def outcome(fn, sample):
    """``bits`` of what ``fn`` returns for ``sample``, or the error it raises."""
    try:
        out = fn(sample)
    except ArithmeticError as exc:
        return type(exc).__name__
    return bits(out if isinstance(out, tuple) else [out])


def ref_cov(values):
    mean = sum(values) / len(values)
    m2 = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(m2) / mean


# ---- closed-form examples --------------------------------------------------

def test_constant_sample():
    p = dist_params([5, 5, 5])
    assert p == DistParams(5, 5, 5, 5, 0.0, 0.0, 0.0)


def test_small_symmetric_sample():
    p = dist_params([1, 2, 3])
    assert p.mean == 2.0
    assert p.median == 2.0
    assert p.std == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert p.skewness == 0.0


def test_skewness_three_zeros_one_one():
    # m2 = 0.1875, m3 = 0.09375; g1 = m3 / m2^1.5
    p = dist_params([0, 0, 0, 1])
    assert p.skewness == pytest.approx(0.09375 / 0.1875 ** 1.5, abs=1e-12)
    assert p.skewness == pytest.approx(1.1547, abs=1e-4)


def test_median_even_sample():
    assert dist_params([1, 2, 3, 10]).median == 2.5


def test_entropy_uniform_four():
    assert dist_params([4, 7, 9, 11]).entropy == pytest.approx(2.0,
                                                               abs=1e-12)


def test_entropy_three_one_pattern():
    expected = 0.75 * math.log2(4 / 3) + 0.25 * math.log2(4)
    assert dist_params([7, 7, 7, 2]).entropy == pytest.approx(expected,
                                                              abs=1e-12)
    assert expected == pytest.approx(0.8113, abs=1e-4)


def test_entropy_constant_is_zero():
    assert dist_params([3.3, 3.3, 3.3]).entropy == 0.0


def test_entropy_from_counts():
    assert entropy_from_counts([3, 1]) == pytest.approx(
        0.75 * math.log2(4 / 3) + 0.25 * 2, abs=1e-12)
    assert entropy_from_counts([5]) == 0.0


def test_entropy_binned_continuous():
    # 0.0 -> bin 0, 0.5 -> bin 10, 1.0 -> top bin; three equal categories
    assert dist_params([0.0, 0.5, 1.0]).entropy == pytest.approx(
        math.log2(3), abs=1e-12)


def test_entropy_integer_valued_floats_use_exact_categories():
    assert dist_params([600.0, 600.0, 1200.0, 1800.0]).entropy == \
        pytest.approx(0.5 + 0.5 * math.log2(4), abs=1e-12)


def test_cov_examples():
    assert coefficient_of_variation([5, 5, 5]) == 0.0
    assert coefficient_of_variation([1, 1, 10]) == pytest.approx(1.0607,
                                                                 abs=1e-4)
    assert coefficient_of_variation([2, 4]) == pytest.approx(1.0 / 3.0,
                                                             abs=1e-12)


def test_cov_zero_mean_rejected():
    with pytest.raises(UndefinedCovError, match="undefined Cov"):
        coefficient_of_variation([0, 0, 0])


def test_empty_sample_rejected():
    with pytest.raises(EmptySampleError, match="empty sample"):
        dist_params([])
    with pytest.raises(EmptySampleError):
        dist_params([]).entropy
    with pytest.raises(EmptySampleError):
        coefficient_of_variation([])


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        dist_params([1.0, math.nan])
    with pytest.raises(ValueError):
        dist_params([1.0, math.inf])


def test_opposite_infinities_rejected_without_a_numpy_warning():
    # checked before the sum, so inf + -inf is never computed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            dist_params([math.inf, -math.inf])
        with pytest.raises(ValueError, match="non-finite"):
            coefficient_of_variation([math.inf, -math.inf])


# ---- properties ------------------------------------------------------------

def _random_samples(n_samples, rng):
    for _ in range(n_samples):
        size = rng.randint(1, 60)
        if rng.random() < 0.4:
            yield [float(rng.randint(-20, 20)) for _ in range(size)]
        else:
            yield [rng.uniform(-100, 100) for _ in range(size)]


def test_matches_naive_reference():
    rng = random.Random(7)
    for sample in _random_samples(300, rng):
        got = tuple(dist_params(sample))
        want = ref_dist_params(sample)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-12)


def test_cov_matches_naive_reference():
    rng = random.Random(8)
    for _ in range(300):
        sample = [rng.uniform(0.1, 50.0) for _ in range(rng.randint(1, 40))]
        assert coefficient_of_variation(sample) == pytest.approx(
            ref_cov(sample), rel=1e-12)


def test_scale_equivariance():
    rng = random.Random(9)
    for _ in range(100):
        sample = [rng.uniform(1.0, 50.0) for _ in range(rng.randint(2, 30))]
        c = rng.uniform(0.5, 10.0)
        base = dist_params(sample)
        scaled = dist_params([c * v for v in sample])
        assert scaled.mean == pytest.approx(c * base.mean, rel=1e-9)
        assert scaled.std == pytest.approx(c * base.std, rel=1e-9)
        assert scaled.skewness == pytest.approx(base.skewness, rel=1e-6,
                                                abs=1e-9)
        assert coefficient_of_variation([c * v for v in sample]) == \
            pytest.approx(coefficient_of_variation(sample), rel=1e-9)


def test_affine_shift_keeps_skewness():
    rng = random.Random(10)
    for _ in range(50):
        sample = [rng.uniform(-5, 5) for _ in range(rng.randint(3, 30))]
        shift = rng.uniform(-100, 100)
        assert dist_params([v + shift for v in sample]).skewness == \
            pytest.approx(dist_params(sample).skewness, rel=1e-6, abs=1e-8)


def test_entropy_upper_bound():
    rng = random.Random(11)
    for sample in _random_samples(200, rng):
        h = dist_params(sample).entropy
        if all(v == math.floor(v) for v in sample):
            bound = math.log2(max(len(set(sample)), 1))
        else:
            bound = math.log2(20)
        assert h <= bound + 1e-12
        assert h >= 0.0


# ---- the one-sort kernels against the oracles, bit for bit -------------------

@st.composite
def samples(draw):
    """Constant, integer-valued, binned or tie-heavy samples of 1-300 values.

    A sample holds zeros of one sign only. Which zero ``np.min`` returns
    for a mixed pair is unspecified, and no feature sample mixes them: only
    pair entropies can be -0.0, and those are never +0.0.
    """
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["constant", "integer", "binned", "ties"]))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    if kind == "constant":
        values = [draw(finite)] * n
    elif kind == "integer":
        values = draw(st.lists(st.integers(-50, 50).map(float),
                               min_size=n, max_size=n))
    elif kind == "binned":
        values = draw(st.lists(finite, min_size=n, max_size=n))
    else:
        levels = draw(st.lists(finite, min_size=1, max_size=5))
        values = draw(st.lists(st.sampled_from(levels), min_size=n,
                               max_size=n))
    zero = draw(st.sampled_from([0.0, -0.0]))
    return [zero if v == 0.0 else v for v in values]


def oracle_fields_but_skewness(values):
    """The oracle's other six fields, in ``DistParams`` field order with the
    skewness set to 0.0: for samples whose m2 ** 1.5 underflows, where the
    oracle divides by zero."""
    arr = _oracle_as_array(values)
    mean = float(arr.mean())
    m2 = float(np.mean((arr - mean) ** 2))
    return (float(arr.min()), float(arr.max()), mean, float(np.median(arr)),
            math.sqrt(m2), 0.0, oracle_entropy_of(arr))


@settings(max_examples=400, deadline=None)
@given(samples())
def test_dist_params_bits_match_oracle(sample):
    expected = outcome(oracle_dist_params, sample)
    if expected == "ZeroDivisionError":
        # a near-constant sample of tiny values underflows m2 ** 1.5 to 0
        expected = outcome(oracle_fields_but_skewness, sample)
    assert outcome(lambda v: tuple(dist_params(v)), sample) == expected
    assert outcome(lambda v: dist_params(v).entropy, sample) == \
        outcome(oracle_entropy_of, sample)


@pytest.mark.parametrize("sample", [[1e-155, 3e-155],
                                    [1e-160, 1e-160, 2e-160]])
def test_skewness_is_zero_where_the_variance_power_underflows(sample):
    # m2 is a positive subnormal, and m2 ** 1.5 underflows to 0
    with pytest.raises(ZeroDivisionError):
        oracle_dist_params(sample)
    params = dist_params(sample)
    assert params.std > 0.0
    assert bits([params.skewness]) == bits([0.0])
    assert outcome(lambda v: tuple(dist_params(v)), sample) == \
        outcome(oracle_fields_but_skewness, sample)


def test_median_of_negative_zeros_reads_positive_zero():
    # np.median sums the middle values from +0.0; the sorted read must too
    for n in (1, 2, 3, 4):
        assert bits([dist_params([-0.0] * n).median]) == bits([0.0])
        assert bits([dist_params([-0.0] * n).min]) == bits([-0.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=60))
def test_entropy_from_counts_bits_match_oracle(counts):
    if not any(counts):
        with pytest.raises(EmptySampleError):
            entropy_from_counts(counts)
        return
    assert bits([entropy_from_counts(counts)]) == \
        bits([oracle_entropy_from_counts(counts)])
