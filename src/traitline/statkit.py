"""Deterministic numeric kernels shared by every feature extractor.

All statistics use the population (divide-by-n) convention so that the
coefficient of variation and the distribution summaries agree with each
other. Entropy is Shannon entropy in bits.

``dist_params`` sorts each sample once: the minimum, maximum, median and
the entropy's category counts are all read from the sorted copy, while
the moments sum the sample in its given order.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

N_BINS = 20

# ``ndarray.sum()`` and ``.all()`` are these reductions behind a Python frame
_sum = np.add.reduce
_all = np.logical_and.reduce


class EmptySampleError(ValueError):
    pass


class UndefinedCovError(ValueError):
    pass


class DistParams(NamedTuple):
    """The seven summary statistics of a sample distribution."""

    min: float
    max: float
    mean: float
    median: float
    std: float
    skewness: float
    entropy: float


PARAM_NAMES = DistParams._fields


def _as_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size == 0:
        raise EmptySampleError("empty sample")
    if not _all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


def entropy_from_counts(counts: Iterable[int]) -> float:
    """Shannon entropy in bits of a category count vector."""
    c = np.asarray(counts if isinstance(counts, np.ndarray) else list(counts),
                   dtype=np.float64)
    c = c[c > 0]
    if c.size == 0:
        raise EmptySampleError("empty sample")
    p = c / _sum(c)
    return -float(_sum(p * np.log2(p)))


def _sorted_entropy(ordered: np.ndarray, lo: float, hi: float) -> float:
    """Shannon entropy (bits) of a sample given sorted ascending.

    An integer-valued sample counts each distinct value as its own
    category; any other sample is cut into ``N_BINS`` equal-width bins
    spanning [min, max]. Either key is nondecreasing along the sorted
    sample, so each category's count is the length of one run of equal
    keys, and the counts come out in ascending key order. ``lo`` and
    ``hi`` are its first and last values.
    """
    if lo == hi:
        return 0.0
    if _all(ordered == np.floor(ordered)):
        keys = ordered
    else:
        width = (hi - lo) / N_BINS
        keys = np.minimum(((ordered - lo) / width).astype(np.int64),
                          N_BINS - 1)
    n = keys.size
    run_start = np.ones(n + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:n])
    bounds = run_start.nonzero()[0]
    return entropy_from_counts(bounds[1:] - bounds[:-1])


def dist_params(values: Sequence[float] | np.ndarray) -> DistParams:
    """Summarize a nonempty sample by the seven distribution parameters.

    Standard deviation is population std. Skewness is the Fisher-Pearson
    coefficient g1 = m3 / m2^1.5, defined as 0 when m2^1.5 is 0: for
    zero-variance samples, and for samples of values so small that m2^1.5
    underflows.
    The median of an even-sized sample is the midpoint of the two middle
    order statistics.
    """
    arr = _as_array(values)
    ordered = arr.copy()
    ordered.sort()
    n = arr.size
    # moments sum the sample in its given order: the rounding depends on it
    mean = float(_sum(arr)) / n
    centered = arr - mean
    m2 = float(_sum(centered * centered)) / n
    scale = m2 ** 1.5  # 0 for zero variance, and where a tiny m2 underflows
    if scale == 0.0:
        skew = 0.0
    else:
        # ** 3 is pow(); c * c * c would round differently
        m3 = float(_sum(centered ** 3)) / n
        skew = m3 / scale
    # the mean of the middle one or two values, summed from +0.0 as a numpy
    # sum is: a median of zeros reads 0.0, never -0.0
    half = n // 2
    median = (0.0 + ordered.item(half) if n % 2
              else (0.0 + ordered.item(half - 1) + ordered.item(half)) / 2)
    lo, hi = ordered.item(0), ordered.item(-1)
    return DistParams(lo, hi, mean, median, math.sqrt(m2), skew,
                      _sorted_entropy(ordered, lo, hi))


def coefficient_of_variation(values: Sequence[float] | np.ndarray) -> float:
    """Population std divided by mean; requires a strictly positive mean."""
    arr = _as_array(values)
    mean = float(arr.mean())
    if mean == 0.0:
        raise UndefinedCovError("undefined Cov: sample mean is zero")
    return float(arr.std()) / mean
