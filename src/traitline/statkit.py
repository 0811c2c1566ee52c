"""Deterministic numeric kernels shared by every feature extractor.

All statistics use the population (divide-by-n) convention so that the
coefficient of variation and the distribution summaries agree with each
other. Entropy is Shannon entropy in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PARAM_NAMES = ("min", "max", "mean", "median", "std", "skewness", "entropy")

N_BINS = 20


class EmptySampleError(ValueError):
    pass


class UndefinedCovError(ValueError):
    pass


@dataclass(frozen=True)
class DistParams:
    """The seven summary statistics of a sample distribution."""

    min: float
    max: float
    mean: float
    median: float
    std: float
    skewness: float
    entropy: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.min, self.max, self.mean, self.median, self.std,
                self.skewness, self.entropy)


def _as_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size == 0:
        raise EmptySampleError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


def entropy_from_counts(counts: Iterable[int]) -> float:
    """Shannon entropy in bits of a category count vector."""
    c = np.asarray(list(counts), dtype=np.float64)
    c = c[c > 0]
    if c.size == 0:
        raise EmptySampleError("empty sample")
    p = c / c.sum()
    return float(-np.sum(p * np.log2(p)))


def entropy_of(values: Sequence[float] | np.ndarray) -> float:
    """Shannon entropy (bits) of the empirical distribution of a sample.

    An integer-valued sample counts each distinct value as its own
    category; any other sample is cut into ``N_BINS`` equal-width bins
    spanning [min, max]. A constant sample has entropy 0.
    """
    arr = _as_array(values)
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        return 0.0
    if np.all(arr == np.floor(arr)):
        _, counts = np.unique(arr, return_counts=True)
    else:
        width = (hi - lo) / N_BINS
        idx = np.minimum(((arr - lo) / width).astype(np.int64), N_BINS - 1)
        counts = np.bincount(idx, minlength=N_BINS)
    return entropy_from_counts(counts)


def dist_params(values: Sequence[float] | np.ndarray) -> DistParams:
    """Summarize a nonempty sample by the seven distribution parameters.

    Standard deviation is population std. Skewness is the Fisher-Pearson
    coefficient g1 = m3 / m2^1.5, defined as 0 for zero-variance samples.
    The median of an even-sized sample is the midpoint of the two middle
    order statistics.
    """
    arr = _as_array(values)
    mean = float(arr.mean())
    centered = arr - mean
    m2 = float(np.mean(centered ** 2))
    if m2 == 0.0:
        skew = 0.0
    else:
        m3 = float(np.mean(centered ** 3))
        skew = m3 / m2 ** 1.5
    return DistParams(
        min=float(arr.min()),
        max=float(arr.max()),
        mean=mean,
        median=float(np.median(arr)),
        std=math.sqrt(m2),
        skewness=skew,
        entropy=entropy_of(arr),
    )


def coefficient_of_variation(values: Sequence[float] | np.ndarray) -> float:
    """Population std divided by mean; requires a strictly positive mean."""
    arr = _as_array(values)
    mean = float(arr.mean())
    if mean == 0.0:
        raise UndefinedCovError("undefined Cov: sample mean is zero")
    return float(arr.std()) / mean
