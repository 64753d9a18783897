"""Statistical Feature Extraction (SFE) — paper §III-A, Eq. (1)–(2).

SFE summarises a bag of transferred amounts into a fixed 15-dimensional
statistics vector.  The paper's list:

- max, min, sum, mean, and number of the input;
- range, mid-range, percentile, variance, and standard deviation;
- mean absolute deviation and coefficient of variation;
- kurtosis, skewness, and tilt.

"Percentile" is taken as the median (50th percentile); "tilt" — a
non-standard term — is implemented as ``mean − median``, the numerator of
Pearson's second skewness coefficient, i.e. how far the heavy tail drags
the mean off the bulk of the distribution.

All statistics are population (not sample) moments and are defined for
every input size: an empty input maps to the zero vector, a singleton has
zero dispersion and zero-defined shape statistics.

:func:`sfe_vector` summarises one bag; :func:`sfe_matrix` summarises many
bags at once in a single segmented ndarray pass (one sort plus a handful
of ``ufunc.reduceat`` reductions over the concatenated bags) — the hot
path for assembling per-node feature matrices, where a slice graph
carries one value bag per node.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "SFE_DIM",
    "SFE_FEATURE_NAMES",
    "sfe_vector",
    "sfe_matrix",
    "sfe_matrix_segments",
    "signed_log1p",
]

SFE_FEATURE_NAMES: Sequence[str] = (
    "max",
    "min",
    "sum",
    "mean",
    "count",
    "range",
    "midrange",
    "median",
    "variance",
    "std",
    "mad",
    "cv",
    "kurtosis",
    "skewness",
    "tilt",
)

SFE_DIM = len(SFE_FEATURE_NAMES)


def sfe_vector(values: Iterable[float]) -> np.ndarray:
    """The 15-dimensional SFE statistics of ``values``.

    Parameters
    ----------
    values:
        Transferred amounts (any real numbers; satoshis in practice).

    Returns
    -------
    numpy.ndarray
        Float64 vector ordered as :data:`SFE_FEATURE_NAMES`.
    """
    array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=np.float64)
    if array.ndim != 1:
        array = array.ravel()
    if array.size == 0:
        return np.zeros(SFE_DIM, dtype=np.float64)

    maximum = float(array.max())
    minimum = float(array.min())
    total = float(array.sum())
    mean = float(array.mean())
    count = float(array.size)
    value_range = maximum - minimum
    midrange = (maximum + minimum) / 2.0
    median = float(np.median(array))
    magnitude = max(abs(maximum), abs(minimum))
    variance, std = _dispersion(array, magnitude)
    mad = float(np.abs(array - mean).mean())
    cv = std / abs(mean) if mean != 0.0 else 0.0
    # Constant inputs can leave a ~1e-17 residual std from rounding;
    # shape statistics on that residual are pure noise, so a relative
    # degeneracy threshold zeroes them out.
    if std > 1e-12 * max(magnitude, 1e-300):
        z = (array - mean) / std
        skewness = float(np.mean(z**3))
        kurtosis = float(np.mean(z**4) - 3.0)  # excess kurtosis
    else:
        skewness = 0.0
        kurtosis = 0.0
    tilt = mean - median

    return np.array(
        [
            maximum,
            minimum,
            total,
            mean,
            count,
            value_range,
            midrange,
            median,
            variance,
            std,
            mad,
            cv,
            kurtosis,
            skewness,
            tilt,
        ],
        dtype=np.float64,
    )


def _dispersion(array: np.ndarray, magnitude: float) -> "tuple[float, float]":
    """``(variance, std)`` of a non-empty bag of largest absolute value
    ``magnitude``, safe from underflow.

    The moments are taken on the bag rescaled by a power of two to unit
    magnitude.  That rescaling is exact, so wherever the squared
    deviations stay in the normal float range the result is bit for bit
    ``array.var()`` and its square root; for bags of tiny magnitude
    (~1e-160 and below) it keeps ``std``, and through it ``cv`` and
    the shape statistics, from underflowing to zero or to a
    subnormal-rounded value.
    """
    exponent = int(np.frexp(magnitude)[1])
    unit_variance = float(np.ldexp(array, -exponent).var())
    return (
        float(np.ldexp(unit_variance, 2 * exponent)),
        float(np.ldexp(np.sqrt(unit_variance), exponent)),
    )


def sfe_matrix(bags: Sequence[Iterable[float]]) -> np.ndarray:
    """SFE statistics of many value bags at once: shape ``(len(bags), 15)``.

    Row ``i`` equals ``sfe_vector(bags[i])`` up to floating-point
    summation order (segmented ``reduceat`` reductions accumulate
    sequentially where :func:`numpy.sum` is pairwise; the test suite
    bounds the drift at 1e-9 relative).  Bags whose values cancel are
    summed in :func:`numpy.sum`'s order, since there the order decides
    the mean, and the coefficient of variation divides by it.  Empty
    bags map to zero rows.
    Work is one ``O(N log N)`` sort of the concatenated bags plus a
    fixed number of ``O(N)`` segmented reductions, replacing a Python
    loop of per-bag :func:`sfe_vector` calls.
    """
    k = len(bags)
    if k == 0:
        return np.zeros((0, SFE_DIM), dtype=np.float64)
    arrays = [
        np.asarray(
            bag if isinstance(bag, np.ndarray) else list(bag),
            dtype=np.float64,
        ).ravel()
        for bag in bags
    ]
    lengths = np.fromiter((a.size for a in arrays), dtype=np.int64, count=k)
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    if indptr[-1] == 0:
        return np.zeros((k, SFE_DIM), dtype=np.float64)
    flat = np.concatenate([a for a in arrays if a.size])
    return sfe_matrix_segments(flat, indptr)


def sfe_matrix_segments(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """SFE statistics of CSR-style segmented value bags — zero-copy.

    ``values`` holds ``k`` concatenated bags and ``indptr`` (length
    ``k + 1``) their boundaries: bag ``i`` is
    ``values[indptr[i]:indptr[i + 1]]``.  This is the native bag layout
    of :class:`~repro.graphs.arrays.ArrayGraph`, so per-node feature
    assembly runs straight over the stored arrays without materialising
    per-bag lists.  Numerically identical to :func:`sfe_matrix` on the
    equivalent list of bags (empty bags map to zero rows).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    indptr = np.asarray(indptr, dtype=np.int64)
    k = indptr.shape[0] - 1
    lengths = np.diff(indptr)
    nonempty = np.flatnonzero(lengths)
    out = np.zeros((k, SFE_DIM), dtype=np.float64)
    if nonempty.size == 0:
        return out

    flat = values
    seg_lengths = lengths[nonempty]
    starts = indptr[nonempty]
    segment_ids = np.repeat(np.arange(nonempty.size), seg_lengths)

    maximum = np.maximum.reduceat(flat, starts)
    minimum = np.minimum.reduceat(flat, starts)
    total = np.add.reduceat(flat, starts)
    # A bag whose values cancel has a sum whose leading digits depend on
    # summation order, and cv = std / |mean| magnifies them without
    # bound.  Where the sum is within 2e10 rounding-error bounds of
    # zero, re-sum in sfe_vector's (pairwise) order so both kernels
    # agree; same-signed bags (every transferred amount) never qualify.
    rounding = (
        np.finfo(np.float64).eps
        * (seg_lengths - 1)
        * np.add.reduceat(np.abs(flat), starts)
    )
    for i in np.flatnonzero(np.abs(total) < 2e10 * rounding):
        total[i] = flat[starts[i] : starts[i] + seg_lengths[i]].sum()
    count = seg_lengths.astype(np.float64)
    mean = total / count

    # Median via one segmented sort: bags are contiguous in ``flat``, so
    # a lexsort keyed by (segment, value) orders each bag in place.
    ordered = flat[np.lexsort((flat, segment_ids))]
    low = ordered[starts + (seg_lengths - 1) // 2]
    high = ordered[starts + seg_lengths // 2]
    median = 0.5 * (low + high)

    deviation = flat - mean[segment_ids]
    # As in sfe_vector (see _dispersion): the second moment is taken on
    # each bag rescaled by a power of two to unit magnitude — exact, and
    # safe from underflow for bags of tiny magnitude.
    magnitude = np.maximum(np.abs(maximum), np.abs(minimum))
    exponent = np.frexp(magnitude)[1]
    unit_deviation = np.ldexp(deviation, -exponent[segment_ids])
    unit_variance = (
        np.add.reduceat(unit_deviation * unit_deviation, starts) / count
    )
    variance = np.ldexp(unit_variance, 2 * exponent)
    std = np.ldexp(np.sqrt(unit_variance), exponent)
    mad = np.add.reduceat(np.abs(deviation), starts) / count
    cv = np.where(mean != 0.0, std / np.where(mean != 0.0, np.abs(mean), 1.0), 0.0)

    # Same degeneracy threshold as sfe_vector: shape statistics of a
    # numerically-constant bag are rounding noise and are zeroed.
    magnitude = np.maximum(magnitude, 1e-300)
    shaped = std > 1e-12 * magnitude
    safe_std = np.where(shaped, std, 1.0)
    z = deviation / safe_std[segment_ids]
    z2 = z * z
    skewness = np.where(
        shaped, np.add.reduceat(z2 * z, starts) / count, 0.0
    )
    kurtosis = np.where(
        shaped, np.add.reduceat(z2 * z2, starts) / count - 3.0, 0.0
    )

    out[nonempty] = np.column_stack(
        [
            maximum,
            minimum,
            total,
            mean,
            count,
            maximum - minimum,
            (maximum + minimum) / 2.0,
            median,
            variance,
            std,
            mad,
            cv,
            kurtosis,
            skewness,
            mean - median,
        ]
    )
    return out


def signed_log1p(array: np.ndarray) -> np.ndarray:
    """Signed log compression: ``sign(x) * log1p(|x|)``.

    Satoshi-scale statistics span ~10 orders of magnitude; this monotone
    transform bounds them for neural-network consumption while preserving
    sign and ordering.  Applied element-wise; returns a new array.
    """
    array = np.asarray(array, dtype=np.float64)
    return np.sign(array) * np.log1p(np.abs(array))
