"""Exact sums of float64 values under integer keys, merged call by call.

Each finite value x = m 2^e (np.frexp, 1/2 <= |m| < 1) splits exactly into
m 2^26 = hi + lo: hi is m 2^26 rounded to an integer by adding and taking
away 1.5 2^52, and lo = m 2^26 - hi is a multiple of 2^-27 with
|lo| <= 1/2. np.bincount sums the hi and the lo parts in float64 per
(key, e) bin; every partial sum of a bin of fewer than 2^27 values is a
multiple of its unit below 2^53 units, so the bin sums are exact. They are
folded into one Python integer per key, in units of 2^-1126, below the last
bit of any double, and each key's integer is rounded once, by CPython's
correctly rounded integer division. A key's sum is therefore math.fsum's of
its values, whatever their order and however they were split into calls.
This is Shewchuk's exact summation (1997, the algorithm behind math.fsum)
binned by exponent as in Neal's superaccumulators (arXiv:1505.05571).
"""

import numpy as np

# Values per fold, so that no bin can hold 2^27 of them.
FOLD_VALUES = 1 << 26
_SPLIT = 2.0 ** 26
_ROUND = 1.5 * 2.0 ** 52
_LO_UNIT = 2.0 ** 27
# A bin at frexp exponent e holds multiples of 2^(e - 53) = 2^-1126 << (e +
# _BIAS); the least exponent of a double, -1073, gets shift 0.
_BIAS = 1073
_ONE = 1 << 1126


class ExactSums:
    """Exactly rounded sums of float64 values, one per key 0 .. nkeys - 1.

    add() takes any number of calls; sums() gives math.fsum's result for
    every key, 0.0 for a key that got no value. A non-finite value makes
    its key's sum that of its non-finite values in float arithmetic
    (inf - inf is nan), since no finite part can change it.
    """

    def __init__(self, nkeys):
        self._ints = [0] * nkeys
        self._nonfinite = [None] * nkeys

    def add(self, keys, values):
        """Add values[i] to the sum of key keys[i], for arrays of one shape."""
        keys = np.ravel(keys).astype(np.intp, copy=False)
        values = np.ravel(values).astype(np.float64, copy=False)
        finite = np.isfinite(values)
        if not finite.all():
            for k, x in zip(keys[~finite].tolist(), values[~finite].tolist()):
                old = self._nonfinite[k]
                self._nonfinite[k] = x if old is None else old + x
            keys, values = keys[finite], values[finite]
        for lo in range(0, values.size, FOLD_VALUES):
            self._fold(keys[lo:lo + FOLD_VALUES], values[lo:lo + FOLD_VALUES])

    def _fold(self, keys, values):
        # In place on the arrays made here, never on the caller's values.
        m, e = np.frexp(values)
        e0 = int(e.min())
        width = int(e.max()) - e0 + 1
        e -= e0
        bins = keys * width
        bins += e
        del e  # gone before hi is made
        m *= _SPLIT
        hi = m + _ROUND
        hi -= _ROUND
        lo = m
        lo -= hi
        lo *= _LO_UNIT
        size = len(self._ints) * width
        hi_sums = np.bincount(bins, hi, size)
        lo_sums = np.bincount(bins, lo, size)
        live = np.flatnonzero((hi_sums != 0) | (lo_sums != 0))
        for b, hi_sum, lo_sum in zip(live.tolist(), hi_sums[live].tolist(),
                                     lo_sums[live].tolist()):
            key, col = divmod(b, width)
            shift = e0 + col + _BIAS
            self._ints[key] += ((int(hi_sum) << (shift + 27))
                                + (int(lo_sum) << shift))

    def sums(self):
        """The exactly rounded sum of each key's values, as floats."""
        return [total / _ONE if odd is None else odd
                for total, odd in zip(self._ints, self._nonfinite)]
