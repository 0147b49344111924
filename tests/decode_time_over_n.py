"""Time ``decode`` over n, from 2^10 to the largest n ``build_ensemble``
accepts, for the README's decoding-cost table.

At each n (every fourth power of two from 2^10 to 2^58, then the bound
2^63 // 5) it builds one k = 10 ensemble and decodes 20 signals of 10
nonzeros on a uniform support, magnitudes U(1, 2) and random signs. Each signal is sensed
by support through ``sparse.apply_blocks``, so no length-n array is made.
It prints the rows, the median and range of the CPU time per decode, all 20
decodes included, and how many decodes returned the exact support:

    PYTHONPATH=src python tests/decode_time_over_n.py

pytest does not collect it.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import time  # noqa: E402

import numpy as np  # noqa: E402

from phaseless import Measurements, build_ensemble, decode, sparse  # noqa: E402

K, DECODES = 10, 20


def main():
    print("| n | rows | median CPU ms per decode (min–max) | exact supports |")
    print("|---|---|---|---|")
    for n in [2 ** e for e in range(10, 59, 4)] + [(1 << 63) // 5]:
        ens = build_ensemble(n, K, rng_seed=15)
        blocks = list(ens.blocks.values())
        rng = np.random.default_rng(15)
        times, exact = [], 0
        for _ in range(DECODES):
            support = np.unique(rng.integers(0, n, size=K, dtype=np.int64))
            values = rng.choice([-1.0, 1.0], support.size) * rng.uniform(
                1.0, 2.0, support.size)
            y = np.abs(sparse.apply_blocks(blocks, support, values))
            meas = Measurements(y, n, K, ens.seed, ens.config)
            start = time.process_time()
            result = decode(ens, meas)
            times.append(time.process_time() - start)
            exact += np.array_equal(result.S2, support)
        ms = 1e3 * np.array(times)
        label = f"2^{n.bit_length() - 1}" if n & (n - 1) == 0 else "2^63 // 5"
        print(f"| {label} | {ens.total_rows} | {np.median(ms):.2f} "
              f"({ms.min():.2f}–{ms.max():.2f}) | {exact}/{DECODES} |")


if __name__ == "__main__":
    main()
