"""Per-call timings of single switchlab functions on seeded inputs.

This is the layer table: each entry is the median over calls of one function,
in microseconds, with ``numpy.linalg.eigh`` beside ``hermitian_eigen`` as the
reference. ``hs_decompose`` at d = 3 is a single call (seconds long), so the
table runs only in traced runs.
"""

import statistics
from time import perf_counter

import numpy as np

from workloads import cptp_kraus, density, ginibre, hermitian

EIGEN_SIZES = ((4, 64), (16, 16), (64, 3))  # (n, matrices timed)


def _median_us(fn, inputs):
    times = []
    for x in inputs:
        t0 = perf_counter()
        fn(x)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def _unitary(rng):
    q, r = np.linalg.qr(ginibre(rng, 2, 2))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def micro_table(seed):
    from switchlab import linalg, ops, order, process

    rng = np.random.default_rng(seed)
    out = {}
    for n, count in EIGEN_SIZES:
        mats = [hermitian(rng, n) for _ in range(count)]
        out[f"micro.hermitian_eigen.n{n}.us"] = _median_us(linalg.hermitian_eigen, mats)
        out[f"micro.numpy_eigh.n{n}.us"] = _median_us(np.linalg.eigh, mats)

    kraus = [cptp_kraus(rng, 2, 2) for _ in range(64)]
    out["micro.Operation.us"] = _median_us(lambda k: ops.Operation(2, 2, k), kraus)
    chois = [ops.choi_of_operation(ops.Operation(2, 2, k)) for k in kraus]
    out["micro.ChoiOperator.us"] = _median_us(lambda c: ops.ChoiOperator(2, 2, c.matrix), chois)

    procs = [
        process.causal_mixture(
            process.channel_process(density(rng, 2), chois[2 * i]),
            process.channel_process_reverse(density(rng, 2), chois[2 * i + 1]),
            float(rng.uniform()),
        )
        for i in range(16)
    ]
    out["micro.ProcessMatrix.us"] = _median_us(lambda w: process.ProcessMatrix(w.dims, w.matrix), procs)
    out["micro.probability.us"] = _median_us(
        lambda i: process.probability(procs[i % 16], chois[i], chois[(i + 1) % 64]), range(64)
    )
    strategy = order.ocb_strategy()
    out["micro.success_probability.us"] = _median_us(
        lambda w: order.success_probability(w, strategy), procs[:8]
    )

    vec = order.switch_process_vector(order.SwitchSpec())
    pairs = [(_unitary(rng), _unitary(rng)) for _ in range(64)]
    out["micro.contract_switch_vector.us"] = _median_us(
        lambda p: order.contract_switch_vector(vec, *p), pairs
    )

    out["micro.hs_decompose.d2.us"] = _median_us(process.hs_decompose, [hermitian(rng, 16) for _ in range(8)])
    out["micro.hs_decompose.d3.us"] = _median_us(process.hs_decompose, [hermitian(rng, 81)])
    return out
