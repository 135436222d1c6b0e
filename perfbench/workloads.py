"""The benchmark's three closed-loop workloads.

Each workload generates its inputs from the seed in ``__init__`` (that time
is not set-up time), runs one operation per ``run()`` call through
switchlab's public API, and gates each result with ``check()``. An optional ``once()``
is a check made a single time per run, before anything is timed.

* golden-suite: ``switchlab.cli.main(["suite", ...])`` on the eight golden
  scenarios, the command users run; the only workload through ``cli``.
* causal-bound: a causal mixture of the two one-way channel processes played
  with the OCB strategy, the acceptance-criterion-2 sweep. Dominated by
  constructor validation (39 eigendecompositions per operation).
* hs-roundtrip: Hilbert-Schmidt decomposition and reconstruction of a 16x16
  Hermitian matrix; kron and trace, no eigendecomposition. The control for
  eigen and validation changes.
"""

import contextlib
import io
import json
import math

import numpy as np

TOL = 1e-9

# The scenarios and parameters of suites/golden.json. The benchmark keeps its
# own copy so that an edit to the suite file does not change the workload;
# the scenario seeds are derived from the workload seed.
GOLDEN_SCENARIOS = (
    ("ocb-game", {}),
    ("switch-contract", {"pairs": 50}),
    ("chsh-temporal", {"samples": 50}),
    ("validate-process", {"samples": 500}),
    ("grav-duration", {}),
    ("grav-order", {}),
    ("trigger", {}),
    ("agent-switch", {}),
)


def ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def density(rng, d):
    g = ginibre(rng, d, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def cptp_kraus(rng, d, rank):
    # Blocks of a random isometry: sum_i K_i^dag K_i = 1.
    v, _ = np.linalg.qr(ginibre(rng, d * rank, d))
    return tuple(v[i * d:(i + 1) * d, :] for i in range(rank))


def hermitian(rng, n):
    g = ginibre(rng, n, n)
    return 0.5 * (g + g.conj().T)


class GoldenSuite:
    name = "golden-suite"

    def __init__(self, seed, workdir):
        from switchlab import cli

        self._cli = cli
        seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, len(GOLDEN_SCENARIOS))
        config = [{"scenario": name, "seed": int(s), "params": params}
                  for (name, params), s in zip(GOLDEN_SCENARIOS, seeds)]
        self.config_path = workdir / f"golden-{seed}.json"
        self.config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
        self._reference = None

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self._cli.main(["suite", "--config", str(self.config_path)])
        return code, out.getvalue()

    def check(self, result):
        """Exit code 0 and stdout identical to the first operation's."""
        code, text = result
        if self._reference is None:
            self._reference = text
        return code == 0 and text == self._reference


class CausalBound:
    name = "causal-bound"
    POOL = 32

    def __init__(self, seed, workdir):
        from switchlab import ops, order, process

        self._ops, self._order, self._process = ops, order, process
        rng = np.random.default_rng(seed)
        # Kraus rank 2, as in the acceptance sweep. Mixing ranks would make the
        # operation cost multimodal (rank-1 channels run in about half the
        # time), and the median would then jump between the modes.
        self._inputs = [
            (density(rng, 2), density(rng, 2), cptp_kraus(rng, 2, 2), cptp_kraus(rng, 2, 2), float(rng.uniform()))
            for _ in range(self.POOL)
        ]
        self._next = 0

    def run(self):
        ops, order, process = self._ops, self._order, self._process
        rho_b, rho_a, kraus_ba, kraus_ab, q = self._inputs[self._next % self.POOL]
        self._next += 1
        choi_ba = ops.choi_of_operation(ops.Operation(2, 2, kraus_ba))
        choi_ab = ops.choi_of_operation(ops.Operation(2, 2, kraus_ab))
        w = process.causal_mixture(
            process.channel_process(rho_b, choi_ba),
            process.channel_process_reverse(rho_a, choi_ab),
            q,
        )
        return order.success_probability(w, order.ocb_strategy())

    def check(self, success):
        """A causally ordered mixture cannot beat the 3/4 bound."""
        return success <= 0.75 + TOL

    def once(self):
        """The OCB process reaches (2 + sqrt 2)/4."""
        p = self._order.success_probability(self._process.ocb_process(), self._order.ocb_strategy())
        return abs(p - (2.0 + math.sqrt(2.0)) / 4.0) <= TOL


class HsRoundtrip:
    name = "hs-roundtrip"
    POOL = 16

    def __init__(self, seed, workdir):
        from switchlab import process

        self._process = process
        rng = np.random.default_rng(seed)
        self._inputs = [hermitian(rng, 16) for _ in range(self.POOL)]
        self._next = 0

    def run(self):
        m = self._inputs[self._next % self.POOL]
        self._next += 1
        coeffs = self._process.hs_decompose(m)
        return m, coeffs, self._process.hs_reconstruct(coeffs, 2)

    def check(self, result):
        """Real, finite coefficients that rebuild the input within 1e-9."""
        m, coeffs, rebuilt = result
        return (
            np.isrealobj(coeffs)
            and bool(np.isfinite(coeffs).all())
            and float(np.abs(rebuilt - m).max()) <= TOL
        )


WORKLOADS = {w.name: w for w in (GoldenSuite, CausalBound, HsRoundtrip)}
