"""The benchmark's workloads, the loop that times them, and the probes that
trace them.

A workload makes every input from the run seed, times only its calls into
the program, and checks each output with ``checks``. Operations run in
whole rounds: a round is one operation for the workloads whose every
operation has a fresh input, and one pass over the sensed batch for
``decode-65536-tail``.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from phaseless import decoder, prony, sketch, sparse
from phaseless.decoder import decode
from phaseless.ensemble import apply_phaseless, build_ensemble

import checks
from checks import CheckFailed
from tracing import Tracer, clock


@dataclass
class Outcome:
    key: int            # the input this operation ran on
    seconds: float      # time inside the program
    failed: bool        # raised, or broke a per-operation check
    recovered: bool     # output meets the method's guarantee
    rows: int = 0       # measurements the operation used
    error: str = ""


@dataclass
class Signal:
    x: np.ndarray
    support: np.ndarray
    ens_seed: int = 0
    measurements: object = None


def span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def run_op(workload, i: int, tracer: Tracer | None = None) -> Outcome:
    """Run and check operation i; an exception counts it as failed."""
    key, inp = workload.prepare(i)
    if tracer is not None:
        tracer.op = i
    try:
        start = clock()
        try:
            out = workload.call(inp, tracer)
        except Exception as exc:  # any raise is a failed operation
            return Outcome(key, clock() - start, True, False,
                           error=f"{type(exc).__name__}: {exc}")
        seconds = clock() - start
        try:
            recovered, rows = workload.check(inp, out)
        except CheckFailed as exc:
            return Outcome(key, seconds, True, False, error=str(exc))
        return Outcome(key, seconds, False, recovered, rows)
    finally:
        if tracer is not None:
            tracer.op = None


def measure(workload, seconds: float) -> list[Outcome]:
    """Whole rounds of operations until ``seconds`` of wall time have
    passed."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        outcomes.append(run_op(workload, i))
        i += 1
        if i % workload.round_size == 0 and time.perf_counter() >= deadline:
            return outcomes


def measure_paired(workload, seconds: float, tracer: Tracer
                   ) -> tuple[list[Outcome], list[Outcome]]:
    """Each round untraced, then the same round traced, until ``seconds``
    of wall time have passed; returns (untraced, traced). Pairing the
    rounds keeps drift in machine speed out of the tracing overhead."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        ops = range(i, i + workload.round_size)
        plain += [run_op(workload, j) for j in ops]
        traced += [run_op(workload, j, tracer) for j in ops]
        i += workload.round_size
        if time.perf_counter() >= deadline:
            return plain, traced


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

# With supports this far apart, the true Hankel block of 20000 random k=8
# signals kept a singular-value ratio of at least 1.2e-8, a hundred times
# above the 1e-10 rank cut in prony_solve that rejects valid signals.
MIN_GAP = 3


def _rng(*words: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(words)))


def exact_sparse(rng, n: int, k: int) -> Signal:
    """k spikes, log-uniform magnitudes in [1, 10), random signs."""
    support = np.sort(rng.choice(n, k, replace=False))
    x = np.zeros(n)
    x[support] = 10.0 ** rng.uniform(0.0, 1.0, k) * rng.choice([-1.0, 1.0], k)
    return Signal(x, support, int(rng.integers(2 ** 62)))


def spikes_plus_tail(rng, n: int, k: int) -> Signal:
    """k spikes holding 100x the energy of a unit-norm Gaussian tail."""
    s = exact_sparse(rng, n, k)
    s.x *= math.sqrt(100.0 / float(np.sum(s.x ** 2)))
    off = np.ones(n, dtype=bool)
    off[s.support] = False
    tail = rng.standard_normal(n - k)
    s.x[off] = tail / np.linalg.norm(tail)
    return s


def complex_sparse(rng, n: int, k: int) -> Signal:
    """Complex Gaussian values on a uniformly random support of size k whose
    positions are at least MIN_GAP apart around the circle.

    det_recover rejects about 1 in 700 valid signals at n=64, k=8, all with
    clustered supports (see CHANGES.md); a fault that hits only some seeds
    cannot be counted steadily, so those supports are left out.
    """
    while True:
        support = np.sort(rng.choice(n, k, replace=False))
        if np.diff(support, append=support[0] + n).min() >= MIN_GAP:
            break
    x = np.zeros(n, dtype=np.complex128)
    x[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return Signal(x, support)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class _Randomized:
    """Shared decode step and checks of the randomized pipeline."""

    n = k = 0

    def __init__(self, seed: int):
        self.seed = seed

    def _decode(self, ens, meas, support, tracer):
        with span(tracer, "decoder.decode") as s:
            result = decode(ens, meas)
        if s is not None:
            s.counts.update(
                candidates=int(result.S0.size),
                hits=int(np.isin(result.S0, support).sum()),
                touches=result.diagnostics.total_touches(),
                kept=int(result.S2.size))
        return result

    def _build(self, ens_seed, tracer):
        mark = len(tracer.spans) if tracer is not None else 0
        with span(tracer, "ensemble.build") as s:
            ens = build_ensemble(self.n, self.k, rng_seed=ens_seed)
        if s is not None:
            label_blocks(tracer, mark, s, ens)
        return ens

    def check(self, inp: Signal, out) -> tuple[bool, int]:
        ens, meas, result = out
        rows = sum(b.n_rows for b in ens.blocks.values())
        checks.check_decode(meas.y, rows, result, ens.config.top_select)
        return checks.meets_l2l2(inp.x, result.to_dense(), self.k), meas.y.size


class TrialExact(_Randomized):
    """Fresh ensemble per operation: build -> sense -> decode."""

    name = "trial-4096-exact"
    n, k = 4096, 10
    round_size = 1
    min_exact_rate = 0.90

    def _input(self, stream: int, i: int) -> Signal:
        return exact_sparse(_rng(self.seed, 1, stream, i), self.n, self.k)

    def setup(self, tracer=None) -> float:
        self.call(self._input(1, 0), tracer)   # warm-up trial
        return 0.0

    def prepare(self, i):
        return i, self._input(0, i)

    def call(self, inp: Signal, tracer):
        ens = self._build(inp.ens_seed, tracer)
        with span(tracer, "ensemble.sense"):
            meas = apply_phaseless(ens, inp.x)
        return ens, meas, self._decode(ens, meas, inp.support, tracer)

    def run_check(self, outcomes) -> str | None:
        done = [o for o in outcomes if not o.failed]
        wins = sum(o.recovered for o in done)
        _, hi = checks.wilson(wins, len(done))
        if hi < self.min_exact_rate:
            return (f"exact recovery {wins}/{len(done)}: 95% upper bound "
                    f"{hi:.3f} < {self.min_exact_rate}")
        return None


class DecodeTail(_Randomized):
    """One ensemble, a sensed batch, warm decodes against it."""

    name = "decode-65536-tail"
    n, k = 65536, 10
    batch = 32
    round_size = batch
    min_rate = 2 / 3

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = _rng(seed, 2)
        self.ens_seed = int(rng.integers(2 ** 62))
        self.signals = [spikes_plus_tail(rng, self.n, self.k)
                        for _ in range(self.batch)]
        self.ens = None

    def setup(self, tracer=None) -> float:
        """Build the ensemble and warm its column index with one decode of
        every batch signal; the first set-up also senses the batch. The
        ensemble depends only on its seed, so a rebuilt one reads the same
        measurements. Returns the seconds spent sensing."""
        self.ens = None   # free the previous build first
        ens = self._build(self.ens_seed, tracer)
        start = clock()
        for s in self.signals:
            if s.measurements is None:
                with span(tracer, "ensemble.sense"):
                    s.measurements = apply_phaseless(ens, s.x)
        sensing = clock() - start
        for s in self.signals:   # the first decode builds the column index
            self._decode(ens, s.measurements, s.support, tracer)
        self.ens = ens
        return sensing

    def prepare(self, i):
        j = i % self.batch
        return j, self.signals[j]

    def call(self, inp: Signal, tracer):
        return (self.ens, inp.measurements,
                self._decode(self.ens, inp.measurements, inp.support, tracer))

    def run_check(self, outcomes) -> str | None:
        verdicts: dict[int, set] = {}
        for o in outcomes:
            if not o.failed:
                verdicts.setdefault(o.key, set()).add(o.recovered)
        if any(len(v) > 1 for v in verdicts.values()):
            return "decoding one input twice gave different verdicts"
        wins = sum(v == {True} for v in verdicts.values())
        lo, _ = checks.wilson(wins, len(verdicts))
        if not lo > self.min_rate:
            return (f"l2/l2 on {wins}/{len(verdicts)} signals: 95% lower "
                    f"bound {lo:.3f} <= {self.min_rate:.3f}")
        return None


class PronyK8:
    """The deterministic 4k-1 scheme: det_measure -> det_recover."""

    name = "prony-64-k8"
    n, k = 64, 8
    round_size = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.scheme = prony.DeterministicScheme(self.n, self.k)

    def _input(self, stream: int, i: int) -> Signal:
        return complex_sparse(_rng(self.seed, 3, stream, i), self.n, self.k)

    def setup(self, tracer=None) -> float:
        self.call(self._input(1, 0), tracer)   # warm-up recovery
        return 0.0

    def prepare(self, i):
        return i, self._input(0, i)

    def call(self, inp: Signal, tracer):
        y = prony.det_measure(self.scheme, inp.x)
        with span(tracer, "prony.recover"):
            x_hat = prony.det_recover(self.scheme, y).values
        return y, x_hat

    def check(self, inp: Signal, out) -> tuple[bool, int]:
        y, x_hat = out
        checks.check_prony(inp.x, x_hat, y, self.k)
        return True, y.size

    def run_check(self, outcomes) -> str | None:
        return None


WORKLOADS = {w.name: w for w in (TrialExact, DecodeTail, PronyK8)}


# ---------------------------------------------------------------------------
# tracing probes
# ---------------------------------------------------------------------------

def _block_id(args, result):
    return {"id": id(result)}


def install_probes(tracer: Tracer) -> None:
    """Wrap the calls one layer makes into the next (see tracing.py)."""
    tracer.wrap(sparse, "sample_bernoulli", "kernels.sample",
                lambda a, r: {"entries": int(r[1].size)})
    tracer.wrap(sparse, "apply_signed", "kernels.apply",
                lambda a, r: {"entries": int(a[1].size)})
    tracer.wrap(sparse, "sort_by_col", "kernels.sort",
                lambda a, r: {"entries": int(a[1].size),
                              "bytes": sum(int(v.nbytes) for v in r)})
    tracer.wrap(sketch, "build_hh_block", "ensemble.block", _block_id)
    tracer.wrap(sketch, "build_countsketch_block", "ensemble.block", _block_id)
    tracer.wrap(sparse.SparseSignMatrix, "bernoulli", "ensemble.block",
                _block_id)
    tracer.wrap(decoder, "identify_heavy", "sketch.identify")
    tracer.wrap(decoder, "estimate_magnitudes", "sketch.estimate")
    tracer.wrap(decoder, "estimate_tail_energy", "decoder.tail")
    tracer.wrap(decoder, "prune", "decoder.prune")
    tracer.wrap(decoder, "build_sign_graph", "signs.graph",
                lambda a, g: {"pair_rows": int(g.pair_rows),
                              "edges": int(g.n_edges)})
    tracer.wrap(decoder, "recover_communities", "signs.cluster")
    tracer.wrap(prony, "prony_solve", "prony.solve")
    tracer.wrap(prony, "det_measure", "prony.measure")


def label_blocks(tracer: Tracer, mark: int, build_span, ens) -> None:
    """Name each block span after its family (A, B, E, F) and count what
    the ensemble holds: nonzeros, and bytes of its block arrays and D."""
    blocks = getattr(ens, "blocks", {})
    family = {id(b): f"ensemble.build_{name[0]}" for name, b in blocks.items()}
    for s in tracer.spans[mark:]:
        if s.name == "ensemble.block":
            s.name = family.get(s.counts.pop("id", None), "ensemble.build_other")
    arrays = [v for b in blocks.values() for v in vars(b).values()
              if isinstance(v, np.ndarray)]
    d = getattr(ens, "D", None)
    build_span.counts.update(
        nnz=sum(int(getattr(b, "nnz", 0)) for b in blocks.values()),
        bytes=sum(int(v.nbytes) for v in arrays)
        + (int(d.nbytes) if d is not None else 0))
