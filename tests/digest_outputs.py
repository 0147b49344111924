"""Digest the randomized pipeline's outputs, to show that a change keeps
them byte for byte.

For every case of the grid n in {1024, 4096}, k in {1, 3, 10}, signal model
exact-sparse and spikes-plus-tail, 16 trials each, it hashes:

* y of each of the trial's three ensembles, seeded as ``bench`` seeds a
  ``cphase-amplified`` trial;
* the JSON of ``decode`` on the first ensemble and of ``decode_amplified``
  on all three (or the error either raises);
* the ``run_trials`` records of the ``cphase`` and ``cphase-amplified``
  pipelines, without ``wall_time``.

At the benchmark's n = 65536, k = 10 it also hashes the y and ``decode``
JSON of 16 exactly 10-sparse signals and 16 signals with 500 scattered
nonzeros, so the identification path runs at that n too.

It hashes the entries of direct ``sample_bernoulli`` requests of one to
six blocks (0 to 2048 columns, at most 2048 pairs), at a first-walk slack
``_SLACK_SD`` of 0, 1 and 4, so the pairs that outrun their first walk's
words, rare at the default 4, are hashed too.

It hashes the y of three dense signals sensed in order by one ensemble
at n = 16384, k = 10, so the second and third read the aligned ranges the
first kept.

For the deterministic scheme it hashes the ``det_recover`` values and
``leaves`` (or the error it raises) of 30 signals per k = 1..8 at n = 64,
drawn as ``bench --pipeline prony`` draws them. So that its error paths
show too, it hashes the outcome of every one-spike input at n = 64, k in
{1, 2, 3, 4, 6, 8}, measured as is and with one running sum scaled by
1.5: values and ``leaves``, or the error's type without its message. At
k = 4 and 8 it hashes the same outcome, with the error's message, of 10
(k-1)-sparse signals, whose true leaf's k x k Hankel block is singular
while its smaller leading blocks are not, and of 10 k-sparse signals that
sum to zero, whose g_0 = 0 fails the determinant screen at the first
order. Past n = 64, where a chunk holds fewer leaves, it hashes the
support of ``det_recover`` (the sorted indices of its k largest
magnitudes, or the error's type) for 10 random k-sparse signals per
n in {256, 1024}, k in {4, 6}: the values and ``leaves`` there move with
the chunk size, at round-off and in count, while the support does not.
It also hashes the rates of ``edge_error_experiment`` at n = 2048,
k = 12 over four values of C0.

It hashes the block names and keys of ``build_ensemble`` over n in
{1024, 4096, 65536}, k in {1, 3, 10} and four seeds, so a change to the
rule that keys the blocks shows as a case of its own.

It prints one SHA-256 digest per case and a total over them. For each
case that senses, it also prints a digest of the A, B and F rows of
every y, read through ``SensingEnsemble.rows``, and a second total over
those: equal second totals show that a change left those rows of y as
they were. A third total covers every case but the ``det_recover`` ones:
equal third totals show in one line that a change to the deterministic
scheme left the randomized pipeline byte for byte as it was. Run it on
two trees and compare the totals:

    PYTHONPATH=<tree>/src python tests/digest_outputs.py

pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

from phaseless import sparse  # noqa: E402
from phaseless.bench import (AMPLIFIED_REPLICAS, TrialSpec,  # noqa: E402
                             _ensemble_seed, edge_error_experiment,
                             gen_signal, run_trials)
from phaseless.decoder import decode, decode_amplified  # noqa: E402
from phaseless.ensemble import EnsembleConfig, apply_phaseless, \
    build_ensemble  # noqa: E402
from phaseless.prony import DeterministicScheme, det_measure, \
    det_recover  # noqa: E402

NS = (1024, 4096)
KS = (1, 3, 10)
MODELS = ("exact-sparse", "spikes-plus-tail")
TRIALS = 16
SEED = 20261019
LARGE_N, LARGE_K, SCATTERED = 65536, 10, 500
PRONY_N, PRONY_KS, PRONY_TRIALS = 64, range(1, 9), 30
SPIKE_KS, SPIKE_SUM_SCALE = (1, 2, 3, 4, 6, 8), 1.5
SCREEN_KS, SCREEN_TRIALS = (4, 8), 10
SUPPORT_NS, SUPPORT_KS, SUPPORT_TRIALS = (256, 1024), (4, 6), 10
SAMPLER_SLACKS, SAMPLER_REQUESTS = (0.0, 1.0, 4.0), 60
EDGE_C0S = (0.125, 0.25, 0.5, 1.0)
KEPT_N, KEPT_K, KEPT_SIGNALS = 16384, 10, 3
KEY_NS, KEY_SEEDS = (1024, 4096, 65536), (0, 1, SEED, 2 ** 63 - 1)


def _json_or_error(run) -> str:
    try:
        return run().to_json()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _hash_y(h, rows, ens, y: np.ndarray) -> None:
    """Hash y into ``h``, and its A, B and F rows into ``rows``."""
    h.update(y.tobytes())
    for name in ens.blocks:
        if name[0] in "ABF":
            rows.update(y[ens.rows(name)].tobytes())


def case_digest(n: int, k: int, model: str) -> tuple[str, str]:
    h, rows = hashlib.sha256(), hashlib.sha256()
    spec = TrialSpec(n=n, k=k, signal_model=model, trials=TRIALS, seed=SEED)
    for t in range(TRIALS):
        x = gen_signal(spec, t)
        ensembles = [build_ensemble(n, k, rng_seed=_ensemble_seed(SEED, t, r))
                     for r in range(AMPLIFIED_REPLICAS)]
        measured = [apply_phaseless(ens, x) for ens in ensembles]
        for ens, m in zip(ensembles, measured):
            _hash_y(h, rows, ens, m.y)
        h.update(_json_or_error(
            lambda: decode(ensembles[0], measured[0])).encode())
        h.update(_json_or_error(
            lambda: decode_amplified(ensembles, measured)).encode())
    for pipeline in ("cphase", "cphase-amplified"):
        report = run_trials(TrialSpec(n=n, k=k, signal_model=model,
                                      trials=TRIALS, seed=SEED,
                                      pipeline=pipeline))
        for record in report.records:
            record = {key: value for key, value in record.items()
                      if key != "wall_time"}
            h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest(), rows.hexdigest()


def large_digest(model: str) -> tuple[str, str]:
    """y and ``decode`` JSON at n = 65536, k = 10, one ensemble per trial."""
    h, rows = hashlib.sha256(), hashlib.sha256()
    spec = TrialSpec(n=LARGE_N, k=LARGE_K, signal_model="exact-sparse",
                     trials=TRIALS, seed=SEED)
    for t in range(TRIALS):
        if model == "exact-sparse":
            x = gen_signal(spec, t)
        else:
            rng = np.random.default_rng([SEED, t, SCATTERED])
            x = np.zeros(LARGE_N)
            x[rng.choice(LARGE_N, SCATTERED, replace=False)] = \
                rng.standard_normal(SCATTERED)
        ens = build_ensemble(LARGE_N, LARGE_K, rng_seed=_ensemble_seed(SEED, t))
        measured = apply_phaseless(ens, x)
        _hash_y(h, rows, ens, measured.y)
        h.update(_json_or_error(lambda: decode(ens, measured)).encode())
    return h.hexdigest(), rows.hexdigest()


def sampler_digest(slack: float) -> str:
    """Entries and dtypes of ``sample_bernoulli`` requests at
    ``_SLACK_SD = slack``; even requests ask for one block, odd ones for
    one to six."""
    h = hashlib.sha256()
    rng = np.random.default_rng([SEED, int(slack)])
    saved, sparse._SLACK_SD = sparse._SLACK_SD, slack
    try:
        for r in range(SAMPLER_REQUESTS):
            n_blocks = 1 if r % 2 == 0 else int(rng.integers(1, 7))
            keys = [int(key) for key in rng.integers(0, 2 ** 63, n_blocks)]
            n_rows = [int(rows) for rows in rng.integers(1, 2000, n_blocks)]
            p = [float(q) for q in np.exp(rng.uniform(np.log(1e-3),
                                                      np.log(0.3), n_blocks))]
            columns = rng.integers(0, 10 ** 6, int(rng.integers(
                0, sparse.APPLY_CHUNK // n_blocks + 1)))
            blocks = [sparse.SparseSignMatrix.bernoulli(key, rows, 10 ** 6, q)
                      for key, rows, q in zip(keys, n_rows, p)]
            for part in sparse.sample_bernoulli(blocks, columns):
                h.update(part.dtype.str.encode())
                h.update(part.tobytes())
    finally:
        sparse._SLACK_SD = saved
    return h.hexdigest()


def prony_digest(k: int) -> str:
    """``det_recover`` values and leaves at n = 64, or the error raised."""
    h = hashlib.sha256()
    scheme = DeterministicScheme(PRONY_N, k)
    spec = TrialSpec(n=PRONY_N, k=k, trials=PRONY_TRIALS, seed=SEED,
                     pipeline="prony")
    for t in range(PRONY_TRIALS):
        try:
            out = det_recover(scheme, det_measure(scheme, gen_signal(spec, t)))
            h.update(out.values.tobytes())
            h.update(str(out.leaves).encode())
        except Exception as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def screen_digest() -> str:
    """``det_recover`` outcomes at n = 64 of (k-1)-sparse signals and of
    k-sparse signals with x.sum() = 0: values and leaves, or the error."""
    h = hashlib.sha256()
    for k in SCREEN_KS:
        scheme = DeterministicScheme(PRONY_N, k)
        for t in range(SCREEN_TRIALS):
            rng = np.random.default_rng([SEED, k, t])
            for s in (k - 1, k):
                x = np.zeros(PRONY_N, dtype=np.complex128)
                support = rng.choice(PRONY_N, s, replace=False)
                x[support] = rng.standard_normal(s) + \
                    1j * rng.standard_normal(s)
                if s == k:
                    x[support[-1]] -= x.sum()
                try:
                    out = det_recover(scheme, det_measure(scheme, x))
                    h.update(out.values.tobytes())
                    h.update(str(out.leaves).encode())
                except Exception as exc:
                    h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def spike_digest() -> str:
    """``det_recover`` outcomes of every spike at n = 64, measured as is and
    with running sum t mod (2k - 1) scaled: values and leaves, or the error
    type."""
    h = hashlib.sha256()
    for k in SPIKE_KS:
        scheme = DeterministicScheme(PRONY_N, k)
        for t in range(PRONY_N):
            x = np.zeros(PRONY_N, dtype=np.complex128)
            x[t] = 1.0
            y = det_measure(scheme, x)
            scaled = y.copy()
            scaled[2 * k + t % (2 * k - 1)] *= SPIKE_SUM_SCALE
            for measured in (y, scaled):
                try:
                    out = det_recover(scheme, measured)
                    h.update(out.values.tobytes())
                    h.update(str(out.leaves).encode())
                except Exception as exc:
                    h.update(type(exc).__name__.encode())
    return h.hexdigest()


def support_digest() -> str:
    """``det_recover`` supports past n = 64: the sorted indices of the k
    largest magnitudes of each recovery, or the error type."""
    h = hashlib.sha256()
    for n in SUPPORT_NS:
        for k in SUPPORT_KS:
            scheme = DeterministicScheme(n, k)
            for t in range(SUPPORT_TRIALS):
                rng = np.random.default_rng([SEED, n, k, t])
                x = np.zeros(n, dtype=np.complex128)
                x[rng.choice(n, k, replace=False)] = \
                    rng.standard_normal(k) + 1j * rng.standard_normal(k)
                try:
                    out = det_recover(scheme, det_measure(scheme, x))
                    top = np.argsort(np.abs(out.values))[-k:]
                    h.update(np.sort(top).astype(np.int64).tobytes())
                except Exception as exc:
                    h.update(type(exc).__name__.encode())
    return h.hexdigest()


def edge_digest() -> str:
    """``edge_error_experiment`` rates, as their float reprs."""
    rates = [edge_error_experiment(2048, 12, EnsembleConfig(C0=c0), trials=10,
                                   seed=SEED, spike_energy_ratio=4.0)
             for c0 in EDGE_C0S]
    return hashlib.sha256(repr(rates).encode()).hexdigest()


def kept_digest() -> tuple[str, str]:
    """y of dense signals sensed in order by one ensemble: every sense after
    the first reads the kept aligned ranges."""
    h, rows = hashlib.sha256(), hashlib.sha256()
    ens = build_ensemble(KEPT_N, KEPT_K, rng_seed=SEED)
    rng = np.random.default_rng([SEED, KEPT_N])
    for _ in range(KEPT_SIGNALS):
        _hash_y(h, rows, ens,
                apply_phaseless(ens, rng.standard_normal(KEPT_N)).y)
    return h.hexdigest(), rows.hexdigest()


def keys_digest() -> str:
    """Each block's name and stream key, in build order."""
    h = hashlib.sha256()
    for n in KEY_NS:
        for k in KS:
            for seed in KEY_SEEDS:
                for name, block in build_ensemble(n, k, rng_seed=seed
                                                  ).blocks.items():
                    h.update(f"{name}={block.key};".encode())
    return h.hexdigest()


def main() -> None:
    total, rows_total = hashlib.sha256(), hashlib.sha256()
    randomized_total = hashlib.sha256()

    def show(name, digest_of):
        digest = digest_of()
        if isinstance(digest, tuple):   # a case that senses
            digest, rows = digest
            rows_total.update(rows.encode())
            print(f"{name}: {digest} (A, B and F rows: {rows})")
        else:
            print(f"{name}: {digest}")
        total.update(digest.encode())
        if not name.startswith("det_recover"):
            randomized_total.update(digest.encode())

    cases = [(f"n={n} k={k} {model}", lambda n=n, k=k, model=model:
              case_digest(n, k, model))
             for n in NS for k in KS for model in MODELS]
    cases += [(f"n={LARGE_N} k={LARGE_K} {model}",
               lambda model=model: large_digest(model))
              for model in ("exact-sparse", f"{SCATTERED}-scattered")]
    cases += [(f"sample_bernoulli slack={slack}",
               lambda slack=slack: sampler_digest(slack))
              for slack in SAMPLER_SLACKS]
    cases += [(f"det_recover n={PRONY_N} k={k}", lambda k=k: prony_digest(k))
              for k in PRONY_KS]
    cases += [(f"det_recover n={PRONY_N} one spike, k in {SPIKE_KS}",
               spike_digest)]
    cases += [(f"det_recover n={PRONY_N} (k-1)-sparse and zero-sum, "
               f"k in {SCREEN_KS}", screen_digest)]
    cases += [(f"det_recover supports n in {SUPPORT_NS}, k in {SUPPORT_KS}",
               support_digest)]
    cases += [("edge_error_experiment n=2048 k=12", edge_digest),
              (f"n={KEPT_N} k={KEPT_K} {KEPT_SIGNALS} dense senses",
               kept_digest),
              ("build_ensemble block keys", keys_digest)]
    for name, digest_of in cases:
        show(name, digest_of)
    print(f"total: {total.hexdigest()}")
    print(f"total of the A, B and F rows: {rows_total.hexdigest()}")
    print(f"total of the cases that do not call det_recover: "
          f"{randomized_total.hexdigest()}")


if __name__ == "__main__":
    main()
