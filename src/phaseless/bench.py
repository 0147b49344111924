"""Seeded Monte-Carlo harness: signal models, end-to-end trials, calibration.

Everything is deterministic given the TrialSpec: per-trial generators are
derived from (seed, trial index, stream) so records do not depend on
execution order or worker count. Reports carry per-trial records (CSV) and
aggregates recomputable from them (JSON).

Success metric, randomized pipeline: squared recovery error after the best
global sign flip, compared against 1.8x the squared k-tail norm (exactly
sparse signals must hit zero error). Deterministic pipeline: relative l2
error after the best global phase, up to the conjugate-reflection twin that
magnitude measurements cannot split, against 1e-8.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .decoder import DecodeDiagnostics, _sign_stage, decode_amplified
from .ensemble import _NUMBER, EnsembleConfig, _integer, apply_phaseless, \
    build_ensemble
from .prony import DeterministicScheme, conjugate_reflection, det_measure, \
    det_recover

__all__ = [
    "TrialSpec",
    "TrialReport",
    "gen_signal",
    "run_trials",
    "calibrate",
    "edge_error_experiment",
    "tail_norm_sq",
    "min_flip_error_sq",
    "phase_error",
    "twin_phase_error",
    "wilson_interval",
]

SUCCESS_FACTOR = 1.8        # error^2 <= this * tail^2 counts as success
PRONY_TOL = 1e-8
AMPLIFIED_REPLICAS = 3      # cphase-amplified: independent ensembles per trial

SIGNAL_MODELS = ("exact-sparse", "spikes-plus-tail", "power-law")
PIPELINES = ("cphase", "cphase-amplified", "prony")


# ---------------------------------------------------------------------------
# spec and signals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialSpec:
    n: int
    k: int
    signal_model: str = "exact-sparse"
    trials: int = 100
    seed: int = 0
    config: EnsembleConfig = field(default_factory=EnsembleConfig)
    pipeline: str = "cphase"
    tail_norm: float = 1.0          # spikes-plus-tail: l2 norm of the tail
    spike_energy_ratio: float = 100.0  # spikes-plus-tail: spike/tail energy
    decay: float = 1.0              # power-law exponent

    def __post_init__(self):
        # spec files and flags reach here: refuse a wrong type by field name
        for name in ("n", "k", "trials", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("tail_norm", "spike_energy_ratio", "decay"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _NUMBER) \
                    or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.config, EnsembleConfig):
            raise ValueError(f"config must be an EnsembleConfig, got {self.config!r}")
        for name in ("n", "k", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.k > self.n:
            raise ValueError(f"k must be <= n, got k={self.k}, n={self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.signal_model not in SIGNAL_MODELS:
            raise ValueError(f"unknown signal model {self.signal_model!r}")
        if self.pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        if self.tail_norm < 0 or self.spike_energy_ratio <= 0:
            raise ValueError(f"need tail_norm >= 0 and spike_energy_ratio > 0, "
                             f"got {self.tail_norm} and {self.spike_energy_ratio}")
        # the deterministic scheme draws exactly sparse complex signals and
        # builds no randomized ensemble
        if self.pipeline == "prony" and (self.signal_model != "exact-sparse"
                                         or self.config != EnsembleConfig()):
            raise ValueError("the prony pipeline takes the exact-sparse model "
                             "and the default config only")

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrialSpec":
        d = json.loads(text)
        if not isinstance(d, dict) or not {"n", "k"} <= set(d):
            raise ValueError(f"a trial spec is a JSON object with n and k, got {d!r}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown trial spec keys: {sorted(unknown)}")
        if "config" in d:
            d["config"] = EnsembleConfig.from_dict(d["config"])
        return cls(**d)


def _rng(seed: int, trial: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, trial, stream]))


def _ensemble_seed(seed: int, trial: int, replica: int = 0) -> int:
    ss = np.random.SeedSequence([seed, trial, 1, replica])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def gen_signal(spec: TrialSpec, trial_index: int) -> np.ndarray:
    """Deterministic signal for one trial; complex for the prony pipeline."""
    rng = _rng(spec.seed, trial_index, 0)
    n, k = spec.n, spec.k
    pos = rng.choice(n, k, replace=False)
    mags = 10.0 ** rng.uniform(0.0, 1.0, k)
    if spec.pipeline == "prony":
        x = np.zeros(n, dtype=np.complex128)
        x[pos] = mags * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, k))
        return x
    x = np.zeros(n)
    signs = rng.choice([-1.0, 1.0], k)
    if spec.signal_model == "exact-sparse":
        x[pos] = mags * signs
    elif spec.signal_model == "spikes-plus-tail":
        energy = spec.spike_energy_ratio * spec.tail_norm ** 2
        mags *= math.sqrt(energy / float(np.sum(mags ** 2)))
        x[pos] = mags * signs
        off = np.ones(n, dtype=bool)
        off[pos] = False
        tail = rng.standard_normal(n - k)
        norm = np.linalg.norm(tail)
        if norm > 0 and spec.tail_norm > 0:
            x[off] = tail / norm * spec.tail_norm
    else:  # power-law
        ranked = np.power(np.arange(1, n + 1, dtype=np.float64), -spec.decay)
        x[rng.permutation(n)] = ranked * rng.choice([-1.0, 1.0], n)
    return x


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_norm_sq(x: np.ndarray, k: int) -> float:
    """||x_tail(k)||_2^2: energy outside the k largest magnitudes."""
    if k < 0 or np.ndim(x) != 1:
        raise ValueError(f"need k >= 0 and a 1-D x, got k = {k}, shape {np.shape(x)}")
    with np.errstate(over="ignore"):   # an |x| past 1e154 squares to inf
        a = np.abs(x) ** 2
    if k == 0:          # all of x is tail
        return float(np.sum(a))
    if k >= a.size:
        return 0.0
    idx = np.argpartition(a, a.size - k)[: a.size - k]
    return float(np.sum(a[idx]))


def min_flip_error_sq(x: np.ndarray, x_hat: np.ndarray) -> float:
    return float(min(np.sum((x - x_hat) ** 2), np.sum((x + x_hat) ** 2)))


def phase_error(x_hat: np.ndarray, x: np.ndarray) -> float:
    """||x - e^{i phi} x_hat|| minimized over the global phase phi."""
    ip = np.vdot(x_hat, x)
    phi = np.angle(ip) if ip != 0 else 0.0
    return float(np.linalg.norm(x - np.exp(1j * phi) * x_hat))


def twin_phase_error(x_hat: np.ndarray, x: np.ndarray) -> float:
    """phase_error up to the conjugate-reflection equivalence class."""
    return min(phase_error(x_hat, x), phase_error(conjugate_reflection(x_hat), x))


def sign_accuracy(x: np.ndarray, indices: np.ndarray, values: np.ndarray
                  ) -> tuple[float, int]:
    """(best-flip accuracy, errors) of recovered signs on true nonzeros."""
    mask = x[indices] != 0
    if not mask.any():
        return 1.0, 0
    agree = np.sign(values[mask]) == np.sign(x[indices][mask])
    errors = int(min(np.sum(~agree), np.sum(agree)))
    return 1.0 - errors / int(mask.sum()), errors


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    z = 1.96                # the 95% interval
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

RECORD_FIELDS = [
    "trial", "pipeline", "n", "k", "error_sq", "tail_sq", "success",
    "rel_error", "s0_size", "s1_size", "s2_size", "L", "sign_accuracy",
    "sign_errors", "signs_failed", "rows_total", "touches", "wall_time",
    "leaves", "error",
]


def _run_one(spec: TrialSpec, t: int) -> dict:
    record = {f: None for f in RECORD_FIELDS}
    record.update(trial=t, pipeline=spec.pipeline, n=spec.n, k=spec.k,
                  success=False, error="")
    start = time.perf_counter()
    try:
        x = gen_signal(spec, t)
        if spec.pipeline == "prony":
            scheme = DeterministicScheme(spec.n, spec.k)
            y = det_measure(scheme, x)
            out = det_recover(scheme, y)
            rel = twin_phase_error(out.values, x) / float(np.linalg.norm(x))
            record.update(rel_error=rel, success=bool(rel < PRONY_TOL),
                          rows_total=scheme.n_measurements, leaves=out.leaves)
        else:
            tail_sq = tail_norm_sq(x, spec.k)
            replicas = AMPLIFIED_REPLICAS \
                if spec.pipeline == "cphase-amplified" else 1
            ensembles = [build_ensemble(spec.n, spec.k, config=spec.config,
                                        rng_seed=_ensemble_seed(spec.seed, t, rep))
                         for rep in range(replicas)]
            result = decode_amplified(ensembles, [apply_phaseless(ens, x)
                                                  for ens in ensembles])
            x_hat = result.to_dense()
            err_sq = min_flip_error_sq(x, x_hat)
            acc, errs = sign_accuracy(x, result.S2, result.values)
            record.update(
                error_sq=err_sq, tail_sq=tail_sq,
                success=bool(err_sq <= SUCCESS_FACTOR * tail_sq),
                s0_size=int(result.S0.size), s1_size=int(result.S1.size),
                s2_size=int(result.S2.size),
                L=result.tail_energy.L,
                sign_accuracy=acc, sign_errors=errs,
                signs_failed=bool(result.signs_failed),
                rows_total=sum(ens.total_rows for ens in ensembles),
                touches=result.diagnostics.total_touches())
    except Exception as exc:  # record, never abort the batch
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["wall_time"] = time.perf_counter() - start
    return record


@dataclass
class TrialReport:
    spec: TrialSpec
    records: list[dict]

    def aggregates(self) -> dict:
        ok = sum(1 for r in self.records if r["success"])
        n = len(self.records)
        lo, hi = wilson_interval(ok, n)
        agg = {
            "trials": n,
            "successes": ok,
            "success_rate": ok / n,
            "success_ci95": [lo, hi],
            "hard_errors": sum(1 for r in self.records if r["error"]),
        }
        ratios = [r["error_sq"] / r["tail_sq"] for r in self.records
                  if r["tail_sq"] not in (None, 0) and r["error_sq"] is not None]
        if ratios:
            agg["median_error_ratio"] = float(np.median(ratios))
        for key, column, stat in (("median_rel_error", "rel_error", np.median),
                                  ("median_leaves", "leaves", np.median),
                                  ("mean_sign_accuracy", "sign_accuracy", np.mean)):
            values = [r[column] for r in self.records if r[column] is not None]
            if values:
                agg[key] = float(stat(values))
        return agg

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS)
        writer.writeheader()
        writer.writerows(self.records)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "spec": json.loads(self.spec.to_json()),
            "aggregates": self.aggregates(),
        }, indent=2, sort_keys=True)


def run_trials(spec: TrialSpec, workers: int = 1) -> TrialReport:
    """Run every trial in the spec on min(workers, trials) processes;
    per-trial failures are recorded, not raised. Records are deterministic
    given the spec, whatever ``workers``."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, spec.trials)
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            records = pool.starmap(_run_one,
                                   [(spec, t) for t in range(spec.trials)])
    else:
        records = [_run_one(spec, t) for t in range(spec.trials)]
    return TrialReport(spec=spec, records=records)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _config_grid(grid: dict[str, list], base: EnsembleConfig
                 ) -> list[EnsembleConfig]:
    configs = [base]
    for key in sorted(grid):
        configs = [EnsembleConfig.from_dict({**asdict(c), key: v})
                   for c in configs for v in grid[key]]
    return configs


def calibrate(grid: dict[str, list], base_spec: TrialSpec, target_rate: float
              ) -> tuple[EnsembleConfig | None, list[dict]]:
    """Smallest-measurement config on the grid meeting the target rate.
    The grid varies ``base_spec.config`` one field per grid key. Returns
    (winner or None, per-config summaries sorted by measurement count)."""
    if not isinstance(grid, dict) or not grid:
        raise ValueError(f"empty calibration grid or not a JSON object: {grid!r}")
    for field, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ValueError(f"empty calibration grid or not a list of "
                             f"values: {field} = {values!r}")
    if base_spec.pipeline == "prony":
        raise ValueError("the prony pipeline reads no ensemble config")
    if not 0.0 <= target_rate <= 1.0:   # NaN too: no success rate meets it
        raise ValueError(f"target_rate must be a rate in [0, 1], got {target_rate}")
    configs = _config_grid(grid, base_spec.config)
    sizes = [build_ensemble(base_spec.n, base_spec.k, c).total_rows
             for c in configs]
    summaries = []
    winner = None
    for rows, cfg in sorted(zip(sizes, configs), key=lambda pair: pair[0]):
        report = run_trials(replace(base_spec, config=cfg))
        agg = report.aggregates()
        summaries.append({"config": asdict(cfg), "rows": rows,
                          "success_rate": agg["success_rate"]})
        if winner is None and agg["success_rate"] >= target_rate:
            winner = cfg.resolve(base_spec.k)
            break
    return winner, summaries


def edge_error_experiment(n: int, k: int, config: EnsembleConfig, trials: int,
                          seed: int, spike_energy_ratio: float = 100.0) -> float:
    """Fraction of sign-graph votes that contradict the planted signs: an
    agree vote (+1) on a cross-sign pair or a differ vote (-1) on a
    same-sign pair.

    Isolates the pair-test stage: the candidate set and magnitudes are taken
    from the planted truth so that only measurement interference produces
    wrong votes, which the decoder's own sign stage casts on the F level it
    picks. Used to check that raising C0 lowers vote noise.
    """
    spec = TrialSpec(n=n, k=k, signal_model="spikes-plus-tail", trials=trials,
                     seed=seed, config=config, spike_energy_ratio=spike_energy_ratio)
    wrong = total = 0
    for t in range(trials):
        x = gen_signal(spec, t)
        support = np.sort(np.argsort(-np.abs(x))[:k])
        if support.size < 2:   # no pair to vote on, as in decode
            continue
        ens = build_ensemble(n, k, config=config,
                             rng_seed=_ensemble_seed(seed, t))
        graph = _sign_stage(ens, apply_phaseless(ens, x), support,
                            np.abs(x[support]), DecodeDiagnostics())
        planted = np.sign(x[support])
        relation = planted[graph.edge_u] * planted[graph.edge_v]
        total += graph.weights.size
        wrong += int(np.sum(graph.weights != relation))
    return wrong / total if total else 0.0
