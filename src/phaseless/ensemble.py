"""Construction and application of the randomized phaseless sensing ensemble.

The ensemble stacks four families of sparse +/-1 blocks over a common sign
flip D applied to the signal:

  A   heavy-hitter identification structure (see sketch.py): per repetition,
      hash buckets split by the bits of the coordinate index, so a bucket's
      dominant coordinate can be read off by comparing magnitudes.
  B   bucket/sign hashing used for per-coordinate magnitude estimates.
  E   one i.i.d. Bernoulli(min(1/k, 1/2)) sign block used to estimate the
      energy of everything outside the candidate set; its rows split into
      rep_log_n bands of ceil(C1 * k) rows, the repetitions the estimate
      takes its median over.
  F   a ladder of levels, one per candidate-set scale 2^l, dense enough to
      sample coordinate pairs but sparse enough to keep per-row interference
      low; used for relative-sign tests.

Sensing computes y = |Phi x| block by block; nothing downstream ever sees a
sign or phase. All randomness is drawn from counter-based streams keyed off
one master seed, so a (n, k, config, seed) tuple reproduces the ensemble
exactly, block by block. Building one therefore computes only D and the
block keys: each block recomputes the columns a signal or a decode touches
from its stream (see sparse.py), and saving one writes only its header.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import sketch
from .sparse import ColumnBlock, SparseSignMatrix, splitmix64

__all__ = [
    "EnsembleConfig",
    "SensingEnsemble",
    "Measurements",
    "EnsembleError",
    "build_ensemble",
    "apply_phaseless",
    "row_count",
    "planned_row_counts",
]


class EnsembleError(ValueError):
    """Invalid dimensions or configuration for ensemble construction."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleConfig:
    """Constants of the construction.

    ``None`` fields are resolved from (n, k) at build time; ``resolve``
    returns a config with every field concrete. Defaults were calibrated
    on the acceptance experiments (the guarantees only pin these constants
    up to "large enough").

    C0      density constant of the F levels (level density
            1 / (C0 * 2^l * (log2(5k) - l + 2)^2)).
    C1      rows per band of E, in units of k.
    c1      scale applied to the mean squared disjoint-row measurement when
            forming the tail-energy estimate.
    c_F     row-count constant of the F levels; default 12 * C0^2 keeps the
            pair-sampling yield per level roughly constant in C0.
    rep_log_n        number of bands of E (the repetitions the tail
                     estimate takes its median over).
    countsketch_rows buckets per magnitude-estimation repetition.
    countsketch_reps magnitude-estimation repetitions (median over these).
    heavy_K          heaviness parameter of the identification block
                     (default 10k).
    top_select       candidate cap after magnitude estimation (default 2k;
                     any value in [k, 5k] is supported, smaller keeps the
                     tail-estimate rows cheaper).
    hh_bucket_factor buckets per unit of heavy_K in the identification block.
    hh_reps          identification repetitions.
    seed    master RNG seed; every block derives its own stream from it.
    """

    C0: float = 0.125
    C1: float = 16.0
    c1: float = 0.7
    c_F: float | None = None
    rep_log_n: int | None = None
    countsketch_rows: int | None = None
    countsketch_reps: int = 5
    heavy_K: int | None = None
    top_select: int | None = None
    hh_bucket_factor: float = 1.5
    hh_reps: int | None = None
    seed: int = 0

    def resolve(self, n: int, k: int) -> "EnsembleConfig":
        log2n = max(1, math.ceil(math.log2(max(n, 2))))
        updates = {}
        if self.c_F is None:
            updates["c_F"] = 12.0 * self.C0 * self.C0
        if self.rep_log_n is None:
            r = max(3, log2n // 2)
            updates["rep_log_n"] = r + 1 - r % 2  # odd, for a clean median
        if self.countsketch_rows is None:
            updates["countsketch_rows"] = 2 ** math.ceil(math.log2(max(100 * k, 2)))
        if self.heavy_K is None:
            updates["heavy_K"] = 10 * k
        if self.top_select is None:
            updates["top_select"] = 2 * k
        if self.hh_reps is None:
            updates["hh_reps"] = max(3, math.ceil(log2n / 2))
        resolved = replace(self, **updates) if updates else self
        resolved._validate(n, k)
        return resolved

    def _validate(self, n: int, k: int) -> None:
        counts = {
            "rep_log_n": self.rep_log_n,
            "countsketch_rows": self.countsketch_rows,
            "countsketch_reps": self.countsketch_reps,
            "heavy_K": self.heavy_K,
            "top_select": self.top_select,
            "hh_reps": self.hh_reps,
        }
        for name, value in counts.items():
            if value is None or value < 1:
                raise EnsembleError(f"{name} must be >= 1, got {value}")
        for name in ("C0", "C1", "c1", "c_F", "hh_bucket_factor"):
            value = getattr(self, name)
            if value is None or value <= 0:
                raise EnsembleError(f"{name} must be > 0, got {value}")
        if self.heavy_K < k:
            raise EnsembleError(f"heavy_K={self.heavy_K} < k={k}")
        if self.top_select < k:
            raise EnsembleError(f"top_select={self.top_select} < k={k}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EnsembleConfig":
        data = json.loads(text)
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise EnsembleError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


# ---------------------------------------------------------------------------
# structural helpers shared by builder and row-count planner
# ---------------------------------------------------------------------------

def _e_density(k: int) -> float:
    """min(1/k, 1/2): at k = 1 a density of 1 would put S1 in every row."""
    return 1.0 / max(k, 2)

def _f_top_level(k: int) -> int:
    return math.ceil(math.log2(5 * k))

def _f_name(level: int) -> str:
    """One F block per level, named after its candidate-set width 2^l."""
    return f"F{2 ** level}"

def _f_log_term(k: int, level: int) -> float:
    return math.log2(5 * k) - level + 2

def _f_density(k: int, level: int, C0: float) -> float:
    return 1.0 / (C0 * (2 ** level) * _f_log_term(k, level) ** 2)

def _f_rows(k: int, level: int, c_F: float) -> int:
    return math.ceil(c_F * max(level, 1) * (2 ** level) * _f_log_term(k, level) ** 4)

def _hh_geometry(n: int, cfg: EnsembleConfig) -> tuple[int, int, int]:
    """(buckets, bits, reps) of the identification block."""
    buckets = max(2, math.ceil(cfg.hh_bucket_factor * cfg.heavy_K))
    bits = max(1, math.ceil(math.log2(max(n, 2))))
    return buckets, bits, cfg.hh_reps


def planned_row_counts(n: int, k: int, config: EnsembleConfig | None = None) -> dict[str, int]:
    """Exact per-family row counts of the ensemble, without building it."""
    cfg = (config or EnsembleConfig()).resolve(n, k)
    buckets, bits, reps = _hh_geometry(n, cfg)
    counts = {
        "A": buckets * (2 * bits + 1) * reps,
        "B": cfg.countsketch_rows * cfg.countsketch_reps,
        "E": cfg.rep_log_n * math.ceil(cfg.C1 * k),
        "F": sum(_f_rows(k, l, cfg.c_F) for l in range(_f_top_level(k) + 1)),
    }
    counts["total"] = sum(counts.values())
    return counts


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

@dataclass
class SensingEnsemble:
    n: int
    k: int
    seed: int
    config: EnsembleConfig          # fully resolved
    D: np.ndarray                   # int8[n], +/-1 signs folded into sensing
    blocks: dict[str, ColumnBlock]
    offsets: dict[str, int]
    total_rows: int

    @property
    def f_top_level(self) -> int:
        return _f_top_level(self.k)

    def f_block(self, size: int) -> tuple[int, str]:
        """(level, block name) of the F level that tests a candidate set of
        ``size``: the smallest l with size <= 2^l, clamped to the ladder."""
        level = min(max(0, math.ceil(math.log2(max(size, 1)))), self.f_top_level)
        return level, _f_name(level)

    # -- serialization: a versioned header; the blocks are rebuilt ----------

    FORMAT = "phaseless-ensemble"
    VERSION = 4

    def save(self, path) -> None:
        header = {
            "format": self.FORMAT,
            "version": self.VERSION,
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
            "config": asdict(self.config),
        }
        with open(path, "wb") as fh:
            np.savez(fh, header=np.frombuffer(json.dumps(header).encode(),
                                              dtype=np.uint8))

    @classmethod
    def load(cls, path) -> "SensingEnsemble":
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode())
        if header.get("format") != cls.FORMAT:
            raise EnsembleError(f"not an ensemble container: {header.get('format')}")
        if header.get("version") != cls.VERSION:
            raise EnsembleError(f"unsupported container version {header.get('version')}")
        return build_ensemble(header["n"], header["k"],
                              config=EnsembleConfig(**header["config"]),
                              rng_seed=header["seed"])


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

@dataclass
class Measurements:
    """y = |Phi x|, plus the block partition needed to address it.

    ``y`` holds one signal's rows, or a batch as a (signals, rows) array;
    ``block`` slices the last axis either way.
    """

    y: np.ndarray
    offsets: dict[str, int]
    block_rows: dict[str, int]

    def block(self, name: str) -> np.ndarray:
        start = self.offsets[name]
        return self.y[..., start:start + self.block_rows[name]]

    FORMAT = "phaseless-measurements"
    VERSION = 2

    def save(self, path) -> None:
        header = {"format": self.FORMAT, "version": self.VERSION,
                  "offsets": self.offsets, "block_rows": self.block_rows}
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                y=self.y.astype(np.float64))

    @classmethod
    def load(cls, path) -> "Measurements":
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode())
            if header.get("format") != cls.FORMAT:
                raise EnsembleError(f"not a measurements container: {header.get('format')}")
            if header.get("version") != cls.VERSION:
                raise EnsembleError(
                    f"unsupported measurements version {header.get('version')}")
            return cls(y=data["y"], offsets=header["offsets"],
                       block_rows=header["block_rows"])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def build_ensemble(n: int, k: int, config: EnsembleConfig | None = None,
                   rng_seed: int | None = None) -> SensingEnsemble:
    """Construct the full sensing ensemble for an n-dimensional, k-sparse
    target. Requires k <= n/20 so the heavy-hitter and candidate-cap
    machinery has room to operate."""
    if n < 1 or k < 1:
        raise EnsembleError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if k > n / 20:
        raise EnsembleError(f"k={k} too large for n={n} (need k <= n/20)")
    cfg = (config or EnsembleConfig()).resolve(n, k)
    seed = int(cfg.seed if rng_seed is None else rng_seed)
    if rng_seed is not None:
        cfg = replace(cfg, seed=seed)

    f_levels = range(_f_top_level(k) + 1)
    words = np.random.SeedSequence(seed).generate_state(
        4 + cfg.rep_log_n + f_levels[-1], dtype=np.uint64)
    # stream words: D 0, A 1, B 2, E 3, F{2^l} 3 + rep_log_n + l
    keys = {"A": words[1], "B": words[2], "E": words[3]}
    keys.update({_f_name(l): words[3 + cfg.rep_log_n + l] for l in f_levels})
    D = (splitmix64(int(words[0]), np.arange(n)) & np.uint64(1)).astype(np.int8)
    D = D * 2 - 1

    buckets, bits, reps = _hh_geometry(n, cfg)
    blocks: dict[str, ColumnBlock] = {}
    # the hash-block builders are looked up on their module at call time, so
    # a tracer that wraps them there times these calls too
    blocks["A"] = sketch.build_hh_block(keys["A"], n, buckets, bits, reps)
    blocks["B"] = sketch.build_countsketch_block(
        keys["B"], n, cfg.countsketch_rows, cfg.countsketch_reps)
    blocks["E"] = SparseSignMatrix.bernoulli(
        keys["E"], cfg.rep_log_n * math.ceil(cfg.C1 * k), n, _e_density(k))
    for level in f_levels:
        p = _f_density(k, level, cfg.C0)
        if not p < 1.0:
            raise EnsembleError(f"F level {level} density {p} >= 1; increase C0")
        name = _f_name(level)
        blocks[name] = SparseSignMatrix.bernoulli(keys[name], _f_rows(k, level, cfg.c_F),
                                                  n, p)

    offsets, total = {}, 0
    for name in blocks:
        offsets[name] = total
        total += blocks[name].n_rows
    return SensingEnsemble(n=n, k=k, seed=seed, config=cfg, D=D,
                           blocks=blocks, offsets=offsets, total_rows=total)


def apply_phaseless(ensemble: SensingEnsemble, x: np.ndarray) -> Measurements:
    """Sense a signal: y = |Phi' (D x)| over every block, concatenated."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ensemble.n,):
        raise EnsembleError(f"signal shape {x.shape} != ({ensemble.n},)")
    if not np.all(np.isfinite(x)):
        raise EnsembleError("signal must be finite")
    dx = ensemble.D * x
    y = np.empty(ensemble.total_rows, dtype=np.float64)
    block_rows = {}
    for name, blk in ensemble.blocks.items():
        start = ensemble.offsets[name]
        y[start:start + blk.n_rows] = np.abs(blk.apply(dx))
        block_rows[name] = blk.n_rows
    return Measurements(y=y, offsets=dict(ensemble.offsets), block_rows=block_rows)


def row_count(ensemble: SensingEnsemble) -> dict[str, int]:
    """Measured rows per block, per family rollup, and total."""
    per_block = {name: blk.n_rows for name, blk in ensemble.blocks.items()}
    families = {"A": 0, "B": 0, "E": 0, "F": 0}
    for name, rows in per_block.items():
        families[name[0]] += rows
    out = dict(per_block)
    out.update({f"{fam}_family": rows for fam, rows in families.items()})
    out["total"] = sum(per_block.values())
    return out
