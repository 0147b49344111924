"""Construction and application of the randomized phaseless sensing ensemble.

The ensemble stacks four families of sparse +/-1 blocks, each of which
gives every nonzero entry its own random sign:

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
      low; used for relative-sign tests. The levels run over
      l = 1 .. min(ceil(log2 top_select), ceil(log2 5k)), the only ones the
      sign stage can pick: it tests sets of 2 to top_select candidates.

Sensing computes y = |Phi x| block by block; nothing downstream ever sees a
sign or phase. All randomness is drawn from counter-based streams keyed off
one seed, ``build_ensemble``'s ``rng_seed``, so an (n, k, seed, config)
quadruple reproduces the ensemble exactly, block by block; the config holds
only the construction constants. Building one therefore computes only the
block keys: each block recomputes the columns a signal or a decode
touches from its stream (see sparse.py).

The built ensemble owns the row layout: ``SensingEnsemble.rows`` slices a
block's rows out of y. Measurements carry only y and the (n, k, seed,
resolved config) that identifies their ensemble, so a measurements file is
the whole record of a sensing run: ``build_ensemble`` rebuilds its
ensemble, and every decode entry point checks that identity by value.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import sketch
from .sparse import ColumnBlock, SparseSignMatrix

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

# the config fields that count rows, buckets or repetitions
_COUNTS = ("rep_log_n", "countsketch_rows", "countsketch_reps", "heavy_K",
           "top_select", "hh_reps")
_INTEGER = (int, np.integer)
_NUMBER = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class EnsembleConfig:
    """Constants of the construction; the random draw's seed is not one of
    them but ``build_ensemble``'s ``rng_seed``.

    ``None`` fields are resolved from (n, k) at build time; ``resolve``
    returns a config with every field concrete. Defaults were calibrated
    on the acceptance experiments (the guarantees only pin these constants
    up to "large enough"). Count fields must be integers >= 1 and the
    others finite numbers > 0; any other value raises EnsembleError on
    construction.

    C0      density constant of the F levels (level density
            1 / (C0 * 2^l * (log2(5k) - l + 2)^2), for the levels
            l = 1 .. min(ceil(log2 top_select), ceil(log2 5k))).
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

    def __post_init__(self):
        # config files and calibration grids reach here: refuse a value of
        # the wrong type or range by name, before resolve does arithmetic
        # on it; resolve's replace checks the derived values here too
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is None:
                continue
            kind, noun = (_INTEGER, "an integer") if name in _COUNTS \
                else (_NUMBER, "a number")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise EnsembleError(f"{name} must be {noun}, got {value!r}")
            if name in _COUNTS and value < 1:
                raise EnsembleError(f"{name} must be >= 1, got {value}")
            if name not in _COUNTS and not 0 < value < math.inf:
                raise EnsembleError(f"{name} must be finite and > 0, got {value}")

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
        for name in ("heavy_K", "top_select"):
            if getattr(resolved, name) < k:
                raise EnsembleError(f"{name}={getattr(resolved, name)} < k={k}")
        return resolved

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "EnsembleConfig":
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise EnsembleError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "EnsembleConfig":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# structural helpers of the builder
# ---------------------------------------------------------------------------

def e_inverse_density(k: int) -> int:
    """max(k, 2), one over E's entry density: at k = 1 a density of 1 would
    put S1 in every row. ``decoder.estimate_tail_energy`` scales by it."""
    return max(k, 2)

def _f_levels(k: int, top_select: int) -> range:
    """The F levels the sign stage can pick: 2 to top_select candidates."""
    top = min(math.ceil(math.log2(top_select)), math.ceil(math.log2(5 * k)))
    return range(1, top + 1)

def _f_name(level: int) -> str:
    """One F block per level, named after its candidate-set width 2^l."""
    return f"F{2 ** level}"

def _f_log_term(k: int, level: int) -> float:
    return math.log2(5 * k) - level + 2

def f_inverse_density(k: int, level, C0: float):
    """C0 * 2^l * (log2(5k) - l + 2)^2, one over F level l's entry density;
    ``decoder.prune`` divides its threshold by it too. ``level`` may be an
    array."""
    return C0 * 2.0 ** level * _f_log_term(k, level) ** 2

def _f_rows(k: int, level: int, c_F: float) -> int:
    return math.ceil(c_F * level * (2 ** level) * _f_log_term(k, level) ** 4)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

@dataclass
class SensingEnsemble:
    n: int
    k: int
    seed: int                       # keys every stream
    config: EnsembleConfig          # fully resolved
    blocks: dict[str, ColumnBlock]
    offsets: dict[str, int]
    total_rows: int

    @property
    def f_top_level(self) -> int:
        """Highest F level built; 0 when there is none (top_select = 1)."""
        return max(_f_levels(self.k, self.config.top_select), default=0)

    def f_block(self, size: int) -> str:
        """Name of the F level that tests a candidate set of ``size``: the
        smallest l with size <= 2^l, clamped to the ladder and to level 1,
        so a single candidate names a block it never reads."""
        return _f_name(max(1, min(math.ceil(math.log2(max(size, 1))),
                                  self.f_top_level)))

    def rows(self, name: str) -> slice:
        """The rows of block ``name`` in y (the last axis of a batch)."""
        start = self.offsets[name]
        return slice(start, start + self.blocks[name].n_rows)

    def check(self, measurements: "Measurements") -> None:
        """Raise EnsembleError unless ``measurements`` were sensed by an
        ensemble with this (n, k, seed, config). Values are compared, not
        objects: a rebuild reproduces the ensemble exactly."""
        mine = (self.n, self.k, self.seed, self.config)
        theirs = (measurements.n, measurements.k, measurements.seed,
                  measurements.config)
        if theirs != mine:
            mine, theirs = _identity(*mine), _identity(*theirs)
            raise EnsembleError("measurements come from another ensemble: "
                                + ", ".join(f"{key}={theirs[key]!r} (ensemble: "
                                            f"{mine[key]!r})" for key in mine
                                            if theirs[key] != mine[key]))
        if measurements.y.shape[-1:] != (self.total_rows,):
            raise EnsembleError(f"measurements have {measurements.y.shape[-1:]} "
                                f"rows, the ensemble {self.total_rows}")


def _identity(n: int, k: int, seed: int, config: EnsembleConfig) -> dict:
    return {"n": n, "k": k, "seed": seed, **asdict(config)}


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

@dataclass
class Measurements:
    """y = |Phi x|, and the (n, k, seed, resolved config) of the ensemble
    that sensed it; ``SensingEnsemble.rows`` addresses its blocks.

    ``y`` holds one signal's rows, or a batch as a (signals, rows) array.
    """

    y: np.ndarray
    n: int
    k: int
    seed: int
    config: EnsembleConfig

    FORMAT = "phaseless-measurements"
    VERSION = 5

    def save(self, path) -> None:
        header = {"format": self.FORMAT, "version": self.VERSION,
                  **_identity(self.n, self.k, self.seed, self.config)}
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                y=self.y.astype(np.float64))

    @classmethod
    def load(cls, path) -> "Measurements":
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode())
            if header.pop("format", None) != cls.FORMAT:
                raise EnsembleError("not a measurements container")
            version = header.pop("version", None)
            if version != cls.VERSION:
                raise EnsembleError(f"unsupported measurements version {version}")
            identity = {key: header.pop(key, None) for key in ("n", "k", "seed")}
            for key, value in identity.items():
                if isinstance(value, bool) or not isinstance(value, int):
                    raise EnsembleError(f"measurements header: {key} must be "
                                        f"an integer, got {value!r}")
            return cls(y=data["y"], **identity,
                       config=EnsembleConfig.from_dict(header))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _integer(name: str, value) -> int:
    """``value`` as a Python int; a bool, float or other type raises."""
    if isinstance(value, bool) or not isinstance(value, _INTEGER):
        raise EnsembleError(f"{name} must be an integer, got {value!r}")
    return int(value)


def build_ensemble(n: int, k: int, config: EnsembleConfig | None = None,
                   rng_seed: int = 0) -> SensingEnsemble:
    """Construct the full sensing ensemble for an n-dimensional, k-sparse
    target; ``rng_seed`` (a non-negative integer) keys every random stream.
    n, k and the seed are ints or numpy integers. Requires k <= n/20 so the
    heavy-hitter and candidate-cap machinery has room to operate."""
    n, k, seed = (_integer(name, value) for name, value in
                  (("n", n), ("k", k), ("rng_seed", rng_seed)))
    if n < 1 or k < 1:
        raise EnsembleError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if k > n / 20:
        raise EnsembleError(f"k={k} too large for n={n} (need k <= n/20)")
    if seed < 0:
        raise EnsembleError(f"rng_seed must be an integer >= 0, got {seed!r}")
    cfg = (config or EnsembleConfig()).resolve(n, k)

    f_levels = _f_levels(k, cfg.top_select)
    words = np.random.SeedSequence(seed).generate_state(
        3 + cfg.rep_log_n + f_levels.stop, dtype=np.uint64)
    # stream words: A 1, B 2, E 3, F{2^l} 3 + rep_log_n + l. Word 0 is
    # unused: renumbering would change every block a seed names
    keys = {"A": words[1], "B": words[2], "E": words[3]}
    keys.update({_f_name(l): words[3 + cfg.rep_log_n + l] for l in f_levels})

    blocks: dict[str, ColumnBlock] = {}
    # the hash-block builders are looked up on their module at call time, so
    # a tracer that wraps them there times these calls too
    blocks["A"] = sketch.build_hh_block(
        keys["A"], n, max(2, math.ceil(cfg.hh_bucket_factor * cfg.heavy_K)),
        max(1, math.ceil(math.log2(max(n, 2)))), cfg.hh_reps)
    blocks["B"] = sketch.build_countsketch_block(
        keys["B"], n, cfg.countsketch_rows, cfg.countsketch_reps)
    blocks["E"] = SparseSignMatrix.bernoulli(
        keys["E"], cfg.rep_log_n * math.ceil(cfg.C1 * k), n,
        1.0 / e_inverse_density(k))
    for level in f_levels:
        p = 1.0 / f_inverse_density(k, level, cfg.C0)
        if not p < 1.0:
            raise EnsembleError(f"F level {level} density {p} >= 1; increase C0")
        name = _f_name(level)
        blocks[name] = SparseSignMatrix.bernoulli(keys[name], _f_rows(k, level, cfg.c_F),
                                                  n, p)

    offsets, total = {}, 0
    for name in blocks:
        offsets[name] = total
        total += blocks[name].n_rows
    return SensingEnsemble(n=n, k=k, seed=seed, config=cfg, blocks=blocks,
                           offsets=offsets, total_rows=total)


def apply_phaseless(ensemble: SensingEnsemble, x: np.ndarray) -> Measurements:
    """Sense a real signal: y = |Phi x| over every block, concatenated."""
    if np.iscomplexobj(x):
        raise EnsembleError("signal must be real, got a complex array")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ensemble.n,):
        raise EnsembleError(f"signal shape {x.shape} != ({ensemble.n},)")
    if not np.all(np.isfinite(x)):
        raise EnsembleError("signal must be finite")
    y = np.empty(ensemble.total_rows, dtype=np.float64)
    for name, blk in ensemble.blocks.items():
        y[ensemble.rows(name)] = np.abs(blk.apply(x))
    return Measurements(y, ensemble.n, ensemble.k, ensemble.seed, ensemble.config)


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


def planned_row_counts(n: int, k: int, config: EnsembleConfig | None = None) -> dict[str, int]:
    """Per-family row counts of the (n, k, config) ensemble, which no seed
    changes. Building one
    computes only the block keys, so the planner counts a build."""
    counts = row_count(build_ensemble(n, k, config))
    return {fam: counts[f"{fam}_family"] for fam in "ABEF"} | {"total": counts["total"]}
