"""Construction and application of the randomized phaseless sensing ensemble.

The ensemble stacks three families of sparse +/-1 blocks, each of which
gives every nonzero entry its own random sign:

  A   heavy-hitter identification structure (see sketch.py): per repetition,
      hash buckets split by the bits of the coordinate index, so a bucket's
      dominant coordinate can be read off by comparing magnitudes.
  B   bucket/sign hashing (a count-sketch) used for per-coordinate
      magnitude estimates; its buckets that no candidate hashes to also
      give the estimate of the energy outside the candidate set.
  F   a ladder of levels, one per candidate-set scale 2^l, dense enough to
      sample coordinate pairs but sparse enough to keep per-row interference
      low; used for relative-sign tests. The levels run over
      l = 1 .. min(ceil(log2 top_select), ceil(log2 5k)), the only ones the
      sign stage can pick: it tests sets of 2 to top_select candidates.

Sensing computes y = |Phi x| in one pass over the stacked blocks; nothing
downstream ever sees a sign or phase. All randomness is drawn from
counter-based streams keyed off one seed, ``build_ensemble``'s
``rng_seed``, so an (n, k, seed, config) quadruple reproduces the ensemble
exactly, block by block; the config holds only the construction
constants. Building one therefore computes only the block keys: each
block recomputes the columns a signal or a decode touches from its stream
(see sparse.py).

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
from .sparse import SparseSignMatrix, apply_blocks

__all__ = [
    "EnsembleConfig",
    "SensingEnsemble",
    "Measurements",
    "EnsembleError",
    "build_ensemble",
    "apply_phaseless",
    "row_count",
]


class EnsembleError(ValueError):
    """Invalid dimensions or configuration for ensemble construction."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# the config fields that count rows, buckets or repetitions
_COUNTS = ("countsketch_rows", "countsketch_reps", "heavy_K", "top_select",
           "hh_reps")
_INTEGER = (int, np.integer)
_NUMBER = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class EnsembleConfig:
    """Constants of the construction; the random draw's seed is not one of
    them but ``build_ensemble``'s ``rng_seed``.

    ``None`` fields are resolved from k at build time; ``resolve``
    returns a config with every field concrete. Defaults were calibrated
    on the acceptance experiments (the guarantees only pin these constants
    up to "large enough"). Count fields must be integers >= 1 and the
    others finite numbers > 0; any other value raises EnsembleError on
    construction.

    C0      density constant of the F levels (level density
            1 / (C0 * 2^l * (log2(5k) - l + 2)^2), for the levels
            l = 1 .. min(ceil(log2 top_select), ceil(log2 5k))).
    c1      scale applied to the mean squared measurement of the B buckets
            that miss the candidates when forming the tail-energy estimate.
    c_F     row-count constant of the F levels; default 6 * C0^2 keeps the
            pair-sampling yield per level roughly constant in C0.
    countsketch_rows buckets per magnitude-estimation repetition (default
                     2^ceil(log2 max(12.5k, 64)), 128 at k = 10: count-sketch
                     needs O(k) buckets to rank the at most 2 heavy_K
                     candidates, each read from the buckets no other
                     candidate shares; 64 at k <= 5, where 32 buckets let
                     a false candidate share the spike's bucket in most
                     repetitions).
    countsketch_reps magnitude-estimation and tail-estimation repetitions
                     (median over these).
    heavy_K          heaviness parameter of the identification block
                     (default 4k).
    top_select       candidate cap after magnitude estimation (default 2k;
                     any value in [k, 5k] is supported, smaller keeps the
                     tail-estimate rows cheaper).
    hh_bucket_factor buckets per unit of heavy_K in the identification block
                     (default 1.25).
    hh_reps          identification repetitions (default 5 at every n, so
                     A grows as k log n, not k log^2 n).
    """

    C0: float = 0.125
    c1: float = 0.7
    c_F: float | None = None
    countsketch_rows: int | None = None
    countsketch_reps: int = 5
    heavy_K: int | None = None
    top_select: int | None = None
    hh_bucket_factor: float = 1.25
    hh_reps: int = 5

    def __post_init__(self):
        # config files and calibration grids reach here: refuse a value of
        # the wrong type or range by name, before resolve does arithmetic
        # on it; resolve's replace checks the derived values here too
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is None:
                if self.__dataclass_fields__[name].default is not None:
                    raise EnsembleError(f"{name} must be set, got None")
                continue
            kind, noun = (_INTEGER, "an integer") if name in _COUNTS \
                else (_NUMBER, "a number")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise EnsembleError(f"{name} must be {noun}, got {value!r}")
            if name in _COUNTS and value < 1:
                raise EnsembleError(f"{name} must be >= 1, got {value}")
            if name not in _COUNTS and not 0 < value < math.inf:
                raise EnsembleError(f"{name} must be finite and > 0, got {value}")

    def resolve(self, k: int) -> "EnsembleConfig":
        updates = {}
        if self.c_F is None:
            updates["c_F"] = 6.0 * self.C0 * self.C0
        if self.countsketch_rows is None:
            updates["countsketch_rows"] = 2 ** math.ceil(math.log2(max(12.5 * k, 64)))
        if self.heavy_K is None:
            updates["heavy_K"] = 4 * k
        if self.top_select is None:
            updates["top_select"] = 2 * k
        resolved = replace(self, **updates) if updates else self
        for name in ("heavy_K", "top_select"):
            if getattr(resolved, name) < k:
                raise EnsembleError(f"{name}={getattr(resolved, name)} < k={k}")
        return resolved

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "EnsembleConfig":
        if not isinstance(data, dict):
            raise EnsembleError(f"config must be a JSON object, got {data!r}")
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
    blocks: dict[str, sketch.HashBlock | SparseSignMatrix]
    offsets: dict[str, int]
    total_rows: int

    @property
    def f_top_level(self) -> int:
        """Highest F level built; 0 when there is none (top_select = 1)."""
        return max(_f_levels(self.k, self.config.top_select), default=0)

    def f_block(self, size: int) -> str:
        """Name of the F level that tests a candidate set of ``size``: the
        smallest l with size <= 2^l, clamped to the ladder and to level 1,
        so a single candidate names a block it never reads. With no level
        built (top_select = 1) there is none to name: EnsembleError."""
        if not self.f_top_level:
            raise EnsembleError(f"no F level is built at top_select="
                                f"{self.config.top_select}")
        return _f_name(max(1, min(math.ceil(math.log2(max(size, 1))),
                                  self.f_top_level)))

    def rows(self, name: str) -> slice:
        """The rows of block ``name`` in y (the last axis of a batch)."""
        start = self.offsets[name]
        return slice(start, start + self.blocks[name].n_rows)

    def check(self, measurements: "Measurements") -> None:
        """Raise EnsembleError unless ``measurements`` hold one signal's
        rows, as a floating-point array, sensed by an ensemble with this
        (n, k, seed, config). Values are compared, not objects: a rebuild
        reproduces the ensemble exactly."""
        if not isinstance(measurements, Measurements):
            raise EnsembleError(f"measurements must be Measurements, got "
                                f"{type(measurements).__name__}")
        mine = (self.n, self.k, self.seed, self.config)
        theirs = (measurements.n, measurements.k, measurements.seed,
                  measurements.config)
        if theirs != mine:
            mine, theirs = _identity(*mine), _identity(*theirs)
            raise EnsembleError("measurements come from another ensemble: "
                                + ", ".join(f"{key}={theirs[key]!r} (ensemble: "
                                            f"{mine[key]!r})" for key in mine
                                            if theirs[key] != mine[key]))
        if not isinstance(measurements.y, np.ndarray):
            raise EnsembleError(f"y must be a numpy array, got "
                                f"{type(measurements.y).__name__}")
        if not np.issubdtype(measurements.y.dtype, np.floating):
            raise EnsembleError(f"y must be a floating-point array, got "
                                f"dtype {measurements.y.dtype}")
        shape = measurements.y.shape
        if len(shape) != 1:
            raise EnsembleError(f"decoding takes one signal's measurements, "
                                f"got y of shape {shape}")
        if shape[0] != self.total_rows:
            raise EnsembleError(f"measurements have {shape[0]} rows, the "
                                f"ensemble {self.total_rows}")


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
    VERSION = 7

    def save(self, path) -> None:
        header = {"format": self.FORMAT, "version": self.VERSION,
                  **_identity(self.n, self.k, self.seed, self.config)}
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                y=self.y.astype(np.float64))

    @classmethod
    def load(cls, path) -> "Measurements":
        data = np.load(path)   # an .npy file loads as a bare array
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise EnsembleError("not a measurements container")
        with data:
            if not {"header", "y"} <= set(data.files):
                raise EnsembleError("not a measurements container")
            header = json.loads(bytes(data["header"]).decode())
            if not isinstance(header, dict) or \
                    header.pop("format", None) != cls.FORMAT:
                raise EnsembleError("not a measurements container")
            version = header.pop("version", None)
            if version != cls.VERSION:
                raise EnsembleError(f"unsupported measurements version {version}")
            identity = {key: _integer(f"measurements header: {key}",
                                      header.pop(key, None))
                        for key in ("n", "k", "seed")}
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
    heavy-hitter and candidate-cap machinery has room to operate. An F level
    whose density is not below 1 (C0 too small) or whose row count reaches
    2^31 (c_F too large) raises EnsembleError naming the level, and so does
    an ensemble whose total rows reach 2^31, the bound each block has, and
    an n whose hash words overflow int64: n at or above 2^63, or
    max(hh_reps, countsketch_reps) * n above 2^63, and a config that is
    neither an EnsembleConfig nor None."""
    n, k, seed = (_integer(name, value) for name, value in
                  (("n", n), ("k", k), ("rng_seed", rng_seed)))
    if n < 1 or k < 1:
        raise EnsembleError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if k > n / 20:
        raise EnsembleError(f"k={k} too large for n={n} (need k <= n/20)")
    if seed < 0:
        raise EnsembleError(f"rng_seed must be an integer >= 0, got {seed!r}")
    if not isinstance(config, (EnsembleConfig, type(None))):
        raise EnsembleError(f"config must be an EnsembleConfig or None, got "
                            f"{type(config).__name__}")
    cfg = (config or EnsembleConfig()).resolve(k)
    # a hash block keys column i of repetition r at the int64 word i + r n
    reps = max(cfg.hh_reps, cfg.countsketch_reps)
    largest = min((1 << 63) // reps, (1 << 63) - 1)
    if n > largest:
        raise EnsembleError(f"n={n} too large: hash words i + r*n must fit "
                            f"int64 over {reps} repetition(s), so n <= {largest}")

    f_levels = _f_levels(k, cfg.top_select)
    names = ["A", "B"] + [_f_name(l) for l in f_levels]
    # block i of the build order takes stream word i
    keys = dict(zip(names, np.random.SeedSequence(seed).generate_state(
        len(names), dtype=np.uint64)))

    blocks = {}
    # the hash-block builders are looked up on their module at call time, so
    # a tracer that wraps them there times these calls too
    blocks["A"] = sketch.build_hh_block(
        keys["A"], n, max(2, math.ceil(cfg.hh_bucket_factor * cfg.heavy_K)),
        cfg.hh_reps)
    blocks["B"] = sketch.build_countsketch_block(
        keys["B"], n, cfg.countsketch_rows, cfg.countsketch_reps)
    for level in f_levels:
        name = _f_name(level)
        rows = _f_rows(k, level, cfg.c_F)
        p = 1.0 / f_inverse_density(k, level, cfg.C0)
        try:
            blocks[name] = SparseSignMatrix.bernoulli(keys[name], rows, n, p)
        except ValueError as exc:
            raise EnsembleError(f"F level {level}: {exc}") from exc

    offsets, total = {}, 0
    for name in blocks:
        offsets[name] = total
        total += blocks[name].n_rows
    if total >= 1 << 31:
        raise EnsembleError(f"ensemble has {total} rows, at or above the "
                            f"bound 2^31 = {1 << 31} (C0 or c_F too large)")
    return SensingEnsemble(n=n, k=k, seed=seed, config=cfg, blocks=blocks,
                           offsets=offsets, total_rows=total)


def apply_phaseless(ensemble: SensingEnsemble, x: np.ndarray) -> Measurements:
    """Sense a real signal: y = |Phi x| over every block, concatenated.
    The signal is cut down to its nonzero columns and their values here,
    once, and one ``sparse.apply_blocks`` pass over the stacked blocks
    senses those, with at most ``APPLY_CHUNK`` (block, column) pairs per
    request. NaN and inf are nonzero, so checking the sensed values for
    finiteness refuses every non-finite signal."""
    if np.iscomplexobj(x):
        raise EnsembleError("signal must be real, got a complex array")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ensemble.n,):
        raise EnsembleError(f"signal shape {x.shape} != ({ensemble.n},)")
    columns = np.flatnonzero(x)
    values = x[columns]
    if not np.all(np.isfinite(values)):
        raise EnsembleError("signal must be finite")
    y = apply_blocks(list(ensemble.blocks.values()), columns, values)
    np.abs(y, out=y)
    return Measurements(y, ensemble.n, ensemble.k, ensemble.seed, ensemble.config)


def row_count(ensemble: SensingEnsemble) -> dict[str, int]:
    """Measured rows per block, per family rollup, and total."""
    per_block = {name: blk.n_rows for name, blk in ensemble.blocks.items()}
    families = {f"{fam}_family": sum(rows for name, rows in per_block.items()
                                     if name[0] == fam) for fam in "ABF"}
    return {**per_block, **families, "total": ensemble.total_rows}

