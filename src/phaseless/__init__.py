"""Sparse recovery from magnitude-only linear measurements.

Two recovery routes:

* a randomized sketch-and-decode pipeline for approximately sparse real
  signals (``build_ensemble`` / ``apply_phaseless`` / ``decode``), with
  measurement count O(k log n) and decoding work polynomial in k and log n;
* a deterministic 4k-1 measurement scheme for exactly k-sparse complex
  signals (``DeterministicScheme`` / ``det_measure`` / ``det_recover``).

``phaseless.bench`` drives seeded Monte-Carlo experiments over both; the
``phaseless`` CLI exposes them as subcommands.
"""

from .decoder import (DecodeDiagnostics, RecoveryResult, TailEnergyEstimate,
                      TailEstimationError, decode, decode_amplified,
                      estimate_tail_energy, prune)
from .ensemble import (EnsembleConfig, EnsembleError, Measurements,
                       SensingEnsemble, apply_phaseless, build_ensemble,
                       row_count)
from .prony import (ComplexSignal, DeterministicScheme,
                    InconsistentMeasurements, NumericalFailure,
                    conjugate_reflection, det_measure, det_recover,
                    prony_solve)
from .signs import SignGraph, build_sign_graph, recover_communities
from .sketch import SketchError, estimate_magnitudes, identify_heavy
from .sparse import SparseSignMatrix

__version__ = "0.1.0"

# every kernel is plain numpy; reports stamp this name
kernel_backend = "numpy"

__all__ = [
    "kernel_backend",
    "SparseSignMatrix",
    "EnsembleConfig", "SensingEnsemble", "Measurements", "EnsembleError",
    "build_ensemble", "apply_phaseless", "row_count",
    "SketchError", "identify_heavy", "estimate_magnitudes",
    "TailEnergyEstimate", "TailEstimationError", "DecodeDiagnostics",
    "RecoveryResult", "estimate_tail_energy", "prune", "decode",
    "decode_amplified",
    "SignGraph", "build_sign_graph", "recover_communities",
    "ComplexSignal", "DeterministicScheme", "det_measure", "det_recover",
    "prony_solve", "conjugate_reflection",
    "InconsistentMeasurements", "NumericalFailure",
]
