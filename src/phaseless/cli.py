"""Command-line driver.

Subcommands:
  gen        write a batch of signals (npz) from a signal model
  sense      build an ensemble and measure real signals into one
             measurements file, which also names the ensemble
  decode     rebuild that ensemble and decode the file into sparse
             estimates (JSON)
  bench      run a TrialSpec file end to end, write CSV + JSON reports
  calibrate  grid-search constants against a target success rate

``bench --pipeline prony`` runs the Monte-Carlo of the deterministic 4k-1
scheme.

Exit status is 0 only if no trial-level hard errors occurred (and, for
calibrate, the target was met).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import TrialSpec, calibrate, gen_signal, run_trials
from .decoder import decode
from .ensemble import EnsembleConfig, Measurements, apply_phaseless, \
    build_ensemble


def _load_config(path: str | None) -> EnsembleConfig:
    if path is None:
        return EnsembleConfig()
    return EnsembleConfig.from_json(Path(path).read_text())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with EnsembleConfig fields")
    p.add_argument("--model", type=str, default="exact-sparse",
                   choices=["exact-sparse", "spikes-plus-tail", "power-law"])
    p.add_argument("--out", type=str, default=".")
    p.add_argument("--pipeline", type=str, default="cphase",
                   choices=["cphase", "cphase-amplified", "prony"])


def cmd_gen(args) -> int:
    spec = TrialSpec(n=args.n, k=args.k, signal_model=args.model,
                     trials=args.trials, seed=args.seed,
                     config=_load_config(args.config), pipeline=args.pipeline)
    signals = np.stack([gen_signal(spec, t) for t in range(spec.trials)])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(out / "signals.npz", signals=signals)
    (out / "trialspec.json").write_text(spec.to_json())
    print(f"wrote {spec.trials} signals to {out / 'signals.npz'}")
    return 0


def cmd_sense(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with np.load(Path(args.signals)) as data:
        signals = data["signals"]
    if np.iscomplexobj(signals):
        print("sense drives the randomized (real-signal) pipeline; this "
              "file holds complex signals for the deterministic one")
        return 1
    ensemble = build_ensemble(args.n, args.k, config=_load_config(args.config),
                              rng_seed=args.seed)
    y = np.stack([apply_phaseless(ensemble, x).y for x in signals])
    Measurements(y, ensemble.n, ensemble.k, ensemble.config).save(
        out / "measurements.npz")
    print(f"wrote {len(signals)} measurement vectors to {out / 'measurements.npz'}")
    return 0


def cmd_decode(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    batch = Measurements.load(Path(args.measurements))
    ensemble = build_ensemble(batch.n, batch.k, config=batch.config)
    failures = 0
    for t, y in enumerate(batch.y):
        path = out / f"result_y{t:05d}.json"
        try:
            path.write_text(decode(ensemble, replace(batch, y=y)).to_json())
        except Exception as exc:
            failures += 1
            path.write_text(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
    print(f"decoded {len(batch.y)} measurement vectors ({failures} failures)")
    return 1 if failures else 0


def cmd_bench(args) -> int:
    if args.spec:
        spec = TrialSpec.from_json(Path(args.spec).read_text())
    else:
        spec = TrialSpec(n=args.n, k=args.k, signal_model=args.model,
                         trials=args.trials, seed=args.seed,
                         config=_load_config(args.config),
                         pipeline=args.pipeline)
    report = run_trials(spec, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report.to_csv())
    (out / "report.json").write_text(report.to_json())
    agg = report.aggregates()
    print(json.dumps(agg, indent=2))
    return 1 if agg["hard_errors"] else 0


def cmd_calibrate(args) -> int:
    grid = json.loads(Path(args.grid).read_text())
    base = TrialSpec(n=args.n, k=args.k, signal_model=args.model,
                     trials=args.trials, seed=args.seed,
                     config=_load_config(args.config), pipeline=args.pipeline)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    winner, summaries = calibrate(grid, base, args.target,
                                  out_path=out / "defaults.json")
    (out / "calibration.json").write_text(json.dumps(summaries, indent=2))
    if winner is None:
        best = max((s["success_rate"] for s in summaries), default=0.0)
        print(f"no config met target {args.target}; best rate {best}")
        return 1
    print(f"calibrated config written to {out / 'defaults.json'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="phaseless",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate signal batches")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sense", help="measure signals with a fresh ensemble")
    _add_common(p)
    p.add_argument("--signals", type=str, required=True)
    p.set_defaults(func=cmd_sense)

    p = sub.add_parser("decode", help="decode measurement files")
    _add_common(p)
    p.add_argument("--measurements", type=str, required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bench", help="run a TrialSpec")
    _add_common(p)
    p.add_argument("--spec", type=str, default=None,
                   help="TrialSpec JSON file (overrides other flags)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("calibrate", help="grid-search ensemble constants")
    _add_common(p)
    p.add_argument("--grid", type=str, required=True,
                   help="JSON dict: config field -> list of values")
    p.add_argument("--target", type=float, default=0.9)
    p.set_defaults(func=cmd_calibrate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
