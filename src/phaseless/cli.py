"""Command-line driver.

Subcommands:
  gen        write a batch of signals (npz) from a signal model
  sense      measure real signals (n is their length) into one
             measurements file, which also names the ensemble
  decode     rebuild that ensemble and decode the file into JSON estimates
  bench      run a TrialSpec end to end, write CSV + JSON reports
  calibrate  grid-search constants against a target success rate

Each subcommand takes only the flags it reads. ``gen``, ``bench`` and
``calibrate`` share the spec flags; one left out keeps TrialSpec's default,
and ``bench --spec FILE`` replaces them all. A config file holds
``EnsembleConfig`` constants only, never the seed. ``bench --pipeline
prony`` runs the Monte-Carlo of the deterministic 4k-1 scheme.

Exit status is 0 only if no trial-level hard errors occurred (and, for
calibrate, the target was met); a usage error, such as an input file, config,
grid or (n, k) that a subcommand refuses, exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import PIPELINES, SIGNAL_MODELS, TrialSpec, calibrate, \
    gen_signal, run_trials
from .decoder import decode
from .ensemble import EnsembleConfig, Measurements, apply_phaseless, \
    build_ensemble

# where the spec flags land; all but config are TrialSpec fields
SPEC_DESTS = ("n", "k", "trials", "seed", "config", "signal_model", "pipeline")


def _load_config(path: str | None) -> EnsembleConfig | None:
    return None if path is None else EnsembleConfig.from_json(Path(path).read_text())


def _add_spec_flags(p, required=True) -> None:
    p.add_argument("--n", type=int, required=required)
    p.add_argument("--k", type=int, required=required)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON file of EnsembleConfig constants")
    p.add_argument("--model", dest="signal_model", choices=SIGNAL_MODELS)
    p.add_argument("--pipeline", choices=PIPELINES)


def _trial_spec(args) -> TrialSpec:
    # a malformed spec or config, or one that cannot be read, is a usage error
    try:
        if getattr(args, "spec", None) is not None:
            return TrialSpec.from_json(Path(args.spec).read_text())
        given = {d: v for d in SPEC_DESTS if (v := getattr(args, d)) is not None}
        if "config" in given:
            given["config"] = _load_config(args.config)
        return TrialSpec(**given)
    except (OSError, ValueError) as exc:
        args.error(str(exc))


def cmd_gen(args) -> int:
    spec = _trial_spec(args)
    signals = np.stack([gen_signal(spec, t) for t in range(spec.trials)])
    np.savez_compressed(args.out / "signals.npz", signals=signals)
    (args.out / "trialspec.json").write_text(spec.to_json())
    print(f"wrote {spec.trials} signals to {args.out / 'signals.npz'}")
    return 0


def cmd_sense(args) -> int:
    try:
        data = np.load(Path(args.signals))
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not a signals container")
        with data:
            signals = np.atleast_2d(data["signals"])
        ensemble = build_ensemble(signals.shape[-1], args.k,
                                  config=_load_config(args.config), rng_seed=args.seed)
        y = np.stack([apply_phaseless(ensemble, x).y for x in signals])
    except (OSError, ValueError, KeyError) as exc:
        args.error(str(exc))
    Measurements(y, ensemble.n, ensemble.k, ensemble.seed, ensemble.config).save(
        args.out / "measurements.npz")
    print(f"wrote {len(signals)} measurement vectors to {args.out / 'measurements.npz'}")
    return 0


def cmd_decode(args) -> int:
    try:
        batch = Measurements.load(Path(args.measurements))
        ensemble = build_ensemble(batch.n, batch.k, config=batch.config,
                                  rng_seed=batch.seed)
        ys = np.atleast_2d(batch.y)
        if len(ys):  # the rows share one length: the first shows a misfit
            ensemble.check(replace(batch, y=ys[0]))
    except (OSError, ValueError) as exc:
        args.error(f"--measurements: {exc}")
    failures = 0
    for t, y in enumerate(ys):
        path = args.out / f"result_y{t:05d}.json"
        try:
            path.write_text(decode(ensemble, replace(batch, y=y)).to_json())
        except Exception as exc:
            failures += 1
            path.write_text(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
    print(f"decoded {len(ys)} measurement vectors ({failures} failures)")
    return 1 if failures else 0


def cmd_bench(args) -> int:
    if args.spec is not None and any(getattr(args, d) is not None for d in SPEC_DESTS):
        args.error("--spec replaces the spec flags; give one or the other")
    if args.spec is None and (args.n is None or args.k is None):
        args.error("--n and --k are required without --spec")
    try:  # _trial_spec exits on its own refusals
        report = run_trials(_trial_spec(args), workers=args.workers)
    except ValueError as exc:
        args.error(str(exc))
    (args.out / "report.csv").write_text(report.to_csv())
    (args.out / "report.json").write_text(report.to_json())
    agg = report.aggregates()
    print(json.dumps(agg, indent=2))
    return 1 if agg["hard_errors"] else 0


def cmd_calibrate(args) -> int:
    spec = _trial_spec(args)
    try:
        grid = json.loads(Path(args.grid).read_text())
    except (OSError, ValueError) as exc:
        args.error(f"--grid: {exc}")
    # trials record their own errors: a ValueError is a refused input
    try:
        winner, summaries = calibrate(grid, spec, args.target)
    except ValueError as exc:
        args.error(str(exc))
    (args.out / "calibration.json").write_text(json.dumps(summaries, indent=2))
    if winner is None:
        best = max((s["success_rate"] for s in summaries), default=0.0)
        print(f"no config met target {args.target}; best rate {best}")
        return 1
    (args.out / "defaults.json").write_text(winner.to_json())
    print(f"calibrated config written to {args.out / 'defaults.json'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="phaseless",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate signal batches")
    _add_spec_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sense", help="measure signals with a fresh ensemble")
    p.add_argument("--signals", required=True,
                   help="npz of real signals, one per row; n is their length")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="the ensemble's seed")
    p.add_argument("--config", help="JSON file of EnsembleConfig constants")
    p.set_defaults(func=cmd_sense)

    p = sub.add_parser("decode", help="decode a measurements file")
    p.add_argument("--measurements", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bench", help="run a TrialSpec")
    _add_spec_flags(p, required=False)
    p.add_argument("--spec", help="TrialSpec JSON file, in place of the spec flags")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("calibrate", help="grid-search ensemble constants")
    _add_spec_flags(p)
    p.add_argument("--grid", required=True,
                   help="JSON dict: config field -> list of values")
    p.add_argument("--target", type=float, default=0.9)
    p.set_defaults(func=cmd_calibrate)

    for p in sub.choices.values():
        p.add_argument("--out", type=Path, default=Path("."))
        p.set_defaults(error=p.error)

    args = parser.parse_args(argv)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        args.error(f"--out: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
