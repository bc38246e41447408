"""Command-line front end: simulate, distill, train, evaluate.

Configuration precedence is flags > config file > defaults. The config
file is flat ``key=value`` text whose keys mirror the flag names; unknown
keys are rejected.

Exit code 0 is success and 3 an ``OSError``. Every other failure is a
``DistregError``, and the CLI exits with its class's ``exit_code``: see
``errors.py`` for the codes and the README for the table.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import dataio, model as mdl, pipeline, register, simulate
from .aggregate import ApgConfig
from .errors import (
    CliIOError,
    DistregError,
    EmptyResultGuard,
    MalformedFile,
    NoPairs,
    UsageError,
)
from .losses import LossConfig

EXIT_OK = 0
EXIT_IO = 3

_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


# ---------------------------------------------------------------------------
# Parser construction and config-file merging
# ---------------------------------------------------------------------------

def _add_common_out(p, required=True):
    p.add_argument("--out", required=required, help="output path")
    p.add_argument("--force", action="store_true", help="allow overwriting outputs")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="distreg",
        description="Distant point-cloud registration: simulation, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("simulate", help="write a synthetic LiDAR dataset")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=30)
    p.add_argument("--extent", type=float, default=60.0)
    p.add_argument("--obstacles", type=int, default=12)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--start-x", type=float, default=-15.0)
    p.add_argument("--start-y", type=float, default=0.0)
    p.add_argument("--heading", type=float, default=0.0, help="degrees")
    p.add_argument("--height", type=float, default=1.5)
    p.add_argument("--azimuth-steps", type=int, default=1024)
    p.add_argument("--rings", type=int, default=16)
    p.add_argument("--ring-lo", type=float, default=-15.0)
    p.add_argument("--ring-hi", type=float, default=5.0)
    p.add_argument("--max-range", type=float, default=80.0)
    p.add_argument("--noise-sigma", type=float, default=0.01)
    _add_common_out(p)
    p.set_defaults(func=cmd_simulate)
    commands["simulate"] = p

    p = sub.add_parser("distill", help="select registration pairs by distance and overlap")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--dataset-b", default=None)
    p.add_argument("--d1", type=float, default=0.0)
    p.add_argument("--d2", type=float, default=1e9)
    p.add_argument("--max-overlap", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--require-nonempty", action="store_true")
    _add_common_out(p)
    p.set_defaults(func=cmd_distill)
    commands["distill"] = p

    p = sub.add_parser("train", help="train the feature encoder")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--dataset-b", default=None)
    p.add_argument("--pairs", default=None, help="pairs file from `distill`")
    p.add_argument("--log", default=None, help="training log output path")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda1", type=float, default=1.0)
    p.add_argument("--lambda2", type=float, default=0.1)
    p.add_argument("--m-pos", type=float, default=0.1)
    p.add_argument("--m-neg", type=float, default=1.4)
    p.add_argument("--phi", type=int, default=4)
    p.add_argument("--psi", type=int, default=3)
    p.add_argument("--alpha", type=float, default=10.0)
    p.add_argument("--scope-radius", type=float, default=50.0)
    p.add_argument("--voxel-size", type=float, default=0.3)
    p.add_argument("--input-voxel-size", type=float, default=0.0)
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--feature-dim", type=int, default=32)
    p.add_argument("--decoder-hidden", default="512,256",
                   help="hidden widths of the asymmetric decoder; the symmetric "
                        "decoder mirrors the encoder's widths and ignores this")
    p.add_argument("--decoder-variant", choices=["asymmetric", "symmetric"], default="asymmetric")
    p.add_argument("--n-disturb", type=int, default=0)
    p.add_argument("--curriculum", action="store_true")
    p.add_argument("--curriculum-d2", type=float, default=20.0)
    p.add_argument("--max-overlap", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.5)
    _add_common_out(p)
    p.set_defaults(func=cmd_train)
    commands["train"] = p

    p = sub.add_parser("evaluate", help="register pairs and report metrics")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--dataset", required=True)
    p.add_argument("--dataset-b", default=None)
    p.add_argument("--pairs", required=True)
    p.add_argument("--criterion", choices=[c.name for c in register.CRITERIA], default="normal")
    p.add_argument("--ransac-iterations", type=int, default=50_000)
    p.add_argument("--inlier-threshold", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input-voxel-size", type=float, default=0.0)
    p.add_argument("--bins", default=None, help="e.g. 5:20,20:35 — recall per distance bin")
    p.add_argument("--density-ratios", default=None, help="e.g. 0.1,0.2,0.5,1")
    p.add_argument("--oracle-gt", action="store_true",
                   help="score the ground-truth transform instead of registering")
    _add_common_out(p)
    p.set_defaults(func=cmd_evaluate)
    commands["evaluate"] = p

    return parser, commands


def load_config_file(path) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise CliIOError(f"config file not found: {path}")
    values = {}
    for lineno, line in enumerate(dataio.read_text(p).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise MalformedFile(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_config(parser, sub, argv, args):
    """Apply config-file values beneath the flags by resetting subparser
    defaults and re-parsing."""
    file_vals = load_config_file(args.config)
    known = {}
    for action in sub._actions:
        if action.dest in ("help", "config", "func"):
            continue
        known[action.dest] = action
    unknown = sorted(set(file_vals) - set(known))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    converted = {key: _config_value(args.config, key, raw, known[key])
                 for key, raw in file_vals.items()}
    sub.set_defaults(**converted)
    return parser.parse_args(argv)


def _config_value(path, key: str, raw: str, action):
    """One config-file value, converted and checked as its flag would be."""
    if isinstance(action, argparse._StoreTrueAction):
        if raw.lower() in _TRUE + _FALSE:
            return raw.lower() in _TRUE
    else:
        try:
            value = raw if action.type is None else action.type(raw)
        except ValueError:
            pass
        else:
            if action.choices is None or value in action.choices:
                return value
    raise UsageError(f"{path}: bad value for {key}: {raw!r}")


@contextmanager
def _usage_errors():
    """Report a ValueError raised while building a run's configuration as a
    UsageError. Used before any data is loaded."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _check_input(path, what="input") -> Path:
    p = Path(path)
    if not p.exists():
        raise CliIOError(f"{what} not found: {path}")
    return p


def _check_output_file(path, force: bool) -> Path:
    p = Path(path)
    if p.exists() and not force:
        raise CliIOError(f"refusing to overwrite {path} (use --force)")
    if p.parent and not p.parent.exists():
        raise CliIOError(f"output directory does not exist: {p.parent}")
    return p


def _atomic_replace(write_fn, final_path: Path) -> None:
    tmp = final_path.with_name(final_path.name + f".tmp{os.getpid()}")
    try:
        write_fn(tmp)
        os.replace(tmp, final_path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _load_datasets(args) -> tuple[dataio.FrameSequence, dataio.FrameSequence]:
    """``--dataset`` and ``--dataset-b``; the second is the first when unset."""
    seq_a = dataio.load_dataset(_check_input(args.dataset, "dataset"))
    if args.dataset_b is None:
        return seq_a, seq_a
    return seq_a, dataio.load_dataset(_check_input(args.dataset_b, "dataset-b"))


def _read_pairs(args, seq_a, seq_b) -> list[dataio.PairRecord]:
    """``--pairs``, each pair naming a frame of ``seq_a`` and one of ``seq_b``;
    a file with no pairs raises NoPairs."""
    path = _check_input(args.pairs, "pairs file")
    records = dataio.read_pairs_file(path)
    if not records:
        raise NoPairs("pairs file is empty")
    datasets = ((args.dataset, {f.index for f in seq_a}),
                (args.dataset_b or args.dataset, {f.index for f in seq_b}))
    for r in records:
        for index, (dataset, indices) in zip((r.i, r.j), datasets):
            if index not in indices:
                raise MalformedFile(f"{path}: pair {r.i},{r.j} names frame {index}, "
                                    f"which dataset {dataset} lacks")
    return records


def _parse_list(flag: str, text: str, item) -> list:
    """Comma-separated values of one flag, each converted by ``item``."""
    try:
        return [item(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _parse_bin(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"expected lo:hi, got {text.strip()!r}")
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    with _usage_errors():
        world = simulate.simulate_world(args.seed, args.extent, args.obstacles)
        if args.rings < 1:
            raise ValueError(f"--rings must be >= 1, got {args.rings}")
        lidar = simulate.LidarConfig(
            azimuth_steps=args.azimuth_steps,
            elevation_angles=tuple(np.linspace(args.ring_lo, args.ring_hi, args.rings)),
            max_range=args.max_range,
            range_noise_sigma=args.noise_sigma,
        )
        trajectory = simulate.line_trajectory(
            (args.start_x, args.start_y), args.heading, args.spacing, args.frames, args.height)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise CliIOError(f"refusing to overwrite non-empty {out} (use --force)")
    seq = simulate.simulate_sequence(world, trajectory, lidar, seed=args.seed)
    meta = {
        "seed": args.seed, "extent": args.extent, "n_obstacles": args.obstacles,
        "lidar": dataclasses.asdict(lidar),
        "trajectory": {
            "kind": "line", "start_x": args.start_x, "start_y": args.start_y,
            "heading_deg": args.heading, "spacing": args.spacing,
            "frames": args.frames, "height": args.height,
        },
    }
    dataio.save_dataset(out, seq, meta)
    print(f"simulate: wrote {len(seq)} frames to {out}")
    return EXIT_OK


def cmd_distill(args) -> int:
    with _usage_errors():
        spec = dataio.PairSpec(args.d1, args.d2, args.max_overlap)
        if not args.tau > 0:
            raise ValueError("--tau must be positive")
    seq_a, seq_b = _load_datasets(args)
    out = _check_output_file(args.out, args.force)
    records = dataio.distill_records(seq_a, seq_b, spec, args.tau)
    if not records and args.require_nonempty:
        raise EmptyResultGuard("distillation produced zero pairs")
    _atomic_replace(lambda tmp: dataio.write_pairs_file(tmp, records), out)
    print(f"distill: {len(records)} pairs -> {out}")
    return EXIT_OK


def _train_config(args) -> pipeline.TrainConfig:
    with _usage_errors():
        decoder_hidden = tuple(_parse_list("--decoder-hidden", args.decoder_hidden, int))
        return pipeline.TrainConfig(
            epochs=args.epochs,
            learning_rate=args.lr,
            momentum=args.momentum,
            seed=args.seed,
            input_voxel_size=args.input_voxel_size,
            model=mdl.ModelConfig(
                k=args.k, l=args.feature_dim, phi=args.phi,
                decoder_variant=args.decoder_variant, decoder_hidden=decoder_hidden,
            ),
            apg=ApgConfig(psi=args.psi, alpha=args.alpha,
                          scope_radius=args.scope_radius, voxel_size=args.voxel_size),
            loss=LossConfig(lambda1=args.lambda1, lambda2=args.lambda2,
                            m_p=args.m_pos, m_n=args.m_neg),
            n_disturb=args.n_disturb,
        )


def cmd_train(args) -> int:
    cfg = _train_config(args)
    if args.curriculum and args.pairs:
        raise UsageError("--pairs cannot be combined with --curriculum (it distills its own)")
    if args.curriculum:
        with _usage_errors():
            spec = pipeline.CurriculumSpec(
                d2=args.curriculum_d2, overlap_max=args.max_overlap, tau=args.tau)
    elif not args.pairs:
        raise UsageError("--pairs is required unless --curriculum is set")
    seq_a, seq_b = _load_datasets(args)
    out = _check_output_file(args.out, args.force)
    log_path = _check_output_file(args.log, args.force) if args.log else None

    if args.curriculum:
        enc, dec, logs = pipeline.train_curriculum(seq_a, seq_b, cfg, spec)
        steps = (s for lg in logs for s in lg.steps)  # each phase counts from 0
        log = pipeline.TrainLog(
            steps=[dataclasses.replace(s, step=n) for n, s in enumerate(steps)],
            epochs=[e for lg in logs for e in lg.epochs],
        )
    else:
        records = _read_pairs(args, seq_a, seq_b)
        enc, dec, log = pipeline.train(seq_a, seq_b, [(r.i, r.j) for r in records], cfg)

    _atomic_replace(lambda tmp: mdl.save_checkpoint(tmp, enc, dec), out)
    if log_path:
        _atomic_replace(lambda tmp: pipeline.write_train_log(tmp, log), log_path)
    final = log.steps[-1].total if log.steps else float("nan")
    print(f"train: {len(log.steps)} steps, final loss {final:.6f} -> {out}")
    return EXIT_OK


def _print_summary(records: list[register.PairResult]) -> None:
    summary = register.summarize_results(records)
    print(f"pairs evaluated: {summary['n_pairs']}")
    print("criterion thresholds: " + " / ".join(
        f"{c.name} ({c.max_rre:g},{c.max_rte:g})" for c in register.CRITERIA))
    print("criterion,rr,mean_rre_success,mean_rte_success,mean_rre_all,mean_rte_all")
    for c in register.CRITERIA:
        e = summary[c.name]
        print(
            f"{c.name},{e['rr']:.4f},{e['mean_rre_success']:.4f},"
            f"{e['mean_rte_success']:.4f},{e['mean_rre_all']:.4f},{e['mean_rte_all']:.4f}"
        )


def _oracle_records(seq_a, seq_b, pairs) -> list[register.PairResult]:
    """Score the ground-truth transform itself: full recall by construction."""
    out = []
    for r in pairs:
        gt = pipeline.relative_gt(seq_a[seq_a.position_of(r.i)], seq_b[seq_b.position_of(r.j)])
        out.append(register.evaluate(gt, gt, pair=r))
    return out


def cmd_evaluate(args) -> int:
    if args.density_ratios and (args.bins or args.oracle_gt):
        raise UsageError("--density-ratios cannot be combined with --bins or --oracle-gt")
    if not args.oracle_gt and not args.checkpoint:
        raise UsageError("--checkpoint is required unless --oracle-gt is set")
    with _usage_errors():
        if not 0 <= args.input_voxel_size < np.inf:
            raise ValueError("--input-voxel-size must be >= 0 and finite")
        ransac = register.RansacConfig(iterations=args.ransac_iterations,
                                       inlier_threshold=args.inlier_threshold, seed=args.seed)
        bins = ratios = None
        if args.bins:
            bins = pipeline.check_distance_bins(_parse_list("--bins", args.bins, _parse_bin))
        if args.density_ratios:
            ratios = pipeline.check_density_ratios(
                _parse_list("--density-ratios", args.density_ratios, float))
    criterion = register.criterion_by_name(args.criterion)
    seq_a, seq_b = _load_datasets(args)
    pairs = _read_pairs(args, seq_a, seq_b)
    enc = None
    if not args.oracle_gt:
        enc, _ = mdl.load_checkpoint(_check_input(args.checkpoint, "checkpoint"))
    out = Path(args.out)

    if ratios is not None:  # writes only the arm files, in out's directory
        arm_paths = {r: _check_output_file(out.with_name(f"{out.stem}.r{r:g}{out.suffix}"),
                                           args.force) for r in ratios}
        print("density protocol: ratio,rr,n_pairs")
        arms = pipeline.eval_density(enc, seq_a, seq_b, pairs, ratios, ransac,
                                     args.seed, args.input_voxel_size)
        for ratio, records in arms.items():
            _atomic_replace(lambda tmp, rec=records: register.write_results(tmp, rec),
                            arm_paths[ratio])
            rr = register.registration_recall(records, criterion)
            print(f"{ratio:g},{rr:.4f},{len(records)}")
        return EXIT_OK

    _check_output_file(out, args.force)
    if args.oracle_gt:
        records = _oracle_records(seq_a, seq_b, pairs)
    else:
        records = pipeline.evaluate_pairs(seq_a, seq_b, pairs, enc, ransac, args.input_voxel_size)
    _atomic_replace(lambda tmp: register.write_results(tmp, records), out)
    _print_summary(records)

    if bins is not None:
        print("bin_lo,bin_hi,rr,n_pairs")
        for (lo, hi), entry in pipeline.eval_distance_bins(records, bins, criterion).items():
            rr = "" if entry["rr"] is None else f"{entry['rr']:.4f}"
            print(f"{lo:g},{hi:g},{rr},{entry['n_pairs']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            try:
                args = _merge_config(parser, commands[args.command], argv, args)
            except SystemExit as exc:
                return int(exc.code or 0)
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DistregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
