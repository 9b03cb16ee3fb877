"""Experiment runner CLI.

Subcommands: gen-data, train, eval, noise-sweep, quality-report.
Exit codes: 0 success, 1 usage error, 2 data/config error, 3 training
divergence. ``PROBFAS_OUT_ROOT`` provides the default output root when
--out is omitted.
"""

import argparse
import contextlib
import json
import os
import sys
import tempfile

import numpy as np

from . import data, experiments, inference, metrics, training

DATASET_FILENAME = "dataset.txt"
CHECKPOINT_FILENAME = "checkpoint.ckpt"
TRAINLOG_FILENAME = "trainlog.jsonl"
MANIFEST_FILENAME = "manifest.json"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_seeds(text):
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise _UsageError(f"bad --seeds range {text!r}")
        if hi_i < lo_i:
            raise _UsageError(f"empty --seeds range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return _parse_list(text, int, "--seeds")


def _parse_list(text, typ, flag):
    try:
        values = [typ(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"bad {flag} list {text!r}")
    if not values:
        raise _UsageError(f"empty {flag} list {text!r}")
    return values


def _resolve_out(out, command):
    if out is None:
        root = os.environ.get("PROBFAS_OUT_ROOT")
        if root is None:
            raise _UsageError("--out is required (or set PROBFAS_OUT_ROOT)")
        out = os.path.join(root, command)
    return out


@contextlib.contextmanager
def _published(out, doc):
    """The one path into out, entered once the command's inputs have passed
    their checks. Makes out, checks its manifest, so a conflicting rerun
    fails with the first run's outputs untouched, and yields a staging
    directory inside out. When the block ends, unless a directory in out
    bears a staged name (a DataError naming it), every staged file and then
    the manifest is renamed into out. On any failure the staging directory
    and every directory the command made are removed, deepest first, each
    only while empty; an OSError becomes a DataError naming out."""
    made, path = [], os.path.abspath(out)
    while not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    manifest, text = os.path.join(out, MANIFEST_FILENAME), json.dumps(doc, sort_keys=True, indent=2) + "\n"
    try:
        os.makedirs(out, exist_ok=True)
        if os.path.exists(manifest):  # manifests are immutable
            try:
                with open(manifest, encoding="utf-8") as fh:
                    if fh.read() != text:
                        raise data.DataError(f"{manifest}: manifest exists with different content")
            except OSError as exc:
                raise data.DataError(f"{manifest}: cannot read manifest: {exc.strerror or exc}") from exc
            except UnicodeDecodeError as exc:
                raise data.DataError(f"{manifest}: manifest is not UTF-8 text ({exc.reason})") from exc
        with tempfile.TemporaryDirectory(prefix=".partial-", dir=out) as stage:
            yield stage
            _write_text(os.path.join(stage, MANIFEST_FILENAME), text)
            names = sorted(os.listdir(stage), key=MANIFEST_FILENAME.__eq__)
            for name in names:  # checked first: a rename that fails part way leaves the others in out
                target = os.path.join(out, name)
                if os.path.isdir(target) and not os.path.islink(target):
                    raise data.DataError(f"cannot write {target}: Is a directory")
            for name in names:
                os.replace(os.path.join(stage, name), os.path.join(out, name))
    except BaseException as exc:
        for made_dir in made:
            with contextlib.suppress(OSError):
                os.rmdir(made_dir)
        if isinstance(exc, OSError):
            raise data.DataError(f"cannot write {out}: {exc.strerror or exc}") from exc
        raise


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_config(path, seed=None):
    cfg = training.load_config(path) if path else training.TrainConfig()
    if seed is not None:
        cfg.seed = seed
    return cfg


def _load_scored(args):
    """The dataset and checkpoint params of eval and quality-report, of one feature width."""
    ds = data.load_dataset(args.data)
    params, _ = training.load_checkpoint(args.checkpoint)
    if ds.feature_dim != params.D:
        raise data.DataError(f"{args.data} has {ds.feature_dim} features, "
                             f"but {args.checkpoint} was trained on {params.D}")
    return ds, params


@contextlib.contextmanager
def _quality_of(checkpoint):
    """Names the checkpoint in a sigma_D^2 error of the block, raised before it writes."""
    try:
        yield
    except inference.QualityError as exc:
        raise training.CheckpointError(f"{checkpoint}: {exc}") from None


def build_parser():
    parser = _Parser(prog="probfas", description="Noise-robust probabilistic classification experiments")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset, optionally with injected noise")
    p.add_argument("--n", type=int, required=True, help="samples per cluster")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--spoof-types", type=int, default=3)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--semantic-noise", type=float, default=0.0)
    p.add_argument("--binary-noise", type=float, default=0.0)
    p.add_argument("--data-noise", type=float, default=0.0)
    p.add_argument("--severity", type=float, default=experiments.DEFAULT_DATA_NOISE_SEVERITY)
    p.add_argument("--out")

    p = sub.add_parser("train", help="train one ablation arm")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--arm", choices=training.ARMS, default="s-lq-dq")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--corrected", action="store_true")
    mode.add_argument("--uncorrected", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("noise-sweep", help="noise-robustness sweep over arms and seeds")
    p.add_argument("--noise-kind", choices=experiments.NOISE_KINDS, action="append")
    p.add_argument("--fractions", type=lambda text: _parse_list(text, float, "--fractions"))
    p.add_argument("--arm", choices=training.ARMS, action="append")
    p.add_argument("--seeds", type=_parse_seeds, default=[0, 1, 2, 3, 4])
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("quality-report", help="per-sample data-quality export")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")

    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args):
    out = _resolve_out(args.out, "gen-data")
    doc = {
        "experiment": "gen-data",
        "seed": args.seed,
        "dataset_paths": [DATASET_FILENAME],
        "flags": {
            "n": args.n, "dim": args.dim, "spoof_types": args.spoof_types,
            "overlap": args.overlap, "semantic_noise": args.semantic_noise,
            "binary_noise": args.binary_noise, "data_noise": args.data_noise,
            "severity": args.severity,
        },
    }
    with _published(out, doc) as stage:
        ds = data.generate_synthetic(
            n_per_class=args.n, D=args.dim, categories={"spoof_type": args.spoof_types},
            cluster_overlap=args.overlap, seed=args.seed,
        )
        ds = data.inject_semantic_label_noise(ds, args.semantic_noise, args.seed)
        ds = data.inject_binary_label_noise(ds, args.binary_noise, args.seed)
        ds = data.inject_data_noise(ds, args.data_noise, args.severity, args.seed)
        data.save_dataset(ds, os.path.join(stage, DATASET_FILENAME))
    n_live = int(np.sum(ds.c_labels() == data.LIVE))
    path = os.path.join(out, DATASET_FILENAME)
    print(f"seed={args.seed} n={len(ds)} live={n_live} spoof={len(ds) - n_live} -> {path}")
    return 0


def cmd_train(args):
    out = _resolve_out(args.out, "train")
    ds = data.load_dataset(args.data)
    cfg = _load_config(args.config, args.seed)
    cfg = training.arm_config(args.arm, cfg)
    doc = {
        "experiment": "train",
        "arm": args.arm,
        "config": cfg.to_dict(),
        "dataset_paths": [args.data],
        "flags": {"seed": cfg.seed},
    }
    with _published(out, doc) as stage:
        [(_, _, stack, (log,))] = training.train_arms([ds], [args.arm], [cfg])
        training.save_checkpoint(os.path.join(stage, CHECKPOINT_FILENAME), stack.replica(0), config=cfg)
        training.save_trainlog(log, os.path.join(stage, TRAINLOG_FILENAME))
    print(f"arm={args.arm} seed={cfg.seed} epochs={len(log)} -> {out}")
    return 0


def _eval_mode(probs, s2, ds, corrected, threshold, stage, tag):
    report = metrics.evaluate(probs[:, 1], ds.c_labels(), threshold)
    inference.save_predictions(probs, s2, corrected, os.path.join(stage, f"predictions_{tag}.csv"))
    _write_text(os.path.join(stage, f"report_{tag}.json"), report.to_json() + "\n")
    return report


def cmd_eval(args):
    metrics.check_threshold(args.threshold)
    out = _resolve_out(args.out, "eval")
    ds, params = _load_scored(args)

    modes = [tag for tag in ("uncorrected", "corrected") if getattr(args, tag)] or ["uncorrected", "corrected"]
    doc = {
        "experiment": "eval",
        "dataset_paths": [args.data],
        "checkpoint": args.checkpoint,
        "flags": {"threshold": args.threshold, "modes": modes},
    }
    reports = {}
    with _published(out, doc) as stage:
        with _quality_of(args.checkpoint):
            predictions, s2 = inference.predict_modes(params, ds.X(), [tag == "corrected" for tag in modes])
        for tag, probs in zip(modes, predictions):
            reports[tag] = _eval_mode(probs, s2, ds, tag == "corrected", args.threshold, stage, tag)
        if len(reports) == 2:
            delta = {
                key: getattr(reports["corrected"], key) - getattr(reports["uncorrected"], key)
                for key in ("apcer", "bpcer", "acer", "hter")
            }
            _write_text(os.path.join(stage, "report_delta.json"),
                        json.dumps(delta, sort_keys=True, separators=(",", ":")) + "\n")
    for tag, rep in reports.items():
        print(f"{tag}: apcer={rep.apcer:.4f} bpcer={rep.bpcer:.4f} acer={rep.acer:.4f}")
    return 0


def cmd_noise_sweep(args):
    # a repeated value would train its runs twice into one cell's statistics
    for flag, values in (("--noise-kind", args.noise_kind), ("--fractions", args.fractions),
                         ("--arm", args.arm), ("--seeds", args.seeds)):
        for i, value in enumerate(values or ()):
            if value in values[:i]:
                raise _UsageError(f"{flag} repeats {value}")
    metrics.check_threshold(args.threshold)
    out = _resolve_out(args.out, "noise-sweep")
    kinds = args.noise_kind or ["semantic", "data"]
    arms = args.arm or list(training.ARMS)
    default_fractions = {"data": experiments.DATA_NOISE_FRACTIONS}
    fractions_by_kind = {kind: list(args.fractions or default_fractions.get(kind, experiments.LABEL_NOISE_FRACTIONS))
                         for kind in kinds}
    cfg = _load_config(args.config)
    doc = {
        "experiment": "noise-sweep",
        "config": cfg.to_dict(),
        "seeds": args.seeds,
        "flags": {"kinds": kinds, "arms": arms, "fractions": fractions_by_kind,
                  "threshold": args.threshold},
    }
    with _published(out, doc) as stage:
        rows = experiments.noise_sweep(kinds, fractions_by_kind, arms, args.seeds, cfg, args.threshold)
        experiments.sweep_rows_to_csv(rows, os.path.join(stage, "sweep.csv"))
    print(f"{len(rows)} sweep rows -> {os.path.join(out, 'sweep.csv')}")
    return 0


def cmd_quality_report(args):
    out = _resolve_out(args.out, "quality-report")
    ds, params = _load_scored(args)
    doc = {
        "experiment": "quality-report",
        "dataset_paths": [args.data],
        "checkpoint": args.checkpoint,
        "flags": {},
    }
    with _published(out, doc) as stage:
        with _quality_of(args.checkpoint):
            columns, hist, summary = experiments.quality_report(params, ds)
        data.write_table(os.path.join(stage, "quality.csv"), experiments.QUALITY_COLUMNS,
                         experiments.QUALITY_ROW, columns)
        _write_text(os.path.join(stage, "quality_hist.csv"), hist)
        _write_text(os.path.join(stage, "quality_summary.json"),
                    json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"quality report for {summary['n']} samples -> {out}")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "noise-sweep": cmd_noise_sweep,
    "quality-report": cmd_quality_report,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except MemoryError as exc:  # a size in the input that no memory can hold
        command = next((arg for arg in argv or sys.argv[1:] if arg in _COMMANDS), parser.prog)
        print(f"error: {command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except training.TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except (data.DataError, training.ConfigError, training.CheckpointError,
            metrics.MetricError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
