"""Desk-scale experiment machinery shared by the CLI and the acceptance
suite: the default synthetic benchmark, ablation-arm runs on stacks of
(train, test) splits (one run being a stack of one), noise sweeps, and
quality reports."""

import pickle
from functools import partial

import numpy as np

from . import data, forks, inference, metrics, training

LABEL_NOISE_FRACTIONS = (0.0, 0.2, 0.5, 0.7, 1.0)
DATA_NOISE_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.5)
DEFAULT_DATA_NOISE_SEVERITY = 2.0
NOISE_KINDS = ("semantic", "binary", "data")


def make_benchmark_data(seed):
    """Clean train/test pair drawn from one cluster layout: 120 samples per
    cluster of 8 features, 3 spoof types, cluster overlap 1.5."""
    ds = data.generate_synthetic(n_per_class=120, D=8, categories={"spoof_type": 3}, cluster_overlap=1.5, seed=seed)
    return data.split_dataset(ds, test_fraction=0.5, seed=seed)


def apply_noise_kind(train, test, kind, fraction, seed):
    """Route one noise kind to the split the mechanism targets: label
    noise pollutes training labels, data noise (at the default severity)
    pollutes both splits."""
    if kind == "semantic":
        return data.inject_semantic_label_noise(train, fraction, seed), test
    if kind == "binary":
        return data.inject_binary_label_noise(train, fraction, seed), test
    if kind == "data":
        return (
            data.inject_data_noise(train, fraction, DEFAULT_DATA_NOISE_SEVERITY, seed),
            data.inject_data_noise(test, fraction, DEFAULT_DATA_NOISE_SEVERITY, seed + 1),
        )
    raise data.DataError(f"unknown noise kind {kind!r}")


def run_arms(splits, arms, configs, threshold=0.5):
    """Train the ablation arms on a stack of (train, test) splits, one per
    config (see training.train_arms), and evaluate each replica on its test
    split. Yields (arm, arm configs, (S, P) params, one EvalReport per
    replica) in ``arms`` order. The DQ arm uses stage-2 training and
    corrected inference.

    The stage-1 groups (see stage1_groups) train side by side in this
    process and a forked child (see _map_groups), each arm ending on the
    bytes it reaches alone. If an arm diverges, the arms before it are
    yielded and then its TrainingDiverged is raised: the error one arm after
    another would meet first."""
    results = _map_groups(partial(_train_groups, splits, configs, threshold), stage1_groups(arms, configs))
    for arm in arms:
        if isinstance(results[arm], training.TrainingDiverged):
            raise results[arm]
        yield results[arm]


def stage1_groups(arms, configs):
    """``arms`` split by the stage-1 run they share (training.stage1_key),
    each group in ``arms`` order, the groups in the order of their first
    arm."""
    groups = {}
    for arm in arms:
        key = training.stage1_key([training.arm_config(arm, cfg) for cfg in configs])
        groups.setdefault(key, []).append(arm)
    return list(groups.values())


def _train_groups(splits, configs, threshold, groups):
    """The run_arms results of each group's arms, by arm, up to the arm of a
    group that diverges, which maps to its TrainingDiverged. The groups'
    stage-1 runs share one shuffle plan (see training.run_stage)."""
    trains, plan, results = [train for train, _ in splits], {} if len(groups) > 1 else None, {}
    for group in groups:
        try:
            for arm, arm_cfgs, params, _ in training.train_arms(trains, group, configs, keep_logs=False, plan=plan):
                reports = [_evaluate(params.replica(r), test, cfg, threshold)
                           for r, ((_, test), cfg) in enumerate(zip(splits, arm_cfgs))]
                results[arm] = (arm, arm_cfgs, params, reports)
        except training.TrainingDiverged as exc:
            results[next(arm for arm in group if arm not in results)] = exc
    return results


def _map_groups(train_groups, groups):
    """train_groups of the groups. With two or more groups and a second CPU,
    this process trains the first group, the LQ groups first (they draw noise
    and hold the DQ arm's stage 2, so take longest), while a forked child
    (forks.child) trains the rest and sends them back pickled. If there is no
    child, or it fails, this process trains the child's groups too."""
    if len(groups) < 2 or not forks.can_fork():
        return train_groups(groups)
    first, *rest = sorted(groups, key=lambda group: group[0] not in training.LQ_ARMS)
    with forks.child(lambda out: out.write(pickle.dumps(train_groups(rest)))) as child:
        results = train_groups([first])
        if child is not None:
            sent = child.pipe.read()
            if child.succeeded():
                return {**results, **pickle.loads(sent)}
    return {**results, **train_groups(rest)}


def _evaluate(params, test, cfg, threshold):
    probs, _ = inference.predict_batch(params, test.X(), corrected=cfg.enable_dq)
    return metrics.evaluate(probs[:, 1], test.c_labels(), threshold, include_roc=False)


# ---------------------------------------------------------------------------
# noise sweep
# ---------------------------------------------------------------------------

def noise_sweep(kinds, fractions_by_kind, arms, seeds, base_config=None, threshold=0.5):
    """Returns the raw rows [(kind, fraction, arm, seed, acer, apcer, bpcer)]
    in kinds, fractions, arms, seeds order; sweep_rows_to_csv adds mean/std rows.

    Each cell's seeds train as one stacked model per arm (see run_arms),
    and arms that share a stage-1 configuration (``s-lq`` and ``s-lq-dq``
    differ only in stage 2) share one stage-1 run per cell, each arm's
    stage 2 starting from a copy of it (see training.train_arms), the
    cell's stage-1 groups training side by side in two processes. Stage
    1 reads nothing that tells the two apart, so every row keeps the bytes
    of a run trained alone. If a run diverges, the TrainingDiverged raised is
    the one of the first arm, and within it the first seed in ``seeds``
    order, that diverges: the error one run after another would meet first.
    """
    base = base_config or training.TrainConfig()
    arms = training.ARMS if arms is None else arms
    configs = [training.TrainConfig.from_dict({**base.to_dict(), "seed": seed}) for seed in seeds]
    rows = []
    for kind in kinds:
        for fraction in fractions_by_kind[kind]:
            splits = [apply_noise_kind(*make_benchmark_data(seed), kind, fraction, seed) for seed in seeds]
            for arm, arm_cfgs, _, reports in run_arms(splits, arms, configs, threshold):
                for cfg, report in zip(arm_cfgs, reports):
                    rows.append((kind, fraction, arm, cfg.seed, report.acer, report.apcer, report.bpcer))
    return rows


def sweep_rows_to_csv(rows, path):
    """Raw per-seed rows followed by per-cell mean and std rows."""
    cells = {}
    for kind, fraction, arm, seed, acer_v, apcer_v, bpcer_v in rows:
        cells.setdefault((kind, fraction, arm), []).append((seed, acer_v, apcer_v, bpcer_v))
    lines = ["noise_kind,fraction,arm,seed,acer,apcer,bpcer"]
    for key in sorted(cells):
        kind, fraction, arm = key
        entries = sorted(cells[key])
        for seed, acer_v, apcer_v, bpcer_v in entries:
            lines.append(
                f"{kind},{format(fraction, '.17g')},{arm},{seed},"
                f"{format(acer_v, '.17g')},{format(apcer_v, '.17g')},{format(bpcer_v, '.17g')}"
            )
        vals = np.array([[e[1], e[2], e[3]] for e in entries])
        for stat_name, stat in (("mean", vals.mean(axis=0)), ("std", vals.std(axis=0))):
            lines.append(
                f"{kind},{format(fraction, '.17g')},{arm},{stat_name},"
                + ",".join(format(v, ".17g") for v in stat)
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# quality report
# ---------------------------------------------------------------------------

QUALITY_BINS = 20
QUALITY_COLUMNS = "id,sigma_d_sq,data_corrupted,corruption_severity\n"
QUALITY_ROW = "%d,%.17g,%d,%.17g\n"


def quality_report(params, ds):
    """(columns, hist, summary): the four columns of quality.csv (id, sigma_D^2 and
    corruption provenance, for data.write_table with QUALITY_ROW), the text of a QUALITY_BINS-bin
    histogram comparing corrupted vs clean distributions, and a summary dict."""
    if len(ds) == 0:
        raise data.DataError("cannot build a quality report for an empty dataset")
    s2 = inference.rows_quality(params, ds.X())
    corrupted = ds.flag_mask("data_corrupted")

    lo, hi = float(s2.min()), float(s2.max())
    if hi == lo:
        hi = lo + 1e-12
    edges = np.linspace(lo, hi, QUALITY_BINS + 1)
    hist_corrupt, _ = np.histogram(s2[corrupted], bins=edges)
    hist_clean, _ = np.histogram(s2[~corrupted], bins=edges)

    hist_lines = ["bin_lo,bin_hi,count_clean,count_corrupted"]
    for b in range(QUALITY_BINS):
        hist_lines.append(
            f"{format(edges[b], '.17g')},{format(edges[b + 1], '.17g')},"
            f"{int(hist_clean[b])},{int(hist_corrupt[b])}"
        )
    summary = {
        "n": len(ds),
        "n_corrupted": int(corrupted.sum()),
        "mean_quality_clean": float(s2[~corrupted].mean()) if (~corrupted).any() else None,
        "mean_quality_corrupted": float(s2[corrupted].mean()) if corrupted.any() else None,
    }
    return [np.arange(len(ds)), s2, corrupted, ds.corruption_severity], "\n".join(hist_lines) + "\n", summary
