"""The table writers (dataset, prediction dump, quality.csv) format rows in
fixed blocks: their bytes must equal the whole-file %-format they replaced,
on both sides of every block boundary, and writing must hold one block's
text, not the whole file's."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import reference_load_dataset, reference_load_predictions
from probfas import cli, data, experiments, inference, metrics, model, training

D = 8
BLOCK = 4096  # the writers' rows per block
SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)


def one_format(head, row_fmt, cells):
    """The whole-file expression the writers used: one %-format over every row."""
    return (head + row_fmt * len(cells) % tuple(cells.ravel().tolist())).encode("utf-8")


def dataset_text(ds):
    names = list(ds.categories)
    cats = ",".join(f"{n}:{ds.categories[n]}" for n in names)
    columns = ",".join(["id", *(f"x{i}" for i in range(D)), "c", *(f"s:{n}" for n in names), "flags", "severity"])
    bits = 100 * ds.label_flipped + 10 * ds.semantic_reassigned + 1 * ds.data_corrupted
    cells = np.column_stack(
        [np.arange(len(ds)), ds.x, ds.c, *(ds.s[n] for n in names), bits, ds.corruption_severity]
    )
    return one_format(f"#probfas-dataset v1\n#D={D} seed={ds.seed_provenance} categories={cats}\n{columns}\n",
                      "%d" + ",%.17g" * D + ",%d" * (1 + len(names)) + ",%03d,%.17g\n", cells)


def predictions_text(probs, s2, corrected):
    n = len(probs)
    cells = np.column_stack([np.arange(n), probs[:, 1], np.argmax(probs, axis=1), s2, np.full(n, int(corrected))])
    return one_format("id,p_live,predicted,quality,corrected\n", "%d,%.17g,%d,%.17g,%d\n", cells)


def quality_text(params, ds):
    s2 = inference.data_quality(params, model.embed(params, ds.X()))
    cells = np.column_stack([np.arange(len(ds)), s2, ds.data_corrupted, ds.corruption_severity])
    return one_format("id,sigma_d_sq,data_corrupted,corruption_severity\n", "%d,%.17g,%d,%.17g\n", cells)


def random_dataset(n):
    """n rows whose every column varies: features over many magnitudes, two
    categories, every flag and some severities set."""
    rng = np.random.default_rng(n)
    return data.Dataset(
        x=rng.standard_normal((n, D)) * 10.0 ** rng.integers(-6, 6, (n, D)),
        c=rng.integers(0, 2, n), s={"spoof_type": rng.integers(0, 3, n), "light": rng.integers(0, 4, n)},
        categories={"spoof_type": 3, "light": 4}, seed_provenance=n,
        **{name: rng.random(n) < 0.3 for name in data.FLAGS},
        corruption_severity=np.where(rng.random(n) < 0.3, rng.random(n) * 3.0, 0.0),
    )


@pytest.fixture
def checkpoint(tmp_path):
    """An untrained checkpoint for D features whose sigma_D^2 varies by row."""
    params = model.init_params(D, {"spoof_type": 3}, B=6, hidden=(8,), seed=0)
    params.w_dq[...] = np.random.default_rng(1).standard_normal(params.w_dq.shape) * 0.1
    path = tmp_path / "init.ckpt"
    training.save_checkpoint(path, params)
    return path


@pytest.mark.parametrize("n", SIZES)
class TestBlockBoundaries:
    def test_dataset(self, tmp_path, n):
        ds = random_dataset(n)
        path = tmp_path / "dataset.txt"
        data.save_dataset(ds, path)
        assert path.read_bytes() == dataset_text(ds)
        assert data.load_dataset(path) == ds

    def test_predictions(self, tmp_path, n):
        rng = np.random.default_rng(n)
        p_live = rng.random(n)
        probs, s2 = np.column_stack([1.0 - p_live, p_live]), rng.random(n) * 5.0
        for corrected in (False, True):
            path = tmp_path / f"predictions_{corrected}.csv"
            inference.save_predictions(probs, s2, corrected, path)
            assert path.read_bytes() == predictions_text(probs, s2, corrected)

    def test_quality_csv(self, tmp_path, checkpoint, n):
        ds = random_dataset(n)
        data.save_dataset(ds, tmp_path / "dataset.txt")
        out = tmp_path / "q"
        assert cli.main(["quality-report", "--data", str(tmp_path / "dataset.txt"),
                         "--checkpoint", str(checkpoint), "--out", str(out)]) == 0
        params, _ = training.load_checkpoint(checkpoint)
        assert (out / "quality.csv").read_bytes() == quality_text(params, ds)


def test_save_dataset_holds_one_block_of_text(tmp_path):
    # 40,000 rows: about 32 MB as one whole-file format, about 7 MB in blocks
    ds = data.generate_synthetic(n_per_class=10_000, D=D, categories={"spoof_type": 3},
                                 cluster_overlap=0.0, seed=0)
    tracemalloc.start()
    try:
        data.save_dataset(ds, tmp_path / "dataset.txt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == 40_000 and peak < 12e6, f"save_dataset peaked at {peak / 1e6:.1f} MB"


def test_cli_tables_past_one_block_match_the_reference(tmp_path, checkpoint):
    noise = {"semantic": 0.2, "binary": 0.1, "data": 0.3}
    d, e, q = tmp_path / "d", tmp_path / "e", tmp_path / "q"
    assert cli.main(["gen-data", "--n", "1100", "--seed", "3", "--out", str(d),
                     *(arg for kind, f in noise.items() for arg in (f"--{kind}-noise", str(f)))]) == 0
    dataset = str(d / "dataset.txt")
    assert cli.main(["eval", "--data", dataset, "--checkpoint", str(checkpoint), "--out", str(e)]) == 0
    assert cli.main(["quality-report", "--data", dataset, "--checkpoint", str(checkpoint), "--out", str(q)]) == 0

    # the same pipeline in process
    ds = data.generate_synthetic(n_per_class=1100, D=D, categories={"spoof_type": 3}, cluster_overlap=0.0, seed=3)
    ds = data.inject_semantic_label_noise(ds, noise["semantic"], 3)
    ds = data.inject_binary_label_noise(ds, noise["binary"], 3)
    ds = data.inject_data_noise(ds, noise["data"], experiments.DEFAULT_DATA_NOISE_SEVERITY, 3)
    params, _ = training.load_checkpoint(checkpoint)
    assert len(ds) == 4400 and ds.data_corrupted.any()

    assert reference_load_dataset(d / "dataset.txt") == ds
    assert (d / "dataset.txt").read_bytes() == dataset_text(ds)
    for tag in ("uncorrected", "corrected"):
        probs, s2 = inference.predict_batch(params, ds.X(), corrected=tag == "corrected")
        path = e / f"predictions_{tag}.csv"
        assert len(reference_load_predictions(path)[0]) == 4400
        assert path.read_bytes() == predictions_text(probs, s2, tag == "corrected")
        report = metrics.evaluate(probs[:, 1], ds.c_labels(), 0.5)
        assert (e / f"report_{tag}.json").read_text() == report.to_json() + "\n"
    rows = (q / "quality.csv").read_text().splitlines()[1:]
    assert [int(row.partition(",")[0]) for row in rows] == list(range(4400))
    assert (q / "quality.csv").read_bytes() == quality_text(params, ds)
    _, hist, summary = experiments.quality_report(params, ds)
    assert (q / "quality_hist.csv").read_text() == hist
    assert json.loads((q / "quality_summary.json").read_text()) == summary
