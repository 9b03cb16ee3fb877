"""The table writers (dataset, prediction dump, quality.csv) format rows in
fixed blocks with numpy: their bytes must equal the whole-file %-format they
replaced, on both sides of every block boundary and for every kind of double,
and writing must hold one block's text, not the whole file's."""

import json
import re
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
    # a whole-file format of 40,000 rows took about 32 MB; blocks formatted from the columns
    # hold about 4 MB, whatever the row count
    def peak(n_per_class):
        ds = data.generate_synthetic(n_per_class=n_per_class, D=D, categories={"spoof_type": 3},
                                     cluster_overlap=0.0, seed=0)
        tracemalloc.start()
        try:
            data.save_dataset(ds, tmp_path / "dataset.txt")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(5_000), peak(20_000)  # 20,000 and 80,000 rows
    assert large < 12e6 and large - small < 1e6, f"save_dataset peaked at {small / 1e6:.2f}, then {large / 1e6:.2f} MB"


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


def _powers_of_ten():
    return np.array([float(10**k) if k >= 0 else 10.0**k for k in range(-10, 23)])


def _ulps_around(values, ulps):
    """Each value and its ulps neighbours on both sides."""
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _differential_doubles():
    """About 10**6 doubles: random bit patterns (subnormals, nan and inf among them),
    log-uniform magnitudes of both signs, the neighbourhood of every power of ten and of
    the fast path's edges, signed zeros and integers near 2**53 and 10**17."""
    rng = np.random.default_rng(20260101)
    bits = rng.integers(0, 2**64, 150_000, dtype=np.uint64, endpoint=False).view(np.float64)
    logs = 10.0 ** rng.uniform(-8.0, 20.0, 850_000) * rng.choice([-1.0, 1.0], 850_000)
    edges = _ulps_around(np.concatenate([_powers_of_ten(), [1e-4, 1e16, 2.0**53]]), 3)
    near = np.concatenate([2.0**53 + np.arange(-40.0, 40.0), 1e17 + 16.0 * np.arange(-40.0, 40.0)])
    special = np.array([0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, np.inf, -np.inf, np.nan])
    return np.concatenate([bits, logs, edges, -edges, near, -near, special])


def _repr_doubles():
    """The %.17g doubles, plus what repr's shortest digits meet, of both signs: +-3 ulps
    around 2**-20..2**59 (where the gap below is half the gap above), i/n, decimals rounded
    to 1..17 places, small integers, 10**k and 2**53 +- 50; then +-0, +-inf and nan."""
    rng = np.random.default_rng(20261019)
    fractions = [np.arange(n + 1) / n for n in (3, 7, 2500, 7500, 9999, 10000)]
    decimals = [np.round(10.0 ** rng.uniform(-3.0, 14.0, 4000), places) for places in range(1, 18)]
    ints = [np.arange(1.0, 2000.0), _powers_of_ten()[10:], 2.0**53 + np.arange(-50.0, 51.0)]
    more = np.concatenate([_ulps_around(2.0 ** np.arange(-20, 60), 3), *fractions, *decimals, *ints])
    return np.concatenate([_differential_doubles(), more, -more, [0.0, -0.0, np.inf, -np.inf, np.nan]])


def _first_mismatch(got, want, values):
    """float.hex of the first value whose line differs, or None."""
    if got == want:
        return None
    for value, a, b in zip(values, got.split(b"\n"), want.split(b"\n")):
        if a != b:
            return f"{float(value).hex()}: wrote {a!r}, expected {b!r}"
    return "the files differ in length"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_g_format_matches_percent_on_a_million_doubles(tmp_path):
    values = _differential_doubles()
    assert len(values) >= 10**6
    path = tmp_path / "g.csv"
    data.write_table(path, "", "%.17g\n", [values])
    want = "".join("%.17g\n" % v for v in values.tolist()).encode()
    assert _first_mismatch(path.read_bytes(), want, values) is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_r_format_matches_json_dumps_on_a_million_doubles(tmp_path):
    values = _repr_doubles()
    assert len(values) >= 10**6
    path = tmp_path / "r.csv"
    data.write_table(path, "", "%r\n", [values])
    want = (json.dumps(values.tolist())[1:-1].replace(", ", "\n") + "\n").encode()
    assert _first_mismatch(path.read_bytes(), want, values) is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field", ["%d", "%03d"])
def test_d_formats_match_percent(tmp_path, field):
    powers = 10.0 ** np.arange(16)
    ints = np.concatenate([[0.0, 9.0], powers, powers - 1, powers + 1, np.arange(112.0),
                           [2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e17, 1e20, 1e300]])
    # non-integral cells go through % as well; a 1e300 widens every slot of its block
    values = np.concatenate([ints, -ints, [0.5, 2.5, -2.5, 99.9, -0.0]])
    path = tmp_path / "d.csv"
    data.write_table(path, "", f"{field},%d\n", [values, values[::-1]])
    want = "".join(f"{field},%d\n" % row for row in zip(values.tolist(), values[::-1].tolist())).encode()
    assert _first_mismatch(path.read_bytes(), want, values) is None


def test_slots_widened_after_columns_are_written_keep_them(tmp_path):
    # a %d text longer than the slots widens them when the block meets it: at the third
    # column of the first block, then at the second column of the second
    n = BLOCK + 3
    g, d1, d2 = np.linspace(-2.0, 3.0, n), np.arange(float(n)), np.arange(float(n))
    d2[5], d1[-1] = 1e200, -1e300
    path = tmp_path / "wide.csv"
    data.write_table(path, "", "%.17g,%d,%d\n", [g, d1, d2])
    want = "".join("%.17g,%d,%d\n" % row for row in zip(g.tolist(), d1.tolist(), d2.tolist())).encode()
    assert _first_mismatch(path.read_bytes(), want, g) is None


def test_non_ascii_category_name_keeps_its_utf8_bytes(tmp_path):
    ds = data.generate_synthetic(n_per_class=3, D=2, categories={"spöof_typé": 2, "光": 3},
                                 cluster_overlap=0.0, seed=0)
    path = tmp_path / "dataset.txt"
    data.save_dataset(ds, path)
    assert path.read_bytes().split(b"\n")[1] == "#D=2 seed=0 categories=spöof_typé:2,光:3".encode("utf-8")
    assert data.load_dataset(path) == ds


def test_a_short_wide_table_holds_a_buffer_of_its_rows(tmp_path):
    # gen-data --n 3 --dim 100000 --spoof-types 2 asked for a 4096-row buffer of 100,005
    # fields, 9.54 GiB for 9 rows; here a full block's buffer would take 41 MB
    columns = [np.linspace(-1.0, 1.0, 3) * k for k in range(400)]
    path = tmp_path / "wide.csv"
    tracemalloc.start()
    try:
        data.write_table(path, "", ",".join(["%.17g"] * 400) + "\n", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"write_table peaked at {peak / 1e6:.2f} MB"
    assert path.read_bytes() == one_format("", ",".join(["%.17g"] * 400) + "\n", np.column_stack(columns))


def test_empty_table_writes_only_its_head(tmp_path):
    path = tmp_path / "empty.csv"
    data.write_table(path, "id,v\n", "%d,%.17g\n", [np.zeros(0), np.zeros(0)])
    assert path.read_bytes() == b"id,v\n"


@pytest.mark.parametrize("row_fmt, named", [
    ("%d,%.6f\n", "'%.6f'"), ("%d,%s\n", "'%s'"), ("%d;%d\n", "'%d;%d'"), ("%d,%d", "no newline"),
    ("[%r,%s],", "'%s'"), ("[%r,%r]\n", "'[%r'"),
])
def test_unknown_field_is_refused(tmp_path, row_fmt, named):
    with pytest.raises(ValueError, match=f"cannot format .*{re.escape(named)}"):
        data.write_table(tmp_path / "t.csv", "", row_fmt, [np.zeros(2), np.zeros(2)])
