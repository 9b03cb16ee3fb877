"""Dataset generation, noise injection, and file-format tests."""

import tracemalloc

import numpy as np
import pytest

from conftest import reference_generate_synthetic, reference_load_dataset
from probfas import data


def with_field(src, dst, row, field, value):
    """Copy a dataset file, setting one field of one sample row to value
    (None drops the field)."""
    lines = src.read_text().splitlines()
    parts = lines[3 + row].split(",")
    if value is None:
        del parts[field]
    else:
        parts[field] = value
    lines[3 + row] = ",".join(parts)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def assert_bit_equal(a, b):
    """Datasets equal, with float columns equal bit for bit (-0.0 included)."""
    assert a == b
    for col_a, col_b in ((a.x, b.x), (a.corruption_severity, b.corruption_severity)):
        assert col_a.dtype == col_b.dtype == np.float64
        assert np.array_equal(col_a.view(np.uint64), col_b.view(np.uint64))


def nn1_accuracy(ds):
    """Leave-one-out 1-nearest-neighbor accuracy on the binary label."""
    X = ds.X()
    y = ds.c_labels()
    d = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d, np.inf)
    return float(np.mean(y[np.argmin(d, axis=1)] == y))


class TestGenerate:
    def test_counts_and_labels(self):
        ds = data.generate_synthetic(10, 5, {"spoof_type": 3}, 0.5, seed=1)
        assert len(ds) == 40
        c = ds.c_labels()
        assert int(np.sum(c == data.LIVE)) == 10
        assert int(np.sum(c == data.SPOOF)) == 30
        s = ds.s_labels()
        assert set(s[ds.spoof_mask()].tolist()) == {0, 1, 2}
        # each spoof type appears n_per_class times
        for t in range(3):
            assert int(np.sum(s[ds.spoof_mask()] == t)) == 10

    def test_deterministic(self):
        a = data.generate_synthetic(8, 4, {"spoof_type": 2}, 1.0, seed=5)
        b = data.generate_synthetic(8, 4, {"spoof_type": 2}, 1.0, seed=5)
        assert a == b
        c = data.generate_synthetic(8, 4, {"spoof_type": 2}, 1.0, seed=6)
        assert a != c

    def test_overlap_zero_is_nearly_separable(self):
        ds = data.generate_synthetic(40, 8, {"spoof_type": 3}, 0.0, seed=0)
        assert nn1_accuracy(ds) >= 0.97

    def test_more_overlap_means_less_separable(self):
        easy = data.generate_synthetic(40, 8, {"spoof_type": 3}, 0.0, seed=0)
        hard = data.generate_synthetic(40, 8, {"spoof_type": 3}, 4.0, seed=0)
        assert nn1_accuracy(hard) < nn1_accuracy(easy)

    def test_extra_categories_get_labels(self):
        ds = data.generate_synthetic(6, 4, {"spoof_type": 2, "lighting": 4}, 0.5, seed=2)
        labs = ds.s_labels("lighting")
        assert labs.min() >= 0 and labs.max() < 4

    def test_invalid_configs_rejected(self):
        with pytest.raises(data.DataError):
            data.generate_synthetic(0, 4, {"spoof_type": 2}, 0.5, 0)
        with pytest.raises(data.DataError):
            data.generate_synthetic(5, 1, {"spoof_type": 2}, 0.5, 0)
        with pytest.raises(data.DataError):
            data.generate_synthetic(5, 4, {}, 0.5, 0)
        with pytest.raises(data.DataError):
            data.generate_synthetic(5, 4, {"spoof_type": 1}, 0.5, 0)
        with pytest.raises(data.DataError):
            data.generate_synthetic(5, 4, {"spoof_type": 2}, -0.1, 0)
        with pytest.raises(data.DataError):
            data.generate_synthetic(5, 4, {"spoof_type": 2}, float("nan"), 0)

    @pytest.mark.parametrize("categories", [
        {"spoof_type": 3}, {"spoof_type": 2, "lighting": 4}, {"spoof_type": 4, "a": 2, "b": 3},
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_row_by_row_draws(self, categories, seed):
        for n_per_class, D in ((1, 2), (9, 5)):
            got = data.generate_synthetic(n_per_class, D, categories, 0.7, seed)
            assert_bit_equal(got, reference_generate_synthetic(n_per_class, D, categories, 0.7, seed))

    def test_peak_holds_about_one_feature_array(self):
        # 80,000 rows x 8 features: x is 5.1 MB; adding the centers into the noise in place
        # keeps the peak near it (a gathered centers array and a sum would reach 16 MB)
        tracemalloc.start()
        try:
            ds = data.generate_synthetic(20_000, 8, {"spoof_type": 3}, 0.0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.x.nbytes == 5_120_000 and peak < 9e6, f"generate_synthetic peaked at {peak / 1e6:.1f} MB"

    def test_infinite_overlap_gives_finite_features(self):
        ds = data.generate_synthetic(5, 4, {"spoof_type": 2}, float("inf"), 0)
        assert np.all(np.isfinite(ds.X()))


class TestSplit:
    def test_sizes_and_disjointness(self, tiny_dataset):
        train, test = data.split_dataset(tiny_dataset, 0.25, seed=3)
        assert len(train) + len(test) == len(tiny_dataset)
        assert len(test) == round(0.25 * len(tiny_dataset))
        train_x = {tuple(row) for row in train.X()}
        test_x = {tuple(row) for row in test.X()}
        assert not train_x & test_x

    def test_dense_reindexing(self, tiny_dataset, tmp_path):
        # ids are row indices: each half is written with ids 0..N-1 and
        # keeps the rows in their original order
        train, test = data.split_dataset(tiny_dataset, 0.5, seed=3)
        for half in (train, test):
            path = tmp_path / "half.txt"
            data.save_dataset(half, path)
            ids = [int(ln.split(",")[0]) for ln in path.read_text().splitlines()[3:]]
            assert ids == list(range(len(half)))
            src_rows = [np.flatnonzero((tiny_dataset.X() == row).all(axis=1))[0] for row in half.X()]
            assert src_rows == sorted(src_rows)

    def test_deterministic(self, tiny_dataset):
        a = data.split_dataset(tiny_dataset, 0.5, seed=3)
        b = data.split_dataset(tiny_dataset, 0.5, seed=3)
        assert a[0] == b[0] and a[1] == b[1]

    def test_bad_fraction(self, tiny_dataset):
        for frac in (0.0, 1.0, -0.5):
            with pytest.raises(data.DataError):
                data.split_dataset(tiny_dataset, frac, seed=0)


class TestSemanticNoise:
    def test_count_and_flags(self, tiny_dataset):
        noisy = data.inject_semantic_label_noise(tiny_dataset, 0.5, seed=7)
        n_spoof = int(tiny_dataset.spoof_mask().sum())
        flagged = noisy.flag_mask("semantic_reassigned")
        assert int(flagged.sum()) == round(0.5 * n_spoof)
        # only spoof samples are touched
        assert not np.any(flagged & (noisy.c_labels() == data.LIVE))
        # features and binary labels unchanged
        assert np.array_equal(noisy.X(), tiny_dataset.X())
        assert np.array_equal(noisy.c_labels(), tiny_dataset.c_labels())

    def test_labels_stay_in_range(self, tiny_dataset):
        noisy = data.inject_semantic_label_noise(tiny_dataset, 1.0, seed=7)
        s = noisy.s_labels()
        card = tiny_dataset.categories["spoof_type"]
        assert s.min() >= 0 and s.max() < card

    def test_zero_fraction_is_identity(self, tiny_dataset):
        assert data.inject_semantic_label_noise(tiny_dataset, 0.0, seed=7) == tiny_dataset

    def test_deterministic(self, tiny_dataset):
        a = data.inject_semantic_label_noise(tiny_dataset, 0.3, seed=7)
        b = data.inject_semantic_label_noise(tiny_dataset, 0.3, seed=7)
        assert a == b


class TestBinaryNoise:
    def test_flip_count_and_flags(self, tiny_dataset):
        noisy = data.inject_binary_label_noise(tiny_dataset, 0.25, seed=9)
        flagged = noisy.flag_mask("label_flipped")
        assert int(flagged.sum()) == round(0.25 * len(tiny_dataset))
        orig = tiny_dataset.c_labels()
        now = noisy.c_labels()
        assert np.all(now[flagged] == 1 - orig[flagged])
        assert np.all(now[~flagged] == orig[~flagged])


class TestDataNoise:
    def test_corruption_touches_only_picked_rows(self, tiny_dataset):
        noisy = data.inject_data_noise(tiny_dataset, 0.3, 2.0, seed=11)
        flagged = noisy.flag_mask("data_corrupted")
        assert int(flagged.sum()) == round(0.3 * len(tiny_dataset))
        X0 = tiny_dataset.X()
        X1 = noisy.X()
        changed = np.any(X0 != X1, axis=1)
        assert np.array_equal(changed, flagged)
        sev = noisy.corruption_severity
        assert np.all(sev[flagged] == 2.0)
        assert np.all(sev[~flagged] == 0.0)

    def test_corruption_distance_grows_with_severity(self, tiny_dataset):
        mild = data.inject_data_noise(tiny_dataset, 1.0, 0.5, seed=11)
        harsh = data.inject_data_noise(tiny_dataset, 1.0, 4.0, seed=11)
        X0 = tiny_dataset.X()
        d_mild = np.linalg.norm(mild.X() - X0, axis=1).mean()
        d_harsh = np.linalg.norm(harsh.X() - X0, axis=1).mean()
        assert d_harsh > d_mild

    def test_severity_zero_is_pure_smoothing(self, tiny_dataset):
        from probfas import kernels

        noisy = data.inject_data_noise(tiny_dataset, 1.0, 0.0, seed=11)
        assert np.allclose(noisy.X(), kernels.smooth_rows(tiny_dataset.X()), rtol=1e-15)


def with_all_noise(ds, semantic, binary, data_fraction, severity, seed):
    """The three injectors in gen-data's order, all with one seed."""
    ds = data.inject_semantic_label_noise(ds, semantic, seed)
    ds = data.inject_binary_label_noise(ds, binary, seed)
    return data.inject_data_noise(ds, data_fraction, severity, seed)


class TestApplyNoise:
    def test_invalid_spec_rejected(self, tiny_dataset):
        with pytest.raises(data.DataError, match=r"^semantic noise fraction must be in \[0,1\], got 1.5$"):
            data.inject_semantic_label_noise(tiny_dataset, 1.5, seed=0)
        with pytest.raises(data.DataError, match=r"^binary noise fraction must be in \[0,1\], got -0.1$"):
            data.inject_binary_label_noise(tiny_dataset, -0.1, seed=0)
        with pytest.raises(data.DataError, match=r"^data noise fraction must be in \[0,1\], got nan$"):
            data.inject_data_noise(tiny_dataset, float("nan"), 1.0, seed=0)
        # the severity is checked even when no row is corrupted
        with pytest.raises(data.DataError, match=r"^data noise severity must be finite and >= 0, got -1.0$"):
            data.inject_data_noise(tiny_dataset, 0.0, -1.0, seed=0)

    @pytest.mark.parametrize("severity", [float("nan"), float("inf")])
    def test_non_finite_severity_rejected(self, tiny_dataset, severity):
        with pytest.raises(data.DataError, match="data noise severity must be finite"):
            data.inject_data_noise(tiny_dataset, 0.5, severity, seed=0)

    def test_nan_overlap_rejected(self):
        with pytest.raises(data.DataError, match="cluster_overlap"):
            data.generate_synthetic(5, 4, {"spoof_type": 3}, float("nan"), seed=0)
        assert len(data.generate_synthetic(5, 4, {"spoof_type": 3}, float("inf"), seed=0)) == 20


class TestFileFormat:
    def test_round_trip_exact(self, tiny_dataset, tmp_path):
        ds = with_all_noise(tiny_dataset, 0.4, 0.0, 0.2, 2.0, seed=17)
        path = tmp_path / "ds.txt"
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path)
        assert loaded == ds

    def test_save_is_byte_deterministic(self, tiny_dataset, tmp_path):
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        data.save_dataset(tiny_dataset, p1)
        data.save_dataset(tiny_dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(data.DataError, match="empty"):
            data.load_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#something-else v9\n")
        with pytest.raises(data.DataError, match="magic"):
            data.load_dataset(path)

    def test_field_count_error_names_row(self, tiny_dataset, tmp_path):
        src = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, src)
        bad = tmp_path / "bad.txt"
        for row, field, value, got in ((0, -1, "0,extra", 10), (5, 2, None, 8), (7, -2, "000,", 10)):
            with_field(src, bad, row, field, value)
            with pytest.raises(data.DataError, match=f"row {row}: expected 9 fields, got {got}"):
                data.load_dataset(bad)

    def test_unparseable_field_error_names_row(self, tiny_dataset, tmp_path):
        src = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, src)
        bad = tmp_path / "bad.txt"
        # plain ASCII numbers only: 1_5 and non-ASCII digits pass float() but not the parser
        cases = [(1, 1, "not-a-number"), (4, 2, "1_5"), (2, 3, "\u0661"), (6, 1, "0x10"),
                 (3, -3, "1.0"), (5, -4, "1e0"), (9, 0, "0.0"), (2, -1, ""),
                 (8, -3, "99999999999999999999")]  # beyond int64
        for row, field, value in cases:
            with_field(src, bad, row, field, value)
            with pytest.raises(data.DataError, match=f"row {row}: unparseable field"):
                data.load_dataset(bad)

    def test_bad_flags_bitfield_rejected(self, tiny_dataset, tmp_path):
        src = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, src)
        bad = tmp_path / "bad.txt"
        for row, bits in ((0, "012"), (3, "0100"), (4, "01"), (5, ""), (6, "0\u00e90"), (7, "01000")):
            with_field(src, bad, row, -2, bits)
            with pytest.raises(data.DataError, match=f"row {row}: bad flags bitfield"):
                data.load_dataset(bad)

    def test_out_of_range_semantic_label_rejected(self, tiny_dataset, tmp_path):
        src = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, src)
        bad = with_field(src, tmp_path / "bad.txt", 3, -3, "99")
        with pytest.raises(data.DataError, match="row 3: label 99 out of range"):
            data.load_dataset(bad)

    @pytest.mark.parametrize("severity", ["nan", "-3", "inf", "-1e-300"])
    def test_bad_corruption_severity_rejected(self, tiny_dataset, tmp_path, severity):
        src = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, src)
        bad = with_field(src, tmp_path / "bad.txt", 4, -1, severity)
        with pytest.raises(data.DataError, match="row 4: corruption_severity .* not finite and >= 0"):
            data.load_dataset(bad)

    @pytest.mark.parametrize("edit", ["renamed", "reordered", "missing", "extra"])
    def test_column_line_must_match_metadata(self, tiny_dataset, tmp_path, edit):
        path = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, path)
        lines = path.read_text().splitlines()
        assert lines[2] == "id,x0,x1,x2,x3,c,s:spoof_type,flags,severity"
        lines[2] = {
            "renamed": "id,y0,x1,x2,x3,c,s:spoof_type,flags,severity",
            "reordered": "id,x1,x0,x2,x3,c,s:spoof_type,flags,severity",
            "missing": "id,x0,x1,x2,x3,c,flags,severity",
            "extra": "id,x0,x1,x2,x3,c,s:spoof_type,flags,severity,note",
        }[edit]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.DataError, match="column-name line"):
            data.load_dataset(path)

    def test_column_line_field_count_is_checked_first(self, tmp_path):
        # the expected line of D=10**9 features would be about 11 GB
        path = tmp_path / "ds.txt"
        path.write_text("#probfas-dataset v1\n#D=1000000000 seed=0 categories=spoof_type:3\n"
                        "id,x0,c,s:spoof_type,flags,severity\n0,0.5,0,1,000,0\n")
        with pytest.raises(data.DataError) as exc:
            data.load_dataset(path)
        assert str(exc.value) == f"{path}: column-name line has 6 fields; the metadata line declares 1000000005"

    def test_no_sample_rows_rejected(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, path)
        path.write_text("\n".join(path.read_text().splitlines()[:3]) + "\n\n")
        with pytest.raises(data.DataError, match="no sample rows"):
            data.load_dataset(path)


def random_dataset(rng, categories, n):
    """Dataset of n rows with features drawn from random bit patterns (every
    finite double is possible, subnormals and -0.0 included), random labels,
    every flag combination and random severities."""
    bits = rng.integers(0, 2**64, size=(2 * n, 3), dtype=np.uint64).view(np.float64)
    x = bits[np.isfinite(bits).all(axis=1)][:n]
    combos = rng.permutation(np.arange(n) % 8)
    sev = np.where(combos & 1, rng.exponential(2.0, n), 0.0)
    return data.Dataset(
        x=x, c=rng.integers(0, 2, n), s={k: rng.integers(0, card, n) for k, card in categories.items()},
        categories=categories, seed_provenance=int(rng.integers(0, 2**31)),
        label_flipped=combos & 4 > 0, semantic_reassigned=combos & 2 > 0, data_corrupted=combos & 1 > 0,
        corruption_severity=sev,
    )


class TestParserOracle:
    """load_dataset against the row-by-row float()/int() reference parser."""

    @pytest.mark.parametrize("categories", [
        {"spoof_type": 3}, {"spoof_type": 2, "lighting": 5}, {"spoof_type": 4, "a": 2, "b": 3},
    ])
    def test_random_datasets_bit_equal(self, tmp_path, categories):
        rng = np.random.default_rng(len(categories))
        path = tmp_path / "ds.txt"
        for n in (8, 37, 5000):
            ds = random_dataset(rng, categories, n)
            data.save_dataset(ds, path)
            loaded = data.load_dataset(path)
            assert_bit_equal(loaded, reference_load_dataset(path))
            assert_bit_equal(loaded, ds)

    def test_extreme_features_bit_equal(self, tiny_dataset, tmp_path):
        ds = tiny_dataset.copy()
        ds.x[0] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        ds.x[1] = [0.0, -5e-324, 2.2250738585072014e-308, 1e-310]
        path = tmp_path / "ds.txt"
        data.save_dataset(ds, path)
        assert path.read_text().splitlines()[3].split(",")[1:5] == [
            "-0", "4.9406564584124654e-324", "1.7976931348623157e+308", "-1.7976931348623157e+308"]
        loaded = data.load_dataset(path)
        assert_bit_equal(loaded, reference_load_dataset(path))
        assert_bit_equal(loaded, ds)
        assert np.signbit(loaded.x[0, 0])

    def test_one_row_file(self, tmp_path):
        ds = random_dataset(np.random.default_rng(3), {"spoof_type": 3, "b": 2}, 1)
        path = tmp_path / "ds.txt"
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path)
        assert len(loaded) == 1 and loaded.x.shape == (1, 3)
        assert_bit_equal(loaded, reference_load_dataset(path))
        assert_bit_equal(loaded, ds)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_lines_and_line_endings(self, tmp_path, newline):
        ds = random_dataset(np.random.default_rng(4), {"spoof_type": 2}, 20)
        path = tmp_path / "ds.txt"
        data.save_dataset(ds, path)
        lines = path.read_text().splitlines()
        # blank lines before, inside and after the header, between rows and at the end
        spaced = ["", lines[0], "", lines[1], lines[2], "", "", *lines[3:10], "", *lines[10:], "", ""]
        path.write_bytes(newline.join(spaced).encode("ascii"))
        loaded = data.load_dataset(path)
        assert_bit_equal(loaded, reference_load_dataset(path))
        assert_bit_equal(loaded, ds)

    def test_last_row_without_newline(self, tmp_path):
        ds = random_dataset(np.random.default_rng(5), {"spoof_type": 2}, 9)
        path = tmp_path / "ds.txt"
        data.save_dataset(ds, path)
        path.write_text(path.read_text().rstrip("\n"))
        assert_bit_equal(data.load_dataset(path), ds)


class TestDatasetValidation:
    def test_non_dense_ids_rejected(self, tiny_dataset, tmp_path):
        src = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, src)
        bad = tmp_path / "bad.txt"
        for row, row_id in ((0, "99"), (5, "4"), (6, "-6"), (len(tiny_dataset) - 1, "0")):
            with_field(src, bad, row, 0, row_id)
            with pytest.raises(data.DataError, match=f"row {row}: sample ids must be dense.*got id {row_id}"):
                data.load_dataset(bad)

    def columns(self, ds, **changes):
        cols = dict(x=ds.X(), c=ds.c_labels(), s={"spoof_type": ds.s_labels()},
                    categories=dict(ds.categories), seed_provenance=0)
        cols.update(changes)
        return cols

    def test_wrong_feature_dim_rejected(self, tiny_dataset):
        for x in (tiny_dataset.X()[:, 0], tiny_dataset.X()[:, :0]):
            with pytest.raises(data.DataError, match="x must be"):
                data.Dataset(**self.columns(tiny_dataset, x=x))

    def test_mismatched_column_lengths_rejected(self, tiny_dataset):
        n = len(tiny_dataset)
        for change in ({"c": tiny_dataset.c_labels()[:-1]},
                       {"s": {"spoof_type": tiny_dataset.s_labels()[1:]}},
                       {"data_corrupted": np.zeros(n + 1, dtype=bool)},
                       {"corruption_severity": np.zeros(n - 1)}):
            with pytest.raises(data.DataError, match="shape"):
                data.Dataset(**self.columns(tiny_dataset, **change))

    def test_out_of_range_label_rejected(self, tiny_dataset):
        s = tiny_dataset.s_labels().copy()
        s[5] = 3  # the category has three values
        with pytest.raises(data.DataError, match="row 5: label 3 out of range"):
            data.Dataset(**self.columns(tiny_dataset, s={"spoof_type": s}))
        c = tiny_dataset.c_labels().copy()
        c[2] = 2
        with pytest.raises(data.DataError, match="row 2: binary label 2"):
            data.Dataset(**self.columns(tiny_dataset, c=c))

    def test_label_columns_must_match_categories(self, tiny_dataset):
        with pytest.raises(data.DataError, match="categories"):
            data.Dataset(**self.columns(tiny_dataset, s={"other": tiny_dataset.s_labels()}))

    def test_copy_shares_no_column(self, tiny_dataset):
        ds = with_all_noise(tiny_dataset, 0.5, 0.2, 0.3, 1.0, seed=1)
        dup = ds.copy()
        assert dup == ds
        for (name, a), (_, b) in zip(ds._columns(), dup._columns()):
            assert not np.shares_memory(a, b), name
