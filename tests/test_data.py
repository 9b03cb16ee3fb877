"""Dataset generation, noise injection, and file-format tests."""

import numpy as np
import pytest

from probfas import data


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
        assert np.allclose(noisy.X(), kernels.smooth_rows(tiny_dataset.X(), 3), rtol=1e-15)


class TestApplyNoise:
    def test_composition_matches_sequential(self, tiny_dataset):
        spec = data.NoiseSpec(
            semantic_noise_fraction=0.4,
            binary_label_flip_fraction=0.1,
            data_noise_fraction=0.2,
            data_noise_severity=1.5,
        )
        combined = data.apply_noise(tiny_dataset, spec, seed=13)
        step = data.inject_semantic_label_noise(tiny_dataset, 0.4, 13)
        step = data.inject_binary_label_noise(step, 0.1, 13)
        step = data.inject_data_noise(step, 0.2, 1.5, 13)
        assert combined == step

    def test_invalid_spec_rejected(self):
        with pytest.raises(data.DataError):
            data.NoiseSpec(semantic_noise_fraction=1.5)
        with pytest.raises(data.DataError):
            data.NoiseSpec(data_noise_severity=-1.0)

    @pytest.mark.parametrize("severity", [float("nan"), float("inf")])
    def test_non_finite_severity_rejected(self, tiny_dataset, severity):
        with pytest.raises(data.DataError, match="finite"):
            data.NoiseSpec(data_noise_fraction=0.5, data_noise_severity=severity)
        with pytest.raises(data.DataError, match="finite"):
            data.inject_data_noise(tiny_dataset, 0.5, severity, seed=0)

    def test_nan_overlap_rejected(self):
        with pytest.raises(data.DataError):
            data.NoiseSpec(cluster_overlap=float("nan"))
        data.NoiseSpec(cluster_overlap=float("inf"))


class TestFileFormat:
    def test_round_trip_exact(self, tiny_dataset, tmp_path):
        ds = data.apply_noise(
            tiny_dataset,
            data.NoiseSpec(semantic_noise_fraction=0.4, data_noise_fraction=0.2, data_noise_severity=2.0),
            seed=17,
        )
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
        path = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3] + ",extra"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.DataError, match="row 0"):
            data.load_dataset(path)

    def test_unparseable_field_error_names_row(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, path)
        lines = path.read_text().splitlines()
        parts = lines[4].split(",")
        parts[1] = "not-a-number"
        lines[4] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.DataError, match="row 1"):
            data.load_dataset(path)

    def test_bad_flags_bitfield_rejected(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, path)
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[-2] = "012"
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.DataError, match="bitfield"):
            data.load_dataset(path)

    def test_out_of_range_semantic_label_rejected(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, path)
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[-3] = "99"
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.DataError, match="out of range"):
            data.load_dataset(path)


class TestDatasetValidation:
    def test_non_dense_ids_rejected(self, tiny_dataset, tmp_path):
        path = tmp_path / "ds.txt"
        data.save_dataset(tiny_dataset, path)
        lines = path.read_text().splitlines()
        lines[3] = "99" + lines[3][lines[3].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(data.DataError, match="dense"):
            data.load_dataset(path)

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
        noisy = data.apply_noise(tiny_dataset, data.NoiseSpec(0.5, 0.2, 0.3, 1.0), seed=1)
        dup = noisy.copy()
        assert dup == noisy
        for (name, a), (_, b) in zip(noisy._columns(), dup._columns()):
            assert not np.shares_memory(a, b), name
