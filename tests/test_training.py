"""Two-stage training: configuration I/O, determinism, freeze contracts,
checkpointing and resume, divergence handling, and the measured
sigma-statistics of the label-quality head."""

import hashlib
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from probfas import data, experiments, model, training
from conftest import train_one


def small_config(seed=0, epochs1=3, epochs2=3):
    cfg = training.TrainConfig(seed=seed)
    cfg.stage1 = training.StageConfig("adam", 3e-3, epochs1, 16)
    cfg.stage2 = training.StageConfig("sgd", 1e-1, epochs2, 16)
    cfg.hidden = (8,)
    cfg.embedding_dim = 6
    return cfg.validate()


class TestConfig:
    def test_defaults(self):
        # the one default of the CLI, the benchmark and the library
        cfg = training.TrainConfig()
        assert cfg.stage1 == training.StageConfig("adam", 3e-3, 125, 32)
        assert cfg.stage2 == training.StageConfig("sgd", 1e-1, 50, 32)
        assert cfg.hidden == (32,) and cfg.embedding_dim == 16
        assert cfg.lambda_s == 1.0 and cfg.seed == 0 and cfg.enable_lq and cfg.enable_dq

    def test_file_round_trip(self, tmp_path):
        cfg = small_config(seed=7)
        cfg.lambda_s = 2.5
        path = tmp_path / "cfg.txt"
        training.save_config(cfg, path)
        loaded = training.load_config(path)
        assert loaded.to_dict() == cfg.to_dict()

    def test_default_config_file_bytes(self, tmp_path):
        # one key per field in field order, stage fields expanded in place
        path = tmp_path / "cfg.txt"
        training.save_config(training.TrainConfig(), path)
        # the arm's enable_* fields are not written
        assert path.read_bytes() == (
            b"stage1.optimizer = adam\nstage1.lr = 0.003\nstage1.epochs = 125\nstage1.batch_size = 32\n"
            b"stage2.optimizer = sgd\nstage2.lr = 0.1\nstage2.epochs = 50\nstage2.batch_size = 32\n"
            b"lambda_s = 1.0\nseed = 0\nhidden = 32\nembedding_dim = 16\n"
        )
        assert training.load_config(path).to_dict() == training.TrainConfig().to_dict()

    def test_partial_file_fills_from_the_one_default(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("stage1.epochs = 3\n")
        loaded = training.load_config(path)
        assert loaded.stage1 == training.StageConfig("adam", 3e-3, 3, 32)
        want = training.TrainConfig()
        want.stage1.epochs = 3
        assert loaded.to_dict() == want.to_dict()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("no_such_key = 1\n")
        with pytest.raises(training.ConfigError, match="unknown"):
            training.load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("stage1.lr = fast\n")
        with pytest.raises(training.ConfigError):
            training.load_config(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# a comment\n\nseed = 9  # trailing\n")
        assert training.load_config(path).seed == 9

    def test_invalid_values_rejected_by_validate(self):
        cfg = small_config()
        cfg.stage1.lr = 0.0
        with pytest.raises(training.ConfigError):
            cfg.validate()
        cfg = small_config()
        cfg.stage1.batch_size = 0
        with pytest.raises(training.ConfigError):
            cfg.validate()
        cfg = small_config()
        cfg.stage1.optimizer = "lbfgs"
        with pytest.raises(training.ConfigError):
            cfg.validate()

    def test_bool_parse(self, tmp_path):
        # enable_lq and enable_dq belong to the arm: a file may not set them
        path = tmp_path / "cfg.txt"
        for text in ("enable_lq = off\n", "enable_dq = yes\n", "enable_lq = maybe\n"):
            path.write_text(text)
            key = text.split(" ")[0]
            message = f"{path}:1: {key} is set by --arm, not by a config file"
            with pytest.raises(training.ConfigError, match=f"^{re.escape(message)}$"):
                training.load_config(path)


class TestDeterminism:
    def test_same_seed_identical_params_and_log(self, tiny_dataset):
        cfg = small_config()
        p1, log1 = train_one(tiny_dataset, cfg, "s-lq-dq")
        p2, log2 = train_one(tiny_dataset, cfg, "s-lq-dq")
        assert np.array_equal(p1.flat, p2.flat)
        assert log1 == log2

    def test_different_seed_differs(self, tiny_dataset):
        p1, _ = train_one(tiny_dataset, small_config(seed=0), "s-lq-dq")
        p2, _ = train_one(tiny_dataset, small_config(seed=1), "s-lq-dq")
        assert not np.array_equal(p1.flat, p2.flat)


def seed_sequence_rng(seed, stage, epoch, stream):
    """An epoch stream's generator as numpy seeds it from its four numbers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stage, epoch, stream])))


class TestEpochStreams:
    # training seeds its (seed, stage, epoch, stream) generators from words
    # it computes in bulk; they must be SeedSequence's, so a numpy release
    # that changes SeedSequence fails here
    SEEDS = [0, 3, 2**31, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 7]
    EPOCHS = [0, 1, 124, 2**32 - 1, 2**32]

    def test_bulk_words_equal_seed_sequence(self):
        streams = list(itertools.product(self.SEEDS, (1, 2), self.EPOCHS, (0, 1)))
        by_length = {}
        for stream in streams:
            words = [word for number in stream for word in training._words(number)]
            by_length.setdefault(len(words), []).append((stream, words))
        assert sorted(by_length) == [4, 5, 6, 7]
        for rows in by_length.values():
            states = training._seed_states(np.array([words for _, words in rows], dtype=np.uint32).T)
            for (stream, _), state in zip(rows, states):
                expected = np.random.SeedSequence(list(stream)).generate_state(4, np.uint64)
                assert state.dtype == expected.dtype and state.tobytes() == expected.tobytes(), stream

    @pytest.mark.parametrize("epochs", [range(0, 300), range(2**32 - 2, 2**32 + 2)], ids=["first", "word-boundary"])
    def test_generators_draw_the_seed_sequence_bytes(self, epochs):
        # the replicas' seeds differ in word count, and the first range
        # spans three chunks
        for stage in (1, 2):
            for epoch, rngs in zip(epochs, training._epoch_rngs(self.SEEDS, stage, epochs, 2), strict=True):
                for seed, (order_rng, noise_rng) in zip(self.SEEDS, rngs, strict=True):
                    for stream, rng in enumerate((order_rng, noise_rng)):
                        expected = seed_sequence_rng(seed, stage, epoch, stream)
                        got, want = np.arange(240), np.arange(240)
                        rng.shuffle(got)
                        expected.shuffle(want)
                        assert got.tobytes() == want.tobytes(), (seed, stage, epoch, stream)
                        got, want = np.empty((240, 16)), np.empty((240, 16))
                        rng.standard_normal(out=got)
                        expected.standard_normal(out=want)
                        assert got.tobytes() == want.tobytes(), (seed, stage, epoch, stream)

    def test_a_huge_epoch_count_seeds_one_chunk(self):
        # stage1.epochs = 10**12 is valid and trains for ever: its first
        # epoch must take what a one-epoch stage's does, not the seed words
        # of 10**12 epochs (32 TB), which would fail at once
        ds = data.generate_synthetic(n_per_class=12, D=4, categories={"spoof_type": 3}, cluster_overlap=0.5, seed=0)
        params = model.ModelParams.stack([model.init_params(4, {"spoof_type": 3}, B=6, hidden=(8,), seed=0)])

        def first_epoch_peak(epochs):
            stage = training.run_stage(params.copy(), [ds.X()[None]], 1, training.StageConfig("adam", 1e-3, epochs, 8),
                                       [3], lambda batch, eps, grads: {"total": np.zeros(1)}, noise_dim=6)
            tracemalloc.start()
            try:
                next(stage)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        first_epoch_peak(1)  # numpy.random's first use is not measured
        assert first_epoch_peak(10**12) <= first_epoch_peak(1) + 64 * 1024

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # numpy loads numpy.random on first use, about 16 ms; training
        # registers its seed sequence then, not at import
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", "import sys, probfas.cli; print('numpy.random' in sys.modules)"],
                              env=env, capture_output=True, text=True, check=True, timeout=120)
        assert proc.stdout.splitlines()[-1] == "False"


# SHA-256 of each arm's stacked params.flat after one short sweep cell at the
# benchmark widths, seeds 0 and 1: a change to training, the model, the
# losses or the kernels that moves any trained byte fails here, even where
# the cell's rates (all the sweep's reference digests see) stay equal
TRAINED_DIGESTS = {
    ("semantic", 0.5): {
        "baseline": "321d1f7676c194b265100423e227e06f8efdea3f1e7b0b6b5f3dc9208a91d4b5",
        "s": "d29194a31d668ce33d9c226ec657ffb8d9516dc38db5a22df511399e08f7dad3",
        "s-lq": "e005b23ce8b2d064bad62b32cc44544f58dc52b3eca4e684855c8a8f0bdfd1de",
        "s-lq-dq": "3231bb9542e61008894c41f653b66e10db4e17f7751836ef862af77f901e4ddf",
    },
    ("data", 0.3): {
        "baseline": "51a20c9c8db4956a07104ab7666e16dd4b33d092a415e38b724ed6bc08ad2e39",
        "s": "233a4193785edb3e3b655fa62fa6507585b5674cd3c0ed5dca164d43e4952c77",
        "s-lq": "c5f75237824f24a8851ef042b01e3ec73648b833c4a16d52972df2a995d94dca",
        "s-lq-dq": "cd63ce37491ff776da21fa3a010b65888eb24c96193393f7ef62e9d704034f97",
    },
}


@pytest.mark.parametrize("kind, fraction", list(TRAINED_DIGESTS))
def test_sweep_cell_trains_the_pinned_parameter_bytes(kind, fraction):
    seeds = [0, 1]
    configs = []
    for seed in seeds:
        cfg = training.TrainConfig(seed=seed)
        cfg.stage1.epochs, cfg.stage2.epochs = 20, 10
        configs.append(cfg)
    splits = [experiments.apply_noise_kind(*experiments.make_benchmark_data(seed), kind, fraction, seed)
              for seed in seeds]
    digests = {arm: hashlib.sha256(params.flat.tobytes()).hexdigest()
               for arm, _, params, _ in experiments.run_arms(splits, training.ARMS, configs)}
    assert digests == TRAINED_DIGESTS[kind, fraction]


class TestStage1:
    def test_separable_data_reaches_high_accuracy(self):
        ds = data.generate_synthetic(50, 8, {"spoof_type": 3}, 0.0, seed=0)
        cfg = training.TrainConfig(seed=0)
        cfg.stage1.epochs = 50
        _, log = train_one(ds, cfg, "s")
        final = [r for r in log if r["stage"] == 1][-1]
        assert final["train_acc"] >= 0.99

    def test_disabled_lq_leaves_variance_head_at_init(self, tiny_dataset):
        cfg = small_config()
        cfg.enable_lq = False
        params, _ = train_one(tiny_dataset, cfg)
        assert np.all(params.w_lq == 0.0)
        assert np.all(params.b_lq == 0.0)

    def test_enabled_lq_moves_variance_head(self, tiny_dataset):
        cfg = small_config(epochs1=5)
        params, _ = train_one(tiny_dataset, cfg)
        assert np.any(params.b_lq != 0.0) or np.any(params.w_lq != 0.0)

    def test_loss_decreases_on_default_benchmark(self):
        train, _ = experiments.make_benchmark_data(0)
        cfg = training.TrainConfig(seed=0)
        _, log = train_one(train, cfg, "s-lq")
        stage1 = [r for r in log if r["stage"] == 1]
        assert stage1[-1]["loss_total"] < stage1[0]["loss_total"]

    def test_log_rows_are_finite_with_monotone_epochs(self, tiny_dataset):
        _, log = train_one(tiny_dataset, small_config(epochs1=4))
        epochs = [r["epoch"] for r in log]
        assert epochs == sorted(epochs) == list(range(4))
        for row in log:
            for key in ("loss_total", "loss_c", "mean_sigma_l", "mean_sigma_d_sq", "train_acc"):
                assert np.isfinite(row[key])


class TestStage2:
    def test_backbone_and_lq_head_frozen(self, tiny_dataset):
        cfg = small_config()
        stage1_params, _ = train_one(tiny_dataset, cfg)
        before = {name: t.copy() for name, t in stage1_params.named_tensors()}
        after_params, _ = train_one(tiny_dataset, cfg, params=stage1_params)
        moved = {"omega_c", "w_dq", "b_dq"}
        for name, t in after_params.named_tensors():
            if name in moved:
                continue
            assert np.array_equal(t, before[name]), f"{name} must not move in stage 2"

    def test_frozen_tensors_stay_bit_identical_under_adam(self, tiny_dataset):
        cfg = small_config()
        stage1_params, _ = train_one(tiny_dataset, cfg)
        cfg.stage2 = training.StageConfig("adam", 1e-2, 3, 16)
        after_params, _ = train_one(tiny_dataset, cfg, params=stage1_params)
        for (name, t), (_, before) in zip(after_params.named_tensors(), stage1_params.named_tensors()):
            if name not in {"omega_c", "w_dq", "b_dq"}:
                assert np.array_equal(t, before), f"{name} must not move in stage 2"
        assert not np.array_equal(after_params.omega_c, stage1_params.omega_c)

    def test_finetuned_tensors_actually_move(self, tiny_dataset):
        cfg = small_config()
        stage1_params, _ = train_one(tiny_dataset, cfg)
        after_params, _ = train_one(tiny_dataset, cfg, params=stage1_params)
        assert not np.array_equal(after_params.omega_c, stage1_params.omega_c)

    def test_zero_epochs_is_identity(self, tiny_dataset):
        cfg = small_config(epochs2=0)
        stage1_params, _ = train_one(tiny_dataset, cfg)
        after_params, log = train_one(tiny_dataset, cfg, params=stage1_params)
        assert np.array_equal(after_params.flat, stage1_params.flat)
        assert log == []

    def test_quality_separates_corrupted_samples(self):
        # after finetuning on 30% severity-2 corruption, corrupted samples
        # should carry larger data-quality variance (majority of seeds)
        wins = 0
        for seed in range(5):
            cfg = training.TrainConfig(seed=seed)
            train, _ = experiments.make_benchmark_data(seed)
            train = data.inject_data_noise(train, 0.3, 2.0, seed)
            params, _ = train_one(train, cfg, "s-lq-dq")
            mu = model.embed(params, train.X())
            s2 = model.dq_variance(params, mu)
            corrupted = train.flag_mask("data_corrupted")
            wins += s2[corrupted].mean() > s2[~corrupted].mean()
        assert wins >= 3


class TestDivergence:
    # overflow warnings on the way to the divergence error are expected
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_stage1_raises_with_context(self, tiny_dataset):
        cfg = small_config()
        cfg.stage1 = training.StageConfig("sgd", 1e12, 5, 16)
        with pytest.raises(training.TrainingDiverged) as exc:
            train_one(tiny_dataset, cfg)
        assert exc.value.stage == 1
        assert exc.value.epoch >= 0
        assert "total" in exc.value.components


class TestArms:
    def test_arm_config_mapping(self):
        base = small_config()
        base.lambda_s = 1.3
        b = training.arm_config("baseline", base)
        assert b.lambda_s == 0.0 and not b.enable_lq and not b.enable_dq
        s = training.arm_config("s", base)
        assert s.lambda_s == 1.3 and not s.enable_lq and not s.enable_dq
        lq = training.arm_config("s-lq", base)
        assert lq.enable_lq and not lq.enable_dq
        dq = training.arm_config("s-lq-dq", base)
        assert dq.enable_lq and dq.enable_dq
        with pytest.raises(training.ConfigError):
            training.arm_config("everything", base)

    def test_baseline_never_trains_stage2(self, tiny_dataset):
        _, log = train_one(tiny_dataset, small_config(), "baseline")
        assert all(r["stage"] == 1 for r in log)


class TestSigmaLStatistics:
    def test_sigma_l_decays_during_training(self):
        train, _ = experiments.make_benchmark_data(0)
        _, log = train_one(train, training.TrainConfig(seed=0), "s-lq")
        stage1 = [r for r in log if r["stage"] == 1]
        assert stage1[-1]["mean_sigma_l"] < stage1[0]["mean_sigma_l"]

    def test_reassigned_sigma_l_at_least_clean_majority(self):
        # Mean sigma over re-drawn spoof samples vs clean spoof samples after
        # training with 50% semantic noise, majority of 5 seeds. A seed wins
        # when its gap is no lower than chance: at least the 5th percentile of
        # the gap over random re-partitions of its spoof samples into groups
        # of the same sizes. The strict ordering (gap >= 0) is not asserted:
        # the flag is set without regard to features, sigma_L is a function
        # of the features alone, and the label drops out of its expected
        # gradient (see TestStage1Objective in test_losses.py).
        wins = strict = 0
        rows = []
        for seed in range(5):
            cfg = training.TrainConfig(seed=seed)
            train, _ = experiments.make_benchmark_data(seed)
            train = data.inject_semantic_label_noise(train, 0.5, seed)
            params, _ = train_one(train, cfg, "s-lq")
            sigma = model.lq_variance(params, model.embed(params, train.X())).mean(axis=1)
            reassigned = train.flag_mask("semantic_reassigned")
            clean_spoof = train.spoof_mask() & ~reassigned
            gap = sigma[reassigned].mean() - sigma[clean_spoof].mean()
            shuffled = np.random.default_rng(seed).permuted(
                np.tile(sigma[train.spoof_mask()], (2000, 1)), axis=1
            )
            n_re = int(reassigned.sum())
            null_gaps = shuffled[:, :n_re].mean(axis=1) - shuffled[:, n_re:].mean(axis=1)
            floor = np.percentile(null_gaps, 5)
            wins += gap >= floor
            strict += gap >= 0.0
            rows.append(f"seed {seed}: gap {gap:+.4f} floor {floor:+.4f}")
        assert wins >= 3, f"{wins}/5 at or above chance, {strict}/5 strict; " + "; ".join(rows)


class TestTrainLogIO:
    def test_round_trip(self, tiny_dataset, tmp_path):
        _, log = train_one(tiny_dataset, small_config(), "s-lq-dq")
        path = tmp_path / "log.jsonl"
        training.save_trainlog(log, path)
        assert training.load_trainlog(path) == log


class TestCheckpoint:
    def test_round_trip_exact(self, tiny_dataset, tmp_path):
        cfg = small_config()
        params, _ = train_one(tiny_dataset, cfg, "s-lq-dq")
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(path, params, config=cfg)
        loaded, loaded_cfg = training.load_checkpoint(path)
        assert np.array_equal(loaded.flat, params.flat)
        assert loaded_cfg.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("hidden", [(), (8,), (64, 64)])
    @pytest.mark.parametrize("categories", [{}, {"spoof_type": 3}, {"spoof_type": 3, "light": 2}])
    @pytest.mark.parametrize("with_config", [False, True])
    def test_every_saved_layout_loads_to_its_bytes(self, tmp_path, hidden, categories, with_config):
        params = model.init_params(5, categories, B=4, hidden=hidden, seed=3)
        params.w_lq[...] = np.random.default_rng(1).standard_normal(params.w_lq.shape)
        params.b_dq[...] = -0.0
        cfg = small_config(seed=9) if with_config else None
        if cfg is not None:
            cfg.hidden, cfg.embedding_dim = hidden, 4
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(path, params, config=cfg)
        loaded, loaded_cfg = training.load_checkpoint(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert [(n, t.shape) for n, t in loaded.named_tensors()] == [(n, t.shape) for n, t in params.named_tensors()]
        assert loaded.flat.flags.writeable
        assert (loaded_cfg is None) if cfg is None else (loaded_cfg.to_dict() == cfg.to_dict())

    def test_extra_arrays_rejected_as_trailing_bytes(self, tiny_params, tmp_path):
        # a v1 file whose header declares an extra array after the tensors
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(path, tiny_params)
        blob = path.read_bytes()
        magic_len = len(training._CKPT_MAGIC)
        header_end = magic_len + 4 + int.from_bytes(blob[magic_len : magic_len + 4], "little")
        header = blob[magic_len + 4 : header_end].replace(
            b'"extra_arrays":[]', b'"extra_arrays":[{"name":"stats","shape":[2,3]}]')
        body = blob[header_end:] + np.arange(6.0).tobytes()
        path.write_bytes(training._CKPT_MAGIC + len(header).to_bytes(4, "little") + header + body)
        with pytest.raises(training.CheckpointError, match="trailing bytes after body"):
            training.load_checkpoint(path)

    def test_save_is_byte_deterministic(self, tiny_params, tmp_path):
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        training.save_checkpoint(p1, tiny_params, config=small_config())
        training.save_checkpoint(p2, tiny_params, config=small_config())
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOT-A-CHECKPOINT")
        with pytest.raises(training.CheckpointError, match="magic"):
            training.load_checkpoint(path)

    def test_truncated_file_rejected(self, tiny_params, tmp_path):
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(path, tiny_params)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(training.CheckpointError, match="truncated"):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("where", ["magic", "length", "header", "body"])
    def test_truncation_anywhere_is_checkpoint_error(self, tiny_params, tmp_path, where):
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(path, tiny_params)
        blob = path.read_bytes()
        magic_len = len(training._CKPT_MAGIC)
        header_end = magic_len + 4 + int.from_bytes(blob[magic_len : magic_len + 4], "little")
        cut = {"magic": magic_len - 3, "length": magic_len + 2,
               "header": header_end - 5, "body": len(blob) - 4}[where]
        path.write_bytes(blob[:cut])
        with pytest.raises(training.CheckpointError, match=str(path)):
            training.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tiny_params, tmp_path):
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(path, tiny_params)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(training.CheckpointError, match="trailing"):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        b"{}",  # no tensors
        b'{"tensors": [], "extra_arrays": []}',  # no config or meta
        b"[1, 2]",
        b"{not json",
        b"\xff\xfe",
    ])
    def test_malformed_header_is_checkpoint_error(self, tmp_path, header):
        path = tmp_path / "model.ckpt"
        path.write_bytes(training._CKPT_MAGIC + len(header).to_bytes(4, "little") + header)
        with pytest.raises(training.CheckpointError, match="malformed header"):
            training.load_checkpoint(path)

    def test_widths_beyond_the_body_are_rejected_before_the_model_is_built(self, tmp_path):
        # a layer of 10**12 outputs and no inputs declares no body, but its
        # model would take terabytes
        header = (b'{"config":null,"extra_arrays":[],"extra_meta":{},'
                  b'"tensors":[{"name":"layers.0.W","shape":[1000000000000,0]}],"version":1}')
        path = tmp_path / "model.ckpt"
        path.write_bytes(training._CKPT_MAGIC + len(header).to_bytes(4, "little") + header)
        with pytest.raises(training.CheckpointError, match="not the v1 header of the model"):
            training.load_checkpoint(path)

    def test_embedding_dim_mismatch_rejected(self, tiny_params, tmp_path):
        path = tmp_path / "model.ckpt"
        other = small_config()
        other.embedding_dim = tiny_params.B + 1
        training.save_checkpoint(path, tiny_params, config=other)
        with pytest.raises(training.CheckpointError, match="embedding dim"):
            training.load_checkpoint(path)

    def test_hidden_mismatch_rejected(self, tmp_path):
        # layers (8, 4) and (6, 8) beside the default config's hidden (32,)
        path = tmp_path / "model.ckpt"
        params = model.init_params(4, {"a": 3}, B=6, hidden=(8,))
        training.save_checkpoint(path, params, config=training.TrainConfig(embedding_dim=6))
        with pytest.raises(training.CheckpointError) as exc:
            training.load_checkpoint(path)
        assert str(exc.value) == f"{path}: hidden widths [8] do not match config hidden [32]"

    def test_nonfinite_params_rejected_on_save(self, tiny_params, tmp_path):
        bad = tiny_params.copy()
        bad.omega_c[0, 0] = np.inf
        with pytest.raises(ValueError):
            training.save_checkpoint(tmp_path / "bad.ckpt", bad)
