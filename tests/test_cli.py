"""CLI contract tests: exit codes, produced files, determinism, and
manifest immutability."""

import errno
import json
import os

import numpy as np
import pytest

from probfas import cli, data, inference, metrics, training
from conftest import reference_load_predictions, train_one


def run(argv):
    return cli.main(argv)


def write_quick_config(path, **overrides):
    cfg = training.TrainConfig(seed=0)
    cfg.stage1.epochs = 3
    cfg.stage2.epochs = 3
    cfg.hidden = (8,)
    cfg.embedding_dim = 6
    for key, val in overrides.items():
        setattr(cfg, key, val)
    training.save_config(cfg, path)
    return cfg


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert run(["gen-data", "--n", "20", "--dim", "4", "--spoof-types", "3",
                "--overlap", "0.5", "--seed", "7", "--out", str(out)]) == 0
    return out


def one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def with_feature(src, dst, value, field=1):
    """Copy a dataset file, setting one field (x0 by default) of its first
    sample row to value."""
    lines = src.read_text().splitlines()
    fields = lines[3].split(",")
    fields[field] = value
    lines[3] = ",".join(fields)
    dst.write_text("\n".join(lines) + "\n")
    return dst


class TestGenData:
    def test_contract_example(self, tmp_path, capsys):
        out = tmp_path / "d"
        capsys.readouterr()
        assert run(["gen-data", "--n", "200", "--spoof-types", "3",
                    "--overlap", "1.0", "--seed", "7", "--out", str(out)]) == 0
        # stdout names the published file, not the staged one
        assert capsys.readouterr().out.endswith(f" -> {out / 'dataset.txt'}\n")
        ds = data.load_dataset(out / "dataset.txt")
        assert len(ds) == 800
        assert (out / "manifest.json").exists()

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["gen-data", "--n", "10", "--dim", "4", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "dataset.txt").read_bytes() == (b / "dataset.txt").read_bytes()

    def test_noise_flags_are_applied(self, tmp_path):
        out = tmp_path / "noisy"
        assert run(["gen-data", "--n", "20", "--dim", "4", "--seed", "1",
                    "--semantic-noise", "0.5", "--data-noise", "0.2",
                    "--severity", "1.5", "--out", str(out)]) == 0
        ds = data.load_dataset(out / "dataset.txt")
        assert ds.flag_mask("semantic_reassigned").sum() == round(0.5 * 60)
        assert ds.flag_mask("data_corrupted").sum() == round(0.2 * 80)

    def test_invalid_flag_is_usage_error(self):
        assert run(["gen-data", "--n", "not-a-number"]) == 1
        assert run(["gen-data"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert run(["no-such-command"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--overlap", "nan"],
        ["--data-noise", "0.5", "--severity", "nan"],
        ["--data-noise", "0.5", "--severity", "inf"],
    ])
    def test_non_finite_generation_settings_are_data_errors(self, tmp_path, capsys, flags):
        out = tmp_path / "d"
        capsys.readouterr()
        assert run(["gen-data", "--n", "5", "--dim", "4", "--out", str(out)] + flags) == 2
        assert one_line_error(capsys)
        assert not (out / "dataset.txt").exists()

    def test_infinite_overlap_gives_loadable_dataset(self, tmp_path):
        out = tmp_path / "d"
        assert run(["gen-data", "--n", "5", "--dim", "4", "--overlap", "inf", "--out", str(out)]) == 0
        assert len(data.load_dataset(out / "dataset.txt")) == 20

    def test_noise_composition_matches_sequential_injectors(self, tmp_path):
        out = tmp_path / "d"
        assert run(["gen-data", "--n", "12", "--dim", "4", "--overlap", "0.5", "--seed", "13",
                    "--semantic-noise", "0.4", "--binary-noise", "0.1", "--data-noise", "0.2",
                    "--severity", "1.5", "--out", str(out)]) == 0
        step = data.generate_synthetic(12, 4, {"spoof_type": 3}, 0.5, seed=13)
        step = data.inject_semantic_label_noise(step, 0.4, 13)
        step = data.inject_binary_label_noise(step, 0.1, 13)
        step = data.inject_data_noise(step, 0.2, 1.5, 13)
        assert data.load_dataset(out / "dataset.txt") == step

    @pytest.mark.parametrize("flags, message", [
        (["--semantic-noise", "1.5"], "semantic noise fraction must be in [0,1], got 1.5"),
        (["--binary-noise", "-0.5"], "binary noise fraction must be in [0,1], got -0.5"),
        (["--data-noise", "2"], "data noise fraction must be in [0,1], got 2.0"),
        (["--severity", "-1"], "data noise severity must be finite and >= 0, got -1.0"),
    ], ids=["semantic", "binary", "data", "severity"])
    def test_noise_setting_error_names_its_kind(self, tmp_path, capsys, flags, message):
        out = tmp_path / "d"
        capsys.readouterr()
        assert run(["gen-data", "--n", "5", "--dim", "4", "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (out / "dataset.txt").exists()


class TestTrain:
    def test_writes_artifacts(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        write_quick_config(cfg_path)
        out = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir / "dataset.txt"),
                    "--config", str(cfg_path), "--arm", "s-lq-dq",
                    "--out", str(out)]) == 0
        params, cfg = training.load_checkpoint(out / "checkpoint.ckpt")
        assert cfg.enable_dq
        log = training.load_trainlog(out / "trainlog.jsonl")
        assert {r["stage"] for r in log} == {1, 2}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["arm"] == "s-lq-dq"

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "nope.txt"),
                    "--out", str(tmp_path / "o")]) == 2

    def test_bad_config_is_config_error(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("bogus = 1\n")
        assert run(["train", "--data", str(dataset_dir / "dataset.txt"),
                    "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    # overflow warnings on the way to the divergence exit are expected
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_exit_three(self, dataset_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg = training.TrainConfig(seed=0)
        cfg.stage1 = training.StageConfig("sgd", 1e12, 3, 16)
        cfg.stage2.epochs = 1
        cfg.hidden = (8,)
        cfg.embedding_dim = 6
        training.save_config(cfg, cfg_path)
        with pytest.raises(training.TrainingDiverged) as alone:
            train_one(data.load_dataset(dataset_dir / "dataset.txt"), cfg, "s-lq-dq")
        capsys.readouterr()
        assert run(["train", "--data", str(dataset_dir / "dataset.txt"),
                    "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == f"training diverged: {alone.value}\n"
        assert err.startswith("training diverged: stage 1 diverged at epoch ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()
        # a directory the command did not make stays
        (tmp_path / "o").mkdir()
        assert run(["train", "--data", str(dataset_dir / "dataset.txt"),
                    "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        assert (tmp_path / "o").is_dir()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_data_error(self, dataset_dir, tmp_path, capsys, value):
        bad = with_feature(dataset_dir / "dataset.txt", tmp_path / "bad.txt", value)
        cfg_path = tmp_path / "cfg.txt"
        write_quick_config(cfg_path)
        capsys.readouterr()
        assert run(["train", "--data", str(bad), "--config", str(cfg_path),
                    "--out", str(tmp_path / "o")]) == 2
        assert one_line_error(capsys)
        assert not (tmp_path / "o" / "checkpoint.ckpt").exists()

    # overflow warnings on the way to the divergence exit are expected
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_removes_every_directory_it_made(self, tmp_path):
        dataset = tmp_path / "d" / "dataset.txt"
        assert run(["gen-data", "--n", "12", "--dim", "4", "--out", str(dataset.parent)]) == 0
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("stage1.optimizer = sgd\nstage1.lr = 1e12\n")
        argv = ["train", "--data", str(dataset), "--config", str(cfg_path), "--out", str(tmp_path / "a" / "b" / "c")]
        assert run(argv) == 3
        assert not (tmp_path / "a").exists()
        # a parent that was there before stays, even when empty
        (tmp_path / "a").mkdir()
        assert run(argv) == 3
        assert os.listdir(tmp_path / "a") == []

    def test_write_failure_after_first_artifact_leaves_out_as_it_was(self, dataset_dir, tmp_path, capsys,
                                                                     monkeypatch):
        cfg_path = tmp_path / "cfg.txt"
        write_quick_config(cfg_path)
        argv = ["train", "--data", str(dataset_dir / "dataset.txt"), "--config", str(cfg_path), "--out"]
        earlier = tmp_path / "earlier"
        assert run(argv + [str(earlier)]) == 0
        before = {name: (earlier / name).read_bytes() for name in os.listdir(earlier)}

        def disk_full(log, path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        monkeypatch.setattr(training, "save_trainlog", disk_full)
        for out in (tmp_path / "fresh", earlier):
            capsys.readouterr()
            assert run(argv + [str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: cannot write {out}: No space left on device\n"
        assert not (tmp_path / "fresh").exists()
        assert {name: (earlier / name).read_bytes() for name in os.listdir(earlier)} == before

    def test_directory_named_like_an_artifact_stops_every_rename(self, dataset_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        write_quick_config(cfg_path)
        out = tmp_path / "o2"
        (out / "checkpoint.ckpt").mkdir(parents=True)
        capsys.readouterr()
        assert run(["train", "--data", str(dataset_dir / "dataset.txt"), "--config", str(cfg_path),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out / 'checkpoint.ckpt'}: Is a directory\n"
        # no trainlog renamed in ahead of the blocked checkpoint, no manifest, no staging directory
        assert os.listdir(out) == ["checkpoint.ckpt"]
        assert os.listdir(out / "checkpoint.ckpt") == []

    def test_seed_flag_overrides_config(self, dataset_dir, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        write_quick_config(cfg_path)
        out = tmp_path / "run"
        assert run(["train", "--data", str(dataset_dir / "dataset.txt"),
                    "--config", str(cfg_path), "--seed", "42",
                    "--out", str(out)]) == 0
        _, cfg = training.load_checkpoint(out / "checkpoint.ckpt")
        assert cfg.seed == 42


@pytest.fixture
def trained(dataset_dir, tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    write_quick_config(cfg_path)
    out = tmp_path / "run"
    assert run(["train", "--data", str(dataset_dir / "dataset.txt"),
                "--config", str(cfg_path), "--out", str(out)]) == 0
    return out / "checkpoint.ckpt"


class TestEval:
    def test_both_modes_and_delta(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "eval"
        assert run(["eval", "--data", str(dataset_dir / "dataset.txt"),
                    "--checkpoint", str(trained), "--out", str(out)]) == 0
        rep_u = json.loads((out / "report_uncorrected.json").read_text())
        rep_c = json.loads((out / "report_corrected.json").read_text())
        delta = json.loads((out / "report_delta.json").read_text())
        for key in ("apcer", "bpcer", "acer", "hter"):
            assert delta[key] == pytest.approx(rep_c[key] - rep_u[key], abs=1e-12)
        assert (out / "predictions_corrected.csv").exists()
        assert (out / "predictions_uncorrected.csv").exists()

    def test_single_mode_flag(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "eval_c"
        assert run(["eval", "--data", str(dataset_dir / "dataset.txt"),
                    "--checkpoint", str(trained), "--corrected",
                    "--out", str(out)]) == 0
        assert (out / "report_corrected.json").exists()
        assert not (out / "report_uncorrected.json").exists()
        assert not (out / "report_delta.json").exists()

    def test_threshold_flag_honored(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "eval_t"
        assert run(["eval", "--data", str(dataset_dir / "dataset.txt"),
                    "--checkpoint", str(trained), "--threshold", "0.8",
                    "--uncorrected", "--out", str(out)]) == 0
        rep = json.loads((out / "report_uncorrected.json").read_text())
        assert rep["threshold_used"] == 0.8

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_feature_is_data_error(self, dataset_dir, trained, tmp_path, capsys, value):
        bad = with_feature(dataset_dir / "dataset.txt", tmp_path / "bad.txt", value)
        capsys.readouterr()
        assert run(["eval", "--data", str(bad), "--checkpoint", str(trained),
                    "--out", str(tmp_path / "e")]) == 2
        assert one_line_error(capsys)
        assert not (tmp_path / "e" / "report_uncorrected.json").exists()

    @pytest.mark.parametrize("damage", ["magic", "length", "header", "body", "trailing"])
    def test_damaged_checkpoint_is_data_error(self, dataset_dir, trained, tmp_path, capsys, damage):
        blob = trained.read_bytes()
        magic_len = len(training._CKPT_MAGIC)
        header_end = magic_len + 4 + int.from_bytes(blob[magic_len : magic_len + 4], "little")
        damaged = {
            "magic": blob[: magic_len - 3],
            "length": blob[: magic_len + 2],
            "header": blob[: header_end - 5],
            "body": blob[:-4],
            "trailing": blob + b"\0",
        }[damage]
        ckpt = tmp_path / "damaged.ckpt"
        ckpt.write_bytes(damaged)
        capsys.readouterr()
        assert run(["eval", "--data", str(dataset_dir / "dataset.txt"),
                    "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")]) == 2
        assert one_line_error(capsys)

    def test_non_finite_threshold_is_metric_error(self, dataset_dir, trained, tmp_path, capsys):
        out = tmp_path / "e"
        capsys.readouterr()
        assert run(["eval", "--data", str(dataset_dir / "dataset.txt"), "--checkpoint", str(trained),
                    "--threshold", "nan", "--out", str(out)]) == 2
        assert one_line_error(capsys)
        assert not out.exists()

    def test_report_matches_in_process_metrics(self, dataset_dir, trained, tmp_path):
        out = tmp_path / "eval_m"
        assert run(["eval", "--data", str(dataset_dir / "dataset.txt"),
                    "--checkpoint", str(trained), "--uncorrected",
                    "--out", str(out)]) == 0
        ds = data.load_dataset(dataset_dir / "dataset.txt")
        p_live, _, _, _ = reference_load_predictions(out / "predictions_uncorrected.csv")
        rep = metrics.evaluate(p_live, ds.c_labels(), 0.5)
        on_disk = json.loads((out / "report_uncorrected.json").read_text())
        assert on_disk["acer"] == pytest.approx(rep.acer, abs=1e-12)


@pytest.mark.parametrize("command", ["eval", "quality-report"])
def test_non_finite_checkpoint_is_data_error(dataset_dir, trained, tmp_path, capsys, command):
    blob = bytearray(trained.read_bytes())
    params, _ = training.load_checkpoint(trained)
    offset = len(blob) - 8 * params.flat.size
    for name, t in params.named_tensors():
        if name == "omega_c":
            break
        offset += 8 * t.size
    blob[offset : offset + 8] = np.float64(np.nan).tobytes()  # omega_c[0, 0]
    ckpt = tmp_path / "nan.ckpt"
    ckpt.write_bytes(bytes(blob))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, "--data", str(dataset_dir / "dataset.txt"), "--checkpoint", str(ckpt),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {ckpt}: non-finite values in parameter omega_c\n"
    assert not out.exists()


@pytest.mark.parametrize("b_dq, value", [(800.0, "inf"), (-800.0, "0.0"), (-736.0, "2.287e-320")])
@pytest.mark.parametrize("command", ["eval", "quality-report"])
def test_out_of_range_sigma_d_sq_is_data_error(dataset_dir, trained, tmp_path, capsys, command, b_dq, value):
    # a finite checkpoint whose sigma_D^2 = exp(b_dq) on every row overflows
    # to inf, underflows to 0 or is subnormal, where the corrected logits
    # overflow; tier-1 turns numpy's overflow warning into an error, so none
    # may escape on the way
    params, cfg = training.load_checkpoint(trained)
    params = params.copy()
    params.w_dq[...] = 0.0
    params.b_dq[...] = b_dq
    ckpt = tmp_path / "b_dq.ckpt"
    training.save_checkpoint(ckpt, params, config=cfg)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, "--data", str(dataset_dir / "dataset.txt"), "--checkpoint", str(ckpt),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {ckpt}: sigma_D^2 of row 0 is {value}, not finite and >= 2.2250738585072014e-308\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "quality-report"])
def test_feature_width_mismatch_is_data_error(dataset_dir, trained, tmp_path, capsys, command):
    wide = tmp_path / "wide"
    assert run(["gen-data", "--n", "10", "--dim", "5", "--seed", "0", "--out", str(wide)]) == 0
    dataset = wide / "dataset.txt"
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, "--data", str(dataset), "--checkpoint", str(trained), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {dataset} has 5 features, but {trained} was trained on 4\n"
    assert not out.exists()


class TestNoiseSweep:
    def test_row_count_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        write_quick_config(cfg_path)
        args = ["noise-sweep", "--noise-kind", "semantic", "--fractions", "0,0.5",
                "--arm", "s", "--arm", "s-lq", "--seeds", "0..1",
                "--config", str(cfg_path)]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        text = (a / "sweep.csv").read_text()
        lines = text.strip().splitlines()
        # header + 1 kind x 2 fractions x 2 arms x (2 seeds + mean + std)
        assert len(lines) == 1 + 2 * 2 * 4
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_seed_list_parsing(self, tmp_path):
        assert run(["noise-sweep", "--seeds", "5..3", "--out", str(tmp_path / "x")]) == 1
        assert run(["noise-sweep", "--seeds", "a,b", "--out", str(tmp_path / "y")]) == 1

    @pytest.mark.parametrize("flag, values, message", [
        ("--seeds", ["0,1,1"], "--seeds repeats 1"),
        ("--fractions", ["0.5,0.50"], "--fractions repeats 0.5"),
        ("--arm", ["s", "s-lq", "s"], "--arm repeats s"),
        ("--noise-kind", ["semantic", "semantic"], "--noise-kind repeats semantic"),
    ], ids=["seeds", "fractions", "arm", "noise-kind"])
    def test_repeated_value_is_usage_error(self, tmp_path, capsys, flag, values, message):
        # a repeated value would train its runs twice into one cell's mean and std
        cfg_path = tmp_path / "cfg.txt"
        write_quick_config(cfg_path)
        flags = {"--noise-kind": ["semantic"], "--fractions": ["0.5"], "--arm": ["s"], "--seeds": ["0"], flag: values}
        capsys.readouterr()
        out = tmp_path / "x"
        argv = ["noise-sweep", "--config", str(cfg_path), "--out", str(out)]
        argv += [arg for name, vals in flags.items() for value in vals for arg in (name, value)]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seeds", "--fractions"])
    def test_empty_list_is_usage_error(self, tmp_path, flag):
        for text in (",", "", " , "):
            assert run(["noise-sweep", flag, text, "--out", str(tmp_path / "x")]) == 1
        assert not (tmp_path / "x" / "sweep.csv").exists()

    def test_non_finite_threshold_is_metric_error(self, tmp_path, capsys, monkeypatch):
        # the threshold is checked before any run trains or any directory is made
        def no_training(*args, **kwargs):
            pytest.fail("trained before the threshold was checked")

        monkeypatch.setattr(training, "train_stage1_lq", no_training)
        cfg_path = tmp_path / "cfg.txt"
        write_quick_config(cfg_path)
        out = tmp_path / "s"
        capsys.readouterr()
        assert run(["noise-sweep", "--noise-kind", "semantic", "--fractions", "0", "--arm", "s",
                    "--seeds", "0", "--config", str(cfg_path), "--threshold", "nan",
                    "--out", str(out)]) == 2
        assert one_line_error(capsys)
        assert not out.exists()


class TestQualityReport:
    def test_histogram_and_separation(self, tmp_path):
        data_dir = tmp_path / "d"
        assert run(["gen-data", "--n", "30", "--dim", "8", "--seed", "0",
                    "--data-noise", "0.3", "--severity", "2.0",
                    "--out", str(data_dir)]) == 0
        cfg_path = tmp_path / "cfg.txt"
        cfg = training.TrainConfig(seed=0)
        cfg.stage1.epochs = 20
        cfg.stage2.epochs = 30
        cfg.hidden = (16,)
        cfg.embedding_dim = 8
        training.save_config(cfg, cfg_path)
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(data_dir / "dataset.txt"),
                    "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        out = tmp_path / "q"
        assert run(["quality-report", "--data", str(data_dir / "dataset.txt"),
                    "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                    "--out", str(out)]) == 0

        ds = data.load_dataset(data_dir / "dataset.txt")
        hist_lines = (out / "quality_hist.csv").read_text().strip().splitlines()[1:]
        total = sum(int(ln.split(",")[2]) + int(ln.split(",")[3]) for ln in hist_lines)
        assert total == len(ds)
        summary = json.loads((out / "quality_summary.json").read_text())
        assert summary["n"] == len(ds)
        assert summary["mean_quality_corrupted"] > summary["mean_quality_clean"]

    def test_missing_inputs_are_data_errors(self, tmp_path):
        assert run(["quality-report", "--data", str(tmp_path / "no.txt"),
                    "--checkpoint", str(tmp_path / "no.ckpt"),
                    "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("case", ["severity-nan", "severity-negative", "column-line"])
    def test_bad_dataset_is_data_error(self, dataset_dir, trained, tmp_path, capsys, case):
        src = dataset_dir / "dataset.txt"
        bad = tmp_path / "bad.txt"
        if case == "column-line":
            bad.write_text(src.read_text().replace("\nid,x0,", "\nid,y0,", 1))
            message = "column-name line"
        else:
            with_feature(src, bad, {"severity-nan": "nan", "severity-negative": "-3"}[case], field=-1)
            message = "row 0: corruption_severity"
        capsys.readouterr()
        assert run(["quality-report", "--data", str(bad), "--checkpoint", str(trained),
                    "--out", str(tmp_path / "q")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "q" / "quality.csv").exists()


class TestUnreadableInputs:
    @pytest.mark.parametrize("case", [
        "eval-checkpoint", "quality-report-checkpoint", "train-config",
        "noise-sweep-config", "train-data-dir", "eval-data-dir",
    ])
    def test_is_one_line_data_error(self, dataset_dir, tmp_path, capsys, case):
        dataset = str(dataset_dir / "dataset.txt")
        missing_ckpt = str(tmp_path / "missing.ckpt")
        missing_cfg = str(tmp_path / "missing.cfg")
        argv = {
            "eval-checkpoint": ["eval", "--data", dataset, "--checkpoint", missing_ckpt],
            "quality-report-checkpoint": ["quality-report", "--data", dataset, "--checkpoint", missing_ckpt],
            "train-config": ["train", "--data", dataset, "--config", missing_cfg],
            "noise-sweep-config": ["noise-sweep", "--config", missing_cfg],
            "train-data-dir": ["train", "--data", str(dataset_dir)],
            "eval-data-dir": ["eval", "--data", str(dataset_dir), "--checkpoint", missing_ckpt],
        }[case]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("missing" in err) if "data-dir" not in case else (str(dataset_dir) in err)
        assert not out.exists()


    @pytest.mark.parametrize("which", ["data", "config"])
    def test_non_utf8_file_is_data_error_naming_path(self, dataset_dir, tmp_path, capsys, which):
        dataset, cfg = tmp_path / "dataset.txt", tmp_path / "cfg.txt"
        text = (dataset_dir / "dataset.txt").read_bytes()
        dataset.write_bytes(text.replace(b"\n0,", b"\n\xff,", 1) if which == "data" else text)
        write_quick_config(cfg)
        if which == "config":
            cfg.write_bytes(cfg.read_bytes() + b"# caf\xff\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(["train", "--data", str(dataset), "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(dataset if which == "data" else cfg) in err and "not UTF-8" in err
        assert not out.exists()


@pytest.mark.parametrize("case", [
    "hidden = 0", "hidden = -3", "stage1.lr = nan", "stage2.lr = inf", "lambda_s = nan", "lambda_s = -1",
    "seed = -1", "train --seed -1", "gen-data --seed -1", "noise-sweep --seeds=-1..-1",
])
def test_bad_setting_is_exit_two_naming_key(dataset_dir, tmp_path, capsys, case):
    cfg = tmp_path / "cfg.txt"
    write_quick_config(cfg)
    dataset = str(dataset_dir / "dataset.txt")
    if " = " in case:  # a config line, overriding the quick config's
        cfg.write_text(cfg.read_text() + case + "\n")
        argv, key = ["train", "--data", dataset, "--config", str(cfg)], case.partition(" =")[0]
    else:
        command, *flags = case.split(" ")
        argv = [command, *flags] + {
            "train": ["--data", dataset, "--config", str(cfg)],
            "gen-data": ["--n", "5", "--dim", "4"],
            "noise-sweep": ["--config", str(cfg), "--noise-kind", "semantic", "--fractions", "0"],
        }[command]
        key = "seed"
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("case, code, message", [
    ("seeds-range", 1, "usage error: bad --seeds range 'a..3'"),
    ("magic-only", 2, "error: {data}: missing header lines"),
    ("zero-width", 2, "error: {data}: malformed metadata line: '#D=0 seed=7 categories=spoof_type:3'"),
    ("negative-epochs", 2, "error: stage1.epochs must be >= 0"),
    ("zero-embedding", 2, "error: embedding_dim must be >= 1"),
])
def test_rejection_is_one_line_and_makes_no_out(dataset_dir, tmp_path, capsys, case, code, message):
    # each is rejected before the output directory is made
    cfg, bad = tmp_path / "cfg.txt", tmp_path / "bad.txt"
    write_quick_config(cfg)
    lines = (dataset_dir / "dataset.txt").read_text().splitlines(keepends=True)
    rows = {"magic-only": lines[:1], "zero-width": [lines[0], lines[1].replace("#D=4", "#D=0"), *lines[2:]]}
    bad.write_text("".join(rows.get(case, lines)))
    settings = {"negative-epochs": "stage1.epochs = -1\n", "zero-embedding": "embedding_dim = 0\n"}
    cfg.write_text(cfg.read_text() + settings.get(case, ""))
    if case == "seeds-range":
        argv = ["noise-sweep", "--seeds", "a..3", "--config", str(cfg)]
    else:
        argv = ["train", "--data", str(bad), "--config", str(cfg)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().err == message.format(data=bad) + "\n"
    assert not out.exists()


class TestOutputRoot:
    def test_env_var_provides_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROBFAS_OUT_ROOT", str(tmp_path / "root"))
        assert run(["gen-data", "--n", "5", "--dim", "4", "--seed", "0"]) == 0
        assert (tmp_path / "root" / "gen-data" / "dataset.txt").exists()

    def test_missing_out_without_env_is_usage_error(self, monkeypatch):
        monkeypatch.delenv("PROBFAS_OUT_ROOT", raising=False)
        assert run(["gen-data", "--n", "5", "--dim", "4", "--seed", "0"]) == 1

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "file-sub"])
    def test_out_that_cannot_be_made_is_data_error(self, tmp_path, capsys, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / below if below else blocker
        capsys.readouterr()
        assert run(["gen-data", "--n", "5", "--dim", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1, err
        assert os.listdir(tmp_path) == ["blocker"] and blocker.read_text() == "kept\n"


class TestManifest:
    def test_identical_rewrite_is_noop(self, tmp_path):
        out = tmp_path / "d"
        args = ["gen-data", "--n", "5", "--dim", "4", "--seed", "0", "--out", str(out)]
        assert run(args) == 0
        assert run(args) == 0

    def test_conflicting_rewrite_is_error(self, tmp_path):
        out = tmp_path / "d"
        assert run(["gen-data", "--n", "5", "--dim", "4", "--seed", "0", "--out", str(out)]) == 0
        assert run(["gen-data", "--n", "6", "--dim", "4", "--seed", "0", "--out", str(out)]) == 2

    @pytest.mark.parametrize("damage", ["not-utf8", "directory"])
    def test_unreadable_manifest_is_data_error_naming_path(self, tmp_path, capsys, damage):
        out = tmp_path / "d"
        out.mkdir()
        manifest = out / "manifest.json"
        if damage == "not-utf8":
            manifest.write_bytes(b"\xff{}")
        else:
            manifest.mkdir()
        capsys.readouterr()
        assert run(["gen-data", "--n", "5", "--dim", "4", "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(manifest) in err
        assert [f.name for f in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", "noise-sweep", "quality-report"])
    def test_conflicting_rerun_leaves_artifacts_untouched(self, dataset_dir, tmp_path, command):
        dataset = str(dataset_dir / "dataset.txt")
        cfg_path = tmp_path / "cfg.txt"
        write_quick_config(cfg_path)
        train = ["train", "--data", dataset, "--config", str(cfg_path)]
        checkpoints = []
        for seed in ("0", "1"):
            assert run(train + ["--seed", seed, "--out", str(tmp_path / f"ckpt{seed}")]) == 0
            checkpoints.append(str(tmp_path / f"ckpt{seed}" / "checkpoint.ckpt"))
        first, conflicting = {
            "gen-data": (["gen-data", "--n", "5", "--dim", "4", "--seed", "0"],
                         ["gen-data", "--n", "5", "--dim", "4", "--seed", "1"]),
            "train": (train, train + ["--seed", "3"]),
            "eval": (["eval", "--data", dataset, "--checkpoint", checkpoints[0]],
                     ["eval", "--data", dataset, "--checkpoint", checkpoints[1]]),
            "noise-sweep": (["noise-sweep", "--noise-kind", "semantic", "--fractions", "0",
                             "--arm", "s", "--seeds", "0", "--config", str(cfg_path)],
                            ["noise-sweep", "--noise-kind", "semantic", "--fractions", "0",
                             "--arm", "s", "--seeds", "1", "--config", str(cfg_path)]),
            "quality-report": (["quality-report", "--data", dataset, "--checkpoint", checkpoints[0]],
                               ["quality-report", "--data", dataset, "--checkpoint", checkpoints[1]]),
        }[command]
        files = ["manifest.json"] + {
            "gen-data": ["dataset.txt"],
            "train": ["checkpoint.ckpt", "trainlog.jsonl"],
            "eval": [f"{kind}_{mode}.{ext}" for kind, ext in (("predictions", "csv"), ("report", "json"))
                     for mode in ("corrected", "uncorrected")] + ["report_delta.json"],
            "noise-sweep": ["sweep.csv"],
            "quality-report": ["quality.csv", "quality_hist.csv", "quality_summary.json"],
        }[command]
        out = tmp_path / "out"
        assert run(first + ["--out", str(out)]) == 0
        # exactly the command's files: no staging directory is left behind
        assert sorted(os.listdir(out)) == sorted(files)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        assert run(conflicting + ["--out", str(out)]) == 2
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        # the conflicting settings do produce other bytes when given their own directory
        assert run(conflicting + ["--out", str(tmp_path / "other")]) == 0
        assert sorted(os.listdir(tmp_path / "other")) == sorted(files)
        other = {f.name: f.read_bytes() for f in (tmp_path / "other").iterdir()}
        assert any(other[name] != data for name, data in before.items() if name != "manifest.json")

    def test_manifest_is_renamed_into_place_last(self, tmp_path, monkeypatch):
        out = tmp_path / "d"
        renamed, replace = [], os.replace

        def recording_replace(src, dst):
            renamed.append((os.path.basename(dst), sorted(os.listdir(out))))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        assert run(["gen-data", "--n", "5", "--dim", "4", "--seed", "0", "--out", str(out)]) == 0
        # each artifact appears whole, by a rename, before the manifest that vouches for it
        [(first, _), (last, listing)] = renamed
        assert (first, last) == ("dataset.txt", "manifest.json")
        assert [name for name in listing if not name.startswith(".partial-")] == ["dataset.txt"]

    def test_commands_do_not_mutate_inputs(self, dataset_dir, tmp_path):
        before = (dataset_dir / "dataset.txt").read_bytes()
        cfg_path = tmp_path / "cfg.txt"
        write_quick_config(cfg_path)
        assert run(["train", "--data", str(dataset_dir / "dataset.txt"),
                    "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
        assert (dataset_dir / "dataset.txt").read_bytes() == before
