"""Stacked training: the seeds of one run trained side by side as one model
with a leading replica axis must give, replica by replica, the bytes of
the same runs trained one at a time (parameters, train logs, predictions
and divergence reports), and their gradients must pass the
finite-difference oracles."""

import errno
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from probfas import cli, data, experiments, forks, generalized, inference, losses, metrics, model, training
from conftest import check_replica_gradients, selection_mask, train_one, with_grads

SEEDS = [0, 1, 2, 3, 4]


@pytest.fixture
def one_cpu(monkeypatch):
    """run_arms trains every group in this process, where a test's
    monkeypatched counters see the calls."""
    monkeypatch.setattr(forks, "usable_cpus", lambda: 1)


def benchmark_cell(seed, kind="semantic", fraction=0.2):
    return experiments.apply_noise_kind(*experiments.make_benchmark_data(seed), kind, fraction, seed)


def short_benchmark_config(seed):
    cfg = training.TrainConfig(seed=seed)
    cfg.stage1.epochs = 30
    cfg.stage2.epochs = 10
    return cfg


def tiny_config(seed, stage1=("adam", 3e-3), epochs=3, batch_size=4):
    cfg = training.TrainConfig(seed=seed)
    cfg.stage1 = training.StageConfig(*stage1, epochs, batch_size)
    cfg.stage2 = training.StageConfig("sgd", 1e-1, epochs, batch_size)
    cfg.hidden = (8,)
    cfg.embedding_dim = 6
    return cfg.validate()


def trainlog_bytes(log, path):
    training.save_trainlog(log, path)
    return path.read_bytes()


def assert_replicas_equal_single_runs(stacked, logs, trains, configs, arm, tmp_path, tests=None):
    for r, (train, cfg) in enumerate(zip(trains, configs)):
        single, single_log = train_one(train, cfg, arm)
        assert stacked.replica(r).flat.tobytes() == single.flat.tobytes(), f"replica {r} params"
        assert trainlog_bytes(logs[r], tmp_path / "stacked.jsonl") == \
            trainlog_bytes(single_log, tmp_path / "single.jsonl"), f"replica {r} trainlog"
        if tests is not None:
            X = tests[r].X()
            got = inference.predict_batch(stacked.replica(r), X, corrected=cfg.enable_dq)
            want = inference.predict_batch(single, X, corrected=cfg.enable_dq)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), f"replica {r} predictions"


class TestEquivalence:
    @pytest.mark.parametrize("arm", training.ARMS)
    def test_stack_equals_single_runs(self, arm, tmp_path):
        splits = [benchmark_cell(seed) for seed in SEEDS]
        trains = [train for train, _ in splits]
        configs = [training.arm_config(arm, short_benchmark_config(seed)) for seed in SEEDS]
        [(_, _, stacked, logs)] = training.train_arms(trains, [arm], configs)
        assert stacked.flat.shape[0] == len(SEEDS)
        assert_replicas_equal_single_runs(stacked, logs, trains, configs, arm, tmp_path,
                                          tests=[test for _, test in splits])

    def test_stage2_stack_equals_single_runs(self):
        trains = [benchmark_cell(seed, "data", 0.3)[0] for seed in SEEDS[:3]]
        configs = [training.arm_config("s-lq-dq", short_benchmark_config(seed)) for seed in SEEDS[:3]]
        stage1 = [train_one(train, cfg)[0] for train, cfg in zip(trains, configs)]
        stacked, logs = training.train_stage2_dq(model.ModelParams.stack(stage1), trains, configs)
        for r, (p, train, cfg) in enumerate(zip(stage1, trains, configs)):
            single, single_log = train_one(train, cfg, params=p)
            assert stacked.replica(r).flat.tobytes() == single.flat.tobytes()
            assert logs[r] == single_log

    def test_ragged_spoof_rows_across_replicas(self, tmp_path):
        # 12 rows in batches of 4: replica 0 has no spoof row at all,
        # replica 1 a single one (so one of its batches has exactly one) and
        # replica 2 a usual mix, so the masked semantic head sees every case
        base = data.generate_synthetic(3, 4, {"spoof_type": 3}, 0.5, seed=0)
        live = np.flatnonzero(base.c == data.LIVE)
        spoof = np.flatnonzero(base.c == data.SPOOF)
        trains = [
            base._rows(np.concatenate([live, live, live, live])),
            base._rows(np.sort(np.concatenate([live, live, live, spoof[:1], live[:2]]))),
            base,
        ]
        assert [int((t.c == data.SPOOF).sum()) for t in trains] == [0, 1, 9]
        configs = [tiny_config(seed) for seed in (3, 4, 5)]
        [(_, _, stacked, logs)] = training.train_arms(trains, ["s-lq-dq"], configs)
        assert_replicas_equal_single_runs(stacked, logs, trains, configs, "s-lq-dq", tmp_path)

    def test_noise_sweep_rows_equal_single_runs(self):
        # s-lq-dq first: its stage 2 starts from the stage 1 it shares with
        # s-lq, which must then still find that stage 1 as it was
        arms = ["s-lq-dq", "s-lq", "baseline", "s"]
        cfg = short_benchmark_config(0)
        rows = experiments.noise_sweep(["data"], {"data": [0.3]}, arms, [2, 0], cfg)
        expected = []
        for arm in arms:
            for seed in (2, 0):
                seed_cfg = training.TrainConfig.from_dict(cfg.to_dict())
                seed_cfg.seed = seed
                train, test = benchmark_cell(seed, "data", 0.3)
                [(_, _, _, (rep,))] = experiments.run_arms([(train, test)], [arm], [seed_cfg])
                expected.append(("data", 0.3, arm, seed, rep.acer, rep.apcer, rep.bpcer))
        assert rows == expected

    @pytest.mark.usefixtures("one_cpu")
    @pytest.mark.parametrize("arms, per_cell", [(None, 3), (["s-lq", "s-lq-dq"], 1), (["s-lq-dq", "s"], 2)])
    def test_noise_sweep_trains_each_stage1_configuration_once_per_cell(self, monkeypatch, arms, per_cell):
        calls = []
        train_stage1_lq = training.train_stage1_lq

        def counted(ds, config, **kwargs):
            calls.append([cfg.seed for cfg in config])
            return train_stage1_lq(ds, config, **kwargs)

        monkeypatch.setattr(training, "train_stage1_lq", counted)
        cfg = tiny_config(0, epochs=1, batch_size=64)
        experiments.noise_sweep(["semantic"], {"semantic": [0.0, 0.5]}, arms, [1, 0], cfg)
        assert calls == [[1, 0]] * 2 * per_cell

    def test_stage1_groups(self):
        configs = [tiny_config(seed) for seed in (1, 0)]
        assert experiments.stage1_groups(training.ARMS, configs) == [["baseline"], ["s"], ["s-lq", "s-lq-dq"]]
        assert experiments.stage1_groups(["s-lq-dq", "baseline", "s-lq"], configs) == \
            [["s-lq-dq", "s-lq"], ["baseline"]]

    def _run_arms_equals_one_cpu(self, monkeypatch, forked, forks_made):
        """run_arms with a second CPU, whatever the test did to its child, gives
        the bytes it gives on one CPU."""
        splits = [benchmark_cell(seed, "data", 0.3) for seed in (1, 0)]
        configs = [tiny_config(seed, epochs=2, batch_size=32) for seed in (1, 0)]
        arms = ["s-lq-dq", "baseline", "s", "s-lq"]
        got = list(experiments.run_arms(splits, arms, configs))
        assert len(forked) == forks_made
        monkeypatch.setattr(forks, "usable_cpus", lambda: 1)
        want = list(experiments.run_arms(splits, arms, configs))
        assert len(forked) == forks_made
        assert [arm for arm, *_ in got] == [arm for arm, *_ in want] == arms
        for (arm, got_cfgs, got_params, got_reports), (_, want_cfgs, want_params, want_reports) in zip(got, want):
            assert got_cfgs == want_cfgs, arm
            assert np.array_equal(got_params.flat.view(np.uint64), want_params.flat.view(np.uint64)), arm
            assert [r.to_json() for r in got_reports] == [r.to_json() for r in want_reports], arm

    def test_pooled_run_arms_equals_one_cpu(self, monkeypatch, forked):
        self._run_arms_equals_one_cpu(monkeypatch, forked, 1)

    def test_a_child_that_dies_at_once_gives_the_one_cpu_bytes(self, monkeypatch, forked):
        monkeypatch.setattr(forks, "exit_with_parent", lambda parent: os._exit(1))
        self._run_arms_equals_one_cpu(monkeypatch, forked, 1)

    def test_a_failed_pipe_gives_the_one_cpu_bytes(self, monkeypatch, forked):
        def no_pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
        self._run_arms_equals_one_cpu(monkeypatch, forked, 0)

    def test_noise_sweep_leaves_no_worker_running(self, forked):
        rows = experiments.noise_sweep(["semantic"], {"semantic": [0.5]}, None, [1, 0], tiny_config(0, epochs=1))
        assert len(rows) == len(training.ARMS) * 2 and len(forked) == 1


_STALLED_SWEEP = """\
import os, sys, time
from probfas import experiments, forks, training

def stalled(trains, arms, configs, keep_logs):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(120)
    yield from ()

training.train_arms = stalled
forks.usable_cpus = lambda: 2
list(experiments.run_arms([(None, None)], list(training.ARMS), [training.TrainConfig()]))
"""


def _gone(pid):
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="children exit with their parent on Linux only")
def test_a_killed_sweep_leaves_no_worker_running(tmp_path):
    # the command and its child each stall in train_arms; killing the command must end the child too
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-c", _STALLED_SWEEP, str(tmp_path)], env=env)
    try:
        deadline = time.monotonic() + 60
        while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
        trainers = {int(p.name) for p in tmp_path.iterdir()}
        assert proc.pid in trainers and len(trainers) == 2
        (child,) = trainers - {proc.pid}
    finally:
        proc.kill()
        proc.wait(timeout=60)
    deadline = time.monotonic() + 20
    while not _gone(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone(child)


_SWEEP_CONFIG = """\
stage1.optimizer = adam
stage1.lr = 0.003
stage1.epochs = 20
stage1.batch_size = 32
stage2.optimizer = sgd
stage2.lr = 0.1
stage2.epochs = 5
stage2.batch_size = 32
hidden = 32
embedding_dim = 16
"""


def test_sweep_csv_does_not_depend_on_blas_threads(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(_SWEEP_CONFIG)
    root = Path(__file__).resolve().parent.parent
    texts = []
    for threads in ("1", None):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads or 'default'}"
        subprocess.run(
            [sys.executable, "-m", "probfas.cli", "noise-sweep", "--noise-kind", "data", "--fractions", "0.3",
             "--seeds", "0..3", "--config", str(config), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        texts.append((out / "sweep.csv").read_bytes())
    assert texts[0] == texts[1]


class TestDivergence:
    # seeds 1, 5 and 7 diverge in stage 2 at epoch 0 on this cell
    CELL = ("binary", 0.7)

    def _seed_error(self, seed):
        train, _ = benchmark_cell(seed, *self.CELL)
        with pytest.raises(training.TrainingDiverged) as exc:
            train_one(train, training.TrainConfig(seed=seed), "s-lq-dq")
        return exc.value

    def test_sweep_raises_the_first_seed_in_list_order(self):
        kind, fraction = self.CELL
        alone = self._seed_error(7)
        assert (alone.stage, alone.epoch) == (2, 0)
        # with s-lq first, s-lq-dq's stage 2 starts from s-lq's stage 1
        for arms in (["s-lq-dq"], ["s-lq", "s-lq-dq"]):
            with pytest.raises(training.TrainingDiverged) as exc:
                experiments.noise_sweep([kind], {kind: [fraction]}, arms, list(range(7, -1, -1)))
            assert (exc.value.stage, exc.value.epoch, str(exc.value)) == (alone.stage, alone.epoch, str(alone))

    def test_the_error_survives_pickling(self):
        # a forked child sends its divergence back pickled
        exc = training.TrainingDiverged(1, 3, {"total": 1e31, "loss_s": {"spoof_type": 2.5}})
        loaded = pickle.loads(pickle.dumps(exc))
        assert type(loaded) is training.TrainingDiverged
        assert (loaded.stage, loaded.epoch, loaded.components, str(loaded)) == (1, 3, exc.components, str(exc))

    def test_four_arm_sweep_raises_the_one_cpu_error(self, monkeypatch, forked):
        # s-lq-dq, the last arm, diverges; the others train meanwhile, baseline and s in the child
        kind, fraction = self.CELL
        alone = self._seed_error(7)
        errors = []
        for cpus in (2, 1):
            monkeypatch.setattr(forks, "usable_cpus", lambda: cpus)
            with pytest.raises(training.TrainingDiverged) as exc:
                experiments.noise_sweep([kind], {kind: [fraction]}, None, list(range(7, -1, -1)))
            errors.append((exc.value.stage, exc.value.epoch, str(exc.value)))
        assert len(forked) == 1
        assert errors == [(alone.stage, alone.epoch, str(alone))] * 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_arms_out_of_group_order_train_in_arms_order(self, monkeypatch, forked):
        # a huge stage-2 lr makes s-lq-dq diverge; baseline, of another
        # stage-1 group, comes between it and s-lq, so it must train before
        # the divergence ends the one train_arms call of a CPU
        seeds = [1, 0]
        splits = [benchmark_cell(seed) for seed in seeds]
        configs = [tiny_config(seed, epochs=2, batch_size=32) for seed in seeds]
        for cfg in configs:
            cfg.stage2.lr = 1e8
        with pytest.raises(training.TrainingDiverged) as alone:
            train_one(splits[0][0], configs[0], "s-lq-dq")
        outcomes = []
        for cpus in (1, 2):
            monkeypatch.setattr(forks, "usable_cpus", lambda: cpus)
            yielded = []
            with pytest.raises(training.TrainingDiverged) as exc:
                for arm, *_ in experiments.run_arms(splits, ["s-lq", "baseline", "s-lq-dq"], configs):
                    yielded.append(arm)
            outcomes.append((yielded, exc.value.stage, exc.value.epoch, str(exc.value)))
        assert len(forked) == 1
        assert outcomes == [(["s-lq", "baseline"], 2, alone.value.epoch, str(alone.value))] * 2

    def test_cli_exits_3_with_one_line_for_all_arms(self, tmp_path, capsys, forked):
        code = cli.main(["noise-sweep", "--noise-kind", "binary", "--fractions", "0.7",
                         "--seeds", "7,6,5,4,3,2,1,0", "--out", str(tmp_path)])
        assert code == 3 and len(forked) == 1
        assert capsys.readouterr().err == f"training diverged: {self._seed_error(7)}\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_cli_exits_3_with_one_line(self, tmp_path, capsys):
        code = cli.main(["noise-sweep", "--noise-kind", "binary", "--fractions", "0.7", "--arm", "s-lq-dq",
                         "--seeds", "7,6,5,4,3,2,1,0", "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == f"training diverged: {self._seed_error(7)}\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_cli_divergence_prints_no_numpy_warning(self, tmp_path):
        # stage 2's exp() overflows on this cell; numpy's warnings would
        # print outside the in-process tests' warning filters, so run the CLI
        # as a user does
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "probfas.cli", "noise-sweep", "--noise-kind", "binary", "--fractions", "0.3",
             "--seeds", "0", "--arm", "s-lq-dq", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("training diverged: stage 2 ") and proc.stderr.count("\n") == 1, proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stage1_divergence_reports_match_single_runs(self):
        # SGD at lr 1 on these tiny sets: seed 2 diverges at epoch 3, seed
        # 7 at epoch 1, seed 0 at epoch 2; each report carries loss_s
        seeds = [2, 7, 0]
        trains = [data.generate_synthetic(6, 4, {"spoof_type": 3}, 0.5, seed=seed) for seed in seeds]
        configs = [tiny_config(seed, stage1=("sgd", 1.0), epochs=6, batch_size=8) for seed in seeds]
        alone = {}
        for seed, train, cfg in zip(seeds, trains, configs):
            with pytest.raises(training.TrainingDiverged) as exc:
                train_one(train, cfg)
            alone[seed] = exc.value
            assert "'loss_s': {'spoof_type':" in str(exc.value)
        assert [alone[seed].epoch for seed in seeds] == [3, 1, 2]
        # the stack raises the first divergence in time, seed 7's
        with pytest.raises(training.TrainingDiverged) as exc:
            training.train_stage1_lq(trains, configs)
        assert (exc.value.stage, exc.value.epoch, str(exc.value)) == (1, 1, str(alone[7]))
        # train_arms raises the first in list order, seed 2's
        with pytest.raises(training.TrainingDiverged) as exc:
            next(training.train_arms(trains, ["s-lq-dq"], configs))
        assert (exc.value.stage, exc.value.epoch, str(exc.value)) == (1, 3, str(alone[2]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_arms_raises_before_a_later_arm_trains(self, monkeypatch):
        # the sets above: baseline trains, s-lq diverges (seed 7 first in
        # time, seed 2 first in list order), and s must not start stage 1;
        # stage 1 runs for the baseline stack, the s-lq stack and seed 2 alone
        seeds = [2, 7, 0]
        trains = [data.generate_synthetic(6, 4, {"spoof_type": 3}, 0.5, seed=seed) for seed in seeds]
        configs = [tiny_config(seed, stage1=("sgd", 1.0), epochs=6, batch_size=8) for seed in seeds]
        with pytest.raises(training.TrainingDiverged) as alone:
            train_one(trains[0], configs[0], "s-lq")
        calls, yielded = [], []
        train_stage1_lq = training.train_stage1_lq
        monkeypatch.setattr(training, "train_stage1_lq",
                            lambda *args, **kwargs: calls.append(1) or train_stage1_lq(*args, **kwargs))
        with pytest.raises(training.TrainingDiverged) as exc:
            for arm, *_ in training.train_arms(trains, ["baseline", "s-lq", "s"], configs):
                yielded.append(arm)
        assert (exc.value.stage, exc.value.epoch, str(exc.value)) == (1, 3, str(alone.value))
        assert yielded == ["baseline"] and len(calls) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("arm, stage", [("s-lq", 1), ("s-lq-dq", 2)])
    def test_a_diverging_stack_of_one_is_not_trained_again(self, monkeypatch, arm, stage):
        # seed 2's set above; a huge stage-2 lr makes s-lq-dq diverge there
        train = data.generate_synthetic(6, 4, {"spoof_type": 3}, 0.5, seed=2)
        cfg = tiny_config(2, epochs=4, batch_size=8)
        cfg.stage1.optimizer, cfg.stage1.lr = ("sgd", 1.0) if stage == 1 else ("adam", 3e-3)
        cfg.stage2.lr = 1e8
        calls = []
        for name in ("train_stage1_lq", "train_stage2_dq"):
            fn = getattr(training, name)
            monkeypatch.setattr(training, name,
                                lambda *args, fn=fn, name=name, **kwargs: calls.append(name) or fn(*args, **kwargs))
        with pytest.raises(training.TrainingDiverged) as exc:
            next(training.train_arms([train], [arm], [cfg]))
        assert exc.value.stage == stage
        assert calls == ["train_stage1_lq", "train_stage2_dq"][:stage]


def _arm_outcome(trains, arm, configs, keep_logs):
    """The params bytes one arm's stack ends on, or its divergence."""
    try:
        [(_, _, params, logs)] = training.train_arms(trains, [arm], configs, keep_logs=keep_logs)
    except training.TrainingDiverged as exc:
        return exc.stage, exc.epoch, str(exc)
    assert all(logs) == keep_logs  # a log kept is never empty
    return params.flat.tobytes()


class TestUnreadWork:
    """A caller that keeps no train log gets no per-epoch figures computed,
    and an arm without LQ draws no noise; neither moves a byte of what the
    caller does read."""

    @pytest.mark.parametrize("arm", training.ARMS)
    def test_logs_off_gives_the_same_params_and_reports(self, arm):
        splits = [benchmark_cell(seed) for seed in SEEDS[:3]]
        trains = [train for train, _ in splits]
        configs = [tiny_config(seed, epochs=4, batch_size=32) for seed in SEEDS[:3]]
        with_logs = _arm_outcome(trains, arm, configs, keep_logs=True)
        assert _arm_outcome(trains, arm, configs, keep_logs=False) == with_logs
        [(_, arm_cfgs, params, reports)] = experiments.run_arms(splits, [arm], configs)
        assert params.flat.tobytes() == with_logs
        for r, ((_, test), cfg, report) in enumerate(zip(splits, arm_cfgs, reports)):
            probs, _ = inference.predict_batch(params.replica(r), test.X(), corrected=cfg.enable_dq)
            want = metrics.evaluate(probs[:, 1], test.c_labels(), 0.5, include_roc=False)
            assert report.to_json() == want.to_json(), r

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("arm", training.ARMS)
    def test_logs_off_raises_the_same_divergence(self, arm):
        # TestDivergence's SGD lr-1 sets: all arms but the baseline diverge
        # in stage 1
        seeds = [2, 7, 0]
        trains = [data.generate_synthetic(6, 4, {"spoof_type": 3}, 0.5, seed=seed) for seed in seeds]
        configs = [tiny_config(seed, stage1=("sgd", 1.0), epochs=6, batch_size=8) for seed in seeds]
        with_logs = _arm_outcome(trains, arm, configs, keep_logs=True)
        assert isinstance(with_logs, tuple) == (arm != "baseline")
        assert _arm_outcome(trains, arm, configs, keep_logs=False) == with_logs

    def test_noise_sweep_computes_no_epoch_figures(self, monkeypatch):
        def unread(*args):
            raise AssertionError("the sweep reads no train log")

        monkeypatch.setattr(training, "_stage1_figures", unread)
        cfg = tiny_config(0, epochs=2, batch_size=64)
        rows = experiments.noise_sweep(["semantic"], {"semantic": [0.5]}, None, [1, 0], cfg)
        assert len(rows) == len(training.ARMS) * 2

    @pytest.mark.parametrize("keep_logs", [True, False])
    def test_stage2_embeds_all_rows_only_for_the_log(self, monkeypatch, keep_logs):
        trains = [benchmark_cell(seed)[0] for seed in (0, 1)]
        configs = [training.arm_config("s-lq-dq", tiny_config(seed, epochs=3, batch_size=16)) for seed in (0, 1)]
        stage1, _ = training.train_stage1_lq(trains, configs)
        rows = []
        embed = model.embed
        monkeypatch.setattr(model, "embed", lambda params, X: rows.append(X.shape[1]) or embed(params, X))
        training.train_stage2_dq(stage1, trains, configs, keep_logs=keep_logs)
        n = len(trains[0])
        batches = [min(16, n - lo) for lo in range(0, n, 16)]
        assert rows == (batches + [n] * keep_logs) * 3

    @pytest.mark.usefixtures("one_cpu")
    def test_only_the_lq_stage1_run_draws_noise(self, monkeypatch):
        # a cell of all four arms trains three stage-1 runs (s-lq-dq shares
        # s-lq's); only s-lq's, the third, builds noise streams
        runs, noise_streams = [], []
        train_stage1_lq, epoch_rng = training.train_stage1_lq, training._epoch_rng

        def counted_run(datasets, configs, **kwargs):
            runs.append(configs[0].enable_lq)
            return train_stage1_lq(datasets, configs, **kwargs)

        def counted_rng(seed, stage, epoch, stream):
            if stream == 1:
                noise_streams.append((len(runs), stage, seed))
            return epoch_rng(seed, stage, epoch, stream)

        monkeypatch.setattr(training, "train_stage1_lq", counted_run)
        monkeypatch.setattr(training, "_epoch_rng", counted_rng)
        cfg = tiny_config(0, epochs=2, batch_size=64)
        experiments.noise_sweep(["semantic"], {"semantic": [0.5]}, None, [1, 0], cfg)
        assert runs == [False, False, True]
        assert noise_streams == [(3, 1, 1), (3, 1, 0)] * cfg.stage1.epochs

    @pytest.mark.usefixtures("one_cpu")
    def test_a_cell_builds_each_shuffle_stream_once(self, monkeypatch):
        # each of the cell's three stage-1 runs builds its own (seed, 1,
        # epoch) order streams; the LQ run's noise and s-lq-dq's stage 2
        # are built once, and the stage 1 s-lq-dq shares with s-lq none
        built = []
        seed_sequence = np.random.SeedSequence

        def counted(entropy=None, **kwargs):
            built.append(tuple(entropy) if isinstance(entropy, list) else entropy)
            return seed_sequence(entropy, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        seeds, epochs = [1, 0], 3
        splits = [benchmark_cell(seed) for seed in seeds]
        configs = [tiny_config(seed, epochs=epochs, batch_size=64) for seed in seeds]
        list(experiments.run_arms(splits, list(training.ARMS), configs))
        streams = [entropy for entropy in built if isinstance(entropy, tuple) and len(entropy) == 4]
        assert sorted(streams) == sorted((seed, stage, epoch, stream) for seed in seeds for epoch in range(epochs)
                                         for stage, stream in [(1, 0)] * 3 + [(1, 1), (2, 0)])


def stacked_stage_case(seeds, n=8, D=4, B=5, hidden=(6,), A=3):
    """One make_stage_case-style batch per replica, stacked; the second
    replica's batch has a single spoof row and the third none."""
    cases = []
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        p = model.init_params(D, {"spoof_type": A}, B=B, hidden=hidden, seed=seed)
        p.w_lq[...] = rng.standard_normal(p.w_lq.shape) * 0.1
        p.b_lq[...] = rng.standard_normal(p.b_lq.shape) * 0.1
        p.w_dq[...] = rng.standard_normal(p.w_dq.shape) * 0.1
        p.b_dq[...] = 0.1
        c = np.array([data.SPOOF, data.LIVE] * (n // 2))
        if k == 1:
            c[2:] = data.LIVE
        elif k == 2:
            c[:] = data.LIVE
        cases.append((p, rng.standard_normal((n, D)), c, rng.integers(0, A, n), rng.standard_normal((n, B))))
    params = model.ModelParams.stack([case[0] for case in cases])
    X, c, s, eps = (np.stack([case[i] for case in cases]) for i in range(1, 5))
    return params, X, c, {"spoof_type": s}, eps


class TestStackedGradientOracles:
    @pytest.mark.parametrize("S", [1, 3])
    @pytest.mark.parametrize("lambda_s,enable_lq", [(1.0, True), (0.5, False), (2.0, True), (0.0, True)])
    def test_stage1(self, S, lambda_s, enable_lq):
        params, X, c, s, eps = stacked_stage_case(range(10, 10 + S))

        def lg(p):
            loss, grads, _ = with_grads(losses.stage1_objective, p, X, c, s, eps,
                                        lambda_s=lambda_s, enable_lq=enable_lq)
            return loss.total, grads

        check_replica_gradients(params, lg)

    @pytest.mark.parametrize("S", [1, 3])
    def test_stage2(self, S):
        params, X, c, _, _ = stacked_stage_case(range(20, 20 + S))
        c = np.broadcast_to(np.where(np.arange(c.shape[1]) % 3 == 0, data.SPOOF, data.LIVE), c.shape).copy()

        def lg(p):
            loss, grads, _ = with_grads(losses.stage2_objective, p, model.embed(p, X), c)
            return loss.total, grads

        check_replica_gradients(params, lg, mask=selection_mask(params.replica(0), {"omega_c", "w_dq", "b_dq"}))

    def test_stacked_objectives_equal_one_model_calls(self):
        params, X, c, s, eps = stacked_stage_case([30, 31, 32])
        loss, grads, aux = with_grads(losses.stage1_objective, params, X, c, s, eps)
        for r in range(3):
            one, one_grads, one_aux = with_grads(losses.stage1_objective,
                params.replica(r), X[r], c[r], {"spoof_type": s["spoof_type"][r]}, eps[r])
            assert loss.total[r] == one.total and loss.per_sample[r].tobytes() == one.per_sample.tobytes()
            assert grads.flat[r].tobytes() == one_grads.flat.tobytes()
            assert aux["loss_s"](r) == one_aux["loss_s"](())
        assert aux["loss_s"](2) == {}


class TestRunStage:
    def test_epoch_means_are_np_mean_of_each_replicas_figures(self, tiny_params):
        # 50 one-row batches: enough for np.mean's pairwise sum to round
        # differently from a sum down the (steps, S) columns
        params = model.ModelParams.stack([tiny_params] * 3)
        totals = np.random.default_rng(0).standard_normal((2, 50, 3)) * 1e3
        calls = []

        def step(batch, eps, grads):
            epoch, j = divmod(len(calls), 50)
            calls.append(batch[0].shape)
            return {"total": totals[epoch, j]}

        cfg = training.StageConfig("sgd", 0.1, 2, 1)
        columns = [np.zeros((3, 50, tiny_params.D))]
        means = list(training.run_stage(params, columns, 1, cfg, [0, 1, 2], step))
        assert calls == [(3, 1, tiny_params.D)] * 100
        for epoch, epoch_means in means:
            for r in range(3):
                assert epoch_means["total"][r] == np.mean(list(totals[epoch, :, r]))


    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_raises_the_first_diverged_replica_before_its_step(self, tiny_params, optimizer):
        # two-row epochs in one-row batches; at step 3 (epoch 1, batch 1)
        # replicas 1 and 2 go non-finite, and replica 1 is reported
        params = model.ModelParams.stack([tiny_params] * 3)
        totals = np.ones((6, 3))
        totals[3, 1:] = [np.inf, np.nan]
        seen = []

        def step(batch, eps, grads):
            j = len(seen)
            seen.append(params.flat.copy())
            grads.flat += 1.0
            return {
                "total": totals[j], "rank": np.arange(3) + 10.0 * j, "per_replica": lambda r: {"j": j, "r": r},
            }

        cfg = training.StageConfig(optimizer, 0.5, 3, 1)
        with pytest.raises(training.TrainingDiverged) as exc:
            list(training.run_stage(params, [np.zeros((3, 2, tiny_params.D))], 2, cfg, [0, 1, 2], step))
        assert (exc.value.stage, exc.value.epoch) == (2, 1)
        assert exc.value.components == {"total": np.inf, "rank": 31.0, "per_replica": {"j": 3, "r": 1}}
        assert len(seen) == 4 and not np.array_equal(seen[2], seen[3])
        assert params.flat.tobytes() == seen[3].tobytes()


    @pytest.mark.parametrize("stage", ["stage1", "stage2", "tagger"])
    def test_a_stage_allocates_one_gradient_struct_whatever_its_steps(self, monkeypatch, tiny_dataset, stage):
        # one step (one epoch of one batch) against 64 (four epochs of
        # 16 three-row batches): the struct is the stage's, not the step's
        one_model = model.init_params(tiny_dataset.feature_dim, tiny_dataset.categories, B=6, hidden=(8,))
        stack = model.ModelParams.stack([one_model])
        calls = []
        for name in ("zeros_like", "with_flat"):
            def counted(self, *args, _original=getattr(model.ModelParams, name), _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(model.ModelParams, name, counted)
        counts = []
        for epochs, batch_size in [(1, len(tiny_dataset)), (4, 3)]:
            cfg = tiny_config(0, epochs=epochs, batch_size=batch_size)
            calls.clear()
            if stage == "stage1":
                training.train_stage1_lq([tiny_dataset], [cfg], keep_logs=False)
            elif stage == "stage2":
                training.train_stage2_dq(stack, [tiny_dataset], [cfg], keep_logs=False)
            else:
                generalized.train_tagger(tiny_dataset, "spoof_type", cfg)
            counts.append({name: calls.count(name) for name in ("zeros_like", "with_flat")})
        assert counts[0] == counts[1]
        assert counts[0]["zeros_like"] == 1


class TestStackChecks:
    def test_configs_may_differ_in_seed_only(self, tiny_dataset):
        other = tiny_config(1)
        other.lambda_s = 0.5
        with pytest.raises(training.ConfigError, match="seed only"):
            training.train_stage1_lq([tiny_dataset, tiny_dataset], [tiny_config(0), other])

    def test_one_config_per_dataset(self, tiny_dataset):
        with pytest.raises(training.ConfigError, match="one config per dataset"):
            training.train_stage1_lq([tiny_dataset, tiny_dataset], [tiny_config(0)])

    def test_datasets_must_share_their_shape(self, tiny_dataset):
        smaller = tiny_dataset._rows(np.arange(len(tiny_dataset) - 1))
        with pytest.raises(data.DataError, match="one size"):
            training.train_stage1_lq([tiny_dataset, smaller], [tiny_config(0), tiny_config(1)])

    def test_parameters_must_match_the_stack(self, tiny_dataset, tiny_params):
        with pytest.raises(training.ConfigError, match="replicas"):
            training.train_stage2_dq(model.ModelParams.stack([tiny_params] * 2), [tiny_dataset] * 3,
                                     [tiny_config(s) for s in range(3)])
        # one model's (P,) parameters are not a stack of one
        with pytest.raises(training.ConfigError, match="replicas"):
            training.train_stage2_dq(tiny_params, [tiny_dataset], [tiny_config(0)])

    def test_training_takes_lists_only(self, tiny_dataset, tiny_params):
        with pytest.raises(training.ConfigError, match="list of one"):
            training.train_stage1_lq(tiny_dataset, tiny_config(0))
        with pytest.raises(training.ConfigError, match="list of one"):
            training.train_stage2_dq(model.ModelParams.stack([tiny_params]), tiny_dataset, tiny_config(0))
        with pytest.raises(training.ConfigError, match="list of one"):
            next(training.train_arms(tiny_dataset, ["s"], tiny_config(0)))
