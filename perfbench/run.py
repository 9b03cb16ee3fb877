#!/usr/bin/env python3
"""Closed-loop benchmark of the probfas command line.

One client runs one operation at a time, each a call of
``probfas.cli.main([...])`` in this process with a fresh output
directory, until ``--seconds`` have passed. Every operation's exit code,
artifact digests and invariants are checked; a miss counts as a failed
operation. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload score --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the metrics are the end-to-end ones; their times are
in reference seconds, scaled by ``SpeedProbe`` for the machine's drifting
speed (or raw, when the program used more than one core), with the raw
times and CPU seconds per wall second kept in the ``report`` line. With
``--trace 1`` every operation runs twice, untraced and then traced by
``perfbench/spans.py``, and the metrics are the per-layer ones plus the
tracing overhead. ``--smoke`` runs every workload at a tiny size, traced
and untraced, and checks the output schema and correctness, never timings.

Run it from any directory; it reads ``src/`` and writes only under
``.perfbench_work/`` and ``.perfbench_out/`` at the repository root.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFS_PATH = HERE / "refs.json"

ARMS = ("baseline", "s", "s-lq", "s-lq-dq")
# The CLI's default noise-sweep grid, pinned here so the workload does not
# move when the program's defaults do. References cover every cell; a run
# times whole rounds of the first SWEEP_ROUND cells (operation k runs cell
# k mod SWEEP_ROUND), so every run, fast or slow, times the same mix.
SWEEP_CELLS = tuple(
    [("semantic", f) for f in (0.0, 0.2, 0.5, 0.7, 1.0)]
    + [("data", f) for f in (0.0, 0.1, 0.2, 0.3, 0.5)]
)
SWEEP_ROUND = 4
# Training config of the smoke size: a few epochs of a tiny network.
SMOKE_CONFIG = """\
stage1.optimizer = adam
stage1.lr = 0.003
stage1.epochs = 3
stage1.batch_size = 32
stage2.optimizer = sgd
stage2.lr = 0.1
stage2.epochs = 2
stage2.batch_size = 32
hidden = 8
embedding_dim = 4
"""
SETUP_REPEATS = {"full": 3, "smoke": 2}
# The time ``_probe`` takes at the reference speed, about this box's median.
PROBE_REF_S = 1.5e-4
# Above this CPU seconds per wall second the program runs on more than one
# core, where it competes with the probe, so the run is not speed-scaled.
MAX_CPU_PER_WALL = 1.05
WORKLOADS = ("sweep", "score", "ingest")
# ``--seed`` picks one of this many workload seeds (seed mod REF_SEEDS):
# refs.json holds reference digests for each of them, so every run's
# outputs are checked against bytes recorded from the reference program.
# Other workload seeds reach stage-2 divergences of s-lq-dq in the timed
# sweep cells (e.g. semantic 0.0 at training seed 1138569648).
REF_SEEDS = 16


class SetupError(Exception):
    """A set-up step of the benchmark failed."""


# ---------------------------------------------------------------------------
# program under test
# ---------------------------------------------------------------------------

def import_program():
    """Import probfas from this checkout's src/, never from elsewhere."""
    if not (SRC / "probfas" / "cli.py").is_file():
        raise SetupError(f"no probfas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from probfas import cli

    if Path(cli.__file__).resolve().parent != SRC / "probfas":
        raise SetupError(f"probfas imported from {cli.__file__}, not {SRC}")
    return cli


def run_cli(cli, argv):
    """Returns (exit code, stderr text). Looks ``main`` up at call time so
    the tracer's wrapper is used when installed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().strip()


def checked_cli(cli, argv):
    rc, err = run_cli(cli, argv)
    if rc != 0:
        raise SetupError(f"`{' '.join(argv[:1])}` exited {rc}: {err}")


def _probe():
    """Seconds for a fixed bit of interpreter work: float arithmetic, dict
    stores and float formatting."""
    t0 = time.perf_counter()
    acc, table, parts = 0.0, {}, []
    for i in range(150):
        acc = acc * 0.5 + i
        table[i & 15] = acc
        parts.append(format(acc, ".17g"))
    ",".join(parts)
    return time.perf_counter() - t0


class SpeedProbe:
    """Times ``_probe`` every 20 ms from a background thread.

    The shared machine this benchmark runs on changes speed by 20-40% over
    seconds to minutes, and identical operations slow down with it. A time
    measured since ``mark()`` times ``scale(mark)`` is in reference seconds:
    what it would have taken had ``_probe`` taken PROBE_REF_S meanwhile.
    The probe costs under 1% of one core.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.wait(0.02):
            self.samples.append(_probe())

    def close(self):
        self._stop.set()
        self._thread.join()

    def mark(self):
        return len(self.samples)

    def scale(self, mark):
        window = self.samples[mark:] or self.samples[-1:] or [_probe()]
        return PROBE_REF_S / statistics.fmean(window)


def time_import():
    """Start-up cost a CLI user pays: a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import probfas.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def digest_dir(path):
    """SHA-256 of every file under path except manifests, which embed paths."""
    out = {}
    for f in sorted(Path(path).rglob("*")):
        if f.is_file() and f.name != "manifest.json":
            out[f.relative_to(path).as_posix()] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def _lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _train_checkpoint(cli, d, seed, n, config):
    """gen-data + train s-lq-dq; returns the checkpoint path."""
    checked_cli(cli, ["gen-data", "--n", str(n), "--overlap", "1.5", "--seed", str(seed),
                      "--out", str(d / "train")])
    argv = ["train", "--data", str(d / "train" / "dataset.txt"), "--arm", "s-lq-dq",
            "--seed", str(seed), "--out", str(d / "ckpt")]
    if config:
        argv += ["--config", str(config)]
    checked_cli(cli, argv)
    return d / "ckpt" / "checkpoint.ckpt"


def _write_config(d, size):
    if size != "smoke":
        return None
    d.mkdir(parents=True, exist_ok=True)
    path = d / "train.cfg"
    path.write_text(SMOKE_CONFIG, encoding="utf-8")
    return path


class Sweep:
    """One noise-sweep cell per operation: all four arms, five seeds."""

    item = "arm-run"

    def __init__(self, size):
        self.size = size
        self.n_seeds = 5 if size == "full" else 2
        self.cells = SWEEP_CELLS if size == "full" else (("semantic", 0.2), ("data", 0.3))
        self.keys = range(len(self.cells))
        self.round = SWEEP_ROUND if size == "full" else len(self.cells)
        self.items_per_op = len(ARMS) * self.n_seeds

    def setup(self, cli, d, seed):
        return {"config": _write_config(d, self.size)}

    def op_commands(self, key, inputs, seed, out):
        kind, fraction = self.cells[key]
        argv = ["noise-sweep", "--noise-kind", kind, "--fractions", repr(fraction),
                "--seeds", f"{seed}..{seed + self.n_seeds - 1}", "--out", str(out)]
        for arm in ARMS:
            argv += ["--arm", arm]
        if inputs["config"]:
            argv += ["--config", str(inputs["config"])]
        return [argv]

    def check(self, out, inputs):
        lines = _lines(out / "sweep.csv")[1:]
        raw = [ln.split(",") for ln in lines if ln.split(",")[3] not in ("mean", "std")]
        problems = []
        if len(raw) != self.items_per_op:
            problems.append(f"sweep.csv has {len(raw)} raw rows, expected {self.items_per_op}")
        if len(lines) - len(raw) != 2 * len(ARMS):
            problems.append(f"sweep.csv has {len(lines) - len(raw)} aggregate rows")
        for row in raw:
            if not all(0.0 <= float(v) <= 100.0 for v in row[4:]):
                problems.append(f"sweep.csv rate out of [0,100]: {row}")
                break
        return problems


class Score:
    """eval, both modes, of a 10,000-row dataset against a trained checkpoint."""

    item = "row"
    keys = (0,)
    round = 1

    def __init__(self, size):
        self.size = size
        self.train_n, self.eval_n = (120, 2500) if size == "full" else (10, 25)
        self.items_per_op = 4 * self.eval_n

    def setup(self, cli, d, seed):
        ckpt = _train_checkpoint(cli, d, seed, self.train_n, _write_config(d, self.size))
        checked_cli(cli, ["gen-data", "--n", str(self.eval_n), "--overlap", "1.5",
                          "--data-noise", "0.3", "--seed", str(seed), "--out", str(d / "eval")])
        return {"checkpoint": ckpt, "data": d / "eval" / "dataset.txt"}

    def op_commands(self, key, inputs, seed, out):
        return [["eval", "--data", str(inputs["data"]), "--checkpoint", str(inputs["checkpoint"]),
                 "--out", str(out)]]

    def check(self, out, inputs):
        import numpy as np

        problems = []
        for tag in ("uncorrected", "corrected"):
            lines = _lines(out / f"predictions_{tag}.csv")[1:]
            if len(lines) != self.items_per_op:
                problems.append(f"predictions_{tag}.csv has {len(lines)} rows, expected {self.items_per_op}")
            p_live = np.array([float(ln.split(",")[1]) for ln in lines])
            if not (np.all(np.isfinite(p_live)) and np.all((p_live >= 0) & (p_live <= 1))):
                problems.append(f"predictions_{tag}.csv: p_live not finite in [0,1]")
            report = json.loads((out / f"report_{tag}.json").read_text(encoding="utf-8"))
            if report["n_live"] + report["n_spoof"] != self.items_per_op:
                problems.append(f"report_{tag}.json counts {report['n_live']}+{report['n_spoof']} rows")
        return problems


class Ingest:
    """gen-data of 80,000 noisy rows, then quality-report on that file."""

    item = "row"
    keys = (0,)
    round = 1

    def __init__(self, size):
        self.size = size
        self.train_n, self.gen_n = (120, 20000) if size == "full" else (10, 30)
        self.items_per_op = 4 * self.gen_n

    def setup(self, cli, d, seed):
        return {"checkpoint": _train_checkpoint(cli, d, seed, self.train_n, _write_config(d, self.size))}

    def op_commands(self, key, inputs, seed, out):
        return [
            ["gen-data", "--n", str(self.gen_n), "--semantic-noise", "0.2", "--binary-noise", "0.05",
             "--data-noise", "0.3", "--seed", str(seed), "--out", str(out / "gen")],
            ["quality-report", "--data", str(out / "gen" / "dataset.txt"),
             "--checkpoint", str(inputs["checkpoint"]), "--out", str(out / "quality")],
        ]

    def check(self, out, inputs):
        problems = []
        rows = len(_lines(out / "gen" / "dataset.txt")) - 3  # magic, metadata and column lines
        if rows != self.items_per_op:
            problems.append(f"dataset.txt has {rows} rows, expected {self.items_per_op}")
        quality_rows = len(_lines(out / "quality" / "quality.csv")) - 1
        if quality_rows != rows:
            problems.append(f"quality.csv has {quality_rows} rows, dataset has {rows}")
        summary = json.loads((out / "quality" / "quality_summary.json").read_text(encoding="utf-8"))
        if summary["n"] != rows:
            problems.append(f"quality_summary.json n={summary['n']}, dataset has {rows}")
        return problems


def make_workload(name, size):
    return {"sweep": Sweep, "score": Score, "ingest": Ingest}[name](size)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def load_refs():
    if REFS_PATH.is_file():
        return json.loads(REFS_PATH.read_text(encoding="utf-8"))
    return {}


def ref_for(refs, name, size, seed):
    return refs.get(name, {}).get(size, {}).get(str(seed))


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------

def run_op(cli, wl, key, inputs, seed, out, expected):
    """Runs one operation; returns (seconds, problems, incorrect, record).

    ``expected`` is the reference {"exit", "files"} for this key, or None.
    Every problem makes the operation failed; it is also incorrect unless
    the only problem is a non-zero exit that the reference records.
    """
    rc, err = 0, ""
    t0 = time.perf_counter()
    try:
        for argv in wl.op_commands(key, inputs, seed, out):
            rc, err = run_cli(cli, argv)
            if rc != 0:
                break
    except Exception as exc:  # a traceback out of the CLI is a failed operation
        dt = time.perf_counter() - t0
        return dt, [f"exception {type(exc).__name__}: {exc}"], True, None
    dt = time.perf_counter() - t0
    record = {"exit": rc, "files": digest_dir(out) if rc == 0 else {}}
    problems = []
    if rc == 0:
        try:
            problems = wl.check(out, inputs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"artifact check failed: {type(exc).__name__}: {exc}"]
    if expected is not None:
        if expected["exit"] != rc:
            problems.append(f"exit {rc}, reference exit {expected['exit']}")
        for rel in sorted(set(expected["files"]) | set(record["files"])):
            if expected["files"].get(rel) != record["files"].get(rel):
                problems.append(f"digest mismatch: {rel}")
    recorded_exit = expected is not None and expected["exit"] == rc
    incorrect = bool(problems) or (rc != 0 and not recorded_exit)
    if rc != 0:
        problems.append(f"exit {rc}: {err}")
    return dt, problems, incorrect, record


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {ln.split()[-1] for ln in maps.splitlines() if "blas" in ln.lower() and ln.endswith(".so")}
    for lib in sorted(libs):
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy as np

    sources = sorted((SRC / "probfas").glob("*.py"))
    src_hash = hashlib.sha256()
    for f in sources:
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_rev": _git_rev(),
        "src_sha256": src_hash.hexdigest(),
        "src_lines": {f.stem: len(f.read_text(encoding="utf-8").splitlines()) for f in sources},
    }


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def _setup(cli, wl, workdir, seed, repeats, ref, probe):
    """Sets up ``repeats`` times; every repeat must leave identical bytes.
    Returns (inputs of the first repeat, seconds of each, their speed
    scales, problems)."""
    times, scales, problems = [], [], []
    inputs = first = None
    for r in range(repeats):
        d = workdir / f"setup{r}"
        mark = probe.mark()
        t0 = time.perf_counter()
        time_import()
        got = wl.setup(cli, d, seed)
        times.append(time.perf_counter() - t0)
        scales.append(probe.scale(mark))
        digests = digest_dir(d)
        if r == 0:
            inputs, first = got, digests
        else:
            shutil.rmtree(d, ignore_errors=True)
            if digests != first:
                problems.append(f"setup repeat {r} left different bytes than repeat 0")
    if ref is not None and ref["setup"] != first:
        problems.append("setup digests differ from the reference")
    return inputs, times, scales, problems


def run(name, seed, seconds, trace, size="full", log=print):
    """One benchmark run; returns the result object of the last output line.
    ``seed`` is folded onto the workload seeds 0..REF_SEEDS-1."""
    cli = import_program()
    wl = make_workload(name, size)
    seed_arg, seed = seed, seed % REF_SEEDS
    ref = ref_for(load_refs(), name, size, seed)
    tracer = Tracer() if trace else None
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    probe = SpeedProbe()
    try:
        inputs, setup_times, setup_scales, problems = _setup(
            cli, wl, workdir, seed, SETUP_REPEATS[size], ref, probe)
        incorrect = bool(problems)
        durations, scales, cpu_ratios, traced_durations, pair_deltas = [], [], [], [], []
        seen = {}  # op key -> first record; later runs of the key must match it
        attempted = failed = 0
        k = 0
        t_start = time.perf_counter()
        # Whole rounds only: every run times each key of the round equally often.
        while k == 0 or k % wl.round or time.perf_counter() - t_start < seconds:
            key = k % wl.round
            shipped = ref["ops"].get(str(key)) if ref is not None else None
            for traced in ((False, True) if trace else (False,)):
                out = workdir / f"op{k}{'t' if traced else ''}"
                if traced:
                    tracer.install(op_id=k)
                mark, c0, t0 = probe.mark(), time.process_time(), time.perf_counter()
                try:
                    dt, op_problems, op_incorrect, record = run_op(
                        cli, wl, key, inputs, seed, out, shipped or seen.get(key))
                finally:
                    if traced:
                        tracer.uninstall()
                shutil.rmtree(out, ignore_errors=True)
                if record is not None:
                    seen.setdefault(key, record)
                attempted += 1
                failed += bool(op_problems)
                incorrect |= op_incorrect
                problems += [f"op {k} key {key}{' traced' if traced else ''}: {p}" for p in op_problems]
                if traced:
                    traced_durations.append(dt)
                else:
                    durations.append(dt)
                    scales.append(probe.scale(mark))
                    cpu_ratios.append((time.process_time() - c0) / (time.perf_counter() - t0))
            if trace:
                pair_deltas.append(traced_durations[-1] - durations[-1])
            k += 1
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)

    # A program that uses a second core slows the probe thread too, so its
    # scales would no longer be the machine's: then times stay raw. Only
    # operations are checked: a set-up's child interpreter has read up to
    # 1.8 CPU seconds per wall second while importing numpy.
    speed_scaled = max(cpu_ratios) <= MAX_CPU_PER_WALL
    if not speed_scaled:
        setup_scales, scales = [1.0] * len(setup_scales), [1.0] * len(scales)
    op_p50 = statistics.median(durations)
    ref_durations = [d * f for d, f in zip(durations, scales)]
    if trace:
        metrics = tracer.layer_metrics(len(traced_durations))
        metrics["trace.op_s_untraced"] = (op_p50, "s")
        metrics["trace.op_s_traced"] = (statistics.median(traced_durations), "s")
        metrics["trace.overhead_s"] = (statistics.median(pair_deltas), "s")
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{name}-{size}.npz")
    else:
        metrics = {
            "setup_s": (statistics.median(t * f for t, f in zip(setup_times, setup_scales)), "s"),
            "op_s_p50": (statistics.median(ref_durations), "s"),
            "items_per_s": (wl.items_per_op * len(durations) / sum(ref_durations), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    report = {
        "workload": name, "size": size, "seed": seed_arg, "workload_seed": seed,
        "trace": trace,
        "item": wl.item, "items_per_op": wl.items_per_op,
        "ops": len(durations), "op_keys": sorted(seen),
        "op_keys_without_reference": sorted(kk for kk in seen if ref is None or str(kk) not in ref["ops"]),
        "fail_ratio": failed / attempted, "problems": problems,
        "setup_s_each": setup_times, "setup_speed_scale_each": setup_scales,
        "op_s_each": durations, "op_speed_scale_each": scales, "op_s_p50_raw": op_p50,
        "cpu_per_wall_each": cpu_ratios, "speed_scaled": speed_scaled,
    }
    log("env " + json.dumps(environment(), sort_keys=True))
    log("report " + json.dumps(report, sort_keys=True))
    for mname, (value, unit) in metrics.items():
        log(f"metric {mname} = {value:.6g} {unit}")
    return {
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# smoke
# ---------------------------------------------------------------------------

def smoke(seed):
    """Every workload at the smoke size, untraced and traced: checks that
    each run is correct, has no failed operation and prints exactly the
    metrics BENCHMARK.json declares, with their units. Returns an exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            result = run(name, seed, 0, trace, "smoke", log=lambda line: None)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            issues = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                issues.append(f"result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                issues.append(f"correct={result['correct']} failed={result['failed']}")
            if got != declared:
                issues.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")
            if not all(isinstance(v["value"], (int, float)) and v["value"] == v["value"]
                       for v in result["metrics"].values()):
                issues.append("a metric value is not a number")
            bad += bool(issues)
            print(f"smoke {name} trace={trace}: {'; '.join(issues) or 'ok'}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, correctness and schema only")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.smoke:
            return smoke(args.seed)
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
