"""Large tables split with a forked child: write_table and load_dataset must
give, byte for byte and error for error, what one process gives, whatever the
child does, and leave no child behind. The thresholds are patched down so
that small tables take the split path."""

import errno
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_load_dataset
from probfas import data, forks
from test_stacking import _gone

BLOCK = 16  # rows per block while splitting is forced


@pytest.fixture
def split(monkeypatch, forked):
    """Splits every table of two blocks or more and every dataset file, as if two
    CPUs were usable; yields the pids forked, each of which must be reaped."""
    monkeypatch.setattr(data, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setattr(data, "_SPLIT_BLOCKS", 2)
    monkeypatch.setattr(data, "_SPLIT_BYTES", 1)
    return forked


def one_process(monkeypatch, fn, *args):
    """fn(*args) with one usable CPU: the serial code."""
    with monkeypatch.context() as m:
        m.setattr(forks, "usable_cpus", lambda: 1)
        return fn(*args)


def _dies_at_once(parent):
    os._exit(1)


# ---------------------------------------------------------------------------
# write_table
# ---------------------------------------------------------------------------

def _table(n):
    """Columns for every field kind: slow-path doubles (tiny, huge, nan, inf,
    -0.0) among ordinary ones, and a %d that widens its block's slots in the
    second half."""
    rng = np.random.default_rng(n)
    g = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n)
    g[::7] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 1e-300], len(g[::7]))
    d = rng.integers(-10**6, 10**6, n).astype(float)
    d[n - 3] = -1e300  # in the child's half
    return [g, np.roll(g, 1), d, rng.integers(0, 1000, n)]


@pytest.mark.parametrize("n", [2 * BLOCK, 5 * BLOCK + 3, 9 * BLOCK - 1])
def test_write_table_equals_one_process(tmp_path, monkeypatch, split, n):
    columns = _table(n)
    row_fmt = "%.17g,%r,%d,%03d\n"
    data.write_table(tmp_path / "split.csv", "g,r,d,z\n", row_fmt, columns)
    assert len(split) == 1
    one_process(monkeypatch, data.write_table, tmp_path / "one.csv", "g,r,d,z\n", row_fmt, columns)
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_json_rows_equal_one_process(tmp_path, monkeypatch, split):
    columns = [np.column_stack(_table(3 * BLOCK)[:2])]
    data.write_table(tmp_path / "split.json", "[", "[%r,%r],", columns)
    one_process(monkeypatch, data.write_table, tmp_path / "one.json", "[", "[%r,%r],", columns)
    assert len(split) == 1
    assert (tmp_path / "split.json").read_bytes() == (tmp_path / "one.json").read_bytes()


def test_write_table_below_the_threshold_forks_nothing(tmp_path, split):
    data.write_table(tmp_path / "t.csv", "", "%d\n", [np.arange(BLOCK)])
    assert split == []


def test_a_bad_format_raises_before_a_fork(tmp_path, split):
    with pytest.raises(ValueError, match="cannot format"):
        data.write_table(tmp_path / "t.csv", "", "%d,%s\n", [np.arange(4 * BLOCK)] * 2)
    assert split == []


def test_a_child_that_dies_at_once_still_gives_the_bytes(tmp_path, monkeypatch, split):
    columns = _table(6 * BLOCK)
    monkeypatch.setattr(forks, "exit_with_parent", _dies_at_once)
    data.write_table(tmp_path / "split.csv", "", "%.17g,%r,%d,%03d\n", columns)
    assert len(split) == 1
    one_process(monkeypatch, data.write_table, tmp_path / "one.csv", "", "%.17g,%r,%d,%03d\n", columns)
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_what_a_failed_child_wrote_is_dropped(tmp_path, monkeypatch, split):
    columns = _table(6 * BLOCK)
    blocks, parent = data._blocks, os.getpid()

    def junk_then_fail(row_fmt, cols):  # in the child: more bytes than its half reach the pipe, then an error
        yield from blocks(row_fmt, cols) if os.getpid() == parent else [b"junk" * 10**4, None]

    monkeypatch.setattr(data, "_blocks", junk_then_fail)
    data.write_table(tmp_path / "split.csv", "", "%.17g,%r,%d,%03d\n", columns)
    assert len(split) == 1
    one_process(monkeypatch, data.write_table, tmp_path / "one.csv", "", "%.17g,%r,%d,%03d\n", columns)
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_a_failed_fork_gives_the_one_process_results(tmp_path, monkeypatch, split):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    columns, ds = _table(6 * BLOCK), _dataset()
    path = _saved(tmp_path, ds, monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    data.write_table(tmp_path / "split.csv", "", "%.17g,%r,%d,%03d\n", columns)
    _bit_equal(data.load_dataset(path), ds)
    one_process(monkeypatch, data.write_table, tmp_path / "one.csv", "", "%.17g,%r,%d,%03d\n", columns)
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_a_failed_pipe_gives_the_one_process_results(tmp_path, monkeypatch, split):
    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    columns, ds = _table(6 * BLOCK), _dataset()
    path = _saved(tmp_path, ds, monkeypatch)
    monkeypatch.setattr(os, "pipe", no_pipe)
    data.write_table(tmp_path / "split.csv", "", "%.17g,%r,%d,%03d\n", columns)
    data.save_dataset(ds, tmp_path / "split.txt")
    _bit_equal(data.load_dataset(path), ds)
    assert split == []
    one_process(monkeypatch, data.write_table, tmp_path / "one.csv", "", "%.17g,%r,%d,%03d\n", columns)
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert (tmp_path / "split.txt").read_bytes() == path.read_bytes()


def test_columns_too_short_for_the_childs_half_raise_as_in_one_process(tmp_path, monkeypatch, split):
    columns = [np.arange(6.0 * BLOCK), np.arange(5.0 * BLOCK)]
    with pytest.raises(ValueError) as got:
        data.write_table(tmp_path / "split.csv", "", "%d,%d\n", columns)
    with pytest.raises(ValueError) as want:
        one_process(monkeypatch, data.write_table, tmp_path / "one.csv", "", "%d,%d\n", columns)
    assert str(got.value) == str(want.value)
    assert len(split) == 1


# ---------------------------------------------------------------------------
# load_dataset
# ---------------------------------------------------------------------------

def _dataset(n_per_class=100):
    ds = data.generate_synthetic(n_per_class, 3, {"spoof_type": 3, "light": 2}, 0.5, 1)
    ds = data.inject_data_noise(data.inject_semantic_label_noise(ds, 0.3, 1), 0.3, 2.0, 1)
    ds.x[5] = [-0.0, 5e-324, 1.7976931348623157e308]
    return ds


def _bit_equal(a, b):
    assert a == b
    for (name, col_a), (_, col_b) in zip(a._columns(), b._columns()):
        assert col_a.dtype == col_b.dtype and col_a.tobytes() == col_b.tobytes(), name


def _saved(tmp_path, ds, monkeypatch):
    path = tmp_path / "dataset.txt"
    one_process(monkeypatch, data.save_dataset, ds, path)
    return path


def _middle_row(path):
    """The index of the sample row the cut falls after or in: the first newline at or
    past the middle of the file ends it."""
    blob = path.read_bytes()
    cut = blob.index(b"\n", len(blob) // 2) + 1
    return len([ln for ln in blob[:cut].splitlines() if ln.strip()]) - 3


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_load_equals_the_reference_with_blank_lines_at_the_cut(tmp_path, monkeypatch, split, newline):
    ds = _dataset()
    path = _saved(tmp_path, ds, monkeypatch)
    lines = path.read_text().splitlines()
    # blank lines between every two rows, so the cut always has blank lines beside it
    spaced = lines[:3] + [part for line in lines[3:] for part in ("", line, "", "")]
    path.write_bytes(newline.join(spaced).encode("ascii"))
    loaded = data.load_dataset(path)
    assert len(split) == 1
    _bit_equal(loaded, reference_load_dataset(path))
    _bit_equal(loaded, ds)


def test_a_child_that_dies_at_once_still_gives_the_dataset(tmp_path, monkeypatch, split):
    ds = _dataset()
    path = _saved(tmp_path, ds, monkeypatch)
    monkeypatch.setattr(forks, "exit_with_parent", _dies_at_once)
    _bit_equal(data.load_dataset(path), ds)
    assert len(split) == 1


def _mutate_row(path, row, edit):
    """The file with sample row `row` replaced by edit(row's bytes)."""
    lines = path.read_bytes().split(b"\n")
    lines[3 + row] = edit(lines[3 + row])
    path.write_bytes(b"\n".join(lines))


BAD_ROWS = {
    "unparseable field": lambda ln: ln.replace(b",", b",1x", 1),
    "wrong field count": lambda ln: ln + b",0",
    "non-UTF-8 byte": lambda ln: ln[:-1] + b"\xff",
    "bad flags": lambda ln: b",".join([*ln.split(b",")[:-2], b"012", ln.split(b",")[-1]]),
    "id out of order": lambda ln: b"7" + ln,
}


@pytest.mark.parametrize("part", ["child", "parent"])
@pytest.mark.parametrize("kind", BAD_ROWS)
def test_a_bad_row_in_either_part_gives_the_one_process_error(tmp_path, monkeypatch, split, part, kind):
    path = _saved(tmp_path, _dataset(), monkeypatch)
    middle = _middle_row(path)
    _mutate_row(path, middle + 5 if part == "child" else middle - 5, BAD_ROWS[kind])
    with pytest.raises(data.DataError) as want:
        one_process(monkeypatch, data.load_dataset, path)
    with pytest.raises(data.DataError) as got:
        data.load_dataset(path)
    assert len(split) == 1
    assert str(got.value) == str(want.value)


def test_a_file_below_the_threshold_forks_nothing(tmp_path, monkeypatch, split):
    path = _saved(tmp_path, _dataset(), monkeypatch)
    monkeypatch.setattr(data, "_SPLIT_BYTES", path.stat().st_size + 1)
    data.load_dataset(path)
    assert split == []


_STALLED_LOAD = """\
import os, sys, time
from probfas import cli, data, forks

parse, parent = data._parse_rows, os.getpid()

def stalled(source, dtype):
    if os.getpid() != parent:  # the child
        open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
        time.sleep(120)
    return parse(source, dtype)

data._parse_rows, data._SPLIT_BYTES = stalled, 1
forks.usable_cpus = lambda: 2
cli.main(["quality-report", "--data", sys.argv[2], "--checkpoint", "none", "--out", sys.argv[3]])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="children exit with their parent on Linux only")
def test_a_killed_quality_report_leaves_no_child_running(tmp_path, monkeypatch):
    path = _saved(tmp_path, _dataset(), monkeypatch)
    pids = tmp_path / "pids"
    pids.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-c", _STALLED_LOAD, str(pids), str(path), str(tmp_path / "q")], env=env)
    try:
        deadline = time.monotonic() + 60
        while not any(pids.iterdir()) and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
        children = [int(p.name) for p in pids.iterdir()]
        assert len(children) == 1
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    deadline = time.monotonic() + 20
    while not all(map(_gone, children)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(map(_gone, children))
