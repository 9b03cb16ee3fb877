"""Seeded input mutations through every CLI command.

Each command reads some of a dataset, a config, a checkpoint and the
``manifest.json`` of its output directory. Every mutant of one of those
files (a bit flip, a truncation, an inserted ``nan``/``inf``/``1e308``/CR/
``#``/newline, or one field spliced over another) must end in exit 0, 2 or
3; a non-zero exit prints exactly one line, ``error: ...`` or ``training
diverged: ...``, and leaves the output directory as it found it (holding
the mutant manifest, or not there at all); no mutant ends in a traceback.
Each pair's mutants come from ``random.Random(f"{SEED}:{command}:{input}")``,
so a failure names a reproducible mutant.

A checkpoint's header is also mutated by name (a tensor renamed, added,
dropped, reordered or reshaped to its own size, a shape entry that is not
an integer, another version, a non-empty extra field), the body kept in
agreement with the declared sizes: ``eval`` and ``quality-report`` must
exit 2 with one ``error:`` line that names the checkpoint.

A size that no memory can hold (``--n``, ``--dim``, ``--spoof-types``, a
``--seeds`` range, a config's ``embedding_dim`` or ``hidden``, a dataset's
declared D, a checkpoint's declared width) must exit 2 with one ``error:``
line that names the command, or the file that declares the size, leaving
``--out`` and its parents unmade.
"""

import json
import math
import os
import random
import re
import shutil

import pytest

from probfas import cli, training

SEED = 1018
MUTANTS_PER_INPUT = 30
INSERTS = (b"nan", b"inf", b"-inf", b"1e308", b"\r", b"#", b"\n")
FIELD_SEPARATORS = re.compile(rb"([,=:\n ])")


def mutate(blob, rng):
    """One seeded mutation of a file's bytes, and its name."""
    kind = rng.choice(("flip", "truncate", "insert", "splice"))
    if kind == "flip":
        at = rng.randrange(len(blob))
        bit = rng.randrange(8)
        return blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:], f"flip bit {bit} of byte {at}"
    if kind == "truncate":
        at = rng.randrange(len(blob))
        return blob[:at], f"truncate at {at}"
    if kind == "insert":
        at, text = rng.randrange(len(blob) + 1), rng.choice(INSERTS)
        return blob[:at] + text + blob[at:], f"insert {text!r} at {at}"
    fields = FIELD_SEPARATORS.split(blob)  # fields at even indices
    dst, src = rng.randrange(0, len(fields), 2), rng.randrange(0, len(fields), 2)
    fields[dst] = fields[src]
    return b"".join(fields), f"splice field {src} over field {dst}"


def contents(out):
    """Every entry of out with its bytes, or None when out does not exist."""
    if not out.exists():
        return None
    return {name: (out / name).read_bytes() for name in os.listdir(out)}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """One clean run of every command: its inputs and output directories."""
    root = tmp_path_factory.mktemp("clean")
    config = root / "config.txt"
    cfg = training.TrainConfig(seed=0)
    cfg.stage1 = training.StageConfig("adam", 3e-3, 2, 32)
    cfg.stage2 = training.StageConfig("sgd", 1e-1, 2, 32)
    cfg.hidden, cfg.embedding_dim = (8,), 6
    training.save_config(cfg, config)
    paths = {"config": config, "dataset": root / "gen-data" / cli.DATASET_FILENAME,
             "checkpoint": root / "train" / cli.CHECKPOINT_FILENAME}
    commands = {
        "gen-data": ["gen-data", "--n", "10", "--dim", "4", "--spoof-types", "3", "--overlap", "0.5",
                     "--data-noise", "0.2", "--seed", "3"],
        "train": ["train", "--data", "{dataset}", "--config", "{config}"],
        "eval": ["eval", "--data", "{dataset}", "--checkpoint", "{checkpoint}"],
        "noise-sweep": ["noise-sweep", "--noise-kind", "semantic", "--fractions", "0.5", "--arm", "s-lq-dq",
                        "--seeds", "0", "--config", "{config}"],
        "quality-report": ["quality-report", "--data", "{dataset}", "--checkpoint", "{checkpoint}"],
    }
    for command, argv in commands.items():
        assert cli.main([arg.format(**paths) for arg in argv] + ["--out", str(root / command)]) == 0
    return root, paths, commands


# (command, the input it reads); every command also reads its manifest
CASES = [("gen-data", "manifest"), ("train", "dataset"), ("train", "config"), ("train", "manifest"),
         ("eval", "dataset"), ("eval", "checkpoint"), ("eval", "manifest"), ("noise-sweep", "config"),
         ("noise-sweep", "manifest"), ("quality-report", "dataset"), ("quality-report", "checkpoint"),
         ("quality-report", "manifest")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, target", CASES)
def test_mutated_input_gives_a_documented_exit(clean, tmp_path, capsys, command, target):
    root, paths, commands = clean
    rng = random.Random(f"{SEED}:{command}:{target}")
    source = root / command / cli.MANIFEST_FILENAME if target == "manifest" else paths[target]
    blob = source.read_bytes()
    for k in range(MUTANTS_PER_INPUT):
        mutant, how = mutate(blob, rng)
        inputs, out = dict(paths), tmp_path / f"out{k}"
        if target == "manifest":
            out.mkdir()
            (out / cli.MANIFEST_FILENAME).write_bytes(mutant)
        else:
            inputs[target] = tmp_path / f"{target}{k}"
            inputs[target].write_bytes(mutant)
        argv = [arg.format(**inputs) for arg in commands[command]] + ["--out", str(out)]
        label = f"{command} with {target} mutant {k} ({how})"
        before = contents(out)
        try:
            code = cli.main(argv)
        except Exception as exc:  # the traceback a user would see
            pytest.fail(f"{label} raised {exc!r}")
        stdout, err = capsys.readouterr()
        assert code in (0, 2, 3), f"{label}: exit {code}: {err!r}"
        assert "Traceback" not in stdout + err, label
        if code:
            prefix = "training diverged: " if code == 3 else "error: "
            assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), f"{label}: {err!r}"
            # a failed run leaves no artifact, staging directory or new directory
            assert contents(out) == before, label
        shutil.rmtree(out, ignore_errors=True)


def split_checkpoint(blob):
    """(header dict, body bytes) of a checkpoint file."""
    start = len(training._CKPT_MAGIC) + 4
    end = start + int.from_bytes(blob[start - 4 : start], "little")
    return json.loads(blob[start:end]), blob[end:]


def join_checkpoint(header, body):
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return training._CKPT_MAGIC + len(text).to_bytes(4, "little") + text + body


HEADER_MUTANTS = ("renamed-layer", "renamed-head", "added", "dropped", "reordered", "reshaped",
                  "string-shape", "float-shape", "version-2", "extra-arrays", "extra-meta", "config-hidden")


def mutate_header(kind, header, body):
    """Applies one named mutation to a header in place; returns the body,
    grown or cut where a tensor is added or dropped so that its size still
    agrees with the header's shapes."""
    tensors = header["tensors"]
    names = [spec["name"] for spec in tensors]
    if kind == "renamed-layer":
        tensors[names.index("layers.1.W")]["name"] = "layers.x.W"
    elif kind == "renamed-head":
        tensors[names.index("w_dq")]["name"] = "w_dx"
    elif kind == "added":
        tensors.append({"name": "foo", "shape": [3]})
        return body + bytes(24)
    elif kind == "dropped":
        i = names.index("b_dq")
        at = 8 * sum(math.prod(spec["shape"]) for spec in tensors[:i])
        del tensors[i]
        return body[:at] + body[at + 8 :]
    elif kind == "reordered":
        i, j = names.index("w_lq"), names.index("b_lq")
        tensors[i], tensors[j] = tensors[j], tensors[i]
    elif kind == "reshaped":  # (6,) and (6,) become (3,) and (9,): the same total size
        tensors[names.index("w_dq")]["shape"] = [3]
        tensors[names.index("b_lq")]["shape"] = [9]
    elif kind == "string-shape":
        tensors[0]["shape"] = [8, "4"]
    elif kind == "float-shape":
        tensors[0]["shape"] = [8, 4.0]
    elif kind == "version-2":
        header["version"] = 2
    elif kind == "extra-arrays":
        header["extra_arrays"] = [{"name": "stats", "shape": [2]}]
    elif kind == "extra-meta":
        header["extra_meta"] = {"note": "kept"}
    elif kind == "config-hidden":  # the config disagrees with the layer widths
        header["config"]["hidden"] = [32]
    return body


@pytest.mark.parametrize("command", ["eval", "quality-report"])
@pytest.mark.parametrize("kind", HEADER_MUTANTS)
def test_checkpoint_header_mutant_is_one_line_naming_the_file(clean, tmp_path, capsys, command, kind):
    _, paths, commands = clean
    blob = paths["checkpoint"].read_bytes()
    header, body = split_checkpoint(blob)
    assert join_checkpoint(header, body) == blob  # so a mutant differs by its mutation only
    ckpt = tmp_path / "mutant.ckpt"
    ckpt.write_bytes(join_checkpoint(header, mutate_header(kind, header, body)))
    out = tmp_path / "out"
    argv = [arg.format(**{**paths, "checkpoint": ckpt}) for arg in commands[command]] + ["--out", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1, err
    assert not out.exists()


# Sizes that no memory can hold: each asks numpy or Python for 1 TiB or more
# at once, or is declared by a file whose other bytes cannot hold it, so the
# command fails before it writes a byte, forks or starts a thread. A size
# declared by a file ("{sized}") is named by that file's path, any other by
# the command.
HUGE = 10 ** 12
SIZE_CASES = {
    "n": ["gen-data", "--n", str(HUGE)],
    "dim": ["gen-data", "--n", "10", "--dim", str(HUGE // 10)],
    "spoof_types": ["gen-data", "--n", "1", "--spoof-types", str(HUGE)],
    "seeds": ["noise-sweep", "--seeds", f"0..{HUGE}"],
    "embedding_dim": ["train", "--data", "{dataset}", "--config", "{config}"],
    "hidden": ["train", "--data", "{dataset}", "--config", "{config}"],
    "dataset_D": ["eval", "--data", "{sized}", "--checkpoint", "{checkpoint}"],
    "checkpoint_width": ["quality-report", "--data", "{dataset}", "--checkpoint", "{sized}"],
}


def sized_file(case, paths, path):
    """Writes to path the clean input of a file case declaring HUGE: the
    dataset's D, or the checkpoint's first hidden width (its tensors and
    config kept in agreement)."""
    if case == "dataset_D":
        magic, meta, rest = paths["dataset"].read_bytes().split(b"\n", 2)
        path.write_bytes(b"\n".join([magic, meta.replace(b"D=4 ", f"D={HUGE} ".encode()), rest]))
        return
    header, body = split_checkpoint(paths["checkpoint"].read_bytes())
    shapes = {spec["name"]: spec["shape"] for spec in header["tensors"]}
    shapes["layers.0.W"][0] = shapes["layers.0.b"][0] = shapes["layers.1.W"][1] = HUGE
    header["config"]["hidden"] = [HUGE]
    path.write_bytes(join_checkpoint(header, body))


@pytest.mark.parametrize("case", SIZE_CASES)
def test_a_size_no_memory_holds_is_one_line_and_exit_2(clean, tmp_path, capsys, case):
    _, paths, _ = clean
    cfg = training.load_config(paths["config"])
    if case == "embedding_dim":
        cfg.embedding_dim = HUGE
    elif case == "hidden":
        cfg.hidden = (HUGE,)
    config = tmp_path / "sized.cfg"
    training.save_config(cfg, config)
    sized = tmp_path / "sized.input"
    if "{sized}" in SIZE_CASES[case]:
        sized_file(case, paths, sized)
    out = tmp_path / "made" / "out"
    argv = [arg.format(**{**paths, "config": config, "sized": sized}) for arg in SIZE_CASES[case]] + ["--out", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    named = sized if "{sized}" in SIZE_CASES[case] else argv[0]
    assert err.startswith(f"error: {named}: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert not (tmp_path / "made").exists()
