#!/usr/bin/env python3
"""Record the reference digests the benchmark checks operations against.

For each workload and seed this runs the set-up once and every operation
key of the workload once (all cells of the sweep grid), then stores the
exit code and the SHA-256 of every artifact (manifests excluded) in
``perfbench/refs.json``. Keys already recorded are kept, so the file only
grows; re-record a seed only on purpose, when a change is meant to move
the bytes.

    python3 perfbench/record_refs.py --seeds 0..15
"""

import argparse
import json
import shutil
import sys

import run


def record(cli, name, size, seed, entry):
    """Adds the operation keys ``entry`` lacks; its set-up must not move."""
    wl = run.make_workload(name, size)
    missing = [key for key in wl.keys if str(key) not in entry.get("ops", {})]
    if not missing:
        return False
    workdir = run.WORK / f"record-{name}-{size}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        inputs = wl.setup(cli, workdir / "setup0", seed)
        setup = run.digest_dir(workdir / "setup0")
        if entry.setdefault("setup", setup) != setup:
            raise run.SetupError(f"{name} {size} seed={seed}: set-up digests differ from refs.json")
        for key in missing:
            out = workdir / f"op{key}"
            _, problems, _, rec = run.run_op(cli, wl, key, inputs, seed, out, None)
            entry.setdefault("ops", {})[str(key)] = rec
            print(f"{name} {size} seed={seed} key={key}: exit {rec['exit']} {problems or ''}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=f"0..{run.REF_SEEDS - 1}", help="lo..hi, inclusive")
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi or lo) + 1)
    cli = run.import_program()
    refs = run.load_refs()
    for name in args.workload or run.WORKLOADS:
        for size, seed in [("smoke", 0)] + [("full", s) for s in seeds]:
            entry = refs.setdefault(name, {}).setdefault(size, {}).setdefault(str(seed), {})
            if record(cli, name, size, seed, entry):
                run.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
