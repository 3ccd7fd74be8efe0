"""arrkit benchmark: run one workload for a while, check its outputs, print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports arrkit from ./src. Each round is a fresh
interpreter (benchmark/round.py). Rounds repeat while another one still fits in
--seconds, and the run always makes at least one. Two more set-up-only interpreters
give setup_s three samples. Metrics are medians over the rounds. With --trace 0 it
prints the end-to-end metrics; with --trace 1 the rounds are traced and it prints the
per-layer metrics. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "run_dir_mb": "MB"}
SETUP_ONLY = 2  # extra set-ups per run, so setup_s is a median of at least three
ROUND_TIMEOUT = 170
BLAS_THREADS = "1"


def git_revision(root: str) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, "r", encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(loose):
        with open(loose, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return ref


def src_lines(root: str) -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "arrkit", "*.py"))):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def spawn_round(root, env, args, work, result_path, setup_only=False):
    """One fresh interpreter; returns (result dict, seconds from spawn to exit, spawn time)."""
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--work", work,
           "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    log_path = result_path + ".log"
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=ROUND_TIMEOUT)
        wall = time.monotonic() - t_spawn
    if proc.returncode != 0:
        with open(log_path, "r", encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"round exited with {proc.returncode}:\n{tail}")
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh), wall, t_spawn


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "arrkit", "__init__.py")):
        sys.stderr.write("benchmark: ./src/arrkit not found; run from the root of an arrkit "
                         "checkout\n")
        return 2
    # relative, so the configs (and with them the artifact digest) match in any checkout
    work = os.path.relpath(os.path.join(HERE, "_work", args.workload), root)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""),
        OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS, PYTHONDONTWRITEBYTECODE="1",
    )

    setups = []
    for i in range(SETUP_ONLY):
        res, _, t_spawn = spawn_round(root, env, args, work,
                                      os.path.join(work, f"setup{i}.json"), setup_only=True)
        setups.append(res["setup_end"] - t_spawn)
    rounds = []
    t0 = time.monotonic()
    while True:
        res, wall, t_spawn = spawn_round(root, env, args, work,
                                         os.path.join(work, f"round{len(rounds)}.json"))
        res["setup_s"] = res["run_start"] - t_spawn
        setups.append(res["setup_s"])
        rounds.append(res)
        if time.monotonic() - t0 + wall > args.seconds:
            break

    problems = []
    for k, r in enumerate(rounds):
        problems += [f"round {k} {name}: {why}" for name, why in r["checks"].items() if why != "ok"]
        problems += [f"round {k} {err}" for err in r.get("errors", [])]
    if not rounds[0]["arrkit_file"].startswith(os.path.join("src", "arrkit") + os.sep):
        problems.append(f"arrkit was imported from {rounds[0]['arrkit_file']}, not ./src")
    digests = [r["digest"] for r in rounds]
    try:
        checks.check_same_digest(digests)
    except checks.CheckFailed as exc:
        problems.append(str(exc))

    def median(key):
        return statistics.median(r[key] for r in rounds)

    if args.trace:
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            values = [r["layers"][name] for r in rounds]
            if name in EXACT_COUNTS and len(set(values)) > 1:
                problems.append(f"count {name} differs between rounds: {values}")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        metrics = {name: {"value": statistics.median(setups) if name == "setup_s" else median(name),
                          "unit": unit} for name, unit in END_TO_END.items()}

    first = rounds[0]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "run_s_per_round": [round(r["run_s"], 4) for r in rounds],
        "setup_s_samples": [round(s, 4) for s in setups],
        "nproc": os.cpu_count(),
        "python": first["python"],
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "arrkit_file": first["arrkit_file"],
        "blas_threads": BLAS_THREADS,
        "git_revision": git_revision(root),
        "src_arrkit_lines": src_lines(root),
        "artifact_digest": digests[0] if len(set(digests)) == 1 else digests,
        "checks": first["checks"],
    }
    print("info " + json.dumps(info, sort_keys=True))
    for p in problems:
        print("problem " + p)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    ops = [ok for r in rounds for _, ok in r["ops"]]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(not ok for ok in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
