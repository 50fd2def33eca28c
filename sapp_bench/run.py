#!/usr/bin/env python3
"""Build sapp_bench from source, run one workload, print one result line.

    python3 sapp_bench/run.py --workload serving_hot --seed 1 --seconds 30 \\
        --trace 0

Run from the repository root. The first run configures and builds the
sapp library and the sapp_bench program under .bench_build/ (about a
minute on four cores); later runs only rebuild what changed. The
program's full JSON document is kept in .bench_build/last-<workload>.json
and, with --trace 1, the spans in .bench_build/trace-<workload>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: every end_to_end metric of
BENCHMARK.json with --trace 0, every per_layer metric with --trace 1.
Build logs and diagnostics go to standard error. The exit code is 0 only
when the build, the run and the output check all succeed; a run whose
outputs were wrong still prints its line, with "correct": false.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import bench_check  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
# A run must end within 180 s; leave room for start-up and the check.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the program; its path, or None."""
    bdir = os.path.join(BUILD, "sapp_bench")
    tmp = os.path.join(BUILD, "tmp")  # keeps compiler temporaries in here
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    # Configure until a build system exists (a failed configure leaves a
    # cache but no build system behind).
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "sapp_bench",
                  "-j", str(max(1, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            log("run.py: build step failed:", " ".join(cmd))
            return None
    return os.path.join(bdir, "sapp_bench")


def source_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    # SIGTERM unwinds through subprocess.run, which kills and reaps the
    # running child instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = bench_check.load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"run.py: unknown workload {args.workload}")
        return 2
    binary = build()
    if binary is None:
        return 2

    work = os.path.join(BUILD, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--commit", source_id(),
           "--work-dir", work]
    if args.trace:
        cmd += ["--trace", "--trace-out",
                os.path.join(BUILD, f"trace-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        log(f"run.py: sapp_bench exceeded {RUN_TIMEOUT_S} s")
        return 3
    try:
        docs = json.loads(proc.stdout)
        doc = docs[0]
    except (ValueError, IndexError, KeyError) as e:
        log(f"run.py: sapp_bench (exit {proc.returncode}) printed no "
            f"document: {e}")
        return 3
    with open(os.path.join(BUILD, f"last-{args.workload}.json"), "w") as f:
        json.dump(docs, f, indent=1)

    problems = bench_check.check_doc(doc, spec)
    for p in problems:
        log("run.py:", p)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    found = doc.get("layers" if args.trace else "metrics") or {}
    if any(m["name"] not in found for m in declared):
        return 3  # nothing trustworthy to print
    print(json.dumps({
        "correct": bool(doc.get("correct")) and proc.returncode == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": found[m["name"]]["value"],
                                "unit": found[m["name"]]["unit"]}
                    for m in declared},
    }))
    return 0 if proc.returncode == 0 and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
