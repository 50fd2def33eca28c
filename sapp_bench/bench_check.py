#!/usr/bin/env python3
"""Validate sapp_bench output against BENCHMARK.json.

    python3 sapp_bench/bench_check.py untraced.json traced.json
    python3 sapp_bench/bench_check.py --spec BENCHMARK.json out.json

Each file holds what `sapp_bench` prints: a JSON array of per-workload
documents. The check fails (exit 1, one line per problem on stderr) when

  * a document is not correct, reports failures, or has fail_frac != 0;
  * an untraced document lacks a declared end-to-end metric, or a traced
    one a declared per-layer metric, or a metric has the wrong unit or a
    value that is not a finite number;
  * the environment block lacks commit, nproc, pool threads, clients,
    kernel backend, topology, seed or build type;
  * the files together do not cover every declared workload, traced and
    untraced alike.

run.py applies check_doc() to every run before printing its result line.
"""
import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

ENVIRONMENT_KEYS = ("commit", "nproc", "pool_threads", "clients",
                    "kernel_backend", "topology", "seed", "build_type")


def load_spec(path=DEFAULT_SPEC):
    with open(path) as f:
        return json.load(f)


def check_metrics(found, declared, where):
    problems = []
    if not isinstance(found, dict):
        return [f"{where}: no metrics object"]
    for m in declared:
        got = found.get(m["name"])
        if got is None:
            problems.append(f"{where}: missing metric {m['name']}")
            continue
        value = got.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r} is not "
                            "a finite number")
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r},"
                            f" declared {m['unit']!r}")
    return problems


def check_doc(doc, spec):
    """Problems with one sapp_bench document; an empty list means valid."""
    where = str(doc.get("workload", "?"))
    if doc.get("traced"):
        where += " (traced)"
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if doc.get("workload") not in names:
        problems.append(f"{where}: workload not declared in BENCHMARK.json")
    if doc.get("correct") is not True:
        problems.append(f"{where}: correct is {doc.get('correct')!r}: "
                        f"{doc.get('problems')}")
    if doc.get("failed") != 0 or doc.get("fail_frac") != 0:
        problems.append(f"{where}: failed={doc.get('failed')} "
                        f"fail_frac={doc.get('fail_frac')}")
    attempted = doc.get("attempted")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"{where}: attempted={attempted!r}")
    env = doc.get("environment", {})
    for key in ENVIRONMENT_KEYS:
        if env.get(key) in (None, ""):
            problems.append(f"{where}: environment lacks {key}")
    if doc.get("traced"):
        problems += check_metrics(doc.get("layers"), spec["per_layer"], where)
    else:
        problems += check_metrics(doc.get("metrics"), spec["end_to_end"],
                                  where)
    return problems


def check_files(paths, spec):
    problems = []
    seen = {False: set(), True: set()}
    for path in paths:
        try:
            with open(path) as f:
                docs = json.load(f)
        except (OSError, ValueError) as e:
            problems.append(f"{path}: {e}")
            continue
        if not isinstance(docs, list):
            problems.append(f"{path}: not a JSON array of documents")
            continue
        for doc in docs:
            problems += [f"{path}: {p}" for p in check_doc(doc, spec)]
            seen[bool(doc.get("traced"))].add(doc.get("workload"))
    for traced, kind in ((False, "untraced"), (True, "traced")):
        for w in spec["workloads"]:
            if w["name"] not in seen[traced]:
                problems.append(f"no {kind} document for workload "
                                f"{w['name']}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", default=DEFAULT_SPEC)
    ap.add_argument("results", nargs="+")
    args = ap.parse_args()
    problems = check_files(args.results, load_spec(args.spec))
    for p in problems:
        print(p, file=sys.stderr)
    print("bench_check: " + ("ok" if not problems
                             else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
