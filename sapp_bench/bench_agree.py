#!/usr/bin/env python3
"""Compare two sets of sapp_bench results, metric by metric.

    # Run pairs: checkout A and checkout B alternate which runs first,
    # both sides of pair i use seed SEED+i.
    python3 sapp_bench/bench_agree.py collect --a ../parent --b . \\
        --out ab --pairs 10

    # Do two sets of one commit agree? Per workload x end-to-end metric:
    # each set's median and quartiles, and whether the medians differ by
    # no more than the metric's BENCHMARK.json bound.
    python3 sapp_bench/bench_agree.py agree ab/a ab/b

    # Did B (the change) beat A (the parent)? Pairs are matched by index.
    python3 sapp_bench/bench_agree.py compare ab/a ab/b

A result set is a directory of JSON files: records written by `collect`,
or raw `sapp_bench` output (an array of per-workload documents, numbered
by file-name order). A run that exited non-zero, printed no result or
reported wrong outputs is a failed run; `agree` and `compare` exit 1 when
a set holds one, and `compare` also when a pair of A has no B run.
`compare` applies the rules of a gain claim: B wins at least 9 of every
10 pairs (ties count for neither) and the medians differ by more than A's
own quartile spread. Every other metric must not be worse by more than
its bound; where A's spread is wider than the bound and B does not beat
every A run, the metric is unresolved.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_set(path):
    """{workload: {pair: {metric: value} or None}}.

    None marks a failed run: it exited non-zero, printed no result, or
    reported wrong outputs.
    """
    runs = {}
    for i, name in enumerate(sorted(glob.glob(os.path.join(path, "*.json")))):
        with open(name) as f:
            data = json.load(f)
        if isinstance(data, list):
            for doc in data:
                if not doc.get("traced"):
                    values = {k: v["value"] for k, v in doc["metrics"].items()}
                    runs.setdefault(doc["workload"], {})[i] = (
                        values if doc["correct"] else None)
        else:
            res = data.get("result")
            ok = data.get("exit") == 0 and res and res.get("correct")
            runs.setdefault(data["workload"], {})[data["pair"]] = (
                {k: v["value"] for k, v in res["metrics"].items()}
                if ok else None)
    return runs


def report_failed(name, runs, w):
    """Print the failed runs of one set; return how many there were."""
    failed = sorted(p for p, v in runs.get(w, {}).items() if v is None)
    if failed:
        print(f"{w}: set {name} has failed runs (pairs {failed})",
              file=sys.stderr)
    return len(failed)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def fmt(v):
    return f"{v:.4g}"


def table(header, rows):
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for r in rows:
        print("| " + " | ".join(str(c) for c in r) + " |")


def agree(args, spec):
    a, b = load_set(args.a), load_set(args.b)
    rows, ok = [], True
    for w in (w["name"] for w in spec["workloads"]):
        if report_failed("A", a, w) + report_failed("B", b, w):
            ok = False
        va_runs = [v for v in a.get(w, {}).values() if v is not None]
        vb_runs = [v for v in b.get(w, {}).values() if v is not None]
        if not va_runs or not vb_runs:
            print(f"no good runs of {w} in one of the sets", file=sys.stderr)
            ok = False
            continue
        for m in spec["end_to_end"]:
            va = [r[m["name"]] for r in va_runs]
            vb = [r[m["name"]] for r in vb_runs]
            ma, mb = statistics.median(va), statistics.median(vb)
            diff = (mb - ma) / ma
            within = abs(diff) <= m["bound"]
            ok = ok and within
            qa, qb = quartiles(va), quartiles(vb)
            rows.append([w, m["name"], f"{len(va)}/{len(vb)}",
                         f"{fmt(ma)} [{fmt(qa[0])}, {fmt(qa[1])}]",
                         f"{fmt(mb)} [{fmt(qb[0])}, {fmt(qb[1])}]",
                         f"{diff:+.1%}", f"{m['bound']:.0%}",
                         "yes" if within else "NO"])
    table(["workload", "metric", "runs A/B", "A median [q1, q3]",
           "B median [q1, q3]", "B vs A", "bound", "agree"], rows)
    return 0 if ok else 1


def compare(args, spec):
    a, b = load_set(args.a), load_set(args.b)
    rows, regressions, broken = [], 0, 0
    for w in (w["name"] for w in spec["workloads"]):
        ra, rb = a.get(w, {}), b.get(w, {})
        if not ra:
            print(f"{w}: no runs in set A", file=sys.stderr)
            broken += 1
            continue
        report_failed("A", a, w)
        # Pairs are matched by index. A B run that is missing, crashed or
        # gave wrong outputs fails the comparison and wins no pair.
        failed_b = sum(rb.get(p) is None for p in ra)
        if failed_b:
            print(f"{w}: {failed_b} of {len(ra)} B runs missing or failed",
                  file=sys.stderr)
            broken += 1
        pairs = [(ra[p], rb[p]) for p in sorted(ra)
                 if ra[p] is not None and rb.get(p) is not None]
        if not pairs:
            continue
        for m in spec["end_to_end"]:
            sign = 1 if m["better"] == "higher" else -1
            va = [x[m["name"]] for x, _ in pairs]
            vb = [y[m["name"]] for _, y in pairs]
            wins = sum(sign * (y - x) > 0 for x, y in zip(va, vb))
            ma, mb = statistics.median(va), statistics.median(vb)
            qa = quartiles(va)
            spread = qa[1] - qa[0]
            worse = sign * (ma - mb) / ma  # > 0: B is worse
            all_better = all(sign * (y - x) > 0 for x in va for y in vb)
            if (wins >= 0.9 * len(ra) and abs(mb - ma) > spread
                    and failed_b == 0 and sign * (mb - ma) > 0):
                verdict = "gain"
            elif spread / ma > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "within bound"
            rows.append([w, m["name"], f"{wins}/{len(ra)}", fmt(ma),
                         fmt(mb), fmt(spread), f"{-worse:+.1%}",
                         f"{m['bound']:.0%}", verdict])
    table(["workload", "metric", "B wins", "A median", "B median",
           "A q3-q1", "B vs A (+ = better)", "bound", "verdict"], rows)
    return 1 if regressions or broken else 0


def collect(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"a": os.path.abspath(args.a), "b": os.path.abspath(args.b)}
    for side in sides:
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    status = 0
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for w in workloads:
            for side in order:
                cmd = ["python3", "sapp_bench/run.py", "--workload", w,
                       "--seed", str(args.seed + i), "--seconds",
                       str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=sides[side],
                                      stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                if proc.returncode != 0 or result is None:
                    status = 1
                record = {"workload": w, "pair": i, "seed": args.seed + i,
                          "first": side == order[0], "exit": proc.returncode,
                          "result": result}
                with open(os.path.join(args.out, side,
                                       f"{w}-{i:02d}.json"), "w") as f:
                    json.dump(record, f)
                print(f"pair {i} {w} {side}: exit {proc.returncode}",
                      file=sys.stderr, flush=True)
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", default=DEFAULT_SPEC)
    sub = ap.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect", help="run alternating A/B pairs")
    c.add_argument("--a", required=True, help="checkout A (the parent)")
    c.add_argument("--b", required=True, help="checkout B (the change)")
    c.add_argument("--out", required=True)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--seed", type=int, default=1)
    for mode in ("agree", "compare"):
        p = sub.add_parser(mode)
        p.add_argument("a")
        p.add_argument("b")
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    return {"collect": collect, "agree": agree, "compare": compare}[
        args.mode](args, spec)


if __name__ == "__main__":
    sys.exit(main())
