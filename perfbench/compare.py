#!/usr/bin/env python3
"""Compare two sets of stamped result files against BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR   # exit 1 on a regression
    python3 perfbench/compare.py --self-test        # checks the comparison

Each directory holds result-*.json files written by run.py.  For every
workload and end-to-end metric, the median of NEW must not be worse than
the median of BASE by more than the metric's bound (a share of BASE's
median).  A run that failed or answered wrongly (correct = false) in
either set fails the comparison, and so does a workload or end-to-end
metric of BASE that NEW lacks.  Traced runs are ignored: per-layer
metrics have no bound.  The host's steal share recorded in each stamp
is printed, not gated: it tells a slow host from slow code.
"""

import glob
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def load_spec(path=SPEC):
    with open(path) as f:
        return json.load(f)


def load(directory):
    """The untraced result stamps of a directory."""
    stamps = []
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as f:
            stamp = json.load(f)
        if stamp["trace"] == 0:
            stamps.append(stamp)
    return stamps


def medians(stamps):
    """{(workload, metric): median} over the correct runs."""
    values = {}
    for stamp in stamps:
        if stamp["result"]["correct"]:
            for name, m in stamp["result"]["metrics"].items():
                values.setdefault((stamp["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def problems(spec, base_stamps, new_stamps):
    """Lines naming every failed run, every end-to-end metric of BASE
    missing from NEW, and every one that got worse than its bound."""
    out = []
    for label, stamps in (("BASE", base_stamps), ("NEW", new_stamps)):
        if not stamps:
            out.append("%s: no untraced result files" % label)
        for s in stamps:
            if not s["result"]["correct"]:
                out.append("%s %s seed %s: run failed or answered wrongly"
                           % (label, s["workload"], s["seed"]))
    base, new = medians(base_stamps), medians(new_stamps)
    for m in spec["end_to_end"]:
        for (workload, name), b in sorted(base.items()):
            if name != m["name"]:
                continue
            if (workload, name) not in new:
                out.append("%s %s: missing from NEW" % (workload, name))
                continue
            n = new[(workload, name)]
            worse = (n - b) if m["better"] == "lower" else (b - n)
            if b != 0 and worse / abs(b) > m["bound"]:
                out.append("%s %s: %.6g -> %.6g (bound %.0f%%)"
                           % (workload, name, b, n, 100 * m["bound"]))
    return out


def compare(base_dir, new_dir, spec=None):
    return problems(spec or load_spec(), load(base_dir), load(new_dir))


def write_results(directory, workload, values, seeds=3, correct=True):
    os.makedirs(directory, exist_ok=True)
    for seed in range(seeds):
        metrics = {k: {"value": v, "unit": "x"} for k, v in values.items()}
        stamp = {"workload": workload, "seed": seed, "seconds": 1, "trace": 0,
                 "nproc": 1, "ocaml_version": "synthetic",
                 "result": {"correct": correct, "attempted": 1,
                            "failed": 0 if correct else 1,
                            "metrics": metrics if correct else {}}}
        path = os.path.join(directory, "result-%s-seed%d-trace0.json"
                            % (workload, seed))
        with open(path, "w") as f:
            json.dump(stamp, f)


def self_test():
    """Identical results pass and a 2x change for the better passes; a
    2x change for the worse in any one end-to-end metric fails and names
    only that metric; a missing workload or metric and a failed run
    fail."""
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    values = {m["name"]: 10.0 for m in spec["end_to_end"]}
    failures = []

    def expect(what, found, ok):
        if not ok(found):
            failures.append("%s gave %s" % (what, found))

    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base")
        for w in workloads:
            write_results(base, w, values)
        expect("identical results", compare(base, base, spec), lambda f: f == [])
        last = workloads[-1]
        for m in spec["end_to_end"]:
            for factor, verdict in ((2.0, "worse"), (0.5, "better")):
                if m["better"] == "higher":
                    factor = 1 / factor
                new = os.path.join(tmp, "%s-%s" % (verdict, m["name"]))
                for w in workloads:
                    changed = dict(values)
                    if w == last:
                        changed[m["name"]] = values[m["name"]] * factor
                    write_results(new, w, changed)
                found = compare(base, new, spec)
                if verdict == "better":
                    expect("2x better " + m["name"], found, lambda f: f == [])
                else:
                    expect("2x worse " + m["name"], found,
                           lambda f: len(f) == 1 and f[0].startswith(
                               "%s %s:" % (last, m["name"])))
        new = os.path.join(tmp, "missing-workload")
        for w in workloads[:-1]:
            write_results(new, w, values)
        expect("a missing workload", compare(base, new, spec),
               lambda f: len(f) == len(values)
               and all(x.startswith(last) and "missing" in x for x in f))
        dropped = spec["end_to_end"][-1]["name"]
        new = os.path.join(tmp, "missing-metric")
        for w in workloads:
            write_results(new, w, {k: v for k, v in values.items() if k != dropped})
        expect("a missing metric", compare(base, new, spec),
               lambda f: len(f) == len(workloads)
               and all(("%s: missing" % dropped) in x for x in f))
        new = os.path.join(tmp, "failed-runs")
        for w in workloads:
            write_results(new, w, values, correct=(w != last))
        expect("failed runs", compare(base, new, spec),
               lambda f: any("answered wrongly" in x for x in f)
               and any("missing from NEW" in x for x in f))
    for line in failures:
        print("FAIL: " + line)
    print("self-test: %s" % ("ok" if not failures else "%d failures" % len(failures)))
    return 1 if failures else 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    for label, directory in (("BASE", argv[0]), ("NEW", argv[1])):
        steal = [s.get("host_steal_share", 0.0) for s in load(directory)]
        if steal:
            print("%s: %d runs, host steal %.1f%% on average, %.1f%% at most"
                  % (label, len(steal), 100 * statistics.mean(steal),
                     100 * max(steal)))
    found = compare(argv[0], argv[1])
    for line in found:
        print("PROBLEM " + line)
    print("%d problem(s)" % len(found))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
