#!/usr/bin/env python3
"""Self-test of the benchmark's tracing: stage times must sum to wall time.

Runs each single-client workload once, traced, for one round, and checks
the span file it writes:

- every span lies inside its parent and belongs to its parent's request;
- the request's own (self) time plus its children's self times equals the
  request span's duration;
- the children (augment, plan, execute, materialize, persist) cover the
  request span up to a tolerance of max(50 us, 2% of the request), so
  the time the benchmark cannot attribute to a layer stays negligible.

It also checks that the result line carries exactly the per-layer metrics
BENCHMARK.json lists, with the same units. Run from the repository root:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ABS_TOLERANCE_S = 50e-6
REL_TOLERANCE = 0.02
WORKLOADS = ["explore-higgs", "session-taxi-durable"]


def check_spans(spans):
    """Returns a list of failures; empty when the spans are consistent."""
    failures = []
    by_id = {span["id"]: span for span in spans}
    children = {}
    for span in spans:
        parent = span["parent"]
        if parent < 0:
            continue
        if parent not in by_id:
            failures.append("span %d has unknown parent %d" %
                            (span["id"], parent))
            continue
        owner = by_id[parent]
        if span["start"] < owner["start"] or span["end"] > owner["end"]:
            failures.append("span %d (%s) leaves its parent" %
                            (span["id"], span["name"]))
        if span["request"] != owner["request"]:
            failures.append("span %d changes request id" % span["id"])
        children.setdefault(parent, []).append(span)
    requests = [span for span in spans if span["parent"] < 0]
    if not requests:
        failures.append("no request spans")
    for request in requests:
        duration = request["end"] - request["start"]
        kids = children.get(request["id"], [])
        if not kids:
            failures.append("request %d has no child spans" %
                            request["request"])
            continue
        total_self = request["self"] + sum(kid["self"] for kid in kids)
        if abs(total_self - duration) > 1e-6:
            failures.append("request %d: self times sum to %.9f, span is "
                            "%.9f" % (request["request"], total_self,
                                      duration))
        allowed = max(ABS_TOLERANCE_S, REL_TOLERANCE * duration)
        if request["self"] > allowed:
            failures.append("request %d: %.6f s of %.6f s outside any "
                            "layer span (allowed %.6f)" %
                            (request["request"], request["self"], duration,
                             allowed))
    return failures


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    failures = []
    for workload in WORKLOADS:
        trace_out = os.path.join(ROOT, ".bench_build", "traces",
                                 "selftest-%s.json" % workload)
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace", "1",
             "--trace-out", trace_out],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            failures.append("%s: exit code %d" % (workload, done.returncode))
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"] != 0:
            failures.append("%s: incorrect or failed requests" % workload)
        reported = {name: metric["unit"]
                    for name, metric in result["metrics"].items()}
        mismatched = sorted(set(reported.items()) ^ set(per_layer.items()))
        if mismatched:
            failures.append("%s: (metric, unit) pairs not both in the result "
                            "and BENCHMARK.json: %s" % (workload, mismatched))
        with open(trace_out) as f:
            spans = json.load(f)
        found = check_spans(spans)
        failures += ["%s: %s" % (workload, failure) for failure in found[:10]]
        print("%s: %d spans, %d requests, %d problems" %
              (workload, len(spans),
               sum(1 for s in spans if s["parent"] < 0), len(found)))
    for failure in failures:
        print("FAIL " + failure)
    print("PASS" if not failures else "FAILED")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
