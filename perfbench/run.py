#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

Run one measurement (from the repository root):

    python3 perfbench/run.py --workload sweep_mixed --seed 1 --seconds 15 \
        --trace 0 [--out results.jsonl]

The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; --out appends the full record
(settings, seed, detail, metrics) to a JSON-lines file.

Compare two result files (records of several seeds each):

    python3 perfbench/run.py compare old.jsonl new.jsonl

Unit tests of the benchmark's own code:

    python3 perfbench/run.py selftest
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sweep_mixed", "sweep_finegrain", "serve_zipf")
RUN_TIMEOUT_S = 175
RECORD_PREFIX = "perfbench-record: "


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    """Configures and builds the benchmark package; build output to stderr."""
    for needed in ("src/CMakeLists.txt", "tools/hetsched_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("hetsched sources not found (missing %s)" % needed)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    command = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
               "--target"] + list(targets)
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(args):
    build(["perfbench", "hetsched_cli"])
    work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cli", os.path.join(BUILD, "hetsched_cli"),
               "--work-dir", work]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        command += ["--spans-out", os.path.join(
            OUT, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    # Own process group: on a timeout the daemon perfbench started goes
    # down with it.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.splitlines()
    record = None
    for line in lines:
        if line.startswith(RECORD_PREFIX):
            record = json.loads(line[len(RECORD_PREFIX):])
        else:
            print(line)
    if record is None or not lines or not lines[-1].startswith("{"):
        fail("perfbench exited %d without a result" % child.returncode, 1)
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()
    return child.returncode


def spread(values):
    """Distance between first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(middle) if middle else 0.0


def load_records(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def group_records(records):
    """(workload, trace) -> list of records."""
    groups = {}
    for record in records:
        settings = record["settings"]
        key = (settings["workload"], bool(settings["trace"]))
        groups.setdefault(key, []).append(record)
    return groups


def compare(old_records, new_records, benchmark):
    """Returns (report lines, regressions, refusal reason or None)."""
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    old_groups = group_records(old_records)
    new_groups = group_records(new_records)
    if set(old_groups) != set(new_groups):
        return [], 0, "the files cover different workloads"
    lines, regressions = [], 0
    for key in sorted(old_groups):
        old, new = old_groups[key], new_groups[key]
        settings = [json.dumps(r["settings"], sort_keys=True)
                    for r in old + new]
        if len(set(settings)) != 1:
            return [], 0, "settings differ for %s: %s" % (
                key[0], " vs ".join(sorted(set(settings))))
        if sorted(r["seed"] for r in old) != sorted(r["seed"] for r in new):
            return [], 0, "seeds differ for " + key[0]
        lines.append("%s (%s, %d runs each)" % (
            key[0], "traced" if key[1] else "untraced", len(old)))
        for name in sorted(old[0]["metrics"]):
            before = [r["metrics"][name]["value"] for r in old]
            after = [r["metrics"][name]["value"] for r in new]
            unit = old[0]["metrics"][name]["unit"]
            m_old, m_new = statistics.median(before), statistics.median(after)
            delta = (m_new - m_old) / abs(m_old) if m_old else 0.0
            spec = bounds.get(name)
            if spec is None:
                verdict = "no bound"
            else:
                bound = spec["bound"]
                lower = spec["better"] == "lower"
                worse = delta if lower else -delta
                noise = max(spread(before), spread(after))
                all_better = (max(after) < min(before)) if lower else \
                    (min(after) > max(before))
                if noise > bound and not all_better:
                    verdict = "unresolved (spread %.3f > bound %.3f)" % (
                        noise, bound)
                elif worse > bound:
                    verdict = "OUTSIDE BOUND (worse by %.3f > %.3f)" % (
                        worse, bound)
                    regressions += 1
                else:
                    verdict = "within bound %.3f" % bound
            lines.append("  %-34s %14.6g -> %14.6g %-6s %+8.2f%%  %s" % (
                name, m_old, m_new, unit, 100.0 * delta, verdict))
    return lines, regressions, None


def compare_main(argv):
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    lines, regressions, refusal = compare(
        load_records(args.old), load_records(args.new), benchmark)
    if refusal:
        fail("refusing to compare: " + refusal, 2)
    print("\n".join(lines))
    return 1 if regressions else 0


def selftest_main():
    build(["perfbench_tests"])
    status = subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    python = subprocess.run([sys.executable, "-m", "unittest", "discover",
                             "-s", os.path.join(HERE, "tests"), "-v"])
    return status or python.returncode


def main(argv):
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    if argv and argv[0] == "selftest":
        return selftest_main()
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record (JSON lines)")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
