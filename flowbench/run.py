#!/usr/bin/env python3
"""Builds and runs the flow benchmark (see NOTES.md).

Run from the repository root:

    python3 flowbench/run.py --workload replicate --seed 1 --seconds 10 --trace 0
    python3 flowbench/run.py --self-test

The first form builds the benchmark (once per build directory), runs one
workload and prints the benchmark's output; the last stdout line is the JSON
result. That line is checked against BENCHMARK.json: with --trace 0 it must
carry exactly the end_to_end metrics, with --trace 1 exactly the per_layer
metrics, under the listed units. The exit status is 0 only when the build
succeeded, every correctness check passed and the result matches the spec.

--self-test runs each workload at smoke size, traced and untraced, checks the
emitted names and units, checks that two runs of one seed give the same
fingerprint, and checks that a fault injected into a job's output through
audit/fault_inject.h makes the benchmark report a failure.

Builds go to $CARGO_TARGET_DIR (default .bench_build) under the repository
root; run-time files (checkpoints, fingerprints, traces) go next to them.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["replicate", "place_route", "eco_session", "serve_batch"]
FAULTS = ["function", "occupant", "route"]


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    build_dir = os.path.join(target_dir(), "flowbench")
    log_path = os.path.join(target_dir(), "flowbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                shutil.rmtree(build_dir, ignore_errors=True)
                return None, log_path
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", build_dir, "--target", "flowbench", "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            return None, log_path
    return os.path.join(build_dir, "flowbench"), log_path


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, spec, traced):
    """Returns a list of problems with the result line (empty when fine)."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(res))
        return problems
    want = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                        "unit mismatch %s" % (missing, extra, units))
    return problems


def run(binary, args):
    out_dir = os.path.join(target_dir(), "flowbench-run")
    p = subprocess.run([binary] + args + ["--out-dir", out_dir],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.rstrip("\n").split("\n")
    return p.returncode, lines, p.stderr


def self_test(binary, spec):
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        fps = []
        for traced in (0, 1):
            code, lines, err = run(binary, ["--workload", w, "--seed", "3", "--seconds", "1",
                                            "--trace", str(traced), "--smoke"])
            problems = check_result(lines[-1], spec, traced)
            expect(code == 0 and not problems and json.loads(lines[-1])["correct"],
                   "%s smoke --trace %d: exit %d %s %s" % (w, traced, code, problems,
                                                           err.strip()[:300]))
            fps += [l for l in lines if l.startswith("fingerprint ")]
        expect(len(fps) == 2 and fps[0] == fps[1],
               "%s: traced and untraced runs of one seed give one fingerprint %s" % (w, fps))
    for fault in FAULTS:
        code, lines, err = run(binary, ["--workload", "replicate", "--seed", "3", "--seconds",
                                        "1", "--trace", "0", "--smoke", "--inject-fault", fault])
        res = json.loads(lines[-1])
        expect(code != 0 and not res["correct"] and res["failed"] >= 1 and
               "CHECK FAILED" in err,
               "injected %s fault is reported (exit %d, failed %d)" % (fault, code, res["failed"]))
    print("self-test: %d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    argv = sys.argv[1:]
    binary, log_path = build()
    if binary is None:
        sys.stderr.write("flowbench: build failed; see %s\n" % log_path)
        with open(log_path) as f:
            sys.stderr.write(f.read()[-3000:])
        return 1
    spec = load_spec()
    if argv == ["--self-test"]:
        return self_test(binary, spec)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    code, lines, err = run(binary, argv)
    sys.stderr.write(err)
    problems = check_result(lines[-1], spec, traced) if lines and lines[-1] else ["no output"]
    if problems:
        print("\n".join(lines[:-1]))
        sys.stderr.write("flowbench: %s\n" % "; ".join(problems))
        return 1
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
