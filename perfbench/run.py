#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
perfbench binary (and the croute library it links) under
$CARGO_TARGET_DIR (default .bench_build); later calls only rebuild what
changed. The binary's output passes through unchanged: its last stdout
line is the JSON result, and the exit status is non-zero when the build
fails, a check fails, or the run overruns its time limit.

--selftest runs every workload on a tiny instance, traced and untraced,
checks that every metric named in BENCHMARK.json is reported with its
unit, and runs the negative control (a reference built from another
scheme seed), which must be detected as a failure.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170  # per workload


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (out / "Makefile").exists():  # a failed configure leaves none
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log)
                return None
    return out / "perfbench"


def run_binary(binary, args, capture=False, workloads=1):
    cmd = [str(binary)] + args + ["--work-dir", str(build_dir() / "work")]
    timeout = RUN_TIMEOUT_S * workloads
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %ds\n" % timeout)
        return 3, ""
    return proc.returncode, proc.stdout or ""


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for name in names:
        for trace in ("0", "1"):
            rc, out = run_binary(binary, ["--workload", name, "--seed", "3",
                                          "--seconds", "1", "--trace", trace,
                                          "--tiny"], capture=True)
            result = last_json(out) if rc in (0, 1) else None
            label = "%s trace %s" % (name, trace)
            if rc != 0 or result is None or result.get("correct") is not True:
                failures.append("%s: exit %d, result %r" % (label, rc, result))
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                failures.append("%s: missing %s, unexpected %s, wrong unit %s"
                                % (label, missing, extra, units))
            print("selftest: %s reports %d metrics, correct" % (label, len(got)))
        # Negative control: a reference from another scheme seed must be
        # caught, so the correctness checks cannot pass vacuously.
        rc, out = run_binary(binary, ["--workload", name, "--seed", "3",
                                      "--seconds", "1", "--trace", "0",
                                      "--tiny", "--ref-seed-offset", "1"],
                             capture=True)
        result = last_json(out) if rc in (0, 1) else None
        if rc != 1 or result is None or result.get("correct") is not False \
                or result.get("failed", 0) == 0:
            failures.append("%s negative control: exit %d, result %r"
                            % (name, rc, result))
        else:
            print("selftest: %s negative control caught %d mismatches"
                  % (name, result["failed"]))
    for f in failures:
        print("selftest FAILED: " + f)
    print("selftest: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if a.selftest:
        return selftest(binary)
    count = 1
    if a.workload == "all":
        count = len(json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
    rc, _ = run_binary(binary, ["--workload", a.workload, "--seed", a.seed,
                                "--seconds", a.seconds, "--trace", a.trace],
                       workloads=count)
    return rc


if __name__ == "__main__":
    sys.exit(main())
