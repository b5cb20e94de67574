#!/usr/bin/env python3
"""Perf-smoke regression gate over the micro-decision and S1 trajectories.

Compares fresh bench JSON against the committed baselines and fails
(exit 1) when a gated number regressed more than THRESHOLD times. The
threshold is deliberately generous (default 2x): shared CI runners are
noisy and the smoke instances are smaller than the committed ones (a
smaller instance can only make the fresh numbers FASTER, so a >2x
slowdown is a real regression, not noise).

Gated:
  - micro: every flat serving variant's ns/decision (scalar + batched);
  - S1 serving: qps of every flat run row (matched by threads);
  - S1 churn: per-cycle rebuild seconds — each fresh churn row gates
    against the committed FULL-rebuild row at the same thread count, so
    the incremental path must stay at least as fast as the committed
    full-rebuild baseline (and a regression of the full path itself
    fails the same gate);
  - NET serving: the wire front-end's served qps (the closed-loop
    saturation scalar of BENCH_net.json) — the whole socket pipeline
    (framing, decode, coalescing, route, encode) gates as one number.
    The byte-identity marker must also still read "yes".

Usage:
  check_perf_regression.py <micro_baseline> <micro_fresh> [threshold]
                           [--s1 <s1_baseline> <s1_fresh>]
                           [--net <net_baseline> <net_fresh>]
"""

import json
import sys

# Every flat serving variant the micro trajectory tracks: the scalar
# decision, and the route-level scalar vs batch-pipelined numbers the
# batched engine is judged by (one lookup layout, Eytzinger).
GATED_MICRO_KEYS = [
    "flat_eytzinger_decision_ns",
    "flat_eytzinger_route_ns",
    "flat_batched_eytzinger_route_ns",
]


def load(path):
    with open(path) as f:
        return json.load(f)


def gate_micro(baseline, fresh, threshold, failures):
    for key in GATED_MICRO_KEYS:
        if key not in baseline:
            # A newly added variant has no committed baseline yet; it
            # starts gating on the next regeneration.
            print(f"  skip micro/{key}: not in baseline")
            continue
        if key not in fresh:
            failures.append(f"micro/{key}: missing from fresh measurement")
            continue
        base, now = float(baseline[key]), float(fresh[key])
        ratio = now / base if base > 0 else float("inf")
        verdict = "FAIL" if ratio > threshold else "ok"
        print(f"  {verdict} micro/{key}: baseline {base:.1f} ns, fresh "
              f"{now:.1f} ns ({ratio:.2f}x, limit {threshold:.1f}x)")
        if ratio > threshold:
            failures.append(
                f"micro/{key}: {now:.1f} ns vs baseline {base:.1f} ns "
                f"({ratio:.2f}x > {threshold:.1f}x)")


def gate_s1_serving(baseline, fresh, threshold, failures):
    fresh_flat = {int(r["threads"]): float(r["qps"])
                  for r in fresh.get("runs", []) if r.get("path") == "flat"}
    for row in baseline.get("runs", []):
        if row.get("path") != "flat":
            continue
        threads = int(row["threads"])
        if threads not in fresh_flat:
            print(f"  skip s1/qps@{threads}t: not measured fresh")
            continue
        base, now = float(row["qps"]), fresh_flat[threads]
        ratio = base / now if now > 0 else float("inf")  # slowdown factor
        verdict = "FAIL" if ratio > threshold else "ok"
        print(f"  {verdict} s1/qps@{threads}t: baseline {base:.0f}, fresh "
              f"{now:.0f} ({ratio:.2f}x slowdown, limit {threshold:.1f}x)")
        if ratio > threshold:
            failures.append(
                f"s1/qps@{threads}t: {now:.0f} qps vs baseline {base:.0f} "
                f"({ratio:.2f}x slowdown > {threshold:.1f}x)")


def rebuild_per_cycle(row):
    swaps = int(row.get("swaps", 0))
    return float(row["rebuild_s"]) / swaps if swaps > 0 else float("inf")


def gate_s1_churn(baseline, fresh, threshold, failures):
    # Committed full-rebuild rows are the yardstick. Rows from before the
    # rebuild-mode split carry no "rebuild" marker and count as full.
    base_full = {int(r["threads"]): rebuild_per_cycle(r)
                 for r in baseline.get("churn_runs", [])
                 if r.get("rebuild", "full") == "full"}
    if not base_full:
        print("  skip s1/churn: baseline has no full-rebuild churn rows")
        return
    for row in fresh.get("churn_runs", []):
        threads = int(row["threads"])
        if threads not in base_full:
            print(f"  skip s1/churn@{threads}t: no baseline row")
            continue
        mode = row.get("rebuild", "full")
        base, now = base_full[threads], rebuild_per_cycle(row)
        ratio = now / base if base > 0 else float("inf")
        verdict = "FAIL" if ratio > threshold else "ok"
        print(f"  {verdict} s1/churn@{threads}t[{mode}]: "
              f"{now:.3f} s/cycle vs full baseline {base:.3f} "
              f"({ratio:.2f}x, limit {threshold:.1f}x)")
        if ratio > threshold:
            failures.append(
                f"s1/churn@{threads}t[{mode}]: {now:.3f} s/cycle vs "
                f"committed full baseline {base:.3f} "
                f"({ratio:.2f}x > {threshold:.1f}x)")


def gate_net(baseline, fresh, threshold, failures):
    if "saturation_qps" not in baseline:
        print("  skip net/saturation_qps: not in baseline")
    elif "saturation_qps" not in fresh:
        failures.append("net/saturation_qps: missing from fresh measurement")
    else:
        base = float(baseline["saturation_qps"])
        now = float(fresh["saturation_qps"])
        ratio = base / now if now > 0 else float("inf")  # slowdown factor
        verdict = "FAIL" if ratio > threshold else "ok"
        print(f"  {verdict} net/saturation_qps: baseline {base:.0f}, fresh "
              f"{now:.0f} ({ratio:.2f}x slowdown, limit {threshold:.1f}x)")
        if ratio > threshold:
            failures.append(
                f"net/saturation_qps: {now:.0f} qps vs baseline {base:.0f} "
                f"({ratio:.2f}x slowdown > {threshold:.1f}x)")
    # Not a perf number, but the cheapest place to keep the contract
    # loud: socket answers must stay byte-identical to in-process ones.
    if fresh.get("socket_identical", "yes") != "yes":
        failures.append("net/socket_identical: fresh run answered "
                        "differently over the socket than in-process")


def extract_pair(args, flag):
    if flag not in args:
        return args, None
    i = args.index(flag)
    pair = args[i + 1:i + 3]
    if len(pair) != 2:
        print(__doc__)
        sys.exit(2)
    return args[:i] + args[i + 3:], pair


def main() -> int:
    args = sys.argv[1:]
    args, s1_paths = extract_pair(args, "--s1")
    args, net_paths = extract_pair(args, "--net")
    if len(args) < 2:
        print(__doc__)
        return 2
    threshold = float(args[2]) if len(args) > 2 else 2.0

    failures = []
    gate_micro(load(args[0]), load(args[1]), threshold, failures)
    if s1_paths is not None:
        s1_baseline, s1_fresh = load(s1_paths[0]), load(s1_paths[1])
        gate_s1_serving(s1_baseline, s1_fresh, threshold, failures)
        gate_s1_churn(s1_baseline, s1_fresh, threshold, failures)
    if net_paths is not None:
        gate_net(load(net_paths[0]), load(net_paths[1]), threshold, failures)

    if failures:
        print("perf regression gate FAILED:")
        for f_ in failures:
            print(f"  - {f_}")
        return 1
    print("perf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
