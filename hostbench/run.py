#!/usr/bin/env python3
"""Build and run the host-time benchmark of the DySel reproduction.

    python3 hostbench/run.py --workload sim-suite|serve-warm|serve-cold \\
        --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --selftest

Run from the repository root.  The first run configures and builds the
repository's libraries plus the benchmark driver (CMake) under
.bench_build/ (or $CARGO_TARGET_DIR); later runs only re-check the build.
Progress goes to stderr; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A traced run (--trace 1)
also writes a Chrome trace-event file under the build directory and
validates it with the repository's tools/trace_check --summary.
See hostbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-suite", "serve-warm", "serve-cold")
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "hostbench"


def build():
    """Configure once, then (re)build; returns the build directory."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out


def run_workload(out, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns the parsed result (or None on a crash)."""
    cmd = [str(out / "hostbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--pins", str(HERE / "pins.txt"), "--work-dir", str(out)]
    trace_file = out / "traces" / f"{workload}-seed{seed}.json"
    if trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload} exited with {proc.returncode}")
        return None
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    if trace:
        check = subprocess.run([str(out / "trace_check"), "--summary",
                                str(trace_file)],
                               stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        if check.returncode != 0:
            log("trace_check rejected", trace_file)
            result["correct"] = False
    return result


def expected_metrics(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def selftest(out):
    """Tiny runs: metric sets and units, gates firing, exact counts."""
    failures = []

    def expect(cond, what):
        log(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (False, True):
            r = run_workload(out, workload, 1, 1, trace, ["--tiny"])
            expect(r is not None and r["correct"] and r["failed"] == 0,
                   f"{workload} trace={int(trace)} runs clean")
            if r is None:
                continue
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == expected_metrics(trace),
                   f"{workload} trace={int(trace)} reports every metric "
                   "with its unit")
        # One corrupted output element must trip the workload's gate.
        r = run_workload(out, workload, 1, 1, False, ["--tiny", "--corrupt"])
        expect(r is not None and not r["correct"],
               f"{workload} output gate fires on a corrupted element")

    # A corrupted pinned digest must trip sim-suite's digest gate.
    pins = (HERE / "pins.txt").read_text().splitlines()
    for i, line in enumerate(pins):
        if line and not line.startswith("#"):
            head, digest = line.rsplit(" ", 1)
            flipped = ("1" if digest[-1] != "1" else "2")
            pins[i] = f"{head} {digest[:-1]}{flipped}"
            break
    bad = out / "pins-corrupt.txt"
    bad.write_text("\n".join(pins) + "\n")
    r = run_workload(out, "sim-suite", 1, 1, False,
                     ["--tiny", "--pins", str(bad)])
    expect(r is not None and not r["correct"],
           "sim-suite digest gate fires on a corrupted pin")

    # Exact counts repeat across runs of one seed.
    exact = {
        "sim-suite": ["det.groups_per_round", "det.events_per_round",
                      "det.cache_accesses_replayed", "det.digest48"],
        "serve-warm": ["store.hit_ratio", "det.digest48"],
    }
    for workload, names in exact.items():
        runs = [run_workload(out, workload, 5, 1, True, ["--tiny"])
                for _ in range(2)]
        if None in runs:
            expect(False, f"{workload} determinism runs complete")
            continue
        for name in names:
            a, b = (r["metrics"][name]["value"] for r in runs)
            expect(a == b, f"{workload} {name} repeats exactly ({a})")

    log(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        out = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log("build failed:", e)
        return 1
    if args.selftest:
        return selftest(out)
    result = run_workload(out, args.workload, args.seed, args.seconds,
                          args.trace == 1)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
