#!/usr/bin/env python3
"""Build and run the antalloc benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Run from the root of an antalloc checkout. The first call configures and
builds perfbench/ (which builds the library from src/) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check the build. The driver's output passes through unchanged: notes
first, then one JSON result line. Build output goes to stderr.

--selfcheck runs every workload at toy size in both modes and checks that
each run succeeds, emits exactly the metrics BENCHMARK.json names with their
units, and records spans that nest.
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
WORKLOADS = ["peragent", "kernel", "daemon", "fleet"]
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target / "perfbench").resolve()


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not (ROOT / "src" / "sim" / "campaign.h").is_file():
        print("perfbench: no antalloc sources next to perfbench/", file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    exe = out / "antalloc_perfbench"
    return exe if exe.is_file() else None


def run_driver(exe, args, capture=False):
    """Runs the driver from the checkout root; returns (code, stdout)."""
    out_dir = build_dir() / "out"
    cmd = [str(exe), *args, "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout.decode() if capture else ""


def check_spans(label, workload):
    path = build_dir() / "out" / f"spans-{workload}-seed7.jsonl"
    if not path.is_file():
        return [f"{label}: no span file {path}"]
    spans = {}
    for line in path.read_text().splitlines():
        s = json.loads(line)
        spans[s["id"]] = s
    if not spans:
        return [f"{label}: no spans recorded"]
    for s in spans.values():
        if s["parent"] == 0:
            continue
        p = spans.get(s["parent"])
        if p is None or p["job"] != s["job"] or not (
                p["start_ns"] <= s["start_ns"] <= s["end_ns"] <= p["end_ns"]):
            return [f"{label}: span {s['name']} does not nest in its parent"]
    return []


def selfcheck(exe):
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            code, out = run_driver(exe, ["--workload", workload, "--seed", "7",
                                         "--seconds", "1", "--trace", trace,
                                         "--toy"], capture=True)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{label}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: {result['failed']} failed operations")
            problems += [f"{label}: {line[2:]}" for line in lines
                         if line.startswith("# no samples for")]
            if spec is not None:
                key = "per_layer" if trace == "1" else "end_to_end"
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if want != got:
                    missing = sorted(set(want) - set(got))
                    extra = sorted(set(got) - set(want))
                    units = sorted(k for k in set(want) & set(got)
                                   if want[k] != got[k])
                    problems.append(f"{label}: metrics differ from BENCHMARK.json"
                                    f" (missing {missing}, extra {extra},"
                                    f" unit {units})")
            if trace == "1":
                problems += check_spans(label, workload)
            print(f"selfcheck: {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations", file=sys.stderr)
    for p in problems:
        print(f"selfcheck: FAIL {p}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(exe)
    code, _ = run_driver(exe, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
