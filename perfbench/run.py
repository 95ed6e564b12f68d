#!/usr/bin/env python3
"""Repository benchmark: host cost of regenerating the paper's figures.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference [--workload NAME]

Builds the simulator libraries and the measurement engine (cells.cc)
from source under $CARGO_TARGET_DIR/perfbench (default .bench_build),
runs one workload in its own process, checks every cell (functional
checks, hangs, races, oracle verdicts, determinism across repetitions
and across traced/untraced passes, and drift against the recorded
reference), and prints the metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (see README.md).

--record-reference rewrites reference/*.json from the current sources;
run it only on a commit whose simulated figures are known good.

Standard library only.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("headline", "mesh-8x8", "apps-racecheck", "litmus-oracles")
# The engine's execution seed is 1 + (seed mod SEED_CLASSES); the
# reference records every class, so drift is checked on every seed.
SEED_CLASSES = 8
# mesh-8x8 is checked against the weak-scaling baseline's 8x8 cells.
MESH_BASELINE = ROOT / "bench" / "baselines" / "BENCH_PR5.8x8.json"
MESH_WORKLOADS = ("FAM_G", "SPM_G")
ENGINE_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: error: " + msg, file=sys.stderr)
    sys.exit(code)


def exec_seed(seed):
    return 1 + seed % SEED_CLASSES


# --- build --------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "perfbench"


def build_engine():
    """Configure (once) and build the engine; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources at %s/src: run from a full checkout"
             % ROOT, 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w", encoding="utf-8") as fh:
        for cmd in steps:
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                fh.flush()
                tail = log.read_text(encoding="utf-8").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (log: %s)" % log)
    return out / "perfbench_cells"


def run_engine(engine, workload, seed, seconds, trace, extra=()):
    cmd = [str(engine), "--workload=" + workload,
           "--seed=%d" % exec_seed(seed), "--seconds=%g" % seconds,
           "--trace=%d" % trace] + list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=ENGINE_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("engine timed out after %d s: %s"
             % (ENGINE_TIMEOUT_S, " ".join(cmd)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("engine exited %d: %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout)


# --- provenance -----------------------------------------------------------

def provenance(result, seed):
    """Where a record came from, read from the checkout and the host."""
    commit, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT)] + list(args),
                                  capture_output=True, text=True,
                                  check=False).stdout.strip()
        commit = git("rev-parse", "HEAD") or commit
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    cpu_model, mhz = "unknown", []
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                cpu_model = value.strip()
            elif key.strip() == "cpu MHz":
                mhz.append(float(value))
    except OSError:
        pass
    return {
        "commit": commit,
        "dirty": dirty,
        "src_sha256": digest.hexdigest()[:16],
        "build_type": result["build"]["type"],
        "compiler": result["build"]["compiler"],
        "flags": result["build"]["flags"].strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cpu_mhz": round(statistics.mean(mhz), 1) if mhz else None,
        "seed": seed,
        "exec_seed": exec_seed(seed),
    }


# --- reference / drift ------------------------------------------------------

def reference_path(workload):
    return HERE / "reference" / (workload + ".json")


def bench_cell_digest(cell):
    digest = {"cycles": cell["cycles"]}
    for part in ("energy", "traffic"):
        for key, value in cell[part].items():
            digest[part + "." + key] = value
    return digest


def load_reference(workload, seed):
    """Cell name -> expected simulated digest for this seed."""
    if workload == "mesh-8x8":
        record = json.loads(MESH_BASELINE.read_text(encoding="utf-8"))
        return {"%s/%s" % (c["workload"], c["config"]): bench_cell_digest(c)
                for c in record["cells"] if c["workload"] in MESH_WORKLOADS}
    ref = json.loads(reference_path(workload).read_text(encoding="utf-8"))
    cells = dict(ref["cells"])
    cells.update(ref["seed_overrides"].get(str(exec_seed(seed)), {}))
    return cells


def drift(cells, reference):
    """Cells whose digest differs from the reference, with what moved."""
    moved = []
    seen = set()
    for cell in cells:
        name = cell["name"]
        seen.add(name)
        ref = reference.get(name)
        if ref is None:
            moved.append((name, ["no reference cell"]))
            continue
        cur = cell["digest"]
        fields = ["%s %r -> %r" % (k, ref.get(k), cur.get(k))
                  for k in sorted(set(ref) | set(cur))
                  if ref.get(k) != cur.get(k)]
        if fields:
            moved.append((name, fields))
    for name in sorted(set(reference) - seen):
        moved.append((name, ["cell missing from this run"]))
    return moved


# --- metrics ------------------------------------------------------------------

def load_spec():
    """BENCHMARK.json: the metric names and units this benchmark prints."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# Correctness figures printed by every run. They read 0 on a healthy
# tree, so BENCHMARK.json lists them as per-layer (unbounded) metrics;
# "correct" and "failed" carry the same verdict to the contract line.
CHECKS = ("cells_failed_frac", "sim_drift_cells", "paper_err_pp",
          "paper_claims")


def evaluate(trace, result, reference):
    """Check a result; return (summary lines, contract record)."""
    cells = result["cells"]
    failed = {c["name"] for c in cells if c["failures"]}
    unstable = result["unstable_cells"]
    failed |= {name.split(":")[-1] for name in unstable}
    moved = drift(cells, reference)
    lines = []
    for cell in cells:
        for why in cell["failures"]:
            lines.append("FAILED %s: %s" % (cell["name"], why))
    for name in unstable:
        lines.append("FAILED %s: simulated digest not reproduced" % name)
    for name, fields in moved:
        lines.append("DRIFT %s: %s" % (name, "; ".join(fields)))

    claims = result.get("paper_claims", [])
    values = {
        "cells_failed_frac": len(failed) / len(cells),
        "sim_drift_cells": len(moved),
        # Mean |measured - paper| over bench/headline's numeric claims;
        # 0 with paper_claims = 0 on workloads that carry none.
        "paper_err_pp": statistics.mean(
            abs(c["measured_pct"] - c["paper_pct"]) for c in claims)
        if claims else 0.0,
        "paper_claims": len(claims),
    }
    if trace:
        values.update(result["layers"])
        section = "per_layer"
    else:
        # Calibrated host seconds (the engine rescales every timed call
        # by a host-speed kernel sampled while it ran; see cells.cc).
        # Both sides of an A/B share the kernel, so the rescaling
        # cancels host-speed drift, not simulator changes.
        runs = result["run_s"]
        values.update(
            run_s=statistics.median(result["run_calibrated_s"]),
            setup_s=result["setup_calibrated_s"],
            peak_rss_mb=result["peak_rss_mb"])
        section = "end_to_end"
        lines.append("(run_s: median over %d repetitions of calibrated host "
                     "seconds, raw %.4f..%.4f s; setup_s: median over %d "
                     "set-up passes; calibration kernel median %.3f ms)"
                     % (len(runs), min(runs), max(runs),
                        result["setup_passes"], result["calib_ms"]))
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] +
             spec["per_layer"]}
    shown = [m["name"] for m in spec[section]]
    shown += [name for name in CHECKS if name not in shown]
    for name in shown:
        lines.append("%s = %.6g %s" % (name, values[name], units[name]))
    record = {
        "correct": not failed and not moved,
        "attempted": len(cells),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in spec[section]},
    }
    return lines, record


# --- entry points ---------------------------------------------------------------

def measure(workload, seed, seconds, trace):
    engine = build_engine()
    result = run_engine(engine, workload, seed, seconds, trace)
    prov = provenance(result, seed)
    lines, record = evaluate(trace, result, load_reference(workload, seed))
    print("perfbench %s seed=%d trace=%d" % (workload, seed, trace))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(record, sort_keys=True))


def record_reference(workloads):
    """Rewrite reference/<workload>.json from the current sources."""
    engine = build_engine()
    for workload in workloads:
        by_seed = {}
        for cls in range(1, SEED_CLASSES + 1):
            result = run_engine(engine, workload, cls - 1, 0, 0,
                                ["--max-reps=1"])
            bad = [c["name"] for c in result["cells"] if c["failures"]]
            if bad or result["unstable_cells"]:
                fail("%s: failing cells, not recording: %s"
                     % (workload, bad or result["unstable_cells"]))
            by_seed[cls] = {c["name"]: c["digest"] for c in result["cells"]}
        base = by_seed[1]
        overrides = {}
        for cls, cells in by_seed.items():
            diff = {n: d for n, d in cells.items() if base.get(n) != d}
            if diff:
                overrides[str(cls)] = diff
        prov = provenance(result, 0)
        ref = {
            "workload": workload,
            "recorded_from": {"commit": prov["commit"],
                              "src_sha256": prov["src_sha256"]},
            "seed_classes": SEED_CLASSES,
            "cells": base,
            "seed_overrides": overrides,
        }
        path = reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print("wrote %s (%d cells, %d seed-dependent)"
              % (path.relative_to(ROOT), len(base),
                 len({n for d in overrides.values() for n in d})))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        # mesh-8x8 is checked against the checked-in weak-scaling
        # baseline instead of a recording of its own.
        recorded = [w for w in WORKLOADS if w != "mesh-8x8"]
        if args.workload and args.workload not in recorded:
            fail("%s has no recorded reference" % args.workload, 2)
        record_reference([args.workload] if args.workload else recorded)
    elif args.workload:
        if args.seed < 0:
            fail("--seed must be non-negative", 2)
        measure(args.workload, args.seed, args.seconds, args.trace)
    else:
        parser.error("--workload is required")


if __name__ == "__main__":
    main(sys.argv[1:])
