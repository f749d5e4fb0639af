"""Benchmark of hypograd's Monte Carlo gradient estimators.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload ``NAME`` of workloads.py with ``master_seed = N``,
repeating it for about ``S`` seconds.  Each repetition is one batch estimate
in a fresh interpreter (child.py) with one worker thread and BLAS pinned to
one thread, one repetition at a time (closed loop, one caller).  Every
repetition is checked: exit status, the workload's correctness gate, and a
bit-for-bit fingerprint of ``results.json`` against the other repetitions,
the traced repetitions and earlier runs of the same sources and config.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
Their times are reference seconds: the CPU time of the one-thread
repetition process, scaled by how fast the host ran the fixed work of
calibrate.py around it.  Wall time on a shared host also holds the time
the host gave the core to other tenants, and the host's speed itself drifts
by 10-25 % within minutes.  The median wall times are kept in the record
and printed alongside;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with the environment, goes to
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracer
from workloads import WORKLOADS

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"

TARGET_SE = 0.01        # time_to_target_s: time to reach this standard error
MIN_REPS = 3            # untraced repetitions per --trace 0 run
MIN_TRACE_REPS = 2      # untraced and traced repetitions each per --trace 1 run
LAST_START_S = 120.0    # no repetition starts later than this into a run
DEADLINE_S = 170.0      # a repetition still running then is killed

# One worker thread (the CLI default) and one BLAS thread: the reference
# machine has 2 shared cores, which more threads would oversubscribe.
CHILD_THREADS = {"HYPOGRAD_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"run_s": "s", "path_steps_per_s": "1/s",
                    "time_to_target_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {f"{name}.self_s": "s" for name in tracer.SPAN_NAMES}
    units.update({name: "count" for name in tracer.COUNT_NAMES})
    units["flow.simulate.state_bytes"] = "B"
    units.update({"estimator.rejected_paths": "count",
                  "estimator.accepted_frac": "ratio",
                  "trace.overhead_s": "s", "trace.unattributed_s": "s"})
    return units


class SetupError(Exception):
    """The checkout cannot run the benchmark at all; no result is printed."""


def _src_digest():
    src = ROOT / "src" / "hypograd"
    files = sorted(src.rglob("*.py"))
    if not files:
        raise SetupError(f"no hypograd sources under {src}")
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _environment(seed, versions, digest):
    return {"seed": seed, "git_commit": _git_commit(), "src_sha256": digest,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(), "thread_env": dict(CHILD_THREADS),
            **versions}


def _run_child(cfg_path, out_dir, rep_path, traced, start):
    """One repetition; returns (rep dict or None, list of failure reasons)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    rep_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_THREADS)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(cfg_path), str(rep_path),
             "1" if traced else "0"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        return None, ["repetition timed out"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, [f"child exited {proc.returncode}: {tail[0]}"]
    try:
        with open(rep_path, encoding="utf-8") as fh:
            rep = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, [f"no repetition record: {exc}"]
    src = (ROOT / "src").resolve()
    if src not in Path(rep["hypograd_file"]).resolve().parents:
        raise SetupError(f"hypograd was imported from {rep['hypograd_file']}, "
                         f"not from {src}")
    if rep["status"] != 0:
        return rep, [f"hypograd run returned status {rep['status']}"]
    try:
        raw = (out_dir / "results.json").read_bytes()
        metrics = json.loads(raw)[0]["metrics"]
    except (OSError, ValueError, LookupError) as exc:
        return rep, [f"unreadable results.json: {exc!r}"]
    rep["sha256"] = hashlib.sha256(raw).hexdigest()
    rep["metrics"] = metrics
    return rep, []


def _check_trace(rep, first_counts):
    errors = []
    try:
        tracer.check_spans(rep["spans"])
        layers = tracer.layer_metrics(rep["spans"], rep["counts"], rep["wall_s"])
    except ValueError as exc:
        return None, [f"trace: {exc}"]
    unattributed = layers["trace.unattributed_s"]
    if not -1e-6 <= unattributed <= max(0.01 * rep["wall_s"], 0.005):
        errors.append(f"self times miss {unattributed!r} s of the traced wall time")
    counts = {k: layers[k] for k in tracer.COUNT_NAMES}
    if first_counts is not None and counts != first_counts:
        errors.append("work counts differ from an earlier traced repetition or run")
    return layers, errors


def _fingerprint_store(cfg, digest):
    """Fingerprint file shared by every run of these sources and this config."""
    key = hashlib.sha256((digest + json.dumps(cfg, sort_keys=True)).encode())
    return BUILD / "fingerprints" / f"{key.hexdigest()[:32]}.json"


def _baseline_difference(name, seed, fingerprint):
    """Largest relative difference between these outputs and the ones that
    baseline.json recorded for this workload and seed (None if it has none)."""
    try:
        base = json.loads((CHILD.parent / "baseline.json").read_text(
            encoding="utf-8"))["fingerprints"][name][str(seed)]
        return max(abs(fingerprint[k] - base[k]) / max(abs(base[k]), 1e-300)
                   for k in base)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def measure(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    digest = _src_digest()
    work = BUILD / name
    work.mkdir(parents=True, exist_ok=True)
    out_rel = (work / "out").relative_to(ROOT).as_posix()
    cfg = workload.config(seed, out_rel)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")

    reps = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep_start = time.monotonic()
        rep, errors = _run_child(cfg_path, work / "out", work / "rep.json",
                                 traced, start)
        rep = rep or {}
        rep.update(traced=traced, errors=errors)
        if "metrics" in rep:
            try:
                rep["errors"] += workload.gate(cfg, rep["metrics"])
            except KeyError as exc:
                rep["errors"].append(f"results.json lacks the metric {exc}")
        reps.append(rep)
        now = time.monotonic()
        elapsed, last = now - start, now - rep_start
        n_plain = sum(not r["traced"] for r in reps)
        n_traced = len(reps) - n_plain
        enough = (n_plain >= MIN_TRACE_REPS and n_traced >= MIN_TRACE_REPS
                  if trace else n_plain >= MIN_REPS)
        # stop at the repetition boundary nearest to the requested duration
        if (enough and elapsed + 0.5 * last >= seconds) or elapsed >= LAST_START_S:
            break

    # bit-for-bit: every repetition, traced or not, and earlier runs of the
    # same sources and config (seed included) must give identical results.json
    done = [r for r in reps if "sha256" in r]
    store = _fingerprint_store(cfg, digest)
    stored = json.loads(store.read_text(encoding="utf-8")) if store.exists() else None
    expected = stored["sha256"] if stored else (done[0]["sha256"] if done else None)
    for r in done:
        if r["sha256"] != expected:
            r["errors"].append("results.json differs from "
                               + ("an earlier run" if stored else "repetition 0"))

    first_counts = stored.get("counts") if stored else None
    for r in reps:
        if r["traced"] and "spans" in r:
            layers, errors = _check_trace(r, first_counts)
            r["errors"] += errors
            if layers is not None:
                r["layers"] = layers
                if first_counts is None:
                    first_counts = {k: layers[k] for k in tracer.COUNT_NAMES}

    if done and all(not r["errors"] for r in done):
        record = {"sha256": expected,
                  "fingerprint": {k: done[0]["metrics"][k]
                                  for k in workload.fingerprint_keys}}
        if first_counts is not None:
            record["counts"] = first_counts
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(record, indent=2), encoding="utf-8")
    return cfg, reps, digest


def reference_s(rep, key):
    """A repetition's CPU time ``rep[key]`` in reference seconds: scaled by
    the calibration work's reference time over its time around this run."""
    return rep[key] * calibrate.REFERENCE_S / statistics.fmean(rep["calibration_s"])


def end_to_end(workload, cfg, measured):
    plain = [r for r in measured if not r["traced"]]
    if not plain:
        return None
    run = statistics.median(reference_s(r, "cpu_s") for r in plain)
    se = plain[0]["metrics"][workload.se_key]
    return {
        "run_s": run,
        "path_steps_per_s": cfg["estimator"]["n_paths"] * cfg["grid"]["n_steps"] / run,
        "time_to_target_s": run * (se / TARGET_SE) ** 2,
        "setup_s": statistics.median(reference_s(r, "setup_cpu_s") for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024.0,
    }


def wall_medians(measured):
    """Median wall times of the untraced repetitions, for the record only."""
    plain = [r for r in measured if not r["traced"]]
    if not plain:
        return None
    return {"run_wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_wall_s": statistics.median(r["setup_wall_s"] for r in plain)}


def per_layer(cfg, measured):
    traced = [r for r in measured if r["traced"] and "layers" in r]
    plain = [r for r in measured if not r["traced"]]
    if not traced or not plain:
        return None
    out = {}
    for key in traced[0]["layers"]:
        values = [r["layers"][key] for r in traced]
        out[key] = values[0] if key in tracer.COUNT_NAMES else statistics.median(values)
    metrics = plain[0]["metrics"]
    if "rejected" in metrics:
        rejected = int(metrics["rejected"])
    else:
        # duality_test reports no rejection count: take it at the layer
        # boundaries (non-finite states, degenerate Gramian solves)
        rejected = out["flow.invalid_paths"] + out["control.degenerate_paths"]
    out["estimator.rejected_paths"] = rejected
    out["estimator.accepted_frac"] = 1.0 - rejected / cfg["estimator"]["n_paths"]
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        cfg, reps, digest = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # metrics come from every repetition that completed, checks passed or
    # not; failed checks are reported through "failed" and "correct"
    measured = [r for r in reps if "metrics" in r]
    values = (per_layer(cfg, measured) if args.trace
              else end_to_end(workload, cfg, measured))
    if values is None:
        for i, r in enumerate(reps):
            print(f"repetition {i}: {'; '.join(r['errors'])}", file=sys.stderr)
        print("perfbench: no repetition completed; no result", file=sys.stderr)
        return 1

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    failed = sum(bool(r["errors"]) for r in reps)
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    versions = next(r["versions"] for r in reps if "versions" in r)
    fingerprint = {k: measured[0]["metrics"].get(k) for k in workload.fingerprint_keys}
    baseline_diff = _baseline_difference(args.workload, args.seed, fingerprint)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "config": cfg, "environment": _environment(args.seed, versions, digest),
        "fingerprint": fingerprint, "baseline_rel_diff": baseline_diff,
        "failed_frac": failed / len(reps), "wall_medians": wall_medians(measured),
        "repetitions": [{k: v for k, v in r.items() if k not in ("spans", "versions")}
                        for r in reps],
        "result": result,
    }
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2), encoding="utf-8")

    for i, r in enumerate(reps):
        if r["errors"]:
            print(f"repetition {i} failed: {'; '.join(r['errors'])}")
    print(f"{args.workload} seed={args.seed}: {len(reps)} repetitions, "
          f"{failed} failed (failed_frac {failed / len(reps):.3g}); record in "
          f"{path.relative_to(ROOT)}")
    if baseline_diff is not None:
        print("  outputs vs baseline.json: " + (
            "identical" if baseline_diff == 0 else
            f"differ by up to {baseline_diff:.3g} (relative)"))
    for k in units:
        print(f"  {k} = {values[k]!r} {units[k]}")
    for k, v in (wall_medians(measured) or {}).items():
        print(f"  ({k} = {v!r} s, wall time, not a metric)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
