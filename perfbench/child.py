"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/child.py CONFIG REP_JSON TRACE

Times set-up (import hypograd, parse the config, build the model and its
weight profile) and then the whole ``hypograd.cli.run(CONFIG)`` call, each
as wall time and as the process's CPU time, with the fixed calibration work
of calibrate.py timed just before and just after the run.  Writes them,
with the process's peak RSS and the library versions, to REP_JSON.  With
TRACE=1 the layer wrappers of tracer.py are installed after set-up and the
run's spans and counts are written too.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time

import calibrate
import tracer


def _versions():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas[k] for k in ("name", "version", "openblas configuration")
                     if k in blas}}


def main(config_path, rep_path, trace):
    t0, c0 = time.perf_counter(), time.process_time()
    import hypograd
    from hypograd import cli, estimator
    from hypograd.flow import TimeGrid

    cfg = cli.load_config(config_path)
    spec = cli.build_model(cfg["model"])
    grid = TimeGrid(float(cfg["grid"]["t_final"]), int(cfg["grid"]["n_steps"]))
    est = cfg["estimator"]
    estimator.default_weights(spec, grid, c_bound=est.get("c_bound"),
                              probe_x0=cfg["x0"], probe_seed=est["master_seed"])
    setup_wall_s, setup_cpu_s = time.perf_counter() - t0, time.process_time() - c0

    recorder = None
    if trace:
        recorder = tracer.Tracer()
        tracer.install(recorder)
    calibration_s = [calibrate.calibrate()]
    t1, c1 = time.perf_counter(), time.process_time()
    status = cli.run(config_path)
    wall_s, cpu_s = time.perf_counter() - t1, time.process_time() - c1
    calibration_s.append(calibrate.calibrate())

    rep = {"setup_wall_s": setup_wall_s, "setup_cpu_s": setup_cpu_s,
           "wall_s": wall_s, "cpu_s": cpu_s, "calibration_s": calibration_s,
           "status": status,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "hypograd_file": hypograd.__file__, "versions": _versions()}
    if recorder is not None:
        rep["spans"] = recorder.spans
        rep["counts"] = dict(recorder.counts)
    with open(rep_path, "w", encoding="utf-8") as fh:
        json.dump(rep, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3] == "1"))
