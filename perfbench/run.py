"""isoflow benchmark: three workloads, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts ``SETUP_PROBES`` fresh
interpreters that only set up (import ``isoflow.cli`` and build the
workload's inputs) and then one fresh interpreter that sets up, runs the
timed ops and checks their outputs (``worker.py``).  ``setup_s`` is the
median set-up time over all of them.  Every end-to-end time is scaled to
the reference machine speed of ``speed.py``, measured alongside it.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer ones with ``--trace 1``.  Problems found by the checks go to
stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from checks import GLOBAL_CHECKS, INSTANCE_CHECKS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-grid", "collapse-sweep", "export-cloud")
SETUP_PROBES = 2
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "setup.import_ms": "ms",
    "setup.inputs_ms": "ms",
    "cli.self_ms": "ms",
    "catalog.build_ms": "ms",
    "spaceform.cs_eval_ms": "ms",
    "spaceform.parallel_point_ms": "ms",
    "spaceform.check_frame_ms": "ms",
    "closed_form.resolve_profile_calls": "count",
    "closed_form.resolve_profile_ms": "ms",
    "closed_form.xi_calls": "count",
    "closed_form.xi_points_per_call": "count",
    "closed_form.xi_ms": "ms",
    "closed_form.tstar_rel_err_max": "ratio",
    "flow_ode.estimate_tstar_calls": "count",
    "flow_ode.estimate_tstar_ms": "ms",
    "flow_ode.integrate_calls": "count",
    "flow_ode.integrate_ms": "ms",
    "flow_ode.integrate_per_estimate": "ratio",
    "flow_ode.rhs_calls": "count",
    "flow_ode.tstar_rel_err_max": "ratio",
    "collapse.analyze_calls": "count",
    "collapse.analyze_ms": "ms",
    "embedding.sample_ms": "ms",
    "embedding.export_csv_ms": "ms",
    "embedding.export_csv_rows_per_s": "1/s",
    "embedding.csv_bytes": "B",
    "embedding.export_metadata_ms": "ms",
    **{f"verification.{c}_ms": "ms" for c in INSTANCE_CHECKS + GLOBAL_CHECKS},
    "trace.overhead_pct": "%",
}


def _env():
    env = dict(os.environ)
    env.pop("ISOFLOW_TOL", None)  # the workloads run at the default tolerances
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layout in every interpreter
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, deadline):
    """Run worker.py to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the next worker")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "isoflow", "cli.py")):
        print(f"error: no isoflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [_worker(common + ["--setup-only"], deadline)["setup"]
              for _ in range(SETUP_PROBES)]
    run = _worker(common + ["--seconds", str(args.seconds)]
                  + (["--trace"] if args.trace else []), deadline)
    setups.append(run["setup"])

    if args.trace:
        values = dict(run["layers"])
        values["setup.import_ms"] = 1e3 * statistics.median(s["import_s"] for s in setups)
        values["setup.inputs_ms"] = 1e3 * statistics.median(s["inputs_s"] for s in setups)
        units = PER_LAYER
    else:
        lat = run["scaled"]
        values = {
            "setup_s": statistics.median(
                (s["import_s"] + s["inputs_s"]) * s["scale"] for s in setups),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = END_TO_END
    for problem in run["problems"]:
        print(f"check: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
