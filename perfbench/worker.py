"""One workload run in a fresh interpreter: set-up, timed ops, then checks.

    python3 perfbench/worker.py --workload W --seed N --seconds S [--trace] [--setup-only]

Set-up is timed from before ``import isoflow.cli`` to the end of building the
workload's inputs.  Untimed ops of the first round, for up to ``WARMUP_S``
seconds, then let lazy set-up finish.  Timed ops follow, closed loop with one
caller, in whole rounds until ``--seconds`` have passed and at least
``MIN_OPS`` ops have completed; after each op, outside its time,
``speed.kernel`` samples how fast the machine runs (also around set-up), and
each op latency is scaled to the reference speed.  Only after the timed ops
does the worker read its peak RSS, import the referee (mpmath) and check
every output.  With ``--trace`` the timed ops run in two halves: the
first untraced, the second with the tracer of ``layers.py`` installed, and
the per-layer figures come from the second.  The result is one JSON line on
stdout.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import speed  # noqa: E402

SETUP_KERNEL_S = 0.1
_SETUP_KERNEL = speed.sample(SETUP_KERNEL_S, [])
_T0 = time.perf_counter()
import isoflow.cli as cli  # noqa: E402

_T1 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

from isoflow import verification  # noqa: E402

import workloads  # noqa: E402

MIN_OPS = 100
WARMUP_S = 2.0


def run_cli(argv):
    """(exit code or exception name, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an uncaught exception is the op's outcome
            rc = f"uncaught {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


class Workload:
    """The ops of one round; ``outcome`` is what the checks need of an op."""

    def __init__(self, name, seed, scratch):
        self.name = name
        if name == "verify-grid":
            grid = dict(verification.builtin_grid())
            self.labels = list(grid)
            names = workloads.verify_order(seed, self.labels) + ["global"]
            instance = list(verification.INSTANCE_CHECKS)
            global_checks = list(verification.GLOBAL_CHECKS)

            def verify(label):
                if label == "global":
                    return lambda: verification.run_verification(
                        surfaces=[], checks=global_checks)
                pair = [(label, grid[label])]
                return lambda: verification.run_verification(surfaces=pair, checks=instance)

            self.ops = [(label, None, verify(label)) for label in names]
        elif name == "collapse-sweep":
            self.ops = [
                (op, spec, self._cli(["collapse"] + workloads.argv(spec)))
                for op, spec in workloads.collapse_sweep(seed)
            ]
        elif name == "export-cloud":
            os.makedirs(scratch, exist_ok=True)
            self.clouds = workloads.export_clouds(seed)
            self.ops = [
                (op, spec, self._cli(["export"] + workloads.argv(spec) + [
                    "--times", repr(t), "--resolution", ",".join(map(str, res)),
                    "--output-dir", scratch, "--stem", f"op{i:02d}"]))
                for i, (op, spec, t, res, _) in enumerate(self.clouds)
            ]
        else:
            raise SystemExit(f"unknown workload {name!r}")

    @staticmethod
    def _cli(argv):
        return lambda: run_cli(argv)

    @staticmethod
    def outcome(result):
        if isinstance(result, tuple):
            return result
        return tuple((r.check, r.label, r.passed) for r in result)


def run_rounds(work, seconds, outcomes, min_ops=MIN_OPS, tracer=None):
    """Closed loop over whole rounds; returns (op latencies, kernel (seconds, calls) per op).

    After each op, and outside its time, ``speed.kernel`` runs for a share
    of the op's latency, so the machine's speed is sampled in proportion to
    the time the ops take.
    """
    lat = []
    kernel = []
    start = time.perf_counter()
    while True:
        for i, (name, _, op) in enumerate(work.ops):
            if tracer is not None:
                tracer.begin_op(name)
            a = time.perf_counter()
            result = op()
            b = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            lat.append(b - a)
            outcomes[i].append(work.outcome(result))
            k = speed.sample(speed.SHARE * (b - a), [])
            kernel.append((sum(k), len(k)))
        if time.perf_counter() - start >= seconds and len(lat) >= min_ops:
            return lat, kernel


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    scratch = os.path.join(HERE, "out", f"clouds-{os.getpid()}")
    work = Workload(args.workload, args.seed, scratch)
    t2 = time.perf_counter()
    speed.sample(SETUP_KERNEL_S, _SETUP_KERNEL)
    setup = {
        "import_s": _T1 - _T0,
        "inputs_s": t2 - _T1,
        "scale": speed.factor(sum(_SETUP_KERNEL), len(_SETUP_KERNEL)),
    }
    if args.setup_only:
        shutil.rmtree(scratch, ignore_errors=True)
        print(json.dumps({"setup": setup}))
        return 0

    try:
        warm_until = time.perf_counter() + WARMUP_S
        for _, _, op in work.ops:
            op()
            if time.perf_counter() >= warm_until:
                break
        outcomes = [[] for _ in work.ops]
        tracer = None
        if args.trace:
            # Two halves of whole rounds; only the untraced runs need the
            # op floor that op_p90_ms asks for.
            lat, kernel = run_rounds(work, args.seconds / 2, outcomes, min_ops=1)
            import layers

            tracer = layers.Tracer()
            tracer.install()
            traced_lat, traced_kernel = run_rounds(work, args.seconds / 2, outcomes, 1, tracer)
            tracer.uninstall()
        else:
            lat, kernel = run_rounds(work, args.seconds, outcomes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        import verdicts  # the referee and every output check load only now

        problems, failed_ops = verdicts.check(work, outcomes)
        result = {
            "setup": setup,
            "scaled": speed.scaled(lat, kernel),
            "peak_rss_mb": peak_rss_mb,
            "attempted": sum(len(o) for o in outcomes),
            "failed": sum(len(outcomes[i]) for i in failed_ops),
            "problems": problems,
        }
        if tracer is not None:
            untraced = result["scaled"]
            result["layers"] = tracer.metrics(
                speed.scaled(traced_lat, traced_kernel), sum(untraced) / len(untraced),
                verdicts.layer_errors)
            tracer.write(os.path.join(HERE, "out", f"trace-{args.workload}.csv"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
