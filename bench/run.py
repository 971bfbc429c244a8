"""Benchmark of rnnlab: one workload, measured for a fixed time.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Runs the workload's operations (``rnnlab`` commands in-process, or exported
functions where no command exists) in whole rounds until ``--seconds`` have
passed, checks every output against an independent computation, and prints
as its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced rounds alternate and the metrics are the
per-layer ones, taken from the traced rounds.  See bench/README.md.
"""

import os
import sys

# One process on a desk machine: BLAS may use at most two threads.  Set
# before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _n = os.environ.get(_var, "2")
    os.environ[_var] = str(min(int(_n), 2)) if _n.isdigit() and int(_n) > 0 else "2"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
COMMANDS = ("simulate", "bifurcate", "landscape", "train", "smoothness", "lyapunov")

sys.path.insert(0, HERE)


def import_rnnlab():
    """rnnlab from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "rnnlab", "__init__.py")):
        sys.exit(f"bench: no rnnlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import rnnlab
    import rnnlab.cli  # noqa: F401

    if not os.path.abspath(rnnlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported rnnlab from {rnnlab.__file__}, not from {SRC}")
    return rnnlab


def setup_probe(workload, seed):
    """Seconds to import rnnlab and build the workload's inputs, in a fresh
    interpreter (numpy and scipy are not loaded yet when the clock starts)."""
    start = time.perf_counter()
    rnnlab = import_rnnlab()
    from workloads import WORKLOADS

    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="setup-", dir=SCRATCH)
    try:
        WORKLOADS[workload](rnnlab, seed, "full", scratch)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_setup(workload, seed):
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tree_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


class Round:
    """One pass over the workload's operations: timings, then checks."""

    def __init__(self, workload, tracer=None):
        self.wall = self.cpu = 0.0
        self.cli_wall = Counter()
        self.artefact_bytes = 0
        self.failed = {}      # op name -> known faults, or the error text
        self.wrong = {}       # op name -> what was wrong
        results = []
        if tracer:
            tracer.reset()
            tracer.install()
        try:
            for op in workload.ops:
                if op.out:
                    shutil.rmtree(op.out, ignore_errors=True)
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    results.append((op, op.call(), None))
                except Exception as err:  # the op failed; reported by name below
                    results.append((op, None, err))
                c1, t1 = time.process_time(), time.perf_counter()
                self.wall += t1 - t0
                self.cpu += c1 - c0
                if op.command:
                    self.cli_wall[op.command] += t1 - t0
        finally:
            if tracer:
                tracer.uninstall()
        from workloads import Wrong

        for op, result, error in results:
            if op.out and os.path.isdir(op.out):
                self.artefact_bytes += tree_bytes(op.out)
            if error is not None:
                self.failed[op.name] = f"{type(error).__name__}: {error}"
                self.wrong[op.name] = self.failed[op.name]
                continue
            try:
                faults = op.check(result)
            except Wrong as err:
                self.wrong[op.name] = str(err)
                continue
            except Exception as err:  # an output the check could not read
                self.wrong[op.name] = f"check raised {type(err).__name__}: {err}"
                continue
            if faults:
                self.failed[op.name] = "+".join(faults)


def layer_metrics(tracer, rnd, import_s):
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    calls, self_s, extra = tracer.calls, tracer.self_s, tracer.extra
    m = {}
    for layer in ("cells.step", "cells.output", "cells.with_params", "cells.jacobians",
                  "cells.project_stable", "params.get", "statespace.simulate",
                  "sensitivity.cost", "sensitivity.gradient", "smoothness.checked_cost",
                  "analysis.projection"):
        m[f"{layer}.calls"] = (calls[layer], "count")
    for layer in ("cells.step", "cells.jacobians", "cells.forward_batch",
                  "cells.backward_batch", "cells.project_stable", "statespace.simulate",
                  "statespace.simulate_closed_loop", "statespace.lyapunov_exponent",
                  "statespace.Trajectory.to_csv", "sensitivity.cost",
                  "sensitivity.gradient",
                  "sensitivity.propagate_sensitivity",
                  "sensitivity.cost_and_gradient_reverse", "sensitivity.batch_outputs",
                  "smoothness.landscape_sweep", "smoothness.empirical_lipschitz_V",
                  "smoothness.bound_L_V_prime", "analysis.bifurcation_sweep",
                  "analysis.epoch_bifurcation", "analysis.BifurcationDiagram.to_csv",
                  "training.train", "training.Adam.step", "training.task_evaluate",
                  "training.save_run", "training.load_run", "svgplot"):
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m["sensitivity.simulate_per_gradient"] = (tracer.ratio(
        "sensitivity.gradient", "statespace.simulate", extra["gradient_sequences"]),
        "ratio")
    m["smoothness.simulate_per_point"] = (tracer.ratio(
        "smoothness.landscape_sweep", "statespace.simulate", extra["landscape_points"]),
        "ratio")
    m["smoothness.divergent_points"] = (extra["divergent_points"], "count")
    m["svgplot.bytes"] = (extra["svg_bytes"], "bytes")
    for command in COMMANDS:
        m[f"cli.{command}.wall_s"] = (rnd.cli_wall[command], "s")
    m["cli.artefact_bytes"] = (rnd.artefact_bytes, "bytes")
    m["cli.import_s"] = (import_s, "s")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    start = time.perf_counter()
    rnnlab = import_rnnlab()
    import_s = time.perf_counter() - start
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        workload = WORKLOADS[args.workload](rnnlab, args.seed, "full", scratch)
        tracer = Tracer(rnnlab) if args.trace else None
        plain, traced, layers = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            if tracer and len(plain) > len(traced):
                traced.append(Round(workload, tracer))
                layers.append(layer_metrics(tracer, traced[-1], import_s))
            else:
                plain.append(Round(workload))
            # stop before a round that would end past the deadline
            walls = [r.wall for r in plain + traced]
            if (time.perf_counter() + sum(walls) / len(walls) > deadline
                    and (not tracer or traced)):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass

    rounds = plain + traced
    attempted = len(rounds) * len(workload.ops)
    failed = sum(len(r.failed) for r in rounds)
    seen, wrong = {}, {}
    for r in rounds:
        seen.update(r.failed)
        wrong.update(r.wrong)
    for op, why in sorted(seen.items()):
        print(f"failed: {args.workload}/{op}: {why}")
    for op, why in sorted(wrong.items()):
        print(f"WRONG: {args.workload}/{op}: {why}")
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced rounds of "
          f"{len(workload.ops)} operations; wall_s per round: "
          + " ".join(f"{r.wall:.3f}" for r in rounds))

    def median(values):
        return float(statistics.median(values))

    if tracer:
        metrics = {name: {"value": median([lm[name][0] for lm in layers]), "unit": unit}
                   for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_s"] = {
            "value": median([r.wall for r in traced]) - median([r.wall for r in plain]),
            "unit": "s"}
        for layer in tracer.absent:
            print(f"absent: {layer} (no such function or method; its metrics read 0)")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": median([r.wall for r in plain]), "unit": "s"},
            "cpu_s": {"value": median([r.cpu for r in plain]), "unit": "s"},
            "cell_steps_per_s": {
                "value": median([workload.nominal_steps / r.wall for r in plain]),
                "unit": "steps/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
