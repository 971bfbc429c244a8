"""Self-test of the benchmark: every workload at tiny sizes, every check
shown to reject a deliberately wrong output.

    python3 bench/selftest.py

For each workload it runs one round and requires that nothing is wrong and
that the failed operations are exactly the known faults.  Then, for each
check, it restores the round's outputs, changes one thing in them and
requires the check to raise; where a known fault hides the output a check
guards (F1 leaves a landscape of zeros, F2 a CSV that is not numeric), it
first writes the output a mended program would and requires the check to
pass on it.  Finally it compares the metric names the runner prints with
BENCHMARK.json.  Exits 1 on the first failure.
"""

import copy
import json
import math
import os
import re
import shutil
import sys
import tempfile

import run  # sets up the paths and the BLAS thread cap
from tracer import Tracer
from workloads import REFERENCE_STATE, WORKLOADS, Wrong, read_json

KNOWN_FAULTS = {
    "sweep": {"landscape": "F1", "bifurcate": "F2"},
    "trajectory": {},
    "gradient": {},
    "train": {"bifurcate-sine": "F2", "bifurcate-symbols": "F2"},
}


def edit(path, fn):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(fn(text))


def edit_json(path, fn):
    doc = read_json(path)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def mend_f2(path):
    edit(path, lambda t: re.sub(r"np\.float64\(([^)]*)\)", r"\1", t))


def bump_row(path, row, col, delta):
    """Add delta to one numeric field of a CSV data row (comments skipped)."""
    def fn(text):
        lines = text.splitlines()
        data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
        fields = lines[data[row]].split(",")
        fields[col] = repr(float(fields[col]) + delta)
        lines[data[row]] = ",".join(fields)
        return "\n".join(lines) + "\n"
    edit(path, fn)


def scale_column(path, col, factor):
    def fn(text):
        out = []
        for i, ln in enumerate(text.splitlines()):
            if ln and not ln.startswith("#") and not ln[0].isalpha():
                f = ln.split(",")
                f[col] = repr(float(f[col]) * factor)
                ln = ",".join(f)
            out.append(ln)
        return "\n".join(out) + "\n"
    edit(path, fn)


def mend_landscape(wl):
    """landscape.csv and minima.json as the command writes them once it
    starts from --x0, made with the exported functions."""
    rl = wl.rl
    z = wl.z
    ref = rl.load_cell(wl.weights)
    data = rl.simulate(ref, REFERENCE_STATE, z["steps"])
    ds = [rl.Sequence(inputs=data.inputs, targets=data.outputs, x0=REFERENCE_STATE)]
    grid = rl.landscape_sweep(lambda th: ref.with_params(th), ds, rl.SQUARED_ERROR,
                              [("true", ref.params.values)], [(0.0, 1.6)], z["points"])
    out = wl.outdir("landscape")
    grid.to_csv(os.path.join(out, "landscape.csv"))
    with open(os.path.join(out, "minima.json"), "w") as fh:
        json.dump(rl.local_minima_census(grid), fh)


def flip_largest(g):
    i = int(abs(g).argmax())
    g[i] = -g[i]


def block_above_target(path):
    def fn(doc):
        import numpy as np

        W = np.asarray(doc["blocks"]["W_hf"])
        doc["blocks"]["W_hf"] = (W * 1.01 * doc["target_norm"]
                                 / np.linalg.norm(W, 2)).tolist()
    edit_json(path, fn)


def cases(wl):
    """(op name, description, mutation of (outputs, result), expect Wrong)."""
    out = wl.outdir
    if wl.name == "sweep":
        land = os.path.join(out("landscape"), "landscape.csv")
        bif = os.path.join(out("bifurcate"), "bifurcation.csv")
        return [
            ("landscape", "landscape from x0 (F1 mended)",
             lambda r: mend_landscape(wl), False),
            ("landscape", "landscape scaled by 1 + 1e-3",
             lambda r: (mend_landscape(wl), scale_column(land, 1, 1 + 1e-3)), True),
            ("bifurcate", "numeric bifurcation.csv (F2 mended)",
             lambda r: mend_f2(bif), False),
            ("bifurcate", "one sample at s = 0.2 moved by 1e-3",
             lambda r: (mend_f2(bif), bump_row(bif, wl.z["record"] + 3, 1, 1e-3)), True),
        ]
    if wl.name == "trajectory":
        def lyap(name):
            return os.path.join(out(name), "lyapunov.json")

        return [
            ("simulate", "one state moved by 1e-9",
             lambda r: bump_row(os.path.join(out("simulate"), "trajectory.csv"),
                                123, 2, 1e-9),
             True),
            ("simulate", "trajectory.json off by one ulp",
             lambda r: edit_json(os.path.join(out("simulate"), "trajectory.json"),
                                 lambda d: d["states"][7].__setitem__(
                                     0, math.nextafter(d["states"][7][0], 2.0))), True),
            ("lyapunov-marginal", "exponent at s = 1 moved by 1e-4",
             lambda r: edit_json(lyap("lyapunov-marginal"), lambda d: d.__setitem__(
                 "lyapunov_exponent", d["lyapunov_exponent"] + 1e-4)), True),
            ("lyapunov-chaotic", "negative exponent at the chaotic scale",
             lambda r: edit_json(lyap("lyapunov-chaotic"), lambda d: d.__setitem__(
                 "lyapunov_exponent", -abs(d["lyapunov_exponent"]))), True),
        ]
    if wl.name == "gradient":
        def smooth(L_f):
            return os.path.join(out(f"smoothness-{L_f}-{wl.z['N']}"), "smoothness.json")
        import oracle

        return [
            ("landscape_sweep", "costs scaled by 1 + 1e-3",
             lambda r: r.values.__imul__(1 + 1e-3), True),
            ("landscape_sweep", "gradient norm at s = 0.2 scaled by 1 + 1e-3",
             lambda r: r.gradient_norms.__setitem__(1, r.gradient_norms[1] * (1 + 1e-3)),
             True),
            ("gradient", "one sign flipped at s = 0.6",
             lambda r: flip_largest(r[1]), True),
            ("empirical_lipschitz_V", "L_V_prime_hat scaled by 1 + 1e-4",
             lambda r: setattr(r, "L_V_prime_hat", r.L_V_prime_hat * (1 + 1e-4)), True),
            (f"smoothness-0.9-{wl.z['N']}", "L_V_prime above c_inf at L_f = 0.9",
             lambda r: edit_json(smooth(0.9), lambda d: d.__setitem__(
                 "L_V_prime", oracle.contractive_limit(0.9) * 1.001)), True),
            (f"smoothness-1.0-{wl.z['N']}", "L_V_prime scaled by 1.01 at L_f = 1",
             lambda r: edit_json(smooth(1.0), lambda d: d.__setitem__(
                 "L_V_prime", d["L_V_prime"] * 1.01)), True),
        ]
    if wl.name == "train":
        def bif(task):
            return os.path.join(out(f"bifurcate-{task}"), "bifurcation.csv")

        snap = os.path.join(wl.symbol_run, "snapshots",
                            f"epoch_{wl.z['symbol_epochs']}.json")
        hist = os.path.join(wl.sine_run, "history.csv")
        return [
            ("train-sine", "printed final mse scaled by 1.001",
             lambda r: re.sub(r"final mse=(\S+)",
                              lambda m: f"final mse={float(m.group(1)) * 1.001:.6g}", r),
             True),
            ("train-sine", "loss rising over the epochs",
             lambda r: scale_column(hist, 1, -1.0), True),
            ("train-symbols", "a recurrent block above its target norm",
             lambda r: block_above_target(snap), True),
            ("bifurcate-sine", "numeric bifurcation.csv (F2 mended)",
             lambda r: mend_f2(bif("sine")), False),
            ("bifurcate-sine", "one sample moved by 1e-3",
             lambda r: (mend_f2(bif("sine")), bump_row(bif("sine"), 5, 1, 1e-3)), True),
            ("bifurcate-symbols", "numeric bifurcation.csv (F2 mended)",
             lambda r: mend_f2(bif("symbols")), False),
            ("bifurcate-symbols", "one sample moved by 1e-3",
             lambda r: (mend_f2(bif("symbols")), bump_row(bif("symbols"), 5, 1, 1e-3)),
             True),
        ]
    return []


def fail(msg):
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def selftest_workload(rnnlab, name, scratch):
    wl = WORKLOADS[name](rnnlab, 7, "tiny", scratch)
    results = {}
    rnd = run.Round(wl)
    if rnd.wrong:
        fail(f"{name}: {rnd.wrong}")
    if rnd.failed != KNOWN_FAULTS[name]:
        fail(f"{name}: failed {rnd.failed}, expected {KNOWN_FAULTS[name]}")
    for op in wl.ops:                    # results of the round, kept for mutation
        results[op.name] = op.call()
        op.check(results[op.name])
    pristine = scratch + ".pristine"
    shutil.copytree(scratch, pristine)
    ops = {op.name: op for op in wl.ops}
    for op_name, what, mutate, expect_wrong in cases(wl):
        shutil.rmtree(scratch)
        shutil.copytree(pristine, scratch)
        result = copy.deepcopy(results[op_name])
        changed = mutate(result)
        if isinstance(result, str) and isinstance(changed, str):
            result = changed
        try:
            faults = ops[op_name].check(result)
            verdict = f"accepted (faults {faults})"
            ok = not expect_wrong and not faults
        except Wrong as err:
            verdict = f"rejected: {err}"
            ok = expect_wrong
        print(f"  {name}/{op_name}: {what}: {verdict}")
        if not ok:
            fail(f"{name}/{op_name}: {what} was {verdict.split(':')[0]}")
    shutil.rmtree(pristine)
    return wl


def check_metric_names(rnnlab, wl):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    tracer = Tracer(rnnlab)
    rnd = run.Round(wl, tracer)
    layers = set(run.layer_metrics(tracer, rnd, 0.0)) | {"trace.overhead_s"}
    end_to_end = {"setup_s", "wall_s", "cpu_s", "cell_steps_per_s", "peak_rss_mb"}
    if {m["name"] for m in bench["per_layer"]} != layers:
        fail(f"per-layer metrics differ from BENCHMARK.json: "
             f"{layers ^ {m['name'] for m in bench['per_layer']}}")
    if {m["name"] for m in bench["end_to_end"]} != end_to_end:
        fail("end-to-end metrics differ from BENCHMARK.json")
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        fail("workloads differ from BENCHMARK.json")
    if tracer.absent:
        fail(f"traced targets missing from rnnlab: {tracer.absent}")


def main():
    rnnlab = run.import_rnnlab()
    os.makedirs(run.SCRATCH, exist_ok=True)
    base = tempfile.mkdtemp(prefix="selftest-", dir=run.SCRATCH)
    try:
        for name in WORKLOADS:
            print(f"{name}:")
            wl = selftest_workload(rnnlab, name, os.path.join(base, name))
        check_metric_names(rnnlab, wl)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(run.SCRATCH)
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
