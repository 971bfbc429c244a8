"""Command-line frontend: every analysis as a reproducible, file-emitting command.

Commands: simulate, bifurcate, landscape, train, smoothness, entropy,
lyapunov.  Shared flags: --config (strict JSON document), --seed, --out.
Exit codes: 0 ok, 2 config error, 3 numerical divergence, 4 I/O error.
Every output file embeds the resolved-config hash, the seed and the
package version, so re-running a command reproduces its outputs byte for
byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import (
    bifurcation_sweep,
    check_entropy_bound,
    entropy_linear_gaussian,
    epoch_bifurcation,
)
from .cells import load_cell, make_cell
from .errors import ConfigError, DivergentCost, NonFiniteState, RnnLabError, SingularMatrix
from .sensitivity import LOSSES, Sequence
from .smoothness import (
    SmoothnessConstants,
    bound_report,
    landscape_sweep,
    local_minima_census,
)
from .statespace import lyapunov_exponent, simulate
from .svgplot import svg_heatmap, svg_line, svg_scatter
from .training import (
    SineTask,
    SymbolTask,
    TrainConfig,
    load_run,
    save_run,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _load_config(path, allowed):
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _resolve(args, config, key, default=None):
    """CLI flag wins over config value wins over default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _spec_hash(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _meta(resolved, seed):
    return {
        "spec_hash": _spec_hash(resolved),
        "seed": seed,
        "version": __version__,
    }


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _outdir(args):
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _parse_floats(text):
    try:
        return [float(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_range(text):
    try:
        lo, hi = (float(v) for v in str(text).split(":"))
    except ValueError:
        raise ConfigError(f"range must look like lo:hi, got {text!r}") from None
    return lo, hi


def _parse_matrix(text):
    if text is None:
        raise ConfigError("missing matrix specification")
    text = str(text)
    if text.startswith("diag:"):
        return np.diag(_parse_floats(text[len("diag:"):]))
    if text.endswith(".json"):
        if not os.path.exists(text):
            raise ConfigError(f"matrix file not found: {text}")
        with open(text) as fh:
            return np.asarray(json.load(fh), dtype=float)
    raise ConfigError(f"matrix must be 'diag:a,b,...' or a .json file, got {text!r}")


def _load_weights_model(path):
    if not os.path.exists(path):
        raise ConfigError(f"weights file not found: {path}")
    with open(path) as fh:
        doc = json.load(fh)
    cell = load_cell(path)
    x0 = doc.get("x0")
    x0 = np.asarray(x0, dtype=float) if x0 is not None else cell.initial_state()
    return cell, x0


def _resolve_model(args, config, seed):
    """Model + default x0 from --weights or from a --cell description."""
    weights = _resolve(args, config, "weights")
    if weights:
        cell, x0 = _load_weights_model(weights)
        return cell, x0, {"weights": weights}
    kind = _resolve(args, config, "cell")
    if not kind:
        raise ConfigError("need either --weights or --cell")
    hidden = int(_resolve(args, config, "hidden", 32))
    inputs = int(_resolve(args, config, "inputs", 0))
    readout = _resolve(args, config, "readout", "identity" if inputs == 0 else "linear")
    outputs = int(_resolve(args, config, "outputs", 1))
    cell = make_cell(kind, hidden, n_input=inputs, bias=inputs > 0,
                     readout=readout, n_output=outputs, init_seed=seed)
    desc = {"cell": kind, "hidden": hidden, "inputs": inputs,
            "readout": readout, "outputs": outputs}
    return cell, cell.initial_state(), desc


def _resolve_x0(args, config, model, default):
    """Initial state from --x0 or the config key ``x0``, else ``default``.

    The value is a comma-separated list (or, in a config, a JSON list) of
    exactly ``model.state_dim`` numbers.
    """
    value = _resolve(args, config, "x0")
    try:
        if value is None:
            x0 = np.asarray(default, dtype=float)
        else:
            x0 = np.asarray(value if isinstance(value, list) else _parse_floats(value),
                            dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"x0 must be a list of numbers: {err}") from None
    if x0.shape != (model.state_dim,):
        raise ConfigError(f"x0 needs {model.state_dim} values, got {x0.size}")
    return x0


def _constant_inputs(model, value, steps):
    if model.input_dim == 0:
        return np.zeros((steps, 0))
    if value is None:
        u = np.zeros(model.input_dim)
    else:
        u = np.asarray(_parse_floats(value), dtype=float)
        if u.size != model.input_dim:
            raise ConfigError(
                f"input needs {model.input_dim} values, got {u.size}"
            )
    return np.tile(u, (steps, 1))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_SIM_KEYS = ("weights", "cell", "hidden", "inputs", "readout", "outputs",
             "steps", "input", "x0", "scale", "seed", "out")


def cmd_simulate(args):
    config = _load_config(args.config, _SIM_KEYS)
    seed = int(_resolve(args, config, "seed", 0))
    model, x0, desc = _resolve_model(args, config, seed)
    steps = int(_resolve(args, config, "steps", 200))
    scale = _resolve(args, config, "scale")
    if scale is not None:
        model = model.with_params(float(scale) * model.params.values)
    x0 = _resolve_x0(args, config, model, x0)
    inputs = _constant_inputs(model, _resolve(args, config, "input"), steps)

    resolved = {"command": "simulate", "steps": steps, "scale": scale,
                "x0": [float(v) for v in x0], "seed": seed, **desc}
    meta = _meta(resolved, seed)
    traj = simulate(model, x0, inputs)
    out = _outdir(args)
    traj.to_csv(os.path.join(out, "trajectory.csv"), meta=meta)
    traj.to_json(
        os.path.join(out, "trajectory.json"),
        model_name=model.name,
        theta_hash=model.params.theta_hash(),
        seed=seed,
        meta={"spec_hash": meta["spec_hash"], "version": __version__},
    )
    print(os.path.join(out, "trajectory.csv"))
    return EXIT_OK


_BIF_KEYS = ("weights", "cell", "hidden", "inputs", "readout", "outputs",
             "sweep", "range", "points", "burn_in", "record", "projection",
             "feedback", "input", "x0", "run_dir", "seed", "out")


def cmd_bifurcate(args):
    config = _load_config(args.config, _BIF_KEYS)
    seed = int(_resolve(args, config, "seed", 0))
    sweep_kind = _resolve(args, config, "sweep", "s")
    burn_in = int(_resolve(args, config, "burn_in", 100))
    record = int(_resolve(args, config, "record", 100))
    projection = _resolve(args, config, "projection", "output:0")
    feedback = _resolve(args, config, "feedback", "none")

    if sweep_kind == "s":
        model, x0, desc = _resolve_model(args, config, seed)
        lo, hi = _parse_range(_resolve(args, config, "range", "0:1.6"))
        points = int(_resolve(args, config, "points", 81))
        s_values = np.linspace(lo, hi, points)
        theta0 = model.params.values.copy()
        u_value = _resolve(args, config, "input")
        u = _constant_inputs(model, u_value, 1)[0]
        x0 = _resolve_x0(args, config, model, x0)
        resolved = {"command": "bifurcate", "sweep": "s", "range": [lo, hi],
                    "points": points, "burn_in": burn_in, "record": record,
                    "projection": projection, "x0": x0.tolist(), "seed": seed,
                    **desc}
        diagram = bifurcation_sweep(
            lambda s: model.with_params(s * theta0),
            s_values, u, x0, burn_in=burn_in, record=record,
            projection=projection,
        )
    elif sweep_kind == "epoch":
        run_dir = _resolve(args, config, "run_dir")
        if not run_dir:
            raise ConfigError("--sweep epoch needs --run-dir")
        if not os.path.isdir(run_dir):
            raise ConfigError(f"run directory not found: {run_dir}")
        _, _, snapshots = load_run(run_dir)
        base = snapshots[0][1]
        pairs = [(e, c.params.values) for e, c in snapshots]
        u_value = _resolve(args, config, "input")
        u = _constant_inputs(base, u_value, 1)[0]
        x0 = _resolve_x0(args, config, base, base.initial_state())
        # the snapshots, not where the run directory lies, identify the sweep
        snapshot_hashes = [[e, c.params.theta_hash()] for e, c in snapshots]
        resolved = {"command": "bifurcate", "sweep": "epoch",
                    "snapshots": snapshot_hashes, "burn_in": burn_in,
                    "record": record, "feedback": feedback,
                    "projection": projection, "x0": x0.tolist(), "seed": seed}
        diagram = epoch_bifurcation(
            pairs, base, u, x0, burn_in=burn_in, record=record,
            projection=projection, feedback=feedback,
        )
    else:
        raise ConfigError("--sweep must be 's' or 'epoch'")

    meta = _meta(resolved, seed)
    out = _outdir(args)
    diagram.to_csv(os.path.join(out, "bifurcation.csv"), meta=meta)
    xs, ys = [], []
    for s in diagram.samples:
        if s.diverged:
            continue
        xs.extend([s.sweep_value] * len(s.p))
        ys.extend(s.p)
    svg_scatter(
        os.path.join(out, "bifurcation.svg"), xs, ys,
        title="steady-state samples", xlabel=diagram.config["sweep_kind"],
        ylabel=diagram.config["projection"],
        desc=f"spec_hash={meta['spec_hash']} seed={seed} version={__version__}",
    )
    print(os.path.join(out, "bifurcation.csv"))
    return EXIT_OK


_LAND_KEYS = ("weights", "cell", "hidden", "inputs", "readout", "outputs",
              "along", "range", "resolution", "steps", "loss", "grad",
              "input", "x0", "seed", "out")


def cmd_landscape(args):
    config = _load_config(args.config, _LAND_KEYS)
    seed = int(_resolve(args, config, "seed", 0))
    model, x0, desc = _resolve_model(args, config, seed)
    steps = int(_resolve(args, config, "steps", 200))
    along = str(_resolve(args, config, "along", "true"))
    loss = LOSSES[_resolve(args, config, "loss", "squared_error")]
    with_grad = bool(_resolve(args, config, "grad", False))
    x0 = _resolve_x0(args, config, model, x0)

    inputs = _constant_inputs(model, _resolve(args, config, "input"), steps)
    data_traj = simulate(model, x0, inputs)
    dataset = [Sequence(inputs=inputs, targets=data_traj.outputs, x0=x0)]

    theta_true = model.params.values.copy()
    axes = []
    rng = np.random.default_rng(seed)
    for name in along.split(","):
        name = name.strip()
        if name == "true":
            axes.append(("true", theta_true))
        elif name == "random":
            direction = rng.standard_normal(theta_true.size)
            norm_true = np.linalg.norm(theta_true)
            if norm_true > 0 and np.linalg.norm(direction) > 0:
                direction *= norm_true / np.linalg.norm(direction)
            axes.append(("random", direction))
        else:
            raise ConfigError(f"--along accepts 'true' and 'random', got {name!r}")

    range_text = str(_resolve(args, config, "range", "0:1.6"))
    ranges = [_parse_range(r) for r in range_text.split(",")]
    res_text = str(_resolve(args, config, "resolution", "200"))
    try:
        resolution = [int(r) for r in res_text.split(",")]
    except ValueError:
        raise ConfigError(f"resolution must be integers, got {res_text!r}") from None
    if len(ranges) != len(axes) or len(resolution) != len(axes):
        raise ConfigError("--range and --resolution must match the number of axes")

    resolved = {"command": "landscape", "along": along, "range": ranges,
                "resolution": resolution, "steps": steps, "loss": loss.kind,
                "grad": with_grad, "x0": x0.tolist(), "seed": seed, **desc}
    meta = _meta(resolved, seed)

    grid = landscape_sweep(
        lambda theta: model.with_params(theta), dataset, loss,
        axes, ranges, resolution, with_gradient=with_grad,
    )
    out = _outdir(args)
    grid.to_csv(os.path.join(out, "landscape.csv"), meta=meta)
    desc_text = f"spec_hash={meta['spec_hash']} seed={seed} version={__version__}"
    if grid.ndim == 1:
        svg_line(os.path.join(out, "landscape.svg"), grid.coords[0], grid.values,
                 title="cost along parameter ray", xlabel="s1", ylabel="V",
                 desc=desc_text)
        census = local_minima_census(grid)
        _write_json(os.path.join(out, "minima.json"), {**meta, **census})
    else:
        svg_heatmap(os.path.join(out, "landscape.svg"), grid.values,
                    grid.coords[0], grid.coords[1], title="cost surface",
                    xlabel="s1", ylabel="s2", desc=desc_text, log_scale=True)
    print(os.path.join(out, "landscape.csv"))
    return EXIT_OK


_TRAIN_KEYS = ("cell", "task", "hidden", "length", "epochs", "lr", "batch_size",
               "clip_norm", "snapshot_every", "target_norm", "stop_at",
               "lr_drops", "seed", "out")


def cmd_train(args):
    config = _load_config(args.config, _TRAIN_KEYS)
    seed = int(_resolve(args, config, "seed", 0))
    kind = _resolve(args, config, "cell", "lstm")
    task_name = _resolve(args, config, "task", "sine")
    hidden = int(_resolve(args, config, "hidden", 32))

    if task_name == "sine":
        task = SineTask()
        default = dict(epochs=1500, lr=1e-3, batch=0,
                       drops=[(500, 10.0), (1000, 10.0), (2000, 10.0)] if kind == "slstm" else [])
    elif task_name == "symbols":
        length = int(_resolve(args, config, "length", 50))
        task = SymbolTask(length=length, seed=seed)
        default = dict(epochs=2000, lr=1e-2, batch=100,
                       drops=[(500, 10.0), (1000, 10.0), (2000, 10.0)])
    else:
        raise ConfigError(f"unknown task {task_name!r}")

    epochs = int(_resolve(args, config, "epochs", default["epochs"]))
    lr = float(_resolve(args, config, "lr", default["lr"]))
    batch = int(_resolve(args, config, "batch_size", default["batch"]))
    clip = float(_resolve(args, config, "clip_norm", 0.25))
    every = int(_resolve(args, config, "snapshot_every", max(epochs // 15, 1)))
    target_norm = float(_resolve(args, config, "target_norm", 0.97))
    stop_at = _resolve(args, config, "stop_at",
                       1.0 if task.metric_kind == "accuracy" else None)
    drops_text = _resolve(args, config, "lr_drops")
    if drops_text is None:
        drops = default["drops"]
    else:
        try:
            drops = [(int(e), float(f)) for e, f in (
                item.split(":") for item in str(drops_text).split(",") if item.strip())]
        except ValueError:
            raise ConfigError(
                f"lr drops must look like epoch:factor,..., got {drops_text!r}") from None

    cell = make_cell(kind, hidden, n_input=task.input_dim, bias=True,
                     readout="linear", n_output=task.output_dim,
                     init_seed=seed, target_norm=target_norm)
    tconf = TrainConfig(
        epochs=epochs, lr0=lr, clip_norm=clip, batch_size=batch,
        lr_drops=drops, snapshot_every=every, seed=seed,
        stop_at_metric=float(stop_at) if stop_at is not None else None,
    )
    resolved = {"command": "train", "cell": kind, "task": task_name,
                "hidden": hidden, "train": tconf.to_dict(), "seed": seed}
    meta = _meta(resolved, seed)

    model, run = train(cell, task, tconf)
    out = args.out or f"run-{task_name}-{kind}-seed{seed}"
    save_run(run, out, extra_meta=meta)
    result = task.evaluate(model)
    print(f"{out}: final {result.kind}={result.metric:.6g} "
          f"(baseline {result.baseline:.6g})")
    return EXIT_OK


_SMOOTH_KEYS = ("bounds", "Lf", "N", "Lg", "Lfp", "Lgp", "K1", "K2", "K3", "K4",
                "Ly", "M_scale", "seed", "out")


def cmd_smoothness(args):
    config = _load_config(args.config, _SMOOTH_KEYS)
    seed = int(_resolve(args, config, "seed", 0))
    if not _resolve(args, config, "bounds", True):
        raise ConfigError("only --bounds mode is available from the CLI")
    c = SmoothnessConstants(
        L_f=float(_resolve(args, config, "Lf", 1.0)),
        N=int(_resolve(args, config, "N", 100)),
        L_g=float(_resolve(args, config, "Lg", 1.0)),
        L_f_prime=float(_resolve(args, config, "Lfp", 1.0)),
        L_g_prime=float(_resolve(args, config, "Lgp", 1.0)),
        K1=float(_resolve(args, config, "K1", 2.0)),
        K2=float(_resolve(args, config, "K2", 2.0)),
        K3=float(_resolve(args, config, "K3", 2.0)),
        K4=float(_resolve(args, config, "K4", 2.0)),
        L_y=float(_resolve(args, config, "Ly", 1.0)),
        M_scale=float(_resolve(args, config, "M_scale", 1.0)),
    )
    report = bound_report(c)
    resolved = {"command": "smoothness", "inputs": report["inputs"], "seed": seed}
    doc = {**_meta(resolved, seed), **report}
    out = _outdir(args)
    path = os.path.join(out, "smoothness.json")
    _write_json(path, doc)
    print(path)
    return EXIT_OK


_ENTROPY_KEYS = ("A", "Sigma0", "T", "Lf", "seed", "out")


def cmd_entropy(args):
    config = _load_config(args.config, _ENTROPY_KEYS)
    seed = int(_resolve(args, config, "seed", 0))
    A = _parse_matrix(_resolve(args, config, "A"))
    sigma_text = _resolve(args, config, "Sigma0")
    sigma0 = _parse_matrix(sigma_text) if sigma_text else np.eye(A.shape[0])
    T = int(_resolve(args, config, "T", 10))
    lf_arg = _resolve(args, config, "Lf")
    L_f = float(lf_arg) if lf_arg is not None else float(np.linalg.norm(A, 2))

    resolved = {"command": "entropy", "A": A.tolist(), "Sigma0": sigma0.tolist(),
                "T": T, "Lf": L_f, "seed": seed}
    meta = _meta(resolved, seed)
    trace = entropy_linear_gaussian(A, sigma0, T)
    report = check_entropy_bound(trace, L_f)
    doc = {
        **meta,
        "n_states": trace.n_states,
        "log_abs_det_A": trace.log_abs_det_A,
        "H": trace.H.tolist(),
        "increments": trace.increments.tolist(),
        "bound_rate": report.bound_rate,
        "upper_form_holds": report.upper_holds,
        "lower_form_holds": report.lower_holds,
        "upper_ok": report.upper_ok.tolist(),
        "lower_ok": report.lower_ok.tolist(),
    }
    out = _outdir(args)
    path = os.path.join(out, "entropy.json")
    _write_json(path, doc)
    print(path)
    return EXIT_OK


_LYAP_KEYS = ("weights", "cell", "hidden", "inputs", "readout", "outputs",
              "scale", "burn_in", "horizon", "input", "x0", "seed", "out")


def cmd_lyapunov(args):
    config = _load_config(args.config, _LYAP_KEYS)
    seed = int(_resolve(args, config, "seed", 0))
    model, x0, desc = _resolve_model(args, config, seed)
    scale = _resolve(args, config, "scale")
    if scale is not None:
        model = model.with_params(float(scale) * model.params.values)
    burn_in = int(_resolve(args, config, "burn_in", 100))
    horizon = int(_resolve(args, config, "horizon", 1000))
    x0 = _resolve_x0(args, config, model, x0)
    u = _constant_inputs(model, _resolve(args, config, "input"), 1)[0]

    resolved = {"command": "lyapunov", "scale": scale, "burn_in": burn_in,
                "horizon": horizon, "x0": x0.tolist(), "seed": seed, **desc}
    meta = _meta(resolved, seed)
    value = lyapunov_exponent(model, x0, u, burn_in=burn_in, horizon=horizon)
    doc = {**meta, "lyapunov_exponent": float(value)}
    out = _outdir(args)
    path = os.path.join(out, "lyapunov.json")
    _write_json(path, doc)
    print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_shared(p):
    p.add_argument("--config", help="JSON config document (strict keys)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")


def _add_model_flags(p):
    p.add_argument("--weights", help="cell weights JSON file")
    p.add_argument("--cell", help="cell kind: vanilla|lstm|slstm|ornn")
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--inputs", type=int, default=None)
    p.add_argument("--readout", choices=["identity", "linear"], default=None)
    p.add_argument("--outputs", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rnnlab",
        description="recurrent cells as dynamical systems: simulate, analyze, train",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a model forward, write CSV/JSON")
    _add_shared(p)
    _add_model_flags(p)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--input", help="constant input values, comma separated")
    p.add_argument("--x0", help="initial state, comma separated")
    p.add_argument("--scale", type=float, default=None, help="scale theta by s")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("bifurcate", help="steady-state diagram over s or epochs")
    _add_shared(p)
    _add_model_flags(p)
    p.add_argument("--sweep", choices=["s", "epoch"], default=None)
    p.add_argument("--range", default=None, help="lo:hi sweep range")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--record", type=int, default=None)
    p.add_argument("--projection", default=None)
    p.add_argument("--feedback", choices=["none", "argmax"], default=None)
    p.add_argument("--input", help="constant input values")
    p.add_argument("--x0", help="initial state")
    p.add_argument("--run-dir", default=None, dest="run_dir")
    p.set_defaults(fn=cmd_bifurcate)

    p = sub.add_parser("landscape", help="cost along 1-D/2-D parameter rays")
    _add_shared(p)
    _add_model_flags(p)
    p.add_argument("--along", default=None, help="true | random | true,random")
    p.add_argument("--range", default=None, help="lo:hi[,lo:hi]")
    p.add_argument("--resolution", default=None, help="points per axis")
    p.add_argument("--steps", type=int, default=None, help="dataset length")
    p.add_argument("--loss", choices=list(LOSSES), default=None)
    p.add_argument("--grad", action="store_const", const=True, default=None)
    p.add_argument("--input", help="constant input values")
    p.add_argument("--x0", help="initial state")
    p.set_defaults(fn=cmd_landscape)

    p = sub.add_parser("train", help="train a cell on a task, write a run directory")
    _add_shared(p)
    p.add_argument("--cell", default=None)
    p.add_argument("--task", choices=["sine", "symbols"], default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--length", type=int, default=None, help="symbol sequence length")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.add_argument("--clip-norm", type=float, default=None, dest="clip_norm")
    p.add_argument("--snapshot-every", type=int, default=None, dest="snapshot_every")
    p.add_argument("--target-norm", type=float, default=None, dest="target_norm")
    p.add_argument("--stop-at", type=float, default=None, dest="stop_at")
    p.add_argument("--lr-drops", default=None, dest="lr_drops",
                   help="epoch:factor list, e.g. 500:10,1000:10")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("smoothness", help="closed-form growth-law bound report")
    _add_shared(p)
    p.add_argument("--bounds", action="store_const", const=True, default=None)
    p.add_argument("--Lf", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--Lg", type=float, default=None)
    p.add_argument("--Lfp", type=float, default=None)
    p.add_argument("--Lgp", type=float, default=None)
    p.add_argument("--K1", type=float, default=None)
    p.add_argument("--K2", type=float, default=None)
    p.add_argument("--K3", type=float, default=None)
    p.add_argument("--K4", type=float, default=None)
    p.add_argument("--Ly", type=float, default=None)
    p.add_argument("--M-scale", type=float, default=None, dest="M_scale")
    p.set_defaults(fn=cmd_smoothness)

    p = sub.add_parser("entropy", help="linear-Gaussian entropy trace and bound check")
    _add_shared(p)
    p.add_argument("--A", default=None, help="diag:a,b,... or matrix .json")
    p.add_argument("--Sigma0", default=None, help="initial covariance (same syntax)")
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--Lf", type=float, default=None)
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("lyapunov", help="largest Lyapunov exponent of a model")
    _add_shared(p)
    _add_model_flags(p)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--input", help="constant input values")
    p.add_argument("--x0", help="initial state")
    p.set_defaults(fn=cmd_lyapunov)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteState, DivergentCost, SingularMatrix) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except RnnLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
