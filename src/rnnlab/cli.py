"""Command-line frontend: every analysis as a reproducible, file-emitting command.

Commands: simulate, bifurcate, landscape, train, smoothness, entropy,
lyapunov.  Each command declares its options once, as rows
``(name, parse, default, help)`` of one table.  The option ``name`` is
both the flag ``--name`` (``_`` written as ``-``) and the key ``name`` of
the strict JSON document given by ``--config``.  A flag wins over a config
value, which wins over the default.  Whichever source a value comes from,
the option's ``parse`` checks and converts it, so a flag and a config value
asking for the same run give the same outputs and the same spec hash.
Exit codes: 0 ok, 2 config error, 3 numerical divergence, 4 I/O error.
Every output file embeds the resolved-config hash, the seed and the
package version, so re-running a command reproduces its outputs byte for
byte.  Every artefact (CSV tables, JSON documents, SVG plots) is written by
:mod:`rnnlab.jsontext`, with each number formatted once; a JSON file holds
the bytes ``json.dump(doc, indent=1)`` would write, and tests check each
file against a streamed or element-by-element writer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
from .cells import cell_from_dict, cell_to_dict, make_cell
from .errors import ConfigError, DivergentCost, NonFiniteState, RnnLabError, SingularMatrix
from .jsontext import write_json as _write_json
from .sensitivity import LOSSES, Sequence
from .smoothness import (
    SmoothnessConstants,
    bound_report,
    landscape_sweep,
    local_minima_census,
)
from .statespace import MIN_LYAPUNOV_HORIZON, lyapunov_exponent, simulate
from .svgplot import svg_heatmap, svg_line, svg_scatter
from .training import (
    SineTask,
    SymbolTask,
    TrainConfig,
    load_snapshots,
    save_run,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# option values: each parser takes a flag string or a JSON value
# ---------------------------------------------------------------------------


def _typed(convert, types, what):
    """A parser that converts a value of one of ``types`` (bool is not an int)."""
    def parse(value):
        try:
            if type(value) in types:
                return convert(value)
        except (TypeError, ValueError):
            pass
        raise ConfigError(f"expected {what}, got {value!r}")

    return parse


_int = _typed(int, (int, str), "an integer")
_str = _typed(str, (str,), "a string")
_switch = _typed(bool, (bool,), "true or false")   # a flag without a value


def _checked(parse, ok, what):
    """``parse``, then a range check: ``ok(value)`` must hold; ``what`` names
    the values it accepts."""
    def check(value):
        value = parse(value)
        if not ok(value):
            raise ConfigError(f"expected {what}, got {value!r}")
        return value

    return check


def _at_least(low):
    return _checked(_int, lambda v: v >= low, f"an integer >= {low}")


_float = _checked(_typed(float, (int, float, str), "a number"), math.isfinite,
                  "a finite number")
_positive = _checked(_float, lambda v: v > 0, "a number > 0")


def _choice(*allowed):
    def parse(value):
        if value in allowed:
            return value
        raise ConfigError(f"expected one of {', '.join(allowed)}, got {value!r}")

    parse.choices = allowed
    return parse


def _list_of(parse_item):
    """Comma-separated values; a config may also give a JSON list or one value."""
    def parse(value):
        items = value if isinstance(value, list) else str(value).split(",")
        try:
            return [parse_item(v) for v in items if v != ""]
        except ConfigError as err:
            raise ConfigError(f"{err}, in the comma-separated list {value!r}") from None

    return parse


_floats = _list_of(_float)


def _range(value):
    items = _str(value).split(":")
    if len(items) != 2:
        raise ConfigError(f"expected lo:hi, got {value!r}")
    return tuple(map(_float, items))


def _ranges(value):
    return [_range(r) for r in _str(value).split(",")]


def _drops(value):
    pairs = [item.split(":") for item in _str(value).split(",") if item.strip()]
    if any(len(pair) != 2 for pair in pairs):
        raise ConfigError(f"expected epoch:factor,..., got {value!r}")
    return [(_int(e), _positive(f)) for e, f in pairs]


def _projection(value):
    """``output``, ``output:<i>`` or ``state_mean``, as ``make_projection`` reads them."""
    text = _str(value)
    kind, sep, index = text.partition(":")
    if text == "state_mean" or (kind == "output" and (not sep or index.isdecimal())):
        return text
    raise ConfigError(f"expected output:<i> or state_mean, got {text!r}")


def _read_json(path, what):
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise ConfigError(f"{what} {path} is not valid JSON: {err}") from None


def _matrix(value):
    text = _str(value)
    if text.startswith("diag:"):
        M = np.diag(_floats(text[len("diag:"):]))
    elif not text.endswith(".json"):
        raise ConfigError(f"expected 'diag:a,b,...' or a .json file, got {text!r}")
    else:
        doc = _read_json(text, "matrix file")
        try:
            M = np.asarray(doc, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"matrix file {text} does not hold a matrix of numbers") from None
    if M.size == 0 or not np.isfinite(M).all():
        raise ConfigError(f"expected a non-empty matrix of finite numbers, got {text!r}")
    return M


# ---------------------------------------------------------------------------
# option tables and the resolver
# ---------------------------------------------------------------------------

# A row (name, parse, default, help) declares the flag --name ("_" written
# "-") and the config key name.  A default of None leaves the option unset:
# the command then derives its value from other options or goes without.
_HIDDEN = ("hidden", _at_least(1), 32, "hidden units")
_MODEL = (
    ("weights", _str, None, "cell weights JSON file"),
    ("cell", _str, None, "cell kind: vanilla|lstm|slstm|ornn"),
    _HIDDEN,
    ("inputs", _at_least(0), 0, "input dimension"),
    ("readout", _choice("identity", "linear"), None,
     "output map (default identity without inputs, else linear)"),
    ("outputs", _at_least(1), 1, "output dimension of a linear readout"),
)
_START = (
    ("input", _floats, None,
     "constant input, comma separated (write --input=-1,... if it starts negative)"),
    ("x0", _floats, None,
     "initial state, comma separated (write --x0=-0.5,... if it starts negative)"),
)
_SEED = ("seed", _int, 0, "random seed")
_RUN = (_SEED, ("out", _str, "out", "output directory"))
_STEPS = ("steps", _at_least(1), 200, "simulated steps (of the dataset, for a landscape)")
_SCALE = ("scale", _float, None, "scale theta by s")
_BURN_IN = ("burn_in", _at_least(0), 100, "transient steps discarded")


def _load_config(path, names):
    if path is None:
        return {}
    doc = _read_json(path, "config file")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - set(names)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _resolve(options, args):
    """Flag wins over config value (null is absent) wins over default; all are parsed."""
    config = _load_config(args.config, [name for name, *_ in options])
    values = {}
    for name, parse, default, _ in options:
        for value in (getattr(args, name), config.get(name), default):
            if value is not None:
                break
        if value is not None:
            try:
                value = parse(value)
            except ConfigError as err:
                raise ConfigError(f"{name}: {err}") from None
        values[name] = value
    return argparse.Namespace(**values)


def _spec_hash(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _meta(resolved, seed):
    return {
        "spec_hash": _spec_hash(resolved),
        "seed": seed,
        "version": __version__,
    }


def _svg_desc(meta):
    """An SVG plot's description: ``spec_hash=... seed=... version=...``."""
    return " ".join(f"{k}={v}" for k, v in meta.items())


def _outdir(opts):
    os.makedirs(opts.out, exist_ok=True)
    return opts.out


def _emit_json(opts, name, doc):
    path = os.path.join(_outdir(opts), name)
    _write_json(path, doc)
    print(path)
    return EXIT_OK


def _load_weights_model(path):
    doc = _read_json(path, "weights file")
    try:
        cell = cell_from_dict(doc)
        x0 = doc.get("x0")
        x0 = np.asarray(x0, dtype=float) if x0 is not None else cell.initial_state()
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"weights file {path} is not a cell document: "
                          f"{type(err).__name__} {err}") from None
    return cell, x0


def _resolve_model(opts):
    """Model, x0 and model description from --weights or from a --cell description.

    The model is scaled by the ``scale`` option of the commands that have one.
    """
    if opts.weights:
        model, x0 = _load_weights_model(opts.weights)
        # the cell, not where its file lies, identifies the run
        desc = {"weights": _spec_hash(cell_to_dict(model))}
    elif opts.cell:
        readout = opts.readout or ("identity" if opts.inputs == 0 else "linear")
        model = make_cell(opts.cell, opts.hidden, n_input=opts.inputs,
                          bias=opts.inputs > 0, readout=readout,
                          n_output=opts.outputs, init_seed=opts.seed)
        x0 = model.initial_state()
        desc = {"cell": opts.cell, "hidden": opts.hidden, "inputs": opts.inputs,
                "readout": readout, "outputs": opts.outputs}
    else:
        raise ConfigError("need either --weights or --cell")
    scale = getattr(opts, "scale", None)
    if scale is not None:
        model = model.with_params(scale * model.params.values)
    return model, _resolve_x0(opts, model, x0), desc


def _resolve_x0(opts, model, default):
    """Initial state from the x0 option, else ``default``: ``model.state_dim`` numbers."""
    x0 = np.asarray(default if opts.x0 is None else opts.x0, dtype=float)
    if x0.shape != (model.state_dim,):
        raise ConfigError(f"x0 needs {model.state_dim} values, got {x0.size}")
    return x0


def _check_projection(projection, model):
    index = projection.partition(":")[2]
    if index and int(index) >= model.output_dim:
        raise ConfigError(f"projection: expected an output below {model.output_dim}, "
                          f"got {projection!r}")


def _constant_inputs(model, value, steps):
    if model.input_dim == 0:
        return np.zeros((steps, 0))
    u = np.zeros(model.input_dim) if value is None else np.asarray(value, dtype=float)
    if u.size != model.input_dim:
        raise ConfigError(f"input needs {model.input_dim} values, got {u.size}")
    return np.tile(u, (steps, 1))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_SIMULATE = _MODEL + (_STEPS, _SCALE) + _START + _RUN


def cmd_simulate(opts):
    seed, steps = opts.seed, opts.steps
    model, x0, desc = _resolve_model(opts)
    inputs = _constant_inputs(model, opts.input, steps)

    resolved = {"command": "simulate", "steps": steps, "scale": opts.scale,
                "x0": [float(v) for v in x0], "seed": seed, **desc}
    meta = _meta(resolved, seed)
    traj = simulate(model, x0, inputs)
    out = _outdir(opts)
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


_BIFURCATE = _MODEL + (
    ("sweep", _choice("s", "epoch"), "s", "sweep the ray scale s or training epochs"),
    ("range", _range, "0:1.6", "lo:hi sweep range"),
    ("points", _at_least(1), 81, "sweep values"),
    _BURN_IN,
    ("record", _at_least(1), 100, "steady-state steps recorded per sweep value"),
    ("projection", _projection, "output:0", "output:<i> or state_mean"),
    ("feedback", _choice("none", "argmax"), "none", "closed-loop input of an epoch sweep"),
    ("run_dir", _str, None, "training run directory of an epoch sweep"),
) + _START + _RUN


def cmd_bifurcate(opts):
    seed, burn_in, record = opts.seed, opts.burn_in, opts.record

    if opts.sweep == "s":
        model, x0, desc = _resolve_model(opts)
        lo, hi = opts.range
        s_values = np.linspace(lo, hi, opts.points)
        theta0 = model.params.values.copy()
        u = _constant_inputs(model, opts.input, 1)[0]
        _check_projection(opts.projection, model)
        resolved = {"command": "bifurcate", "sweep": "s", "range": [lo, hi],
                    "points": opts.points, "burn_in": burn_in, "record": record,
                    "projection": opts.projection, "x0": x0.tolist(), "seed": seed,
                    **desc}
        diagram = bifurcation_sweep(
            lambda s: model.with_params(s * theta0),
            s_values, u, x0, burn_in=burn_in, record=record,
            projection=opts.projection,
        )
    else:
        run_dir = opts.run_dir
        if not run_dir:
            raise ConfigError("--sweep epoch needs --run-dir")
        if not os.path.isdir(run_dir):
            raise ConfigError(f"run directory not found: {run_dir}")
        try:
            snapshots = load_snapshots(run_dir)
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"run directory {run_dir} is malformed: "
                              f"{type(err).__name__} {err}") from None
        if not snapshots:
            raise ConfigError(f"run directory {run_dir} holds no snapshots")
        base = snapshots[0][1]
        pairs = [(e, c.params.values) for e, c in snapshots]
        u = _constant_inputs(base, opts.input, 1)[0]
        x0 = _resolve_x0(opts, base, base.initial_state())
        _check_projection(opts.projection, base)
        # the snapshots, not where the run directory lies, identify the sweep
        snapshot_hashes = [[e, c.params.theta_hash()] for e, c in snapshots]
        resolved = {"command": "bifurcate", "sweep": "epoch",
                    "snapshots": snapshot_hashes, "burn_in": burn_in,
                    "record": record, "feedback": opts.feedback,
                    "projection": opts.projection, "x0": x0.tolist(), "seed": seed}
        diagram = epoch_bifurcation(
            pairs, base, u, x0, burn_in=burn_in, record=record,
            projection=opts.projection, feedback=opts.feedback,
        )

    meta = _meta(resolved, seed)
    out = _outdir(opts)
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
        ylabel=diagram.config["projection"], desc=_svg_desc(meta),
    )
    print(os.path.join(out, "bifurcation.csv"))
    return EXIT_OK


_LANDSCAPE = _MODEL + (
    ("along", _str, "true", "true | random | true,random"),
    ("range", _ranges, "0:1.6", "lo:hi[,lo:hi]"),
    ("resolution", _list_of(_at_least(2)), 200, "points per axis"),
    _STEPS,
    ("loss", _choice(*LOSSES), "squared_error", "cost function"),
    ("grad", _switch, False, "also write the gradient norm"),
) + _START + _RUN


def cmd_landscape(opts):
    seed, steps, along, with_grad = opts.seed, opts.steps, opts.along, opts.grad
    model, x0, desc = _resolve_model(opts)
    loss = LOSSES[opts.loss]

    inputs = _constant_inputs(model, opts.input, steps)
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

    ranges, resolution = opts.range, opts.resolution
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
    out = _outdir(opts)
    grid.to_csv(os.path.join(out, "landscape.csv"), meta=meta)
    if grid.ndim == 1:
        svg_line(os.path.join(out, "landscape.svg"), grid.coords[0], grid.values,
                 title="cost along parameter ray", xlabel="s1", ylabel="V",
                 desc=_svg_desc(meta))
        census = local_minima_census(grid)
        _write_json(os.path.join(out, "minima.json"), {**meta, **census})
    else:
        svg_heatmap(os.path.join(out, "landscape.svg"), grid.values,
                    grid.coords[0], grid.coords[1], title="cost surface",
                    xlabel="s1", ylabel="s2", desc=_svg_desc(meta))
    print(os.path.join(out, "landscape.csv"))
    return EXIT_OK


_TRAIN = (
    ("cell", _str, "lstm", "cell kind: vanilla|lstm|slstm|ornn"),
    ("task", _choice("sine", "symbols"), "sine", "training task"),
    _HIDDEN,
    ("length", _at_least(SymbolTask.MIN_LENGTH), 50, "symbol sequence length"),
    ("epochs", _at_least(0), None, "epochs (default 1500 sine, 2000 symbols)"),
    ("lr", _float, None, "initial learning rate (default 1e-3 sine, 1e-2 symbols)"),
    ("batch_size", _at_least(0), None, "batch size, 0 for all (default 0 sine, 100 symbols)"),
    ("clip_norm", _float, 0.25, "global gradient-norm clip"),
    ("snapshot_every", _at_least(1), None, "epochs between snapshots (default epochs // 15)"),
    ("target_norm", _checked(_float, lambda v: 0 < v < 1, "a number in (0, 1)"), 0.97,
     "slstm recurrent-norm bound"),
    ("stop_at", _float, None, "stop at this validation metric (default 1.0 for accuracy)"),
    ("lr_drops", _drops, None, "epoch:factor list, e.g. 500:10,1000:10"),
    _SEED,
    ("out", _str, None, "run directory (default run-<task>-<cell>-seed<seed>)"),
)


def _given(value, default):
    return default if value is None else value


def cmd_train(opts):
    seed, kind, task_name = opts.seed, opts.cell, opts.task
    drops = [(500, 10.0), (1000, 10.0), (2000, 10.0)]
    if task_name == "sine":
        task, epochs, lr, batch = SineTask(), 1500, 1e-3, 0
        drops = drops if kind == "slstm" else []
    else:
        task = SymbolTask(length=opts.length, seed=seed)
        epochs, lr, batch = 2000, 1e-2, 100
    epochs = _given(opts.epochs, epochs)
    stop_at = _given(opts.stop_at, 1.0 if task.metric_kind == "accuracy" else None)

    cell = make_cell(kind, opts.hidden, n_input=task.input_dim, bias=True,
                     readout="linear", n_output=task.output_dim,
                     init_seed=seed, target_norm=opts.target_norm)
    tconf = TrainConfig(
        epochs=epochs, lr0=_given(opts.lr, lr), clip_norm=opts.clip_norm,
        batch_size=_given(opts.batch_size, batch), lr_drops=_given(opts.lr_drops, drops),
        snapshot_every=_given(opts.snapshot_every, max(epochs // 15, 1)),
        seed=seed, stop_at_metric=stop_at,
    )
    resolved = {"command": "train", "cell": kind, "task": task_name,
                "hidden": opts.hidden, "train": tconf.to_dict(), "seed": seed}
    meta = _meta(resolved, seed)

    model, run = train(cell, task, tconf)
    out = opts.out or f"run-{task_name}-{kind}-seed{seed}"
    save_run(run, out, extra_meta=meta)
    result = task.evaluate(model)
    print(f"{out}: final {result.kind}={result.metric:.6g} "
          f"(baseline {result.baseline:.6g})")
    return EXIT_OK


_SMOOTHNESS = (
    ("Lf", _positive, 1.0, "Lipschitz constant of f in the state"),
    ("N", _at_least(1), 100, "horizon"),
    ("Lg", _float, 1.0, "Lipschitz constant of g"),
    ("Lfp", _float, 1.0, "Lipschitz constant of the derivative of f"),
    ("Lgp", _float, 1.0, "Lipschitz constant of the derivative of g"),
    *((f"K{i}", _float, 2.0, f"bound constant K{i}") for i in range(1, 5)),
    ("Ly", _float, 1.0, "Lipschitz constant of the loss"),
    ("M_scale", _float, 1.0, "output-magnitude bound M(t) = M_scale * S(t)"),
) + _RUN


def cmd_smoothness(opts):
    c = SmoothnessConstants(
        L_f=opts.Lf, N=opts.N, L_g=opts.Lg, L_f_prime=opts.Lfp, L_g_prime=opts.Lgp,
        K1=opts.K1, K2=opts.K2, K3=opts.K3, K4=opts.K4, L_y=opts.Ly,
        M_scale=opts.M_scale,
    )
    report = bound_report(c)
    resolved = {"command": "smoothness", "inputs": report["inputs"], "seed": opts.seed}
    return _emit_json(opts, "smoothness.json", {**_meta(resolved, opts.seed), **report})


_ENTROPY = (
    ("A", _matrix, None, "transition matrix: diag:a,b,... or a matrix .json file"),
    ("Sigma0", _matrix, None, "initial covariance, same syntax (default identity)"),
    ("T", _at_least(0), 10, "steps"),
    ("Lf", _positive, None, "Lipschitz constant of the map (default the 2-norm of A)"),
) + _RUN


def cmd_entropy(opts):
    A, seed, T = opts.A, opts.seed, opts.T
    if A is None:
        raise ConfigError("missing matrix specification: --A")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError(f"A: expected a square matrix, got shape {A.shape}")
    sigma0 = _given(opts.Sigma0, np.eye(A.shape[0]))
    if sigma0.shape != A.shape:
        raise ConfigError(f"Sigma0: expected shape {A.shape}, got {sigma0.shape}")
    if np.any(np.linalg.eigvalsh(sigma0) <= 0):
        raise ConfigError("Sigma0: expected a positive definite matrix")
    L_f = _given(opts.Lf, float(np.linalg.norm(A, 2)))

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
    return _emit_json(opts, "entropy.json", doc)


_LYAPUNOV = _MODEL + (
    _SCALE, _BURN_IN,
    ("horizon", _at_least(MIN_LYAPUNOV_HORIZON), 1000, "steps averaged after the burn-in"),
) + _START + _RUN


def cmd_lyapunov(opts):
    seed, burn_in, horizon = opts.seed, opts.burn_in, opts.horizon
    model, x0, desc = _resolve_model(opts)
    u = _constant_inputs(model, opts.input, 1)[0]

    resolved = {"command": "lyapunov", "scale": opts.scale, "burn_in": burn_in,
                "horizon": horizon, "x0": x0.tolist(), "seed": seed, **desc}
    meta = _meta(resolved, seed)
    value = lyapunov_exponent(model, x0, u, burn_in=burn_in, horizon=horizon)
    return _emit_json(opts, "lyapunov.json", {**meta, "lyapunov_exponent": float(value)})


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": ("run a model forward, write CSV/JSON", _SIMULATE),
    "bifurcate": ("steady-state diagram over s or epochs", _BIFURCATE),
    "landscape": ("cost along 1-D/2-D parameter rays", _LANDSCAPE),
    "train": ("train a cell on a task, write a run directory", _TRAIN),
    "smoothness": ("closed-form growth-law bound report", _SMOOTHNESS),
    "entropy": ("linear-Gaussian entropy trace and bound check", _ENTROPY),
    "lyapunov": ("largest Lyapunov exponent of a model", _LYAPUNOV),
}


def build_parser(command=None):
    """The ``rnnlab`` parser of ``command`` alone when it names a command, else
    of every command; its usage line lists every command either way."""
    parser = argparse.ArgumentParser(
        prog="rnnlab",
        description="recurrent cells as dynamical systems: simulate, analyze, train",
    )
    alone = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if alone else None)
    for cmd, (help_text, options) in _COMMANDS.items():
        if alone and cmd != command:
            continue
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--config", help="JSON config document; its keys are option names")
        for name, parse, default, text in options:
            flag = "--" + name.replace("_", "-")
            if default is not None:
                text = f"{text} (default {default})"
            if parse is _switch:
                p.add_argument(flag, action="store_const", const=True, help=text)
            else:
                choices = getattr(parse, "choices", None)
                p.add_argument(flag, help=text,
                               metavar="{" + ",".join(choices) + "}" if choices else None)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command comes first: no other command's parser need be built
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        opts = _resolve(_COMMANDS[args.command][1], args)
        # looked up now, so that a replaced cmd_* function is the one called
        return globals()[f"cmd_{args.command}"](opts)
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
