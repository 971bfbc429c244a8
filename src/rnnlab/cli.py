"""Command-line frontend: every analysis as a reproducible, file-emitting command.

Commands: simulate, bifurcate, landscape, train, smoothness, entropy,
lyapunov.  Each command declares its options once, as rows
``(name, parse, default, help)`` of one table.  The option ``name`` is
both the flag ``--name`` (``_`` written as ``-``) and the key ``name`` of
the strict JSON document given by ``--config``.  A flag wins over a config
value, which wins over the default.  Whichever source a value comes from,
the option's ``parse`` checks and converts it.

A run is identified by its spec: the command's name and every parsed
option but ``out`` and ``config``.  A file the run reads counts by its
content, not its path: ``weights`` by the hash of the loaded cell,
``run_dir`` by the ``[epoch, theta_hash]`` list of its snapshots, a matrix
file by its values; ``x0`` counts as resolved, so a weights file's own
``x0`` counts too.  An option the run does not read counts at its default:
the cell description beside ``weights``, the ray options of an epoch sweep,
``run_dir`` of an s sweep.  So a flag and a config value asking for the
same run give the same spec hash, an option that changes an output changes
it, and one that changes none leaves it.  ``bifurcate`` stacks its sweep
(the s * theta points of a ray, or a run's snapshots) into one model and
runs one steady-state sweep over it, closed-loop with ``--feedback argmax``.
Every output file embeds the spec hash, the seed and the package version,
so re-running a command reproduces its outputs byte for byte.  Every
artefact (CSV tables, JSON documents, SVG plots) is written by
:mod:`rnnlab.jsontext`, with each number formatted once; a JSON file holds
the bytes ``json.dump(doc, indent=1)`` would write, and tests check each
file against a streamed or element-by-element writer.
Exit codes: 0 ok, 2 config error, 3 numerical divergence, 4 I/O error.
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
    make_projection,
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
from .statespace import MIN_LYAPUNOV_HORIZON, argmax_onehot_feedback, lyapunov_exponent, simulate
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
        items = value if isinstance(value, list) else map(str.strip, str(value).split(","))
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
    lo, hi = map(_float, items)
    if not math.isfinite(hi - lo):
        raise ConfigError(f"expected lo:hi of finite width, got {value!r}")
    return lo, hi


def _ranges(value):
    return [_range(r) for r in _str(value).split(",")]


def _drops(value):
    pairs = [item.split(":") for item in _str(value).split(",") if item.strip()]
    if any(len(pair) != 2 for pair in pairs):
        raise ConfigError(f"expected epoch:factor,..., got {value!r}")
    return [(_int(e), _positive(f)) for e, f in pairs]


def _projection(value):
    """A projection spec that ``make_projection`` reads."""
    text = _str(value)
    try:
        make_projection(text)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return text


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


def _spec_hash(spec: dict) -> str:
    canon = json.dumps(spec, sort_keys=True, default=lambda a: a.tolist())
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _meta(spec):
    """The meta every artefact of a run embeds: its spec hash, seed and version."""
    return {"spec_hash": _spec_hash(spec), "seed": spec["seed"], "version": __version__}


def _svg_desc(meta):
    """An SVG plot's description: ``spec_hash=... seed=... version=...``."""
    return " ".join(f"{k}={v}" for k, v in meta.items())


def _run(command, opts, spec):
    """Run ``cmd_<command>(opts, spec)`` and write the files it returns.

    The command completes ``spec`` as it reads its files (see the module
    docstring) and returns ``(name, write)`` pairs.  Each ``write(path, meta)``
    writes the file ``name`` in ``opts.out`` with the run's :func:`_meta`; the
    first path is printed.  ``train`` writes its run directory itself.
    """
    # looked up now, so that a replaced cmd_* function is the one called
    writes = globals()[f"cmd_{command}"](opts, spec)
    if writes:
        meta = _meta(spec)
        os.makedirs(opts.out, exist_ok=True)
        paths = [os.path.join(opts.out, name) for name, _ in writes]
        for path, (_, write) in zip(paths, writes):
            write(path, meta)
        print(paths[0])
    return EXIT_OK


def _json_file(name, doc):
    """The ``(name, write)`` pair of a JSON artefact: the run's meta, then ``doc``."""
    return name, lambda path, meta: _write_json(path, {**meta, **doc})


def _unread(spec, *names):
    """Put each named option into ``spec`` at its table default: an option the
    run does not read must not change its spec hash."""
    for name, parse, default, _ in _COMMANDS[spec["command"]][1]:
        if name in names:
            spec[name] = default if default is None else parse(default)


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


def _resolve_model(opts, spec):
    """Model and x0 from --weights or from a --cell description.

    The model is scaled by the ``scale`` option of the commands that have one.
    """
    if opts.weights:
        model, x0 = _load_weights_model(opts.weights)
        # the cell, not where its file lies, identifies the run
        spec["weights"] = _spec_hash(cell_to_dict(model))
        _unread(spec, "cell", "hidden", "inputs", "readout", "outputs")
    elif opts.cell:
        readout = opts.readout or ("identity" if opts.inputs == 0 else "linear")
        model = make_cell(opts.cell, opts.hidden, n_input=opts.inputs,
                          bias=opts.inputs > 0, readout=readout,
                          n_output=opts.outputs, init_seed=opts.seed)
        x0 = model.initial_state()
    else:
        raise ConfigError("need either --weights or --cell")
    scale = getattr(opts, "scale", None)
    if scale is not None:
        model = model.with_params(scale * model.params.values)
    return model, _resolve_x0(opts, spec, model, x0)


def _resolve_x0(opts, spec, model, default):
    """Initial state from the x0 option, else ``default``; the spec records it."""
    x0 = np.asarray(default if opts.x0 is None else opts.x0, dtype=float)
    if x0.shape != (model.state_dim,):
        raise ConfigError(f"x0 needs {model.state_dim} values, got {x0.size}")
    spec["x0"] = x0.tolist()
    return x0


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


def cmd_simulate(opts, spec):
    model, x0 = _resolve_model(opts, spec)
    traj = simulate(model, x0, _constant_inputs(model, opts.input, opts.steps))
    return [
        ("trajectory.csv", traj.to_csv),
        # the meta's seed fills the document's seed field
        ("trajectory.json", lambda path, meta: traj.to_json(
            path, model_name=model.name, theta_hash=model.params.theta_hash(), meta=meta)),
    ]


_BIFURCATE = _MODEL + (
    ("sweep", _choice("s", "epoch"), "s", "sweep the ray scale s or training epochs"),
    ("range", _range, "0:1.6", "lo:hi sweep range"),
    ("points", _at_least(1), 81, "sweep values"),
    _BURN_IN,
    ("record", _at_least(1), 100, "steady-state steps recorded per sweep value"),
    ("projection", _projection, "output:0", "output:<i> or state_mean"),
    ("feedback", _choice("none", "argmax"), "none",
     "argmax feeds back a one-hot of the largest output as the next input"),
    ("run_dir", _str, None, "training run directory of an epoch sweep"),
) + _START + _RUN


def cmd_bifurcate(opts, spec):
    if opts.sweep == "s":
        _unread(spec, "run_dir")
        model, x0 = _resolve_model(opts, spec)
        sweep = np.linspace(*opts.range, opts.points)
        with np.errstate(over="ignore"):  # a point whose theta overflows diverges
            thetas = sweep[:, None] * model.params.values
        model = model.with_params(thetas)
    else:
        _unread(spec, "weights", "cell", "hidden", "inputs", "readout", "outputs",
                "range", "points")
        if not opts.run_dir:
            raise ConfigError("--sweep epoch needs --run-dir")
        snapshots = load_snapshots(opts.run_dir)
        # the snapshots, not where the run directory lies, identify the sweep
        spec["run_dir"] = [[e, c.params.theta_hash()] for e, c in snapshots]
        sweep = [e for e, _ in snapshots]
        base = snapshots[0][1]
        model = base.with_params(np.stack([c.params.values for _, c in snapshots]))
        x0 = _resolve_x0(opts, spec, base, base.initial_state())
    u = _constant_inputs(model, opts.input, 1)[0]
    index = opts.projection.partition(":")[2]
    if index and int(index) >= model.output_dim:
        raise ConfigError(f"projection: expected an output below {model.output_dim}, "
                          f"got {opts.projection!r}")
    feedback = None
    if opts.feedback == "argmax":
        if model.input_dim == 0:
            raise ConfigError("feedback: argmax needs a model with inputs")
        feedback = argmax_onehot_feedback(model.input_dim)
    diagram = bifurcation_sweep(model, sweep, u, x0, opts.burn_in, opts.record,
                                opts.projection, feedback)

    def plot(path, meta):
        xs, ys = [], []
        for s in diagram.samples:
            if not s.diverged:
                xs.extend([s.sweep_value] * len(s.p))
                ys.extend(s.p)
        svg_scatter(path, xs, ys, title="steady-state samples",
                    xlabel="parameter" if opts.sweep == "s" else "epoch",
                    ylabel=diagram.config["projection"], desc=_svg_desc(meta))

    return [("bifurcation.csv", diagram.to_csv), ("bifurcation.svg", plot)]


_LANDSCAPE = _MODEL + (
    ("along", _list_of(_choice("true", "random")), "true", "true | random | true,random"),
    ("range", _ranges, "0:1.6", "lo:hi[,lo:hi]"),
    ("resolution", _list_of(_at_least(2)), 200, "points per axis"),
    _STEPS,
    ("loss", _choice(*LOSSES), "squared_error", "cost function"),
    ("grad", _switch, False, "also write the gradient norm"),
) + _START + _RUN


def cmd_landscape(opts, spec):
    model, x0 = _resolve_model(opts, spec)
    inputs = _constant_inputs(model, opts.input, opts.steps)
    dataset = [Sequence(inputs=inputs, targets=simulate(model, x0, inputs).outputs, x0=x0)]

    theta_true = model.params.values.copy()
    axes = []
    rng = np.random.default_rng(opts.seed)
    for name in opts.along:
        direction = theta_true
        if name == "random":
            direction = rng.standard_normal(theta_true.size)
            norm_true = np.linalg.norm(theta_true)
            if norm_true > 0 and np.linalg.norm(direction) > 0:
                direction *= norm_true / np.linalg.norm(direction)
        axes.append((name, direction))
    if len(opts.range) != len(axes) or len(opts.resolution) != len(axes):
        raise ConfigError("--range and --resolution must match the number of axes")

    grid = landscape_sweep(
        lambda theta: model.with_params(theta), dataset, LOSSES[opts.loss],
        axes, opts.range, opts.resolution, with_gradient=opts.grad,
    )
    writes = [("landscape.csv", grid.to_csv)]
    if grid.ndim == 2:
        return writes + [("landscape.svg", lambda path, meta: svg_heatmap(
            path, grid.values, *grid.coords, title="cost surface",
            xlabel="s1", ylabel="s2", desc=_svg_desc(meta)))]
    return writes + [
        ("landscape.svg", lambda path, meta: svg_line(
            path, grid.coords[0], grid.values, title="cost along parameter ray",
            xlabel="s1", ylabel="V", desc=_svg_desc(meta))),
        _json_file("minima.json", local_minima_census(grid)),
    ]


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


def cmd_train(opts, spec):
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
    run = train(cell, task, tconf)
    out = opts.out or f"run-{task_name}-{kind}-seed{seed}"
    save_run(run, out, extra_meta=_meta(spec))
    print(f"{out}: final {task.metric_kind}={run.final_metric:.6g} "
          f"(baseline {task.baseline():.6g})")


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


def cmd_smoothness(opts, spec):
    c = SmoothnessConstants(
        L_f=opts.Lf, N=opts.N, L_g=opts.Lg, L_f_prime=opts.Lfp, L_g_prime=opts.Lgp,
        K1=opts.K1, K2=opts.K2, K3=opts.K3, K4=opts.K4, L_y=opts.Ly,
        M_scale=opts.M_scale,
    )
    return [_json_file("smoothness.json", bound_report(c))]


_ENTROPY = (
    ("A", _matrix, None, "transition matrix: diag:a,b,... or a matrix .json file"),
    ("Sigma0", _matrix, None, "initial covariance, same syntax (default identity)"),
    ("T", _at_least(0), 10, "steps"),
    ("Lf", _positive, None, "Lipschitz constant of the map (default the 2-norm of A)"),
) + _RUN


def cmd_entropy(opts, spec):
    A, T = opts.A, opts.T
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

    trace = entropy_linear_gaussian(A, sigma0, T)
    report = check_entropy_bound(trace, L_f)
    return [_json_file("entropy.json", {
        "n_states": trace.n_states,
        "log_abs_det_A": trace.log_abs_det_A,
        "H": trace.H.tolist(),
        "increments": trace.increments.tolist(),
        "bound_rate": report.bound_rate,
        "upper_form_holds": report.upper_holds,
        "lower_form_holds": report.lower_holds,
        "upper_ok": report.upper_ok.tolist(),
        "lower_ok": report.lower_ok.tolist(),
    })]


_LYAPUNOV = _MODEL + (
    _SCALE, _BURN_IN,
    ("horizon", _at_least(MIN_LYAPUNOV_HORIZON), 1000, "steps averaged after the burn-in"),
) + _START + _RUN


def cmd_lyapunov(opts, spec):
    model, x0 = _resolve_model(opts, spec)
    u = _constant_inputs(model, opts.input, 1)[0]
    value = lyapunov_exponent(model, x0, u, burn_in=opts.burn_in, horizon=opts.horizon)
    return [_json_file("lyapunov.json", {"lyapunov_exponent": float(value)})]


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
        spec = {"command": args.command, **vars(opts)}
        del spec["out"]
        return _run(args.command, opts, spec)
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
