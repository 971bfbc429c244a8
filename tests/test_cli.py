import json
import shutil
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from rnnlab import cli, smoothness, training
from rnnlab.errors import DivergentCost
from rnnlab.jsontext import write_json
from rnnlab.statespace import Trajectory

from helpers import trajectory_csv_by_element, trajectory_json_streamed, write_json_streamed

REFERENCE = str(files("rnnlab").joinpath("data", "chaotic_lstm_2x2.json"))
X0 = "0.5,0.5,0.5,0.5"
DATA = Path(__file__).parent / "data"
NOT_JSON = str(DATA / "not_json.json")
NO_KIND = str(DATA / "no_kind.json")
NOT_SQUARE = str(DATA / "not_square.json")


def run(argv, out):
    return cli.main(list(argv) + ["--out", str(out)])


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def test_divergent_cost_exits_numeric(monkeypatch, capsys):
    def diverge(args):
        raise DivergentCost("cost 1e+139 exceeds 1e+100")

    monkeypatch.setattr(cli, "cmd_lyapunov", diverge)
    assert cli.main(["lyapunov"]) == cli.EXIT_NUMERIC
    assert "numerical error" in capsys.readouterr().err


def test_landscape_starts_every_point_from_x0(tmp_path):
    argv = ["landscape", "--weights", REFERENCE, "--range", "0:1.6",
            "--resolution", "17", "--steps", "40"]
    assert run(argv, tmp_path / "zero") == cli.EXIT_OK
    assert run(argv + ["--x0", X0], tmp_path / "x0") == cli.EXIT_OK
    zero = read_rows(tmp_path / "zero" / "landscape.csv")
    from_x0 = read_rows(tmp_path / "x0" / "landscape.csv")
    # zeros are a fixed point of the reference at every s: V = 0 throughout
    assert all(v == 0.0 for _, v in zero)
    assert [s for s, _ in from_x0] == [s for s, _ in zero]
    assert from_x0[10][0] == 1.0 and from_x0[10][1] == 0.0
    assert all(v > 0.0 for s, v in from_x0 if s != 1.0)
    hashes = [(tmp_path / d / "landscape.csv").read_text().splitlines()[0]
              for d in ("zero", "x0")]
    assert hashes[0] != hashes[1]


def test_landscape_of_two_points_reports_no_minimum(tmp_path):
    argv = ["landscape", "--weights", REFERENCE, "--range", "0.8:1.2",
            "--resolution", "2", "--steps", "20", "--x0", X0]
    assert run(argv, tmp_path) == cli.EXIT_OK
    assert len(read_rows(tmp_path / "landscape.csv")) == 2
    minima = json.loads((tmp_path / "minima.json").read_text())
    assert (minima["count"], minima["locations"]) == (0, [])


def test_x0_of_the_wrong_length_is_a_config_error(tmp_path, capsys):
    for argv in (["simulate", "--weights", REFERENCE, "--x0", "1,2"],
                 ["landscape", "--weights", REFERENCE, "--x0", "1,2"],
                 ["bifurcate", "--weights", REFERENCE, "--x0", "1,2"],
                 ["lyapunov", "--weights", REFERENCE, "--x0", "1,x,2,3"]):
        assert run(argv, tmp_path) == cli.EXIT_CONFIG
        assert "config error: x0" in capsys.readouterr().err


def test_threads_are_gone(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"weights": REFERENCE, "threads": 2}))
    assert run(["landscape", "--config", str(config)], tmp_path) == cli.EXIT_CONFIG
    assert run(["bifurcate", "--config", str(config)], tmp_path) == cli.EXIT_CONFIG


def test_landscape_and_bifurcate_rerun_byte_identical(tmp_path):
    commands = {
        "landscape": ["landscape", "--weights", REFERENCE, "--range", "0.8:1.2",
                      "--resolution", "9", "--steps", "30", "--x0", X0],
        "bifurcate": ["bifurcate", "--weights", REFERENCE, "--range", "0.8:1.6",
                      "--points", "5", "--burn-in", "10", "--record", "6", "--x0", X0],
    }
    for name, argv in commands.items():
        assert run(argv, tmp_path / name / "a") == cli.EXIT_OK
        assert run(argv, tmp_path / name / "b") == cli.EXIT_OK
        written = sorted(p.name for p in (tmp_path / name / "a").iterdir())
        assert written
        for fname in written:
            a = (tmp_path / name / "a" / fname).read_bytes()
            assert a == (tmp_path / name / "b" / fname).read_bytes()
    rows = read_rows(tmp_path / "bifurcate" / "a" / "bifurcation.csv")
    assert len(rows) == 5 * 6


def test_epoch_diagram_does_not_depend_on_where_the_run_lies(tmp_path):
    assert run(["train", "--task", "sine", "--cell", "lstm", "--hidden", "2",
                "--epochs", "1", "--seed", "3"], tmp_path / "run") == cli.EXIT_OK
    shutil.copytree(tmp_path / "run", tmp_path / "elsewhere" / "run")
    outputs = []
    for run_dir in (tmp_path / "run", tmp_path / "elsewhere" / "run"):
        out = tmp_path / "diagram" / str(len(outputs))
        assert run(["bifurcate", "--sweep", "epoch", "--run-dir", str(run_dir),
                    "--burn-in", "5", "--record", "4", "--input", "0.07"],
                   out) == cli.EXIT_OK
        outputs.append(out)
    for fname in ("bifurcation.csv", "bifurcation.svg"):
        assert (outputs[0] / fname).read_bytes() == (outputs[1] / fname).read_bytes()
    assert len(read_rows(outputs[0] / "bifurcation.csv")) == 2 * 4


def test_smoothness_evaluates_the_bound_once(tmp_path, monkeypatch):
    calls = []
    bound = smoothness.bound_L_V_prime

    def counted(c):
        calls.append(c)
        return bound(c)

    monkeypatch.setattr(smoothness, "bound_L_V_prime", counted)
    assert run(["smoothness", "--Lf", "0.9", "--N", "50"], tmp_path) == cli.EXIT_OK
    assert len(calls) == 1
    doc = json.loads((tmp_path / "smoothness.json").read_text())
    assert doc["L_V_prime"] == bound(calls[0])
    assert np.isclose(doc["inputs"]["L_f"], 0.9)


@pytest.mark.parametrize("argv", [
    ["simulate", "--cell", "lstm", "--hidden", "2", "--inputs", "1", "--input", "x"],
    ["landscape", "--weights", REFERENCE, "--range", "a:b"],
    ["landscape", "--weights", REFERENCE, "--resolution", "x"],
    ["train", "--lr-drops", "5"],
    ["train", "--lr", "0"],
    ["train", "--clip-norm", "0"],
    ["train", "--lr-drops", "5:0"],
    ["simulate", "--weights", NOT_JSON],
    ["simulate", "--weights", NO_KIND],
    ["entropy", "--A", NOT_JSON],
])
def test_unparsable_values_are_config_errors(argv, tmp_path, capsys):
    assert run(argv, tmp_path) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lyapunov", "--weights", REFERENCE, "--horizon", "50"],
    ["lyapunov", "--weights", REFERENCE, "--burn-in", "-5", "--horizon", "100"],
    ["bifurcate", "--weights", REFERENCE, "--points", "3", "--projection", "foo"],
    ["bifurcate", "--weights", REFERENCE, "--points", "3", "--projection", "output:2"],
    ["smoothness", "--N", "0"],
    ["smoothness", "--Lf", "0"],
    ["simulate", "--weights", REFERENCE, "--steps", "0"],
    ["landscape", "--weights", REFERENCE, "--resolution", "1"],
    ["train", "--task", "symbols", "--length", "10"],
    ["train", "--cell", "slstm", "--target-norm", "1"],
    ["entropy", "--A", "diag:0.5", "--Lf", "0"],
    ["entropy", "--A", NOT_SQUARE],
    ["entropy", "--A", "diag:1,2", "--Sigma0", "diag:-1,1"],
    ["bifurcate", "--weights", REFERENCE, "--points", "3", "--range", "1:nan"],
    ["smoothness", "--Lg", "nan"],
    ["train", "--epochs", "1", "--stop-at", "nan"],
    ["entropy", "--A", "diag:"],
    ["entropy", "--A", "diag:1,nan"],
    ["train", "--epochs", "-1"],
    ["train", "--lr-drops", "5:nan"],
    ["train", "--lr-drops", "5:0"],
])
def test_out_of_range_values_are_config_errors(argv, tmp_path, capsys):
    assert run(argv, tmp_path / "out") == cli.EXIT_CONFIG
    assert "expected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_weights_of_an_unknown_format_version_exit_config(tmp_path, capsys):
    doc = json.loads(open(REFERENCE).read())
    doc["format_version"] = 99
    weights = tmp_path / "v99.json"
    weights.write_text(json.dumps(doc))
    assert run(["simulate", "--weights", str(weights)], tmp_path) == cli.EXIT_CONFIG
    assert "format_version 99" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, code", [
    ("simulate", {"cell": "lstm", "hidden": "abc"}, cli.EXIT_CONFIG),
    ("landscape", {"weights": REFERENCE, "loss": "foo"}, cli.EXIT_CONFIG),
    ("simulate", {"cell": "lstm", "hidden": 2, "readout": "foo"}, cli.EXIT_CONFIG),
    ("train", {"hidden": 2, "epochs": 1, "stop_at": "x"}, cli.EXIT_CONFIG),
    ("landscape", {"weights": REFERENCE, "grad": "false", "resolution": 5, "steps": 5},
     cli.EXIT_CONFIG),
    ("simulate", {"weights": REFERENCE, "steps": 2.7}, cli.EXIT_CONFIG),
    ("landscape", {"weights": REFERENCE, "resolution": 200, "steps": 5}, cli.EXIT_OK),
    ("simulate", {"weights": REFERENCE, "steps": 5, "x0": [0.5, 0.5, 0.5, 0.5]},
     cli.EXIT_OK),
    ("simulate", {"cell": "lstm", "hidden": 2, "inputs": 1, "input": 0.07, "steps": 5},
     cli.EXIT_OK),
    ("simulate", {"cell": "lstm", "hidden": None, "steps": 5}, cli.EXIT_OK),
])
def test_config_values_get_the_checks_of_flags(command, doc, code, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert run([command, "--config", str(config)], tmp_path / "out") == code
    assert ("config error" in capsys.readouterr().err) == (code == cli.EXIT_CONFIG)


def json_value(text):
    """A flag value as a config would give it: a JSON number or list if it reads as one."""
    for candidate in (text, f"[{text}]"):
        try:
            return json.loads(candidate)
        except ValueError:
            pass
    return text


def as_config(argv, out):
    """The options of ``argv`` and the output directory as a config document."""
    doc, rest = {"out": str(out)}, list(argv[1:])
    while rest:
        name = rest.pop(0)[2:].replace("-", "_")
        switch = not rest or rest[0].startswith("--")
        doc[name] = True if switch else json_value(rest.pop(0))
    return doc


def tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("argv", [
    ["simulate", "--weights", REFERENCE, "--steps", "20", "--scale", "1", "--x0", X0],
    ["bifurcate", "--weights", REFERENCE, "--range", "0.8:1.6", "--points", "5",
     "--burn-in", "10", "--record", "6", "--x0", X0],
    ["landscape", "--weights", REFERENCE, "--range", "0.8:1.2", "--resolution", "9",
     "--steps", "30", "--x0", X0, "--grad"],
    ["lyapunov", "--weights", REFERENCE, "--scale", "1", "--burn-in", "10",
     "--horizon", "100"],
    ["smoothness", "--Lf", "1", "--N", "50", "--K1", "3", "--bounds"],
    ["entropy", "--A", "diag:0.5,1.2", "--T", "5", "--Lf", "2"],
    ["train", "--task", "sine", "--cell", "lstm", "--hidden", "2", "--epochs", "2",
     "--clip-norm", "1", "--seed", "3"],
], ids=lambda argv: argv[0])
def test_flags_and_config_are_the_same_request(argv, tmp_path):
    assert run(argv, tmp_path / "flags") == cli.EXIT_OK
    config = tmp_path / "config.json"
    config.write_text(json.dumps(as_config(argv, tmp_path / "config")))
    assert cli.main([argv[0], "--config", str(config)]) == cli.EXIT_OK
    written = tree(tmp_path / "flags")
    assert written and written == tree(tmp_path / "config")


def test_an_output_path_that_is_a_file_exits_io(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["smoothness"], blocker) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_weights_at_two_paths_give_the_same_artefacts(tmp_path):
    outputs = []
    for where in ("a", "b/c"):
        weights = tmp_path / where / "cell.json"
        weights.parent.mkdir(parents=True)
        shutil.copyfile(REFERENCE, weights)
        out = tmp_path / "out" / str(len(outputs))
        assert run(["simulate", "--weights", str(weights), "--steps", "20", "--x0", X0],
                   out) == cli.EXIT_OK
        outputs.append(tree(out))
    assert outputs[0] and outputs[0] == outputs[1]


def test_json_artefacts_are_the_streamed_documents(tmp_path):
    assert run(["smoothness", "--Lf", "1.1", "--N", "300"], tmp_path) == cli.EXIT_OK
    written = (tmp_path / "smoothness.json").read_bytes()
    write_json_streamed(tmp_path / "streamed.json", json.loads(written))
    assert written == (tmp_path / "streamed.json").read_bytes()
    doc = {"a": [1.0, 0.1, 1e-300, float("inf")], "b": {"c": None, "d": "x"}, "e": []}
    cli._write_json(tmp_path / "one.json", doc)
    write_json_streamed(tmp_path / "two.json", doc)
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


@pytest.mark.parametrize("task, kind", [("sine", "lstm"), ("symbols", "slstm")])
def test_run_directory_json_files_are_the_streamed_documents(task, kind, tmp_path,
                                                             monkeypatch):
    def both(path, doc):
        write_json(path, doc)
        write_json_streamed(f"{path}.streamed", doc)

    monkeypatch.setattr(training, "write_json", both)
    assert run(["train", "--task", task, "--cell", kind, "--hidden", "2", "--epochs", "2",
                "--snapshot-every", "1"], tmp_path) == cli.EXIT_OK
    written = sorted(tmp_path.rglob("*.json"))
    assert [p.name for p in written] == ["config.json"] + [f"epoch_{e}.json" for e in range(3)]
    for path in written:
        assert path.read_bytes() == Path(f"{path}.streamed").read_bytes()


def test_simulate_writes_the_files_of_the_element_by_element_writers(tmp_path, monkeypatch):
    argv = ["simulate", "--weights", REFERENCE, "--steps", "50", "--x0", X0, "--seed", "4"]
    assert run(argv, tmp_path / "fast") == cli.EXIT_OK
    monkeypatch.setattr(Trajectory, "to_csv", trajectory_csv_by_element)
    monkeypatch.setattr(Trajectory, "to_json", trajectory_json_streamed)
    assert run(argv, tmp_path / "oracle") == cli.EXIT_OK
    fast = tree(tmp_path / "fast")
    assert (tmp_path / "fast" / "trajectory.csv").read_text().startswith("# spec_hash=")
    assert sorted(map(str, fast)) == ["trajectory.csv", "trajectory.json"]
    assert fast == tree(tmp_path / "oracle")


def test_epoch_sweep_reads_the_snapshots_alone(tmp_path):
    assert run(["train", "--task", "sine", "--cell", "lstm", "--hidden", "2",
                "--epochs", "1", "--seed", "3"], tmp_path / "run") == cli.EXIT_OK
    shutil.copytree(tmp_path / "run" / "snapshots", tmp_path / "alone" / "snapshots")
    shutil.copytree(tmp_path / "run", tmp_path / "bad_history")
    (tmp_path / "bad_history" / "history.csv").write_text("epoch,loss\n0,not a number\n")
    diagrams = []
    for name in ("run", "alone", "bad_history"):
        out = tmp_path / "diagram" / name
        assert run(["bifurcate", "--sweep", "epoch", "--run-dir", str(tmp_path / name),
                    "--burn-in", "5", "--record", "4", "--input", "0.07"], out) == cli.EXIT_OK
        diagrams.append(tree(out))
    assert diagrams[0] and diagrams[0] == diagrams[1] == diagrams[2]


# every command's flags, as they were when all seven parsers were built on each call
FLAGS = {
    "simulate": "cell hidden input inputs out outputs readout scale seed steps weights x0",
    "bifurcate": "burn-in cell feedback hidden input inputs out outputs points projection "
                 "range readout record run-dir seed sweep weights x0",
    "landscape": "along cell grad hidden input inputs loss out outputs range readout "
                 "resolution seed steps weights x0",
    "train": "batch-size cell clip-norm epochs hidden length lr lr-drops out seed "
             "snapshot-every stop-at target-norm task",
    "smoothness": "K1 K2 K3 K4 Lf Lfp Lg Lgp Ly M-scale N bounds out seed",
    "entropy": "A Lf Sigma0 T out seed",
    "lyapunov": "burn-in cell hidden horizon input inputs out outputs readout scale seed "
                "weights x0",
}


def declared_flags(parser):
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return {name: {o[2:] for a in p._actions for o in a.option_strings
                   if o not in ("-h", "--help", "--config")}
            for name, p in sub.choices.items()}


def test_a_command_builds_its_own_parser_only():
    want = {name: set(flags.split()) for name, flags in FLAGS.items()}
    assert declared_flags(cli.build_parser()) == want
    for command in FLAGS:
        assert declared_flags(cli.build_parser(command)) == {command: want[command]}


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0
    text = capsys.readouterr().out
    assert all(command in text for command in FLAGS)


@pytest.mark.parametrize("argv, name", [
    (["entropy", "--A", NOT_SQUARE], "A: expected a square matrix"),
    (["entropy", "--A", "diag:1,2", "--Sigma0", NOT_SQUARE], "Sigma0: expected shape (2, 2)"),
    (["entropy", "--A", "diag:1,2", "--Sigma0", "diag:1,0"], "Sigma0: expected a positive"),
])
def test_entropy_names_the_matrix_it_cannot_use(argv, name, tmp_path, capsys):
    assert run(argv, tmp_path / "out") == cli.EXIT_CONFIG
    assert f"config error: {name}" in capsys.readouterr().err


@pytest.mark.parametrize("snapshot, error", [
    ("{not json", "JSONDecodeError"),
    ('{"kind": "lstm"}', "TypeError"),
    (None, "holds no snapshots"),
])
def test_a_malformed_run_directory_is_a_config_error(snapshot, error, tmp_path, capsys):
    run_dir = tmp_path / "run"
    (run_dir / "snapshots").mkdir(parents=True)
    (run_dir / "config.json").write_text("{}\n")
    (run_dir / "history.csv").write_text("epoch,loss,metric,grad_norm,lr\n")
    if snapshot is not None:
        (run_dir / "snapshots" / "epoch_0.json").write_text(snapshot)
    argv = ["bifurcate", "--sweep", "epoch", "--run-dir", str(run_dir)]
    assert run(argv, tmp_path / "diagram") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: run directory {run_dir}" in err and error in err
