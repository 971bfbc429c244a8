import json

import numpy as np
import pytest

from rnnlab.cells import make_cell, spectral_norm
from rnnlab.errors import DivergentCost
from rnnlab.sensitivity import Sequence
from rnnlab.training import (SineTask, SymbolTask, Task, TrainConfig, load_snapshots,
                             save_run, train)

from helpers import DrivenScalar, history_csv_by_element


def test_config_document_matches_the_written_field_list():
    config = TrainConfig(epochs=3, lr_drops=[(2, 10.0)], stop_at_metric=0.9)
    assert json.dumps(config.to_dict()) == json.dumps({
        "epochs": 3, "lr0": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
        "clip_norm": 0.25, "batch_size": 0, "lr_drops": [[2, 10.0]],
        "snapshot_every": 100, "seed": 0, "stop_at_metric": 0.9,
    })


def test_stable_lstm_run_round_trips_and_stays_projected(tmp_path):
    task = SymbolTask(length=50, n_train=20, n_val=20, seed=2)
    cell = make_cell("slstm", 3, n_input=task.input_dim, bias=True, readout="linear",
                     n_output=task.output_dim, init_seed=2, target_norm=0.9)
    config = TrainConfig(epochs=2, lr0=1e-2, batch_size=10, snapshot_every=1, seed=2)
    run = train(cell, task, config)
    model = run.model
    save_run(run, tmp_path / "run", extra_meta={"spec_hash": "abc"})

    config_doc = json.loads((tmp_path / "run" / "config.json").read_text())
    assert config_doc["train"] == json.loads(json.dumps(config.to_dict()))
    assert config_doc["cell"]["kind"] == "slstm"
    lines = (tmp_path / "run" / "history.csv").read_text().splitlines()
    header, *rows = (line for line in lines if not line.startswith("#"))
    history = [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]
    assert history == [{k: float(v) for k, v in row.items()} for row in run.history]
    snapshots = load_snapshots(tmp_path / "run")
    assert [e for e, _ in snapshots] == [0, 1, 2]
    for (epoch, values), (back_epoch, back) in zip(run.snapshots, snapshots):
        assert back_epoch == epoch
        assert type(back) is type(model)
        assert np.array_equal(back.params.values, values)
        assert back.projected_blocks == model.projected_blocks
        for name in back.projected_blocks:
            assert spectral_norm(back.params.get(name)) <= 0.9 * (1.0 + 1e-12)
    assert np.array_equal(snapshots[-1][1].params.values, model.params.values)


@pytest.mark.parametrize("extra_meta", [None, {"spec_hash": "abc", "seed": 2}])
def test_history_csv_is_the_file_of_the_field_by_field_writer(extra_meta, tmp_path):
    task = SymbolTask(length=50, n_train=20, n_val=20, seed=2)
    cell = make_cell("lstm", 2, n_input=task.input_dim, bias=True, readout="linear",
                     n_output=task.output_dim, init_seed=2)
    config = TrainConfig(epochs=3, lr0=1e-2, batch_size=10, lr_drops=[(2, 10.0)], seed=2)
    run = train(cell, task, config)
    save_run(run, tmp_path / "run", extra_meta=extra_meta)
    history_csv_by_element(run, tmp_path / "oracle.csv", extra_meta=extra_meta)
    written = (tmp_path / "run" / "history.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes()
    assert len(written.decode().split("\n")) == len(extra_meta or {}) + 1 + 3 + 1


def test_sine_lstm_loss_falls_at_every_epoch():
    task = SineTask()
    cell = make_cell("lstm", 8, n_input=1, bias=True, readout="linear", n_output=1,
                     init_seed=0)
    run = train(cell, task, TrainConfig(epochs=3, lr0=1e-4, seed=0))
    losses = [row["loss"] for row in run.history]
    assert len(losses) == 3
    assert all(later < earlier for earlier, later in zip(losses, losses[1:]))


def test_a_divergent_cost_names_its_epoch_and_batch():
    # x_t = t g at g = 1e52: finite states, a cost (~8.1e106) above the bound
    class Ramp(Task):
        name = "ramp"
        train = [Sequence(np.ones((50, 1)), np.zeros(50), x0=np.array([0.0]))]

    with pytest.raises(DivergentCost, match=r"exceeds 1e\+100 \(epoch 1, batch 0\)"):
        train(DrivenScalar(1e52, a=1.0), Ramp(), TrainConfig(epochs=2))


@pytest.mark.parametrize("task_name, epochs, calls", [
    ("symbols", 2, 2), ("symbols", 0, 1), ("sine", 2, 1), ("sine", 0, 1),
])
def test_a_run_evaluates_its_task_once_per_epoch_or_once_in_all(task_name, epochs, calls,
                                                                 monkeypatch):
    if task_name == "symbols":
        task = SymbolTask(length=50, n_train=20, n_val=20, seed=2)
        config = TrainConfig(epochs=epochs, lr0=1e-2, batch_size=10, seed=2)
    else:
        task = SineTask(n_sequences=5, length=30)
        config = TrainConfig(epochs=epochs, seed=0)
    cell = make_cell("lstm", 2, n_input=task.input_dim, bias=True, readout="linear",
                     n_output=task.output_dim, init_seed=2)
    evaluate, seen = type(task).evaluate, []

    def counted(self, model):
        seen.append(model)
        return evaluate(self, model)

    monkeypatch.setattr(type(task), "evaluate", counted)
    run = train(cell, task, config)
    assert len(seen) == calls and len(run.history) == epochs
    assert seen[-1] is run.model
    if task_name == "symbols" and epochs:
        assert run.final_metric == run.history[-1]["metric"]
    assert run.final_metric == evaluate(task, run.model)
