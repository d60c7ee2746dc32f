import json

import pytest

from ctxnmt import experiment

TINY = experiment.SyntheticConfig(train_size=60, test_size=20, noun_inventory=8,
                                  steps=10, warmup=5)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    outs = [tmp_path_factory.mktemp(f"experiment_{i}") for i in range(2)]
    return [(out, experiment.synthetic(str(out), TINY, systems=("none", "prev")))
            for out in outs]


def test_summary_is_what_summary_json_holds(runs):
    out, summary = runs[0]
    assert json.loads((out / "summary.json").read_text()) == summary
    assert set(summary["systems"]) == {"none", "prev", "prev, shuffled contexts"}
    assert set(summary["train_seconds"]) == {"none", "prev"}
    assert (out / summary["attention_records"]).is_file()
    assert summary["agreement"]["n"] > 0


def test_only_the_requested_systems_are_trained(runs):
    out, _ = runs[0]
    assert sorted(p.name for p in out.glob("model_*")) == ["model_none", "model_prev"]
    assert not (out / "model_prev" / "best.ckpt").exists()


def test_rerun_gives_the_same_summary_apart_from_wall_time(runs):
    (_, one), (_, two) = runs
    assert {**one, "train_seconds": None} == {**two, "train_seconds": None}

