"""``tools/same_outputs.py`` flags changed words in JSON outputs whose count
of numbers changed too, where its token-by-token comparison cannot align
them, and names the keys that only one tree wrote."""

import importlib.util
import json
from pathlib import Path

import pytest

SAME_OUTPUTS_PY = Path(__file__).resolve().parents[1] / "tools/same_outputs.py"


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  SAME_OUTPUTS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(statuses, rejected=None):
    traces = [{"beta": 10.0 + k, "status": status, "steps": 12}
              for k, status in enumerate(statuses)]
    if rejected is not None:
        for trace in traces:
            trace["rejected_steps"] = rejected
    return json.dumps({"crossings": 3, "traces": traces}, sort_keys=True)


def test_changed_status_is_flagged_when_keys_are_added(same_outputs):
    old = _summary(["completed", "completed", "completed"])
    new = _summary(["completed", "halted_diverged", "completed"], rejected=0)
    lines = same_outputs.report(0, {"summary.json": old},
                                0, {"summary.json": new})
    flags = [line for line in lines if "FLAG" in line]
    assert any("numbers" in line for line in flags)
    status = [line for line in flags if "status:" in line]
    assert status == ["  FLAG summary.json: traces[1].status: 'completed' "
                      "-> 'halted_diverged'"]


def test_changed_row_word_is_flagged_in_a_shorter_trace(same_outputs):
    rows = [{"alpha": 2.0 - 0.005 * k, "det_sign": 1, "status": "ok"}
            for k in range(4)]
    old = "".join(json.dumps(row) + "\n" for row in rows)
    rows[1]["status"] = "rejected"
    new = "".join(json.dumps(row) + "\n" for row in rows[:3])
    lines = same_outputs.report(0, {"trace_0.jsonl": old},
                                0, {"trace_0.jsonl": new})
    assert [line for line in lines if "status:" in line] == [
        "  FLAG trace_0.jsonl: [1].status: 'ok' -> 'rejected'"]
    # the row only the parent wrote is one finding, the count, not a key each
    assert not any("only in" in line for line in lines)


def test_keys_one_tree_wrote_are_named(same_outputs):
    # a dropped word key leaves the number count alone and shifts the text
    # between numbers; a key added with a number changes the count.  Each
    # key is named once, and the floats both hold are still compared
    parent = {"iterations": 5, "margin": 0.25, "margin_method": "lanczos",
              "traces": [{"beta": 10.0, "status": "completed"}]}
    change = {key: value for key, value in parent.items()
              if key != "margin_method"}
    change["margin"] = 0.5
    old, new = json.dumps(parent), json.dumps(change)
    lines = same_outputs.report(0, {"newton_report.json": old},
                                0, {"newton_report.json": new})
    assert lines == ["  newton_report.json: largest relative difference 0.5",
                     "  FLAG newton_report.json: margin_method: only in "
                     "parent"]
    change["traces"][0]["rejected_steps"] = 2
    lines = same_outputs.report(0, {"summary.json": old},
                                0, {"summary.json": json.dumps(change)})
    assert [line for line in lines if "only in" in line] == [
        "  FLAG summary.json: margin_method: only in parent",
        "  FLAG summary.json: traces[0].rejected_steps: only in change"]


def test_changed_manifest_outputs_are_flagged(same_outputs, tmp_path):
    # the same files, but a manifest that lists fewer of them: a rerun
    # compares only the listed files, so a changed list is a finding, while
    # the manifest's timestamp and timings may differ unflagged
    def run(tree, listed, stamp):
        (tmp_path / tree).mkdir()
        for name in ("eig.csv", "phi1.csv"):
            (tmp_path / tree / name).write_text("t,value\n0,1\n")
        (tmp_path / tree / "manifest.json").write_text(json.dumps(
            {"outputs": listed, "timestamp": stamp}))
        return same_outputs.outputs(tmp_path / tree)

    parent = run("parent", ["eig.csv", "phi1.csv"], 1.0)
    assert same_outputs.report(0, parent, 0, run(
        "change", ["phi1.csv"], 1.0)) == [
        '  FLAG manifest.json outputs: ["eig.csv", "phi1.csv"] -> '
        '["phi1.csv"]']
    assert same_outputs.report(0, parent, 0, run(
        "rerun", ["eig.csv", "phi1.csv"], 2.0)) == []
