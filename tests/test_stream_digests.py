"""benchmarks/stream_digests.py --compare on canned digests and CSVs (no
simulation)."""

import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "stream_digests.py")
_spec = importlib.util.spec_from_file_location("stream_digests", _PATH)
sd = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sd)

HEADER = "t,x,y,z,roll,pitch,yaw,vx,vy,vz\n"


def _csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + "".join(",".join(map(repr, r)) + "\n" for r in rows))


def test_compare_names_only_differing_keys_with_their_state_difference(tmp_path):
    work, other = tmp_path / "work", tmp_path / "other.json"
    replays = tmp_path / "other.json.replays"
    work.mkdir()
    replays.mkdir()
    row = [0.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 0.5, 0.0, float("nan")]
    moved = list(row)
    moved[2] += 4.0e-16
    for d, rows in ((work, [row, row]), (replays, [row, moved])):
        _csv(d / "a.csv", rows)
        _csv(d / "b.csv", [row])
    _csv(replays / "c.csv", [row])
    _csv(work / "c.csv", [row, row])
    other.write_text(json.dumps({"a.log": "same", "a.replay_csv": "old-a",
                                 "b.replay_csv": "same-b", "c.replay_csv": "old-c",
                                 "gone.log": "x", "written_by": "numpy 0.0"}))
    mine = {"a.log": "same", "a.replay_csv": "new-a", "b.replay_csv": "same-b",
            "c.replay_csv": "new-c"}
    theirs, by = sd.load(str(other))
    assert by == "numpy 0.0"
    lines = sd.compare(mine, str(work), theirs, str(replays))
    assert lines[0] == "a.replay_csv: old-a -> new-a  max |state diff| 4.44e-16"
    # another row count reads as an infinite difference
    assert lines[1] == "c.replay_csv: old-c -> new-c  max |state diff| inf"
    assert lines[2] == "gone.log: x -> missing"
    assert lines[3] == "3 of 5 keys differ; largest state difference inf (c.replay_csv)"


def test_identical_digests_give_one_summary_line(tmp_path):
    digests = {"a.log": "1", "a.replay_csv": "2"}
    other = tmp_path / "other.json"
    other.write_text(json.dumps(digests))
    theirs, by = sd.load(str(other))
    assert by is None  # a file written before --out named its writer
    assert sd.compare(digests, str(tmp_path), theirs, str(tmp_path)) == ["0 of 2 keys differ"]
