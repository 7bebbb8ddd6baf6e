"""The equivalence gate: every seed-0 stream of benchmarks/stream_digests.py
regenerated and replayed, against the digests in tests/golden_digests.json.

A change that moves any generated log, ground truth, replay CSV or
diagnostics byte fails here. A change that does so on purpose regenerates
the file in the same commit:

    python3 benchmarks/stream_digests.py --out tests/golden_digests.json
    rm -r tests/golden_digests.json.replays

The preset streams come from the session stream cache and are written with
the calls `legodom simulate --preset` makes; the workload streams go through
`legodom simulate --plan`. Each stream is replayed through `legodom replay`,
except the two long trot presets in UNREPLAYED: their 26,282 frames of
replay would nearly double the test's time, so their `replay_csv` and
`replay_diag` keys stay with the script, as do the seed 1 and 2 workload
keys. Their log and truth keys are checked here.
"""

import os

from legodom import cli
from legodom.gait import PRESETS
from legodom.logio import write_frames, write_trajectory

from test_stream_digests import sd

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
UNREPLAYED = ("flat_loop", "walk_line")


def _checked(key):
    """True for the golden keys this test recomputes."""
    stream = key.rsplit(".", 1)[0]
    if stream in ["preset." + p for p in UNREPLAYED]:
        return key.endswith((".log", ".truth"))
    return ".seed" not in key or ".seed0." in key


def test_seed_0_streams_match_the_golden_digests(stream, tmp_path):
    work = str(tmp_path)
    digests = {}
    for preset in PRESETS:
        name = "preset.%s" % preset
        _, res, frames = stream(preset)
        log, gt, _ = sd.stream_paths(work, name)
        write_frames(log, frames)
        write_trajectory(gt, res.truth)
        if preset in UNREPLAYED:
            digests.update({name + ".log": sd.sha256(log), name + ".truth": sd.sha256(gt)})
        else:
            digests.update(sd.digest_written_stream(cli, work, name, None))
    for workload, (plan, config) in sd.WORKLOADS.items():
        path = tmp_path / ("%s.plan.txt" % workload)
        path.write_text(sd.workload_plan(plan, 0))
        digests.update(sd.digest_stream(cli, work, "%s.seed0" % workload,
                                        ["--plan", str(path)], config, 0))
    golden, written_by = sd.load(GOLDEN)
    golden = {key: value for key, value in golden.items() if _checked(key)}
    lines = sd.compare(digests, work, golden)
    assert lines == ["0 of %d keys differ" % len(golden)], "\n".join(
        lines + ["golden digests written by %s; this run: %s" % (written_by, sd.written_by())])
