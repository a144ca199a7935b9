"""Regenerate ``expected.json``, the outputs the benchmark checks.

Run from the root of a checkout, after a change that is *meant* to
alter trajectories or paper outputs::

    python3 perfbench/record.py

It records, through the same code paths the workloads time:

* ``engine``: the state digest each scene's window ends on, for every
  scene-seed variant the workload seed can select;
* ``paper``: Table 1's bits, Table 4's trivialization and memo hit-rate
  columns, and the design front's payload digest, from cold runs.

The ``serve`` check needs no recording: it replays each session
directly in-process.
"""

import json
import os
import sys

import harness

os.environ.update(harness.BLAS_ENV)

import engine  # noqa: E402
import paper  # noqa: E402
from run import EXPECTED  # noqa: E402


def main() -> int:
    harness.import_repro()
    from repro.serve import state_digest

    expected = {"engine": {}, "paper": {}}
    try:
        for variant in range(engine.SCENE_VARIANTS):
            for scene, world in engine.setup(variant).items():
                engine.window(world, engine.settle(world), [])
                expected["engine"].setdefault(scene, {})[str(variant)] = \
                    state_digest(world)
        for artifact in paper.ARTIFACTS:
            expected["paper"][artifact] = paper.spawn(
                artifact, False, "record")["output"]
    finally:
        harness.clean_scratch()
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
