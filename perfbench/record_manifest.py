#!/usr/bin/env python3
"""Record the check names of every verify command of every workload into
manifest.json.  The benchmark counts a command whose check names differ from
this manifest as failed, so a change cannot drop checks to go faster.

Run from the root of a checkout, only when the benchmark's commands change:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_manifest.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from child import run_command  # noqa: E402
from workloads import MANIFEST_PATH, WORKLOADS, build, guard  # noqa: E402


def main() -> int:
    import entangle_tl.cli as cli

    workdir = os.path.join(os.getcwd(), ".perfbench_out", "manifest")
    os.makedirs(workdir, exist_ok=True)
    manifest = {}
    for name in WORKLOADS:
        cmds, _ = guard(build(name, 0, workdir)[0])
        for cmd in cmds:
            if cmd.kind != "verify":
                continue
            code, out, _ = run_command(cli, cmd.argv)
            if code != 0:
                raise SystemExit(f"{cmd.label} exited {code}")
            manifest[cmd.label] = sorted(c["identity_name"] for c in json.loads(out)["checks"])
    with open(MANIFEST_PATH, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
