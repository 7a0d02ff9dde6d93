"""Regenerate perfbench/expected.json: job outputs checked once by the oracles.

Every `extremal` output must equal the curve list re-derived by
`oracle_determined`; every `basis_d3` output must hold under
`basis_output_holds` (emitted curves contain B and are ordinary curves).
Only the sha256 of each checked output is stored, keyed by job name (which
carries the input seed).  A benchmark run compares a job found in the table
by digest; any other job gets the same checks after the timed passes.

The seeds 0..EXTREMAL_CYCLE-1 cover every extremal instance; existing
entries are kept, so an interrupted run resumes where it stopped.

Usage, from the repository root:  python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    mods = workloads.import_package(ROOT / "src")
    path = workloads.EXPECTED_FILE
    table = json.loads(path.read_text()) if path.exists() else {"extremal": {}, "basis_d3": {}}
    unchecked = {"extremal": {}, "basis_d3": {}}
    for seed in range(workloads.EXTREMAL_CYCLE):
        for name in ("extremal", "basis_d3"):
            workload = workloads.WORKLOADS[name](mods, seed, ROOT, unchecked)
            for job in workload.jobs:
                if job.name in table[name]:
                    continue
                workloads.clear_caches(mods)
                text = job.run()
                if not job.check(text):
                    print(f"seed {seed} {name} {job.name}: output fails its check",
                          file=sys.stderr)
                    return 1
                table[name][job.name] = {"sha256": workloads.digest(text),
                                         "lines": text.count("\n") + 1}
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed} done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
