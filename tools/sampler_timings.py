"""Time the samplers on fixed inputs and check that trees sample alike.

For each input below and each source tree given, a fresh Python process
with that tree's `src` on its path builds the configuration `--repeat`
times.  It reports the sha256 of the construction's `to_json_obj()`, the
median and least wall time, and the process's peak RSS.  The trees take
turns input by input, so slow drift of the host falls on all of them.
A line ends in `same` when every tree gave the same digest, and in
`DIFFERENT` otherwise; the exit code is 1 if any line differs.

    python3 tools/sampler_timings.py [--repeat R] TREE [TREE ...]

TREE is a checkout of this repository, such as the working tree (.) and
an export of an earlier commit.
"""

import argparse
import json
import subprocess
import sys
from math import comb
from pathlib import Path

INPUTS = (
    [("random_general", dict(seed=0, count=count, d=d))
     for d, counts in [(1, (20, 40, 60)), (2, (16, 20)), (3, (14,)), (4, (16, 18))]
     for count in counts]
    + [("random_general", dict(seed=3000, count=21, d=5, genericity=5))]
    + [("theorem8", dict(d=d, n=comb(d + 2, 2) - 1, m=comb(d + 2, 2) - 1 + k, seed=0))
       for d in range(1, 6) for k in (1, 2, 3)]
)

WORKER = """
import hashlib, json, resource, sys, time
from ordcurves.constructions import construct_theorem8, sample_configuration
kind, params, repeat = json.loads(sys.argv[1])
times = []
for _ in range(repeat):
    start = time.perf_counter()
    if kind == "theorem8":
        built = construct_theorem8(**params)
    else:
        built = sample_configuration(kind, **params)
    times.append(time.perf_counter() - start)
digest = hashlib.sha256(json.dumps(built.to_json_obj(), sort_keys=True).encode()).hexdigest()
times.sort()
print(json.dumps([digest, times[len(times) // 2], times[0],
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""


def run(tree: Path, kind: str, params: dict, repeat: int):
    out = subprocess.run(
        [sys.executable, "-c", WORKER, json.dumps([kind, params, repeat])],
        env={"PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("trees", nargs="+", type=Path)
    args = parser.parse_args(argv)
    differ = False
    for kind, params in INPUTS:
        got = [run(tree, kind, params, args.repeat) for tree in args.trees]
        same = len({digest for digest, *_ in got}) == 1
        differ |= not same
        label = f"{kind} " + " ".join(f"{k}={v}" for k, v in params.items())
        cells = "  ".join(f"{med * 1e3:10.3f} ms (min {low * 1e3:.3f}) {rss:6.1f} MB"
                          for _, med, low, rss in got)
        print(f"{label:52} {cells}  {got[0][0][:12]} {'same' if same else 'DIFFERENT'}",
              flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
