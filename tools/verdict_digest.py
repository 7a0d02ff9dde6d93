"""Digest the basis verifier's verdicts on a fixed corpus, tree by tree.

The corpus is drawn with `random.Random(7)` in this process:

- d = 3 and d = 4 bases: subsets of the 3x3, 4x4 and 5x5 grids, and sets
  heavy on a line, a conic, a cubic, two lines, or a line plus a conic;
- structured d = 5 bases, heavy on the same curves and on a conic plus a
  cubic;
- the bases of `SECTION_BASES` in tests/test_ndfamilies.py, imported from
  this checkout's tests, so pytest must be installed.

For each source tree given, a fresh Python process with that tree's `src`
on its path runs `nd_verify` on every basis of the corpus, each group of
bases on a fresh configuration.  It prints the sha256 of the
(ok, failures, sections) records, the count of each outcome (the first
failing condition, or ok), the number of calls of the flats walk
`ndfamilies.realizable_sections` where the tree has one, and the time.
The last line says `same` when every tree gave the same digest, and
`DIFFERENT` otherwise; the exit code is 1 if the digests differ.

    python3 tools/verdict_digest.py TREE [TREE ...]

TREE is a checkout of this repository, such as the working tree (.) and
an export of an earlier commit.  One tree takes about 100 s on two
shared vCPUs, four fifths of it in the 30 bases at d = 5.
"""

import argparse
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKER = """
import hashlib, json, sys, time
from collections import Counter
from fractions import Fraction
from ordcurves import ndfamilies
from ordcurves.determined import PointConfiguration
walks = []
if hasattr(ndfamilies, "realizable_sections"):
    real = ndfamilies.realizable_sections

    def counted(*args):
        walks.append(1)
        return real(*args)

    ndfamilies.realizable_sections = counted
groups = json.load(sys.stdin)
records, outcomes = [], Counter()
start = time.perf_counter()
for d, points, bases in groups:
    A = PointConfiguration.from_points([tuple(map(Fraction, p)) for p in points], d)
    for basis in bases:
        verdict = ndfamilies.nd_verify(A, basis, d)
        records.append([verdict.ok, verdict.failures, verdict.sections])
        outcomes[verdict.failures[0]["condition"] if verdict.failures else "ok"] += 1
elapsed = time.perf_counter() - start
digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
print(json.dumps([digest, dict(sorted(outcomes.items())), len(walks), elapsed]))
"""


def _grid(side):
    return [(x, y) for x in range(side) for y in range(side)]


def _free(rng):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(2))


def _line(rng):
    a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), Fraction(rng.randint(-4, 4))
    return lambda t: (Fraction(t), a * t + b)


def _conic(rng):
    a, b = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)), rng.randint(-3, 3)
    return lambda t: (Fraction(t, 2), a * Fraction(t, 2) ** 2 + b)


def _cubic(rng):
    a = rng.randint(-4, 4)
    return lambda t: (Fraction(t, 2), Fraction(t, 2) ** 3 - a * Fraction(t, 2))


# each curve with its degree
SHAPES = {
    "line": [(1, _line)],
    "conic": [(2, _conic)],
    "cubic": [(3, _cubic)],
    "two lines": [(1, _line), (1, _line)],
    "line+conic": [(1, _line), (2, _conic)],
    "conic+cubic": [(2, _conic), (3, _cubic)],
}


def _heavy(rng, d, shape):
    """C(d+2,2)-3 distinct points, many of them on the shape's curves, and
    free points for the rest.  A curve of degree k takes a random share of
    2 up to C(d+2,2)-C(d-k+2,2) points, the least that fails (ii) at e = k,
    so that condition (i) can still hold."""
    size, points = comb(d + 2, 2) - 3, []
    for k, curve in SHAPES[shape]:
        on = curve(rng)
        share = min(size, comb(d + 2, 2) - comb(max(d - k + 2, 0), 2))
        for t in rng.sample(range(-9, 10), rng.randint(2, share)):
            if len(points) < size and on(t) not in points:
                points.append(on(t))
    while len(points) < size:
        p = _free(rng)
        if p not in points:
            points.append(p)
    rng.shuffle(points)
    return points


def corpus():
    """The groups (d, points, bases) that every tree verifies."""
    rng = random.Random(7)
    groups = []
    for d, grids in [(3, [(3, None), (4, 300), (5, 250)]), (4, [(4, 150), (5, 400)])]:
        size = comb(d + 2, 2) - 3
        for side, count in grids:
            every = list(combinations(range(side * side), size))
            bases = every if count is None else rng.sample(every, count)
            groups.append((d, _grid(side), bases))
        for shape in ["line", "conic", "cubic", "two lines", "line+conic"]:
            groups += [(d, _heavy(rng, d, shape), [list(range(size))]) for _ in range(40)]
    groups += [(5, _heavy(rng, 5, shape), [list(range(18))]) for shape in SHAPES for _ in range(5)]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_ndfamilies import SECTION_BASES
    groups += [(d, points, [list(range(len(points)))]) for d, points, _ in SECTION_BASES]
    return [[d, [[str(x), str(y)] for x, y in points], [list(b) for b in bases]]
            for d, points, bases in groups]


def run(tree: Path, payload: str):
    out = subprocess.run(
        [sys.executable, "-c", WORKER], input=payload,
        env={"PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path)
    args = parser.parse_args(argv)
    groups = corpus()
    payload = json.dumps(groups)
    print(f"{sum(len(bases) for *_, bases in groups)} bases: "
          + ", ".join(f"d={d} {sum(len(b) for e, _, b in groups if e == d)}"
                      for d in sorted({d for d, *_ in groups})), flush=True)
    digests = set()
    for tree in args.trees:
        digest, outcomes, walks, elapsed = run(tree, payload)
        digests.add(digest)
        print(f"{str(tree):32} {digest} {outcomes} walks={walks} {elapsed:.2f} s", flush=True)
    same = len(digests) == 1
    print("same" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
