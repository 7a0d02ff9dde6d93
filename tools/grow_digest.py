"""Digest the chain grower's results on a fixed corpus, tree by tree.

The corpus is built in this process, from the package beside this tool:

- grows without a carrier: `random_general` sets at d = 2, 3 and 4 (8, 11
  and 15 points, genericity d) with set seeds 3000..3009 and grow seeds
  0..2, and the 3x3, 4x4 and 5x5 grids at d = 2..4 with grow seeds 0..5;
- grows with a carrier at d = 3 and 4, on each of the carriers y,
  x - 2y + 1, y - x^2, xy - 6, y^2 - x + 3 and y - x^3 + 2x: eleven sets
  each, with grow seed 0, and ten more sets on y - x^2 at d = 3 with grow
  seeds 0..2.  A carrier set is a seed B0 of C(f+2,2) points off the
  carrier and on no curve of degree f = d - deg C0, drawn with a
  `random.Random` seeded by the carrier, d and the set's number, and points
  of the carrier, a random choice among its first parameter values.

For each source tree given, a fresh Python process with that tree's `src`
on its path runs `grow_nd_chain` on every grow of the corpus, each on a
fresh configuration.  It prints the sha256 of the grows' `to_json_obj()`
(the chain, the blocked steps with their rejected candidates, and the
guard trace), the count of grows with and without a carrier, how many of
each succeeded, and the time.  The last line says `same` when every tree
gave the same digest, and `DIFFERENT` otherwise; the exit code is 1 if the
digests differ.

    python3 tools/grow_digest.py TREE [TREE ...]

TREE is a checkout of this repository, such as the working tree (.) and
an export of an earlier commit.
"""

import argparse
import json
import random
import subprocess
import sys
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKER = """
import hashlib, json, sys, time
from fractions import Fraction
from ordcurves.bipoly import PlaneCurve, parse_poly
from ordcurves.determined import PointConfiguration
from ordcurves.ndfamilies import grow_nd_chain
grows = json.load(sys.stdin)
records, succeeded = [], {"without": 0, "with": 0}
start = time.perf_counter()
for d, points, carrier, b0, seed in grows:
    A = PointConfiguration.from_points([tuple(map(Fraction, p)) for p in points], d)
    c0 = None if carrier is None else PlaneCurve.from_poly(parse_poly(carrier))
    res = grow_nd_chain(A, b0, c0, d, seed=seed)
    records.append(res.to_json_obj())
    succeeded["without" if carrier is None else "with"] += res.success
elapsed = time.perf_counter() - start
digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
print(json.dumps([digest, succeeded, elapsed]))
"""

CARRIERS = ["y", "x - 2*y + 1", "y - x^2", "x*y - 6", "y^2 - x + 3", "y - x^3 + 2*x"]


def _carrier_set(carrier: str, d: int, k: int):
    """(points, B0 indices) of carrier set k at degree d: B0 first, then
    points of the carrier, four more than the basis needs."""
    from ordcurves.bipoly import PlaneCurve, parse_poly, rational_points_on_curve
    from ordcurves.linalg import rank
    from ordcurves.veronese import integer_lift

    rng = random.Random(f"{carrier}|{d}|{k}")
    c0 = PlaneCurve.from_poly(parse_poly(carrier))
    f = d - c0.radical.degree
    size = comb(f + 2, 2)
    while True:
        b0 = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(size)]
        if (not any(c0.contains(p) for p in b0) and len(set(b0)) == size
                and (f == 0 or rank([integer_lift(p, f) for p in b0]) == size)):
            break
    need = comb(d + 2, 2) - 3 - size + 4
    on = rng.sample(rational_points_on_curve(c0, 3 * need), need)
    return b0 + on, list(range(size))


def corpus():
    """The grows (d, points, carrier or None, B0, grow seed) that every tree
    runs, the points as rational strings."""
    sys.path.insert(0, str(ROOT / "src"))
    from ordcurves.constructions import sample_configuration

    grows = []
    for d, count in [(2, 8), (3, 11), (4, 15)]:
        for k in range(3000, 3010):
            config = sample_configuration("random_general", seed=k, count=count, d=d,
                                          genericity=d).config
            grows += [(d, config.points, None, [], seed) for seed in range(3)]
    for side in (3, 4, 5):
        grid = [(x, y) for y in range(side) for x in range(side)]
        grows += [(d, grid, None, [], seed) for d in (2, 3, 4) for seed in range(6)]
    for carrier in CARRIERS:
        for d in (3, 4):
            for k in range(11):
                points, b0 = _carrier_set(carrier, d, k)
                grows.append((d, points, carrier, b0, 0))
    for k in range(11, 21):
        points, b0 = _carrier_set("y - x^2", 3, k)
        grows += [(3, points, "y - x^2", b0, seed) for seed in range(3)]
    return [[d, [[str(x), str(y)] for x, y in points], carrier, b0, seed]
            for d, points, carrier, b0, seed in grows]


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
    grows = corpus()
    payload = json.dumps(grows)
    carried = sum(1 for _, _, carrier, *_ in grows if carrier is not None)
    print(f"{len(grows)} grows: {len(grows) - carried} without a carrier, "
          f"{carried} with one", flush=True)
    digests = set()
    for tree in args.trees:
        digest, succeeded, elapsed = run(tree, payload)
        digests.add(digest)
        print(f"{str(tree):32} {digest} succeeded {succeeded['without']} without a carrier, "
              f"{succeeded['with']} with one, {elapsed:.2f} s", flush=True)
    same = len(digests) == 1
    print("same" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
