"""Workload definitions: inputs made from a seed, the fixed job list, checks.

A job is one call a user would make: one sweep row through the CLI, one
`ordinary_curves` call, or one grow -> verify -> project chain.  Each job
returns a canonical text of its result; checks compare that text with an
expected value and never time anything.

Seed 1 is the default and reproduces the documented instances:
`sweep --seed 1` (the archived `artifacts/sweep_d2_n5.csv`), the extremal
constructions with seeds 14 and 12, and the `random_general` sets with seeds
3000..3003.  Seed s shifts every input seed by s - 1 (the extremal ones
modulo EXTREMAL_CYCLE).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import sys
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

DEFAULT_SEED = 1
MODULES = (
    "cli", "constructions", "determined", "parallel", "linalg",
    "veronese", "bipoly", "ndfamilies", "projection", "oracle",
)
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"
ARCHIVE = Path("artifacts") / "sweep_d2_n5.csv"

# |A|=13 alone takes about 6 s and would leave one pass per run; up to 12,
# four passes fit in a 15 s run
SWEEP_SIZES = range(8, 13)
EXTREMAL_WORKERS = 2
EXTREMAL_CYCLE = 32
BASIS_SEED0 = 3000
BASIS_SETS = 4
GROW_SEED = 0
HANDCRAFTED_BASIS = [(0, 0), (1, 0), (3, 0), (0, 1), (2, 3), (5, 2), (1, 6)]
HANDCRAFTED_EXTRAS = {
    "handcrafted-a": [(7, 0), (4, 0), (6, 5), (8, 3), (-2, 7), (9, -4), (-5, -3)],
    "handcrafted-b": [(6, 0), (-3, 0), (7, 4), (8, -2), (-4, 6), (9, 5), (-6, -5)],
}


def import_package(src: Path) -> SimpleNamespace:
    """Import `ordcurves` afresh from `src`, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "ordcurves" or m.startswith("ordcurves.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("ordcurves")
    if Path(pkg.__file__).resolve().parent != (src / "ordcurves").resolve():
        raise ImportError(f"ordcurves imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"ordcurves.{m}") for m in MODULES})


def clear_caches(mods: SimpleNamespace) -> None:
    """Empty every functools cache in the package, as a fresh process would have."""
    for module in vars(mods).values():
        for obj in list(vars(module).values()):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            elif isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr in vars(obj).values():
                    if hasattr(attr, "cache_clear"):
                        attr.cache_clear()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def curve_lines(records) -> list[str]:
    """'radical|incidence' per curve record, sorted: the canonical curve list."""
    return sorted(
        f"{rec.curve.radical.text()}|{','.join(map(str, sorted(rec.incidence)))}"
        for rec in records
    )


@dataclass
class Job:
    name: str
    run: Callable[[], str]
    check: Callable[[str], bool]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    workers: int
    nominal_pass_s: float  # host-scaled seconds of one pass; fixes the pass count
    seeds: dict = field(default_factory=dict)


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# -- sweep_d2 ---------------------------------------------------------------


def sweep_d2(mods, seed: int, root: Path, expected: dict) -> Workload:
    archive = (root / ARCHIVE).read_text(encoding="utf-8").splitlines(keepends=True)
    header, rows = "".join(archive[:2]), {int(r.split(",")[0]): r for r in archive[2:]}

    def make(size: int) -> Job:
        argv = ["--workers", "1", "sweep", "--d", "2", "--n", "5",
                "--sizes", f"{size}:{size}", "--seed", str(seed), "--no-timing"]
        # genericity-2 sets: every 5-subset determines its own conic
        count = comb(size, 5)
        row = rows[size] if seed == DEFAULT_SEED else f"{size},2,5,{count},{count},5,0\n"

        def run() -> str:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = mods.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"sweep exited with {code}")
            return out.getvalue()

        return Job(f"sweep-{size}", run, lambda text: text == header + row)

    return Workload("sweep_d2", [make(s) for s in SWEEP_SIZES], workers=1,
                    nominal_pass_s=3.8,
                    seeds={"sweep": seed, "sample": [seed + s for s in SWEEP_SIZES]})


# -- extremal ---------------------------------------------------------------


def extremal_seeds(seed: int) -> tuple[int, int]:
    """Construction seeds; they cycle through EXTREMAL_CYCLE instances.

    The oracle needs about 40 s for the line-heavy set, too long to run after
    every measurement, so the seeds stay within the instances whose outputs
    make_expected.py checked once against it.
    """
    k = seed % EXTREMAL_CYCLE
    return 13 + k, 11 + k


def extremal_inputs(mods, seed: int):
    """(job name, points, d, n) for the line-heavy and carrier-heavy sets."""
    s6, s8 = extremal_seeds(seed)
    t6 = mods.constructions.construct_theorem6(2, 14, seed=s6).config
    t8 = mods.constructions.construct_theorem8(3, 9, 12, seed=s8).config
    return [(f"theorem6-{s6}", t6.points, 2, 5), (f"theorem8-{s8}", t8.points, 3, 9)]


def oracle_ordinary_lines(mods, points, d: int, n: int) -> list[str]:
    """The canonical curve list of `ordinary_curves`, re-derived by the oracle."""
    cfg = mods.determined.PointConfiguration.from_points(points, d)
    lines = []
    for radical in mods.oracle.oracle_determined(cfg):
        incidence = [i for i, p in enumerate(points) if radical.evaluate(p) == 0]
        if len(incidence) <= n:
            lines.append(f"{radical.text()}|{','.join(map(str, incidence))}")
    return sorted(lines)


def extremal(mods, seed: int, root: Path, expected: dict) -> Workload:
    table = expected["extremal"]

    def make(name, points, d, n) -> Job:
        def run() -> str:
            cfg = mods.determined.PointConfiguration.from_points(points, d)
            result = mods.determined.ordinary_curves(cfg, n, workers=EXTREMAL_WORKERS)
            return "\n".join(curve_lines(result.records))

        def check(text: str) -> bool:
            if name in table:
                return digest(text) == table[name]["sha256"]
            return text == "\n".join(oracle_ordinary_lines(mods, points, d, n))

        return Job(name, run, functools.cache(check))

    return Workload("extremal", [make(*inp) for inp in extremal_inputs(mods, seed)],
                    workers=EXTREMAL_WORKERS, nominal_pass_s=1.25,
                    seeds=dict(zip(("theorem6", "theorem8"), extremal_seeds(seed))))


# -- basis_d3 ---------------------------------------------------------------


def basis_inputs(mods, seed: int):
    """(job name, points, fixed basis or None) for the d=3 chain jobs."""
    base = BASIS_SEED0 + BASIS_SETS * (seed - DEFAULT_SEED)
    out = []
    for k in range(base, base + BASIS_SETS):
        built = mods.constructions.sample_configuration(
            "random_general", seed=k, count=11, d=3, genericity=3)
        out.append((f"random-{k}", built.config.points, None))
    for name, extras in HANDCRAFTED_EXTRAS.items():
        cfg = mods.determined.PointConfiguration.from_points(HANDCRAFTED_BASIS + extras, 3)
        out.append((name, cfg.points, list(range(len(HANDCRAFTED_BASIS)))))
    return out


def basis_chain(mods, points, basis) -> str:
    """grow (unless given a basis) -> nd_verify -> build_pipeline -> curves_from_basis."""
    cfg = mods.determined.PointConfiguration.from_points(points, 3)
    if basis is None:
        grown = mods.ndfamilies.grow_nd_chain(cfg, [], None, 3, seed=GROW_SEED)
        if not grown.success:
            raise RuntimeError(f"grow seed {GROW_SEED} produced no basis")
        basis = list(grown.chain)
    if not mods.ndfamilies.nd_verify(cfg, basis, 3).ok:
        raise RuntimeError(f"basis {basis} fails nd_verify")
    state = mods.projection.build_pipeline(cfg, basis, 3)
    curves, state = mods.projection.curves_from_basis(cfg, basis, 3, state=state)
    head = f"basis={','.join(map(str, basis))} n={state.n}"
    return "\n".join([head] + curve_lines(curves.records))


def basis_output_holds(mods, points, text: str) -> bool:
    """Emitted curves contain B and are ordinary curves of the same n."""
    head, *lines = text.split("\n")
    basis_part, n_part = head.split(" ")
    basis = {int(i) for i in basis_part[len("basis="):].split(",")}
    n = int(n_part[len("n="):])
    cfg = mods.determined.PointConfiguration.from_points(points, 3)
    ordinary = {c.radical.text() for c in mods.determined.ordinary_curves(cfg, n, workers=1).radicals()}
    for line in lines:
        radical_text, incidence = line.split("|")
        radical = mods.bipoly.parse_poly(radical_text)
        on_curve = {i for i, p in enumerate(points) if radical.evaluate(p) == 0}
        if on_curve != {int(i) for i in incidence.split(",")}:
            return False
        if not basis <= on_curve or radical_text not in ordinary:
            return False
    return True


def basis_d3(mods, seed: int, root: Path, expected: dict) -> Workload:
    table = expected["basis_d3"]

    def make(name, points, basis) -> Job:
        def check(text: str) -> bool:
            if name in table:
                return digest(text) == table[name]["sha256"]
            return basis_output_holds(mods, points, text)

        return Job(name, lambda: basis_chain(mods, points, basis),
                   functools.cache(check))

    inputs = basis_inputs(mods, seed)
    return Workload("basis_d3", [make(*inp) for inp in inputs], workers=1,
                    nominal_pass_s=2.35,
                    seeds={"random_general": [n for n, _, b in inputs if b is None],
                           "grow": GROW_SEED})


WORKLOADS = {"sweep_d2": sweep_d2, "extremal": extremal, "basis_d3": basis_d3}
