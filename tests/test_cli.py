import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from ordcurves import determined, ndfamilies, projection
from ordcurves.cli import main
from ordcurves.determined import default_regularity_threshold


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def square(tmp_path):
    return write(
        tmp_path, "square.json",
        {"d": 1, "points": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
    )


@pytest.fixture
def octet(tmp_path):
    pts = [[0, 0], [1, 0], [0, 1], [3, 5], [2, 7], [5, 1], [1, 4], [6, 2]]
    return write(tmp_path, "octet.json", {"d": 2, "points": [[str(x), str(y)] for x, y in pts]})


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ordinary_square(square, capsys):
    code, out, _ = run(["ordinary", "--input", square, "--n", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["curves"]) == 6
    assert all(len(c["incidence"]) == 2 for c in data["curves"])


def test_ordinary_below_threshold_is_empty(octet, capsys):
    code, out, _ = run(["ordinary", "--input", octet, "--n", "4"], capsys)
    assert code == 0
    assert json.loads(out)["curves"] == []


def test_lift_roundtrip(square, capsys):
    code, out, _ = run(["lift", "--input", square], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["lifted"][1] == ["1", "0"]


def test_bad_rational_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"d": 1, "points": [["3/0", "0"], ["1", "1"]]})
    code, _, err = run(["lift", "--input", path], capsys)
    assert code == 2 and "bad rational" in err


def test_duplicate_points_exit_2(tmp_path, capsys):
    path = write(tmp_path, "dup.json", {"d": 1, "points": [["1", "0"], ["1", "0"]]})
    code, _, err = run(["lift", "--input", path], capsys)
    assert code == 2 and "duplicate" in err


@pytest.mark.parametrize("field, value", [
    ("d", "abc"), ("d", 2.5), ("d", True), ("d", [2]), ("d", {"d": 2}),
    ("points", 5), ("points", "0,0"), ("points", {"0": ["0", "0"]}),
])
def test_malformed_field_exit_2(tmp_path, capsys, field, value):
    obj = {"d": 1, "points": [["0", "0"], ["1", "0"], ["0", "1"]]}
    obj[field] = value
    code, out, err = run(["lift", "--input", write(tmp_path, "bad.json", obj)], capsys)
    assert code == 2 and out == ""
    assert f"'{field}'" in err


def test_integer_string_degree_accepted(tmp_path, capsys):
    path = write(tmp_path, "sd.json", {"d": "2", "points": [["0", "0"], ["1", "0"]]})
    code, out, _ = run(["lift", "--input", path], capsys)
    assert code == 0 and json.loads(out)["d"] == 2


def test_json_syntax_error_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"d": 1,\n  "points": [[}')
    code, _, err = run(["lift", "--input", str(path)], capsys)
    assert code == 2 and "line 2" in err


def test_float_coordinates_rejected(tmp_path, capsys):
    path = write(tmp_path, "fl.json", {"d": 1, "points": [[0.5, 1], [1, 1]]})
    code, _, err = run(["lift", "--input", path], capsys)
    assert code == 2 and "float" in err


def test_precondition_exit_3(tmp_path, capsys):
    path = write(tmp_path, "coll.json", {"d": 1, "points": [["0", "0"], ["1", "0"], ["2", "0"]]})
    code, _, err = run(["determined", "--input", path], capsys)
    assert code == 3 and "hypothesis violated" in err


def test_richness_report(octet, capsys):
    code, out, _ = run(["richness", "--input", octet, "--e", "1", "--threshold", "3/4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["max_richness"] >= 2
    assert data["regularity"]["threshold"] == "3/4"


def test_richness_default_threshold_printed_in_full(capsys):
    # the default threshold 1/2^(2^14) at d=2 has 4,933 digits, past the
    # int-to-str limit of plain str()
    golden = str(Path(__file__).resolve().parent / "golden" / "points.json")
    code, out, err = run(["richness", "--input", golden, "--d", "2"], capsys)
    assert code == 0, err
    threshold = json.loads(out)["regularity"]["threshold"]
    numerator, denominator = threshold.split("/")
    assert numerator == "1" and len(denominator) == 4933
    assert 1 / Fraction(Decimal(denominator)) == default_regularity_threshold(2)


def test_richness_default_threshold_refused_past_e4(monkeypatch, capsys):
    from ordcurves import determined

    def never(*args):
        raise AssertionError("refused before any work")

    # neither the threshold nor the richness scan may run
    monkeypatch.setattr(determined, "default_regularity_threshold", never)
    monkeypatch.setattr(determined, "max_curve_richness", never)
    golden = str(Path(__file__).resolve().parent / "golden" / "points.json")
    code, out, err = run(["richness", "--input", golden, "--e", "5"], capsys)
    assert code == 3 and out == ""
    assert "default threshold needs e <= 4" in err


def test_richness_explicit_threshold_at_e5(octet, capsys):
    # eight points lie on a quintic, so the richest section is all of them
    code, out, err = run(["richness", "--input", octet, "--e", "5", "--threshold", "1/2"], capsys)
    assert code == 0, err
    data = json.loads(out)
    assert data["max_richness"] == 8 and not data["regularity"]["is_regular"]


def test_nd_verify_and_grow_and_project(octet, capsys):
    code, out, _ = run(["nd-verify", "--input", octet, "--basis", "0,1,2"], capsys)
    assert code == 0 and json.loads(out)["ok"]
    code, out, _ = run(["nd-grow", "--input", octet, "--seed", "7"], capsys)
    assert code == 0
    grown = json.loads(out)
    assert grown["success"]
    basis = ",".join(str(i) for i in grown["chain"])
    code, out, _ = run(["project", "--input", octet, "--basis", basis], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["trace"]["filtered"] == 0
    assert data["trace"]["emitted"] == len(data["curves"]["curves"])


@pytest.mark.parametrize("argv", [
    ["nd-verify", "--basis", "0,1,{bad}"],
    ["project", "--basis", "0,1,{bad}"],
    ["nd-grow", "--b0", "3,4,{bad}", "--carrier", "y"],
    ["nd-grow", "--order", "0,{bad},1"],
], ids=["nd-verify", "project", "nd-grow-b0", "nd-grow-order"])
@pytest.mark.parametrize("bad", [8, 99, -1])
def test_point_index_out_of_range_exit_2(octet, capsys, argv, bad):
    argv = [arg.format(bad=bad) for arg in argv]
    code, out, err = run([*argv, "--input", octet], capsys)
    assert code == 2 and out == ""
    assert f"point index {bad} out of range" in err and "8 points" in err


@pytest.mark.parametrize("argv, code, name", [
    (["construct", "--kind", "theorem6", "--d", "2"], 2, "construct --kind theorem6 requires --m"),
    (["construct", "--kind", "theorem8", "--d", "3"], 2, "construct --kind theorem8 requires --n"),
    (["construct", "--kind", "random_general", "--d", "2"], 2,
     "construct --kind random_general requires --count"),
    (["richness", "--input", "{octet}", "--threshold", "abc"], 2, "--threshold: bad rational"),
    (["richness", "--input", "{octet}", "--threshold", "1/0"], 2, "--threshold: bad rational"),
    (["sigma-count", "--d", "2", "--degrees", ""], 3, "at least one component degree"),
    (["sigma-count", "--d", "2", "--degrees", "0"], 3, "component degrees >= 1"),
    (["nd-grow", "--input", "{octet}", "--b0", "0", "--carrier", "x^2 + y^2 - 1"], 3,
     "parametrizable curve (radical linear in x or in y)"),
    (["nd-grow", "--input", "{octet}", "--d", "3", "--carrier", "5", "--b0", "0"], 2,
     "--carrier"),
    (["construct", "--kind", "theorem8", "--d", "3", "--n", "9", "--m", "12", "--carrier", "7"],
     2, "--carrier"),
    (["sweep", "--d", "2", "--n", "5", "--sizes", "9:8"], 2, "--sizes"),
    (["sweep", "--d", "2", "--n", "5", "--sizes", "8-9"], 2, "--sizes"),
    (["construct", "--kind", "grid", "--d", "2", "--side", "0"], 3, "nonempty configuration"),
    (["construct", "--kind", "grid", "--d", "2", "--side", "-1"], 3, "nonempty configuration"),
], ids=["theorem6-no-m", "theorem8-no-m-n", "random-no-count", "threshold-abc",
        "threshold-1/0", "degrees-empty", "degrees-0", "carrier-circle", "nd-grow-carrier-constant",
        "theorem8-carrier-constant", "sweep-sizes-reversed", "sweep-sizes-malformed",
        "grid-side-0", "grid-side-negative"])
def test_rejected_option_exits_with_name(octet, capsys, argv, code, name):
    # malformed input exits 2 and a violated hypothesis 3, with no traceback
    got, out, err = run([arg.format(octet=octet) for arg in argv], capsys)
    assert (got, out) == (code, "")
    assert name in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(["determined", "--input", str(GOLDEN / "points.json"),
                          "--output", str(target)], capsys)
    assert (code, out) == (2, "")
    assert f"output error: cannot write {target}: " in err
    assert "Traceback" not in err and not target.parent.exists()


def test_nd_grow_duplicate_seed_exits_with_name(tmp_path, capsys):
    # a repeated seed index is refused by name, not as a seed on a curve
    pts = [(0, 1), (1, 0), (2, 5)] + [(t, t * t) for t in range(-4, 5)]
    path = write(tmp_path, "seeded.json", {"d": 3, "points": [[str(x), str(y)] for x, y in pts]})
    code, out, err = run(["nd-grow", "--input", path, "--carrier", "y - x^2", "--b0", "1,1,2"],
                         capsys)
    assert (code, out) == (3, "")
    assert "distinct seed points" in err


def test_nd_grow_duplicate_order_exits_with_name(capsys):
    # a repeated candidate is refused by name, not tested and reported twice
    path = str(GOLDEN / "points.json")
    code, out, err = run(["nd-grow", "--input", path, "--d", "2", "--order", "0,2,3,3"], capsys)
    assert (code, out) == (3, "")
    assert "distinct order indices" in err


def test_construct_output_feeds_back(tmp_path, capsys):
    code, out, _ = run(
        ["construct", "--kind", "theorem6", "--d", "2", "--m", "7", "--seed", "1"], capsys
    )
    assert code == 0
    data = json.loads(out)
    path = write(tmp_path, "t6.json", {"d": data["d"], "points": data["points"]})
    code, out, _ = run(["ordinary", "--input", path, "--n", "5"], capsys)
    assert code == 0
    assert len(json.loads(out)["curves"]) <= 6


def test_sigma_count(capsys):
    code, out, _ = run(["sigma-count", "--degrees", "1,1", "--d", "3"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 3


@pytest.mark.parametrize("d, k", [(40, 10), (1300, 1200)])
def test_sigma_count_many_unit_degrees(d, k, capsys):
    # once a search over C(40, 10) leaves, and a recursion 1,200 deep
    code, out, err = run(["sigma-count", "--d", str(d), "--degrees", ",".join(["1"] * k)], capsys)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["count"] == comb(d, k) and data["bound"] == d**d


def test_sweep_deterministic_bytes(capsys):
    args = ["sweep", "--d", "2", "--n", "5", "--sizes", "8:9", "--seed", "3", "--no-timing"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "A_size,d,n,determined_count,ordinary_count,max_richness,runtime_ms"
    assert len(lines) == 4


def test_sweep_builds_no_curve(monkeypatch, capsys):
    from ordcurves.bipoly import PlaneCurve

    def refuse(p):
        raise AssertionError("sweep built a PlaneCurve")

    monkeypatch.setattr(PlaneCurve, "from_poly", staticmethod(refuse))
    args = ["sweep", "--d", "2", "--n", "5", "--sizes", "8:10", "--seed", "1", "--no-timing"]
    code, out, err = run(args, capsys)
    assert code == 0, err
    archive = Path(__file__).resolve().parent.parent / "artifacts" / "sweep_d2_n5.csv"
    archived = archive.read_text(encoding="utf-8").splitlines()
    header, rows = archived[:2], {r.split(",")[0]: r for r in archived[2:]}
    assert out.splitlines() == header + [rows[size] for size in ("8", "9", "10")]


def test_sweep_richness_independent_of_n(capsys):
    # with n below every incidence no curve is ordinary; the richest conic
    # still holds the 5 points any 5 general points span
    args = ["sweep", "--d", "2", "--n", "4", "--sizes", "6:7", "--seed", "0", "--no-timing"]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert out.strip().splitlines()[2:] == ["6,2,4,6,0,5,0", "7,2,4,21,0,5,0"]


def test_command_output_deterministic_bytes(octet, capsys):
    code1, out1, _ = run(["ordinary", "--input", octet, "--n", "5"], capsys)
    code2, out2, _ = run(["ordinary", "--input", octet, "--n", "5"], capsys)
    assert out1 == out2 and code1 == code2 == 0


def test_workers_equivalence(octet, capsys):
    _, out1, _ = run(["determined", "--input", octet], capsys)
    _, out2, _ = run(["--workers", "2", "determined", "--input", octet], capsys)
    assert out1 == out2


@pytest.fixture
def recording_pool(monkeypatch):
    """Replaces the process pool by a serial stand-in; returns the
    max_workers of every pool asked for."""
    import concurrent.futures

    requested = []

    class Pool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return requested


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_exit_2(octet, capsys, recording_pool, workers):
    code, out, err = run(["--workers", workers, "determined", "--input", octet], capsys)
    assert code == 2 and out == ""
    assert "--workers must be at least 1" in err
    assert recording_pool == []


def test_pmap_never_asks_for_more_workers_than_cpus(recording_pool):
    from ordcurves.parallel import pmap

    assert pmap(abs, [-1, -2, -3]) == [1, 2, 3]
    assert pmap(abs, [-1, -2]) == [1, 2]
    assert recording_pool == []


def test_cli_import_leaves_the_pool_unloaded(octet):
    # neither the import nor a scan asked for 2 workers loads the process
    # pool's module
    import ordcurves

    src = str(Path(ordcurves.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import ordcurves.cli; "
        "loaded = 'concurrent.futures.process' in sys.modules; "
        "code = ordcurves.cli.main(['--workers', '2', 'determined', "
        f"'--input', {octet!r}, '--output', {os.devnull!r}]); "
        "print(loaded, code, 'concurrent.futures.process' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "False 0 False\n"


def test_large_workers_flag_is_capped(octet, capsys, recording_pool):
    _, serial, _ = run(["determined", "--input", octet], capsys)
    code, out, _ = run(["--workers", "100000", "determined", "--input", octet], capsys)
    assert code == 0 and out == serial
    assert recording_pool == []


def test_oracle_check(square, octet, capsys):
    code, out, _ = run(["oracle-check", "--input", square], capsys)
    assert code == 0
    assert all(r["agree"] for r in json.loads(out))
    code, out, _ = run(["oracle-check", "--input", octet, "--nd-size", "3"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1 + 56
    assert all(r["agree"] for r in reports)


def test_output_to_file(square, tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(["lift", "--input", square, "--output", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["d"] == 1


def test_invariant_violation_exit_4(square, capsys, monkeypatch):
    from ordcurves import cli
    from ordcurves.errors import InvariantViolation

    def boom(config):
        raise InvariantViolation("synthetic defect", {"detail": 1})

    monkeypatch.setattr(cli, "enumerate_determined", boom)
    code, _, err = run(["determined", "--input", square], capsys)
    assert code == 4
    assert "internal invariant violated" in err and '"repro"' in err


# stdout of the commands below on tests/golden/points.json (ten non-integer
# points, one of height 1001).  The enumeration files were recorded with the
# Fraction-based enumeration before the integer fast path replaced it; the
# nd-grow, nd-verify and project files with the Fraction Gauss-Jordan flats
# before the integer homogeneous flats replaced them.  The project trace's
# chart depends on how the projection forms are scaled.  The carrier and
# order files were recorded with Fraction lifts in the grower and the
# projection, before those took integer rows; carrier_points.json is the
# cubic y = x^3 at x = -7..7 plus the off point (1, 2), and the carrier's
# sample points lie outside A.  The nd-verify_fail files pin the section a
# failing basis reports first, recorded with the 2^|B| subset scan before
# the flats walk replaced it: on sections_points.json the d=3 basis holds two
# 4-point lines through (0, 0), and at d=2 the basis is the collinear
# triple of points.json.
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_RUNS = [
    (f"{command}_d{d}.out", "points.json", [command, "--d", str(d), *extra])
    for d, n, chain in ((2, 5, "7,8,1"), (3, 9, "7,8,1,5,3,4,9"))
    for command, extra in (
        ("determined", []),
        ("ordinary", ["--n", str(n)]),
        ("richness", ["--threshold", "1/3"]),
        ("nd-grow", ["--seed", "0"]),
        ("nd-verify", ["--basis", chain]),
        ("project", ["--basis", chain]),
    )
] + [
    ("richness_e1_d2.out", "points.json", ["richness", "--d", "2", "--e", "1"]),
    ("nd-grow_order_d3.out", "points.json",
     ["nd-grow", "--d", "3", "--order", "9,8,7,6,5,4,3,2,1,0"]),
    ("nd-grow_order_blocked_d2.out", "points.json",
     ["nd-grow", "--d", "2", "--order", "0,2,3"]),
    ("nd-grow_carrier_d3.out", "carrier_points.json",
     ["nd-grow", "--d", "3", "--carrier", "y - x^3", "--b0", "15", "--seed", "0"]),
    ("nd-verify_fail_d3.out", "sections_points.json",
     ["nd-verify", "--d", "3", "--basis", "1,4,5,6,2,3,0"]),
    ("nd-verify_fail_d2.out", "points.json", ["nd-verify", "--d", "2", "--basis", "3,0,2"]),
    ("project_carrier_d3.out", "carrier_points.json",
     ["project", "--d", "3", "--basis", "15,1,10,9,5,3,4"]),
    # the only golden whose chart is not (1, 0, 0), which depends on the
    # relative scaling of the projection's forms
    ("project_chart_d2.out", "chart_points.json",
     ["project", "--d", "2", "--basis", "0,1,2"]),
]


@pytest.mark.parametrize(
    "name, points, argv", GOLDEN_RUNS, ids=[name for name, _, _ in GOLDEN_RUNS]
)
def test_stdout_matches_golden(name, points, argv, capsysbinary):
    code = main([*argv, "--input", str(GOLDEN / points)])
    captured = capsysbinary.readouterr()
    assert code == 0, captured.err
    assert captured.out == (GOLDEN / name).read_bytes()


def _shrunk_incidences(real):
    # every curve keeps one point of its incidence
    def fake(config):
        return [(vec, frozenset(sorted(inc)[:1])) for vec, inc in real(config)]
    return fake


def _doubled_lines(real):
    # every image line twice, so the pullback cannot be injective
    def fake(*args):
        lines = real(*args)
        return [*lines, *lines]
    return fake


def _extra_catalog_line(real):
    # the line x = 0, through no basis point: its lifts span with the center
    # a flat more than one dimension above it
    def fake(*args):
        return (*real(*args), (1, (0, 1, 0)))
    return fake


def _inflated_tau(real):
    # every region's tau past the growth guard's bound
    def fake(*args):
        for *head, tau in real(*args):
            yield (*head, tau + 100)
    return fake


@pytest.mark.parametrize("argv, module, name, fake, invariant", [
    (["determined", "--d", "2"], determined, "spanned_hyperplanes", _shrunk_incidences,
     "determined curve with fewer than C(d+2,2)-1 incidences"),
    (["project", "--d", "2", "--basis", "7,8,1"], projection, "two_point_lines",
     _doubled_lines, "line pullback is not injective"),
    (["project", "--d", "2", "--basis", "7,8,1"], projection, "exceptional_catalog",
     _extra_catalog_line, "exceptional span is not one above the center"),
    (["nd-grow", "--d", "3", "--seed", "0"], ndfamilies, "_active_flats", _inflated_tau,
     "growth guard"),
], ids=["determined", "project", "project-join", "nd-grow"])
def test_invariant_dump_reruns(argv, module, name, fake, invariant, tmp_path, monkeypatch,
                               capsys):
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    first = tmp_path / "first"
    first.mkdir()
    (first / "points.json").write_bytes((GOLDEN / "points.json").read_bytes())
    monkeypatch.chdir(first)
    argv = [*argv, "--input", "points.json"]
    code, out, err = run(argv, capsys)
    assert code == 4 and out == ""
    assert invariant in err.splitlines()[0]
    repro = json.loads(err.splitlines()[-1])["repro"]
    assert repro["argv"] == argv
    config = json.loads((GOLDEN / "points.json").read_text())
    assert repro["input"]["d"] == int(argv[2])
    assert repro["input"]["points"] == [
        [str(Fraction(x)), str(Fraction(y))] for x, y in config["points"]
    ]
    # the dump alone reruns: its input at the argv's --input path, its argv as given
    again = tmp_path / "again"
    again.mkdir()
    (again / "points.json").write_text(json.dumps(repro["input"]))
    monkeypatch.chdir(again)
    code, out, err = run(repro["argv"], capsys)
    assert code == 4 and out == ""
    assert json.loads(err.splitlines()[-1])["repro"] == repro
