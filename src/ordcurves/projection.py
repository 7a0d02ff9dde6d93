"""Hyperprojection pipeline: from a verified basis to ordinary curves.

The lifted span of a verified basis B is a codimension-3 flat F in lift
space, so the three independent affine forms vanishing on F, the kernel of
B's degree-d rows, define a projection of the complement onto the
projective plane; hyperplanes through F correspond bijectively to
projective lines.  Points of A whose lift lands in F are collected as D;
the exceptional catalog consists of the lower degree curves meeting B in
one point fewer than the forbidden threshold, and each such curve C must
span with B a flat exactly one above F — that pins every point of C
outside D to a single image point, the forbidden set T.  Lines through
exactly two surviving image points and no forbidden point pull back to
spanned hyperplanes and hence to determined curves whose incidence with A
is controlled by twice the maximal fiber size plus |D & A|.

Every point and every exceptional join is read off the three forms.  Each
point's three values are taken once: D is the set of points where all
three are 0, and any other point's image is their primitive triple, which
the fibers and the exceptional set read.  The join of C's lift flat with F
is cut out by the combinations of the forms vanishing on C's lift rows, so
it has 3 - r normals, r the rank of the forms' values on those rows, and is
one above F exactly when r = 1.  It is then the fiber of the one image
point those values give, and its points of A off D are the points with
that image.

Points are indices into A, lifted as its cached integer rows Z^d * (1, lift)
(`PointConfiguration.homogeneous_lifts`).  The center is spanned by B's
rows and cut out by their kernel, no flat object is built, and the
projector evaluates integer forms on the rows: a positive multiple of (1, z) has the
same image as z.  Image points and lines of P^2 are bare primitive integer
triples, sorted in the order of their first-nonzero-is-1 forms
(`linalg.normalized_key`); a point lies on a line when their dot product is
0.  Hyperplanes and curves are primitive integer vectors throughout: a
catalog curve is (e, its degree-e vector), the primitive vector the
verifier recorded for its section, and its lift flat is cut out by that
vector's monomial shifts; a line pulls back to the primitive vector of its
combination of the forms, which is checked on the basis rows, and whose
zero rows are the emitted curve's incidence with A.  A curve's
polynomial is built only to name it in an `InvariantViolation`.

Every curve the pipeline emits is spanned, so by the lemma at
`veronese.spanned_curve` its polynomial is squarefree and is read as its own
radical.  A catalog curve spans the one-dimensional vanishing space of its
section of B.  A line through exactly two image points holds the images of
points a1, a2 of A: the rows of B have rank N-2, N = C(d+2,2)-1, a1 is off
the center and a2 projects elsewhere, so B, a1 and a2 have N independent
rows, and the pulled-back vector spans their vanishing space.  Distinct
vectors are therefore distinct curves, and each line that passes the
incidence filter gives one record.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import lcm
from operator import mul

from .bipoly import monomial_order
from .determined import (
    CurveRecord,
    DeterminedCurveSet,
    PointConfiguration,
    contained_in_curve,
)
from .errors import HypothesisViolation, InvariantViolation
from .linalg import equation_rows, kernel, normalized_key, primitive, rank
from .ndfamilies import _basis_rows, nd_verify
from .veronese import ambient_dim, spanned_curve


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _zero_rows(vec, rows) -> frozenset[int]:
    """Indices of the integer rows on which the integer vector vanishes."""
    return frozenset(i for i, row in enumerate(rows) if _dot(vec, row) == 0)


def _curve_text(e: int, vec) -> str:
    """The polynomial of a catalog curve's vector, for messages."""
    return spanned_curve(vec, e).representative.text()


def line_through(p, q) -> tuple[int, ...]:
    """The primitive line through two points of P^2: their cross product."""
    (a0, a1, a2), (b0, b1, b2) = p, q
    return primitive((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


class HyperprojectionMap:
    """Projection of lift space from a codimension-3 flat onto P^2.

    `forms` are three independent affine functionals vanishing on the
    center, each an integer vector (c0, *c); the image of z is
    [f0(z) : f1(z) : f2(z)].  Points sharing an image are exactly those
    spanning the same one-higher flat with the center.
    """

    __slots__ = ("forms",)

    def __init__(self, forms: tuple):
        self.forms = forms

    @staticmethod
    def from_normals(normals) -> "HyperprojectionMap":
        """The map from a center with the three given independent normals
        (c0, *c), such as `kernel` of its spanning rows: each divided by the
        first nonzero entry of its c and all multiplied by one positive
        integer, so the three forms share one positive first linear entry;
        the image coordinates depend on these ratios.  A normal with c = 0
        is the equation c0 = 0 of an empty center."""
        firsts = [next(filter(None, normal[1:]), 0) for normal in normals]
        if len(firsts) != 3 or not all(firsts):
            raise HypothesisViolation(
                "three normals with nonzero linear parts",
                f"{len(firsts)} normals, {firsts.count(0)} with c = 0",
            )
        scale = lcm(*firsts)
        forms = tuple(
            tuple(x * (scale // first) for x in normal)
            for normal, first in zip(normals, firsts)
        )
        return HyperprojectionMap(forms)

    def values(self, row) -> list[int]:
        """The three forms' values on a homogeneous row, all 0 exactly when
        the row's point lies on the center."""
        return [_dot(f, row) for f in self.forms]

    def project_row(self, row) -> tuple[int, ...]:
        """Image of a homogeneous row, as a primitive triple: any nonzero
        multiple of (1, z), such as an `integer_lift` row, has the image of z."""
        w = self.values(row)
        if not any(w):
            raise HypothesisViolation(
                "point off the projection center", "z lies on the center flat"
            )
        return primitive(w)

    def pull_back_line(self, line) -> tuple[int, ...]:
        """Primitive vector of the hyperplane through the center whose image
        is the given line: the line's combination of the forms."""
        return primitive([_dot(line, column) for column in zip(*self.forms)])


def curve_lift_rows(e: int, vec, d: int) -> tuple:
    """Integer homogeneous rows spanning the degree-d lifts of all points of
    a degree-e curve (`linalg.equation_rows`).

    `vec` is the curve's squarefree polynomial p as a degree-e vector
    (constant, `monomial_order(e)`).  The equations are the degree-<=d
    multiples x^a y^b p, a+b <= d-e: each is `vec` with the coefficient of
    x^n y^m moved to x^(n+a) y^(m+b) in the degree-d layout.  Exact whenever
    every component of the zero set is infinite, which holds for every curve
    this pipeline feeds in.
    """
    if e > d:
        raise HypothesisViolation("curve degree <= d", f"degree {e} > {d}")
    source = ((0, 0),) + monomial_order(e)
    position = {mon: k for k, mon in enumerate(((0, 0),) + monomial_order(d))}
    eqs = []
    for shift_total in range(d - e + 1):
        for a in range(shift_total, -1, -1):
            row = [0] * len(position)
            for (n, m), c in zip(source, vec):
                row[position[n + a, m + shift_total - a]] = c
            eqs.append(row)
    return equation_rows(ambient_dim(d), eqs)


def exceptional_catalog(A: PointConfiguration, B, d: int):
    """Curves of each degree e < d meeting B, a sequence of indices into A,
    in C(d+2,2)-C(d-e+2,2)-1 points.

    For a verified basis the section flat of such a curve is a hyperplane
    in degree-e lift space, so candidates are the sections whose vanishing
    space is one-dimensional and realized exactly: the primitive vector
    spanning it vanishes on no other row of B.  `nd_verify` has already
    listed the realizable sections of that size, each with that vector
    (`NdVerifyResult.sections`, whose lemma shows every one is such a
    hyperplane), and the vector is the curve.  A curve's section is its
    whole incidence with B, so each section gives a different curve.

    Returns (e, primitive degree-e vector) pairs ordered by e, then by
    `normalized_key`.
    """
    verdict = nd_verify(A, B, d)
    if not verdict.ok:
        raise HypothesisViolation(
            "B satisfies the basis conditions", str(verdict.failures)
        )
    catalog = [(e, vec) for e, _, vec in verdict.sections]
    for e, vec in catalog:
        # the last e+1 entries are the degree-e monomials
        if not any(vec[-(e + 1):]):
            raise InvariantViolation(
                "exceptional curve with unexpected degree",
                {"e": e, "curve": _curve_text(e, vec)},
            )
    bound = 2 ** (2 ** (d + 2))
    for e, count in Counter(e for e, _ in catalog).items():
        if count >= bound:
            raise InvariantViolation(
                "exceptional catalog bound exceeded", {"e": e, "count": count, "bound": bound}
            )
    return tuple(sorted(catalog, key=lambda pair: (pair[0], normalized_key(pair[1]))))


class ProjectionPipelineState:
    __slots__ = ("basis", "d", "projector", "catalog", "d_indices", "e_indices",
                 "s_points", "t_points", "delta", "n", "trace")

    def __init__(self, basis: tuple[int, ...], d: int, projector: HyperprojectionMap,
                 catalog: tuple, d_indices: tuple[int, ...],
                 e_indices: tuple[int, ...], s_points: tuple[tuple[int, ...], ...],
                 t_points: tuple[tuple[int, ...], ...], delta: int, n: int, trace: dict):
        self.basis = basis
        self.d = d
        self.projector = projector
        self.catalog = catalog
        self.d_indices = d_indices
        self.e_indices = e_indices
        self.s_points = s_points
        self.t_points = t_points
        self.delta = delta
        self.n = n
        self.trace = trace

    def to_json_obj(self):
        return dict(self.trace)


def build_pipeline(A: PointConfiguration, B, d: int | None = None) -> ProjectionPipelineState:
    """Classify A relative to the basis B, a sequence of indices into A, and
    project the surviving points; d defaults to A.d."""
    d = A.d if d is None else d
    b, basis_rows = _basis_rows(A, B, d)
    contained, witness = contained_in_curve(A, d)
    if contained:
        raise HypothesisViolation(
            "configuration not contained in a degree-<=d curve", f"witness {witness}"
        )
    # the catalog verifies B first; a basis just verified or grown on A is
    # not walked again, its verdict is kept on A
    catalog = exceptional_catalog(A, b, d)
    n_amb = ambient_dim(d)
    # the center is the span of B's rows, cut out by their kernel
    normals = kernel(basis_rows[d], n_amb + 1)
    if len(normals) != 3:
        raise InvariantViolation(
            "basis span is not codimension 3",
            {"dim": n_amb - len(normals), "expected": n_amb - 3},
        )
    projector = HyperprojectionMap.from_normals(normals)

    # each point's three form values, taken once: D is where all three are
    # 0, and every other point's image is their primitive triple
    images = [
        primitive(w) if any(w) else None
        for w in map(projector.values, A.homogeneous_lifts(d))
    ]
    d_indices = tuple(i for i, image in enumerate(images) if image is None)
    if any(images[i] is not None for i in b):
        raise InvariantViolation("basis point escaped its own span", {})

    t_points = set()
    exceptional = set(d_indices)
    for e, vec in catalog:
        # the join of the curve's lift flat with the center has 3 - r
        # normals, r the rank of the forms' values on the curve's lift rows
        values = list(map(projector.values, curve_lift_rows(e, vec, d)))
        r = rank(values)
        if r != 1:
            raise InvariantViolation(
                "exceptional span is not one above the center",
                {"e": e, "curve": _curve_text(e, vec), "dim": n_amb - 3 + r},
            )
        # at rank 1 the join is the fiber of the one nonzero image, so its
        # points off D are exactly the points with that image
        image = primitive(next(filter(any, values)))
        exceptional.update(i for i, other in enumerate(images) if other == image)
        for i in _zero_rows(vec, A.homogeneous_lifts(e)):
            if i not in exceptional:
                raise InvariantViolation(
                    "curve point missing from the exceptional set",
                    {"curve": _curve_text(e, vec), "index": i},
                )
        t_points.add(image)
    t_points = tuple(sorted(t_points, key=normalized_key))

    e_indices = tuple(sorted(exceptional))
    # the fiber sizes of the surviving images
    fibers = Counter(image for i, image in enumerate(images) if i not in exceptional)
    s_points = tuple(sorted(fibers, key=normalized_key))
    delta = max(fibers.values(), default=0)

    forbidden = set(t_points)
    for image in s_points:
        if image in forbidden:
            raise InvariantViolation(
                "surviving image collides with the forbidden set",
                {"image": [str(c) for c in image]},
            )
    n_threshold = 2 * delta + len(d_indices)
    if delta + len(d_indices) > d * d:
        raise InvariantViolation(
            "fiber bound delta + |D & A| <= d^2 violated",
            {"delta": delta, "D_A": len(d_indices), "d": d},
        )
    trace = {
        "D_A": len(d_indices),
        "E_A": len(e_indices),
        "S": len(s_points),
        "T": len(t_points),
        "delta": delta,
        "n": n_threshold,
        "emitted": None,
    }
    return ProjectionPipelineState(
        basis=b,
        d=d,
        projector=projector,
        catalog=catalog,
        d_indices=d_indices,
        e_indices=e_indices,
        s_points=s_points,
        t_points=t_points,
        delta=delta,
        n=n_threshold,
        trace=trace,
    )


def two_point_lines(S, T):
    """Lines through exactly two points of S and no point of T.

    A line through k points of S is the line of C(k, 2) pairs, so the lines
    of exactly one pair are the two-point lines.  Points are compared as
    points of P^2, by their primitive forms, so proportional triples repeat.
    """
    S = list(S)
    if len(set(map(primitive, S))) != len(S):
        raise HypothesisViolation("distinct points", "S has repeated points of P^2")
    pairs = Counter(line_through(p, q) for p, q in combinations(S, 2))
    out = [line for line, count in pairs.items()
           if count == 1 and not any(_dot(line, t) == 0 for t in T)]
    return tuple(sorted(out, key=normalized_key))


def find_affine_chart(points):
    """Linear form nonzero on every given projective point.

    Sweeps (1, k, k^2); each point excludes at most two k values, so the
    sweep terminates within 2 * #points + 1 tries.
    """
    points = list(points)
    k = 0
    while k <= 2 * len(points) + 1:
        form = (1, k, k * k)
        if all(_dot(form, p) for p in points):
            return form
        k += 1
    raise InvariantViolation(
        "no affine chart found within the guaranteed sweep",
        {"points": len(points)},
    )


def curves_from_basis(A: PointConfiguration, B, d: int | None = None,
                      state: ProjectionPipelineState | None = None):
    """Ordinary curves through B obtained from two-point lines of the image.

    Returns (DeterminedCurveSet, ProjectionPipelineState); the state's trace
    records counts and degeneracy flags.
    """
    if state is None:
        state = build_pipeline(A, B, d)
    d = state.d
    trace = state.trace
    # the image points are collinear when their triples have rank <= 2
    if not state.s_points or rank(state.s_points) <= 2:
        trace.update({"emitted": 0, "image_collinear": bool(state.s_points)})
        return DeterminedCurveSet(d, state.n, ()), state

    chart = find_affine_chart(list(state.s_points) + list(state.t_points))
    trace["chart"] = [str(c) for c in chart]

    lines = two_point_lines(state.s_points, state.t_points)
    vectors = []
    records = []
    rows = A.homogeneous_lifts(d)
    for line in lines:
        vec = state.projector.pull_back_line(line)
        vectors.append(vec)
        if any(_dot(vec, rows[i]) for i in state.basis):
            raise InvariantViolation(
                "pulled-back hyperplane misses the basis",
                {"line": [str(c) for c in line]},
            )
        incidence = _zero_rows(vec, rows)
        if len(incidence) <= state.n:
            records.append(CurveRecord(d, incidence, (vec,)))
    if len(set(vectors)) != len(lines):
        raise InvariantViolation(
            "line pullback is not injective", {"lines": len(lines)}
        )
    records.sort(key=lambda rec: rec.curve.sort_key())
    trace.update({"emitted": len(records), "lines": len(lines),
                  "filtered": len(lines) - len(records)})
    return DeterminedCurveSet(d, state.n, tuple(records)), state
