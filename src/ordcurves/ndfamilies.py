"""Bases in curve-general position: membership verifier and chain grower.

A basis is a subset B of A with C(d+2,2)-3 points, given as a sequence of
indices into the configuration A.  Membership in the good family asks four
things of B: affinely independent degree-d lifts, no degree-e curve
(1 <= e < d) meeting B in C(d+2,2)-C(d-e+2,2) or more points, and a
dimension dichotomy on the complement of every maximal curve section.
Sections of B by exact-degree-e curves coincide with sections by curves of
degree at most e (pad with a far-away line), and a subset S is
such a section exactly when its vanishing space at degree e has a
nonconstant element whose dimension strictly drops when any point of B\\S
is adjoined; over an infinite field that guarantees a curve through S
avoiding the rest of B.  So the sections are the flats of rank below
C(e+2,2) of the matroid of B's degree-e rows.

The chain grower extends a seed set one point at a time, always picking the
first candidate outside the union of forbidden pullback regions attached to
the current set; on success the result provably satisfies the four
conditions.  This implementation checks them on the last step's walk, the
flats and complement nodes the regions were read off, and treats a
mismatch as an internal defect.  Whether a carrier curve sits inside a
forbidden region is decided exactly by sampling 2d^2+1 of its points: a
region is covered by three curves of degree at most d, so a carrier not
inside it meets it in at most 2d^2 points.

Points enter as indices, and each degree e of a point as its integer row
Z^e * (1, lift) (`integer_lift`, a positive multiple of the homogeneous
row).  A configuration's rows come from its cache; points given outside one
(the carrier sample, `nd_quantities`'s point lists) are lifted once per
call.
Vanishing dimensions and affine dimensions are ranks of those rows, and a
point lies in a flat when its row is orthogonal to the flat's integer
normals.  A forbidden region U_e(B, D) depends on D only through the span
V_e of its degree-e rows, so the grower takes one region per flat of B's
degree-e rows, with V_e and B & V_e read off the flats walk.  The rest of
B, outside a flat or a section, is an ascending index tuple, and its span
(W_e, and the complement dimension of conditions (iii) and (iv)) is read
off the kernel node of its degree-(d-e) rows.  The package has one flats
walk, `linalg.flats_step`, folded one row at a time, which maps each flat
to a plain kernel node and knows nothing of the complements.  The grower's
B gains one point a step, so it keeps its walk between steps and extends
it by the new point: one pass over the flats of each degree e, then each
flat's complement node, kept beside the walk, is taken over or stepped by
the point's degree-(d-e) row, and V_d(B)'s node gains one `kernel_step`.
The verifier walks no flats: once condition (i) holds, the first failing
section at every degree is a hyperplane (proof at `nd_verify`), so it reads
only B's hyperplanes, off the span scan `linalg.spanned_vectors` with their
incidences, and takes each complement's node from `linalg.prefix_kernels`,
one `kernel_step` on the node of its prefix.  `realizable_sections`, every
flat of rank below C(e+2,2) by the same fold, is a library function the
verifier does not call.  The grower builds no region object: one pass
over the walk reads each region's quantities off the lengths of the V_e
and W_e kernel bases and keeps the raw V_e bases as its membership tests,
since a region only tests points by zero dot products.  Every region holds
V_d(B), so a candidate is tested against V_d(B) once, and a region with
alpha < 0 holds nothing more.  A region's W_e needs no test: a point in it
lies in the V_{d-e} of an active region of degree d-e with alpha >= 0
(proof at `_regions`).  A passing verdict records each section
that condition (iii) examined with the one primitive vector of its kernel,
the exceptional catalog's curve: once (ii) has passed, such a section is a
hyperplane of the matroid of B's rows (`NdVerifyResult`).  A configuration
keeps only the verdict of the last basis verified or grown on it.
"""

from __future__ import annotations

import random
from math import comb
from operator import mul

from .bipoly import PlaneCurve, rational_points_on_curve
from .determined import PointConfiguration
from .errors import HypothesisViolation, InvariantViolation
from .linalg import (
    AffineFlat, flats_step, kernel_root, kernel_step, prefix_kernels, primitive, rank, row_span,
    spanned_vectors,
)
from .veronese import ambient_dim, as_point, integer_lift


class NdQuantities:
    __slots__ = ("d", "e", "v_e", "w_e", "alpha", "beta", "gamma", "mu", "tau")

    def __init__(self, d: int, e: int, v_e: AffineFlat, w_e: AffineFlat,
                 alpha: int, beta: int, gamma: int, mu: int, tau: int):
        self.d = d
        self.e = e
        self.v_e = v_e
        self.w_e = w_e
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.mu = mu
        self.tau = tau


def _degree_rows(source, d: int) -> dict:
    """Integer rows Z^e * (1, lift) of the points, one tuple per degree e = 1..d.

    `source` is a configuration, whose cached rows are used, or a point
    list, which is lifted here.
    """
    if isinstance(source, PointConfiguration):
        return {e: source.homogeneous_lifts(e) for e in range(1, d + 1)}
    points = list(source)
    return {e: tuple(integer_lift(p, e) for p in points) for e in range(1, d + 1)}


def _quantities(n_b: int, dim_v: int, dim_w: int, gamma: int, e: int, d: int) -> tuple:
    """(alpha, beta, mu, tau) of D inside B at split degree e: |B| = n_b,
    dim_v is the dimension of the span V_e of D's degree-e rows, gamma the
    number of points of B in V_e and dim_w the dimension of the span W_e of
    the other points' degree-(d-e) rows."""
    alpha = comb(e + 2, 2) - 2 - dim_v
    beta = comb(d - e + 2, 2) - 3 - dim_w
    mu = 0 if alpha < 0 else alpha + gamma + comb(d - e + 2, 2)
    section_cut = comb(d + 2, 2) - comb(d - e + 2, 2) - 1
    if min(alpha, beta) < 0 or gamma > section_cut:
        tau = 0
    elif gamma == section_cut:
        tau = alpha + beta + n_b + 2
    else:
        tau = alpha + beta + n_b + 3
    return alpha, beta, mu, tau


def nd_quantities(B, D, e: int, d: int) -> NdQuantities:
    """The seven section quantities for D inside B at split degree e."""
    if not 1 <= e <= d - 1:
        raise HypothesisViolation("1 <= e <= d-1", f"e={e}, d={d}")
    B = [as_point(b) for b in B]
    position = {p: i for i, p in enumerate(B)}
    D = [as_point(p) for p in D]
    if any(p not in position for p in D):
        raise HypothesisViolation("D subset of B", "D contains a point outside B")
    R = _degree_rows(B, d)
    v_e = row_span(ambient_dim(e), [R[e][position[p]] for p in D])
    rest = [row_w for row, row_w in zip(R[e], R[d - e]) if not v_e.contains_row(row)]
    w_e = row_span(ambient_dim(d - e), rest)
    gamma = len(B) - len(rest)
    alpha, beta, mu, tau = _quantities(len(B), v_e.dim, w_e.dim, gamma, e, d)
    return NdQuantities(d, e, v_e, w_e, alpha, beta, gamma, mu, tau)


def _section_order(found) -> list:
    """The flats among (index tuple, basis, ...) items with a nonempty
    kernel basis, of rank below the column count, in section order:
    decreasing size, then `combinations` order."""
    return sorted(
        (item for item in found if item[1]), key=lambda item: (-len(item[0]), item[0])
    )


def realizable_sections(rows, e: int):
    """Subsets S of B occurring as C & B for a curve C of degree exactly e.

    `rows` are B's degree-e integer rows (`integer_lift`).  The sections are
    the flats of rank below C(e+2,2) (module docstring), folded one row at a
    time by `linalg.flats_step`, as (index tuple into B, kernel basis of the
    flat's node, as a tuple of tuples) pairs in `_section_order`.  The
    basis spans the section's vanishing space; its vectors are not made
    primitive.  A library function: `nd_verify` needs only the
    hyperplanes among these (proof there).
    """
    walk = {(): kernel_root(comb(e + 2, 2))}
    for m in range(len(rows)):
        walk = flats_step(walk, rows, m)
    return _section_order((idx, tuple(map(tuple, basis))) for idx, (basis, _) in walk.items())


def _deciding_sections(rows, e: int, d: int):
    """The realizable sections of B at degree e that decide its verdict
    (proof at `nd_verify`), in `_section_order`, each as (index tuple,
    kernel basis, kernel node of the rest of B's degree-(d-e) rows);
    `rows` holds B's rows by degree.

    When the degree-e rows span, these are B's hyperplanes, each with its
    one primitive vector, read off the span scan.  When they do not span,
    the scan finds no hyperplane or one through every row, and B itself is
    the one section: it fails (ii) on its size, so it carries no basis.
    Each rest node is one `kernel_step` from that of its prefix
    (`prefix_kernels`).
    """
    n_b = len(rows[e])
    node = prefix_kernels(rows[d - e], comb(d - e + 2, 2))
    scan = spanned_vectors(rows[e])
    if all(len(on) == n_b for on in scan.values()):
        yield tuple(range(n_b)), (), node(())
        return
    found = ((tuple(sorted(on)), (vec,)) for vec, on in scan.items())
    for idx, vecs in _section_order(found):
        yield idx, vecs, node(tuple(i for i in range(n_b) if i not in idx))


class NdVerifyResult:
    """Verdict of `nd_verify`.  On success `sections` holds the
    (e, section, vector) triples of size cut-1, cut = C(d+2,2)-C(d-e+2,2),
    that condition (iii) examined: every realizable section of B of that
    size, as an index tuple into B with the primitive vector spanning the
    kernel of its degree-e rows.

    Lemma: once (ii) has passed at e, every realizable section S of size
    cut-1 is a hyperplane of the matroid of B's degree-e rows (Oxley,
    Matroid Theory, ch. 1), so that kernel is one vector, and it vanishes
    on exactly the rows of S.  Proof: C(d-e+2,2) >= 3, so |B| >= cut, and
    if B's rows did not span, B itself would be a section of at least cut
    points and fail (ii).  So they span, and a flat S of rank below
    C(e+2,2)-1 lies in a strictly larger hyperplane H, a flat of B's rows
    reached by adding points of B outside S; H is a realizable section of
    at least cut points, and `_section_order` puts it before S, so (ii)
    fails before S is reached.  A flat is its own closure, so its vector
    vanishes on no other row of B.  `_verdict` unpacks the one vector, so a
    breach raises.
    """

    __slots__ = ("ok", "failures", "sections")

    def __init__(self, ok: bool, failures: tuple, sections: tuple = ()):
        self.ok = ok
        self.failures = failures
        self.sections = sections

    def __bool__(self):
        return self.ok


def _basis_rows(A: PointConfiguration, B, d: int):
    """B as a tuple of indices into A, checked, and its integer rows by
    degree 1..d, one tuple per degree."""
    B = tuple(B)
    bad = [i for i in B if not (isinstance(i, int) and 0 <= i < len(A))]
    if bad:
        raise HypothesisViolation("basis index in range", f"index {bad[0]!r} outside [0, {len(A)})")
    if len(set(B)) != len(B):
        raise HypothesisViolation("distinct basis points", "duplicate point in B")
    expected = comb(d + 2, 2) - 3
    if len(B) != expected:
        raise HypothesisViolation(
            "|B| = C(d+2,2)-3", f"got {len(B)}, expected {expected} at d={d}"
        )
    R = _degree_rows(A, d)
    return B, {e: tuple(R[e][i] for i in B) for e in R}


def _verdict(d: int, n_b: int, dim_b: int, walk) -> NdVerifyResult:
    """The four basis conditions on one walk of B, |B| = n_b; early exit on
    the first failure.

    dim_b is the dimension of the span of B's degree-d rows.  `walk` yields,
    for e = 1..d-1 in turn, (e, B's realizable sections at degree e in
    `_section_order`, each as (index tuple, kernel basis, kernel node of the
    rest of B's degree-(d-e) rows)), or only its hyperplanes, which decide
    the verdict alike (`nd_verify`); a lazy walk stops at the first failure
    too.  Only a condition-(iii) section's basis is read: its one vector,
    made primitive.
    """

    def failure(condition, e, section, measured, threshold) -> NdVerifyResult:
        record = {"condition": condition, "e": e, "section": list(section),
                  "measured": measured, "threshold": threshold}
        return NdVerifyResult(False, (record,))

    target_dim = comb(d + 2, 2) - 4
    if dim_b != target_dim:
        return failure("i", d, range(n_b), dim_b, target_dim)

    sections = []
    for e, found in walk:
        monomials_rest = comb(d - e + 2, 2)
        cut = comb(d + 2, 2) - monomials_rest
        rest_target = monomials_rest - 3
        for idx, vecs, rest_node in found:
            size = len(idx)
            if size >= cut:
                return failure("ii", e, idx, size, cut)
            dim_rest = monomials_rest - len(rest_node[0]) - 1
            if size == cut - 1:
                if dim_rest != rest_target:
                    return failure("iii", e, idx, dim_rest, rest_target)
                (vec,) = vecs  # one vector by the lemma at `NdVerifyResult`
                sections.append((e, idx, primitive(vec)))
            elif dim_rest <= rest_target:
                return failure("iv", e, idx, dim_rest, rest_target)
    return NdVerifyResult(True, (), tuple(sections))


def _keep(A: PointConfiguration, key, verdict: NdVerifyResult) -> None:
    """Keep the verdict on A as its only one, under (basis index tuple, d)."""
    A._verdict.clear()
    A._verdict[key] = verdict


def nd_verify(A: PointConfiguration, B, d: int | None = None) -> NdVerifyResult:
    """Check the four basis conditions; early exit on the first failure.

    B is a sequence of indices into A, and d defaults to A.d.  The walk is
    the rank of B's degree-d rows, then for each e B's
    `_deciding_sections`, each with the node of the rest of B; `_verdict`
    reads the conditions off it.  A passing verdict, all tuples, is kept on
    A with the basis's index tuple and d, as the last grow keeps its own,
    so asking again for the same basis walks nothing.  A failing verdict's
    record is a dict for the JSON report, which a caller could change, so
    it is not kept.

    Why the hyperplanes decide as every realizable section does (Oxley,
    Matroid Theory, ch. 1), with c' = C(d-e+2,2), cut = C(d+2,2) - c' and
    r_k(S) the rank of the degree-k rows of S.  Condition (i) is checked
    first, and once it holds the polynomials of degree <= d that vanish on
    B form a space of dimension C(d+2,2) - |B| = 3.  When B's degree-e rows
    do not span, B itself is the largest section, of |B| >= cut points
    (the lemma at `NdVerifyResult`), so it comes first and fails (ii); the
    scan shows this, as it finds no hyperplane or one through every row.

    Lemma: if B passes (i) and its degree-e rows span, then in
    `_section_order` the first flat of B's degree-e rows that fails (ii),
    (iii) or (iv) is a hyperplane.

    - A flat of at least cut points lies inside a larger hyperplane, which
      comes first and fails (ii).  Once (ii) has passed, a flat of cut-1
      points is a hyperplane (the lemma at `NdVerifyResult`).  So suppose
      the first failure F is not a hyperplane.  Then F fails (iv):
      r_{d-e}(B \\ F) <= c'-2.
    - Every proper flat G strictly above F comes before F, so it passes.
      Also r_{d-e}(B \\ G) <= r_{d-e}(B \\ F) <= c'-2, so G can pass
      only as a (iii) section: |G| = cut-1, and the c'-2 points of B \\ G
      have independent degree-(d-e) rows.  If F had corank 3 or more, two
      nested proper flats above F would both have cut-1 points, which is
      impossible.  So F has corank 2.
    - The polynomials of degree <= e vanishing on F are therefore a pencil
      <f, g>.  Take a hyperplane H strictly above F.  Then B \\ F contains
      B \\ H, which forces r_{d-e}(B \\ F) = c'-2, so the polynomials of
      degree <= d-e vanishing on B \\ F are a pencil <p, q>.
    - The products fp, fq, gp and gq all vanish on B, and they lie in a
      space of dimension 3.  So f u1 = g u2 for some nonzero u1, u2 in
      <p, q>.  Write c = gcd(f, g), f = c f' and g = c g'.  Then
      f' u1 = g' u2, where f' and g' are coprime and, as f and g are
      independent, not both constant.  So u1 = g' t and u2 = f' t for some
      t != 0 with deg t <= d-e-1.
    - No point x of B \\ F is a common zero of f and g, because F is a
      flat.  So c(x) != 0, f'(x) and g'(x) are not both 0, and hence
      t(x) = 0.  The multiples t s with deg s <= d-e-deg t give at least 3
      independent polynomials of degree <= d-e that vanish on B \\ H, so
      r_{d-e}(B \\ H) <= c'-3.  This contradicts the independence of
      B \\ H.

    So the hyperplanes give the same first failure as every flat does, and
    the (iii) sections, of cut-1 points, are hyperplanes already: the
    verifier walks no flats.
    """
    d = A.d if d is None else d
    if d < 2:
        raise HypothesisViolation("d >= 2", f"d={d}")
    B, rows = _basis_rows(A, B, d)
    key = (B, d)
    if key in A._verdict:
        return A._verdict[key]
    walk = ((e, _deciding_sections(rows, e, d)) for e in range(1, d))
    verdict = _verdict(d, len(B), rank(rows[d]) - 1, walk)
    if verdict.ok:
        _keep(A, key, verdict)
    return verdict


GUARD_NAME = "growth guard max(tau, mu) < C(d+2,2)"


def _root_walk(d: int):
    """The grower's walk of the empty chain: V_d's `kernel_root`, and for
    each e = 1..d-1 the flats walk of no degree-e rows beside the map of
    its one flat to its complement node, the `kernel_root` of degree d-e;
    both are the walk of no rows of their degree."""
    roots = {e: {(): kernel_root(comb(e + 2, 2))} for e in range(d + 1)}
    return roots[d][()], {e: (roots[e], roots[d - e]) for e in range(1, d)}


def _extend_walk(walk, R, d: int, chain):
    """The grower's walk of the chain from the walk of the chain less its
    last point i, as a new walk: V_d's node by one `kernel_step`, each
    degree's flats by one `linalg.flats_step`, and each flat's complement
    node, that of its complement's degree-(d-e) rows.  A flat that gained
    i takes the complement node of the flat without it; any other flat's
    is stepped by point i's degree-(d-e) row."""
    d_node, walks = walk
    m, i = len(chain) - 1, chain[-1]
    out = {}
    for e, (found, co) in walks.items():
        found = flats_step(found, [R[e][j] for j in chain], m)
        co_row = R[d - e][i]
        out[e] = found, {
            idx: co[idx[:-1]] if m in idx else kernel_step(co[idx], co_row) or co[idx]
            for idx in found
        }
    return kernel_step(d_node, R[d][i]) or d_node, out


def _holds(basis, row) -> bool:
    """Whether the flat with the raw kernel basis holds the point with the
    homogeneous row: every dot product is 0.  Candidates are tested
    against V_d(B) and V_e bases, a carrier's sample points against W_e
    bases too (`_active_flats`).

    A flat of no points (V_e of the empty flat, W_e when D = B, V_d of the
    empty chain) has the identity as its basis, and no `integer_lift` row
    is orthogonal to it, since the row's first entry Z^e is positive; so
    unlike `AffineFlat.contains_row` this needs no test of the flat's rows.
    """
    return all(sum(map(mul, k, row)) == 0 for k in basis)


def _active_flats(walk, n_b: int, d: int, sample):
    """The flats of the grower's walk whose region is active, as (e, D, V_e
    basis, W_e basis, alpha, beta, gamma, mu, tau).

    `walk` is the walk of a chain of n_b points (`_extend_walk`).  Each
    flat of B's degree-e rows gives one region U_e(B, D) (module
    docstring): D is the flat, the points of B in V_e, as positions in the
    chain; V_e's basis is the flat's kernel basis and W_e's the kernel
    basis of the flat's complement node, so their dimensions are read off
    the lengths of those bases.  `sample` holds the carrier sample's rows
    by degree, and a region holding every sample point is inactive.  Every
    region holds V_d(B), so only the sample points outside V_d(B) are
    tested against the rest of a region: alpha >= 0 and (V_e, or beta >= 0
    and W_e).  With no carrier (C0 = the whole plane, `sample` None) every
    region is active, as a region is covered by at most three curves.
    The W_e basis serves beta (and so tau), this activeness and the final
    verdict's complements; candidates are tested against V_e alone
    (`_regions`).
    """
    d_node, walks = walk
    outside = None if sample is None else [
        k for k, row in enumerate(sample[d]) if not _holds(d_node[0], row)
    ]
    for e, (found, co) in walks.items():
        n_v, n_w = comb(e + 2, 2), comb(d - e + 2, 2)
        for idx, (v, _) in found.items():
            w = co[idx][0]
            gamma = len(idx)
            alpha, beta, mu, tau = _quantities(
                n_b, n_v - 1 - len(v), n_w - 1 - len(w), gamma, e, d
            )
            if outside is not None and all(
                alpha >= 0
                and (_holds(v, sample[e][k]) or beta >= 0 and _holds(w, sample[d - e][k]))
                for k in outside
            ):
                continue
            yield e, idx, v, w, alpha, beta, gamma, mu, tau


def _regions(A: PointConfiguration, chain, d: int, sample, walk, step: int):
    """The step's regions, read off the chain's walk in one pass over its
    active flats (`_active_flats`), with the growth guard checked.

    Returns (V_d(B)'s kernel basis, tests, max(tau, mu)).  `tests` holds
    (e, V_e basis) for the active regions with alpha >= 0; a region with
    alpha < 0 holds nothing beyond V_d(B).  With no active region nothing
    is forbidden, and V_d(B)'s basis is None.

    A region with beta >= 0 also holds its W_e, but no test of it is kept,
    by this lemma, with c' = C(d-e+2,2) and r_k(S) the rank of the
    degree-k rows of S.  Take an active region (e, D) with alpha >= 0 and
    beta >= 0, put G = B \\ D, and let D' be the closure of G among B's
    degree-(d-e) rows: a flat of the walk at degree d-e, where
    1 <= d-e <= d-1.  Then a point whose degree-(d-e) row lies in W_e(D)
    lies in V_{d-e}(D'), and (d-e, D') is an active region with alpha >= 0,
    so the V test kept for it forbids the point already.

    - V_{d-e}(D') = W_e(D), as a closure spans what the set it closes
      spans.
    - beta(e, D) >= 0 means r_{d-e}(G) <= c'-2, so alpha(d-e, D') =
      c'-1-r_{d-e}(G) >= 1.
    - Without a carrier every region is active.  With one, some sample
      point s outside V_d(B) keeps (e, D) active, so s lies outside V_e(D)
      and outside W_e(D).  B \\ D' lies in B \\ G = D, so W_{d-e}(D') =
      V_e(B \\ D') lies in V_e(D).  So s lies outside V_{d-e}(D') = W_e(D)
      and outside W_{d-e}(D'), and keeps (d-e, D') active.

    The strict bound max(tau, mu) < C(d+2,2) holds at every step for d >= 3
    and for completed sets at d = 2.  At d = 2 a growing set of fewer than
    C(d+2,2)-3 points always carries small sections whose quantities reach
    the bound with equality (alpha + beta is data-independent there), so the
    enforced bound during d = 2 growth is non-strict.
    """
    bound = comb(d + 2, 2)
    strict = d >= 3 or len(chain) >= bound - 3
    worst, tests = -1, []
    for e, idx, v, _, alpha, _, _, mu, tau in _active_flats(walk, len(chain), d, sample):
        value = max(tau, mu)
        if value > bound or (strict and value == bound):
            raise InvariantViolation(
                GUARD_NAME,
                {
                    "step": step,
                    "d": d,
                    "e": e,
                    "B": [[str(x), str(y)] for x, y in A.subset(chain)],
                    "D": list(idx),
                    "tau": tau,
                    "mu": mu,
                    "bound": bound,
                    "strict": strict,
                },
            )
        worst = max(worst, value)
        if alpha >= 0:
            tests.append((e, v))
    return (walk[0][0] if worst >= 0 else None), tests, max(worst, 0)


def _forbidden(R, d: int, i: int, v_d, tests) -> bool:
    """Whether point i lies in one of the step's regions (`_regions`):
    V_d(B) is tested once, then each kept region's V_e, and no W_e, which
    a region of the other degree's V test covers (lemma at `_regions`).
    R[k][i] is the point's degree-k row."""
    return v_d is not None and (
        _holds(v_d, R[d][i]) or any(_holds(v, R[e][i]) for e, v in tests)
    )


class GrowthResult:
    __slots__ = ("success", "chain", "blocked", "guard_trace")

    def __init__(self, success: bool, chain: tuple[int, ...], blocked: tuple,
                 guard_trace: tuple[int, ...] = ()):
        self.success = success
        self.chain = chain
        self.blocked = blocked
        self.guard_trace = guard_trace

    def to_json_obj(self):
        return {
            "success": self.success,
            "chain": list(self.chain),
            "blocked": list(self.blocked),
            "guard_trace": list(self.guard_trace),
        }


def grow_nd_chain(
    A: PointConfiguration,
    b0_indices,
    c0: PlaneCurve | None,
    d: int,
    order=None,
    seed: int = 0,
) -> GrowthResult:
    """Greedy basis construction by forbidden-region avoidance.

    Without a carrier, grows from the empty set over all of A; with an
    irreducible carrier C0 of degree d-f, grows a seed B0 of C(f+2,2)
    indices into A, points off C0 (not on any curve of degree <= f), using
    candidates on C0 only.  Candidate order is an explicit index sequence
    of distinct indices or a shuffle seeded by `seed` (0 by default, as
    `nd-grow --seed`), so failures reproduce exactly.

    The walk starts at `_root_walk` and gains each seed point, then each
    chosen point, by `_extend_walk`; after each, `_regions` reads the
    step's regions off it and `_forbidden` tests the candidates.  The four
    basis conditions are checked on the last step's walk: its flats of rank
    below C(e+2,2) are B's realizable sections with the kernel bases
    `realizable_sections` finds, its complement nodes give conditions (iii)
    and (iv) and V_d(B) condition (i).  A mismatch is an internal defect; a
    success is kept on A as the verdict `nd_verify` returns for the chain.
    """
    if d < 2:
        raise HypothesisViolation("d >= 2", f"d={d}")
    b0_indices = [int(i) for i in b0_indices]
    target = comb(d + 2, 2) - 3
    if len(A) < target:
        return GrowthResult(
            False, tuple(b0_indices),
            ({"step": 0, "reason": f"|A|={len(A)} below target {target}"},),
        )

    R = _degree_rows(A, d)
    if c0 is None:
        if b0_indices:
            raise HypothesisViolation(
                "empty seed without carrier", "B0 must be empty when C0 is absent"
            )
        pool = list(range(len(A)))
        sample = None
    else:
        f = d - c0.radical.degree
        if not 0 <= f <= d - 1:
            raise HypothesisViolation(
                "carrier degree in [1, d]", f"deg C0 = {c0.radical.degree}, d = {d}"
            )
        if len(b0_indices) != comb(f + 2, 2):
            raise HypothesisViolation(
                "|B0| = C(f+2,2)",
                f"got {len(b0_indices)}, expected {comb(f + 2, 2)} at f={f}",
            )
        bad = [i for i in b0_indices if not 0 <= i < len(A)]
        if bad:
            raise HypothesisViolation("seed index in range", f"index {bad[0]} outside [0, {len(A)})")
        if any(c0.contains(p) for p in A.subset(b0_indices)):
            raise HypothesisViolation("B0 disjoint from carrier", "seed point on C0")
        if len(set(b0_indices)) != len(b0_indices):
            raise HypothesisViolation("distinct seed points", "duplicate index in B0")
        if f >= 1 and rank([R[f][i] for i in b0_indices]) < comb(f + 2, 2):
            raise HypothesisViolation(
                "B0 not contained in a curve of degree <= f",
                f"seed lies on a degree-<= {f} curve",
            )
        pool = [
            i
            for i in range(len(A))
            if i not in b0_indices and c0.contains(A.points[i])
        ]
        sample = _degree_rows(rational_points_on_curve(c0, 2 * d * d + 1), d)

    if order is not None:
        order = [int(i) for i in order]
        if len(set(order)) != len(order):
            raise HypothesisViolation(
                "distinct order indices", "duplicate index in the candidate order"
            )
        in_pool = set(pool)
        ordered_pool = [i for i in order if i in in_pool]
    else:
        rng = random.Random(seed)
        ordered_pool = list(pool)
        rng.shuffle(ordered_pool)

    chain = []
    walk = _root_walk(d)
    for i in b0_indices:
        chain.append(i)
        walk = _extend_walk(walk, R, d, chain)
    blocked = []
    v_d, tests, worst = _regions(A, chain, d, sample, walk, 0)
    guard_trace = [worst]
    step = 0
    while len(chain) < target:
        step += 1
        chosen = None
        rejected = []
        for i in ordered_pool:
            if i in chain:
                continue
            if _forbidden(R, d, i, v_d, tests):
                rejected.append(i)
                continue
            chosen = i
            break
        if chosen is None:
            blocked.append(
                {"step": step, "have": len(chain), "rejected": rejected,
                 "reason": "candidate pool exhausted inside forbidden regions"}
            )
            return GrowthResult(False, tuple(chain), tuple(blocked), tuple(guard_trace))
        chain.append(chosen)
        walk = _extend_walk(walk, R, d, chain)
        v_d, tests, worst = _regions(A, chain, d, sample, walk, step)
        guard_trace.append(worst)

    d_node, walks = walk
    verdict = _verdict(
        d, len(chain), comb(d + 2, 2) - 1 - len(d_node[0]),
        ((e, _section_order((idx, basis, co[idx]) for idx, (basis, _) in found.items()))
         for e, (found, co) in walks.items()),
    )
    if not verdict.ok:
        raise InvariantViolation(
            "grown chain fails the basis conditions",
            {"chain": chain, "failures": list(verdict.failures)},
        )
    _keep(A, (tuple(chain), d), verdict)
    return GrowthResult(True, tuple(chain), tuple(blocked), tuple(guard_trace))

