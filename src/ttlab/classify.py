"""Orbit-closure identification for twist-torus families.

Everything here is decided from the combinatorics of a multicurve
configuration and its spine assignment: which stratum the flat surfaces
live in, whether the homological rank certificate clears the high-rank
threshold, and whether a hyperelliptic symmetry of the presentation
exists.  Inconclusive is a first-class verdict; the criteria are
sufficient but not necessary, and this module never extrapolates past
them.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import groupby

from .cover import holonomy_double_cover, rank_lower_bound
from .errors import (
    BadPartition, CrossCheckFailed, ModeMismatch, NotPants, SearchBudgetExceeded,
)
from .ribbon import (
    co_orientable,
    cone_orders,
    jointly_orientable,
    pants_assignment,
)
from .surface import build_surface, EXACT, _exact_number, _ribbon_isos
from .topology import is_pants_decomposition

FULL_STRATUM = "FullStratumComponent"
HYPERELLIPTIC = "HyperellipticCandidate"
INCONCLUSIVE = "Inconclusive"

_SEARCH_PIECE_LIMIT = 12
_SEARCH_NODE_LIMIT = 500_000


@dataclass(frozen=True)
class StratumLabel:
    """Cone-order partition plus the orientability sign.

    kappa is stored sorted ascending; epsilon is +1 exactly when the
    horizontal direction is globally orientable (squares of abelian
    differentials), in which case every cone order must be even.
    """

    genus: int
    kappa: tuple
    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise BadPartition(f"epsilon {self.epsilon} not in {{+1, -1}}")
        if tuple(sorted(self.kappa)) != self.kappa:
            raise BadPartition(f"kappa {self.kappa} is not sorted")
        if any(k < 1 for k in self.kappa):
            raise BadPartition(f"kappa {self.kappa} has entries below 1")
        if sum(self.kappa) != 4 * self.genus - 4:
            raise BadPartition(
                f"sum {sum(self.kappa)} != 4g-4 = {4 * self.genus - 4}"
            )
        if self.epsilon == 1 and any(k % 2 for k in self.kappa):
            raise BadPartition(f"odd order in {self.kappa} with epsilon +1")

    @property
    def n_sing_odd(self):
        return sum(1 for k in self.kappa if k % 2)

    @property
    def dim(self):
        """Complex dimension of the stratum."""
        delta = 1 if self.epsilon == 1 else 0
        return 2 * self.genus - 2 + len(self.kappa) + delta

    def __str__(self):
        parts = []
        for order, group in groupby(self.kappa):
            mult = len(list(group))
            parts.append(f"{order}^{mult}" if mult > 1 else f"{order}")
        sign = "+1" if self.epsilon == 1 else "-1"
        return "Q(" + ",".join(parts) + ";" + sign + ")"


@dataclass(frozen=True)
class OrbitClosureVerdict:
    """Outcome of the identification criteria with its certificate.

    kind is one of FULL_STRATUM, HYPERELLIPTIC, INCONCLUSIVE.  The
    certificate carries the numbers the decision was based on so a
    caller can audit it: rank_lb, threshold, N_co, delta_jo, and nabla
    when the configuration is a pants decomposition.  limit_label is a
    textual tag for the limiting measure, empty when inconclusive.
    """

    kind: str
    stratum: StratumLabel
    certificate: dict
    limit_label: str = ""
    reasons: tuple = ()


def identify_stratum(q):
    """Stratum of every surface built on the spine assignment of q."""
    orders = []
    for graph in q.sa.graphs:
        orders.extend(cone_orders(graph))
    _, epsilon = jointly_orientable(q)
    return StratumLabel(q.cfg.genus, tuple(sorted(orders)), epsilon)


def high_rank_threshold(genus, sing_odd):
    """Rank bound above which an invariant locus fills its component."""
    return Fraction(genus) + Fraction(sing_odd, 4) + Fraction(1, 2)


def nabla_count(cfg, lengths):
    """Number of pants pieces whose boundary triple satisfies a = b + c.

    Boundary lengths are taken with multiplicity: a curve glued to the
    same piece twice contributes its length to that triple twice.
    """
    if not is_pants_decomposition(cfg):
        raise NotPants("nabla counting needs a pants decomposition")
    exact = [_exact_number(x, f"length of curve {i}") for i, x in enumerate(lengths)]
    triples = [[] for _ in cfg.pieces]
    for i, pair in enumerate(cfg.gluing):
        for p, _ in pair:
            triples[p].append(exact[i])
    count = 0
    for trip in triples:
        if len(trip) != 3:
            raise CrossCheckFailed(f"pants piece with {len(trip)} boundary curves")
        if 2 * max(trip) == sum(trip):
            count += 1
    return count


def classify_orbit_closure(q):
    """Run the identification criteria on the family of the surface q.

    q must be an exact-mode surface; the verdict depends only on its
    configuration and spine assignment.  The rank certificate is
    computed twice, by exact linear algebra on the double cover and by
    the counting formula, and the two must agree; a mismatch is a bug,
    not an input error.
    """
    if q.mode != EXACT:
        raise ModeMismatch(
            "orbit-closure criteria need exact arithmetic; build the "
            "surface in exact mode"
        )
    cfg = q.cfg
    stratum = identify_stratum(q)
    cover = holonomy_double_cover(q)
    rank_lb = rank_lower_bound(cover, cfg)
    n_co = sum(1 for graph in q.sa.graphs if co_orientable(graph))
    delta_jo = 1 if stratum.epsilon == 1 else 0
    formula = cfg.n_curves - n_co + delta_jo
    if rank_lb != formula:
        raise CrossCheckFailed(
            f"lifted-class rank {rank_lb}, counting formula gives {formula}"
        )
    threshold = high_rank_threshold(cfg.genus, stratum.n_sing_odd)
    certificate = {
        "rank_lb": rank_lb,
        "threshold": threshold,
        "N_co": n_co,
        "delta_jo": delta_jo,
    }
    if is_pants_decomposition(cfg):
        certificate["nabla"] = nabla_count(cfg, q.base_lengths)

    if stratum.epsilon == -1:
        if rank_lb >= threshold and stratum.n_sing_odd >= 6:
            return OrbitClosureVerdict(
                FULL_STRATUM,
                stratum,
                certificate,
                limit_label=f"MSV on {stratum}",
            )
        return OrbitClosureVerdict(
            INCONCLUSIVE,
            stratum,
            certificate,
            reasons=(
                f"rank lower bound {rank_lb} does not clear the "
                f"high-rank threshold {threshold}",
            ),
        )

    # Orientable case: the curve classes span an isotropic subspace of
    # the surface homology, so the rank bound never exceeds the genus
    # and equality is the only decisive outcome.
    if rank_lb > cfg.genus:
        raise CrossCheckFailed(
            f"lifted-class rank {rank_lb} exceeds the genus {cfg.genus}")
    if rank_lb == cfg.genus:
        involution = hyperelliptic_involution_search(q)
        if involution is not None:
            return OrbitClosureVerdict(
                HYPERELLIPTIC,
                stratum,
                certificate,
                limit_label=f"MSV on hyperelliptic locus in {stratum}",
            )
        return OrbitClosureVerdict(
            FULL_STRATUM,
            stratum,
            certificate,
            limit_label=f"MSV on {stratum}",
        )
    return OrbitClosureVerdict(
        INCONCLUSIVE,
        stratum,
        certificate,
        reasons=(
            f"rank lower bound {rank_lb} is below the genus {cfg.genus}",
        ),
    )


def classify_pants_torus(cfg, lengths, heights):
    """Specialized verdict for pants decompositions.

    Builds the spines from the boundary triples, delegates to the
    general classifier, and pins down the expected stratum and limit
    label in the regimes the criteria actually decide.  Genus 2 is
    returned inconclusive across the board: the decisive counts start
    at genus 3 and we do not guess below that.
    """
    if not is_pants_decomposition(cfg):
        raise NotPants("expected a pants decomposition")
    exact = [_exact_number(x, f"length of curve {i}") for i, x in enumerate(lengths)]
    q = build_surface(cfg, pants_assignment(cfg, exact), heights)
    verdict = classify_orbit_closure(q)
    nabla = verdict.certificate["nabla"]
    g = cfg.genus

    if g == 2:
        if verdict.kind == INCONCLUSIVE:
            return verdict
        return replace(
            verdict,
            kind=INCONCLUSIVE,
            limit_label="",
            reasons=("the pants identification criteria start at genus 3",),
        )

    if nabla <= 2 * g - 5:
        expected = StratumLabel(
            g, (1,) * (4 * g - 4 - 2 * nabla) + (2,) * nabla, -1
        )
        _expect(verdict, FULL_STRATUM, expected)
        label = "mu_Mirz/b_g" if nabla == 0 else "MSV, singular to mu_Mirz"
        return replace(verdict, limit_label=label)
    if nabla == 2 * g - 2 and verdict.stratum.epsilon == 1:
        _expect(verdict, FULL_STRATUM, StratumLabel(g, (2,) * (2 * g - 2), 1))
    return verdict


def _expect(verdict, kind, stratum):
    """Raise CrossCheckFailed unless the verdict is the pinned one."""
    if verdict.kind != kind or verdict.stratum != stratum:
        raise CrossCheckFailed(
            f"pants verdict {verdict.kind} on {verdict.stratum}, "
            f"the counts pin {kind} on {stratum}"
        )


def hyperelliptic_involution_search(q):
    """Look for a curve-reversing involution of the presentation of q.

    The candidate is an involution of the disjoint spine graphs,
    commuting with the rotation and edge pairings and preserving
    lengths, that swaps the two boundary faces of every curve (the
    cylinder rotation by half a turn reverses every core circle).  A
    candidate only counts if the quotient is a sphere, which we check
    by the fixed-point census: two fixed points on each core plus the
    fixed vertices and inverted edges of self-mapped pieces must total
    2g + 2.

    Pants decompositions are refused outright: reversing all 3g - 3
    cores needs 2(3g - 3) fixed points, above the 2g + 2 cap once
    g >= 3, and at genus 2 the two outcomes the search would separate
    coincide anyway.
    """
    cfg, sa = q.cfg, q.sa
    if is_pants_decomposition(cfg):
        return None
    n_pieces = len(cfg.pieces)
    if n_pieces > _SEARCH_PIECE_LIMIT:
        raise SearchBudgetExceeded(
            f"{n_pieces} pieces exceed the search limit {_SEARCH_PIECE_LIMIT}"
        )

    # The two boundary faces of each curve, as (piece, face index).
    partner = {}
    for a, b in q.glued_faces:
        partner[a] = b
        partner[b] = a

    one = Fraction(1)
    budget = [_SEARCH_NODE_LIMIT]

    def faces_ok(p, t, iso):
        """Every face of piece p must map to its curve partner's face."""
        g_p = sa.graphs[p]
        g_t = sa.graphs[t]
        for f in range(len(g_p.faces())):
            h = g_p.faces()[f][0]
            img_face = g_t.face_of(iso[h])
            if partner[(p, f)] != (t, img_face):
                return False
        return True

    def census(assignment):
        # Every cylinder is rotated onto itself, giving two fixed
        # points on its middle circle; self-mapped pieces add their
        # fixed spine vertices and inverted edges.
        fixed = 2 * cfg.n_curves
        for p, (t, iso) in assignment.items():
            if t != p:
                continue
            graph = sa.graphs[p]
            for orbit in graph.vertices():
                if iso[orbit[0]] in orbit:
                    fixed += 1
            for h, _ in graph.edges():
                if iso[h] == graph.iota[h]:
                    fixed += 1
        # Any involution of a closed oriented genus-g surface with
        # isolated fixed points has 2g + 2 - 4g' of them, g' >= 0 the
        # quotient genus.
        if fixed > 2 * cfg.genus + 2 or fixed % 4 != (2 * cfg.genus + 2) % 4:
            raise CrossCheckFailed(
                f"{fixed} fixed points on a genus-{cfg.genus} involution")
        return fixed

    def extend(assignment):
        unassigned = [p for p in range(n_pieces) if p not in assignment]
        if not unassigned:
            if census(assignment) == 2 * cfg.genus + 2:
                return {
                    (p, h): (t, iso[h])
                    for p, (t, iso) in assignment.items()
                    for h in range(sa.graphs[p].n_half_edges)
                }
            return None
        p = unassigned[0]
        for t in unassigned:
            if cfg.pieces[p] != cfg.pieces[t]:
                continue
            for iso in _ribbon_isos(sa.graphs[p], sa.graphs[t], one, one, EXACT):
                budget[0] -= 1
                if budget[0] < 0:
                    raise SearchBudgetExceeded(
                        "involution search budget exhausted"
                    )
                if not faces_ok(p, t, iso):
                    continue
                if p == t:
                    if any(iso[iso[h]] != h for h in iso):
                        continue
                    assignment[p] = (p, iso)
                else:
                    # The face condition for the way back follows from
                    # this direction because partner is an involution.
                    inverse = {v: k for k, v in iso.items()}
                    assignment[p] = (t, iso)
                    assignment[t] = (p, inverse)
                found = extend(assignment)
                if found is not None:
                    return found
                del assignment[p]
                if t != p:
                    del assignment[t]
        return None

    return extend({})
