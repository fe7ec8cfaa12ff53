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
from .errors import BadPartition, CrossCheckFailed, ModeMismatch, NotPants
from .ribbon import (
    co_orientable,
    cone_orders,
    pants_assignment,
)
from .surface import build_surface, EXACT, _exact_number, _ribbon_isos
from .topology import _is_pants, is_pants_decomposition

FULL_STRATUM = "FullStratumComponent"
HYPERELLIPTIC = "HyperellipticCandidate"
INCONCLUSIVE = "Inconclusive"


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
    _, epsilon = q.orientability
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
    return _nabla(cfg, lengths)


def _nabla(cfg, lengths):
    """nabla_count on a configuration known to be a valid pants decomposition."""
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
    not an input error.  The configuration of q is taken as validated,
    as parse_spec leaves it, and is not checked again.
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
    if _is_pants(cfg):
        certificate["nabla"] = _nabla(cfg, q.base_lengths)

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
    return _pants_torus_verdict(cfg, lengths, heights)


def _pants_torus_verdict(cfg, lengths, heights):
    """classify_pants_torus on a configuration known to be a valid pants
    decomposition, such as the one of a parsed spec."""
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
    2g + 2.  The answer maps (piece, half-edge) to its image, or is
    None when no such involution exists.

    Swapping faces forces the image of each piece: every face of p
    must land on its curve partner's face, so p goes to the piece t
    across its first face, and all of p's faces must face t.  A piece
    mapped to itself therefore has all its curves glued to itself and
    is the whole surface.  With several pieces, each pair p != t takes
    its first matching ribbon iso and the inverse, and only the cores
    are fixed.  A single piece tries its matching involutive isos in
    turn.  The census check runs on every complete candidate, and the
    first that totals 2g + 2 is the answer, the one a depth-first
    search over all piece maps would find.  There are at most
    n_half_edges isos per pair of pieces, so the search is polynomial.

    Pants decompositions are refused outright: reversing all 3g - 3
    cores needs 2(3g - 3) fixed points, above the 2g + 2 cap once
    g >= 3, and at genus 2 the two outcomes the search would separate
    coincide anyway.
    """
    cfg, sa = q.cfg, q.sa
    if _is_pants(cfg):
        return None

    # The two boundary faces of each curve, as (piece, face index).
    partner = {}
    for a, b in q.glued_faces:
        partner[a] = b
        partner[b] = a

    one = Fraction(1)

    def matching_isos(p, t):
        g_t = sa.graphs[t]
        return [
            iso for iso in _ribbon_isos(sa.graphs[p], g_t, one, one, EXACT)
            if all(
                partner[(p, f)] == (t, g_t.face_of(iso[face[0]]))
                for f, face in enumerate(sa.graphs[p].faces())
            )
        ]

    if len(sa.graphs) == 1:
        graph = sa.graphs[0]
        candidates = [
            (_fixed_points(graph, iso), {0: (0, iso)})
            for iso in matching_isos(0, 0)
            if all(iso[iso[h]] == h for h in iso)
        ]
    else:
        chosen = {}
        for p in range(len(sa.graphs)):
            if p in chosen:
                continue
            t = partner[(p, 0)][0]
            # A matching iso would make t face p and share p's type, so
            # these refuse early what matching_isos would refuse anyway.
            if partner[(t, 0)][0] != p or cfg.pieces[p] != cfg.pieces[t]:
                return None
            isos = matching_isos(p, t)
            if not isos:
                return None
            # The face condition for the way back follows from this
            # direction because partner is an involution.
            chosen[p] = (t, isos[0])
            chosen[t] = (p, {v: k for k, v in isos[0].items()})
        candidates = [(0, chosen)]

    # Every cylinder is rotated onto itself, giving two fixed points on
    # its middle circle.  Any involution of a closed oriented genus-g
    # surface with isolated fixed points has 2g + 2 - 4g' of them, g'
    # >= 0 the quotient genus.
    cap = 2 * cfg.genus + 2
    found = None
    for extra, assignment in candidates:
        fixed = 2 * cfg.n_curves + extra
        if fixed > cap or fixed % 4 != cap % 4:
            raise CrossCheckFailed(
                f"{fixed} fixed points on a genus-{cfg.genus} involution")
        if fixed == cap and found is None:
            found = assignment
    if found is None:
        return None
    return {
        (p, h): (t, iso[h])
        for p, (t, iso) in found.items()
        for h in range(sa.graphs[p].n_half_edges)
    }


def _fixed_points(graph, iso):
    """Fixed spine vertices plus inverted edges of a self-map of a piece."""
    vertices = sum(1 for orbit in graph.vertices() if iso[orbit[0]] in orbit)
    edges = sum(1 for h, _ in graph.edges() if iso[h] == graph.iota[h])
    return vertices + edges
