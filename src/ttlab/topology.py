"""Multicurve configurations on a closed surface.

A configuration records the combinatorics of a multicurve: the genus of
the ambient surface, the complementary pieces with their genera and
boundary slots, and which pairs of slots are glued along each curve.
There is no embedded-curve bookkeeping; two configurations are the same
exactly when they are combinatorially isomorphic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CrossCheckFailed, InvalidConfig, OutOfRange


@dataclass(frozen=True)
class ComplementPiece:
    """One component of the cut surface: genus plus ordered boundary slots."""

    genus: int
    n_slots: int

    @property
    def euler(self) -> int:
        return 2 - 2 * self.genus - self.n_slots


@dataclass(frozen=True)
class MulticurveConfig:
    """Multicurve combinatorics: pieces and slot gluings, one per curve.

    gluing[i] is the unordered pair of (piece index, slot index) glued
    along curve i; the two slots may lie on the same piece.
    """

    genus: int
    curve_names: tuple
    pieces: tuple
    gluing: tuple  # tuple of ((p, s), (p, s)) pairs, one per curve

    @property
    def n_curves(self) -> int:
        return len(self.gluing)


def make_config(genus, pieces, gluing, curve_names=None):
    """Build a MulticurveConfig from plain lists.

    pieces: list of (genus, n_slots); gluing: list of ((p,s),(p,s)).
    """
    if curve_names is None:
        curve_names = tuple(f"g{i}" for i in range(len(gluing)))
    return MulticurveConfig(
        genus=genus,
        curve_names=tuple(curve_names),
        pieces=tuple(ComplementPiece(g, b) for g, b in pieces),
        gluing=tuple((tuple(a), tuple(b)) for a, b in gluing),
    )


@dataclass
class ValidationReport:
    """Violations as data; an empty list means the configuration is valid."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code, detail):
        self.violations.append((code, detail))

    def __str__(self):
        if self.ok:
            return "OK"
        return "; ".join(f"{code}: {detail}" for code, detail in self.violations)


def validate_config(cfg: MulticurveConfig) -> ValidationReport:
    """Check every structural invariant; violations are reported, not raised."""
    report = ValidationReport()
    if cfg.genus < 2:
        report.add("genus", f"ambient genus {cfg.genus} < 2")
    if len(cfg.curve_names) != len(cfg.gluing):
        report.add("curves", "curve name count differs from gluing count")
    if len(set(cfg.curve_names)) != len(cfg.curve_names):
        report.add("curves", "duplicate curve names")

    slot_use = {}
    for ci, pair in enumerate(cfg.gluing):
        if len(pair) != 2:
            report.add("gluing", f"curve {ci} does not have exactly 2 sides")
            continue
        for p, s in pair:
            if not (0 <= p < len(cfg.pieces)):
                report.add("gluing", f"curve {ci} references missing piece {p}")
                continue
            if not (0 <= s < cfg.pieces[p].n_slots):
                report.add("gluing", f"curve {ci} references missing slot {p}.{s}")
                continue
            slot_use.setdefault((p, s), []).append(ci)
    for pi, piece in enumerate(cfg.pieces):
        if piece.genus < 0:
            report.add("piece", f"piece {pi} has negative genus")
        if piece.euler >= 0:
            report.add("piece", f"piece {pi} is a disk or annulus (chi >= 0)")
        if piece.n_slots > 2 * cfg.n_curves:
            # the curves cannot glue them all: say so once rather than
            # once per slot, which a slot count from a file can make
            # unbounded
            report.add("slot", f"piece {pi} has {piece.n_slots} slots, more "
                               f"than the {2 * cfg.n_curves} curve sides")
            continue
        for s in range(piece.n_slots):
            uses = slot_use.get((pi, s), [])
            if len(uses) == 0:
                report.add("slot", f"slot {pi}.{s} is unglued")
            elif len(uses) > 1:
                report.add("slot", f"slot {pi}.{s} used by curves {uses}")
    chi = sum(piece.euler for piece in cfg.pieces)
    if chi != 2 - 2 * cfg.genus:
        report.add("euler", f"sum chi(pieces) = {chi} != {2 - 2 * cfg.genus}")
    slots_total = sum(piece.n_slots for piece in cfg.pieces)
    if slots_total != 2 * cfg.n_curves:
        report.add("euler", f"{slots_total} slots for {cfg.n_curves} curves")

    # connectivity of the piece adjacency graph
    if cfg.pieces and report.ok:
        seen = {0}
        frontier = [0]
        adj = {i: set() for i in range(len(cfg.pieces))}
        for (pa, _), (pb, _) in cfg.gluing:
            adj[pa].add(pb)
            adj[pb].add(pa)
        while frontier:
            p = frontier.pop()
            for q in adj[p]:
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
        if len(seen) != len(cfg.pieces):
            report.add("connected", "cut surface is disconnected")
    return report


def is_pants_decomposition(cfg: MulticurveConfig) -> bool:
    """True iff every piece is a three-holed sphere.

    Raises InvalidConfig when cfg fails validate_config.
    """
    report = validate_config(cfg)
    if not report.ok:
        raise InvalidConfig(str(report))
    return _is_pants(cfg)


def _is_pants(cfg):
    """is_pants_decomposition for a configuration already validated,
    such as one from a parsed spec or a built surface."""
    if not all(p.genus == 0 and p.n_slots == 3 for p in cfg.pieces):
        return False
    if cfg.n_curves != 3 * cfg.genus - 3:
        raise CrossCheckFailed(
            f"{cfg.n_curves} curves cut a genus-{cfg.genus} surface into "
            "pants; a pants decomposition has 3g - 3")
    return True


# --- enumeration of pants configurations ------------------------------------
#
# A pants decomposition of a genus-g surface is a connected 3-regular
# multigraph (loops allowed) on 2g-2 vertices: vertices are pants, edges
# are curves.  Slots on a pair of pants are symmetric, so configurations
# up to relabeling are exactly multigraphs up to isomorphism.


def _canonical_edges(edges, n_vertices):
    """Lexicographically least relabeling of a sorted edge multiset."""
    best = None
    for perm in itertools.permutations(range(n_vertices)):
        relabeled = sorted(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges
        )
        if best is None or relabeled < best:
            best = relabeled
    return tuple(best)


def _connected(edges, n_vertices):
    seen = {0}
    frontier = [0]
    adj = {i: set() for i in range(n_vertices)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n_vertices


def _cubic_multigraphs(n_vertices):
    """All connected 3-regular multigraphs on n_vertices, up to isomorphism.

    Backtracking over non-decreasing edge lists; a loop contributes 2 to
    its vertex degree.  Deduplication by canonical relabeling, and the
    catalog is ordered by that canonical form: the first edge list found
    in each class is returned, in the order of its class's form.
    """
    by_canon = {}

    def extend(edges, degrees, min_edge):
        if all(d == 3 for d in degrees):
            if _connected(edges, n_vertices):
                canon = _canonical_edges(edges, n_vertices)
                if canon not in by_canon:
                    by_canon[canon] = list(edges)
            return
        # first vertex still missing degree
        v = next(i for i, d in enumerate(degrees) if d < 3)
        for w in range(n_vertices):
            edge = (min(v, w), max(v, w))
            if edge < min_edge:
                continue
            need = 2 if v == w else 1
            if degrees[v] + need > 3:
                continue
            if v != w and degrees[w] + 1 > 3:
                continue
            degrees[v] += need
            if v != w:
                degrees[w] += 1
            edges.append(edge)
            extend(edges, degrees, edge)
            edges.pop()
            degrees[v] -= need
            if v != w:
                degrees[w] -= 1

    extend([], [0] * n_vertices, (0, 0))
    return [by_canon[canon] for canon in sorted(by_canon)]


def _multigraph_to_config(genus, edges):
    """Turn a cubic multigraph into a MulticurveConfig with explicit slots."""
    n_vertices = 2 * genus - 2
    next_slot = [0] * n_vertices

    def take_slot(v):
        s = next_slot[v]
        next_slot[v] += 1
        return (v, s)

    gluing = []
    for a, b in edges:
        gluing.append((take_slot(a), take_slot(b)))
    if next_slot != [3] * n_vertices:
        raise CrossCheckFailed(f"slot counts {next_slot} on a cubic multigraph")
    pieces = [(0, 3)] * n_vertices
    return make_config(genus, pieces, gluing)


def enumerate_pants_configs(genus: int):
    """All pants-decomposition configurations up to relabeling, 2 <= g <= 5."""
    if not 2 <= genus <= 5:
        raise OutOfRange(f"genus {genus} outside [2, 5]")
    configs = [
        _multigraph_to_config(genus, edges)
        for edges in _cubic_multigraphs(2 * genus - 2)
    ]
    for cfg in configs:
        report = validate_config(cfg)
        if not report.ok:
            raise CrossCheckFailed(f"enumerated configuration invalid: {report}")
    return configs
