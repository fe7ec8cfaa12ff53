"""Multicurve configurations on a closed surface.

A configuration records the combinatorics of a multicurve: the genus of
the ambient surface, the complementary pieces with their genera and
boundary slots, and which pairs of slots are glued along each curve.
There is no embedded-curve bookkeeping; two configurations are the same
exactly when they are combinatorially isomorphic.

The module also holds the one undirected graph search of the package,
a breadth-first spanning forest (`_spanning_forest`): validation runs
it on the pieces; `ribbon` checks with it that a graph is connected,
two-colours faces with it, and carries an isomorphism along one of its
trees; and the double cover takes its trees and cotrees from it.
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
    pieces: tuple
    gluing: tuple  # tuple of ((p, s), (p, s)) pairs, one per curve

    @property
    def n_curves(self) -> int:
        return len(self.gluing)


def make_config(genus, pieces, gluing):
    """Build a MulticurveConfig from plain lists.

    pieces: list of (genus, n_slots); gluing: list of ((p,s),(p,s)).
    """
    return MulticurveConfig(
        genus=genus,
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

    # connectivity of the piece adjacency graph: one tree spans it
    if cfg.pieces and report.ok:
        adjacent = [[] for _ in cfg.pieces]
        for ci, ((pa, _), (pb, _)) in enumerate(cfg.gluing):
            adjacent[pa].append((ci, pb))
            adjacent[pb].append((ci, pa))
        if len(_spanning_forest(adjacent)) != len(cfg.pieces) - 1:
            report.add("connected", "cut surface is disconnected")
    return report


def _spanning_forest(adjacent):
    """Breadth-first spanning forest of a graph given as adjacency lists
    of (edge, neighbour) pairs: (node, parent, edge) in visit order."""
    seen = [False] * len(adjacent)
    forest = []
    for root in range(len(adjacent)):
        if not seen[root]:
            seen[root] = True
            queue = [root]
            for v in queue:
                for r, w in adjacent[v]:
                    if not seen[w]:
                        seen[w] = True
                        forest.append((w, v, r))
                        queue.append(w)
    return forest


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
#
# The catalog lists each class once, as its canonical form: the
# lexicographically least sorted edge list over all relabelings of the
# vertices.  Edge lists are generated in lexicographic order, row by row
# (row v holds the edges (v, w) with w >= v), so the catalog is the
# sequence of generated lists that are canonical, an orderly generation
# in the sense of Read (1978) and McKay (1998).  Two facts prune the
# generation tree without losing a canonical list:
#
# - In the canonical form of a connected multigraph every vertex k > 0
#   has a neighbour below k, and the vertices first appear, as the larger
#   end of an edge, in increasing order: otherwise swapping two labels
#   would lower the list.  So an edge (v, w) names w at most one past the
#   largest vertex seen so far, and row v starts only once v has been
#   seen.  Every generated list is therefore connected.
# - A relabeling that gives the smallest labels to vertices with all
#   three edges fixes the first rows of the relabeled list, whatever
#   edges come later.  So each time a row completes, the prefix is
#   dropped when such rows sort below it: no completion of it can be
#   canonical (`_beaten`).  By the first fact the canonical labeling is
#   breadth first, so only breadth-first relabelings are tried; at a
#   leaf, where every vertex has its three edges, the test is exact.


def _beaten(edges, adj, degrees):
    """True when a relabeling sorts below every completion of edges.

    edges is a sorted prefix, and adj and degrees are its adjacency lists
    (a loop listed once) and vertex degrees.  A relabeling is built
    breadth first: the root takes label 0, and row i hands the next
    labels to the unlabeled neighbours of the vertex labeled i, in every
    order.  Row i of the relabeled list is then fixed, provided that
    vertex has all three edges, and it is compared with the same
    positions of the prefix: a smaller row wins, a larger one closes the
    branch, an equal one goes on to row i + 1.
    """
    n = len(adj)

    def expand(label, order, i, pos):
        # rows 0..i-1 of the relabeled list equal edges[:pos]
        if i == len(order) or degrees[order[i]] < 3:
            return False
        x = order[i]
        children = []
        for y in adj[x]:
            if label[y] < 0 and y not in children:
                children.append(y)
        for perm in itertools.permutations(children):
            for k, y in enumerate(perm):
                label[y] = len(order) + k
            row = [(i, u) for u in sorted(label[y] for y in adj[x]
                                          if label[y] >= i)]
            # the rows hold known edges, so they never run past the prefix
            end = pos + len(row)
            if row == edges[pos:end]:
                won = expand(label, order + list(perm), i + 1, end)
            else:
                won = row < edges[pos:end]
            for y in perm:
                label[y] = -1
            if won:
                return True
        return False

    for root in range(n):
        if degrees[root] == 3:
            label = [-1] * n
            label[root] = 0
            if expand(label, [root], 0, 0):
                return True
    return False


def _cubic_multigraphs(n_vertices):
    """All connected 3-regular multigraphs on n_vertices, up to isomorphism.

    Each class appears as its canonical form, and the catalog is in
    lexicographic order (see the comment above).  A loop contributes 2
    to its vertex degree.
    """
    n = n_vertices
    catalog = []
    edges = []
    adj = [[] for _ in range(n)]
    degrees = [0] * n

    def extend(v, min_w, seen):
        # v is the first vertex short of degree 3 and row v continues
        # with (v, w), w >= min_w >= v; seen is the largest vertex named
        for w in range(min_w, min(seen + 2, n)):
            need = 2 if v == w else 1
            if degrees[v] + need > 3 or (v != w and degrees[w] == 3):
                continue
            edges.append((v, w))
            adj[v].append(w)
            degrees[v] += need
            if v != w:
                adj[w].append(v)
                degrees[w] += 1
            now_seen = max(seen, w)
            if degrees[v] < 3:
                extend(v, w, now_seen)
            else:
                nxt = next((u for u in range(v + 1, n) if degrees[u] < 3), n)
                if nxt == n:
                    if not _beaten(edges, adj, degrees):
                        catalog.append(list(edges))
                # row nxt may start only once nxt has been named
                elif nxt <= now_seen and not _beaten(edges, adj, degrees):
                    extend(nxt, nxt, now_seen)
            edges.pop()
            adj[v].pop()
            degrees[v] -= need
            if v != w:
                adj[w].pop()
                degrees[w] -= 1

    extend(0, 0, 0)
    return catalog


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
