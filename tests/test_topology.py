from __future__ import annotations

import hashlib
import itertools

import pytest

from ttlab import topology
from ttlab.errors import InvalidConfig, OutOfRange
from ttlab.topology import (
    ComplementPiece,
    MulticurveConfig,
    enumerate_pants_configs,
    is_pants_decomposition,
    make_config,
    validate_config,
)

TWO_PANTS = make_config(
    genus=2,
    pieces=[(0, 3), (0, 3)],
    gluing=[((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))],
)

SEPARATING = make_config(
    genus=2,
    pieces=[(0, 3), (0, 3)],
    gluing=[((0, 0), (0, 1)), ((0, 2), (1, 2)), ((1, 0), (1, 1))],
)


def test_two_pants_config_is_valid():
    report = validate_config(TWO_PANTS)
    assert report.ok
    assert str(report) == "OK"


def test_unglued_slot_is_reported():
    cfg = make_config(
        genus=2,
        pieces=[(0, 3), (0, 3)],
        gluing=[((0, 0), (1, 0)), ((0, 1), (1, 1))],
    )
    report = validate_config(cfg)
    assert not report.ok
    codes = {code for code, _ in report.violations}
    assert "slot" in codes


def test_euler_characteristic_mismatch_is_reported():
    cfg = make_config(genus=3, pieces=[(0, 3), (0, 3)],
                      gluing=[((0, 0), (1, 0)), ((0, 1), (1, 1)),
                              ((0, 2), (1, 2))])
    report = validate_config(cfg)
    assert any(code == "euler" for code, _ in report.violations)


def test_double_used_slot_is_reported():
    cfg = make_config(
        genus=2,
        pieces=[(0, 3), (0, 3)],
        gluing=[((0, 0), (1, 0)), ((0, 0), (1, 1)), ((0, 2), (1, 2))],
    )
    report = validate_config(cfg)
    assert not report.ok


def test_disconnected_config_is_reported():
    cfg = make_config(
        genus=3,
        pieces=[(1, 2), (1, 2)],
        gluing=[((0, 0), (0, 1)), ((1, 0), (1, 1))],
    )
    report = validate_config(cfg)
    assert report.violations == [("connected", "cut surface is disconnected")]


def violations(pieces, gluing, genus=2):
    return validate_config(MulticurveConfig(
        genus, tuple(ComplementPiece(g, b) for g, b in pieces), tuple(gluing)
    )).violations


def test_malformed_gluings_and_pieces_are_reported():
    pants = [(0, 3), (0, 3)]
    glued = [((0, 1), (1, 1)), ((0, 2), (1, 2))]
    assert ("gluing", "curve 0 does not have exactly 2 sides") in violations(
        pants, [((0, 0),)] + glued)
    assert ("gluing", "curve 0 references missing piece 2") in violations(
        pants, [((0, 0), (2, 0))] + glued)
    assert ("gluing", "curve 0 references missing slot 1.3") in violations(
        pants, [((0, 0), (1, 3))] + glued)
    found = violations([(-1, 3), (0, 1), (0, 2)], [])
    assert ("piece", "piece 0 has negative genus") in found
    assert ("piece", "piece 1 is a disk or annulus (chi >= 0)") in found
    assert ("piece", "piece 2 is a disk or annulus (chi >= 0)") in found


def test_is_pants_decomposition():
    assert is_pants_decomposition(TWO_PANTS)
    assert is_pants_decomposition(SEPARATING)
    one_handle = make_config(genus=2, pieces=[(1, 2)],
                             gluing=[((0, 0), (0, 1))])
    assert validate_config(one_handle).ok
    assert not is_pants_decomposition(one_handle)


def test_is_pants_decomposition_rejects_invalid():
    bad = make_config(genus=2, pieces=[(0, 3)], gluing=[((0, 0), (0, 1))])
    with pytest.raises(InvalidConfig):
        is_pants_decomposition(bad)


def test_pants_checks_survive_optimize_mode():
    # under -O every assert is gone; with validation waved through, the
    # pants checks must still refuse what validation would have caught
    from test_cover import run_optimized  # test_cover imports this module

    out = run_optimized("""
        import ttlab.topology as topology
        from ttlab.errors import CrossCheckFailed

        assert False, "asserts are on"

        def attempt(what, call, *args):
            try:
                call(*args)
            except CrossCheckFailed as exc:
                print(what, exc)

        one_curve = topology.make_config(2, [(0, 3)], [((0, 0), (0, 1))])
        topology.validate_config = lambda cfg: topology.ValidationReport()
        attempt("count:", topology.is_pants_decomposition, one_curve)
        real_graphs = topology._cubic_multigraphs
        topology._cubic_multigraphs = lambda n: [[(0, 1)]]
        attempt("slots:", topology.enumerate_pants_configs, 2)
        topology._cubic_multigraphs = real_graphs
        topology.validate_config = lambda cfg: topology.ValidationReport(
            [("euler", "broken")])
        attempt("valid:", topology.enumerate_pants_configs, 2)
    """)
    assert "count: 1 curves" in out
    assert "slots: slot counts" in out
    assert "valid: enumerated configuration invalid" in out


# --- enumeration --------------------------------------------------------------


def _oracle_pants_count(genus):
    """Independent brute force: all pairings of labeled slots, then group
    by a freshly written canonical form of the resulting multigraph."""
    n_pieces = 2 * genus - 2
    slots = [(p, s) for p in range(n_pieces) for s in range(3)]

    def pairings(items):
        if not items:
            yield []
            return
        first = items[0]
        for k in range(1, len(items)):
            rest = items[1:k] + items[k + 1:]
            for sub in pairings(rest):
                yield [(first, items[k])] + sub

    def canon(edges):
        best = None
        for perm in itertools.permutations(range(n_pieces)):
            key = tuple(sorted(
                (min(perm[a], perm[b]), max(perm[a], perm[b]))
                for a, b in edges))
            if best is None or key < best:
                best = key
        return best

    def connected(edges):
        reach = {0}
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                if (a in reach) != (b in reach):
                    reach.update((a, b))
                    changed = True
        return len(reach) == n_pieces

    classes = set()
    for matching in pairings(slots):
        edges = [(pa, pb) for (pa, _), (pb, _) in matching]
        if connected(edges):
            classes.add(canon(edges))
    return len(classes)


def test_genus_two_has_exactly_two_configs():
    configs = enumerate_pants_configs(2)
    assert len(configs) == 2
    assert len(configs) == _oracle_pants_count(2)


def test_genus_three_count_matches_brute_force():
    configs = enumerate_pants_configs(3)
    assert len(configs) == _oracle_pants_count(3)


# sha256 of repr([cfg.gluing for cfg in catalog]) for each genus.  The
# catalog order is public: ttlab pants --pairing indexes into it.
CATALOG_DIGESTS = {
    2: "afdd0f6f1fe8ba04cbb39ff12c06657159a5a2e2a7651b1a0c0d1ec0cf51120f",
    3: "c621a915da1940228f3e074175f7080348c5975686d3cfeddb8b26bb2ab31320",
    4: "d675237ace8c154704fc5758253bbd71f60e7debf5bc14275d71905c9e262809",
}


def test_enumerated_configs_are_valid_pants():
    for g in (2, 3, 4):
        catalog = enumerate_pants_configs(g)
        for cfg in catalog:
            assert validate_config(cfg).ok
            assert is_pants_decomposition(cfg)
            assert cfg.n_curves == 3 * g - 3
        gluings = repr([cfg.gluing for cfg in catalog]).encode()
        assert hashlib.sha256(gluings).hexdigest() == CATALOG_DIGESTS[g], g


# sha256 of the genus-5 catalog, taken after each of its 71 entries was
# checked to be its own brute-force canonical form (8! relabelings each,
# about 30 s, too slow to repeat here) and the entries were found sorted.
GENUS_FIVE_DIGEST = (
    "ac4862e8eed97a3c6ac0359a079fc179f8e114752793a098a5b47a2689f21e86")


def test_genus_five_catalog_is_valid_pants():
    catalog = enumerate_pants_configs(5)
    for cfg in catalog:
        assert validate_config(cfg).ok
        assert is_pants_decomposition(cfg)
        assert cfg.n_curves == 12
    gluings = repr([cfg.gluing for cfg in catalog]).encode()
    assert hashlib.sha256(gluings).hexdigest() == GENUS_FIVE_DIGEST


def test_catalog_sizes():
    # connected cubic multigraphs with loops on 2, 4, 6, 8 vertices
    # (OEIS A005967)
    sizes = [len(enumerate_pants_configs(g)) for g in (2, 3, 4, 5)]
    assert sizes == [2, 5, 17, 71]


# --- the brute force that the orderly catalog replaced, as its oracle ---------


def brute_force_canonical(edges, n_vertices):
    """Lexicographically least relabeling of a sorted edge multiset."""
    best = None
    for perm in itertools.permutations(range(n_vertices)):
        relabeled = sorted(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


def brute_force_catalog(n_vertices):
    """Every connected sorted cubic edge list, deduplicated by its
    brute-force canonical form; the first list of each class is kept,
    in the order of the forms."""
    by_canon = {}

    def connected(edges):
        reach = {0}
        for _ in range(n_vertices):
            for a, b in edges:
                if a in reach or b in reach:
                    reach.update((a, b))
        return len(reach) == n_vertices

    def extend(edges, degrees, min_edge):
        if all(d == 3 for d in degrees):
            if connected(edges):
                canon = tuple(brute_force_canonical(edges, n_vertices))
                by_canon.setdefault(canon, list(edges))
            return
        v = next(i for i, d in enumerate(degrees) if d < 3)
        for w in range(v, n_vertices):
            need = 2 if v == w else 1
            if (v, w) < min_edge or degrees[v] + need > 3:
                continue
            if v != w and degrees[w] == 3:
                continue
            degrees[v] += need
            if v != w:
                degrees[w] += 1
            edges.append((v, w))
            extend(edges, degrees, (v, w))
            edges.pop()
            degrees[v] -= need
            if v != w:
                degrees[w] -= 1

    extend([], [0] * n_vertices, (0, 0))
    return [by_canon[canon] for canon in sorted(by_canon)]


def test_catalog_matches_the_brute_force():
    for genus in (2, 3):
        n = 2 * genus - 2
        assert topology._cubic_multigraphs(n) == brute_force_catalog(n)


def test_every_entry_is_its_own_canonical_form():
    for genus in (2, 3, 4):
        n = 2 * genus - 2
        catalog = topology._cubic_multigraphs(n)
        assert catalog == sorted(catalog)
        for edges in catalog:
            assert brute_force_canonical(edges, n) == edges


def test_enumeration_is_deterministic():
    first = enumerate_pants_configs(3)
    second = enumerate_pants_configs(3)
    assert first == second


def test_enumeration_range_check():
    with pytest.raises(OutOfRange):
        enumerate_pants_configs(1)
    with pytest.raises(OutOfRange):
        enumerate_pants_configs(6)
