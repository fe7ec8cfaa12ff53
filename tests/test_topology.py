from __future__ import annotations

import hashlib
import itertools

import pytest

from ttlab.errors import InvalidConfig, OutOfRange
from ttlab.topology import (
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
    assert any(code == "connected" for code, _ in report.violations)


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


def test_enumeration_is_deterministic():
    first = enumerate_pants_configs(3)
    second = enumerate_pants_configs(3)
    assert first == second


def test_enumeration_range_check():
    with pytest.raises(OutOfRange):
        enumerate_pants_configs(1)
    with pytest.raises(OutOfRange):
        enumerate_pants_configs(6)
