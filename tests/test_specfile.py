import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ttlab.errors import (
    InvalidAssignment,
    ModeMismatch,
    ParseError,
    ZeroLengthForced,
)
from ttlab.rng import CounterRandom
from ttlab.ribbon import SpineAssignment, pants_spine
from ttlab.specfile import (
    TorusSpecFile,
    _rational,
    _strong_components,
    forced_zero_lengths,
    parse_spec,
    spec_from_surface,
    validate_spec,
    write_spec,
)
from ttlab.surface import EXACT, NUMERIC, geodesic_flow, horocycle_flow

from oracles import ref_feasible_nonneg, unit_area
from test_acceptance import random_pants_cfg
from test_classify import plumbing_pair, plumbing_ring
from test_saddle import origami_surface
from test_topology import TWO_PANTS

F = Fraction

ORIGAMI_TEXT = """\
[surface]
genus = 2

[curves]
count = 1

[pieces]
0: genus = 1 slots = 2

[gluing]
0: (0, 0) (0, 1)

[ribbon 0]
vertex: 0 1 2 3 4 5
edge: 0 3 length 1
edge: 1 4 length 1
edge: 2 5 length 1
face->slot: 0 0
face->slot: 1 1

[heights]
0: 1

[twists]
0: 0

[options]
normalize = false
mode = exact
"""


def pants_assignment(trip0, trip1, slots1=(0, 1, 2)):
    """Two pants spines; slots1 permutes where piece 1's faces land."""
    graphs, maps = [], []
    for trip, slots in ((trip0, (0, 1, 2)), (trip1, slots1)):
        graph, order = pants_spine(*trip)
        graphs.append(graph)
        fts = [None] * 3
        for slot, f in zip(slots, order):
            fts[f] = slot
        maps.append(tuple(fts))
    return SpineAssignment(tuple(graphs), tuple(maps))


# --- round trips ----------------------------------------------------------------


def test_origami_spec_round_trips():
    spec = spec_from_surface(origami_surface(twist=0, mode=EXACT))
    text = write_spec(spec)
    assert text == ORIGAMI_TEXT
    assert write_spec(parse_spec(text)) == text


def test_parse_is_stable_under_reformatting():
    noisy = """\
# a reflowed copy: comments, blank lines, loose spacing, section order
[options]
mode   =   exact
[heights]
 0 :  1
[surface]
genus=2
[curves]
count = 1   # one cylinder
[pieces]
0:genus = 1 slots = 2
[gluing]
0: ( 0 , 0 )  ( 0 , 1 )
[ribbon 0]
vertex: 0 1 2 3 4 5
edge: 0 3 length 1
edge: 1 4 length 1
edge: 2 5 length 1
face->slot: 0 0
face->slot: 1 1
"""
    assert write_spec(parse_spec(noisy)) == ORIGAMI_TEXT


def test_missing_twists_default_to_zero():
    text = ORIGAMI_TEXT.replace("[twists]\n0: 0\n\n", "")
    spec = parse_spec(text)
    assert spec.twists == (F(0),)


def test_plumbing_spec_round_trips():
    cfg, sa = plumbing_pair(6)
    spec = TorusSpecFile(cfg, sa, (F(1),) * 6, (F(0), F(1, 2)) * 3)
    text = write_spec(spec)
    again = parse_spec(text)
    assert write_spec(again) == text
    assert again.heights == spec.heights
    assert again.twists == spec.twists


def test_rationals_survive_the_trip():
    q = origami_surface(twist=0, mode=EXACT)
    spec = spec_from_surface(geodesic_flow(q, F(7, 3)))
    again = parse_spec(write_spec(spec))
    assert again.heights == (F(3, 7),)
    assert again.sa.graphs[0].length_of(0) == F(7, 3)


# --- snapshots of flowed surfaces ------------------------------------------------


def test_snapshot_bakes_geodesic_scale():
    q = origami_surface(twist=0, mode=EXACT)
    spec = spec_from_surface(geodesic_flow(q, 2))
    assert spec.sa.graphs[0].length_of(0) == 2
    assert spec.heights == (F(1, 2),)
    q2 = spec.build()
    assert q2.length_of_curve(0) == 6
    assert q2.height_of_curve(0) == F(1, 2)


def test_snapshot_bakes_shear_into_twists():
    q = origami_surface(twist=0, mode=EXACT)
    spec = spec_from_surface(horocycle_flow(q, F(1, 2)))
    assert spec.twists == (F(1, 2),)
    assert spec.sa.graphs[0].length_of(0) == 1


def test_numeric_surface_cannot_be_written():
    q = origami_surface(twist=0.0, mode=NUMERIC)
    with pytest.raises(ModeMismatch):
        spec_from_surface(q)


# --- validation -----------------------------------------------------------------


def test_validate_reports_basic_facts():
    spec = parse_spec(ORIGAMI_TEXT)
    report = validate_spec(spec)
    assert report["ok"] is True
    assert report["genus"] == 2
    assert report["curves"] == 1
    assert report["lengths"] == (3,)
    assert report["area"] == 3


def test_validate_builds_normalized():
    text = ORIGAMI_TEXT.replace("normalize = false", "normalize = true")
    spec = parse_spec(text)
    assert spec.normalize
    assert unit_area(spec.build())


def test_mismatched_perimeters_stay_a_mismatch():
    # nothing is forced to zero here, so the plain mismatch surfaces
    sa = pants_assignment((3, 4, 5), (3, 4, 6))
    spec = TorusSpecFile(TWO_PANTS, sa, (F(1),) * 3, (F(0),) * 3)
    assert forced_zero_lengths(TWO_PANTS, sa) == ([], [])
    with pytest.raises(InvalidAssignment):
        validate_spec(spec)


def test_impossible_gluing_forces_an_edge_to_zero():
    # a theta pants against a dumbbell pants: the perimeter equations
    # collapse the dumbbell bar and one theta edge
    sa = pants_assignment((3, 4, 5), (4, 1, 1))
    curves, edges = forced_zero_lengths(TWO_PANTS, sa)
    assert curves == []
    assert edges == [(0, 2), (1, 2)]
    spec = TorusSpecFile(TWO_PANTS, sa, (F(1),) * 3, (F(0),) * 3)
    with pytest.raises(ZeroLengthForced):
        validate_spec(spec)


def test_impossible_gluing_can_force_a_whole_curve():
    # two dumbbells, each big face glued to a loop of the other: every
    # edge of the third curve's faces is forced, so the curve is too
    sa = pants_assignment((4, 1, 1), (4, 1, 1), slots1=(1, 0, 2))
    curves, _ = forced_zero_lengths(TWO_PANTS, sa)
    assert curves == [2]
    spec = TorusSpecFile(TWO_PANTS, sa, (F(1),) * 3, (F(0),) * 3)
    with pytest.raises(ZeroLengthForced, match="curve 2"):
        validate_spec(spec)


def per_edge_forced_zero_lengths(cfg, sa):
    """Reference for forced_zero_lengths: one feasibility probe per edge,
    asking for a solution in which that edge alone has length 1."""
    index = {}
    for p, graph in enumerate(sa.graphs):
        for h, _ in graph.edges():
            index[(p, h)] = len(index)

    def face_edges(p, s):
        cycle = sa.graphs[p].faces()[sa.slot_to_face(p, s)]
        return [(p, sa.graphs[p].edge_of(h)) for h in cycle]

    rows = []
    for a, b in cfg.gluing:
        row = [0] * len(index)
        for key in face_edges(*a):
            row[index[key]] += 1
        for key in face_edges(*b):
            row[index[key]] -= 1
        rows.append(row)
    edges = []
    for key, col in index.items():
        probe = [int(j == col) for j in range(len(index))]
        if ref_feasible_nonneg(rows + [probe], [0] * len(rows) + [1]) is None:
            edges.append(key)
    curves = [c for c, (end, _) in enumerate(cfg.gluing)
              if set(face_edges(*end)) <= set(edges)]
    return curves, edges


def random_pants_spines(cfg, rng):
    """Pants spines on random boundary triples, so most perimeters
    mismatch and some gluings force lengths to zero."""
    graphs, maps = [], []
    for _ in cfg.pieces:
        trip = [rng.randint(1, 4) for _ in range(3)]
        graph, order = pants_spine(*trip)
        slots = [0, 1, 2]
        rng.shuffle(slots)
        fts = [None] * 3
        for slot, f in zip(slots, order):
            fts[f] = slot
        graphs.append(graph)
        maps.append(tuple(fts))
    return SpineAssignment(tuple(graphs), tuple(maps))


@pytest.mark.parametrize("sa", [
    pants_assignment((3, 4, 5), (3, 4, 6)),
    pants_assignment((3, 4, 5), (4, 1, 1)),
    pants_assignment((4, 1, 1), (4, 1, 1), slots1=(1, 0, 2)),
])
def test_forced_zeros_match_the_per_edge_probes(sa):
    assert forced_zero_lengths(TWO_PANTS, sa) == (
        per_edge_forced_zero_lengths(TWO_PANTS, sa))


def test_forced_zeros_match_the_per_edge_probes_on_random_pants():
    rng = CounterRandom(7, "forced-zero")
    seen = {"forced": 0, "free": 0}
    for trial in range(24):
        cfg = random_pants_cfg(2 + trial % 2, rng)
        sa = random_pants_spines(cfg, rng)
        result = forced_zero_lengths(cfg, sa)
        assert result == per_edge_forced_zero_lengths(cfg, sa), trial
        seen["forced" if result[1] else "free"] += 1
    # both outcomes occur, so the comparison is not vacuous
    assert min(seen.values()) > 0, seen


def test_strong_components_match_the_per_edge_probes_on_bidirected_systems():
    # edge e with ends (c1, s1), (c2, s2) is the column s1 e_c1 + s2 e_c2;
    # node 2c + (s < 0) is the end (c, s), so node ^ 1 is (c, -s)
    rng = CounterRandom(8, "bidirected")
    seen = {"forced": 0, "free": 0}
    for _ in range(3000):
        n_curves, n_edges = rng.randint(1, 5), rng.randint(1, 8)
        ends = [[(rng.randint(0, n_curves - 1), rng.choice((1, -1)))
                 for _ in range(2)] for _ in range(n_edges)]
        rows = [[0] * n_edges for _ in range(n_curves)]
        arcs = []
        for e, ((c1, s1), (c2, s2)) in enumerate(ends):
            rows[c1][e] += s1
            rows[c2][e] += s2
            u, v = 2 * c1 + (s1 < 0), 2 * c2 + (s2 < 0)
            arcs += [(u ^ 1, v), (v ^ 1, u)]
        component = _strong_components(2 * n_curves, arcs)
        for e in range(n_edges):
            u, v = arcs[2 * e]
            probe = [int(j == e) for j in range(n_edges)]
            x = ref_feasible_nonneg(rows + [probe], [0] * n_curves + [1])
            assert (component[u] != component[v]) == (x is None), ends
            seen["forced" if x is None else "free"] += 1
    # both outcomes occur, so the comparison is not vacuous
    assert min(seen.values()) > 1000, seen


def test_forced_zeros_need_no_recursion():
    # 1,500 pieces: a recursive search would nest past the limit
    cfg, sa = plumbing_ring(1500)
    assert 2 * cfg.n_curves > sys.getrecursionlimit()
    assert forced_zero_lengths(cfg, sa) == ([], [])


# --- parse errors ---------------------------------------------------------------


def expect_parse_error(text, needle, lineno=None):
    with pytest.raises(ParseError) as info:
        parse_spec(text)
    assert needle in str(info.value)
    if lineno is not None:
        assert info.value.lineno == lineno


def test_error_lines_are_reported():
    bad = ORIGAMI_TEXT.replace("edge: 1 4 length 1", "edge: 1 4 length 1/0")
    expect_parse_error(bad, "rational", lineno=16)


def test_unknown_section():
    expect_parse_error("[cheese]\n", "unknown section", lineno=1)


def test_duplicate_section():
    expect_parse_error("[surface]\ngenus = 2\n[surface]\n", "duplicate",
                       lineno=3)


def test_content_before_any_section():
    expect_parse_error("genus = 2\n", "before the first section", lineno=1)


def test_unterminated_header():
    expect_parse_error("[surface\ngenus = 2\n", "unterminated", lineno=1)


@pytest.mark.parametrize("section", ["surface", "curves", "pieces",
                                     "gluing", "heights"])
def test_missing_sections(section):
    text = ORIGAMI_TEXT
    start = text.index(f"[{section}]")
    end = text.index("[", start + 1)
    expect_parse_error(text[:start] + text[end:], f"[{section}]")


def test_missing_ribbon_section():
    text = ORIGAMI_TEXT
    start = text.index("[ribbon 0]")
    end = text.index("[", start + 1)
    expect_parse_error(text[:start] + text[end:], "ribbon 0")


def test_invalid_configuration_is_a_parse_error():
    bad = ORIGAMI_TEXT.replace("genus = 2", "genus = 1", 1)
    expect_parse_error(bad, "ambient genus 1 < 2",
                       lineno=ORIGAMI_TEXT.splitlines().index("[gluing]") + 1)


def test_ribbon_for_nonexistent_piece():
    extra = "\n[ribbon 1]\nvertex: 0 1\nedge: 0 1 length 1\nface->slot: 0 0\n"
    expect_parse_error(ORIGAMI_TEXT + extra, "nonexistent piece")


@pytest.mark.parametrize(
    "old,new,needle",
    [
        ("genus = 2", "genus = -2", "genus"),
        ("count = 1", "count = one", "count"),
        ("0: genus = 1 slots = 2", "0: genus = 1", "slots"),
        ("0: (0, 0) (0, 1)", "0: (0, 0) (1, 1)", "piece 1 does not exist"),
        ("0: (0, 0) (0, 1)", "0: (0, 0) (0, 7)", "no slot 7"),
        ("0: (0, 0) (0, 1)", "0: (0, 0)", "(piece, slot)"),
        ("vertex: 0 1 2 3 4 5", "vertex: 0 1 2 3 4 4", "exactly once"),
        ("vertex: 0 1 2 3 4 5", "vertex: 0 1 2 3 4", "out of range"),
        ("edge: 2 5 length 1", "edge: 2 2 length 1", "distinct sides"),
        ("edge: 2 5 length 1", "edge: 2 5 size 1", "length"),
        ("edge: 2 5 length 1", "edge: 1 5 length 1", "paired twice"),
        ("face->slot: 1 1", "face->slot: 4 1", "out of range"),
        ("face->slot: 1 1", "face->slot: 0 1", "mapped twice"),
        ("face->slot: 0 0\n", "", "no slot"),
        ("0: 1\n\n[twists]", "0: 1\n1: 1\n\n[twists]", "out of range"),
        ("[twists]\n0: 0", "[twists]\n0: 0\n0: 1", "twice"),
        ("[twists]\n0: 0", "[twists]\n9: 0", "out of range"),
        ("normalize = false", "normalize = maybe", "true or false"),
        ("mode = exact", "mode = fuzzy", "exact or numeric"),
        ("mode = exact", "color = red", "unknown option"),
    ],
)
def test_malformed_lines(old, new, needle):
    assert old in ORIGAMI_TEXT
    expect_parse_error(ORIGAMI_TEXT.replace(old, new), needle)


# An integer field takes exactly the tokens \d+ matches, those for which
# str.isdecimal() holds; int() alone would also read signs and underscores.
@pytest.mark.parametrize("old,new", [
    ("genus = 2", "genus = \u00b2"),
    ("count = 1", "count = \u00b2"),
    ("[ribbon 0]", "[ribbon \u00b2]"),
    ("vertex: 0 1 2 3 4 5", "vertex: +0 1 2 3 4 5"),
    ("vertex: 0 1 2 3 4 5", "vertex: 0 1 2 3 4 0_5"),
    ("vertex: 0 1 2 3 4 5", "vertex: 0 1 2 3 4 -5"),
    ("edge: 2 5 length 1", "edge: +2 5 length 1"),
])
def test_integer_fields_take_decimal_digits_only(old, new):
    text = ORIGAMI_TEXT.replace(old, new)
    expect_parse_error(text, "", lineno=text.splitlines().index(new) + 1)


def test_integer_fields_read_any_decimal_digits():
    arabic = ORIGAMI_TEXT.replace("vertex: 0 1 2 3 4 5",
                                  "vertex: \u0660 1 2 3 4 \u0665")
    assert write_spec(parse_spec(arabic)) == write_spec(parse_spec(ORIGAMI_TEXT))


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                    reason="int() reads decimal strings of any length")
@pytest.mark.parametrize("old,new", [
    ("genus = 2", "genus = {N}"),
    ("count = 1", "count = {N}"),
    ("[ribbon 0]", "[ribbon {N}]"),
    ("0: genus = 1 slots = 2", "{N}: genus = 1 slots = 2"),
    ("0: genus = 1 slots = 2", "0: genus = {N} slots = 2"),
    ("0: (0, 0) (0, 1)", "0: (0, 0) (0, {N})"),
    ("vertex: 0 1 2 3 4 5", "vertex: 0 1 2 3 4 {N}"),
    ("edge: 2 5 length 1", "edge: 2 {N} length 1"),
    ("face->slot: 1 1", "face->slot: 1 {N}"),
    ("[heights]\n0: 1", "[heights]\n0: 1\n{N}: 1"),
    ("[twists]\n0: 0", "[twists]\n{N}: 0"),
], ids=lambda text: text.replace("{N}", "N"))
def test_an_integer_too_long_for_int_is_a_parse_error(old, new):
    long = "9" * (sys.get_int_max_str_digits() + 1)
    text = ORIGAMI_TEXT.replace(old, new.replace("{N}", long))
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if long in line)
    expect_parse_error(text, "too many digits", lineno=lineno)


# tokens for the rational reader: plain ASCII digits take the integer
# route; everything else, which int() alone might read differently, goes
# to Fraction(token)
RATIONAL_TOKENS = ("0", "007", "3", "17/6", "0/5", "-0", "+1", "-1", "1.5",
                   "1e400", "1_000", "\u0663", "3/\u0663", "\u00b2", "1 / 2",
                   "1/ 2", "3 ", "1/2/3", "/2", "2/", "", "2/0")


def reference_rational(token, lineno):
    """The reader as it was: Fraction(token) for every token."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"expected a rational number, got {token!r}")


def read_outcome(read, *args):
    try:
        value = read(*args)
    except ParseError as exc:
        return "error", str(exc), exc.lineno
    return "value", type(value), value


@pytest.mark.parametrize("token", RATIONAL_TOKENS)
def test_rational_reader_agrees_with_fraction(token):
    want = read_outcome(reference_rational, token, 7)
    assert read_outcome(_rational, token, 7) == want
    # as a height, where the line number comes from the file
    text = ORIGAMI_TEXT.replace("[heights]\n0: 1", f"[heights]\n0: {token}")
    lineno = text.splitlines().index(f"0: {token}") + 1

    def height(text):
        return parse_spec(text).heights[0]

    want = read_outcome(reference_rational, token.strip(), lineno)
    assert read_outcome(height, text) == want


def test_heights_must_cover_every_curve():
    expect_parse_error(ORIGAMI_TEXT.replace("[heights]\n0: 1", "[heights]"),
                       "height 0 is missing")


def test_bad_graph_is_a_parse_error():
    # pairing that leaves the graph disconnected from a single vertex is
    # fine; an edge of length zero is not
    expect_parse_error(
        ORIGAMI_TEXT.replace("edge: 0 3 length 1", "edge: 0 3 length 0"),
        "piece 0")


def test_the_readme_file_block_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## The file format"):]
    start = section.index("```\n") + len("```\n")
    block = section[start:section.index("```", start)]
    spec = parse_spec(block)
    assert write_spec(spec) == block
    assert validate_spec(spec)["genus"] == 2


# --- the one-pass reader ----------------------------------------------------


def test_lines_end_where_universal_newlines_end_them():
    import io

    from ttlab.specfile import _lines

    rng = CounterRandom(0, "line-breaks")
    pieces = ("a", " b ", "\n", "\r", "\r\n", "\n\r", "\v", "\f", "\x1c",
              "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "")
    for _ in range(300):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        # a text stream with newline=None reads \r\n and \r as \n
        assert _lines(text) == io.StringIO(text, newline=None).read().split("\n")


def test_a_line_break_inside_a_line_is_whitespace():
    # U+2028 and a form feed are whitespace inside a line, where
    # str.splitlines would have cut "genus =" from its value
    for brk in ("\u2028", "\f"):
        text = ORIGAMI_TEXT.replace("genus = 2", f"genus ={brk}2", 1)
        assert write_spec(parse_spec(text)) == write_spec(parse_spec(ORIGAMI_TEXT))
        late = text.replace("edge: 1 4 length 1", "edge: 1 4 length 1/0")
        expect_parse_error(late, "rational", lineno=16)


def fingerprint(spec):
    """Everything a parsed spec holds, graphs included, as plain data:
    the graphs have no equality of their own."""
    graphs = tuple((g.sigma, g.iota, tuple(g.lengths.items()), g.vertices(),
                    g.faces(), g.perimeters()) for g in spec.sa.graphs)
    return (write_spec(spec), spec.cfg, graphs, spec.sa.face_to_slot,
            spec.heights, spec.twists)


def parse_outcome(text):
    try:
        return fingerprint(parse_spec(text))
    except ParseError as exc:
        return "error", exc.lineno, str(exc)


def mutable_globals(module):
    """Module-level names of module that hold a mutable container, or a
    function that caches its answers."""
    import collections.abc
    import types

    found = []
    for name, value in vars(module).items():
        if isinstance(value, (types.ModuleType, type)) or name.startswith("__"):
            continue
        if hasattr(value, "cache_info"):
            found.append(name)
        elif isinstance(value, (collections.abc.MutableMapping,
                                collections.abc.MutableSequence,
                                collections.abc.MutableSet, bytearray)):
            found.append(name)
        elif isinstance(value, tuple) and any(
                not isinstance(v, (str, int, re.Pattern)) for v in value):
            found.append(name)
    return found


def test_the_reader_keeps_nothing_from_one_call_to_the_next():
    from ttlab import ribbon, specfile

    assert mutable_globals(specfile) == []
    assert mutable_globals(ribbon) == []
    a = ORIGAMI_TEXT
    b = write_spec(TorusSpecFile(*pants_assignment_spec()))
    bad = a.replace("edge: 2 5 length 1", "edge: 2 5 length 3/0")
    first = [parse_outcome(text) for text in (a, bad, b)]
    assert first[0] != first[2]
    assert [parse_outcome(text) for text in (b, a, bad)] == [first[2], first[0],
                                                             first[1]]


def test_the_scan_sees_a_planted_cache(monkeypatch):
    import functools

    from ttlab import specfile

    monkeypatch.setattr(specfile, "_SEEN", {}, raising=False)
    monkeypatch.setattr(specfile, "_cached", functools.cache(len), raising=False)
    monkeypatch.setattr(specfile, "_ROWS", ([],), raising=False)
    assert sorted(mutable_globals(specfile)) == ["_ROWS", "_SEEN", "_cached"]


def pants_assignment_spec():
    """(cfg, sa, heights, twists) of two pants with two spine shapes."""
    sa = pants_assignment((3, 4, 5), (3, 4, 9), slots1=(0, 2, 1))
    cfg = TWO_PANTS
    return cfg, sa, (F(1),) * 3, (F(1, 2), F(0), F(2))
