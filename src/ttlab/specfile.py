"""Torus-spec files: a plain-text format for complete surface data.

One file carries the multicurve combinatorics, the spine graph of every
complementary piece with its rational edge lengths, cylinder heights,
and optional twists and build options.  All numbers are exact
rationals, written as integers or p/q, so fixtures diff cleanly and
round-trip without loss.

parse_spec checks structure only: indices dense, sections complete,
graphs well formed.  Semantic checks (do the glued perimeters match,
do the heights build a surface) live in validate_spec, so a file that
describes an impossible gluing still parses and can be inspected.  The
writer emits a canonical form: write(parse(write(x))) == write(x).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from fractions import Fraction

from .errors import (
    InvalidAssignment,
    ModeMismatch,
    ParseError,
    TTLabError,
    ZeroLengthForced,
    _fmt,
)
from .linalg import feasible_nonneg
from .ribbon import MetricRibbonGraph, SpineAssignment, _check_pieces
from .surface import EXACT, NUMERIC, build_surface
from .topology import make_config, validate_config

_MODES = (EXACT, NUMERIC)


@dataclass(frozen=True)
class TorusSpecFile:
    """Parsed spec: configuration, spines, heights, twists, options."""

    cfg: object
    sa: object
    heights: tuple
    twists: tuple
    normalize: bool = False
    mode: str = EXACT

    def build(self):
        return build_surface(
            self.cfg,
            self.sa,
            list(self.heights),
            twists=list(self.twists),
            normalize=self.normalize,
            mode=self.mode,
        )


# --- parsing -------------------------------------------------------------------


_PLAIN_SECTIONS = ("surface", "curves", "pieces", "gluing",
                   "heights", "twists", "options")

# line patterns, compiled once; every integer field is \d+, which is
# what str.isdecimal() accepts and what int() reads
_INDEXED = re.compile(r"(\d+)\s*:\s*(.*)")
_VERTEX = re.compile(r"vertex:([\d\s]*)")
_EDGE = re.compile(r"edge:\s*(\d+)\s+(\d+)\s+length\s+(\S+)")
_FACE_SLOT = re.compile(r"face->slot:\s*(\d+)\s+(\d+)")
_PIECE = re.compile(r"genus\s*=\s*(\d+)\s+slots\s*=\s*(\d+)")
_GLUING = re.compile(
    r"\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)")
_TWIST = re.compile(r"(\d+)\s*:\s*(\S+)$")
_KEY_VALUE = re.compile(r"(\w+)\s*=\s*(\S+)")

# int() refuses a decimal string longer than sys.get_int_max_str_digits();
# in each try block that turns its ValueError into this message, int()
# is the only call that raises one
_TOO_LONG = "integer has too many digits"


def _split_sections(text):
    """Map section key -> (header line number, [(lineno, line), ...])."""
    sections = {}
    body = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] != "[":
            if body is None:
                raise ParseError(lineno, "content before the first section header")
            body.append((lineno, line))
            continue
        if line[-1] != "]":
            raise ParseError(lineno, "unterminated section header")
        name = line[1:-1].strip()
        parts = name.split()
        if len(parts) == 2 and parts[0] == "ribbon" and parts[1].isdecimal():
            try:
                key = ("ribbon", int(parts[1]))
            except ValueError:
                raise ParseError(lineno, _TOO_LONG)
        elif name in _PLAIN_SECTIONS:
            key = name
        else:
            raise ParseError(lineno, f"unknown section [{name}]")
        if key in sections:
            raise ParseError(lineno, f"duplicate section [{name}]")
        body = []
        sections[key] = (lineno, body)
    return sections


def _need(sections, key, shown=None):
    if key not in sections:
        raise ParseError(0, f"missing section [{shown or key}]")
    return sections[key]


def _rational(token, lineno):
    # int() also reads spaces, underscores, signs and non-ASCII digits,
    # so only plain ASCII digits, or two runs of them around one slash,
    # take the integer route; Fraction(token) reads everything else.
    try:
        if token.isascii():
            if token.isdigit():
                return Fraction(int(token))
            p, _, q = token.partition("/")
            if p.isdigit() and q.isdigit():
                return Fraction(int(p), int(q))
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"expected a rational number, got {token!r}")


def _single_int(header, lines, key):
    """The integer of a section that holds one `key = N` line."""
    if len(lines) != 1:
        raise ParseError(header, f"expected exactly one line: {key} = ...")
    lineno, line = lines[0]
    m = _KEY_VALUE.fullmatch(line)
    if not m or m[1] != key:
        raise ParseError(lineno, f"expected {key} = ...")
    if not m[2].isdecimal():
        raise ParseError(lineno, f"{key} must be a nonnegative integer")
    try:
        return int(m[2])
    except ValueError:
        raise ParseError(lineno, _TOO_LONG)


def _indexed(lines, what, n_expected=None):
    """Parse `i: rest` lines into a dense list, rejecting gaps and repeats."""
    found = {}
    for lineno, line in lines:
        m = _INDEXED.match(line)
        if not m:
            raise ParseError(lineno, f"expected an indexed line 'i: ...'")
        try:
            idx, rest = int(m[1]), m[2]
        except ValueError:
            raise ParseError(lineno, _TOO_LONG)
        if idx in found:
            raise ParseError(lineno, f"{what} {idx} defined twice")
        found[idx] = (lineno, rest.strip())
    n = n_expected if n_expected is not None else len(found)
    try:
        out = [found[i] for i in range(n)]
    except KeyError as exc:
        raise ParseError(0, f"{what} {exc.args[0]} is missing")
    if len(found) > n:
        extra = min(k for k in found if k >= n)
        raise ParseError(found[extra][0], f"{what} {extra} out of range")
    return out


def _parse_ribbon(lines, header, piece):
    cycles = []
    listed = []
    edge_pairs = []
    lengths = {}
    fts_pairs = []
    try:
        for lineno, line in lines:
            if line.startswith("vertex:"):
                m = _VERTEX.fullmatch(line)
                if not m:
                    raise ParseError(lineno, "vertex line needs half-edge numbers")
                cycle = tuple(map(int, m[1].split()))
                if not cycle:
                    raise ParseError(lineno, "empty vertex line")
                cycles.append(cycle)
                listed += cycle
            elif line.startswith("edge:"):
                m = _EDGE.fullmatch(line)
                if not m:
                    raise ParseError(lineno, "expected edge: h k length p/q")
                a, b, token = int(m[1]), int(m[2]), m[3]
                if a == b:
                    raise ParseError(lineno, "an edge needs two distinct sides")
                edge_pairs.append((lineno, a, b))
                lengths[min(a, b)] = _rational(token, lineno)
            elif line.startswith("face->slot:"):
                m = _FACE_SLOT.fullmatch(line)
                if not m:
                    raise ParseError(lineno, "expected face->slot: f s")
                fts_pairs.append((lineno, int(m[1]), int(m[2])))
            else:
                raise ParseError(lineno, f"unknown ribbon line {line!r}")
    except ValueError:
        raise ParseError(lineno, _TOO_LONG)

    n = len(listed)
    if sorted(listed) != list(range(n)):
        raise ParseError(header,
                         f"piece {piece}: vertex lines must cover each "
                         f"half-edge 0..{n - 1} exactly once")
    sigma = [None] * n
    for cycle in cycles:
        prev = cycle[-1]
        for h in cycle:
            sigma[prev] = h
            prev = h
    iota = [None] * n
    for lineno, a, b in edge_pairs:
        if a >= n or b >= n:
            raise ParseError(lineno, f"half-edge out of range 0..{n - 1}")
        if iota[a] is not None or iota[b] is not None:
            raise ParseError(lineno, "half-edge paired twice")
        iota[a], iota[b] = b, a
    if None in iota:
        raise ParseError(header, f"piece {piece}: some half-edge has no edge line")
    try:
        graph = MetricRibbonGraph(sigma, iota, lengths)
    except TTLabError as exc:
        raise ParseError(header, f"piece {piece}: {exc}")

    n_faces = len(graph.faces())
    fts = [None] * n_faces
    for lineno, f, s in fts_pairs:
        if f >= n_faces:
            raise ParseError(lineno,
                             f"face {f} out of range: piece has {n_faces} faces")
        if fts[f] is not None:
            raise ParseError(lineno, f"face {f} mapped twice")
        fts[f] = s
    if None in fts:
        raise ParseError(header, f"piece {piece}: a face has no slot")
    return graph, tuple(fts)


def parse_spec(text):
    """Parse spec text into a TorusSpecFile; structure errors carry lines."""
    sections = _split_sections(text)

    genus = _single_int(*_need(sections, "surface"), "genus")
    n_curves = _single_int(*_need(sections, "curves"), "count")

    piece_header, piece_lines = _need(sections, "pieces")
    pieces = []
    gluing = []
    try:
        for lineno, rest in _indexed(piece_lines, "piece"):
            m = _PIECE.fullmatch(rest)
            if not m:
                raise ParseError(lineno, "expected genus = G slots = B")
            pieces.append(tuple(map(int, m.groups())))
        if not pieces:
            raise ParseError(piece_header, "at least one piece is required")

        glue_header, glue_lines = _need(sections, "gluing")
        for lineno, rest in _indexed(glue_lines, "curve", n_curves):
            m = _GLUING.fullmatch(rest)
            if not m:
                raise ParseError(lineno, "expected (piece, slot) (piece, slot)")
            p1, s1, p2, s2 = map(int, m.groups())
            a, b = (p1, s1), (p2, s2)
            for p, s in (a, b):
                if p >= len(pieces):
                    raise ParseError(lineno, f"piece {p} does not exist")
                if s >= pieces[p][1]:
                    raise ParseError(lineno, f"piece {p} has no slot {s}")
            gluing.append((a, b))
    except ValueError:
        raise ParseError(lineno, _TOO_LONG)

    cfg = make_config(genus, pieces, gluing)
    audit = validate_config(cfg)
    if audit.violations:
        raise ParseError(glue_header, str(audit))

    graphs = []
    face_to_slot = []
    for p in range(len(pieces)):
        if ("ribbon", p) not in sections:
            raise ParseError(piece_header, f"missing section [ribbon {p}]")
        rib_header, rib_lines = sections[("ribbon", p)]
        graph, fts = _parse_ribbon(rib_lines, rib_header, p)
        graphs.append(graph)
        face_to_slot.append(fts)
    for key in sections:
        if isinstance(key, tuple) and key[1] >= len(pieces):
            raise ParseError(sections[key][0],
                             f"ribbon section for nonexistent piece {key[1]}")
    sa = SpineAssignment(tuple(graphs), tuple(face_to_slot))

    h_header, h_lines = _need(sections, "heights")
    heights = tuple(
        _rational(rest, lineno)
        for lineno, rest in _indexed(h_lines, "height", n_curves)
    )

    twists = [Fraction(0)] * n_curves
    if "twists" in sections:
        _, t_lines = sections["twists"]
        seen = set()
        for lineno, line in t_lines:
            m = _TWIST.match(line)
            if not m:
                raise ParseError(lineno, "expected 'i: value'")
            try:
                i, token = int(m[1]), m[2]
            except ValueError:
                raise ParseError(lineno, _TOO_LONG)
            if i >= n_curves:
                raise ParseError(lineno, f"curve {i} out of range")
            if i in seen:
                raise ParseError(lineno, f"twist {i} defined twice")
            seen.add(i)
            twists[i] = _rational(token, lineno)

    normalize = False
    mode = EXACT
    if "options" in sections:
        _, o_lines = sections["options"]
        for lineno, line in o_lines:
            m = _KEY_VALUE.fullmatch(line)
            if not m:
                raise ParseError(lineno, "expected key = value")
            key, value = m.groups()
            if key == "normalize":
                if value not in ("true", "false"):
                    raise ParseError(lineno, "normalize must be true or false")
                normalize = value == "true"
            elif key == "mode":
                if value not in _MODES:
                    raise ParseError(lineno, "mode must be exact or numeric")
                mode = value
            else:
                raise ParseError(lineno, f"unknown option {key!r}")

    return TorusSpecFile(cfg, sa, heights, tuple(twists), normalize, mode)


# --- writing -------------------------------------------------------------------


def write_spec(spec):
    """Canonical text for a TorusSpecFile; fixed section order and spacing."""
    cfg, sa = spec.cfg, spec.sa
    out = ["[surface]", f"genus = {cfg.genus}", ""]
    out += ["[curves]", f"count = {cfg.n_curves}", ""]
    out.append("[pieces]")
    for p, piece in enumerate(cfg.pieces):
        out.append(f"{p}: genus = {piece.genus} slots = {piece.n_slots}")
    out.append("")
    out.append("[gluing]")
    for c, (a, b) in enumerate(cfg.gluing):
        out.append(f"{c}: ({a[0]}, {a[1]}) ({b[0]}, {b[1]})")
    for p, graph in enumerate(sa.graphs):
        out += ["", f"[ribbon {p}]"]
        for cycle in graph.vertices():
            out.append("vertex: " + " ".join(str(h) for h in cycle))
        for h, k in graph.edges():
            length = _fmt(graph.length_of(h), f"ribbon {p} edge {h} length")
            out.append(f"edge: {h} {k} length {length}")
        for f, s in enumerate(sa.face_to_slot[p]):
            out.append(f"face->slot: {f} {s}")
    out += ["", "[heights]"]
    for c, v in enumerate(spec.heights):
        out.append(f"{c}: {_fmt(Fraction(v), f'height {c}')}")
    out += ["", "[twists]"]
    for c, v in enumerate(spec.twists):
        out.append(f"{c}: {_fmt(Fraction(v), f'twist {c}')}")
    out += ["", "[options]",
            f"normalize = {'true' if spec.normalize else 'false'}",
            f"mode = {spec.mode}", ""]
    return "\n".join(out)


def spec_from_surface(q, normalize=False):
    """Snapshot a surface as a spec, baking the flow scale into the data.

    Only exact-mode surfaces can round-trip through a file, because the
    format has no way to spell a float.
    """
    if q.mode != EXACT:
        raise ModeMismatch("only exact-mode surfaces can be written to a file")
    sx, sy = q.scale
    graphs = []
    for graph in q.sa.graphs:
        scaled = {h: sx * l for h, l in graph.lengths.items()}
        graphs.append(MetricRibbonGraph(graph.sigma, graph.iota, scaled))
    sa = SpineAssignment(tuple(graphs), q.sa.face_to_slot)
    return TorusSpecFile(
        q.cfg,
        sa,
        tuple(sy * h for h in q.heights),
        tuple(sx * t for t in q.twists),
        normalize,
        EXACT,
    )


# --- validation ----------------------------------------------------------------


def forced_zero_lengths(cfg, sa):
    """Edges and curves that every nonnegative length assignment kills.

    The glued faces of each curve must have equal perimeter.  Those
    equations, over nonnegative edge lengths, can force some lengths to
    vanish even though each equation alone looks harmless.  Returns
    (curves, edges): curve indices whose length is forced to zero and
    (piece, edge) pairs forced to zero.

    The edges are sorted out by exact phase-one feasibility probes, each
    asking for a solution whose lengths on the still-undecided edges sum
    to 1.  A solution frees every edge it gives a positive length; when
    there is none, every undecided edge is zero in every solution.  Each
    probe decides at least one edge, and usually many.
    """
    index = {}
    for p, graph in enumerate(sa.graphs):
        for h, k in graph.edges():
            index[(p, h)] = len(index)
    nvars = len(index)
    rows = []
    for a, b in cfg.gluing:
        row = [0] * nvars
        for sign, (p, s) in ((1, a), (-1, b)):
            for h in sa.graphs[p].faces()[sa.slot_to_face(p, s)]:
                row[index[(p, sa.graphs[p].edge_of(h))]] += sign
        rows.append(row)
    undecided = set(range(nvars))
    while undecided:
        probe = [int(j in undecided) for j in range(nvars)]
        x = feasible_nonneg(rows + [probe], [0] * len(rows) + [1])
        if x is None:
            break
        undecided.difference_update(j for j in range(nvars) if x[j])
    forced_edges = [key for key, col in index.items() if col in undecided]
    forced_set = set(forced_edges)
    forced_curves = []
    for c, (end, _) in enumerate(cfg.gluing):
        p, s = end
        cycle = sa.graphs[p].faces()[sa.slot_to_face(p, s)]
        if all((p, sa.graphs[p].edge_of(h)) in forced_set for h in cycle):
            forced_curves.append(c)
    return forced_curves, forced_edges


def validate_spec(spec):
    """Audit a parsed spec; returns report facts or raises a typed error.

    Structure is already guaranteed by parse_spec.  This checks the
    semantics: spine genera and face counts against the pieces, glued
    perimeters against each other, and heights against the build.  When
    perimeters cannot match, the forced-zero probe tells a length that
    is impossible to satisfy apart from one that is merely mismatched.
    The probe runs only when the perimeters are the one fault, so every
    other fault reads as it does in the other commands.
    """
    try:
        q = spec.build()
    except InvalidAssignment:
        _check_pieces(spec.cfg, spec.sa)  # raises a piece fault again
        curves, edges = forced_zero_lengths(spec.cfg, spec.sa)
        if curves:
            raise ZeroLengthForced(
                "the gluing constraints force the length of curve "
                + ", ".join(str(c) for c in curves) + " to 0")
        if edges:
            names = ", ".join(f"(piece {p}, edge {h})" for p, h in edges)
            raise ZeroLengthForced(
                f"the gluing constraints force the length of {names} to 0")
        raise
    # exact curve lengths in either mode: the glued faces' perimeters
    lengths = [q.sa.graphs[p].perimeters()[f] for (p, f), _ in q.glued_faces]
    report = {
        "ok": True,
        "genus": spec.cfg.genus,
        "pieces": len(spec.cfg.pieces),
        "curves": spec.cfg.n_curves,
        "lengths": tuple(lengths),
        "area": q.area(),
        "mode": spec.mode,
    }
    return report
