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

The reader takes one pass over the lines, which end at \\n, \\r\\n or
\\r only (_lines).  Where it splits the file into sections it matches
each body line once against its section's pattern; the section readers
take their fields from that match, and refuse a line it does not match
with their own per-kind tests and messages.  They run in a fixed order
(surface, curves, pieces, gluing, the configuration's checks, ribbons,
heights, twists, options), so of two faults the one reported does not
depend on where each stands.  What one call reads once and reuses (the
integer and rational tokens, the first graph of each spine shape) is
kept in dicts of that call alone.
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


# The body-line pattern of each section, compiled once.  _split_sections
# matches every body line against its section's pattern as it reads the
# line, and the section readers below take the fields from that match.
# A pattern matches exactly the lines its reader accepts; a line it does
# not match is refused by the reader's own tests, so every message stays
# the reader's.  Every integer field is \d+, which is what str.isdecimal()
# accepts and what int() reads.
_KEY_VALUE = re.compile(r"(\w+)\s*=\s*(\S+)")
_INDEXED = re.compile(r"(\d+)\s*:\s*(.*)")
_PIECE = re.compile(r"(\d+)\s*:\s*genus\s*=\s*(\d+)\s+slots\s*=\s*(\d+)")
_GLUING = re.compile(r"(\d+)\s*:\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)"
                     r"\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)")
_TWIST = re.compile(r"(\d+)\s*:\s*(\S+)")
# one alternation for the three kinds of ribbon line; m.lastindex names
# the kind of a match, and the kinds' prefixes exclude each other
_RIBBON = re.compile(r"vertex:([\d\s]*)"
                     r"|edge:\s*(\d+)\s+(\d+)\s+length\s+(\S+)"
                     r"|face->slot:\s*(\d+)\s+(\d+)")
_VERTEX, _EDGE, _FACE_SLOT = 1, 4, 6

_PLAIN_SECTIONS = ("surface", "curves", "pieces", "gluing",
                   "heights", "twists", "options")
_PATTERNS = (_KEY_VALUE, _KEY_VALUE, _PIECE, _GLUING,
             _INDEXED, _TWIST, _KEY_VALUE)


# int() refuses a decimal string longer than sys.get_int_max_str_digits();
# in each try block that turns its ValueError into this message, int()
# is the only call that raises one
_TOO_LONG = "integer has too many digits"


def _lines(text):
    """The lines of text, split as universal newlines read a file: at
    \\n, \\r\\n and \\r only, so that a form feed or U+2028 stays inside
    its line; after a final line break comes one empty line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _split_sections(text):
    """The plain sections of text by name and its ribbon sections by
    piece, each as (header line number, [(lineno, line, m), ...]) over
    the lines that hold more than a comment, where m is the match of
    the line against its section's pattern, or None.  Header faults are
    found here, in file order, before any body line is read."""
    sections, ribbons = {}, {}
    append = fullmatch = None
    comments = "#" in text
    for lineno, line in enumerate(_lines(text), start=1):
        if comments:
            line = line.partition("#")[0]
        line = line.strip()
        if not line:
            continue
        if line[0] != "[":
            if append is None:
                raise ParseError(lineno, "content before the first section header")
            append((lineno, line, fullmatch(line)))
            continue
        if line[-1] != "]":
            raise ParseError(lineno, "unterminated section header")
        name = line[1:-1].strip()
        if name in _PLAIN_SECTIONS:
            key, table = name, sections
            fullmatch = _PATTERNS[_PLAIN_SECTIONS.index(name)].fullmatch
        else:
            parts = name.split()
            if not (len(parts) == 2 and parts[0] == "ribbon"
                    and parts[1].isdecimal()):
                raise ParseError(lineno, f"unknown section [{name}]")
            try:
                key, table = int(parts[1]), ribbons
            except ValueError:
                raise ParseError(lineno, _TOO_LONG)
            fullmatch = _RIBBON.fullmatch
        if key in table:
            raise ParseError(lineno, f"duplicate section [{name}]")
        body = []
        append = body.append
        table[key] = (lineno, body)
    return sections, ribbons


class _Integers(dict):
    """The integer of each decimal token read so far in one file, so
    that int() reads a token once however often the file holds it; a
    token int() refuses raises its ValueError, and nothing is kept."""

    def __missing__(self, token):
        value = self[token] = int(token)
        return value


def _need(sections, key):
    if key not in sections:
        raise ParseError(0, f"missing section [{key}]")
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
    lineno, line, m = lines[0]
    if not m or m[1] != key:
        raise ParseError(lineno, f"expected {key} = ...")
    if not m[2].isdecimal():
        raise ParseError(lineno, f"{key} must be a nonnegative integer")
    try:
        return int(m[2])
    except ValueError:
        raise ParseError(lineno, _TOO_LONG)


def _indexed(lines, what, ints, n_expected=None):
    """Order `i: rest` lines by i into a dense list of (lineno, m),
    rejecting gaps and repeats; m is the line's match, or None when its
    rest does not fit the section."""
    found = {}
    for lineno, line, m in lines:
        if m is None:
            indexed = _INDEXED.match(line)
            if not indexed:
                raise ParseError(lineno, "expected an indexed line 'i: ...'")
            index = indexed[1]
        else:
            index = m[1]
        try:
            idx = ints[index]
        except ValueError:
            raise ParseError(lineno, _TOO_LONG)
        if idx in found:
            raise ParseError(lineno, f"{what} {idx} defined twice")
        found[idx] = (lineno, m)
    n = n_expected if n_expected is not None else len(found)
    try:
        out = [found[i] for i in range(n)]
    except KeyError as exc:
        raise ParseError(0, f"{what} {exc.args[0]} is missing")
    if len(found) > n:
        extra = min(k for k in found if k >= n)
        raise ParseError(found[extra][0], f"{what} {extra} out of range")
    return out


def _ribbon_fault(lineno, line):
    """The refusal of a ribbon line that _RIBBON does not match."""
    if line.startswith("vertex:"):
        return ParseError(lineno, "vertex line needs half-edge numbers")
    if line.startswith("edge:"):
        return ParseError(lineno, "expected edge: h k length p/q")
    if line.startswith("face->slot:"):
        return ParseError(lineno, "expected face->slot: f s")
    return ParseError(lineno, f"unknown ribbon line {line!r}")


def _parse_ribbon(header, lines, piece, ints, known, shapes):
    """The graph and face->slot map of the ribbon section of one piece.

    The line loop refuses what one line shows wrong, in file order; the
    checks after it need the whole section: the vertex lines' cover of
    the half-edges, the edges' pairing, the graph's own checks and the
    faces' slots."""
    cycles = []
    listed = []
    edges = []
    lengths = {}
    fts_pairs = []
    try:
        for lineno, line, m in lines:
            kind = m.lastindex if m else None
            if kind == _EDGE:
                a, b, token = ints[m[2]], ints[m[3]], m[4]
                if a == b:
                    raise ParseError(lineno, "an edge needs two distinct sides")
                edges.append((lineno, a, b))
                lengths[min(a, b)] = (
                    known[token] if token in known
                    else known.setdefault(token, _rational(token, lineno)))
            elif kind == _FACE_SLOT:
                fts_pairs.append((lineno, ints[m[5]], ints[m[6]]))
            elif kind == _VERTEX:
                cycle = [*map(ints.__getitem__, m[1].split())]
                if not cycle:
                    raise ParseError(lineno, "empty vertex line")
                cycles.append(cycle)
                listed += cycle
            else:
                raise _ribbon_fault(lineno, line)
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
    for lineno, a, b in edges:
        if a >= n or b >= n:
            raise ParseError(lineno, f"half-edge out of range 0..{n - 1}")
        if iota[a] is not None or iota[b] is not None:
            raise ParseError(lineno, "half-edge paired twice")
        iota[a], iota[b] = b, a
    if None in iota:
        raise ParseError(header, f"piece {piece}: some half-edge has no edge line")
    # a file's pieces often share one spine shape; its graph built once
    # gives the next ones their checks and orbits
    shape = (tuple(sigma), tuple(iota))
    seen = shapes.get(shape)
    try:
        if seen is None:
            graph = shapes[shape] = MetricRibbonGraph(*shape, lengths)
        else:
            graph = seen.with_lengths(lengths)
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
    """Parse spec text into a TorusSpecFile; structure errors carry lines.

    One pass splits the text into sections and matches each body line
    against its section's pattern.  The sections are then read in a
    fixed order: surface, curves, pieces, gluing, the configuration's
    own checks, the ribbons by piece, heights, twists and options.  So
    of two faults in different sections, the one reported does not
    depend on where in the file each stands.
    """
    sections, ribbons = _split_sections(text)
    ints = _Integers()
    known = {}  # token -> Fraction, for this file only
    shapes = {}  # (sigma, iota) -> the first graph of that shape here

    genus = _single_int(*_need(sections, "surface"), "genus")
    n_curves = _single_int(*_need(sections, "curves"), "count")

    piece_header, piece_lines = _need(sections, "pieces")
    pieces = []
    gluing = []
    try:
        for lineno, m in _indexed(piece_lines, "piece", ints):
            if not m:
                raise ParseError(lineno, "expected genus = G slots = B")
            pieces.append((ints[m[2]], ints[m[3]]))
        if not pieces:
            raise ParseError(piece_header, "at least one piece is required")
        n_pieces = len(pieces)

        glue_header, glue_lines = _need(sections, "gluing")
        for lineno, m in _indexed(glue_lines, "curve", ints, n_curves):
            if not m:
                raise ParseError(lineno, "expected (piece, slot) (piece, slot)")
            ends = (ints[m[2]], ints[m[3]]), (ints[m[4]], ints[m[5]])
            for p, s in ends:
                if p >= n_pieces:
                    raise ParseError(lineno, f"piece {p} does not exist")
                if s >= pieces[p][1]:
                    raise ParseError(lineno, f"piece {p} has no slot {s}")
            gluing.append(ends)
    except ValueError:
        raise ParseError(lineno, _TOO_LONG)

    cfg = make_config(genus, pieces, gluing)
    audit = validate_config(cfg)
    if audit.violations:
        raise ParseError(glue_header, str(audit))

    graphs = []
    face_to_slot = []
    for p in range(n_pieces):
        if p not in ribbons:
            raise ParseError(piece_header, f"missing section [ribbon {p}]")
        graph, fts = _parse_ribbon(*ribbons[p], p, ints, known, shapes)
        graphs.append(graph)
        face_to_slot.append(fts)
    if len(ribbons) > n_pieces:
        p = next(p for p in ribbons if p >= n_pieces)
        raise ParseError(ribbons[p][0],
                         f"ribbon section for nonexistent piece {p}")
    sa = SpineAssignment(tuple(graphs), tuple(face_to_slot))

    _, h_lines = _need(sections, "heights")
    heights = tuple([
        known[m[2]] if m[2] in known
        else known.setdefault(m[2], _rational(m[2], lineno))
        for lineno, m in _indexed(h_lines, "height", ints, n_curves)])

    twists = [Fraction(0)] * n_curves
    if "twists" in sections:
        _, t_lines = sections["twists"]
        seen = set()
        for lineno, line, m in t_lines:
            if not m:
                raise ParseError(lineno, "expected 'i: value'")
            try:
                i = ints[m[1]]
            except ValueError:
                raise ParseError(lineno, _TOO_LONG)
            if i >= n_curves:
                raise ParseError(lineno, f"curve {i} out of range")
            if i in seen:
                raise ParseError(lineno, f"twist {i} defined twice")
            seen.add(i)
            token = m[2]
            twists[i] = (known[token] if token in known
                         else known.setdefault(token, _rational(token, lineno)))

    normalize = False
    mode = EXACT
    if "options" in sections:
        _, o_lines = sections["options"]
        for lineno, line, m in o_lines:
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
        graphs.append(graph.with_lengths(scaled))
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

    Each edge lies on two faces, each glued as one end of a curve, so
    the equations are the incidence matrix of a bidirected graph on the
    curves.  In its double, the skew-symmetric digraph on the (curve,
    end) pairs, a nonnegative solution is a circulation folded arc onto
    mirror arc, and an arc can carry a positive circulation exactly when
    it lies on a directed cycle (Tutte, Antisymmetrical digraphs, 1967).
    So an edge is forced to zero exactly when its arc joins two strongly
    connected components.
    """
    # node 2c is curve c's first end, 2c + 1 its second: node ^ 1 flips
    node = {}
    for c, (a, b) in enumerate(cfg.gluing):
        node[a], node[b] = 2 * c, 2 * c + 1
    arcs = {}  # (piece, edge) -> (tail, head)
    for p, graph in enumerate(sa.graphs):
        fts = sa.face_to_slot[p]
        for h, k in graph.edges():
            u = node[(p, fts[graph.face_of(h)])]
            v = node[(p, fts[graph.face_of(k)])]
            arcs[(p, h)] = (u ^ 1, v)
    mirrors = [(v ^ 1, u ^ 1) for u, v in arcs.values()]
    component = _strong_components(2 * cfg.n_curves, [*arcs.values(), *mirrors])
    forced_edges = [key for key, (u, v) in arcs.items() if component[u] != component[v]]
    forced_set = set(forced_edges)
    forced_curves = []
    for c, (end, _) in enumerate(cfg.gluing):
        p, s = end
        cycle = sa.graphs[p].faces()[sa.slot_to_face(p, s)]
        if all((p, sa.graphs[p].edge_of(h)) in forced_set for h in cycle):
            forced_curves.append(c)
    return forced_curves, forced_edges


def _strong_components(n, arcs):
    """Strongly connected components of the digraph on nodes 0..n-1 with
    the given (tail, head) arcs: a label per node (Kosaraju, iterative,
    so any depth fits)."""
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for u, v in arcs:
        succ[u].append(v)
        pred[v].append(u)
    seen = [False] * n
    finished = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, heads = stack[-1]
            for w in heads:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    label = [None] * n
    for root in reversed(finished):
        if label[root] is None:
            label[root] = root
            queue = [root]
            for v in queue:
                for w in pred[v]:
                    if label[w] is None:
                        label[w] = root
                        queue.append(w)
    return label


def validate_spec(spec):
    """Audit a parsed spec; returns report facts or raises a typed error.

    Structure is already guaranteed by parse_spec.  This checks the
    semantics: spine genera and face counts against the pieces, glued
    perimeters against each other, and heights against the build.  When
    perimeters cannot match, forced_zero_lengths tells a length that is
    impossible to satisfy apart from one that is merely mismatched.  It
    runs only when the perimeters are the one fault, so every other
    fault reads as it does in the other commands.
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
