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
    ParseError,
    TTLabError,
    ZeroLengthForced,
)
from .linalg import feasible_nonneg
from .ribbon import (
    MetricRibbonGraph,
    SpineAssignment,
    boundary_cycles,
)
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


def _split_sections(text):
    """Map section key -> (header line number, [(lineno, line), ...])."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, "unterminated section header")
            name = line[1:-1].strip()
            parts = name.split()
            if len(parts) == 2 and parts[0] == "ribbon" and parts[1].isdigit():
                key = ("ribbon", int(parts[1]))
            elif name in _PLAIN_SECTIONS:
                key = name
            else:
                raise ParseError(lineno, f"unknown section [{name}]")
            if key in sections:
                raise ParseError(lineno, f"duplicate section [{name}]")
            sections[key] = (lineno, [])
            current = key
            continue
        if current is None:
            raise ParseError(lineno, "content before the first section header")
        sections[current][1].append((lineno, line))
    return sections


def _need(sections, key, shown=None):
    if key not in sections:
        raise ParseError(0, f"missing section [{shown or key}]")
    return sections[key]


def _rational(token, lineno):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"expected a rational number, got {token!r}")


def _single_kv(lines, header, key):
    if len(lines) != 1:
        raise ParseError(header, f"expected exactly one line: {key} = ...")
    lineno, line = lines[0]
    m = re.fullmatch(rf"{key}\s*=\s*(\S+)", line)
    if not m:
        raise ParseError(lineno, f"expected {key} = ...")
    return lineno, m.group(1)


def _indexed(lines, what, n_expected=None):
    """Parse `i: rest` lines into a dense list, rejecting gaps and repeats."""
    found = {}
    for lineno, line in lines:
        m = re.match(r"(\d+)\s*:\s*(.*)", line)
        if not m:
            raise ParseError(lineno, f"expected an indexed line 'i: ...'")
        idx = int(m.group(1))
        if idx in found:
            raise ParseError(lineno, f"{what} {idx} defined twice")
        found[idx] = (lineno, m.group(2).strip())
    n = n_expected if n_expected is not None else len(found)
    out = []
    for i in range(n):
        if i not in found:
            raise ParseError(0, f"{what} {i} is missing")
        out.append(found[i])
    if len(found) > n:
        extra = min(k for k in found if k >= n)
        raise ParseError(found[extra][0], f"{what} {extra} out of range")
    return out


def _parse_ribbon(lines, header, piece):
    cycles = []
    edge_pairs = []
    lengths = {}
    fts_pairs = []
    for lineno, line in lines:
        if line.startswith("vertex:"):
            try:
                cycle = tuple(int(t) for t in line[len("vertex:"):].split())
            except ValueError:
                raise ParseError(lineno, "vertex line needs half-edge numbers")
            if not cycle:
                raise ParseError(lineno, "empty vertex line")
            cycles.append(cycle)
        elif line.startswith("edge:"):
            m = re.fullmatch(
                r"edge:\s*(\d+)\s+(\d+)\s+length\s+(\S+)", line)
            if not m:
                raise ParseError(lineno, "expected edge: h k length p/q")
            a, b = int(m.group(1)), int(m.group(2))
            if a == b:
                raise ParseError(lineno, "an edge needs two distinct sides")
            edge_pairs.append((lineno, a, b))
            lengths[min(a, b)] = _rational(m.group(3), lineno)
        elif line.startswith("face->slot:"):
            m = re.fullmatch(r"face->slot:\s*(\d+)\s+(\d+)", line)
            if not m:
                raise ParseError(lineno, "expected face->slot: f s")
            fts_pairs.append((lineno, int(m.group(1)), int(m.group(2))))
        else:
            raise ParseError(lineno, f"unknown ribbon line {line!r}")

    n = sum(len(c) for c in cycles)
    listed = sorted(h for c in cycles for h in c)
    if listed != list(range(n)):
        raise ParseError(header,
                         f"piece {piece}: vertex lines must cover each "
                         f"half-edge 0..{n - 1} exactly once")
    sigma = [None] * n
    for cycle in cycles:
        for i, h in enumerate(cycle):
            sigma[h] = cycle[(i + 1) % len(cycle)]
    iota = [None] * n
    for lineno, a, b in edge_pairs:
        if a >= n or b >= n:
            raise ParseError(lineno, f"half-edge out of range 0..{n - 1}")
        if iota[a] is not None or iota[b] is not None:
            raise ParseError(lineno, "half-edge paired twice")
        iota[a], iota[b] = b, a
    if any(v is None for v in iota):
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
    if any(v is None for v in fts):
        raise ParseError(header, f"piece {piece}: a face has no slot")
    return graph, tuple(fts)


def parse_spec(text):
    """Parse spec text into a TorusSpecFile; structure errors carry lines."""
    sections = _split_sections(text)

    surf_header, surf_lines = _need(sections, "surface")
    lineno, token = _single_kv(surf_lines, surf_header, "genus")
    if not token.isdigit():
        raise ParseError(lineno, f"genus must be a nonnegative integer")
    genus = int(token)

    cur_header, cur_lines = _need(sections, "curves")
    lineno, token = _single_kv(cur_lines, cur_header, "count")
    if not token.isdigit():
        raise ParseError(lineno, "count must be a nonnegative integer")
    n_curves = int(token)

    piece_header, piece_lines = _need(sections, "pieces")
    pieces = []
    for lineno, rest in _indexed(piece_lines, "piece"):
        m = re.fullmatch(r"genus\s*=\s*(\d+)\s+slots\s*=\s*(\d+)", rest)
        if not m:
            raise ParseError(lineno, "expected genus = G slots = B")
        pieces.append((int(m.group(1)), int(m.group(2))))
    if not pieces:
        raise ParseError(piece_header, "at least one piece is required")

    glue_header, glue_lines = _need(sections, "gluing")
    gluing = []
    for lineno, rest in _indexed(glue_lines, "curve", n_curves):
        m = re.fullmatch(
            r"\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)", rest)
        if not m:
            raise ParseError(lineno, "expected (piece, slot) (piece, slot)")
        a = (int(m.group(1)), int(m.group(2)))
        b = (int(m.group(3)), int(m.group(4)))
        for p, s in (a, b):
            if p >= len(pieces):
                raise ParseError(lineno, f"piece {p} does not exist")
            if s >= pieces[p][1]:
                raise ParseError(lineno, f"piece {p} has no slot {s}")
        gluing.append((a, b))

    cfg = make_config(genus, pieces, gluing)
    audit = validate_config(cfg)
    if audit.violations:
        raise ParseError(glue_header, "; ".join(audit.violations))

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
            m = re.match(r"(\d+)\s*:\s*(\S+)$", line)
            if not m:
                raise ParseError(lineno, "expected 'i: value'")
            i = int(m.group(1))
            if i >= n_curves:
                raise ParseError(lineno, f"curve {i} out of range")
            if i in seen:
                raise ParseError(lineno, f"twist {i} defined twice")
            seen.add(i)
            twists[i] = _rational(m.group(2), lineno)

    normalize = False
    mode = EXACT
    if "options" in sections:
        _, o_lines = sections["options"]
        for lineno, line in o_lines:
            m = re.fullmatch(r"(\w+)\s*=\s*(\S+)", line)
            if not m:
                raise ParseError(lineno, "expected key = value")
            key, value = m.group(1), m.group(2)
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
            out.append(f"edge: {h} {k} length {graph.length_of(h)}")
        for f, s in enumerate(sa.face_to_slot[p]):
            out.append(f"face->slot: {f} {s}")
    out += ["", "[heights]"]
    for c, v in enumerate(spec.heights):
        out.append(f"{c}: {Fraction(v)}")
    out += ["", "[twists]"]
    for c, v in enumerate(spec.twists):
        out.append(f"{c}: {Fraction(v)}")
    out += ["", "[options]",
            f"normalize = {'true' if spec.normalize else 'false'}",
            f"mode = {spec.mode}", ""]
    return "\n".join(out)


def spec_from_surface(q, normalize=False):
    """Snapshot a surface as a spec, baking the flow scale into the data.

    Only exact-mode surfaces can round-trip through a file, because the
    format has no way to spell a float.
    """
    from .errors import ModeMismatch

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
    (piece, edge) pairs forced to zero, both found by exact phase-one
    feasibility probes, one per edge.
    """
    index = {}
    for p, graph in enumerate(sa.graphs):
        for h, k in graph.edges():
            index[(p, h)] = len(index)
    nvars = len(index)
    rows = []
    for a, b in cfg.gluing:
        row = [Fraction(0)] * nvars
        for sign, (p, s) in ((1, a), (-1, b)):
            f = sa.slot_to_face(p, s)
            cycle, _ = boundary_cycles(sa.graphs[p])[f]
            for h in cycle:
                row[index[(p, sa.graphs[p].edge_of(h))]] += sign
        rows.append(row)
    forced_edges = []
    for (p, h), col in sorted(index.items(), key=lambda kv: kv[1]):
        probe = [Fraction(1) if j == col else Fraction(0) for j in range(nvars)]
        if feasible_nonneg(rows + [probe], [0] * len(rows) + [1]) is None:
            forced_edges.append((p, h))
    forced_set = set(forced_edges)
    forced_curves = []
    for c, (end, _) in enumerate(cfg.gluing):
        p, s = end
        f = sa.slot_to_face(p, s)
        cycle, _ = boundary_cycles(sa.graphs[p])[f]
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
    """
    try:
        q = spec.build()
    except InvalidAssignment:
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
