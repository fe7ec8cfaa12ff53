"""Command-line front end for building and classifying twist tori.

Subcommands come in two flavours.  Generators (pants, plumbing, flow,
twist) emit a canonical spec file, so their output can be piped back
into any other subcommand.  Reporters (validate, classify, rank, spin,
probe) print a line-oriented ``key = value`` report.  Exit codes: 0 on
success, 2 when the input is bad in any way.

Each command is a function from its parsed arguments to its output
text, and works on the surface its spec file describes (spec.build()),
built once.  _load reads the file in the arithmetic the command needs,
by the one rule stated beside _build_parser.
main() is the one place that writes: the text goes to --out PATH,
followed by a ``wrote = PATH`` line on stdout, or else to stdout.
It is also the one place that refuses, with ``error.type`` and
``error`` lines on stderr: each argument is read once by its parser
type, which raises OutOfRange naming the argument, and an argument list
that does not fit the grammar raises UsageError from _Parser.error.

There is one parser per process: the first main() call builds it and
later calls reuse it.  argparse reads sys.argv, the standard streams and
the terminal width only when it parses or prints, so a reused parser
gives the same bytes and exit codes as a fresh one.
"""

import argparse
import codecs
import functools
import sys
from dataclasses import replace
from fractions import Fraction

from .classify import _refine_pants_verdict, classify_orbit_closure
from .cover import (
    cover_genus,
    h1_anti_invariant,
    holonomy_double_cover,
    rank_lower_bound,
    relations_formula,
)
from .errors import (
    ModeMismatch,
    NoSpinStructure,
    NotAbelianSquare,
    OutOfRange,
    ParseError,
    TTLabError,
    UsageError,
    _report,
)
from .probe import run_probe
from .ribbon import (
    SpineAssignment,
    pants_assignment,
    plumbing_fixture,
)
from .specfile import (
    TorusSpecFile,
    _lines,
    parse_spec,
    spec_from_surface,
    validate_spec,
    write_spec,
)
from .spin import spin_parity
from .surface import (
    EXACT,
    NUMERIC,
    cylinder_twist,
    geodesic_flow,
    horocycle_flow,
)
from .topology import _is_pants, enumerate_pants_configs, make_config


def _reader(what, convert=Fraction, kind="a rational", listed=False):
    """The argparse type of the argument what: convert on its token, or
    on each item of its comma list, raising OutOfRange naming what for
    a token that convert cannot read."""
    def read(token):
        try:
            return convert(token)
        except (ValueError, ZeroDivisionError):
            raise OutOfRange(f"{what}: {token!r} is not {kind}") from None
    if listed:
        return lambda text: [read(tok.strip()) for tok in text.split(",")]
    return read


def _twist(token):
    """A twist assignment c=amount, as (curve index, rational amount)."""
    curve, sep, amount = token.partition("=")
    if not sep:
        raise OutOfRange(f"twist {token!r} is not of the form c=amount")
    return (_reader(f"twist {token!r}", int, "a curve index")(curve),
            _reader("twist amount")(amount))


def _broadcast(values, what, count):
    """values, a single value repeated count times; OutOfRange naming
    what unless that makes count values."""
    if len(values) == 1 and count > 1:
        values = values * count
    if len(values) != count:
        raise OutOfRange(f"{what}: expected {count} values, got {len(values)}")
    return values


def _read_text(path):
    """The spec file at path, or on stdin for "-", decoded as UTF-8.

    One leading byte-order mark is dropped, as some editors write one.
    A byte that is not UTF-8 is a ParseError at its line, numbered as
    parse_spec numbers lines (see specfile._lines).
    """
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    # dropped from the bytes, so that a decode error's offset still
    # indexes the byte it names
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(_lines(data[:exc.start].decode("utf-8")))
        raise ParseError(lineno, f"byte {data[exc.start]:#04x} is not UTF-8") from None


def _load(args):
    """The spec file of args, in the arithmetic its command reads (see
    _EXACT_ONLY beside _build_parser): the one place that decides it."""
    spec = parse_spec(_read_text(args.spec))
    mode = args.mode or spec.mode
    if args.command in _EXACT_ONLY:
        mode = EXACT
    elif args.command in _WRITES_SPEC and mode != EXACT:
        raise ModeMismatch(
            f"{args.command} writes a spec file, and only exact-mode "
            "surfaces can be written to a file")
    return spec if mode == spec.mode else replace(spec, mode=mode)


def cmd_validate(args):
    return _report(validate_spec(_load(args)).items())


def cmd_classify(args):
    q = _load(args).build()
    # parse_spec validated the configuration, so the checks below skip it.
    verdict = classify_orbit_closure(q)
    if _is_pants(q.cfg):
        # The boundary triples pin down every pants spine, so the sharper
        # pants verdicts hold for the file's own spines.
        verdict = _refine_pants_verdict(verdict, q.cfg.genus)
    pairs = [
        ("verdict", verdict.kind),
        ("stratum", verdict.stratum),
        ("stratum.kappa", verdict.stratum.kappa),
        ("stratum.epsilon", verdict.stratum.epsilon),
        ("stratum.dim", verdict.stratum.dim),
    ]
    for key, value in verdict.certificate.items():
        pairs.append((f"certificate.{key}", value))
    if verdict.limit_label:
        pairs.append(("limit_label", verdict.limit_label))
    for reason in verdict.reasons:
        pairs.append(("reason", reason))
    return _report(pairs)


def cmd_pants(args):
    configs = enumerate_pants_configs(args.genus)
    if not 0 <= args.pairing < len(configs):
        raise OutOfRange(
            f"--pairing {args.pairing} out of range: genus {args.genus} "
            f"has {len(configs)} pants decompositions"
        )
    cfg = configs[args.pairing]
    n = cfg.n_curves
    lengths = _broadcast(args.lengths, "--lengths", n)
    heights = _broadcast(args.heights, "--heights", n)
    twists = _broadcast(args.twists, "--twists", n)
    return _generated(cfg, pants_assignment(cfg, lengths), heights, twists)


def _generated(cfg, sa, heights, twists):
    """The spec file of a generated surface, built once to check it."""
    spec = TorusSpecFile(cfg, sa, tuple(heights), tuple(twists))
    spec.build()
    return write_spec(spec)


# the most boundary circles a plumbing may have in all: desk scale, as
# the probe's limits are
MAX_PLUMBING_SLOTS = 10_000


def _plumbing_gluing(valences):
    """Wire plumbing fixtures: everything around the largest piece.

    The last piece of maximal boundary count is the hub.  Its slots are
    dealt to the other pieces in consecutive blocks of near-equal size,
    earlier pieces taking the longer blocks; whatever slots remain are
    paired off in reading order, which may self-glue a piece.
    """
    k = len(valences)
    if sum(valences) % 2:
        raise OutOfRange(
            f"total boundary count {sum(valences)} is odd; "
            "slots cannot pair up"
        )
    hub = max(range(k), key=lambda i: (valences[i], i))
    satellites = [i for i in range(k) if i != hub]
    gluing = []
    used = [0] * k
    if satellites:
        if valences[hub] < len(satellites):
            raise OutOfRange(
                f"hub has {valences[hub]} boundary circles for "
                f"{len(satellites)} other pieces; the surface would "
                "not connect"
            )
        quota, extra = divmod(valences[hub], len(satellites))
        for position, s in enumerate(satellites):
            size = quota + (1 if position < extra else 0)
            if size > valences[s]:
                raise OutOfRange(
                    f"piece {s} has {valences[s]} boundary circles but "
                    f"the hub sends it {size}"
                )
            for _ in range(size):
                gluing.append(tuple(sorted([(s, used[s]), (hub, used[hub])])))
                used[s] += 1
                used[hub] += 1
    free = [(i, s) for i in range(k) for s in range(used[i], valences[i])]
    for a, b in zip(free[0::2], free[1::2]):
        gluing.append((a, b))
    return gluing


def cmd_plumbing(args):
    valences = args.valence
    # every boundary circle is a few list entries, so the count is
    # bounded before any is made
    if min(valences) < 3 or sum(valences) > MAX_PLUMBING_SLOTS:
        raise OutOfRange("plumbing is desk scale: 3 or more boundary circles "
                         f"a piece, and at most {MAX_PLUMBING_SLOTS} in all")
    gluing = _plumbing_gluing(valences)
    chi = sum(2 - p for p in valences)
    genus = (2 - chi) // 2
    cfg = make_config(genus, [(0, p) for p in valences], gluing)
    graphs = tuple(plumbing_fixture(p, args.length) for p in valences)
    fts = tuple(tuple(range(p)) for p in valences)
    sa = SpineAssignment(graphs, fts)
    n = cfg.n_curves
    heights = _broadcast(args.heights, "--heights", n)
    twists = _broadcast(args.twists, "--twists", n)
    return _generated(cfg, sa, heights, twists)


def cmd_flow(args):
    spec = _load(args)
    q = spec.build()
    q = geodesic_flow(q, args.scale)
    if args.shear:
        q = horocycle_flow(q, args.shear)
    return write_spec(spec_from_surface(q, normalize=spec.normalize))


def cmd_twist(args):
    spec = _load(args)
    q = spec.build()
    for index, amount in args.assignment:
        q = cylinder_twist(q, index, amount)
    return write_spec(spec_from_surface(q, normalize=spec.normalize))


def cmd_rank(args):
    q = _load(args).build()
    cover = holonomy_double_cover(q)
    span = rank_lower_bound(cover, q.cfg)
    formula = relations_formula(q)
    # each raises CrossCheckFailed when the cell count and the branching
    # disagree, so reaching the report means Riemann-Hurwitz held
    anti = h1_anti_invariant(cover)
    genus = cover_genus(cover)
    pairs = [
        ("span.dim", span),
        ("formula.dim", formula),
        ("agree", span == formula),
        ("cover.connected", cover.connected),
        ("cover.genus", genus),
        ("cover.branch_points", len(cover.branch_set)),
        ("anti_invariant.dim", anti.dimension),
        ("riemann_hurwitz", "ok"),
    ]
    return _report(pairs)


def cmd_probe(args):
    return run_probe(_load(args).build(), args.times, args.samples, args.seed,
                     args.radius).text()


def cmd_spin(args):
    q = _load(args).build()
    try:
        parity = spin_parity(q)
    except (NoSpinStructure, NotAbelianSquare) as exc:
        pairs = [("spin.defined", False), ("spin.reason", str(exc))]
    else:
        pairs = [("spin.defined", True), ("spin.parity", parity)]
    return _report(pairs)


# The arithmetic of each command that reads a spec file, applied by
# _load.  classify, rank and spin read only the combinatorics and the
# exact lengths, so they build the exact surface whatever the file or
# --mode asks.  flow and twist write a spec file, which holds only
# exact surfaces, so they refuse numeric mode before doing any work.
# validate and probe build in the mode asked.
_EXACT_ONLY = ("classify", "rank", "spin")
_WRITES_SPEC = ("flow", "twist")


class _Parser(argparse.ArgumentParser):
    """A parser, and by inheritance each subcommand's, that refuses an
    argument list it cannot read with UsageError, for main to report."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="ttlab",
        description="Build, transform, and classify flat twist tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, text, reads_spec=True):
        p = sub.add_parser(name, help=text, description=text)
        p.set_defaults(func=func)
        if reads_spec:
            p.add_argument("spec", help="path to a torus-spec file, or - for stdin")
            p.add_argument(
                "--mode",
                choices=(EXACT, NUMERIC),
                help="override the [options] mode of the file; classify, rank "
                "and spin build exact whatever it says, flow and twist refuse numeric",
            )
        return p

    add("validate", cmd_validate, "audit a spec file and report its facts")
    add("classify", cmd_classify, "run the orbit-closure identification criteria")

    p = add("pants", cmd_pants, "write a spec for a pants-decomposition twist torus",
            reads_spec=False)
    p.add_argument("genus", type=_reader("genus", int, "an integer"),
                   help="genus of the closed surface")
    p.add_argument(
        "--pairing",
        type=_reader("--pairing", int, "an integer"),
        default=0,
        help="index into the catalog of pants decompositions for this genus",
    )
    p.add_argument("--lengths", type=_reader("--lengths", listed=True), default="1",
                   help="comma-separated curve lengths; a single value is broadcast")
    p.add_argument("--heights", type=_reader("--heights", listed=True), default="1",
                   help="cylinder heights, same shape")
    p.add_argument("--twists", type=_reader("--twists", listed=True), default="0",
                   help="cylinder twists, same shape")

    p = add("plumbing", cmd_plumbing, "write a spec gluing plumbing fixtures around a hub",
            reads_spec=False)
    p.add_argument(
        "valence",
        type=_reader("valence", int, "an integer"),
        nargs="+",
        help="boundary count of each piece; the largest is the hub",
    )
    p.add_argument("--length", type=_reader("--length"), default="2",
                   help="boundary length shared by all fixtures")
    p.add_argument("--heights", type=_reader("--heights", listed=True), default="1",
                   help="cylinder heights; a single value is broadcast")
    p.add_argument("--twists", type=_reader("--twists", listed=True), default="0",
                   help="cylinder twists, same shape")

    p = add("flow", cmd_flow, "stretch horizontally, shear, and write the moved spec")
    p.add_argument("--scale", type=_reader("--scale"), default="1",
                   help="horizontal stretch factor, a positive rational; "
                   "heights shrink by it")
    p.add_argument("--shear", type=_reader("--shear"), default="0",
                   help="horizontal shear parameter, a rational")

    p = add("twist", cmd_twist, "shear single cylinders and write the moved spec")
    p.add_argument(
        "assignment",
        type=_twist,
        nargs="+",
        metavar="c=amount",
        help="shear applied to cylinder c alone",
    )

    add("rank", cmd_rank, "report the homological rank certificate")

    p = add("probe", cmd_probe, "sample twists, flow, and report saddle statistics")
    p.add_argument("--times", type=_reader("--times", float, "a number", listed=True),
                   default="0,1", help="comma-separated flow times")
    p.add_argument("--samples", type=_reader("--samples", int, "an integer"),
                   default=100, help="twist draws per time")
    p.add_argument("--seed", type=_reader("--seed", int, "an integer"),
                   default=0, help="root seed for the draws")
    p.add_argument("--radius", type=_reader("--radius", float, "a number"),
                   default=1.0, help="saddle search radius")

    add("spin", cmd_spin, "report the parity of the horizontal spin structure")

    # last, so that it closes every usage line and options list
    for p in sub.choices.values():
        p.add_argument(
            "--out",
            metavar="PATH",
            help="write the output to PATH instead of stdout",
        )

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        text = args.func(args)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            text = f"wrote = {args.out}\n"
        sys.stdout.write(text)
    except (TTLabError, OSError) as exc:
        print(f"error.type = {type(exc).__name__}", file=sys.stderr)
        if isinstance(exc, ParseError):
            print(f"error.line = {exc.lineno}", file=sys.stderr)
        print(f"error = {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
