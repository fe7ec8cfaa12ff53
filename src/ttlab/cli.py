"""Command-line front end for building and classifying twist tori.

Subcommands come in two flavours.  Generators (pants, plumbing, flow,
twist) emit a canonical spec file, so their output can be piped back
into any other subcommand.  Reporters (validate, classify, rank, spin,
probe) print a line-oriented ``key = value`` report.  Exit codes: 0 on
success, 2 when the input is bad in any way.

There is one parser per process: the first main() call builds it and
later calls reuse it.  argparse reads sys.argv, the standard streams and
the terminal width only when it parses or prints, so a reused parser
gives the same bytes and exit codes as a fresh one.
"""

import argparse
import functools
import sys
from dataclasses import replace
from fractions import Fraction

from .classify import (
    _pants_torus_verdict,
    classify_orbit_closure,
    identify_stratum,
)
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
)
from .probe import _fmt, run_probe
from .ribbon import (
    SpineAssignment,
    pants_assignment,
    plumbing_fixture,
)
from .specfile import (
    TorusSpecFile,
    parse_spec,
    spec_from_surface,
    validate_spec,
    write_spec,
)
from .spin import spin_parity
from .surface import (
    EXACT,
    NUMERIC,
    build_surface,
    cylinder_twist,
    geodesic_flow,
    horocycle_flow,
)
from .topology import _is_pants, enumerate_pants_configs, make_config


def _report(pairs):
    return [f"{key} = {_fmt(value)}" for key, value in pairs]


def _rational(token, what):
    try:
        return Fraction(str(token))
    except (ValueError, ZeroDivisionError):
        raise OutOfRange(f"{what}: {token!r} is not a rational") from None


def _rational_list(text, what, count):
    values = [_rational(tok.strip(), what) for tok in str(text).split(",")]
    if len(values) == 1 and count > 1:
        values = values * count
    if len(values) != count:
        raise OutOfRange(f"{what}: expected {count} values, got {len(values)}")
    return values


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load(args):
    spec = parse_spec(_read_text(args.spec))
    if getattr(args, "mode", None):
        spec = replace(spec, mode=args.mode)
    return spec


def _deliver(text, out):
    """Write text to --out PATH, or hand it to stdout when there is none."""
    if out is None:
        sys.stdout.write(text)
        return []
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return [f"wrote = {out}"]


def _deliver_report(lines, out):
    if out is None:
        return lines
    return _deliver("\n".join(lines) + "\n", out)


def cmd_validate(args):
    report = validate_spec(_load(args))
    return _deliver_report(_report(report.items()), args.out)


def cmd_classify(args):
    spec = _load(args)
    # The verdict is decided in exact arithmetic whatever the file's mode.
    q = build_surface(spec.cfg, spec.sa, spec.heights)
    # parse_spec validated the configuration, so the checks below skip it.
    if _is_pants(spec.cfg):
        # The spine type of a pants piece is pinned down by its boundary
        # triple, so rebuilding the spines from the file's curve lengths
        # loses nothing and unlocks the sharper pants verdicts.
        verdict = _pants_torus_verdict(spec.cfg, q.base_lengths, spec.heights)
    else:
        verdict = classify_orbit_closure(q)
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
    return _deliver_report(_report(pairs), args.out)


def cmd_pants(args):
    configs = enumerate_pants_configs(args.genus)
    if not 0 <= args.pairing < len(configs):
        raise OutOfRange(
            f"--pairing {args.pairing} out of range: genus {args.genus} "
            f"has {len(configs)} pants decompositions"
        )
    cfg = configs[args.pairing]
    n = cfg.n_curves
    lengths = _rational_list(args.lengths, "--lengths", n)
    heights = _rational_list(args.heights, "--heights", n)
    twists = _rational_list(args.twists, "--twists", n)
    sa = pants_assignment(cfg, lengths)
    spec = TorusSpecFile(cfg, sa, tuple(heights), tuple(twists))
    spec.build()
    return _deliver(write_spec(spec), args.out)


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
    length = _rational(args.length, "--length")
    gluing = _plumbing_gluing(valences)
    chi = sum(2 - p for p in valences)
    genus = (2 - chi) // 2
    cfg = make_config(genus, [(0, p) for p in valences], gluing)
    graphs = tuple(plumbing_fixture(p, length) for p in valences)
    fts = tuple(tuple(range(p)) for p in valences)
    sa = SpineAssignment(graphs, fts)
    n = cfg.n_curves
    heights = _rational_list(args.heights, "--heights", n)
    twists = _rational_list(args.twists, "--twists", n)
    spec = TorusSpecFile(cfg, sa, tuple(heights), tuple(twists))
    spec.build()
    return _deliver(write_spec(spec), args.out)


def _load_exact(args):
    """The spec of a generator that moves a surface and writes it back.

    A file can only hold an exact-mode surface, so numeric mode is
    refused before any work is done.
    """
    spec = _load(args)
    if spec.mode != EXACT:
        raise ModeMismatch(
            f"{args.command} writes a spec file, and only exact-mode "
            "surfaces can be written to a file")
    return spec


def cmd_flow(args):
    spec = _load_exact(args)
    q = spec.build()
    q = geodesic_flow(q, _rational(args.scale, "--scale"))
    shear = _rational(args.shear, "--shear")
    if shear:
        q = horocycle_flow(q, shear)
    moved = spec_from_surface(q, normalize=spec.normalize)
    return _deliver(write_spec(moved), args.out)


def cmd_twist(args):
    spec = _load_exact(args)
    q = spec.build()
    for token in args.assignment:
        curve, sep, amount = token.partition("=")
        if not sep:
            raise OutOfRange(f"twist {token!r} is not of the form c=amount")
        try:
            index = int(curve)
        except ValueError:
            raise OutOfRange(f"twist {token!r}: {curve!r} is not a curve index") from None
        q = cylinder_twist(q, index, _rational(amount, "twist amount"))
    moved = spec_from_surface(q, normalize=spec.normalize)
    return _deliver(write_spec(moved), args.out)


def cmd_rank(args):
    spec = _load(args)
    q = spec.build()
    cover = holonomy_double_cover(q)
    span = rank_lower_bound(cover, spec.cfg)
    formula = relations_formula(q)
    stratum = identify_stratum(q)
    anti = h1_anti_invariant(cover)
    genus = cover_genus(cover)
    if cover.connected:
        expected = 2 * spec.cfg.genus + stratum.n_sing_odd // 2 - 1
        branched_ok = genus == expected
        anti_ok = anti.dimension == 2 * genus - 2 * spec.cfg.genus
    else:
        # Disconnected cover: two unbranched copies of the base.
        branched_ok = genus == [spec.cfg.genus] * 2 and not cover.branch_set
        anti_ok = anti.dimension == 2 * spec.cfg.genus
    pairs = [
        ("span.dim", span),
        ("formula.dim", formula),
        ("agree", span == formula),
        ("cover.connected", cover.connected),
        ("cover.genus", genus),
        ("cover.branch_points", len(cover.branch_set)),
        ("anti_invariant.dim", anti.dimension),
        ("riemann_hurwitz", "ok" if branched_ok and anti_ok else "mismatch"),
    ]
    return _deliver_report(_report(pairs), args.out)


def cmd_probe(args):
    if getattr(args, "mode", None) == EXACT:
        raise ModeMismatch("the probe samples in numeric mode; drop --mode exact")
    spec = _load(args)
    times = []
    for token in args.times.split(","):
        try:
            times.append(float(token))
        except ValueError:
            raise OutOfRange(f"--times: {token!r} is not a number") from None
    report = run_probe(
        spec.cfg,
        spec.sa,
        spec.heights,
        times=tuple(times),
        samples=args.samples,
        seed=args.seed,
        radius=args.radius,
    )
    return _deliver(report.text(), args.out)


def cmd_spin(args):
    spec = _load(args)
    q = spec.build()
    try:
        parity = spin_parity(q)
    except (NoSpinStructure, NotAbelianSquare) as exc:
        pairs = [("spin.defined", False), ("spin.reason", str(exc))]
    else:
        pairs = [("spin.defined", True), ("spin.parity", parity)]
    return _deliver_report(_report(pairs), args.out)


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ttlab",
        description="Build, transform, and classify flat twist tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, text):
        p = sub.add_parser(name, help=text, description=text)
        p.set_defaults(func=func)
        return p

    def spec_arg(p):
        p.add_argument("spec", help="path to a torus-spec file, or - for stdin")
        p.add_argument(
            "--mode",
            choices=(EXACT, NUMERIC),
            help="override the [options] mode of the file",
        )

    def out_flag(p):
        p.add_argument(
            "--out",
            metavar="PATH",
            help="write the output to PATH instead of stdout",
        )

    p = add("validate", cmd_validate, "audit a spec file and report its facts")
    spec_arg(p)
    out_flag(p)

    p = add("classify", cmd_classify, "run the orbit-closure identification criteria")
    spec_arg(p)
    out_flag(p)

    p = add("pants", cmd_pants, "write a spec for a pants-decomposition twist torus")
    p.add_argument("genus", type=int, help="genus of the closed surface")
    p.add_argument(
        "--pairing",
        type=int,
        default=0,
        help="index into the catalog of pants decompositions for this genus",
    )
    p.add_argument(
        "--lengths",
        default="1",
        help="comma-separated curve lengths; a single value is broadcast",
    )
    p.add_argument("--heights", default="1", help="cylinder heights, same shape")
    p.add_argument("--twists", default="0", help="cylinder twists, same shape")
    out_flag(p)

    p = add("plumbing", cmd_plumbing, "write a spec gluing plumbing fixtures around a hub")
    p.add_argument(
        "valence",
        type=int,
        nargs="+",
        help="boundary count of each piece; the largest is the hub",
    )
    p.add_argument("--length", default="2", help="boundary length shared by all fixtures")
    p.add_argument("--heights", default="1", help="cylinder heights; a single value is broadcast")
    p.add_argument("--twists", default="0", help="cylinder twists, same shape")
    out_flag(p)

    p = add("flow", cmd_flow, "stretch horizontally, shear, and write the moved spec")
    spec_arg(p)
    p.add_argument(
        "--scale",
        default="1",
        help="horizontal stretch factor, a positive rational; heights shrink by it",
    )
    p.add_argument("--shear", default="0", help="horizontal shear parameter, a rational")
    out_flag(p)

    p = add("twist", cmd_twist, "shear single cylinders and write the moved spec")
    spec_arg(p)
    p.add_argument(
        "assignment",
        nargs="+",
        metavar="c=amount",
        help="shear applied to cylinder c alone",
    )
    out_flag(p)

    p = add("rank", cmd_rank, "report the homological rank certificate")
    spec_arg(p)
    out_flag(p)

    p = add("probe", cmd_probe, "sample twists, flow, and report saddle statistics")
    spec_arg(p)
    p.add_argument("--times", default="0,1", help="comma-separated flow times")
    p.add_argument("--samples", type=int, default=100, help="twist draws per time")
    p.add_argument("--seed", type=int, default=0, help="root seed for the draws")
    p.add_argument("--radius", type=float, default=1.0, help="saddle search radius")
    out_flag(p)

    p = add("spin", cmd_spin, "report the parity of the horizontal spin structure")
    spec_arg(p)
    out_flag(p)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        lines = args.func(args)
    except (TTLabError, OSError) as exc:
        print(f"error.type = {type(exc).__name__}", file=sys.stderr)
        if isinstance(exc, ParseError):
            print(f"error.line = {exc.lineno}", file=sys.stderr)
        print(f"error = {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
