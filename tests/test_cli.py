"""End-to-end checks of the ttlab command line.

Every test drives main() directly with an argv list and reads the
report back through capsys, the way the console script would be used
from a shell, pipes included.
"""

import argparse
import codecs
import hashlib
import io
import sys
from fractions import Fraction

import pytest

from ttlab import cli, ribbon, topology
from ttlab.cli import main
from ttlab.errors import _spell
from ttlab.ribbon import pants_assignment
from ttlab.specfile import TorusSpecFile, parse_spec, write_spec
from ttlab.topology import make_config

from test_classify import GENERIC6, odd_plumbing, plumbing_pair, plumbing_ring
from test_ribbon import nabla_assignment, theta_assignment
from test_specfile import ORIGAMI_TEXT
from test_topology import TWO_PANTS

F = Fraction

GENERIC6_CSV = ",".join(str(x) for x in GENERIC6)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def piped(data):
    """A stand-in for sys.stdin holding data (text is UTF-8 encoded),
    with the byte buffer underneath that a shell pipe has."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def facts(text):
    """The key = value lines of a report, as a dict of strings."""
    result = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            result[key] = value
    return result


def sha12(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def write_fixture(tmp_path, cfg, sa, heights=None, twists=None, name="f.spec"):
    n = cfg.n_curves
    if heights is None:
        heights = (F(1),) * n
    if twists is None:
        twists = (F(0),) * n
    spec = TorusSpecFile(cfg, sa, tuple(heights), tuple(twists))
    path = tmp_path / name
    path.write_text(write_spec(spec), encoding="utf-8")
    return path


# ---------------------------------------------------------------- pants


def test_pants_generator_output_parses(capsys):
    code, out, err = run(capsys, "pants", "3", "--lengths", GENERIC6_CSV)
    assert code == 0 and err == ""
    spec = parse_spec(out)
    assert spec.cfg.genus == 3
    assert spec.cfg.n_curves == 6
    assert out == write_spec(spec)


def test_pants_out_flag_writes_the_file(capsys, tmp_path):
    target = tmp_path / "g3.spec"
    code, out, _ = run(capsys, "pants", "3", "--lengths", GENERIC6_CSV,
                       "--out", target)
    assert code == 0
    assert out == f"wrote = {target}\n"
    parse_spec(target.read_text(encoding="utf-8"))


def test_pants_single_length_is_broadcast(capsys):
    code, out, _ = run(capsys, "pants", "2", "--lengths", "5")
    assert code == 0
    spec = parse_spec(out)
    assert spec.build().base_lengths == (5, 5, 5)


def test_pants_bad_pairing_index(capsys):
    code, out, err = run(capsys, "pants", "3", "--pairing", "99")
    assert code == 2 and out == ""
    assert "error.type = OutOfRange" in err
    assert "5 pants decompositions" in err


def test_pants_covers_genus_five(capsys):
    code, out, err = run(capsys, "pants", "5", "--pairing", "70")
    assert code == 0 and not err
    spec = parse_spec(out)
    assert spec.cfg == topology.enumerate_pants_configs(5)[70]
    code, out, err = run(capsys, "pants", "5", "--pairing", "71")
    assert code == 2 and out == ""
    assert "error.type = OutOfRange" in err
    assert "71 pants decompositions" in err


def test_pants_wrong_value_count(capsys):
    code, _, err = run(capsys, "pants", "3", "--lengths", "1,2")
    assert code == 2
    assert "expected 6 values, got 2" in err


# ------------------------------------------------------------- classify


def test_classify_generic_genus_three_pants(capsys, tmp_path):
    target = tmp_path / "g3.spec"
    run(capsys, "pants", "3", "--lengths", GENERIC6_CSV, "--out", target)
    code, out, _ = run(capsys, "classify", target)
    assert code == 0
    report = facts(out)
    assert report["verdict"] == "FullStratumComponent"
    assert report["stratum"] == "Q(1^8;-1)"
    assert report["stratum.dim"] == "12"
    assert report["certificate.rank_lb"] == "6"
    assert report["certificate.nabla"] == "0"
    assert report["limit_label"] == "mu_Mirz/b_g"


def test_classify_one_degenerate_triple(capsys, tmp_path):
    # Curve 1 bounds the piece that carries curve 0 twice, so lengths
    # (3, 6, ...) give that piece the boundary triple (3, 3, 6) and
    # nothing else degenerates.
    target = tmp_path / "nabla.spec"
    run(capsys, "pants", "3", "--lengths", "3,6,9,14,25,37", "--out", target)
    code, out, _ = run(capsys, "classify", target)
    assert code == 0
    report = facts(out)
    assert report["verdict"] == "FullStratumComponent"
    assert report["stratum"] == "Q(1^6,2;-1)"
    assert report["certificate.nabla"] == "1"
    assert report["limit_label"] == "MSV, singular to mu_Mirz"


def test_classify_genus_two_is_inconclusive(capsys, tmp_path):
    target = tmp_path / "g2.spec"
    run(capsys, "pants", "2", "--out", target)
    code, out, _ = run(capsys, "classify", target)
    assert code == 0
    report = facts(out)
    assert report["verdict"] == "Inconclusive"
    assert report["certificate.rank_lb"] == "3"
    assert report["certificate.threshold"] == "7/2"
    assert "limit_label" not in report


def test_classify_ring_of_fourteen_answers(capsys, tmp_path):
    # 14 pieces: past the old involution search's limit of 12, which
    # made this command exit 3
    cfg, sa = plumbing_ring(14)
    path = write_fixture(tmp_path, cfg, sa)
    code, out, err = run(capsys, "classify", path)
    assert code == 0 and err == ""
    report = facts(out)
    assert report["verdict"] == "FullStratumComponent"
    assert report["stratum"] == "Q(2^28;+1)"
    assert report["certificate.rank_lb"] == "15"


# ------------------------------------------------------------- plumbing


@pytest.mark.parametrize("generator", [
    ("pants", "3", "--lengths", GENERIC6_CSV),
    ("plumbing", "4", "4"),
], ids=lambda argv: argv[0])
def test_classify_reads_only_the_configuration_and_the_spines(
        capsys, tmp_path, generator):
    # the verdict is decided in exact arithmetic on the file's own
    # spines, so the file's mode, twists and scale cannot move it
    _, plain, _ = run(capsys, *generator)
    _, twisted, _ = run(capsys, *generator, "--twists", "1/3")
    texts = {
        "plain": plain,
        "numeric": plain.replace("mode = exact", "mode = numeric"),
        "twisted": twisted,
        "normalized": plain.replace("normalize = false", "normalize = true"),
    }
    paths = {}
    for name, text in texts.items():
        assert name == "plain" or text != plain, name
        paths[name] = tmp_path / f"{name}.spec"
        paths[name].write_text(text, encoding="utf-8")
    expected = run(capsys, "classify", paths["plain"])
    assert expected[0] == 0, expected
    for name, path in paths.items():
        assert run(capsys, "classify", path) == expected, name
    assert run(capsys, "classify", paths["plain"], "--mode", "numeric") == expected


def test_plumbing_pair_matches_the_fixture(capsys):
    code, out, _ = run(capsys, "plumbing", "6", "6")
    assert code == 0
    cfg, sa = plumbing_pair(6)
    assert out == write_spec(
        TorusSpecFile(cfg, sa, (F(1),) * 6, (F(0),) * 6)
    )


def test_plumbing_hub_arrangement_matches_odd_plumbing(capsys):
    code, out, _ = run(capsys, "plumbing", "3", "3", "3", "5")
    assert code == 0
    spec = parse_spec(out)
    cfg = odd_plumbing()[0]
    assert spec.cfg.genus == cfg.genus
    assert spec.cfg.pieces == cfg.pieces
    mine = [frozenset(pair) for pair in spec.cfg.gluing]
    theirs = [frozenset(pair) for pair in cfg.gluing]
    assert mine == theirs


def test_plumbing_classifies_to_squared_orders(capsys, tmp_path):
    target = tmp_path / "plumb.spec"
    run(capsys, "plumbing", "3", "3", "3", "5", "--out", target)
    code, out, _ = run(capsys, "classify", target)
    assert code == 0
    report = facts(out)
    assert report["verdict"] == "FullStratumComponent"
    assert report["stratum"] == "Q(1^6,3^2;-1)"


def test_plumbing_single_piece_self_glues(capsys):
    code, out, _ = run(capsys, "plumbing", "4")
    assert code == 0
    spec = parse_spec(out)
    assert spec.cfg.genus == 2
    assert spec.cfg.gluing == (((0, 0), (0, 1)), ((0, 2), (0, 3)))


@pytest.mark.parametrize(
    "valences, needle",
    [
        (("3", "4"), "is odd"),
        (("3", "5"), "the hub sends it"),
        (("3", "3", "3", "3", "3", "3"), "would not connect"),
    ],
)
def test_plumbing_refuses_impossible_wiring(capsys, valences, needle):
    code, _, err = run(capsys, "plumbing", *valences)
    assert code == 2
    assert needle in err


@pytest.mark.parametrize("valences", [
    ("1000000000000",),
    ("5000", "5002"),
    # a negative count cannot pay for a huge one
    ("1000000000000", "1000000000000", "-1999999999994"),
], ids=["huge", "just over", "negative"])
def test_plumbing_is_bounded_before_it_allocates(capsys, valences):
    # the gluing and the fixtures hold a few list entries per boundary
    # circle, so a huge count used to grow memory until the process died
    code, out, err = run(capsys, "plumbing", *valences)
    assert (code, out) == (2, "")
    assert "error.type = OutOfRange" in err
    assert f"at most {cli.MAX_PLUMBING_SLOTS}" in err


# ----------------------------------------------------------------- flow


def test_flow_identity_round_trip(capsys, tmp_path):
    target = tmp_path / "g3.spec"
    run(capsys, "pants", "3", "--lengths", GENERIC6_CSV, "--out", target)
    code, out, _ = run(capsys, "flow", target)
    assert code == 0
    assert out == target.read_text(encoding="utf-8")


def test_flow_scale_stretches_and_preserves_area(capsys, tmp_path):
    target = tmp_path / "g3.spec"
    run(capsys, "pants", "3", "--lengths", GENERIC6_CSV, "--out", target)
    _, before, _ = run(capsys, "validate", target)
    code, out, _ = run(capsys, "flow", target, "--scale", "2")
    assert code == 0
    spec = parse_spec(out)
    doubled = [2 * x for x in GENERIC6]
    assert list(spec.build().base_lengths) == doubled
    assert spec.heights == (F(1, 2),) * 6
    assert facts(before)["area"] == "92"
    assert spec.build().area() == 92


def test_flow_composition_law(capsys, tmp_path):
    first = tmp_path / "a.spec"
    second = tmp_path / "ab.spec"
    straight = tmp_path / "c.spec"
    target = tmp_path / "g3.spec"
    run(capsys, "pants", "3", "--lengths", GENERIC6_CSV, "--out", target)
    run(capsys, "flow", target, "--scale", "3/2", "--out", first)
    run(capsys, "flow", first, "--scale", "4/3", "--out", second)
    run(capsys, "flow", target, "--scale", "2", "--out", straight)
    assert second.read_text(encoding="utf-8") == straight.read_text(
        encoding="utf-8"
    )


def test_flow_shear_only_touches_the_twists_section(capsys, tmp_path):
    target = tmp_path / "g3.spec"
    run(capsys, "pants", "3", "--lengths", GENERIC6_CSV, "--out", target)
    code, out, _ = run(capsys, "flow", target, "--shear", "1/3")
    assert code == 0
    before = target.read_text(encoding="utf-8").split("\n\n")
    after = out.split("\n\n")
    changed = [
        i for i, (a, b) in enumerate(zip(before, after)) if a != b
    ]
    assert len(before) == len(after)
    assert [before[i].splitlines()[0] for i in changed] == ["[twists]"]


def test_flow_numeric_spec_cannot_be_written_back(capsys, tmp_path):
    path = tmp_path / "num.spec"
    path.write_text(
        ORIGAMI_TEXT.replace("mode = exact", "mode = numeric"),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "flow", path, "--scale", "2")
    assert code == 2
    assert "error.type = ModeMismatch" in err


@pytest.mark.parametrize("argv", [
    ("flow", "num.spec", "--scale", "1000"),
    ("flow", "num.spec", "--scale", "-1000"),
    ("flow", "exact.spec", "--mode", "numeric", "--scale", "1000"),
    ("twist", "num.spec", "0=1e400"),
    ("twist", "exact.spec", "--mode", "numeric", "0=1/3"),
])
def test_generators_refuse_numeric_mode_up_front(capsys, tmp_path, argv):
    # a moved surface can only be written back in exact mode; numeric
    # mode used to go on to float overflow (a traceback) before that
    (tmp_path / "exact.spec").write_text(ORIGAMI_TEXT, encoding="utf-8")
    (tmp_path / "num.spec").write_text(
        ORIGAMI_TEXT.replace("mode = exact", "mode = numeric"),
        encoding="utf-8",
    )
    command, name, *rest = argv
    code, out, err = run(capsys, command, tmp_path / name, *rest)
    assert code == 2 and out == ""
    assert "error.type = ModeMismatch" in err
    assert f"{command} writes a spec file" in err


# ---------------------------------------------------------------- twist


def test_twist_changes_one_cylinder(capsys, tmp_path):
    target = tmp_path / "g3.spec"
    run(capsys, "pants", "3", "--lengths", GENERIC6_CSV, "--out", target)
    code, out, _ = run(capsys, "twist", target, "2=5/7")
    assert code == 0
    spec = parse_spec(out)
    assert spec.twists == (0, 0, F(5, 7), 0, 0, 0)


def test_twisting_every_cylinder_is_the_shear_flow(capsys, tmp_path):
    target = tmp_path / "g3.spec"
    run(capsys, "pants", "3", "--lengths", GENERIC6_CSV, "--out", target)
    _, sheared, _ = run(capsys, "flow", target, "--shear", "1/3")
    assignments = [f"{i}=1/3" for i in range(6)]
    code, twisted, _ = run(capsys, "twist", target, *assignments)
    assert code == 0
    assert twisted == sheared


@pytest.mark.parametrize("token", ["zap", "=3", "x=3", "0=", "0=x"])
def test_twist_rejects_malformed_assignments(capsys, tmp_path, token):
    target = tmp_path / "g3.spec"
    run(capsys, "pants", "3", "--lengths", GENERIC6_CSV, "--out", target)
    code, _, err = run(capsys, "twist", target, token)
    assert code == 2
    assert "error.type = OutOfRange" in err


# ----------------------------------------------------------------- rank


def test_rank_on_the_two_pants_surface(capsys, tmp_path):
    sa = pants_assignment(TWO_PANTS, (F(1), F(1), F(1)))
    path = write_fixture(tmp_path, TWO_PANTS, sa)
    code, out, _ = run(capsys, "rank", path)
    assert code == 0
    report = facts(out)
    assert report["span.dim"] == "3"
    assert report["formula.dim"] == "3"
    assert report["agree"] == "true"
    assert report["cover.connected"] == "true"
    assert report["cover.genus"] == "5"
    assert report["cover.branch_points"] == "4"
    assert report["anti_invariant.dim"] == "6"
    assert report["riemann_hurwitz"] == "ok"


def test_rank_on_a_disconnected_cover(capsys, tmp_path):
    sa = nabla_assignment(TWO_PANTS, (0, 0))
    path = write_fixture(tmp_path, TWO_PANTS, sa)
    code, out, _ = run(capsys, "rank", path)
    assert code == 0
    report = facts(out)
    assert report["cover.connected"] == "false"
    assert report["cover.genus"] == "2, 2"
    assert report["cover.branch_points"] == "0"
    assert report["anti_invariant.dim"] == "4"
    assert report["riemann_hurwitz"] == "ok"


def test_rank_refuses_a_disconnected_cover_with_wrong_genera(
        capsys, tmp_path, monkeypatch):
    # the check lives in cover_genus; the command reports its failure
    sa = nabla_assignment(TWO_PANTS, (0, 0))
    path = write_fixture(tmp_path, TWO_PANTS, sa)
    build = cli.holonomy_double_cover

    def tampered(q):
        cover = build(q)
        cover.__dict__["_genera"] = (2, 3)
        return cover

    monkeypatch.setattr(cli, "holonomy_double_cover", tampered)
    code, out, err = run(capsys, "rank", path)
    assert (code, out) == (2, "")
    assert "error.type = CrossCheckFailed" in err
    assert "two copies of genus 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [16, 32])
def test_rank_on_long_plumbing_rings(capsys, tmp_path, n):
    # the cover splits into two copies of the genus n + 1 base
    cfg, sa = plumbing_ring(n)
    path = write_fixture(tmp_path, cfg, sa)
    code, out, err = run(capsys, "rank", path)
    assert code == 0 and err == ""
    report = facts(out)
    assert report["span.dim"] == report["formula.dim"] == str(n + 1)
    assert report["agree"] == "true"
    assert report["cover.connected"] == "false"
    assert report["cover.genus"] == f"{n + 1}, {n + 1}"
    assert report["anti_invariant.dim"] == str(2 * n + 2)
    assert report["riemann_hurwitz"] == "ok"


# ----------------------------------------------------------------- spin


def test_spin_defined_on_the_origami(capsys, tmp_path):
    path = tmp_path / "origami.spec"
    path.write_text(ORIGAMI_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "spin", path)
    assert code == 0
    report = facts(out)
    assert report["spin.defined"] == "true"
    assert report["spin.parity"] == "odd"


def test_spin_undefined_is_still_an_answer(capsys, tmp_path):
    target = tmp_path / "g3.spec"
    run(capsys, "pants", "3", "--lengths", GENERIC6_CSV, "--out", target)
    code, out, _ = run(capsys, "spin", target)
    assert code == 0
    report = facts(out)
    assert report["spin.defined"] == "false"
    assert "spin.parity" not in report
    assert report["spin.reason"]


def test_spin_numeric_file_needs_the_exact_override(capsys, tmp_path):
    # spin reads only the combinatorics and the exact lengths, so the
    # exact override is no longer needed: a numeric file answers as the
    # exact one, with the flag or without it
    path = tmp_path / "num.spec"
    path.write_text(
        ORIGAMI_TEXT.replace("mode = exact", "mode = numeric"),
        encoding="utf-8",
    )
    exact = tmp_path / "origami.spec"
    exact.write_text(ORIGAMI_TEXT, encoding="utf-8")
    code, expected, _ = run(capsys, "spin", exact)
    assert code == 0
    assert facts(expected)["spin.parity"] == "odd"
    for flags in ((), ("--mode", "exact")):
        code, out, err = run(capsys, "spin", path, *flags)
        assert code == 0, err
        assert out == expected


# ---------------------------------------------------------------- probe


def test_probe_report_is_deterministic(capsys, tmp_path):
    path = tmp_path / "origami.spec"
    path.write_text(ORIGAMI_TEXT, encoding="utf-8")
    argv = ("probe", path, "--times", "0,0.5", "--samples", "6",
            "--seed", "5", "--radius", "2")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second
    assert "probe report" in first
    assert "ks = " in first


def test_probe_samples_the_surface_its_file_describes(capsys, tmp_path):
    # normalize = true asks for unit area, which a file whose heights
    # are all 1/6 gives the six unit-length curves of genus 3 directly
    _, plain, _ = run(capsys, "pants", "3")
    _, sixth, _ = run(capsys, "pants", "3", "--heights", "1/6")
    texts = {
        "plain": plain,
        "normalized": plain.replace("normalize = false", "normalize = true"),
        "sixth": sixth,
    }
    reports = {}
    for name, text in texts.items():
        path = tmp_path / f"{name}.spec"
        path.write_text(text, encoding="utf-8")
        reports[name] = run(capsys, "probe", path, "--times", "0",
                            "--samples", "5")
        assert reports[name][0] == 0, reports[name]
        area = facts(run(capsys, "validate", path)[1])["area"]
        assert area == ("6" if name == "plain" else "1"), name
    assert reports["normalized"] == reports["sixth"]
    assert reports["plain"] != reports["sixth"]


# ------------------------------------------------------ the mode matrix


# each command that reads a spec file, with the arguments after the file
MODE_COMMANDS = {
    "validate": (),
    "classify": (),
    "rank": (),
    "spin": (),
    "flow": ("--scale", "2"),
    "twist": ("0=1",),
    "probe": ("--times", "0,1", "--samples", "2"),
}
MODE_FLAGS = {"none": (), "exact": ("--mode", "exact"),
              "numeric": ("--mode", "numeric")}

# (command, mode of the file, --mode flag) -> (exit code, the first 12
# hex digits of the sha256 of stdout, error.type), on a `ttlab pants 2
# --lengths 3,4,5` file and its `mode = numeric` copy
MODE_MATRIX = {
    ("validate", "exact", "none"): (0, "154d5b4c45c9", None),
    ("validate", "exact", "exact"): (0, "154d5b4c45c9", None),
    ("validate", "exact", "numeric"): (0, "95561632279c", None),
    ("classify", "exact", "none"): (0, "e559f43560d8", None),
    ("classify", "exact", "exact"): (0, "e559f43560d8", None),
    ("classify", "exact", "numeric"): (0, "e559f43560d8", None),
    ("rank", "exact", "none"): (0, "19142b000d80", None),
    ("rank", "exact", "exact"): (0, "19142b000d80", None),
    ("rank", "exact", "numeric"): (0, "19142b000d80", None),
    ("spin", "exact", "none"): (0, "be63082f51b0", None),
    ("spin", "exact", "exact"): (0, "be63082f51b0", None),
    ("spin", "exact", "numeric"): (0, "be63082f51b0", None),
    ("flow", "exact", "none"): (0, "11038ad33df2", None),
    ("flow", "exact", "exact"): (0, "11038ad33df2", None),
    ("flow", "exact", "numeric"): (2, "e3b0c44298fc", "ModeMismatch"),
    ("twist", "exact", "none"): (0, "98c2092c0e62", None),
    ("twist", "exact", "exact"): (0, "98c2092c0e62", None),
    ("twist", "exact", "numeric"): (2, "e3b0c44298fc", "ModeMismatch"),
    ("probe", "exact", "none"): (0, "78725d83cac4", None),
    ("probe", "exact", "exact"): (0, "78725d83cac4", None),
    ("probe", "exact", "numeric"): (0, "78725d83cac4", None),
    ("validate", "numeric", "none"): (0, "95561632279c", None),
    ("validate", "numeric", "exact"): (0, "154d5b4c45c9", None),
    ("validate", "numeric", "numeric"): (0, "95561632279c", None),
    ("classify", "numeric", "none"): (0, "e559f43560d8", None),
    ("classify", "numeric", "exact"): (0, "e559f43560d8", None),
    ("classify", "numeric", "numeric"): (0, "e559f43560d8", None),
    ("rank", "numeric", "none"): (0, "19142b000d80", None),
    ("rank", "numeric", "exact"): (0, "19142b000d80", None),
    ("rank", "numeric", "numeric"): (0, "19142b000d80", None),
    ("spin", "numeric", "none"): (0, "be63082f51b0", None),
    ("spin", "numeric", "exact"): (0, "be63082f51b0", None),
    ("spin", "numeric", "numeric"): (0, "be63082f51b0", None),
    ("flow", "numeric", "none"): (2, "e3b0c44298fc", "ModeMismatch"),
    ("flow", "numeric", "exact"): (0, "11038ad33df2", None),
    ("flow", "numeric", "numeric"): (2, "e3b0c44298fc", "ModeMismatch"),
    ("twist", "numeric", "none"): (2, "e3b0c44298fc", "ModeMismatch"),
    ("twist", "numeric", "exact"): (0, "98c2092c0e62", None),
    ("twist", "numeric", "numeric"): (2, "e3b0c44298fc", "ModeMismatch"),
    ("probe", "numeric", "none"): (0, "78725d83cac4", None),
    ("probe", "numeric", "exact"): (0, "78725d83cac4", None),
    ("probe", "numeric", "numeric"): (0, "78725d83cac4", None),
}

# the cells whose file or flag asks for an arithmetic the command does
# not use: spin reads only the combinatorics and the exact lengths, and
# the probe samples in floats whichever surface it is handed, so each
# answers as the exact file with no flag
MOVED_CELLS = (
    ("spin", "exact", "numeric"),
    ("spin", "numeric", "none"),
    ("spin", "numeric", "numeric"),
    ("probe", "exact", "exact"),
    ("probe", "numeric", "exact"),
)


def mode_cells(capsys, tmp_path):
    _, text, _ = run(capsys, "pants", "2", "--lengths", "3,4,5")
    files = {"exact": text,
             "numeric": text.replace("mode = exact", "mode = numeric")}
    cells = {}
    for mode, text in files.items():
        path = tmp_path / f"{mode}.spec"
        path.write_text(text, encoding="utf-8")
        for command, rest in MODE_COMMANDS.items():
            for flag, flag_argv in MODE_FLAGS.items():
                code, out, err = run(capsys, command, path, *flag_argv, *rest)
                kind = facts(err).get("error.type")
                cells[(command, mode, flag)] = (code, sha12(out), kind)
    return cells


def test_mode_matrix(capsys, tmp_path):
    assert mode_cells(capsys, tmp_path) == MODE_MATRIX
    for cell in MOVED_CELLS:
        assert MODE_MATRIX[cell] == MODE_MATRIX[(cell[0], "exact", "none")]
    # the generators still refuse numeric mode, since a file holds only
    # exact surfaces
    refused = {cell for cell, (code, _, _) in MODE_MATRIX.items() if code}
    assert {command for command, _, _ in refused} == {"flow", "twist"}
    assert all(MODE_MATRIX[cell][2] == "ModeMismatch" for cell in refused)


def test_probe_refuses_exact_mode(capsys, tmp_path):
    # the probe samples in floats whichever surface it is handed, so
    # --mode exact no longer refuses: it reports what no flag reports
    path = tmp_path / "origami.spec"
    path.write_text(ORIGAMI_TEXT, encoding="utf-8")
    rest = ("--times", "0,0.5", "--samples", "4", "--seed", "3")
    code, expected, _ = run(capsys, "probe", path, *rest)
    assert code == 0
    code, out, err = run(capsys, "probe", path, "--mode", "exact", *rest)
    assert code == 0, err
    assert "ModeMismatch" not in err
    assert out == expected


def test_probe_rejects_unreadable_times(capsys, tmp_path):
    path = tmp_path / "origami.spec"
    path.write_text(ORIGAMI_TEXT, encoding="utf-8")
    code, _, err = run(capsys, "probe", path, "--times", "0,x")
    assert code == 2
    assert "'x' is not a number" in err


def test_probe_rejects_a_radius_without_a_finite_square(capsys, tmp_path):
    path = tmp_path / "g3.spec"
    code, _, _ = run(capsys, "pants", "3", "--lengths", GENERIC6_CSV,
                     "--out", path)
    assert code == 0
    for radius in ("inf", "1e300"):
        code, out, err = run(capsys, "probe", path, "--times", "0,1",
                             "--samples", "1", "--seed", "1",
                             "--radius", radius)
        assert code == 2, radius
        assert out == ""
        assert "error.type = OutOfRange" in err
        assert "finite square" in err


# ------------------------------------------------------ validate, plumbing


def test_validate_reports_the_facts(capsys, tmp_path):
    path = tmp_path / "origami.spec"
    path.write_text(ORIGAMI_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    report = facts(out)
    assert report["ok"] == "true"
    assert report["genus"] == "2"
    assert report["curves"] == "1"
    assert report["lengths"] == "3"
    assert report["area"] == "3"
    assert report["mode"] == "exact"


def test_validate_reports_forced_zero_lengths(capsys, tmp_path):
    # Two dumbbells with crossed waists: the linear system only closes
    # when curve 2 collapses.
    from test_specfile import pants_assignment as mismatched

    sa = mismatched((4, 1, 1), (4, 1, 1), slots1=(1, 0, 2))
    path = write_fixture(tmp_path, TWO_PANTS, sa)
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert "error.type = ZeroLengthForced" in err
    assert "curve 2" in err


def test_validate_parse_error_carries_the_line(capsys, tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("[surface]\ngenus = x\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert "error.type = ParseError" in err
    assert "error.line = 2" in err


@pytest.mark.parametrize("old, new", [
    ("genus = 2", "genus = \u00b2"),
    ("[ribbon 0]", "[ribbon \u00b2]"),
    ("0: 1\n\n[twists]", "0: 1\n" + "9" * 5000 + ": 1\n\n[twists]"),
], ids=["superscript genus", "superscript ribbon", "5000-digit index"])
def test_odd_integers_are_parse_errors(capsys, tmp_path, old, new):
    path = tmp_path / "odd.spec"
    path.write_text(ORIGAMI_TEXT.replace(old, new), encoding="utf-8")
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert "error.type = ParseError" in err


def with_ribbon0(text, body):
    """text with the lines of its [ribbon 0] section replaced by body."""
    start = text.index("[ribbon 0]\n") + len("[ribbon 0]\n")
    end = text.index("\n[", start)
    return text[:start] + body + text[end:]


LOOP = "vertex: 0 1\nedge: 0 1 length 3\nface->slot: 0 0\nface->slot: 1 1\n"
THETA_FACES = "face->slot: 0 2\nface->slot: 1 0\nface->slot: 2 1\n"
THETA_EDGES = "edge: 0 3 length 2\nedge: 1 4 length 1\n"


@pytest.mark.parametrize("base, body, needle", [
    ("pants", "vertex: 0 1 2\nvertex: 3 5 4\n" + THETA_EDGES
     + "edge: 2 5 length 2\nface->slot: 0 2\nface->slot: 1 2\n"
     "face->slot: 2 1\n", "face->slot is not a bijection"),
    ("pants", LOOP, "2 faces for 3 slots"),
    ("pants", "vertex: 0 1 2\nvertex: 3 5 4\nvertex: 6 7\n" + THETA_EDGES
     + "edge: 2 6 length 1\nedge: 5 7 length 1\n" + THETA_FACES,
     "spine vertex of valence 2"),
    ("origami", LOOP, "spine genus 0 != 1"),
    ("pants", "vertex: 0 1 2\nvertex: 3 5 4\nedge: 0 3 length 3\n"
     "edge: 1 4 length 1\nedge: 2 5 length 2\n" + THETA_FACES,
     "glued faces have perimeters"),
], ids=["two faces on one slot", "too few faces", "valence 2", "spine genus",
        "perimeters"])
def test_validate_diagnoses_as_the_other_reporters(capsys, tmp_path, base,
                                                    body, needle):
    if base == "pants":
        code, text, _ = run(capsys, "pants", 2, "--lengths", "3,4,5")
        assert code == 0
    else:
        text = ORIGAMI_TEXT
    path = tmp_path / "fault.spec"
    path.write_text(with_ribbon0(text, body), encoding="utf-8")
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert "error.type = InvalidAssignment" in err
    assert needle in err
    for command in ("classify", "spin", "rank"):
        assert run(capsys, command, path) == (2, "", err), command


def test_missing_file_is_a_validation_failure(capsys, tmp_path):
    code, _, err = run(capsys, "validate", tmp_path / "nope.spec")
    assert code == 2
    assert "error.type = FileNotFoundError" in err


# str() refuses an integer longer than sys.get_int_max_str_digits(), so
# these numbers are sized from that limit: an edge length of 1eN/2 has N
# digits, and an area of 3 * 1eK * 1eK has 2K + 1 while each length and
# height a file holds has at most K + 1
DIGITS = sys.get_int_max_str_digits()
TOO_DIGITS = 2 * DIGITS
TOO_LONG = f"1e{TOO_DIGITS}"
HALF_LONG = f"1e{3 * DIGITS // 4}"


@pytest.mark.skipif(DIGITS == 0, reason="str() prints integers of any length")
@pytest.mark.parametrize("argv, field", [
    (("pants", "2", "--lengths", TOO_LONG), "ribbon 0 edge 0 length"),
    (("plumbing", "4", "4", "--length", TOO_LONG), "ribbon 0 edge 0 length"),
    (("flow", "PANTS", "--scale", TOO_LONG), "ribbon 0 edge 0 length"),
    (("validate", "HUGE"), "area"),
], ids=["pants", "plumbing", "flow", "validate"])
def test_a_number_too_long_to_print_is_out_of_range(capsys, tmp_path, argv,
                                                     field):
    files = {"PANTS": ("pants", "2"),
             "HUGE": ("pants", "2", "--lengths", HALF_LONG,
                      "--heights", HALF_LONG)}
    argv = list(argv)
    for i, arg in enumerate(argv):
        if arg in files:
            argv[i] = tmp_path / f"{arg}.spec"
            assert run(capsys, *files[arg], "--out", argv[i])[0] == 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error.type = OutOfRange" in err
    assert f"error = {field} has too many digits to print" in err
    assert "Traceback" not in err


# an error message names a number too long to print by its size, and
# the command exits 2 with the error type the number earns
@pytest.mark.skipif(DIGITS == 0, reason="str() prints integers of any length")
@pytest.mark.parametrize("argv, kind, spelled", [
    # the perimeter check of the spines
    (("validate", "LONG_EDGE"), "InvalidAssignment", "perimeters a "),
    # the length check of a ribbon graph
    (("validate", "NEGATIVE_EDGE"), "ParseError", "length a negative "),
    (("validate", "NEGATIVE_HEIGHT"), "NonPositiveHeight", "is a negative "),
    (("flow", "PANTS", f"--scale=-{TOO_LONG}"), "OutOfRange",
     "positive: a negative "),
    (("pants", "2", f"--lengths=-{TOO_LONG},1,1"), "NonPositiveLength",
     "lengths a negative "),
    (("plumbing", "4", "4", f"--length=-{TOO_LONG}"), "NonPositiveLength",
     "length a negative "),
], ids=["perimeters", "edge length", "height", "flow scale", "pants lengths",
        "plumbing length"])
def test_a_message_spells_a_number_too_long_to_print_by_its_size(
        capsys, tmp_path, argv, kind, spelled):
    _, text, _ = run(capsys, "pants", "2", "--lengths", "3,4,5")
    edge = "edge: 0 3 length 2"
    files = {
        "PANTS": text,
        "LONG_EDGE": text.replace(edge, f"edge: 0 3 length {TOO_LONG}", 1),
        "NEGATIVE_EDGE": text.replace(edge, f"edge: 0 3 length -{TOO_LONG}", 1),
        "NEGATIVE_HEIGHT": text.replace("[heights]\n0: 1",
                                        f"[heights]\n0: -{TOO_LONG}"),
    }
    # every reporter reads a file with a broken spine alike
    commands = (argv[0],)
    if argv[1] in ("LONG_EDGE", "NEGATIVE_EDGE"):
        commands = ("validate", "classify", "rank", "spin")
    argv = list(argv)
    for i, arg in enumerate(argv):
        if arg in files:
            assert arg == "PANTS" or files[arg] != text, arg
            argv[i] = tmp_path / f"{arg}.spec"
            argv[i].write_text(files[arg], encoding="utf-8")
    for command in commands:
        code, out, err = run(capsys, command, *argv[1:])
        assert (code, out) == (2, ""), command
        assert f"error.type = {kind}" in err, command
        assert f"{spelled}{TOO_DIGITS + 1}-digit integer" in err, command
        assert "Traceback" not in err


@pytest.mark.skipif(DIGITS == 0, reason="str() prints integers of any length")
def test_the_speller_counts_digits_exactly():
    assert _spell(10 ** DIGITS - 1) == "9" * DIGITS  # as str() prints it
    for k in (DIGITS + 1, 2 * DIGITS, 3 * DIGITS + 7):
        assert _spell(10 ** k) == f"a {k + 1}-digit integer"
        assert _spell(10 ** k - 1) == f"a {k}-digit integer"
        assert _spell(-(10 ** k)) == f"a negative {k + 1}-digit integer"
    assert _spell(F(-1, 10 ** TOO_DIGITS)) == (
        f"a negative fraction of 1 over {TOO_DIGITS + 1} digits")
    assert _spell([F(1, 2), 10 ** TOO_DIGITS]) == (
        f"1/2, a {TOO_DIGITS + 1}-digit integer")


ORIGAMI = "ORIGAMI"


@pytest.mark.parametrize("argv", [
    ("validate", ORIGAMI),
    ("classify", ORIGAMI),
    ("pants", "2", "--twists", "1/3"),
    ("plumbing", "3", "3"),
    ("flow", ORIGAMI, "--scale", "2", "--shear", "1/3"),
    ("twist", ORIGAMI, "0=1/2"),
    ("rank", ORIGAMI),
    ("probe", ORIGAMI, "--times", "0", "--samples", "4", "--radius", "2"),
    ("spin", ORIGAMI),
], ids=lambda argv: argv[0])
def test_out_file_holds_the_same_bytes(capsys, tmp_path, argv):
    path = tmp_path / "origami.spec"
    path.write_text(ORIGAMI_TEXT, encoding="utf-8")
    argv = [path if arg == ORIGAMI else arg for arg in argv]
    code, stdout_text, err = run(capsys, *argv)
    assert code == 0, err
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", target) == (0, f"wrote = {target}\n", "")
    assert target.read_text(encoding="utf-8") == stdout_text


def test_a_failing_command_writes_no_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, "pants", "2", "--pairing", "9", "--out", target)
    assert (code, out) == (2, "")
    assert "error.type = OutOfRange" in err
    assert not target.exists()
    code, out, err = run(capsys, "pants", "2", "--out", tmp_path / "no" / "out.txt")
    assert (code, out) == (2, "")
    assert "error.type = FileNotFoundError" in err


def test_out_flag_writes_report_files_too(capsys, tmp_path):
    path = tmp_path / "origami.spec"
    path.write_text(ORIGAMI_TEXT, encoding="utf-8")
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "validate", path, "--out", target)
    assert code == 0
    assert out == f"wrote = {target}\n"
    assert facts(target.read_text(encoding="utf-8"))["ok"] == "true"


def test_dash_reads_the_spec_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", piped(ORIGAMI_TEXT))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0
    assert facts(out)["ok"] == "true"


# line 2 of the origami file, with one byte that no UTF-8 text holds
NOT_UTF8 = ORIGAMI_TEXT.encode("utf-8").replace(b"genus = 2", b"genus = \xff2", 1)


def test_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    assert ORIGAMI_TEXT.splitlines()[1] == "genus = 2"
    path = tmp_path / "bad.spec"
    path.write_bytes(NOT_UTF8)
    for command in ("validate", "classify", "rank", "spin"):
        code, out, err = run(capsys, command, path)
        assert code == 2 and not out
        assert facts(err) == {
            "error.type": "ParseError",
            "error.line": "2",
            "error": "line 2: byte 0xff is not UTF-8",
        }


def test_stdin_that_is_not_utf8_is_a_parse_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", piped(NOT_UTF8))
    code, out, err = run(capsys, "validate", "-")
    assert code == 2 and not out
    assert facts(err)["error.type"] == "ParseError"
    assert facts(err)["error.line"] == "2"


def test_crlf_line_endings_read_like_lf(capsys, tmp_path, monkeypatch):
    lf = tmp_path / "lf.spec"
    crlf = tmp_path / "crlf.spec"
    lf.write_bytes(ORIGAMI_TEXT.encode("utf-8"))
    crlf.write_bytes(ORIGAMI_TEXT.replace("\n", "\r\n").encode("utf-8"))
    for command in ("validate", "classify", "rank", "spin"):
        expected = run(capsys, command, lf)
        assert expected[0] == 0
        assert run(capsys, command, crlf) == expected
        monkeypatch.setattr(sys, "stdin", piped(crlf.read_bytes()))
        assert run(capsys, command, "-") == expected


def test_a_leading_byte_order_mark_is_dropped(capsys, tmp_path, monkeypatch):
    # some editors start a UTF-8 file with the mark EF BB BF
    plain = tmp_path / "plain.spec"
    marked = tmp_path / "marked.spec"
    plain.write_bytes(ORIGAMI_TEXT.encode("utf-8"))
    marked.write_bytes(codecs.BOM_UTF8 + ORIGAMI_TEXT.encode("utf-8"))
    for command in ("validate", "classify", "rank", "spin"):
        expected = run(capsys, command, plain)
        assert expected[0] == 0
        assert run(capsys, command, marked) == expected
        monkeypatch.setattr(sys, "stdin", piped(marked.read_bytes()))
        assert run(capsys, command, "-") == expected


def test_a_bad_byte_after_a_byte_order_mark_is_named(capsys, tmp_path):
    # the offset of a decode error must still index the byte it names,
    # which a decoder that swallows the mark itself would shift by three
    path = tmp_path / "bad.spec"
    path.write_bytes(codecs.BOM_UTF8 + NOT_UTF8)
    code, out, err = run(capsys, "validate", path)
    assert code == 2 and not out
    assert facts(err) == {
        "error.type": "ParseError",
        "error.line": "2",
        "error": "line 2: byte 0xff is not UTF-8",
    }


def test_no_subcommand_is_a_usage_error(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (2, "")
    assert facts(err) == {
        "error.type": "UsageError",
        "error": "ttlab: the following arguments are required: command",
    }


# argparse's refusals and the readers of argument values refuse through
# main, as a command's own refusals do; F stands for a spec file
@pytest.mark.parametrize("argv, kind, message", [
    (("pants", "x"), "OutOfRange", "genus: 'x' is not an integer"),
    (("flow", "F", "--scale", "-1/2"), "UsageError",
     "ttlab flow: argument --scale: expected one argument"),
    (("probe", "F", "--samples", "x"), "OutOfRange",
     "--samples: 'x' is not an integer"),
    (("rank",), "UsageError",
     "ttlab rank: the following arguments are required: spec"),
    (("rank", "F", "--bogus"), "UsageError",
     "ttlab: unrecognized arguments: --bogus"),
    (("twist", "F", "0=1/0"), "OutOfRange",
     "twist amount: '1/0' is not a rational"),
], ids=["pants x", "flow scale -1/2", "probe samples x", "rank bare",
        "rank bogus", "twist 0=1/0"])
def test_an_unreadable_argument_list_is_refused_through_main(
        capsys, tmp_path, argv, kind, message):
    path = tmp_path / "origami.spec"
    path.write_text(ORIGAMI_TEXT, encoding="utf-8")
    code, out, err = run(capsys, *(path if a == "F" else a for a in argv))
    assert (code, out) == (2, "")
    assert facts(err) == {"error.type": kind, "error": message}


# ------------------------------------------------------- validate once


def count_calls(monkeypatch, module, name):
    """Record every call of module.name, through every ttlab module
    that bound the function, wherever it did."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "ttlab" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def command_fixture(tmp_path, pants):
    if pants:
        return write_fixture(tmp_path, TWO_PANTS, theta_assignment())
    return write_fixture(tmp_path, *plumbing_pair(4))


@pytest.mark.parametrize("command, pants, expected", [
    ("rank", False, 1),
    ("spin", False, 1),
    ("validate", False, 1),
    ("classify", False, 1),
    # the pants verdict is refined on the file's own spines
    ("classify", True, 1),
])
def test_each_command_validates_once(capsys, tmp_path, monkeypatch, command,
                                     pants, expected):
    path = command_fixture(tmp_path, pants)
    calls = count_calls(monkeypatch, ribbon, "validate_assignment")
    code, _, err = run(capsys, command, path)
    assert code == 0, err
    assert len(calls) == expected


@pytest.mark.parametrize("command, pants", [
    ("rank", False),
    ("spin", False),
    ("validate", False),
    ("classify", False),
    ("classify", True),
])
def test_each_command_validates_its_configuration_once(
        capsys, tmp_path, monkeypatch, command, pants):
    # parse_spec validates the configuration; nothing downstream of it
    # asks again
    path = command_fixture(tmp_path, pants)
    calls = count_calls(monkeypatch, topology, "validate_config")
    code, _, err = run(capsys, command, path)
    assert code == 0, err
    assert len(calls) == 1


def test_rank_finds_joint_orientability_once(capsys, tmp_path, monkeypatch):
    # the surface carries it for relations_formula
    path = command_fixture(tmp_path, False)
    calls = count_calls(monkeypatch, ribbon, "jointly_orientable")
    code, _, err = run(capsys, "rank", path)
    assert code == 0, err
    assert len(calls) == 1


# ------------------------------------------------------ one parser


def test_parser_is_built_once_per_process(capsys, tmp_path, monkeypatch):
    path = command_fixture(tmp_path, False)
    real_init = argparse.ArgumentParser.__init__
    built = []

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "ttlab":
            built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for command in ("validate", "classify", "rank", "spin") * 3:
        code, _, err = run(capsys, command, path)
        assert code == 0, err
    # none when an earlier test in this process already built it
    assert len(built) <= 1


def test_shared_parser_answers_like_a_fresh_one(capsys, tmp_path,
                                                monkeypatch):
    path = command_fixture(tmp_path, False)
    origami = tmp_path / "origami.spec"
    origami.write_text(ORIGAMI_TEXT, encoding="utf-8")
    sequence = [
        ["validate"],
        ["classify", path, "--mode", "fuzzy"],
        ["--help"],
        ["rank", "--help"],
        ["validate", "-"],
        ["rank", path],
        ["classify", path],
        ["probe", origami, "--times", "0", "--samples", "3", "--radius", "2"],
    ]
    shared = cli._build_parser

    def play(argv):
        monkeypatch.setattr(sys, "stdin", piped(ORIGAMI_TEXT))
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    answers = [play(argv) for argv in sequence]
    monkeypatch.setattr(cli, "_build_parser", shared.__wrapped__)
    for argv, answer in zip(sequence, answers):
        assert play(argv) == answer, argv
    assert [code for code, _, _ in answers] == [2, 2, 0, 0, 0, 0, 0, 0]
    assert "usage: ttlab" in answers[2][1]


# the line breaks of str.splitlines that universal newlines do not read
# as one: a spec line ends at \n, \r\n or \r only
OTHER_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("brk", OTHER_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_a_comment_holding_another_line_break_is_one_line(capsys, tmp_path, brk):
    # ttlab pants 2 --out a.spec, then a comment on line 2 (genus = 2)
    # that holds a form feed: the line used to split in two, and validate
    # refused line 1, "expected exactly one line: genus = ..."
    plain = tmp_path / "a.spec"
    assert run(capsys, "pants", "2", "--out", plain)[0] == 0
    lines = plain.read_text(encoding="utf-8").split("\n")
    assert lines[1] == "genus = 2"
    lines[1] += f"  # genus{brk}of the surface"
    commented = tmp_path / "b.spec"
    commented.write_bytes("\n".join(lines).encode("utf-8"))
    expected = run(capsys, "validate", plain)
    assert expected[0] == 0
    assert run(capsys, "validate", commented) == expected
    # a later fault is named at the line an editor shows it on
    edge = next(i for i, line in enumerate(lines) if line.startswith("edge:"))
    lines[edge] = "edge: 0 0 length 1"
    commented.write_bytes("\n".join(lines).encode("utf-8"))
    code, out, err = run(capsys, "validate", commented)
    assert code == 2 and not out
    assert facts(err)["error.line"] == str(edge + 1)


def test_a_bad_byte_after_u2028_is_named_at_its_line(capsys, tmp_path):
    # the UTF-8 error counts the lines parse_spec counts: U+2028 on line
    # 2 does not end it, so the bad byte on line 3 is on line 3
    data = ORIGAMI_TEXT.encode("utf-8")
    data = data.replace(b"genus = 2", "genus = 2  # two\u2028holes".encode("utf-8"), 1)
    data = data.replace(b"count = 1", b"count = \xff1", 1)
    path = tmp_path / "bad.spec"
    path.write_bytes(data)
    code, out, err = run(capsys, "validate", path)
    assert code == 2 and not out
    assert facts(err) == {
        "error.type": "ParseError",
        "error.line": "5",
        "error": "line 5: byte 0xff is not UTF-8",
    }
