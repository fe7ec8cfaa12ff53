"""End-to-end checks of the ttlab command line.

Every test drives main() directly with an argv list and reads the
report back through capsys, the way the console script would be used
from a shell, pipes included.
"""

import argparse
import io
import sys
from fractions import Fraction

import pytest

from ttlab import cli, ribbon, topology
from ttlab.cli import main
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


def facts(text):
    """The key = value lines of a report, as a dict of strings."""
    result = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            result[key] = value
    return result


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
    path = tmp_path / "num.spec"
    path.write_text(
        ORIGAMI_TEXT.replace("mode = exact", "mode = numeric"),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "spin", path)
    assert code == 2
    assert "error.type = ModeMismatch" in err
    code, out, _ = run(capsys, "spin", path, "--mode", "exact")
    assert code == 0
    assert facts(out)["spin.parity"] == "odd"


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


def test_probe_out_file_holds_the_same_bytes(capsys, tmp_path):
    path = tmp_path / "origami.spec"
    path.write_text(ORIGAMI_TEXT, encoding="utf-8")
    argv = ("probe", path, "--times", "0", "--samples", "4", "--radius", "2")
    _, stdout_text, _ = run(capsys, *argv)
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, *argv, "--out", target)
    assert code == 0
    assert out == f"wrote = {target}\n"
    assert target.read_text(encoding="utf-8") == stdout_text


def test_probe_refuses_exact_mode(capsys, tmp_path):
    path = tmp_path / "origami.spec"
    path.write_text(ORIGAMI_TEXT, encoding="utf-8")
    code, _, err = run(capsys, "probe", path, "--mode", "exact")
    assert code == 2
    assert "error.type = ModeMismatch" in err


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


def test_missing_file_is_a_validation_failure(capsys, tmp_path):
    code, _, err = run(capsys, "validate", tmp_path / "nope.spec")
    assert code == 2
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
    monkeypatch.setattr(sys, "stdin", io.StringIO(ORIGAMI_TEXT))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0
    assert facts(out)["ok"] == "true"


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


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
    # classify_pants_torus rebuilds the spines from the curve lengths
    ("classify", True, 2),
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
    # the surface carries it for relations_formula and identify_stratum
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
        monkeypatch.setattr(sys, "stdin", io.StringIO(ORIGAMI_TEXT))
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
