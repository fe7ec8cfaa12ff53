"""Seeded fuzzing of spec files, and of the argument lists, through the
commands that read them.

Valid spec texts are mutated line by line and token by token, and every
mutant goes through the reporters validate, classify, spin, rank and
probe (one sample at one time) and the generators flow and twist, as a
shell user would run them.
A second round edits the bytes of a file on disk: bytes that are not
UTF-8, CRLF line ends, a byte-order mark and NUL bytes.
A third edits a small command line of pants, plumbing, flow, twist or
probe: one argument's value becomes a number or a token, an argument
is dropped, an unknown option or a bad --mode is added, or an option
loses its value.
Whatever the mutant says, each command must either answer (exit 0) or
refuse with exit code 2 and an error.type line; a traceback or another
exit code is a bug.  The draws come from CounterRandom, so a failure
names a mutant that replays exactly.
"""

import sys
from collections import Counter
from fractions import Fraction

from ttlab.cli import main
from ttlab.ribbon import pants_assignment
from ttlab.rng import CounterRandom
from ttlab.specfile import TorusSpecFile, write_spec
from ttlab.topology import enumerate_pants_configs

from test_classify import GENERIC6, plumbing_ring
from test_cli import piped, run
from test_specfile import ORIGAMI_TEXT

# argv after the spec argument, which is "-" for stdin
COMMANDS = (("validate",), ("classify",), ("spin",), ("rank",),
            ("probe", "--samples", "1", "--times", "0"),
            ("flow", "--scale", "3/2", "--shear", "1/4"),
            ("twist", "0=2/3"))
MUTANTS = 400
BYTE_MUTANTS = 200

# replacements for a number: small values that keep a file plausible,
# values that no surface can carry, values that only an exact surface
# can carry (1e400 and 1e-400), and numbers with more digits than
# str() and int() read by default (sys.get_int_max_str_digits())
NUMBERS = ("0", "1", "2", "3", "5", "1/2", "3/2", "7/3", "-1", "-0", "+1",
           "99", "2/0", "0/5", "1.5", "1e400", "1e-400", "1/1000000000",
           "1000000000000", "1e5000", "-1e5000", "7" * 5000,
           "1/1" + "0" * 5000)
# replacements for any token
TOKENS = ("x", "=", ":", "(0,", "0)", "[", "]", "nan", "inf", "length",
          "vertex:", "true")


def _spec_text(cfg, sa, twists):
    n = cfg.n_curves
    spec = TorusSpecFile(cfg, sa, (Fraction(1),) * n, tuple(twists) * n)
    return write_spec(spec)


def base_texts():
    g2 = enumerate_pants_configs(2)[1]
    g3 = enumerate_pants_configs(3)[0]
    ring_cfg, ring_sa = plumbing_ring(2)
    return (
        ORIGAMI_TEXT,
        ORIGAMI_TEXT.replace("mode = exact", "mode = numeric"),
        _spec_text(g2, pants_assignment(g2, (3, 4, 5)), (Fraction(1, 2),)),
        _spec_text(g3, pants_assignment(g3, GENERIC6), (Fraction(0),)),
        _spec_text(ring_cfg, ring_sa, (Fraction(1, 3),)),
    )


def _is_number(word):
    return word.strip("(),:").lstrip("-").replace("/", "").isdigit()


def mutate(rng, text):
    """One to two edits: delete, duplicate or swap lines, replace a
    number or any token, or truncate the text at a character."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 2)):
        if not lines:
            break
        i = rng.randint(0, len(lines) - 1)
        op = rng.randint(0, 5)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randint(0, len(lines) - 1)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            words = lines[i].split(" ")
            k = rng.randint(0, len(words) - 1)
            words[k] = rng.choice(text.split() + list(TOKENS + NUMBERS))
            lines[i] = " ".join(words)
        elif op == 4:
            joined = "\n".join(lines)
            lines = joined[:rng.randint(0, len(joined))].split("\n")
        else:
            words = lines[i].split(" ")
            spots = [k for k, w in enumerate(words) if _is_number(w)]
            if spots:
                k = rng.choice(spots)
                digits = words[k].strip("(),:")
                words[k] = words[k].replace(digits, rng.choice(NUMBERS))
                lines[i] = " ".join(words)
    return "\n".join(lines)


# byte strings that no UTF-8 text holds: a stray continuation byte, a
# byte never used, a cut-off two-byte sequence, an overlong "/" and an
# encoded surrogate
NOT_UTF8 = (b"\x80", b"\xff", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80")


def mutate_bytes(rng, data):
    """One to three byte edits: CRLF line ends, a leading byte-order
    mark, or a NUL byte or a non-UTF-8 sequence at a random offset."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randint(0, 3)
        if op == 0:
            data = data.replace(b"\n", b"\r\n")
        elif op == 1:
            data = b"\xef\xbb\xbf" + data
        else:
            at = rng.randint(0, len(data))
            insert = b"\x00" if op == 2 else rng.choice(NOT_UTF8)
            data = data[:at] + insert + data[at:]
    return data


def run_stdin(capsys, monkeypatch, command, text):
    monkeypatch.setattr(sys, "stdin", piped(text))
    code = main([command[0], "-", *command[1:]])
    out, err = capsys.readouterr()
    return code, out, err


def answer_or_refuse(code, out, err, where):
    """Check one command's outcome; True when it answered."""
    if code == 0:
        assert out and not err, where
        return True
    assert code == 2, where
    assert err.startswith("error.type = ") and "\nerror = " in err, where
    assert not out, where
    return False


def test_mutated_specs_answer_or_refuse(capsys, monkeypatch):
    rng = CounterRandom(0, "spec-fuzz")
    texts = base_texts()
    answered = refused = 0
    for m in range(MUTANTS):
        text = mutate(rng, texts[m % len(texts)])
        for command in COMMANDS:
            code, out, err = run_stdin(capsys, monkeypatch, command, text)
            if answer_or_refuse(code, out, err, (m, command, text)):
                answered += 1
            else:
                refused += 1
    # the mutants reach past the parser as well as into it
    assert answered > MUTANTS // 10
    assert refused > MUTANTS


def test_byte_mutated_files_answer_or_refuse(capsys, tmp_path):
    rng = CounterRandom(0, "spec-fuzz-bytes")
    texts = base_texts()
    path = tmp_path / "mutant.spec"
    outcomes = {True: 0, False: 0}
    for m in range(BYTE_MUTANTS):
        data = mutate_bytes(rng, texts[m % len(texts)].encode("utf-8"))
        path.write_bytes(data)
        for command in COMMANDS:
            code = main([command[0], str(path), *command[1:]])
            out, err = capsys.readouterr()
            outcomes[answer_or_refuse(code, out, err, (m, command, data))] += 1
    # some mutants still answer (CRLF line ends, say), others are refused
    assert outcomes[True] and outcomes[False]


# the command lines of the third round, SPEC standing for a spec file;
# an option is joined to its value by "=", so that a value with a
# leading "-" is not read as an option
ARGVS = (
    ("pants", "2", "--lengths=3,4,5", "--heights=1", "--twists=0"),
    ("plumbing", "4", "4", "--length=2", "--heights=1", "--twists=0"),
    ("flow", "SPEC", "--scale=3/2", "--shear=1/4"),
    ("twist", "SPEC", "0=2/3", "1=1"),
    ("probe", "SPEC", "--samples=1", "--times=0", "--seed=3", "--radius=1"),
)
ARGV_MUTANTS = 1500


def mutate_argv(rng, argv):
    """One edit of an argument list: the value of an option or of a
    twist c=amount, or an argument, replaced by a number or a token (as
    often as all other edits together); an argument dropped; an unknown
    option or a --mode that does not exist added; or an option left
    without its value."""
    argv = list(argv)
    i = rng.randint(1, len(argv) - 1)
    op = rng.randint(0, 7)
    if op < 4:
        head, sep, _ = argv[i].rpartition("=")
        argv[i] = head + sep + rng.choice(NUMBERS + TOKENS)
    elif op == 4:
        del argv[i]
    elif op == 5:
        argv.insert(i, "--bogus")
    elif op == 6:
        argv.append(rng.choice(("--mode=fuzzy", "--mode=EXACT", "--mode=")))
    elif argv[i].startswith("--"):
        argv[i] = argv[i].partition("=")[0]
    else:
        argv.append("--out")
    return argv


def test_mutated_argument_lists_answer_or_refuse(capsys, tmp_path):
    rng = CounterRandom(0, "argv-fuzz")
    spec = tmp_path / "pants.spec"
    spec.write_text(base_texts()[2], encoding="utf-8")
    answered, refusals = 0, Counter()
    for m in range(ARGV_MUTANTS):
        argv = [str(spec) if a == "SPEC" else a for a in ARGVS[m % len(ARGVS)]]
        argv = mutate_argv(rng, argv)
        code, out, err = run(capsys, *argv)
        if answer_or_refuse(code, out, err, (m, argv)):
            answered += 1
        else:
            refusals[err.splitlines()[0]] += 1
    # argparse's refusals and the readers' both come through main
    assert answered and refusals["error.type = UsageError"], refusals
    assert refusals["error.type = OutOfRange"], refusals


# --- mutants that used to escape as tracebacks ---------------------------


def test_huge_slot_count_is_refused_at_once(capsys, monkeypatch):
    # validate_config once listed every unglued slot, so this file
    # asked for 10^12 violation records before it could refuse
    text = ORIGAMI_TEXT.replace("slots = 2", "slots = 1000000000000")
    for command in COMMANDS:
        code, out, err = run_stdin(capsys, monkeypatch, command, text)
        assert code == 2 and not out
        assert "error.type = ParseError" in err
        assert "more than the 2 curve sides" in err


def test_numeric_length_beyond_a_float_is_refused(capsys, monkeypatch):
    # 1e400 is an exact rational, but numeric mode cannot hold it; the
    # float conversion used to raise OverflowError out of main
    text = (ORIGAMI_TEXT.replace("mode = exact", "mode = numeric")
            .replace("edge: 0 3 length 1", "edge: 0 3 length 1e400"))
    code, out, err = run_stdin(capsys, monkeypatch, ("validate",), text)
    assert code == 2 and not out
    assert "error.type = OutOfRange" in err
    assert "fits a float" in err


def test_numeric_length_below_a_float_is_refused(capsys, tmp_path):
    # 1e-400 is a positive rational, but as a float it is 0.0; reducing
    # a twist mod that length used to raise ZeroDivisionError out of main
    spec = tmp_path / "tiny.spec"
    assert run(capsys, "pants", "2", "--lengths", "1e-400", "--out", spec)[0] == 0
    for argv in (("validate", spec, "--mode", "numeric"),
                 ("probe", spec, "--samples", "1"),
                 ("probe", spec, "--mode", "exact", "--samples", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert err.startswith("error.type = OutOfRange\n"), argv
        assert "stays positive as a float" in err, argv
