"""Seeded fuzzing of spec files through the commands that read them.

Valid spec texts are mutated line by line and token by token, and every
mutant goes through the reporters validate, classify, spin, rank and
probe (one sample at one time) and the generators flow and twist, as a
shell user would run them.
Whatever the mutant says, each command must either answer (exit 0) or
refuse with exit code 2 and an error.type line; a traceback or another
exit code is a bug.  The draws come from CounterRandom, so a failure
names a mutant that replays exactly.
"""

import io
import sys
from fractions import Fraction

from ttlab.cli import main
from ttlab.ribbon import pants_assignment
from ttlab.rng import CounterRandom
from ttlab.specfile import TorusSpecFile, write_spec
from ttlab.topology import enumerate_pants_configs

from test_classify import GENERIC6, plumbing_ring
from test_specfile import ORIGAMI_TEXT

# argv after the spec argument, which is "-" for stdin
COMMANDS = (("validate",), ("classify",), ("spin",), ("rank",),
            ("probe", "--samples", "1", "--times", "0"),
            ("flow", "--scale", "3/2", "--shear", "1/4"),
            ("twist", "0=2/3"))
MUTANTS = 400

# replacements for a number: small values that keep a file plausible,
# and values that no surface can carry
NUMBERS = ("0", "1", "2", "3", "5", "1/2", "3/2", "7/3", "-1", "-0", "+1",
           "99", "2/0", "0/5", "1.5", "1e400", "1/1000000000",
           "1000000000000")
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


def run_stdin(capsys, monkeypatch, command, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main([command[0], "-", *command[1:]])
    out, err = capsys.readouterr()
    return code, out, err


def test_mutated_specs_answer_or_refuse(capsys, monkeypatch):
    rng = CounterRandom(0, "spec-fuzz")
    texts = base_texts()
    answered = refused = 0
    for m in range(MUTANTS):
        text = mutate(rng, texts[m % len(texts)])
        for command in COMMANDS:
            code, out, err = run_stdin(capsys, monkeypatch, command, text)
            where = (m, command, text)
            if code == 0:
                assert out and not err, where
                answered += 1
            else:
                assert code == 2, where
                assert err.startswith("error.type = "), where
                assert not out, where
                refused += 1
    # the mutants reach past the parser as well as into it
    assert answered > MUTANTS // 10
    assert refused > MUTANTS


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
