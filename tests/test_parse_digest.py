"""One digest pins what parse_spec makes of many malformed files.

For every text below, the outcome is either the canonical bytes
write_spec gives for the parsed spec or, when parsing (or writing)
refuses, the error's type, line number and message.  The texts are the
line and token mutants of test_spec_fuzz (its own 400 and more from a
stream of their own), files with two faults each, whose outcome pins
which fault is reported first, and a few spellings of a valid file.
The digest was taken from the parser before it read each line once;
any change of answer, error, line or precedence moves it.
"""

import hashlib
import sys

import pytest

from ttlab.errors import TTLabError
from ttlab.rng import CounterRandom
from ttlab.specfile import parse_spec, write_spec

from test_spec_fuzz import MUTANTS, base_texts, mutate
from test_specfile import ORIGAMI_TEXT

MORE_MUTANTS = 6000

# one fault per entry, each in some section of ORIGAMI_TEXT
FAULTS = (
    ("genus = 2", "genus = x"),
    ("genus = 2", "genus = 1"),
    ("count = 1", "count = 2"),
    ("0: genus = 1 slots = 2", "0: genus = 1 slots = 3"),
    ("0: genus = 1 slots = 2", "0: genus = 1 slots = 2\n0: genus = 0 slots = 3"),
    ("0: (0, 0) (0, 1)", "0: (0, 0) (0, 7)"),
    ("0: (0, 0) (0, 1)", "0: (0, 0) (0, 1)\n1: (0, 0) (0, 1)"),
    ("vertex: 0 1 2 3 4 5", "vertex: 0 1 2 3 4"),
    ("vertex: 0 1 2 3 4 5", "vertex: 0 1 2\nvertex: 3 4 5"),
    ("edge: 0 3 length 1", "edge: 0 3 length 0"),
    ("edge: 1 4 length 1", "edge: 1 4 length 1/0"),
    ("edge: 2 5 length 1", "edge: 2 2 length 1"),
    ("edge: 2 5 length 1", "edge: 2 5 length 1\nbogus line"),
    ("edge: 2 5 length 1", "edge: 1 5 length 1"),
    ("face->slot: 1 1", "face->slot: 0 1"),
    ("face->slot: 1 1", "face->slot: 4 1"),
    ("face->slot: 0 0\n", ""),
    ("[heights]\n0: 1", "[heights]\n0: y"),
    ("[heights]\n0: 1", "[heights]\n0: 1\n1: 1"),
    ("[twists]\n0: 0", "[twists]\n3: 0"),
    ("[twists]\n0: 0", "[twists]\n0: 0\n0: 1"),
    ("normalize = false", "normalize = maybe"),
    ("mode = exact", "color = red"),
    ("mode = exact", "mode = fuzzy"),
    ("[ribbon 0]", "[ribbon 1]"),
    ("[options]", "[cheese]"),
    ("[surface]", "[surface"),
    ("[surface]", "x = 1\n[surface]"),
    ("[gluing]", "[pieces]"),
)

# a valid file spelled otherwise: line ends, blanks, comments, digits
SPELLINGS = (
    ORIGAMI_TEXT,
    ORIGAMI_TEXT.replace("\n", "\r\n"),
    ORIGAMI_TEXT.replace("\n", "\r"),
    ORIGAMI_TEXT.replace(" ", "\t"),
    ORIGAMI_TEXT.replace("\n", "  # note\n"),
    ORIGAMI_TEXT.replace("\n[", "\n\n  [ "),
    ORIGAMI_TEXT.replace("vertex: 0 1 2 3 4 5", "vertex: \u0660 1 2 3 4 \u0665"),
    ORIGAMI_TEXT.replace("(0, 0) (0, 1)", "(0,0)(0,1)"),
    "\ufeff" + ORIGAMI_TEXT,
    "",
    "# only a comment\n",
)

# the line breaks of str.splitlines that are not \n, \r\n or \r; no
# text of the digest holds one, so the line-break rule leaves it alone
OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def two_fault_texts():
    out = []
    for i, (old_i, new_i) in enumerate(FAULTS):
        for old_j, new_j in FAULTS[i + 1:]:
            text = ORIGAMI_TEXT.replace(old_i, new_i, 1)
            if old_i != old_j and old_j in text:
                out.append(text.replace(old_j, new_j, 1))
    return out


def digest_texts():
    texts = base_texts()
    rng = CounterRandom(0, "spec-fuzz")
    out = [mutate(rng, texts[m % len(texts)]) for m in range(MUTANTS)]
    rng = CounterRandom(0, "spec-parse-digest")
    out += [mutate(rng, texts[m % len(texts)]) for m in range(MORE_MUTANTS)]
    out += [ORIGAMI_TEXT.replace(old, new, 1) for old, new in FAULTS]
    return out + two_fault_texts() + list(SPELLINGS)


def outcome(text):
    try:
        return write_spec(parse_spec(text))
    except TTLabError as exc:
        return type(exc).__name__, getattr(exc, "lineno", None), str(exc)


def test_no_digest_text_holds_another_line_break():
    for text in digest_texts():
        assert not any(c in text for c in OTHER_BREAKS), repr(text)


@pytest.mark.skipif(sys.get_int_max_str_digits() != 4300,
                    reason="the digest holds messages of int()'s default limit")
def test_parse_outcomes_are_pinned():
    texts = digest_texts()
    # the texts reach every kind of outcome: an answer, and a refusal at
    # a line and at none
    kinds = {"answer" if type(o) is str else "line" if o[1] else "none"
             for o in map(outcome, texts)}
    assert kinds == {"answer", "line", "none"}
    h = hashlib.sha256()
    for text in texts:
        h.update(repr(outcome(text)).encode("utf-8") + b"\n")
    assert len(texts) == 6834
    assert h.hexdigest() == (
        "9af2172ff3c63a7107d8089579c2e79799d39174f28600c3483e13fc010d8837")
