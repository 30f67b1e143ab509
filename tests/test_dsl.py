"""The scenario parser: syntax errors and their positions."""

import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogweaver.dsl import _tokenize, parse_scenario
from fogweaver.errors import ScenarioSyntaxError

# (document, line, column of the token the error names)
MALFORMED = [
    ("switch W1\nlink W1 -> E1 rate 10", 2, 20),           # a rate needs 'Mbps'
    ("frobnicate X", 1, 1),                                # unknown declaration
    ('"W1"', 1, 1),                                        # a string is no keyword
    ("node E1 { cores 2.5 }", 1, 17),                      # cores is an integer
    ("node E1 { cores 2 speed 3 }", 1, 19),                # unknown node property
    ("endpoint S1 { }", 1, 15),                            # a block needs its kind
    ("endpoint S1 { kind sensor", 1, 26),                  # '}' missing at the end
    ("link S1 W1", 1, 9),                                  # '->' missing
    ("link A -> B rate 0.0000001Mbps", 1, 18),             # not whole bits per second
    ("params {\n  d_hop 2\n}", 2, 9),                      # a time needs a unit
    ('stream "s" { src S1 dst E1 size 100 }', 1, 33),      # a size needs 'B'
    ('stream "s" {\n  src S1 dst E1 size 100B\n  period 1.5us }', 3, 10),
    ('stream "s" { src S1 dst E1 size 100B period 1ms\n'
     '  criticality 0 }', 1, 8),                           # no route: at the name
    ('app "a" on E1 { level 1 tasks 1 period 10ms util 0.5\n'
     '  task t0 wcet 1000us }', 2, 23),                    # a task needs its period
    ('app "a" E1 { }', 1, 9),                              # 'on' missing
]


@pytest.mark.parametrize("text,line,column", MALFORMED)
def test_syntax_error_position(text, line, column):
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse_scenario(text)
    assert (exc.value.line, exc.value.column) == (line, column), str(exc.value)


def test_arrow_may_touch_identifiers():
    # '-' may sit inside an identifier, but never swallows the '-' of '->'
    text = "switch S-1\nswitch W1\nlink S-1->W1\nlink W1 ->S-1 rate 10Mbps"
    s = parse_scenario(text)
    assert [(l.src, l.dst) for l in s.links] == [("S-1", "W1"), ("W1", "S-1")]
    assert s == parse_scenario(text.replace("->", " -> "))


def test_trailing_blanks_cost_one_search():
    # a regex search from each of n trailing blanks would scan to the end,
    # n**2 / 2 steps: about a minute for these
    text = "switch W1" + " \n" * 10_000
    start = time.perf_counter()
    tokens = _tokenize(text)
    assert time.perf_counter() - start < 1
    assert [(t.kind, t.offset) for t in tokens] == [
        ("ident", 0), ("ident", 7), ("eof", len(text))]


@pytest.mark.parametrize("text,line,column", [
    ("node E1 { cores 2 cores 4 }", 1, 19),
    ("params { d_hop 1us\n link_rate 10Mbps d_hop 2us }", 2, 19),
    ("link A -> B rate 10Mbps rate 20Mbps", 1, 25),
    ('stream "s" { src S1 dst E1 size 100B period 1ms criticality 0\n'
     '  route S1,W1 route E1 }', 2, 15),
    ('app "a" on E1 { level 1 tasks 2 period 10ms util 0.2\n'
     '  task t0 wcet 1000us period 10ms\n'
     '  task t1 wcet 500us wcet 1000us period 10ms }', 3, 22),
])
def test_property_given_twice_rejected(text, line, column):
    with pytest.raises(ScenarioSyntaxError, match="given twice") as exc:
        parse_scenario(text)
    assert (exc.value.line, exc.value.column) == (line, column)


# -- the tokenizer against a copy that matched blanks on their own -----------

_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[^\S\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<nl>\n)
    | (?P<arrow>->)
    | (?P<lbrace>\{)
    | (?P<rbrace>\})
    | (?P<comma>,)
    | (?P<string>"[^"\n]*")
    | (?P<qty>(?P<amount>\d+(?:\.\d+)?)(?P<unit>Mbps|ms|us|B))
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*(?:-(?!>)[A-Za-z0-9_.]*)*)
    """,
    re.VERBOSE,
)


def _reference_tokenize(text):
    """Tokens as tuples, or the (message, line, column) of the syntax error."""
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            return (f"unexpected character {text[pos]!r}", line,
                    pos - line_start + 1)
        kind = m.lastgroup
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind not in ("ws", "comment"):
            raw = m.group()
            value = unit = None
            if kind == "number":
                value = Fraction(raw)
            elif kind == "qty":
                value, unit = Fraction(m.group("amount")), m.group("unit")
            elif kind == "string":
                raw = raw[1:-1]
            tokens.append((kind, raw, value, unit, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(("eof", "", None, None, line, pos - line_start + 1))
    return tokens


def _line_column(text, offset):
    lines = text[:offset].split("\n")
    return len(lines), len(lines[-1]) + 1


def _tokens_or_error(text):
    """The tokens as the reference's tuples, each offset turned into its
    line and column; or the (message, line, column) of the syntax error."""
    try:
        return [(*tok[:-1], *_line_column(text, tok.offset))
                for tok in _tokenize(text)]
    except ScenarioSyntaxError as exc:
        message = str(exc).split(": ", 1)[1]
        assert str(exc) == f"{exc.line}:{exc.column}: {message}"
        return (message, exc.line, exc.column)


FRAGMENTS = st.sampled_from([
    " ", "  ", "\t", "\r", "\x0b", " ", "\n", "\n\n", "# note", "#",
    "->", "-", "{", "}", ",", '"a b"', '""', '"open', "W1", "S-1", "a.b",
    "_x", "0", "7", "007", "12", "1.5", "0.25", "10.", "٣", "100B",
    "1.5ms", "250us", "100Mbps", "2Mbps", "@", "$", ".",
])


@settings(derandomize=True, max_examples=400)
@given(st.lists(FRAGMENTS, max_size=25))
@example(["node", " ", "E1", "\t", "{", " ", "cores", " ", "2", " ", "}", "  "])
@example(["W1", "   ", "@"])
@example(["\n", "  ", "\t"])
@example(["12", "٣"])
@example(["node", "\r\n", "E1", "\r\n", "{", "\r\n", "}", "\r\n"])
@example(["W1", "\n", "@"])
@example(["W1", "# note", "\n", "$"])
@example(["W1", " ", "\n", "\t", " ", "\n\n"])
def test_tokenizer_matches_reference(parts):
    text = "".join(parts)
    got = _tokens_or_error(text)
    assert got == _reference_tokenize(text)
    if isinstance(got, list):
        assert all(type(tok[2]) in (Fraction, type(None)) for tok in got)
