"""The scenario parser: syntax errors and their positions."""

import pytest

from fogweaver.dsl import parse_scenario
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
