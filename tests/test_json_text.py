"""The pipeline's indented JSON writer against ``json.dumps(v, indent=2)``."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogweaver.pipeline import json_text

SCALARS = (st.none() | st.booleans()
           | st.integers() | st.integers(min_value=2**63, max_value=2**200)
           | st.floats() | st.text())
VALUES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=5)
                      | st.tuples(children, children)
                      | st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=30)


@settings(derandomize=True, max_examples=300)
@given(VALUES)
@example({"": [], "\"": {}, "é☃\U0001d11e": "\x00\x1f\n\t\\"})
@example([-0.0, 0.0, 1e16, 1 / 3, -(2**70), 2**64, True, False, None])
@example([float("nan"), float("inf"), -float("inf"), 5e-324])
@example((1, ("a", [])))
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)
