"""Parser for the scenario description language.

The language is line-oriented with ``#`` comments and brace-delimited
property blocks::

    node <id> { cores <n> class <1|2|3> }
    switch <id>
    endpoint <id> { kind sensor|actuator }
    link <id> -> <id> [rate <n>Mbps]
    stream "<name>" { src <id> dst <id> size <n>B period <n>ms|us
                      [deadline <n>ms|us] criticality <0..4>
                      route <id>,<id>,... }
    app "<name>" on <id> { level <0..4> tasks <n> period <n>ms util <fraction>
                           [task <name> wcet <n>us period <n>ms
                            [deadline <n>ms|us]]... }
    params { [d_hop <n>us] [link_rate <n>Mbps] }

Whitespace and newlines are interchangeable, so blocks may span lines, and
``->`` may touch the identifiers on either side (``link S1->W1``).
``params`` also accepts ``weight_base <n>`` and ``seed <n>``, which older
files carry, and ignores them: no solver reads either.

The parser checks syntax only. A malformed document raises
:class:`ScenarioSyntaxError` with the line and column of the offending
token; so does a property given twice in one block (``task`` inside
``app`` is the one property that repeats). Tokens keep only their offset,
from which an error works out its line (lines end at ``\n``, so ``\r\n``
reads the same) and column. Whether identifiers are unique, references
resolve and values lie in range is left to
:func:`fogweaver.scenario.validate`, which reports every violation in one
pass.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ScenarioSyntaxError
from .scenario import (
    ApplicationSpec,
    EndpointSpec,
    FogNodeSpec,
    LinkSpec,
    ModelParams,
    Scenario,
    StreamSpec,
    SwitchSpec,
    TaskSpec,
)

# blanks, newlines included, before a token are part of its match, and
# `bad` is any other character
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
      (?P<comment>\#[^\n]*)
    | (?P<arrow>->)
    | (?P<lbrace>\{)
    | (?P<rbrace>\})
    | (?P<comma>,)
    | (?P<string>"[^"\n]*")
    | (?P<qty>(?P<amount>\d+(?:\.\d+)?)(?P<unit>Mbps|ms|us|B))
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*(?:-(?!>)[A-Za-z0-9_.]*)*)
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)

# unit suffixes of one dimension -> factor to its base unit, and that unit
_TIME = ({"ms": 1000, "us": 1}, "microseconds")
_RATE = ({"Mbps": 10**6}, "bits per second")
_SIZE = ({"B": 1}, "bytes")


class _Token(NamedTuple):
    kind: str       # "ident" | "string" | "number" | "qty" | punctuation | "eof"
    text: str
    value: Fraction | None
    unit: str | None
    offset: int     # of the token's first character in the text


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _literal(raw: str) -> Fraction:
    # a whole number skips Fraction's string parser
    return Fraction(int(raw)) if raw.isdigit() else Fraction(raw)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    # a search from each of n trailing blanks scans to the end: n**2 / 2 steps
    for m in _TOKEN_RE.finditer(text, 0, len(text.rstrip())):
        kind = m.lastgroup
        if kind == "comment":
            continue
        raw, offset = m.group(kind), m.start(kind)
        value = unit = None
        if kind == "number":
            value = _literal(raw)
        elif kind == "qty":
            value, unit = _literal(m.group("amount")), m.group("unit")
        elif kind == "string":
            raw = raw[1:-1]
        elif kind == "bad":
            raise ScenarioSyntaxError(f"unexpected character {raw!r}",
                                      *_position(text, offset))
        tokens.append(_Token(kind, raw, value, unit, offset))
    tokens.append(_Token("eof", "", None, None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nodes: list[FogNodeSpec] = []
        self.switches: list[SwitchSpec] = []
        self.endpoints: list[EndpointSpec] = []
        self.links: list[tuple[str, str, int | None]] = []
        self.streams: list[StreamSpec] = []
        self.apps: list[ApplicationSpec] = []
        self.params: dict = {}

    # -- token primitives ------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token):
        raise ScenarioSyntaxError(message, *_position(self.text, tok.offset))

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            self.fail(f"expected {what}, got {tok.text!r}", tok)
        return tok

    def expect_keyword(self, word: str) -> None:
        tok = self.next()
        if tok.kind != "ident" or tok.text != word:
            self.fail(f"expected {word!r}, got {tok.text!r}", tok)

    def ident(self, what: str) -> str:
        return self.expect("ident", what).text

    def ident_list(self, what: str) -> tuple[str, ...]:
        ids = [self.ident(what)]
        while self.peek().kind == "comma":
            self.next()
            ids.append(self.ident(what))
        return tuple(ids)

    def name(self, what: str) -> str:
        tok = self.next()
        if tok.kind not in ("string", "ident"):
            self.fail(f"expected {what}, got {tok.text!r}", tok)
        return tok.text

    def choice(self, *words: str):
        """The reader of one of the keywords ``words``."""
        def read(what: str) -> str:
            tok = self.next()
            if tok.kind != "ident" or tok.text not in words:
                self.fail(f"{what} must be {' or '.join(words)}", tok)
            return tok.text
        return read

    def integer(self, what: str) -> int:
        tok = self.expect("number", what)
        if tok.value.denominator != 1:
            self.fail(f"{what} must be an integer", tok)
        return int(tok.value)

    def fraction(self, what: str) -> Fraction:
        return self.expect("number", what).value

    def quantity(self, dimension, whole: bool = True):
        """The reader of a number with a unit suffix of ``dimension``; it
        returns the value in the base unit, an int when ``whole``."""
        factors, base = dimension

        def read(what: str):
            tok = self.next()
            if tok.kind != "qty" or tok.unit not in factors:
                self.fail(f"expected {what} in {' or '.join(factors)}, "
                          f"got {tok.text!r}", tok)
            value = tok.value * factors[tok.unit]
            if not whole:
                return value
            if value.denominator != 1:
                self.fail(f"{what} must be a whole number of {base}", tok)
            return int(value)
        return read

    # -- property blocks ---------------------------------------------------

    def properties(self, what: str, readers: dict, many: str = "") -> dict:
        """Read ``key value`` pairs while the next token is a key of
        ``readers``, which maps each key to the primitive that reads its
        value. A key may appear once; the values of ``many`` are listed."""
        props: dict = {}
        while (tok := self.peek()).kind == "ident" and tok.text in readers:
            self.next()
            key = tok.text
            value = readers[key](f"{what} {key}")
            if key == many:
                props.setdefault(key, []).append(value)
            elif key in props:
                self.fail(f"{what} property {key!r} given twice", tok)
            else:
                props[key] = value
        return props

    def block(self, what: str, readers: dict, many: str = "") -> dict:
        """``{ key value ... }``, read by :meth:`properties`."""
        self.expect("lbrace", "'{'")
        props = self.properties(what, readers, many)
        self.expect("rbrace", f"a {what} property or '}}'")
        return props

    def require(self, props: dict, keys, owner: str, tok: _Token) -> None:
        for key in keys:
            if key not in props:
                self.fail(f"{owner} is missing {key!r}", tok)

    # -- declarations ------------------------------------------------------

    def parse(self) -> Scenario:
        declarations = {
            "node": self.parse_node,
            "switch": self.parse_switch,
            "endpoint": self.parse_endpoint,
            "link": self.parse_link,
            "stream": self.parse_stream,
            "app": self.parse_app,
            "params": self.parse_params,
        }
        while (tok := self.next()).kind != "eof":
            declare = declarations.get(tok.text) if tok.kind == "ident" else None
            if declare is None:
                self.fail(f"expected a declaration keyword, got {tok.text!r}", tok)
            declare()
        return self.finish()

    def parse_node(self) -> None:
        node_id = self.ident("node identifier")
        props = {}
        if self.peek().kind == "lbrace":
            props = self.block("node", {"cores": self.integer, "class": self.integer})
        self.nodes.append(FogNodeSpec(node_id, props.get("cores", 2),
                                      props.get("class", 1)))

    def parse_switch(self) -> None:
        self.switches.append(SwitchSpec(self.ident("switch identifier")))

    def parse_endpoint(self) -> None:
        endpoint_id = self.ident("endpoint identifier")
        kind = "sensor"
        if self.peek().kind == "lbrace":
            props = self.block("endpoint", {"kind": self.choice("sensor", "actuator")})
            self.require(props, ("kind",), f"endpoint {endpoint_id!r}",
                         self.tokens[self.pos - 1])  # at the block's '}'
            kind = props["kind"]
        self.endpoints.append(EndpointSpec(endpoint_id, kind))

    def parse_link(self) -> None:
        src = self.ident("link source")
        self.expect("arrow", "'->'")
        dst = self.ident("link destination")
        rate = self.properties("link", {"rate": self.quantity(_RATE)})
        self.links.append((src, dst, rate.get("rate")))

    def parse_stream(self) -> None:
        tok = self.peek()
        stream_id = self.name("stream name")
        props = self.block("stream", {
            "src": self.ident, "dst": self.ident,
            "size": self.quantity(_SIZE),
            "period": self.quantity(_TIME), "deadline": self.quantity(_TIME),
            "criticality": self.integer, "route": self.ident_list,
        })
        self.require(props, ("src", "dst", "size", "period", "criticality", "route"),
                     f"stream {stream_id!r}", tok)
        self.streams.append(StreamSpec(
            stream_id, props["src"], props["dst"], props["size"], props["period"],
            props["criticality"], props["route"], props.get("deadline")))

    def parse_app(self) -> None:
        tok = self.peek()
        app_id = self.name("application name")
        self.expect_keyword("on")
        node = self.ident("fog node")
        props = self.block("app", {
            "level": self.integer, "tasks": self.integer,
            "period": self.quantity(_TIME),
            "util": self.fraction, "task": self.parse_task,
        }, many="task")
        self.require(props, ("level", "tasks", "period", "util"), f"app {app_id!r}", tok)
        self.apps.append(ApplicationSpec(
            app_id, node, props["level"], props["tasks"], props["period"],
            props["util"], tuple(props.get("task", ()))))

    def parse_task(self, what: str) -> TaskSpec:
        task_id = self.name(f"{what} name")
        props = self.properties("task", {
            "wcet": self.quantity(_TIME, whole=False),
            "period": self.quantity(_TIME), "deadline": self.quantity(_TIME),
        })
        self.require(props, ("wcet", "period"), f"task {task_id!r}", self.peek())
        return TaskSpec(task_id, props["wcet"], props["period"], props.get("deadline"))

    def parse_params(self) -> None:
        self.params.update(self.block("params", {
            "d_hop": self.quantity(_TIME, whole=False),
            "link_rate": self.quantity(_RATE),
            "weight_base": self.fraction,  # accepted from older files, unused
            "seed": self.integer,          # accepted from older files, unused
        }))

    def finish(self) -> Scenario:
        defaults = ModelParams()
        rate = self.params.get("link_rate", defaults.default_link_rate_bps)
        return Scenario(
            nodes=tuple(self.nodes),
            switches=tuple(self.switches),
            endpoints=tuple(self.endpoints),
            links=tuple(LinkSpec(src, dst, rate if own is None else own)
                        for src, dst, own in self.links),
            streams=tuple(self.streams),
            applications=tuple(self.apps),
            params=ModelParams(self.params.get("d_hop", defaults.d_hop_us), rate),
        )


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document into a :class:`Scenario` with defaults filled.

    Checks syntax only; run :func:`fogweaver.scenario.validate` on the result.
    """
    return _Parser(text).parse()
