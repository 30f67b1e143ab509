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

Whitespace and newlines are interchangeable, so blocks may span lines.
``params`` also accepts ``weight_base <n>`` and ``seed <n>``, which older
files carry, and ignores them: no solver reads either.
Syntax errors carry line/column; duplicate declarations and dangling
references are rejected after the whole document has been read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DuplicateIdentifierError,
    ScenarioSyntaxError,
    UnknownReferenceError,
)
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

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[^\S\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<nl>\n)
    | (?P<arrow>->)
    | (?P<lbrace>\{)
    | (?P<rbrace>\})
    | (?P<comma>,)
    | (?P<string>"[^"\n]*")
    | (?P<qty>\d+(?:\.\d+)?(?:Mbps|ms|us|B))
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str       # "ident" | "string" | "number" | "qty" | punctuation | "eof"
    text: str
    value: Fraction | None
    unit: str | None
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ScenarioSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(raw)
        else:
            value = unit = None
            if kind == "number":
                value = Fraction(raw)
            elif kind == "qty":
                um = re.search(r"(Mbps|ms|us|B)$", raw)
                unit = um.group(1)
                value = Fraction(raw[: um.start()])
            elif kind == "string":
                raw = raw[1:-1]
            tokens.append(_Token(kind, raw, value, unit, line, col))
            col += len(m.group())
        pos = m.end()
    tokens.append(_Token("eof", "", None, None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nodes: list[FogNodeSpec] = []
        self.switches: list[SwitchSpec] = []
        self.endpoints: list[EndpointSpec] = []
        self.links: list[tuple[str, str, Fraction | None, _Token]] = []
        self.streams: list[tuple[StreamSpec, _Token]] = []
        self.apps: list[tuple[ApplicationSpec, _Token]] = []
        self.params: dict[str, Fraction] = {}
        self.declared: dict[str, str] = {}  # entity id -> kind

    # -- token primitives ------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ScenarioSyntaxError(message, tok.line, tok.column)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            self.fail(f"expected {what}, got {tok.text!r}", tok)
        return tok

    def expect_keyword(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "ident" or tok.text != word:
            self.fail(f"expected {word!r}, got {tok.text!r}", tok)
        return tok

    def ident(self, what: str) -> str:
        return self.expect("ident", what).text

    def name(self, what: str) -> str:
        tok = self.next()
        if tok.kind not in ("string", "ident"):
            self.fail(f"expected {what}, got {tok.text!r}", tok)
        return tok.text

    def integer(self, what: str) -> int:
        tok = self.expect("number", what)
        if tok.value.denominator != 1:
            self.fail(f"{what} must be an integer", tok)
        return int(tok.value)

    def fraction(self, what: str) -> Fraction:
        return self.expect("number", what).value

    def time_us(self, what: str) -> int:
        tok = self.next()
        if tok.kind != "qty" or tok.unit not in ("ms", "us"):
            self.fail(f"expected {what} with ms or us suffix, got {tok.text!r}", tok)
        us = tok.value * (1000 if tok.unit == "ms" else 1)
        if us.denominator != 1:
            self.fail(f"{what} must be a whole number of microseconds", tok)
        return int(us)

    def time_us_frac(self, what: str) -> Fraction:
        tok = self.next()
        if tok.kind != "qty" or tok.unit not in ("ms", "us"):
            self.fail(f"expected {what} with ms or us suffix, got {tok.text!r}", tok)
        return tok.value * (1000 if tok.unit == "ms" else 1)

    def rate_bps(self, what: str) -> int:
        tok = self.next()
        if tok.kind != "qty" or tok.unit != "Mbps":
            self.fail(f"expected {what} in Mbps, got {tok.text!r}", tok)
        bps = tok.value * 10**6
        if bps.denominator != 1:
            self.fail(f"{what} must be a whole number of bits per second", tok)
        return int(bps)

    def bytes_(self, what: str) -> int:
        tok = self.next()
        if tok.kind != "qty" or tok.unit != "B":
            self.fail(f"expected {what} in bytes (B suffix), got {tok.text!r}", tok)
        if tok.value.denominator != 1:
            self.fail(f"{what} must be a whole number of bytes", tok)
        return int(tok.value)

    # -- declarations ------------------------------------------------------

    def declare(self, entity_id: str, kind: str, tok: _Token) -> None:
        if entity_id in self.declared:
            raise DuplicateIdentifierError(
                f"{tok.line}:{tok.column}: {entity_id!r} already declared "
                f"as {self.declared[entity_id]}")
        self.declared[entity_id] = kind

    def parse(self) -> Scenario:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "ident":
                self.fail(f"expected a declaration keyword, got {tok.text!r}")
            handler = {
                "node": self.parse_node,
                "switch": self.parse_switch,
                "endpoint": self.parse_endpoint,
                "link": self.parse_link,
                "stream": self.parse_stream,
                "app": self.parse_app,
                "params": self.parse_params,
            }.get(tok.text)
            if handler is None:
                self.fail(f"unknown declaration {tok.text!r}")
            handler()
        return self.finish()

    def parse_node(self) -> None:
        self.expect_keyword("node")
        tok = self.peek()
        node_id = self.ident("node identifier")
        cores, fn_class = 2, 1
        for key, value in self.block({"cores", "class"}):
            if key == "cores":
                cores = value
            else:
                fn_class = value
        self.declare(node_id, "node", tok)
        self.nodes.append(FogNodeSpec(node_id, cores, fn_class))

    def parse_switch(self) -> None:
        self.expect_keyword("switch")
        tok = self.peek()
        switch_id = self.ident("switch identifier")
        self.declare(switch_id, "switch", tok)
        self.switches.append(SwitchSpec(switch_id))

    def parse_endpoint(self) -> None:
        self.expect_keyword("endpoint")
        tok = self.peek()
        endpoint_id = self.ident("endpoint identifier")
        kind = "sensor"
        if self.peek().kind == "lbrace":
            self.next()
            self.expect_keyword("kind")
            kind_tok = self.next()
            if kind_tok.kind != "ident" or kind_tok.text not in ("sensor", "actuator"):
                self.fail("endpoint kind must be sensor or actuator", kind_tok)
            kind = kind_tok.text
            self.expect("rbrace", "'}'")
        self.declare(endpoint_id, "endpoint", tok)
        self.endpoints.append(EndpointSpec(endpoint_id, kind))

    def parse_link(self) -> None:
        self.expect_keyword("link")
        tok = self.peek()
        src = self.ident("link source")
        self.expect("arrow", "'->'")
        dst = self.ident("link destination")
        rate = None
        nxt = self.peek()
        if nxt.kind == "ident" and nxt.text == "rate":
            self.next()
            rate = self.rate_bps("link rate")
        self.links.append((src, dst, rate, tok))

    def parse_stream(self) -> None:
        self.expect_keyword("stream")
        tok = self.peek()
        stream_id = self.name("stream name")
        self.expect("lbrace", "'{'")
        props: dict = {}
        route: list[str] = []
        while True:
            key_tok = self.next()
            if key_tok.kind == "rbrace":
                break
            if key_tok.kind != "ident":
                self.fail(f"expected a stream property, got {key_tok.text!r}", key_tok)
            key = key_tok.text
            if key in ("src", "dst"):
                props[key] = self.ident(key)
            elif key == "size":
                props[key] = self.bytes_("frame size")
            elif key in ("period", "deadline"):
                props[key] = self.time_us(f"stream {key}")
            elif key == "criticality":
                props[key] = self.integer("criticality")
            elif key == "route":
                route.append(self.ident("route entity"))
                while self.peek().kind == "comma":
                    self.next()
                    route.append(self.ident("route entity"))
            else:
                self.fail(f"unknown stream property {key!r}", key_tok)
        for required in ("src", "dst", "size", "period", "criticality"):
            if required not in props:
                self.fail(f"stream {stream_id!r} is missing {required!r}", tok)
        if not route:
            self.fail(f"stream {stream_id!r} is missing a route", tok)
        self.streams.append((
            StreamSpec(stream_id, props["src"], props["dst"], props["size"],
                       props["period"], props["criticality"], tuple(route),
                       props.get("deadline")),
            tok,
        ))

    def parse_app(self) -> None:
        self.expect_keyword("app")
        tok = self.peek()
        app_id = self.name("application name")
        self.expect_keyword("on")
        node = self.ident("fog node")
        self.expect("lbrace", "'{'")
        props: dict = {}
        tasks: list[TaskSpec] = []
        while True:
            key_tok = self.next()
            if key_tok.kind == "rbrace":
                break
            if key_tok.kind != "ident":
                self.fail(f"expected an app property, got {key_tok.text!r}", key_tok)
            key = key_tok.text
            if key == "level":
                props[key] = self.integer("criticality level")
            elif key == "tasks":
                props[key] = self.integer("task count")
            elif key == "period":
                props[key] = self.time_us("app period")
            elif key == "util":
                props[key] = self.fraction("utilization")
            elif key == "task":
                tasks.append(self.parse_task())
            else:
                self.fail(f"unknown app property {key!r}", key_tok)
        for required in ("level", "tasks", "period", "util"):
            if required not in props:
                self.fail(f"app {app_id!r} is missing {required!r}", tok)
        self.apps.append((
            ApplicationSpec(app_id, node, props["level"], props["tasks"],
                            props["period"], props["util"], tuple(tasks)),
            tok,
        ))

    def parse_task(self) -> TaskSpec:
        task_id = self.name("task name")
        wcet = period = deadline = None
        while True:
            nxt = self.peek()
            if nxt.kind != "ident" or nxt.text not in ("wcet", "period", "deadline"):
                break
            key = self.next().text
            if key == "wcet":
                wcet = self.time_us_frac("task wcet")
            elif key == "period":
                period = self.time_us("task period")
            else:
                deadline = self.time_us("task deadline")
        if wcet is None or period is None:
            self.fail(f"task {task_id!r} needs wcet and period")
        return TaskSpec(task_id, wcet, period, deadline)

    def parse_params(self) -> None:
        self.expect_keyword("params")
        self.expect("lbrace", "'{'")
        while True:
            key_tok = self.next()
            if key_tok.kind == "rbrace":
                break
            if key_tok.kind != "ident":
                self.fail(f"expected a parameter name, got {key_tok.text!r}", key_tok)
            key = key_tok.text
            if key == "d_hop":
                self.params["d_hop"] = self.time_us_frac("d_hop")
            elif key == "weight_base":  # accepted from older files, unused
                self.fraction("weight_base")
            elif key == "seed":  # accepted from older files, unused
                self.integer("seed")
            elif key == "link_rate":
                self.params["link_rate"] = Fraction(self.rate_bps("default link rate"))
            else:
                self.fail(f"unknown parameter {key!r}", key_tok)

    def block(self, keys: set[str]) -> list[tuple[str, int]]:
        """Parse an optional ``{ key <int> ... }`` block of integer properties."""
        out: list[tuple[str, int]] = []
        if self.peek().kind != "lbrace":
            return out
        self.next()
        while True:
            tok = self.next()
            if tok.kind == "rbrace":
                return out
            if tok.kind != "ident" or tok.text not in keys:
                self.fail(f"expected one of {sorted(keys)}, got {tok.text!r}", tok)
            out.append((tok.text, self.integer(tok.text)))

    # -- reference resolution ---------------------------------------------

    def finish(self) -> Scenario:
        params = ModelParams(
            d_hop_us=self.params.get("d_hop", Fraction(2)),
            default_link_rate_bps=int(self.params.get("link_rate", 100_000_000)),
        )

        links: list[LinkSpec] = []
        seen_links: set[tuple[str, str]] = set()
        for src, dst, rate, tok in self.links:
            for end in (src, dst):
                if end not in self.declared:
                    raise UnknownReferenceError(
                        f"{tok.line}:{tok.column}: link {src}->{dst} references "
                        f"undeclared entity {end!r}")
            if (src, dst) in seen_links:
                raise DuplicateIdentifierError(
                    f"{tok.line}:{tok.column}: link {src}->{dst} declared twice")
            seen_links.add((src, dst))
            links.append(LinkSpec(src, dst, int(rate) if rate is not None
                                  else params.default_link_rate_bps))

        seen_streams: set[str] = set()
        for st, tok in self.streams:
            if st.id in seen_streams:
                raise DuplicateIdentifierError(
                    f"{tok.line}:{tok.column}: stream {st.id!r} declared twice")
            seen_streams.add(st.id)
            for ent in (st.src, st.dst, *st.route):
                if ent not in self.declared:
                    raise UnknownReferenceError(
                        f"{tok.line}:{tok.column}: stream {st.id!r} references "
                        f"undeclared entity {ent!r}")

        seen_apps: set[str] = set()
        for app, tok in self.apps:
            if app.id in seen_apps:
                raise DuplicateIdentifierError(
                    f"{tok.line}:{tok.column}: app {app.id!r} declared twice")
            seen_apps.add(app.id)
            if self.declared.get(app.node) != "node":
                raise UnknownReferenceError(
                    f"{tok.line}:{tok.column}: app {app.id!r} must run on a "
                    f"declared fog node, got {app.node!r}")

        return Scenario(
            nodes=tuple(self.nodes),
            switches=tuple(self.switches),
            endpoints=tuple(self.endpoints),
            links=tuple(links),
            streams=tuple(st for st, _ in self.streams),
            applications=tuple(a for a, _ in self.apps),
            params=params,
        )


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document into a :class:`Scenario` with defaults filled."""
    return _Parser(text).parse()
