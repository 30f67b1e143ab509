"""Route resolution and the analytic delay model.

The forwarding model is cut-through: a switch starts relaying a frame after
a fixed per-hop latency ``d_hop`` instead of buffering the whole frame, so a
contention-free stream crossing ``h`` links arrives after

    transmission_time + h * d_hop

which is the lower bound any schedule must respect. Wire propagation is
folded into ``d_hop``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FogweaverError
from .scenario import LinkSpec, ModelParams, Scenario, StreamSpec
from .units import GRID_US


@dataclass(frozen=True)
class Route:
    """The resolved link sequence of a stream."""

    links: tuple[LinkSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))

    @property
    def hops(self) -> int:
        return len(self.links)


def resolve_route(s: Scenario, st: StreamSpec) -> Route:
    """Map a stream's entity path onto declared links."""
    links = []
    for a, b in zip(st.route, st.route[1:]):
        link = s.link(a, b)
        if link is None:
            raise FogweaverError(f"stream {st.id!r}: no declared link {a} -> {b}")
        links.append(link)
    return Route(tuple(links))


def transmission_time(size_bytes: int, rate_bps: int) -> Fraction:
    """Wire time of a frame in microseconds, rounded up to the 0.1 us grid."""
    if size_bytes <= 0:
        raise ValueError(f"size must be positive, got {size_bytes}")
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    exact_us = Fraction(size_bytes * 8 * 10**6, rate_bps)
    return Fraction(math.ceil(exact_us / GRID_US)) * GRID_US


def lower_bound_delay(st: StreamSpec, r: Route, p: ModelParams) -> Fraction:
    """Contention-free end-to-end delay of a stream over its route."""
    slowest = min(l.rate_bps for l in r.links)
    return transmission_time(st.size_bytes, slowest) + r.hops * p.d_hop_us
