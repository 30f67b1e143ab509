"""Gantt rendering of network and node schedules (SVG and plain text).

Both renderers list every window/slice exactly once. The text form is a
per-lane timeline listing (stable, diffable, terminal-friendly); the SVG
form draws filled boxes for execution slices and frame windows, transparent
outlines for partition windows and a small arrow head on slices that
continue after preemption.
Output is deterministic: no timestamps, no generated ids.

Each schedule's times are read once, as whole ticks of 1/D us for the
``units.time_base`` D of the schedule; sorting, labels and coordinates
then work on those integers. Python's int division is correctly rounded,
so ``T / D`` is the float ``float(Fraction(T, D))`` gives, and the output
is the same as on ``Fraction``. A network chart lists each port in the
GCL's own order, ``gclsched.port_order``.
"""

from __future__ import annotations

from .gclsched import NetSchedule, port_order
from .nodesched import NodeSchedule
from .units import time_base, to_ticks

_PALETTE = [
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
]


def _fmt(T: int, D: int) -> str:
    # int true division is correctly rounded, so T / D is the float that
    # float(Fraction(T, D)) gives
    return str(T // D) if T % D == 0 else f"{T / D:g}"


def emit_gantt(schedule: NetSchedule | NodeSchedule, format: str = "ascii"
               ) -> str:
    """Render a schedule as an ``ascii`` listing or an ``svg`` document."""
    if format not in ("ascii", "svg"):
        raise ValueError(f"format must be 'ascii' or 'svg', got {format!r}")
    if isinstance(schedule, NetSchedule):
        D, lanes = _net_lanes(schedule)
        span = schedule.cycle_us
        title = f"network schedule, cycle {span} us"
    else:
        D, lanes = _node_lanes(schedule)
        span = schedule.major_frame_us
        title = (f"node {schedule.node} schedule, "
                 f"major frame {span} us")
    if format == "ascii":
        return _ascii(title, span, lanes, D)
    return _svg(title, span, lanes, D)


# Lane model shared by both renderers, times in whole multiples of 1/D us:
#   (lane label, boxes, outlines)
#   box = (start, end, label, color_key, continues)  continues: the job
#   runs again in a later slice (it was preempted)
#   outline = (start, end, label)


def _net_lanes(ns: NetSchedule):
    D = time_base(t for w in ns.windows for t in (w.open_us, w.close_us))
    lanes = [(link_id,
              [(to_ticks(w.open_us, D), to_ticks(w.close_us, D),
                f"{w.stream} #{w.instance}", w.stream, False) for w in wins],
              [])
             for link_id, wins in port_order(ns, D)]
    return D, lanes


def _node_lanes(ns: NodeSchedule):
    D = time_base((t for sl in ns.slices for t in (sl.start_us, sl.end_us)),
                  (t for p in ns.partitions for w in p.windows for t in w))
    per_core: dict[int, list] = {}
    for sl in ns.slices:
        per_core.setdefault(sl.core, []).append(
            (to_ticks(sl.start_us, D), to_ticks(sl.end_us, D), sl))
    lanes = []
    for core in range(ns.cores):
        slices = sorted(per_core.get(core, ()), key=lambda r: r[0])
        # a job split over several slices continues after every slice but
        # its last one
        last_slice: dict[tuple[str, int], int] = {}
        for _, end, sl in slices:
            key = (sl.task, sl.job_index)
            if key not in last_slice or end > last_slice[key]:
                last_slice[key] = end
        boxes = [
            (start, end, f"{sl.task} #{sl.job_index}", sl.task,
             last_slice[(sl.task, sl.job_index)] != end)
            for start, end, sl in slices
        ]
        outlines = [
            (to_ticks(w[0], D), to_ticks(w[1], D), p.id)
            for p in ns.partitions if p.core == core
            for w in p.windows
        ]
        outlines.sort(key=lambda o: (o[0], o[2]))
        lanes.append((f"core {core}", boxes, outlines))
    return D, lanes


def _ascii(title: str, span: int, lanes, D: int) -> str:
    out = [f"== {title} =="]
    out.append(f"   0 {'-' * 50} {span} us")
    for label, boxes, outlines in lanes:
        out.append(f"{label}:")
        for start, end, text in outlines:
            out.append(f"  (partition) [{_fmt(start, D)}, {_fmt(end, D)}) {text}")
        for start, end, text, _key, continues in boxes:
            marks = " >" if continues else ""
            out.append(f"  [{_fmt(start, D)}, {_fmt(end, D)}) {text}{marks}")
        if not boxes and not outlines:
            out.append("  (empty)")
    return "\n".join(out) + "\n"


def _svg(title: str, span: int, lanes, D: int) -> str:
    width, lane_h, pad, label_w = 900.0, 34, 8, 150
    chart_w = width - label_w - 2 * pad
    height = pad * 2 + 22 + lane_h * max(len(lanes), 1)
    scale = chart_w / float(span) if span else 0.0

    def x(T: int) -> float:
        return round(label_w + pad + T / D * scale, 2)

    colors: dict[str, str] = {}

    def color(key: str) -> str:
        if key not in colors:
            colors[key] = _PALETTE[len(colors) % len(_PALETTE)]
        return colors[key]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="{pad}" y="{pad + 10}">{_esc(title)}</text>',
    ]
    y0 = pad + 22
    for i, (label, boxes, outlines) in enumerate(lanes):
        y = y0 + i * lane_h
        parts.append(f'<text x="{pad}" y="{y + lane_h / 2:g}">{_esc(label)}</text>')
        parts.append(
            f'<line x1="{x(0):g}" y1="{y + lane_h - 6}" x2="{x(span * D):g}" '
            f'y2="{y + lane_h - 6}" stroke="#999" stroke-width="0.5"/>')
        for start, end, text in outlines:
            xs = x(start)
            parts.append(
                f'<rect x="{xs:g}" y="{y + 1}" '
                f'width="{max(x(end) - xs, 0.5):g}" height="{lane_h - 6}" '
                f'fill="none" stroke="#555" stroke-dasharray="3,2">'
                f'<title>{_esc(text)}</title></rect>')
        for start, end, text, key, continues in boxes:
            xs, xe = x(start), x(end)
            parts.append(
                f'<rect x="{xs:g}" y="{y + 5}" '
                f'width="{max(xe - xs, 0.8):g}" height="{lane_h - 14}" '
                f'fill="{color(key)}" stroke="#333" stroke-width="0.5">'
                f'<title>{_esc(text)} [{_fmt(start, D)}, {_fmt(end, D)})</title></rect>')
            if continues:  # arrow head: job continues in a later slice
                ym = y + lane_h / 2 - 2
                parts.append(
                    f'<path d="M {xe:g} {ym - 4:g} L {xe + 5:g} {ym:g} '
                    f'L {xe:g} {ym + 4:g} Z" fill="#333"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))
