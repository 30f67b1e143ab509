#!/usr/bin/env python3
"""TESLA-style authentication overlay on the UC1 streams.

Securing a stream costs three things: 32 bytes of MAC + key per frame, a
sign/verify task pair on the end systems, and - dominating everything -
the receiver waiting for the key disclosure one key interval after the
sending interval before it can authenticate. This demo reschedules the
grown frames, applies the disclosure-wait model and reports the per-stream
delay penalty.
"""

from fogweaver import (
    TeslaConfig,
    apply_tesla,
    parse_scenario,
    secured_delay,
    synthesize_gcl,
    tesla_overhead_report,
)
from fogweaver.fixtures import uc1_text

s = parse_scenario(uc1_text())
ns = synthesize_gcl(s)
cfg = TeslaConfig()  # 16 B MACs, 16 B keys, 1 ms key interval, d = 1

overlay, secured = apply_tesla(s, ns, cfg)
print(f"{len(secured.streams)} secured streams, "
      f"{len(overlay.tasks)} security tasks "
      f"({sum(1 for t in overlay.tasks if not t.hosted_on_node)} of them on "
      f"bare sensors)\n")

secured_ns = synthesize_gcl(secured)
before = {st.id: ns.per_stream[st.id].ed_us for st in s.streams}
after = {
    st.id: secured_delay(secured.stream(st.id),
                         secured_ns.per_stream[st.id].ed_us, cfg,
                         send_offset_us=secured_ns.offsets[st.id])
    for st in s.streams
}
report = tesla_overhead_report(before, after)

print(f"{'stream':10s} {'before':>8s} {'after':>8s} {'delta':>8s}")
for sid, ed_before, ed_after, delta in report.streams:
    print(f"{sid:10s} {float(ed_before):8.1f} {float(ed_after):8.1f} "
          f"{float(delta):8.1f}")
print(f"\naverage delay increase: {float(report.avg_delta_us):.1f} us")

print("\nthe wait scales with the disclosure delay d:")
stream = s.stream("S1 data")
for d in (1, 2, 3):
    ed = secured_delay(stream, before["S1 data"],
                       TeslaConfig(disclosure_delay=d))
    print(f"  d = {d}: {float(ed):7.1f} us")
