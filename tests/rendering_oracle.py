"""The renderers as they were on lists of samples, kept as test oracles.

Each reads one ``RttSample`` at a time and formats one row at a time, with
``statistics`` for the median and mean. The array renderers in
``gsmloc.ingest`` must give the same text and the same floats, byte for
byte and bit for bit.
"""

from __future__ import annotations

import statistics

from gsmloc.errors import EmptyDataError
from gsmloc.ingest import MISSING_REPLY, NEGATIVE, US_PER_S, RttSample, check_kernel_delay

CSV_BOOL = ("false", "true")


def subtract_baseline(samples: list[RttSample], kernel_delay: float) -> list[float]:
    check_kernel_delay(kernel_delay)
    return [s.rtt_us / US_PER_S - kernel_delay for s in samples if s.valid]


def rtt_stats(samples: list[RttSample]) -> dict[str, float]:
    values = [s.rtt_us / US_PER_S for s in samples if s.valid]
    if not values:
        raise EmptyDataError("no valid RTT samples to summarize")
    return {
        "count": len(values),
        "min": min(values),
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "max": max(values),
    }


def rtt_csv(samples: list[RttSample]) -> str:
    lines = ["request_seq,reply_seq,rtt_us,valid,anomaly"]
    for s in samples:
        lines.append(
            f"{s.request_seq},{'' if s.reply_seq is None else s.reply_seq},{'' if s.rtt_us is None else s.rtt_us},"
            f"{CSV_BOOL[s.valid]},{s.anomaly or ''}"
        )
    lines.append("")
    return "\n".join(lines)


def propagation_csv(samples: list[RttSample], kernel_delay: float) -> str:
    check_kernel_delay(kernel_delay)
    lines = ["request_seq,prop_s,flagged_negative"]
    for s in samples:
        if s.valid:
            prop = s.rtt_us / US_PER_S - kernel_delay
            lines.append(f"{s.request_seq},{prop:.9e},{CSV_BOOL[prop < 0]}")
    lines.append("")
    return "\n".join(lines)


def discrepancy_report(samples: list[RttSample], warnings: list[str] | None = None) -> str:
    lines = []
    for s in samples:
        if s.anomaly == NEGATIVE:
            lines.append(f"negative-interval\trequest_seq={s.request_seq}\treply_seq={s.reply_seq}\trtt_us={s.rtt_us}")
        elif s.anomaly == MISSING_REPLY:
            lines.append(f"missing-reply\trequest_seq={s.request_seq}")
    for message in warnings or ():
        lines.append(f"malformed-line\t{message}")
    if not lines:
        lines.append("none")
    lines.append("")
    return "\n".join(lines)
