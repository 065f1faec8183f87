"""The original quadratic ``pair_rtts``, kept as a test oracle.

Each request, in order, rescans every later record for the earliest
unconsumed reply on the reverse path. It is O(n^2) once a reply goes
missing; ``gsmloc.ingest.pair_rtts`` must give exactly the same samples.
"""

from __future__ import annotations

from gsmloc.ingest import MISSING_REPLY, NEGATIVE, REPLY, REQUEST, PingRecord, RttSample


def pair_rtts(records: list[PingRecord]) -> list[RttSample]:
    """Pair each request with the next unconsumed reply on the reverse path.

    Produces one sample per request, in request order. A reply earlier than
    its request gives valid=False with a NEGATIVE anomaly; a request with no
    following reverse-path reply gives valid=False with MISSING_REPLY.
    Every record participates in at most one pair.
    """
    consumed = [False] * len(records)
    samples = []
    for i, record in enumerate(records):
        if record.direction != REQUEST:
            continue
        reply = None
        for j in range(i + 1, len(records)):
            candidate = records[j]
            if (
                not consumed[j]
                and candidate.direction == REPLY
                and candidate.src == record.dst
                and candidate.dst == record.src
            ):
                reply = candidate
                consumed[j] = True
                break
        if reply is None:
            samples.append(
                RttSample(record.seq, None, None, valid=False, anomaly=MISSING_REPLY)
            )
            continue
        rtt_us = reply.time_us - record.time_us
        if rtt_us < 0:
            samples.append(
                RttSample(record.seq, reply.seq, rtt_us, valid=False, anomaly=NEGATIVE)
            )
        else:
            samples.append(RttSample(record.seq, reply.seq, rtt_us, valid=True))
    return samples
