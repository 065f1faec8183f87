"""Two earlier ``pair_rtts``, kept as test oracles.

``pair_rtts``, the original, has each request, in order, rescan every
later record for the earliest unconsumed reply on the reverse path; it is
O(n^2) once a reply goes missing. ``fifo_pair_rtts`` is the linear pass
over records that replaced it. ``gsmloc.ingest.pair_rtts`` must give
exactly the same samples as both.
"""

from __future__ import annotations

from collections import deque

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


def fifo_pair_rtts(records: list[PingRecord]) -> list[RttSample]:
    """The same pairs in one forward pass, with a FIFO of pending requests per path.

    A reply pops the oldest pending request on its reverse path; a reply
    with nothing pending is never used. This was ``pair_rtts`` before it
    became a vector pass over columns.
    """
    pending: dict[tuple[str, str], deque[int]] = {}
    samples: list[RttSample] = []
    times: list[int] = []
    for record in records:
        if record.direction == REQUEST:
            pending.setdefault((record.src, record.dst), deque()).append(len(samples))
            samples.append(RttSample(record.seq, None, None, valid=False, anomaly=MISSING_REPLY))
            times.append(record.time_us)
            continue
        queue = pending.get((record.dst, record.src))
        if not queue:
            continue
        slot = queue.popleft()
        rtt_us = record.time_us - times[slot]
        if rtt_us < 0:
            samples[slot] = RttSample(samples[slot].request_seq, record.seq, rtt_us, valid=False, anomaly=NEGATIVE)
        else:
            samples[slot] = RttSample(samples[slot].request_seq, record.seq, rtt_us, valid=True)
    return samples
