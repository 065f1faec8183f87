"""Seeded ping-capture generator and an independent linear-time oracle.

A capture mimics the ``data/tower*_ping.log`` sniffer export: one packet per
line, ``seq  time  src  dst  ICMP  Echo (ping) request|reply``, tab-separated.
One mobile pings several towers, one (src, dst) path per tower, and the paths
interleave in time.

The generator builds the records as data first and renders the text from
them, so the oracle never parses what the program parses. The oracle pairs
requests and replies with a per-path reply cursor: each request takes the
earliest unconsumed reverse-path reply after it in file order. Replies on a
path are therefore consumed in file order, and a reply that precedes every
still-unpaired request can never be taken, so one forward cursor per path
gives the same pairs as the program's rescan in O(n).

Run as a script, this file writes a capture workload's inputs and the
hashes of the outputs the program must produce for them (see ``prepare``).
The benchmark runs it in a child process, so that generating the captures
and running the oracle never count in the peak memory of the process that
runs the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field

MOBILE = "169.254.118.52"
US_PER_S = 10**6
PERIOD_US = 1_000_000  # each path sends one request per second
N_PATHS = 4  # towers pinged by the mobile, one (src, dst) path each
RECORDS = 40_000  # well-formed records per capture
N_CAPTURES = 3  # captures per workload, analysed in turn
LOSSY = {"missing_share": 0.03, "negatives_per_path": 5, "malformed_share": 0.002}


@dataclass
class Capture:
    """One generated capture: its text plus everything the oracle needs."""

    text: str
    records: list[tuple[int, int, str, str, str]]  # (seq, time_us, src, dst, dir)
    malformed: list[tuple[int, str]] = field(default_factory=list)  # (lineno, message)


def _fmt_time(time_us: int) -> str:
    return f"{time_us // US_PER_S}.{time_us % US_PER_S:06d}"


def _line(seq: int, time_us: int, src: str, dst: str, direction: str) -> str:
    return f"{seq}\t{_fmt_time(time_us)}\t{src}\t{dst}\tICMP\tEcho (ping) {direction}"


def generate_capture(
    rng: random.Random,
    n_records: int,
    missing_share: float = 0.0,
    negatives_per_path: int = 0,
    malformed_share: float = 0.0,
) -> Capture:
    """Generate one capture of about ``n_records`` well-formed records.

    Every request gets a reply 400-1000 us later (1 in 50 takes 2-4 ms), well
    inside the one-second period, so a clean capture pairs in order.
    ``missing_share`` of each path's requests lose their reply; the losses are
    stratified over the path (one per equal slice after its first twentieth)
    so that the pairing shift they cause, and hence the work, varies little
    from seed to seed. ``negatives_per_path`` requests in that first twentieth
    get a reply line right after them stamped 1-60 us earlier, which pairs as
    a negative interval. ``malformed_share`` of the lines are garbage lines
    of two kinds the parser rejects.
    """
    per_path = n_records // (2 * N_PATHS)
    towers = [f"169.254.65.{k + 1}" for k in range(N_PATHS)]
    lead = max(per_path // 20, negatives_per_path)
    n_missing = round(missing_share * per_path)
    events = []  # (sort time, order, src, dst, direction[, stamped time])
    for p, tower in enumerate(towers):
        missing = set()
        if n_missing:
            width = (per_path - lead) / n_missing
            missing = {lead + int(k * width + rng.random() * width) for k in range(n_missing)}
        negative = set(rng.sample(range(lead), negatives_per_path))
        offset = 1000 + p * PERIOD_US // N_PATHS + rng.randrange(100_000)
        for k in range(per_path):
            t_req = offset + k * PERIOD_US + rng.randrange(200)
            events.append((t_req, 0, MOBILE, tower, "request"))
            if k in missing:
                continue
            if k in negative:
                # order 1 keeps the reply right after its request in the file
                events.append((t_req, 1, tower, MOBILE, "reply", t_req - rng.randint(1, 60)))
                continue
            rtt = rng.randint(2000, 4000) if rng.random() < 0.02 else rng.randint(400, 1000)
            events.append((t_req + rtt, 0, tower, MOBILE, "reply"))
    events.sort(key=lambda e: (e[0], e[1]))

    n_bad = round(malformed_share * len(events))
    bad_at = set(rng.sample(range(len(events)), n_bad))
    lines, records, malformed = [], [], []
    seq = 1
    for index, event in enumerate(events):
        time_us = event[5] if len(event) > 5 else event[0]
        if index in bad_at:
            if rng.random() < 0.5:
                lines.append(f"{seq}\t{_fmt_time(time_us)}\t{MOBILE}")
                malformed.append((len(lines), "expected at least 5 fields, got 3"))
            else:
                lines.append(f"{seq}\t{_fmt_time(time_us)}\t{MOBILE}\t{towers[0]}\tICMP\tEcho (ping) pong")
                malformed.append(
                    (len(lines), "trailing token 'pong' is neither request nor reply")
                )
            seq += 1
        _, _, src, dst, direction = event[:5]
        lines.append(_line(seq, time_us, src, dst, direction))
        records.append((seq, time_us, src, dst, direction))
        seq += 1
    return Capture("\n".join(lines) + "\n", records, malformed)


def oracle_pairs(records) -> list[tuple[int, int | None, int | None]]:
    """(request_seq, reply_seq, rtt_us) per request, in request order.

    Replies are queued per (src, dst) in file order; each request advances
    its reverse path's cursor past replies that precede it, then takes the
    next one.
    """
    replies: dict[tuple[str, str], list[int]] = {}
    for index, (_, _, src, dst, direction) in enumerate(records):
        if direction == "reply":
            replies.setdefault((src, dst), []).append(index)
    cursor = dict.fromkeys(replies, 0)
    pairs = []
    for index, (seq, time_us, src, dst, direction) in enumerate(records):
        if direction != "request":
            continue
        path = (dst, src)
        queue = replies.get(path, ())
        at = cursor.get(path, 0)
        while at < len(queue) and queue[at] < index:
            at += 1
        if at < len(queue):
            reply = records[queue[at]]
            pairs.append((seq, reply[0], reply[1] - time_us))
            at += 1
        else:
            pairs.append((seq, None, None))
        cursor[path] = at
    return pairs


def expected_outputs(capture: Capture, baseline: float) -> dict[str, str]:
    """The exact bytes ``analyze-log --baseline`` must write for a capture."""
    pairs = oracle_pairs(capture.records)
    csv = ["request_seq,reply_seq,rtt_us,valid,anomaly"]
    anomalies = []
    valid = []
    for req, rep, rtt in pairs:
        if rtt is None:
            csv.append(f"{req},,,false,missing_reply")
            anomalies.append(f"missing-reply\trequest_seq={req}")
        elif rtt < 0:
            csv.append(f"{req},{rep},{rtt},false,negative")
            anomalies.append(f"negative-interval\trequest_seq={req}\treply_seq={rep}\trtt_us={rtt}")
        else:
            csv.append(f"{req},{rep},{rtt},true,")
            valid.append((req, rtt))
    # anomalies in request order, then malformed lines in line order
    anomalies += [f"malformed-line\tline {n}: {msg}" for n, msg in capture.malformed]
    seconds = [rtt / US_PER_S for _, rtt in valid]
    summary = {
        "min": min(seconds),
        "median": statistics.median(seconds),
        "mean": statistics.fmean(seconds),
        "max": max(seconds),
    }
    stats = [f"count {len(seconds)}"] + [f"{k}_ms {v * 1e3:.3f}" for k, v in summary.items()]
    prop = ["request_seq,prop_s,flagged_negative"]
    for req, rtt in valid:
        value = rtt / US_PER_S - baseline
        prop.append(f"{req},{value:.9e},{str(value < 0).lower()}")
    return {
        "rtt.csv": "\n".join(csv) + "\n",
        "stats.txt": "\n".join(stats) + "\n",
        "discrepancies.txt": "\n".join(anomalies or ["none"]) + "\n",
        "propagation.csv": "\n".join(prop) + "\n",
    }


def expected_digest(text: str, baseline: float) -> str:
    """The manifest's config_digest for an analyze-log run."""
    payload = {"log_sha256": hashlib.sha256(text.encode()).hexdigest(), "baseline": baseline}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def expected_hashes(capture: Capture, baseline: float) -> dict:
    """sha256 of every file ``analyze-log --baseline`` must write, and the manifest digest."""
    outputs = {name: sha256(content) for name, content in expected_outputs(capture, baseline).items()}
    return {"outputs": outputs, "digest": expected_digest(capture.text, baseline)}


def prepare(seed: int, lossy: bool, baseline: float, out) -> None:
    """Write ``capture-<k>.log`` and ``expected.json`` (one ``expected_hashes`` each) to ``out``."""
    rng = random.Random(seed)
    expected = []
    for k in range(N_CAPTURES):
        capture = generate_capture(rng, RECORDS, **(LOSSY if lossy else {}))
        with open(f"{out}/capture-{k}.log", "w") as log:
            log.write(capture.text)
        expected.append(expected_hashes(capture, baseline))
    with open(f"{out}/expected.json", "w") as manifest:
        json.dump(expected, manifest)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=prepare.__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--lossy", action="store_true")
    parser.add_argument("--baseline", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    prepare(args.seed, args.lossy, args.baseline, args.out)
