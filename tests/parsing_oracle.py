"""The original record-per-line ``parse_ping_log``, kept as a test oracle.

Every non-blank line goes through ``parse_ping_record``, and each accepted
line becomes one ``PingRecord``. ``gsmloc.ingest.parse_ping_log`` must give
the same records, in the same order, and the same warnings; ``records_of``
reads its log's records, to compare.
"""

from __future__ import annotations

from gsmloc.ingest import REPLY, REQUEST, PingLog, PingRecord, parse_ping_record


def parse_ping_log(text: str, warnings: list[str] | None = None) -> list[PingRecord]:
    """Parse a whole trace, one record per well-formed line, order preserved.

    Malformed lines are skipped, never fatal; pass a list as ``warnings``
    to collect a message per skipped line. Blank lines are ignored.
    """
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(parse_ping_record(line))
        except ValueError as exc:
            if warnings is not None:
                warnings.append(f"line {lineno}: {exc}")
    return records


def records_of(log: PingLog) -> list[PingRecord]:
    """The log's records, one per row, built from its columns."""
    return [
        PingRecord(seq, time_us, *log.paths[path], REQUEST if is_request else REPLY)
        for seq, time_us, path, is_request in zip(
            log.seq.tolist(), log.time_us.tolist(), log.path.tolist(), log.is_request.tolist()
        )
    ]
