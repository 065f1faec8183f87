"""The original record-per-line ``parse_ping_log``, kept as a test oracle.

Every non-blank line goes through ``parse_ping_record``, and each accepted
line becomes one ``PingRecord``. ``gsmloc.ingest.parse_ping_log`` must give
the same records, in the same order, and the same warnings.
"""

from __future__ import annotations

from gsmloc.ingest import PingRecord, parse_ping_record


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
