"""Shared helpers for the figure-regeneration benchmarks.

Every benchmark prints the rows/series of the paper artifact it
regenerates, and asserts the paper's qualitative *shape* (who wins, by
roughly what factor, where crossovers fall). Absolute numbers differ
from the paper's physical testbed by design — see DESIGN.md §2.
"""

from __future__ import annotations

import zlib


def launch_seed(image: str, flavor: str) -> int:
    """Cloud seed for one launch-matrix cell, stable across processes.

    ``hash()`` of a str tuple changes with ``PYTHONHASHSEED``, which made
    the launch tables differ from run to run; CRC-32 does not.
    """
    return zlib.crc32(f"{image}/{flavor}".encode()) % 1000


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render one paper-style results table to stdout."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(header_line)
    print("-" * len(header_line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


def print_telemetry_table(title: str, telemetry) -> None:
    """Render a traced run's per-leg latency breakdown (simulated ms).

    Consumes any :class:`repro.telemetry.Telemetry` hub and prints one
    row per span name from the tracer's aggregate summary — the
    protocol-leg view (Q1/Q2/Q3, appraisal, interpretation) that
    complements the wall-clock numbers of the overhead bench.
    """
    from repro.telemetry import SUMMARY_HEADERS, summary_rows

    rows = summary_rows(telemetry)
    if not rows:
        print(f"\n=== {title} ===\n(no spans recorded)")
        return
    print_table(title, SUMMARY_HEADERS, rows)
