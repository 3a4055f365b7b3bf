"""Raw-speed floor of the crypto and event-engine hot paths.

Times both exponentiation engines (built-in ``pow`` baseline and the
accelerated GMP backend) for signing and verification, key-pool
prefill (serial pure vs serial accelerated), and the flattened
discrete-event engine — the three floors every attestation round
bottoms out on.

The code uses GMP wherever ``libgmp`` loads, so the ``pow`` side is
pinned through the ``accel.AVAILABLE`` seam, as the tests pin it. Both
engines are transcript-transparent (identical integers, identical
bytes; ``tests/test_fastpath_determinism.py`` pins the engine matrix),
so this harness measures *only* wall-clock. Without ``libgmp`` both
sides run ``pow`` and the gate fails.

Outputs ``BENCH_crypto_floor.json`` (repo root by default) and appends
a table to ``bench_tables.txt``. The ``--min-speedup`` gate fails the
run (exit 1) unless, versus the same-run pure baselines:

- best sign throughput is ≥ 3x the ``pow``-CRT baseline, and
- accelerated pool prefill is ≥ 4x the serial pure-python prefill

(the PR's acceptance bar; ``--min-speedup`` scales both targets, 0
disables the gate). ``--quick`` shrinks the sign/engine iteration
counts but keeps the keygen profile, because keys/sec over too few
keys is dominated by candidate-count luck rather than throughput.

Usage::

    PYTHONPATH=src python benchmarks/bench_crypto_floor.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _tables import print_table  # noqa: E402

from repro.crypto import accel, fastpath  # noqa: E402
from repro.crypto.drbg import HmacDrbg  # noqa: E402
from repro.crypto.keypool import KeyPool  # noqa: E402
from repro.crypto.rsa import generate_keypair  # noqa: E402
from repro.crypto.signatures import clear_verify_memo, sign, verify  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402

SEED = 13

SIGN_TARGET = 3.0
"""Acceptance bar: best sign ops/sec over the ``pow``-CRT baseline."""

PREFILL_TARGET = 4.0
"""Acceptance bar: accelerated prefill keys/sec over serial pure prefill."""


def _timed(fn, n: int) -> dict:
    start = time.perf_counter()
    for _ in range(n):
        fn()
    seconds = time.perf_counter() - start
    return {
        "n": n,
        "seconds": round(seconds, 6),
        "ops_per_sec": round(n / seconds, 3) if seconds > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# exponentiation engines: sign / verify
# ----------------------------------------------------------------------

#: variant name -> whether it runs GMP (ordered slowest-first for the table)
SIGN_VARIANTS = {
    "pow": False,
    "accel": True,
}


def _engine(gmp: bool):
    """Pin the exponentiation engine; GMP only where libgmp loaded."""
    return mock.patch.object(accel, "AVAILABLE", gmp and accel.AVAILABLE)


def bench_sign_variants(key_bits: int, n: int) -> dict:
    keypair = generate_keypair(HmacDrbg(SEED, "floor-sig").fork("k"), key_bits)
    message = {"vid": "vm-1", "measurements": {"m": 1.0}, "nonce": b"x" * 16}
    reference = sign(keypair.private, message)
    results: dict = {}
    iterations = {"pow": n, "accel": n * 2}
    for name, gmp in SIGN_VARIANTS.items():
        with _engine(gmp):
            assert sign(keypair.private, message) == reference
            results[name] = _timed(
                lambda: sign(keypair.private, message), iterations[name]
            )
    with _engine(False), fastpath.overridden(verify_memo=False):
        results["verify_pow"] = _timed(
            lambda: verify(keypair.public, message, reference), n
        )
    with _engine(True), fastpath.overridden(verify_memo=False):
        results["verify_accel"] = _timed(
            lambda: verify(keypair.public, message, reference), n
        )
    return results


# ----------------------------------------------------------------------
# keygen: serial pure vs serial accelerated
# ----------------------------------------------------------------------


def _prefill_rate(count: int, key_bits: int, gmp: bool) -> dict:
    """Wall-clock a cold KeyPool prefill on one engine."""
    with _engine(gmp):
        pool = KeyPool(HmacDrbg(SEED, "floor-pool"), key_bits)
        start = time.perf_counter()
        pool.prefill(count)
        seconds = time.perf_counter() - start
    return {
        "n": count,
        "seconds": round(seconds, 6),
        "keys_per_sec": round(count / seconds, 3) if seconds > 0 else 0.0,
    }


def bench_keygen(key_bits: int, n_keys: int) -> dict:
    return {
        "serial_pure": _prefill_rate(n_keys, key_bits, gmp=False),
        "serial_accel": _prefill_rate(n_keys, key_bits, gmp=True),
    }


# ----------------------------------------------------------------------
# event engine
# ----------------------------------------------------------------------


def bench_engine(total_events: int) -> dict:
    engine = Engine()
    sink = []

    def burst() -> None:
        schedule = engine.schedule
        for i in range(1000):
            schedule(float(i % 97), sink.append, i)
        engine.run()
        sink.clear()

    plain = _timed(burst, max(1, total_events // 1000))
    fired = engine.events_fired
    plain["n"] = fired
    plain["ops_per_sec"] = round(fired / plain["seconds"], 3)

    cancel_engine = Engine()

    def cancel_heavy() -> None:
        # 60% cancels: drives the in-place compaction path
        handles = [
            cancel_engine.schedule(float(i % 89), sink.append, i)
            for i in range(1000)
        ]
        for handle in handles[: 600]:
            cancel_engine.cancel(handle)
        cancel_engine.run()
        sink.clear()

    cancels = _timed(cancel_heavy, max(1, total_events // 2000))
    cancels["n"] = cancel_engine.events_fired
    cancels["ops_per_sec"] = round(cancels["n"] / cancels["seconds"], 3)
    return {"events": plain, "events_cancel_heavy": cancels}


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------


def run(args: argparse.Namespace) -> dict:
    n_sign = 300 if args.quick else 1500
    n_keys = args.keys
    engine_events = 100_000 if args.quick else 500_000

    fastpath.reset_stats()
    clear_verify_memo()
    results: dict = {}
    results["sign"] = bench_sign_variants(args.key_bits, n_sign)
    results["keygen"] = bench_keygen(args.key_bits, n_keys)
    results["engine"] = bench_engine(engine_events)

    best_sign = max(
        results["sign"][name]["ops_per_sec"] for name in SIGN_VARIANTS
    )
    results["sign_speedup"] = round(
        best_sign / results["sign"]["pow"]["ops_per_sec"], 2
    )
    results["prefill_speedup"] = round(
        results["keygen"]["serial_accel"]["keys_per_sec"]
        / results["keygen"]["serial_pure"]["keys_per_sec"],
        2,
    )
    return results


def render_rows(results: dict) -> list[list]:
    rows = []
    for name in SIGN_VARIANTS:
        entry = results["sign"][name]
        rows.append([f"RSA sign ({name})", f"{entry['ops_per_sec']:,.1f}",
                     entry["n"], f"{entry['seconds']:.3f}"])
    for name in ("verify_pow", "verify_accel"):
        entry = results["sign"][name]
        rows.append([f"RSA {name.replace('_', ' ')}",
                     f"{entry['ops_per_sec']:,.1f}",
                     entry["n"], f"{entry['seconds']:.3f}"])
    for name, entry in results["keygen"].items():
        rows.append([f"keypool prefill ({name})",
                     f"{entry['keys_per_sec']:,.1f}",
                     entry["n"], f"{entry['seconds']:.3f}"])
    for name, entry in results["engine"].items():
        rows.append([f"engine {name.replace('_', ' ')}",
                     f"{entry['ops_per_sec']:,.1f}",
                     entry["n"], f"{entry['seconds']:.3f}"])
    rows.append(["best sign / pow-CRT sign speedup",
                 f"{results['sign_speedup']:.2f}x", "", ""])
    rows.append(["accel prefill / serial pure prefill speedup",
                 f"{results['prefill_speedup']:.2f}x", "", ""])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sign/engine iteration counts (CI smoke); "
                             "the keygen profile is kept at full size")
    parser.add_argument("--key-bits", type=int, default=1024,
                        help="RSA modulus size (default 1024, matching the "
                             "paper's key size and BENCH_wallclock.json)")
    parser.add_argument("--keys", type=int, default=16,
                        help="keys per prefill measurement (default 16)")
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_crypto_floor.json"),
                        help="machine-readable output path")
    parser.add_argument("--tables", default=str(REPO_ROOT / "bench_tables.txt"),
                        help="append the human table here ('' to skip)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="scales the acceptance targets (3x sign, 4x "
                             "accel prefill); 0 disables the gate")
    args = parser.parse_args(argv)

    results = run(args)
    title = (
        f"Crypto floor (ops/sec, {args.key_bits}-bit keys, "
        f"backend={accel.backend_name()}"
        f"{', quick' if args.quick else ''})"
    )
    headers = ["hot path", "ops/sec", "n", "seconds"]
    rows = render_rows(results)
    print_table(title, headers, rows)

    payload = {
        "benchmark": "crypto_floor",
        "seed": SEED,
        "key_bits": args.key_bits,
        "quick": args.quick,
        "python": sys.version.split()[0],
        "accel": {"available": accel.AVAILABLE,
                  "backend": accel.backend_name()},
        "fastpath_stats": fastpath.stats(),
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if args.tables:
        with open(args.tables, "a") as fh:
            fh.write(f"\n=== {title} ===\n")
            widths = [max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
                      for i in range(len(headers))]
            fh.write("  ".join(str(h).ljust(w)
                               for h, w in zip(headers, widths)) + "\n")
            for row in rows:
                fh.write("  ".join(str(c).ljust(w)
                                   for c, w in zip(row, widths)) + "\n")
        print(f"appended table to {args.tables}")

    if args.min_speedup:
        failures = []
        if results["sign_speedup"] < SIGN_TARGET * args.min_speedup:
            failures.append(
                f"sign speedup {results['sign_speedup']:.2f}x < required "
                f"{SIGN_TARGET * args.min_speedup:.1f}x"
            )
        if results["prefill_speedup"] < PREFILL_TARGET * args.min_speedup:
            failures.append(
                f"accel prefill speedup {results['prefill_speedup']:.2f}x < "
                f"required {PREFILL_TARGET * args.min_speedup:.1f}x"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
