"""Process-wide configuration for the crypto fast paths.

Every optimisation the crypto layer performs — attestation-key pooling,
the signature-verification memo, derived-subkey caching, cached wire
encodings — is transparent by construction: it may change *when* work
happens, never *what* bytes the protocol produces. This module is the
single switchboard that turns each fast path on or off, so the
transcript-equivalence tests can run the same seed with everything
disabled and prove byte-for-byte identical quotes, signatures and
audit logs (see ``tests/test_fastpath_determinism.py``).

The exponentiation engine is not a switch here: :mod:`repro.crypto.rsa`
uses GMP whenever ``libgmp`` loaded (``accel.AVAILABLE``) and ``pow``
otherwise, since both compute the same integers.

The config is process-global on purpose: the caches it governs
(notably the verification memo) are shared across endpoints, and the
simulation never runs two differently-configured clouds that must
disagree about whether a pure memo is allowed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator

from repro.common.errors import ConfigurationError


@dataclass
class FastPathConfig:
    """Feature flags for the crypto fast paths."""

    #: pre-generate attestation session keypairs in the Trust Module
    #: (same DRBG fork streams, pop order = session order)
    key_pool: bool = True
    #: memoise *successful* signature verifications keyed by
    #: (modulus, exponent, message digest, signature)
    verify_memo: bool = True
    #: cache the HKDF-derived enc/MAC subkeys on each SymmetricKey
    cache_symmetric_subkeys: bool = True
    #: cache per-endpoint encoded certificates / hello frames
    cache_wire_encodings: bool = True


_CONFIG = FastPathConfig()

#: process-global cache statistics (the verification memo has no
#: telemetry hub in scope; the Trust Module's key pool additionally
#: reports per-cloud counters through its own hub)
_STATS: dict[str, int] = {}


def config() -> FastPathConfig:
    """The active fast-path configuration."""
    return _CONFIG


def _check_names(names) -> None:
    """Reject unknown option names before any of them is applied."""
    valid = {f.name for f in fields(FastPathConfig)}
    for name in names:
        if name not in valid:
            raise ConfigurationError(f"unknown fast-path option {name!r}")


def configure(**overrides: object) -> FastPathConfig:
    """Update fields of the active configuration in place.

    Every name is validated before any is applied, so a call naming an
    unknown option changes nothing. Toggling the verification memo
    clears it, so stale entries never outlive the policy that admitted
    them.
    """
    _check_names(overrides)
    for name, value in overrides.items():
        setattr(_CONFIG, name, value)
    if "verify_memo" in overrides:
        from repro.crypto import signatures

        signatures.clear_verify_memo()
    return _CONFIG


@contextmanager
def overridden(**overrides: object) -> Iterator[FastPathConfig]:
    """Temporarily reconfigure; restores the previous values on exit."""
    _check_names(overrides)
    previous = {name: getattr(_CONFIG, name) for name in overrides}
    configure(**overrides)
    try:
        yield _CONFIG
    finally:
        configure(**previous)


def all_disabled(**extra: object):
    """Context manager: every fast path off (the pre-optimisation path)."""
    return overridden(
        key_pool=False,
        verify_memo=False,
        cache_symmetric_subkeys=False,
        cache_wire_encodings=False,
        **extra,
    )


def record(stat: str, amount: int = 1) -> None:
    """Bump one process-global cache statistic."""
    _STATS[stat] = _STATS.get(stat, 0) + amount


def stats() -> dict[str, int]:
    """Sorted copy of the process-global cache statistics."""
    return dict(sorted(_STATS.items()))


def reset_stats() -> None:
    """Zero the statistics (benchmark harness bookends)."""
    _STATS.clear()
