"""Deterministic random bit generator (HMAC-DRBG, simplified).

Key generation must be reproducible under a seed for the figures to
regenerate identically, yet unpredictable-looking enough to exercise the
real code paths (distinct servers get distinct keys; nonces never repeat).
This is a compact HMAC-SHA256 construction in the spirit of NIST SP
800-90A's HMAC_DRBG: state ``(K, V)`` updated through HMAC invocations.

Keygen is its heaviest user: about 550 draws of six HMACs each per
1024-bit key, so under the GMP engine the DRBG is a third or more of
keygen. So :meth:`HmacDrbg._hmac` computes RFC 2104 HMAC
directly from two SHA-256 calls over precomputed pad tables instead of
building an ``hmac`` object per call; the output is the same bytes.
"""

from __future__ import annotations

import hashlib

_sha256 = hashlib.sha256

#: ``bytes.translate`` tables that XOR every byte with the HMAC pads
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))

#: zero fill from a 32-byte key up to SHA-256's 64-byte block
_KEY_FILL = bytes(32)


class HmacDrbg:
    """HMAC-SHA256 based deterministic byte stream.

    Not certified randomness — deterministic by design. Within the
    simulation it plays the role of the Trust Module's hardware RNG.
    """

    def __init__(self, seed: bytes | int, personalization: str = ""):
        if isinstance(seed, int):
            seed = seed.to_bytes(16, "big", signed=False)
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._reseed(seed + personalization.encode("utf-8"))

    def _hmac(self, key: bytes, data: bytes) -> bytes:
        """HMAC-SHA256, byte-identical to ``hmac.new(key, data, sha256)``.

        Valid only because ``K`` is always 32 bytes (the all-zero start
        or a SHA-256 output): a key under the 64-byte block is
        zero-padded, never pre-hashed, so the padded block is fixed.
        """
        block = key + _KEY_FILL
        inner = _sha256(block.translate(_IPAD) + data).digest()
        return _sha256(block.translate(_OPAD) + inner).digest()

    def _reseed(self, data: bytes) -> None:
        self._key = self._hmac(self._key, self._value + b"\x00" + data)
        self._value = self._hmac(self._key, self._value)
        self._key = self._hmac(self._key, self._value + b"\x01" + data)
        self._value = self._hmac(self._key, self._value)

    def generate(self, n: int) -> bytes:
        """Produce ``n`` pseudo-random bytes and advance the state."""
        output = b""
        while len(output) < n:
            self._value = self._hmac(self._key, self._value)
            output += self._value
        self._reseed(b"")
        return output[:n]

    def randint_bits(self, bits: int) -> int:
        """Return a uniformly distributed integer with at most ``bits`` bits."""
        nbytes = (bits + 7) // 8
        raw = int.from_bytes(self.generate(nbytes), "big")
        excess = nbytes * 8 - bits
        return raw >> excess

    def randint_below(self, bound: int) -> int:
        """Return an integer uniform in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        while True:
            candidate = self.randint_bits(bits)
            if candidate < bound:
                return candidate

    def fork(self, label: str) -> "HmacDrbg":
        """Derive an independent child generator keyed by ``label``."""
        return HmacDrbg(self.generate(32), personalization=label)
