"""RSA key generation and raw modular operations.

Textbook RSA with CRT private operations. Padding and hashing live in
:mod:`repro.crypto.signatures`; nothing should call the raw ops directly
except that module and the tests.

**Exponentiation engine.** This module is the one place that picks how
``x^e mod n`` is computed: GMP's ``mpz_powm`` via
:mod:`repro.crypto.accel` whenever ``libgmp`` loaded and passed its
self-test (``accel.AVAILABLE``), CPython's built-in ``pow`` otherwise.
There is no option: both compute the identical integer, so the choice
can never move a protocol byte, and the faster engine that loads is
the one used. Tests pin the ``pow`` engine by patching
``accel.AVAILABLE``. Key generation follows the same choice for its
Miller-Rabin witness rounds (:mod:`repro.crypto.primes`). Private ops
always use the CRT split when the key carries its prime factors. There
is no pure-Python engine: fixed-window and Montgomery walks measured
slower than ``pow`` (DESIGN.md §10.2).
"""

from __future__ import annotations

from repro.common.errors import CryptoError
from repro.crypto import accel
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import KeyPair, RsaPrivateKey, RsaPublicKey
from repro.crypto.primes import generate_prime

DEFAULT_KEY_BITS = 1024
"""Default modulus size. The simulation config may lower this (e.g. to 512)
to keep large sweeps fast; the protocol logic is size-independent."""

_PUBLIC_EXPONENT = 65537


def generate_keypair(drbg: HmacDrbg, bits: int = DEFAULT_KEY_BITS) -> KeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus.

    Primes are drawn from the supplied DRBG, so key generation is
    deterministic per seed. Regenerates primes in the (astronomically
    unlikely) event that ``e`` is not invertible mod ``λ(n)``.
    """
    if bits < 128 or bits % 2 != 0:
        raise CryptoError("modulus size must be an even number of bits >= 128")
    half = bits // 2
    accelerated = accel.AVAILABLE
    while True:
        p = generate_prime(half, drbg, accelerated)
        q = generate_prime(half, drbg, accelerated)
        if p == q:
            continue
        n = p * q
        lam = (p - 1) * (q - 1)
        if lam % _PUBLIC_EXPONENT == 0:
            continue
        d = pow(_PUBLIC_EXPONENT, -1, lam)
        return KeyPair(
            public=RsaPublicKey(n=n, e=_PUBLIC_EXPONENT),
            private=RsaPrivateKey(n=n, d=d, p=p, q=q),
        )


def _powmod(base: int, exp: int, mod: int) -> int:
    """``base^exp mod mod`` on the loaded engine (module docstring)."""
    if accel.AVAILABLE:
        return accel.powmod(base, exp, mod)
    return pow(base, exp, mod)


def private_op(key: RsaPrivateKey, value: int) -> int:
    """Raw private-key operation ``value^d mod n`` (CRT accelerated)."""
    if not 0 <= value < key.n:
        raise CryptoError("value out of range for RSA modulus")
    if key.crt is None:
        return _powmod(value, key.d, key.n)
    # Chinese Remainder Theorem: two half-width exponentiations, ~4x
    # cheaper than one full-width; constants computed once per key
    dp, dq, q_inv = key.crt
    m1 = _powmod(value % key.p, dp, key.p)
    m2 = _powmod(value % key.q, dq, key.q)
    h = (q_inv * (m1 - m2)) % key.p
    return m2 + h * key.q


def public_op(key: RsaPublicKey, value: int) -> int:
    """Raw public-key operation ``value^e mod n``."""
    if not 0 <= value < key.n:
        raise CryptoError("value out of range for RSA modulus")
    return _powmod(value, key.e, key.n)
