"""Tests for the accelerated backend and the exponentiation dispatch.

The GMP engine must compute exactly ``pow(base, exp, mod)`` — the fast
path is transcript-transparent by construction, and these tests are
the construction's proof obligations.
"""

from unittest import mock

from repro.crypto import accel, fastpath
from repro.crypto.drbg import HmacDrbg
from repro.crypto.keys import RsaPrivateKey
from repro.crypto.rsa import generate_keypair, private_op, public_op
from repro.crypto.signatures import sign, verify

KEY_BITS = 512
SEED = 2718


def _keypair(label="modexp"):
    return generate_keypair(HmacDrbg(SEED, label).fork("k"), KEY_BITS)


def _key_tuple(keypair):
    private = keypair.private
    return (private.n, private.d, private.p, private.q)


class TestAccelBackend:
    def test_powmod_matches_pow(self):
        for base, exp, mod in [
            (0, 5, 7), (1, 0, 9), (2, 10, 1),
            (3, 65537, (1 << 64) + 13),
            ((1 << 511) + 7, (1 << 500) + 3, (1 << 512) + 569),
        ]:
            assert accel.powmod(base, exp, mod) == pow(base, exp, mod)

    def test_mr_witness_matches_pure(self):
        for n in ((1 << 127) - 1, (1 << 128) + 1, 3825123056546413051):
            d, r = n - 1, 0
            while d % 2 == 0:
                d, r = d // 2, r + 1
            for a in (2, 3, 5, 7, 11, 0xABCDEF):
                assert accel.mr_witness_passes(a % n, d, n, r) == (
                    accel._py_mr_witness_passes(a % n, d, n, r)
                )

    def test_backend_name_consistent(self):
        assert accel.backend_name() == (
            "gmp-ctypes" if accel.AVAILABLE else "python-pow"
        )


# ----------------------------------------------------------------------
# dispatch: both engines compute the same integers
# ----------------------------------------------------------------------

#: ``accel.AVAILABLE`` values to dispatch under: the ``pow`` engine
#: always, GMP where libgmp loaded
DISPATCH_ENGINES = [False, True] if accel.AVAILABLE else [False]


def _engine(gmp: bool):
    """Pin the exponentiation engine through the ``accel.AVAILABLE`` seam."""
    return mock.patch.object(accel, "AVAILABLE", gmp)


class TestDispatchEquivalence:
    def test_private_op_all_configs(self):
        keypair = _keypair()
        values = [0, 1, 2, keypair.public.n - 1, (1 << 300) % keypair.public.n]
        with _engine(False):
            reference = [private_op(keypair.private, v) for v in values]
        for gmp in DISPATCH_ENGINES:
            with _engine(gmp):
                assert [
                    private_op(keypair.private, v) for v in values
                ] == reference, gmp

    def test_private_op_factorless_all_configs(self):
        keypair = _keypair()
        bare = RsaPrivateKey(n=keypair.private.n, d=keypair.private.d)
        values = [0, 1, 2, keypair.public.n - 1]
        with _engine(False):
            reference = [private_op(bare, v) for v in values]
        for gmp in DISPATCH_ENGINES:
            with _engine(gmp):
                assert [private_op(bare, v) for v in values] == reference

    def test_public_op_all_configs(self):
        keypair = _keypair()
        values = [0, 1, 2, keypair.public.n - 1]
        with _engine(False):
            reference = [public_op(keypair.public, v) for v in values]
        for gmp in DISPATCH_ENGINES:
            with _engine(gmp):
                assert [public_op(keypair.public, v) for v in values] == (
                    reference
                )

    def test_sign_bytes_identical_across_configs(self):
        keypair = _keypair()
        message = {"vid": "vm-7", "nonce": b"n" * 16}
        with _engine(False):
            reference = sign(keypair.private, message)
        for gmp in DISPATCH_ENGINES:
            with _engine(gmp), fastpath.overridden(verify_memo=False):
                signature = sign(keypair.private, message)
                assert signature == reference, gmp
                verify(keypair.public, message, signature)  # raises on mismatch

    def test_keygen_identical_with_accel(self):
        with _engine(False):
            pure = generate_keypair(HmacDrbg(SEED, "kg").fork("a"), KEY_BITS)
        with _engine(accel.AVAILABLE):
            fast = generate_keypair(HmacDrbg(SEED, "kg").fork("a"), KEY_BITS)
        assert _key_tuple(pure) == _key_tuple(fast)
