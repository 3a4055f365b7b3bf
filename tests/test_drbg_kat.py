"""Known-answer tests for the HMAC-DRBG stream.

Every key, nonce and jitter in the reproduction is drawn from
:class:`HmacDrbg`, so its byte stream is part of the determinism
contract: a change that moves one byte moves every figure. The values
below were captured from the ``hmac.new``-based implementation and pin
the stream across any rewrite of its internals.
"""

from __future__ import annotations

import hashlib
import hmac
import random

import pytest

from repro.crypto import accel
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair

#: ``HmacDrbg(7, "kat").generate(200)``; every shorter fresh draw is a
#: prefix of it
_STREAM_200 = bytes.fromhex(
    "a33d788d3465619aca23bac125d82425e4723e054f515a2f4f23e8fa0607c451"
    "4a4095b0e014c02d5c4baa35e528c25f7043b2baf28fa9d04d741983a369c15a"
    "69dd395c72823ee479f465786b57fefe35c7e2ea02c13fa3244874fc87cbc6fd"
    "87950e6c5110226966df73c926666fcbff79787b281ab481d3510d2846388706"
    "6cc8cbb9afe706387c065de281df89cca8ecff9800fc45317bebeed6fe143cd7"
    "1aff41ddc742335d795569a664a9a0cd1f7190f7087833b9ee6ad07447504e42"
    "26d25861e0fb3379"
)

_BOUNDS = (1, 2, 3, 255, 256, 257, 10**6, (1 << 100) + 7)
_BELOW = [0, 0, 0, 176, 153, 175, 519172, 816797424367407897299663999811]

_FORK_CHILD = bytes.fromhex(
    "2de657121e19552a6b4e121501bb2703a99922329f0c867995bed425fe617fc0"
)
_FORK_PARENT_AFTER = bytes.fromhex(
    "a7bef1c7bc8dfaeb0029b1b4407f2625646fdb264c5eba065f8c8efb85e02b33"
)

_KEY_P = 0xC02C91F4E4E28371FEF64C318CFFF30FA39459836342D0836A257272F1567683
_KEY_Q = 0xF07A4DD292C68F2738E802DD9B674B936321C04BB62EC03FBCF086686CB6C38F


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 64, 200])
def test_generate_known_answer(n):
    assert HmacDrbg(7, "kat").generate(n) == _STREAM_200[:n]


def test_randint_below_known_answer():
    drbg = HmacDrbg(7, "kat")
    assert [drbg.randint_below(bound) for bound in _BOUNDS] == _BELOW


def test_fork_known_answer():
    parent = HmacDrbg(7, "kat")
    child = parent.fork("child")
    assert child.generate(32) == _FORK_CHILD
    assert parent.generate(32) == _FORK_PARENT_AFTER


@pytest.mark.parametrize("gmp", [False, True], ids=["pow", "gmp"])
def test_keypair_primes_known_answer(gmp, monkeypatch):
    if gmp and not accel.AVAILABLE:
        pytest.skip("libgmp not loadable")
    monkeypatch.setattr(accel, "AVAILABLE", gmp)
    keypair = generate_keypair(HmacDrbg(7, "kat"), 512)
    assert (keypair.private.p, keypair.private.q) == (_KEY_P, _KEY_Q)


def test_hmac_matches_stdlib():
    rng = random.Random(20150613)
    drbg = HmacDrbg(7, "kat")
    for length in (0, 1, 31, 32, 33, 55, 56, 63, 64, 65, 119, 128, 200):
        for _ in range(8):
            key = rng.randbytes(32)
            data = rng.randbytes(length)
            assert drbg._hmac(key, data) == (
                hmac.new(key, data, hashlib.sha256).digest()
            )
