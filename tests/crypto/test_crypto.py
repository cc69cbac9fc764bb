"""Tests for the SHA-256 digest helpers."""

import pytest

from repro.crypto import HASH_SIZE, NULL_HASH, hash_concat, hash_pair, sha256


def test_sha256_known_vector():
    # SHA-256 of empty input is a fixed, well-known digest.
    assert sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_sha256_type_check():
    with pytest.raises(TypeError):
        sha256("not bytes")


def test_hash_pair_is_order_sensitive():
    a, b = sha256(b"a"), sha256(b"b")
    assert hash_pair(a, b) != hash_pair(b, a)


def test_hash_concat_length_prefix_disambiguates():
    # ("ab", "c") must differ from ("a", "bc") — raw concatenation would
    # collide, the length prefix prevents it.
    assert hash_concat(b"ab", b"c") != hash_concat(b"a", b"bc")


def test_null_hash_shape():
    assert len(NULL_HASH) == HASH_SIZE
    assert NULL_HASH == b"\x00" * 32
