"""Cryptographic primitives: real SHA-256 digests.

Signing and signature checks are modelled only as time, by the cost
constants in :class:`repro.sim.costs.CostModel` (``sig_verify``,
``fabric_endorse``, ``fabric_vscc_per_endorsement``).
"""

from .hashing import HASH_SIZE, NULL_HASH, hash_concat, hash_pair, sha256

__all__ = [
    "HASH_SIZE",
    "NULL_HASH",
    "hash_concat",
    "hash_pair",
    "sha256",
]
