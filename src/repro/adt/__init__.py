"""Authenticated data structures: MPT, Merkle Bucket Tree, Merkle B+ tree.

A block's binary Merkle root over its transactions is
:meth:`repro.txn.ledger.Block.txns_merkle_root`.
"""

from .btm import MerkleBTree
from .mbt import MerkleBucketTree
from .mpt import EMPTY_ROOT, MerklePatriciaTrie, NodeStore, verify_proof

__all__ = [
    "EMPTY_ROOT",
    "MerkleBTree",
    "MerkleBucketTree",
    "MerklePatriciaTrie",
    "NodeStore",
    "verify_proof",
]
