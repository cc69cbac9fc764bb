"""Smallbank OLTP workload (OLTPBench profile used by the paper).

One million customers, each with a checking and a savings account.  Five
update procedures plus one read-only query, each touching one or two
records and carrying a balance constraint — so unlike YCSB, Smallbank
transactions can abort on *application logic* (insufficient funds), the
"constraints" the paper cites when Fabric/TiDB throughput drops from YCSB
to Smallbank (Figure 6).

Balances are stored big-endian in 8 bytes, so record sizes are small —
the property that lets Quorum *improve* on Smallbank versus 1 kB YCSB
records (Section 5.1.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from ..txn.transaction import Op, OpType, Transaction
from .zipf import ZipfGenerator

if TYPE_CHECKING:  # annotations only: templates() imports it, so a run
    # that certifies nothing never loads repro.analysis
    from ..analysis.robustness import TxnTemplate

__all__ = ["SmallbankConfig", "SmallbankWorkload", "encode_balance",
           "decode_balance"]

INITIAL_BALANCE = 10_000
#: Width of the zero-padded customer number that ends every account key.
CUSTOMER_DIGITS = 9


def encode_balance(amount: int) -> bytes:
    """Store a (possibly negative) balance in 8 bytes."""
    return amount.to_bytes(8, "big", signed=True)


def decode_balance(raw: bytes) -> int:
    if not raw:
        return 0
    return int.from_bytes(raw, "big", signed=True)


@dataclass
class SmallbankConfig:
    num_accounts: int = 1_000_000
    theta: float = 1.0            # Fig. 6: Zipfian with theta = 1
    seed: int = 7
    # OLTPBench default mix (uniform over the five update procedures);
    # set query_proportion > 0 to mix in Balance reads.
    query_proportion: float = 0.0
    # Restrict the mix to a subset of procedures.  The chaos harness uses
    # ("send_payment", "amalgamate") — the two money-*moving* procedures —
    # so the total balance is an invariant the fault run can check.
    procedures: Optional[tuple[str, ...]] = None


class SmallbankWorkload:
    """Generates Smallbank transactions with balance-constraint logic."""

    PROCEDURES = ("transact_savings", "deposit_checking", "send_payment",
                  "write_check", "amalgamate")

    def __init__(self, config: Optional[SmallbankConfig] = None):
        self.config = config or SmallbankConfig()
        procedures = self.config.procedures
        if procedures is not None:
            unknown = [name for name in procedures
                       if name not in self.PROCEDURES]
            if unknown:
                raise ValueError(
                    f"unknown smallbank procedure(s) {unknown}; "
                    f"known: {sorted(self.PROCEDURES)}")
            if not procedures:
                raise ValueError("procedures=() draws nothing; "
                                 "None draws all five")
        # The two procedures that draw two distinct customers.
        paired = {"send_payment", "amalgamate"}.intersection(
            procedures or self.PROCEDURES)
        if paired and self.config.num_accounts < 2:
            raise ValueError(
                f"{sorted(paired)} draw two distinct customers; "
                f"num_accounts={self.config.num_accounts} has fewer")
        self.rng = random.Random(self.config.seed)
        self.zipf = ZipfGenerator(self.config.num_accounts,
                                  self.config.theta, rng=self.rng)

    # -- account keys -----------------------------------------------------------

    def checking(self, customer: int) -> str:
        return "checking" + str(customer).zfill(CUSTOMER_DIGITS)

    def savings(self, customer: int) -> str:
        return "savings" + str(customer).zfill(CUSTOMER_DIGITS)

    @staticmethod
    def atom(key: str) -> tuple[str, str]:
        """``(row kind, customer)`` of an account key."""
        return key[:-CUSTOMER_DIGITS], key[-CUSTOMER_DIGITS:]

    def initial_records(self) -> dict[str, bytes]:
        value = encode_balance(INITIAL_BALANCE)
        records = {}
        for i in range(self.config.num_accounts):
            digits = str(i).zfill(CUSTOMER_DIGITS)
            records["checking" + digits] = value
            records["savings" + digits] = value
        return records

    def _customer(self) -> int:
        return self.zipf.next()

    def _two_customers(self) -> tuple[int, int]:
        a = self._customer()
        b = self._customer()
        while b == a:
            b = self._customer()
        return a, b

    # -- procedures -------------------------------------------------------------------

    def transact_savings(self, client: str) -> Transaction:
        """Add (or deduct) from savings; aborts if it would go negative."""
        cust = self._customer()
        key = self.savings(cust)
        amount = self.rng.randint(-200, 500)

        def logic(reads: dict[str, bytes]):
            balance = decode_balance(reads[key])
            if balance + amount < 0:
                return None  # constraint violation
            return {key: encode_balance(balance + amount)}

        return Transaction(ops=[Op(OpType.UPDATE, key, b"")],
                           client=client, logic=logic)

    def deposit_checking(self, client: str) -> Transaction:
        cust = self._customer()
        key = self.checking(cust)
        amount = self.rng.randint(1, 500)

        def logic(reads: dict[str, bytes]):
            balance = decode_balance(reads[key])
            return {key: encode_balance(balance + amount)}

        return Transaction(ops=[Op(OpType.UPDATE, key, b"")],
                           client=client, logic=logic)

    def send_payment(self, client: str) -> Transaction:
        """Move money between two customers' checking accounts."""
        a, b = self._two_customers()
        src, dst = self.checking(a), self.checking(b)
        amount = self.rng.randint(1, 300)

        def logic(reads: dict[str, bytes]):
            src_balance = decode_balance(reads[src])
            if src_balance < amount:
                return None
            dst_balance = decode_balance(reads[dst])
            return {src: encode_balance(src_balance - amount),
                    dst: encode_balance(dst_balance + amount)}

        return Transaction(ops=[Op(OpType.UPDATE, src, b""),
                                Op(OpType.UPDATE, dst, b"")],
                           client=client, logic=logic)

    def write_check(self, client: str) -> Transaction:
        """Cash a check against checking + savings; overdraft penalty."""
        cust = self._customer()
        check_key, save_key = self.checking(cust), self.savings(cust)
        amount = self.rng.randint(1, 700)

        def logic(reads: dict[str, bytes]):
            total = (decode_balance(reads[check_key])
                     + decode_balance(reads[save_key]))
            penalty = 1 if total < amount else 0
            new_checking = decode_balance(reads[check_key]) - amount - penalty
            return {check_key: encode_balance(new_checking)}

        return Transaction(ops=[Op(OpType.UPDATE, check_key, b""),
                                Op(OpType.READ, save_key)],
                           client=client, logic=logic)

    def amalgamate(self, client: str) -> Transaction:
        """Move all of one customer's funds to another's checking."""
        a, b = self._two_customers()
        sa, ca, cb = self.savings(a), self.checking(a), self.checking(b)

        def logic(reads: dict[str, bytes]):
            total = decode_balance(reads[sa]) + decode_balance(reads[ca])
            dst = decode_balance(reads[cb])
            return {sa: encode_balance(0), ca: encode_balance(0),
                    cb: encode_balance(dst + total)}

        return Transaction(ops=[Op(OpType.UPDATE, sa, b""),
                                Op(OpType.UPDATE, ca, b""),
                                Op(OpType.UPDATE, cb, b"")],
                           client=client, logic=logic)

    def balance(self, client: str) -> Transaction:
        """Read-only: total balance of one customer."""
        cust = self._customer()
        return Transaction(ops=[Op(OpType.READ, self.checking(cust)),
                                Op(OpType.READ, self.savings(cust))],
                           client=client)

    # -- driver interface -------------------------------------------------------------

    def templates(self) -> list[TxnTemplate]:
        """The certifier's templates: one per configured procedure, plus
        ``balance`` when queries are mixed in, each abstracted from one
        transaction a fresh workload of this config draws (this one's
        random stream is left as it is)."""
        from ..analysis.robustness import TxnTemplate
        fresh = SmallbankWorkload(self.config)
        names = list(self.config.procedures or self.PROCEDURES)
        if self.config.query_proportion > 0:
            names.append("balance")
        return [TxnTemplate.of(name, getattr(fresh, name)("client-0"),
                               self.atom)
                for name in names]

    def next_transaction(self, client: str = "client-0") -> Transaction:
        if (self.config.query_proportion > 0
                and self.rng.random() < self.config.query_proportion):
            return self.balance(client)
        procedure = self.rng.choice(self.config.procedures
                                    or self.PROCEDURES)
        return getattr(self, procedure)(client)
