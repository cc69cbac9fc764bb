"""Workload generators (YCSB, Smallbank) and the closed-loop driver."""

from .driver import DriverConfig, RunResult, run_closed_loop
from .openloop import (OpenLoopConfig, OpenLoopResult, make_schedule,
                       run_open_loop)
from .smallbank import (SmallbankConfig, SmallbankWorkload, decode_balance,
                        encode_balance)
from .ycsb import YcsbConfig, YcsbWorkload
from .zipf import ZipfGenerator

__all__ = [
    "DriverConfig",
    "OpenLoopConfig",
    "OpenLoopResult",
    "RunResult",
    "SmallbankConfig",
    "SmallbankWorkload",
    "YcsbConfig",
    "YcsbWorkload",
    "ZipfGenerator",
    "decode_balance",
    "encode_balance",
    "make_schedule",
    "run_closed_loop",
    "run_open_loop",
]
