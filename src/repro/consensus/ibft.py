"""Istanbul BFT (Quorum's BFT protocol).

IBFT shares PBFT's three-phase core but is optimized for blockchains
(Section 5.2.3): consensus metadata is embedded in the ledger (saving the
PBFT checkpointing traffic), validators can change dynamically, and
proposals are *blocks* produced at a fixed interval.  We model it as a
PBFT subclass with block-interval pacing, no checkpoint traffic, and a
round-change (view-change) sensitivity that grows with quorum size — the
source of the larger throughput variance the paper observes at high f
(Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.costs import CostModel, DEFAULT_COSTS
from ..sim.kernel import Environment
from ..sim.network import Network
from ..sim.node import Node
from ..sim.rng import RngRegistry
from .pbft import PbftConfig, PbftGroup, PbftReplica

__all__ = ["IbftConfig", "IbftReplica", "IbftGroup"]


@dataclass
class IbftConfig(PbftConfig):
    """IBFT adds block pacing and round-change sensitivity."""

    block_interval: float = 0.05
    round_timeout: float = 0.25
    message_kind: str = "ibft"

    def __post_init__(self):
        # Blocks are cut on the interval, not on a small batch window.
        self.batch_window = self.block_interval
        self.max_batch = 2048


class IbftReplica(PbftReplica):
    """PBFT replica with IBFT block pacing.

    Round-change behaviour: when the prepare quorum for a block straggles
    past ``round_timeout`` (more likely with larger quorums under network
    jitter), the round restarts after a pause — modelled by the liveness
    timer inherited from PBFT with the tighter IBFT timeout.

    The wake-on-proposal primary loop is inherited from
    :class:`PbftReplica` unchanged: with ``batch_window`` pinned to
    ``block_interval``, an idle IBFT proposer parks on its
    ``WakeableQueue`` and wakes once per heartbeat instead of every
    block interval, while blocks still cut on the identical interval
    grid.
    """

    def __init__(self, env: Environment, node: Node, peers: list[str],
                 network: Network, costs: CostModel = DEFAULT_COSTS,
                 config: Optional[IbftConfig] = None,
                 rng: Optional[RngRegistry] = None):
        super().__init__(env, node, peers, network, costs,
                         config or IbftConfig(), rng)

    # IBFT embeds consensus metadata in the block header: no checkpoint
    # messages.  (PBFT checkpointing is not simulated either, so the
    # difference shows up only in the message-size accounting.)
    BLOCK_HEADER_EXTRA = 0  # vs PBFT's separate checkpoint certificates


class IbftGroup(PbftGroup):
    """An IBFT validator set."""

    def __init__(self, env: Environment, nodes: list[Node], network: Network,
                 costs: CostModel = DEFAULT_COSTS,
                 config: Optional[IbftConfig] = None,
                 rng: Optional[RngRegistry] = None):
        config = config or IbftConfig()
        self.env = env
        names = [n.name for n in nodes]
        self.replicas = {
            n.name: IbftReplica(env, n, names, network, costs, config, rng)
            for n in nodes
        }
