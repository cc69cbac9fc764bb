"""Build a runnable simulated system from a taxonomy position.

The constructive entry point of the fusion framework: pass a Table 2 name
(or a custom :class:`SystemProfile`) and get back a simulated
:class:`repro.systems.base.TransactionalSystem`.  The four systems the
paper benchmarks map to their dedicated high-fidelity models; everything
else is composed by :class:`repro.systems.hybrids.HybridSystem` from the
same substrates.

>>> from dataclasses import replace
>>> from repro.core import build_system, profile
>>> from repro.sim import Environment
>>> from repro.systems import SystemConfig
>>> env = Environment()
>>> system = build_system(env, "etcd")          # dedicated model
>>> system = build_system(env, "veritas")       # composed hybrid
>>> custom_profile = replace(profile("veritas"), name="my-hybrid")
>>> system = build_system(env, custom_profile)  # your own design point
>>> system.name
'my-hybrid'

The profile's Table 2 **index** column maps to a runnable storage engine
(:mod:`repro.storage.engine`): hybrids build theirs from the profile
directly, dedicated models default to their historical structure and
honour ``SystemConfig.extras["index"]`` as an override — so the Fig. 12
authenticated-vs-plain storage ablation is one config line:

>>> config = SystemConfig(extras={"index": "lsm+mpt"})
>>> system = build_system(env, "quorum", config)   # quorum over a real MPT

The builder validates nothing itself: what an ``extras`` mapping means
on a model (and which mappings it rejects) is decided by
:class:`repro.systems.base.TransactionalSystem` at construction, so this
entry point and a direct ``XSystem(env, config)`` call agree.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Optional, TYPE_CHECKING, Union

from .taxonomy import SystemProfile, profile as lookup_profile

if TYPE_CHECKING:  # pragma: no cover - annotations only; a module-level
    # import would close the storage.engine -> core.taxonomy ->
    # core.__init__ -> builder -> systems -> storage.engine cycle.
    from ..sim.kernel import Environment
    from ..systems.base import SystemConfig, TransactionalSystem

__all__ = ["build_system", "DEDICATED_MODELS", "LazyMapping"]


class LazyMapping(Mapping):
    """A read-only mapping whose items ``load()`` builds on first read.

    ``__getitem__``, ``__iter__`` and ``__len__`` load the items; every
    other ``Mapping`` method (``get``, ``in``, ``items``, ``values``...)
    reads through them.
    """

    def __init__(self, load: Callable[[], dict]):
        self._load = load
        self._items: Optional[dict] = None

    def _loaded(self) -> dict:
        if self._items is None:
            self._items = self._load()
        return self._items

    def __getitem__(self, key):
        return self._loaded()[key]

    def __iter__(self):
        return iter(self._loaded())

    def __len__(self) -> int:
        return len(self._loaded())


def _dedicated_models() -> dict:
    # Imported lazily: systems.hybrids itself imports core.taxonomy, so a
    # module-level import here would close an import cycle.
    from ..systems.ahl import AhlSystem
    from ..systems.etcd import EtcdSystem
    from ..systems.fabric import FabricSystem
    from ..systems.quorum import QuorumSystem
    from ..systems.spanner import SpannerSystem
    from ..systems.tidb import TiDBSystem
    from ..systems.tikv import TikvSystem
    return {
        "ahl": AhlSystem,
        "etcd": EtcdSystem,
        "fabric": FabricSystem,
        "quorum": QuorumSystem,
        "spanner": SpannerSystem,
        "tidb": TiDBSystem,
        "tikv": TikvSystem,
    }


#: Table 2 name -> dedicated model class, resolved on first read.
DEDICATED_MODELS = LazyMapping(_dedicated_models)


def build_system(env: Environment,
                 target: Union[str, SystemProfile],
                 config: Optional[SystemConfig] = None,
                 **kwargs) -> TransactionalSystem:
    """Instantiate a simulated system for ``target``.

    ``target`` is a Table 2 name or a custom :class:`SystemProfile`.
    ``kwargs`` are forwarded to the concrete model (e.g.
    ``consensus="ibft"`` for Quorum, ``spec={...}`` for hybrids).

    ``SystemConfig.extras["scenario"]`` may carry a
    :class:`repro.chaos.scenario.Scenario`: the returned system then has
    a :class:`repro.chaos.injector.ChaosInjector` armed against it (as
    ``system.chaos``) before any data is loaded, so crash scenarios can
    disable WAL checkpointing ahead of the genesis commit.
    """
    from ..systems.hybrids import HybridSystem
    if isinstance(target, SystemProfile):
        sys_obj = HybridSystem(env, target, config, kwargs.get("spec"))
    else:
        name = target.lower()
        model = DEDICATED_MODELS.get(name)
        if model is not None:
            sys_obj = model(env, config, **kwargs)
        else:
            sys_obj = HybridSystem(env, lookup_profile(name), config,
                                   kwargs.get("spec"))
    scenario = sys_obj.config.extras.get("scenario")
    if scenario is not None:
        from ..chaos.injector import ChaosInjector
        sys_obj.chaos = ChaosInjector.for_system(sys_obj, scenario)
        sys_obj.chaos.arm()
    return sys_obj
