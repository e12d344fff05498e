"""Task co-location schedulers.

The paper pairs its mixture-of-experts memory predictor with a simple
co-location policy and compares the result against several alternatives
(Section 5.4).  This package provides all of them behind the same
scheduler interface expected by :class:`repro.cluster.ClusterSimulator`:

* :class:`~repro.scheduling.isolated.IsolatedScheduler` — the baseline that
  runs applications one by one with exclusive use of the cluster;
* :class:`~repro.scheduling.pairwise.PairwiseScheduler` — co-locates at most
  two applications per node, giving the newcomer all free memory;
* :class:`~repro.scheduling.colocation.MemoryAwareCoLocationScheduler` — the
  generic memory-aware dispatcher, parameterised by a memory estimator;
* factory helpers building that dispatcher with the paper's estimator
  (:func:`make_moe_scheduler`), the ideal predictor
  (:func:`make_oracle_scheduler`), the Quasar-like classification estimator
  (:func:`make_quasar_scheduler`) and the unified single-model estimators
  (:func:`make_unified_scheduler`);
* :class:`~repro.scheduling.online_search.OnlineSearchScheduler` — runtime
  gradient-descent search for the right allocation (Section 6.5).

Scheme registry
---------------
The experiment and API layers look schedulers up by *scheme name* through
the plugin registry (:mod:`repro.scheduling.registry`): every scheme above
is pre-registered, and third-party policies join with
``@register_scheme("name", requires="moe"|"dataset"|None)`` — no edits to
the experiment core required.

Heterogeneity audit
-------------------
Every policy here was audited for homogeneous-cluster assumptions when the
scenario subsystem introduced mixed topologies
(:mod:`repro.cluster.topologies`).  All capacity decisions resolve against
the *individual* node — ``Node.can_host`` admission, free-reserved-memory
ranking (``NodeFeatures.free_gb`` is per-node headroom, so the minimum-free
mask remains valid with mixed RAM sizes),
Pairwise's first-executor heap (a fraction of *that* node's RAM), the
isolated baseline's whole-node reservations, and the OOM re-run sizing
(``data_for_budget_gb`` against the chosen idle node's RAM).  The one
genuinely homogeneous constant was the Spark dynamic-allocation executor
cap, which encoded the paper platform's 40 nodes; the scenario runner now
derives ``DynamicAllocationPolicy(max_executors=len(cluster))`` from the
actual topology (identical on the paper platform, adaptive elsewhere).
"""

from repro.scheduling.base import ProfilingCost, Scheduler
from repro.scheduling.estimators import (
    ANNUnifiedEstimator,
    MemoryEstimator,
    MoEEstimator,
    OracleEstimator,
    QuasarEstimator,
    UnifiedFamilyEstimator,
)
from repro.scheduling.isolated import IsolatedScheduler
from repro.scheduling.pairwise import PairwiseScheduler
from repro.scheduling.colocation import MemoryAwareCoLocationScheduler
from repro.scheduling.online_search import OnlineSearchScheduler
from repro.scheduling.factories import (
    make_moe_scheduler,
    make_oracle_scheduler,
    make_quasar_scheduler,
    make_unified_scheduler,
)
from repro.scheduling.registry import (
    SchemeInfo,
    UnknownSchemeError,
    build_scheduler,
    is_registered,
    register_scheme,
    required_artefacts,
    scheme_info,
    scheme_names,
    unregister_scheme,
    validate_schemes,
)

__all__ = [
    "ProfilingCost",
    "Scheduler",
    "MemoryEstimator",
    "OracleEstimator",
    "MoEEstimator",
    "QuasarEstimator",
    "UnifiedFamilyEstimator",
    "ANNUnifiedEstimator",
    "IsolatedScheduler",
    "PairwiseScheduler",
    "MemoryAwareCoLocationScheduler",
    "OnlineSearchScheduler",
    "make_moe_scheduler",
    "make_oracle_scheduler",
    "make_quasar_scheduler",
    "make_unified_scheduler",
    "SchemeInfo",
    "UnknownSchemeError",
    "register_scheme",
    "unregister_scheme",
    "scheme_names",
    "scheme_info",
    "is_registered",
    "validate_schemes",
    "required_artefacts",
    "build_scheduler",
]
