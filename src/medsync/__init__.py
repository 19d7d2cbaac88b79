"""medsync: a deterministic multi-peer simulator for fine-grained table sharing.

Each peer keeps its full records in local tables; what it shares with another
peer is a projected view kept in sync by a well-behaved lens (get/put pair).
A simulated single-producer ledger holds one permission-metadata entry per
share, validates and serializes every update, and notifies the other peer,
who fetches the new data directly from its counterpart and embeds it into its
own tables, cascading through any other views derived from the same source.
"""

from .contract import (
    ContractState,
    DeployTx,
    Notification,
    PermChangeTx,
    Principal,
    RejectReason,
    SharedTableMetadata,
    UpdateTx,
    Verdict,
    apply_update,
    change_permission,
    deploy,
    query_metadata,
    validate_update,
)
from .harness import (
    Report,
    Scenario,
    SimConfig,
    TraceEvent,
    World,
    dump,
    load_dump,
    load_scenario,
    run,
    verify_convergence,
)
from .ledger import Block, Chain, ChainCorrupt, Receipt
from .lenses import Lens, LensSpec, compile_lens, get, put
from .peer import DataRequest, DataResponse, Edit, PeerNode, ShareBinding
from .relational import Schema, Table, Value

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Chain",
    "ChainCorrupt",
    "ContractState",
    "DataRequest",
    "DataResponse",
    "DeployTx",
    "Edit",
    "Lens",
    "LensSpec",
    "Notification",
    "PeerNode",
    "PermChangeTx",
    "Principal",
    "Receipt",
    "RejectReason",
    "Report",
    "Scenario",
    "Schema",
    "ShareBinding",
    "SharedTableMetadata",
    "SimConfig",
    "Table",
    "TraceEvent",
    "UpdateTx",
    "Value",
    "Verdict",
    "World",
    "apply_update",
    "change_permission",
    "compile_lens",
    "deploy",
    "dump",
    "get",
    "load_dump",
    "load_scenario",
    "put",
    "query_metadata",
    "run",
    "validate_update",
    "verify_convergence",
]
