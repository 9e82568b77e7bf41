"""Satisfiability-preserving value elimination for binary CSPs.

Exposes the instance model, the definition-level oracle, and the four
incremental engines (arc consistency, neighbourhood substitution, snake
substitution, conditioned and snake-conditioned variants).
"""

from .acns import establish_ac, is_arc_consistent, ns_to_convergence
from .cns import cns_to_convergence
from .instance import (
    Instance,
    InstanceFormatError,
    dump_file,
    dumps,
    from_json_dict,
    load_file,
    loads,
    make_instance,
    to_json_dict,
)
from .oracle import ReplayError, replay_sequence
from .scss import check_scss, scss_to_convergence
from .ss import ss_to_convergence
from .trace import (
    AC,
    CNS,
    NS,
    RULES,
    SCSS,
    SS,
    AcWitness,
    CnsWitness,
    EliminationRecord,
    NsWitness,
    ReductionReport,
    ScssCover,
    ScssWitness,
    SsWitness,
    Trace,
    dump_trace,
    load_trace,
    trace_from_json_dict,
    trace_to_json_dict,
)

__all__ = [
    "AC",
    "CNS",
    "NS",
    "RULES",
    "SCSS",
    "SS",
    "AcWitness",
    "CnsWitness",
    "EliminationRecord",
    "Instance",
    "InstanceFormatError",
    "NsWitness",
    "ReductionReport",
    "ReplayError",
    "ScssCover",
    "ScssWitness",
    "SsWitness",
    "Trace",
    "check_scss",
    "cns_to_convergence",
    "dump_file",
    "dump_trace",
    "dumps",
    "establish_ac",
    "from_json_dict",
    "is_arc_consistent",
    "load_file",
    "load_trace",
    "loads",
    "make_instance",
    "ns_to_convergence",
    "replay_sequence",
    "scss_to_convergence",
    "ss_to_convergence",
    "to_json_dict",
    "trace_from_json_dict",
    "trace_to_json_dict",
]

__version__ = "0.1.0"
