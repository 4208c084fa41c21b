"""Verification toolkit for matching theory on small graphs.

Bitset-backed graphs, blossom matching, factor-criticality and barrier
decompositions, the fourteen-configuration taxonomy of deficient 10-vertex
graphs, isomorph-free enumeration, and a CLI for minimum-degree conjecture
sweeps.
"""

from .graphs import (
    Edge,
    Graph,
    Graph6Error,
    GraphError,
    VertexSet,
    add_edge,
    bits,
    common_nonneighborhood,
    delete_edge,
    delete_vertices,
    graph6_lines,
    graph_from_edges,
    is_k_connected,
    is_k_edge_connected,
    mask_of,
    min_degree,
    parse_graph6,
    to_graph6,
)
from .matching import (
    Matching,
    deficiency,
    has_perfect_matching,
    max_matching,
)
from .decomp import (
    BarrierWitness,
    ComponentInfo,
    GEDecomposition,
    find_barrier_witnesses,
    gallai_edmonds,
    is_factor_critical,
)
from .criticality import (
    CriticalityReport,
    MinimalityCertificate,
    NotKFactorCriticalError,
    check_connectivity_properties,
    is_k_factor_critical,
    is_minimal_kfc,
    kfc_and_minimal,
    kfc_and_minimal_batch,
    minimality_certificate,
    minimalize,
)
from .configurations import (
    BuiltInstance,
    ClassificationError,
    ClassificationResult,
    ClassifiedWitness,
    ConfigLabel,
    ConfigSignature,
    build_instance,
    check_intersection_bounds,
    classify,
    core_graph,
    intersection_bounds,
)
from .enumeration import (
    SplitMix64,
    all_graphs,
    canonical_form,
    random_graph,
    read_graph6_stream,
)

__version__ = "0.1.0"
