"""Exact alpha-hermitian adjacency matrices of mixed graphs.

A mixed graph carries undirected edges (digons) and directed arcs. Its
alpha-hermitian adjacency matrix puts 1 on digons, a root of unity alpha on
arcs (conjugate in the mirror entry), and 0 elsewhere. This package computes
exact determinants and inverses of such matrices over cyclotomic fields via
combinatorial formulas, and decides when the inverse at alpha = exp(2*pi*i/3)
is +-1 diagonally similar to another hermitian adjacency matrix.
"""

from types import ModuleType as _ModuleType

from .cyclotomic import (
    OTHER,
    ZERO,
    CyclotomicContext,
    CyclotomicNumber,
    SignedPower,
    classify_entry,
    cyclotomic_polynomial,
)
from .documents import GraphDocument, generate_instance, parse_graph, render_document
from .errors import (
    BadVertexId,
    ContextMismatch,
    DimensionTooLarge,
    Disconnected,
    DuplicateEdge,
    GenerationFailed,
    HasArcs,
    HermixError,
    InternalCheckFailed,
    InvalidParameter,
    NoDoublePath,
    NotAWalk,
    NotBipartite,
    NotInClassH,
    NotPerfect,
    NotTwoPegs,
    NotUnicyclic,
    NumericallySingular,
    OddCycleParity,
    ParseError,
    SameVertex,
    SelfLoop,
    SingularMatrix,
)
from .graph import (
    InducedSubgraph,
    MixedGraph,
    enumerate_paths,
    remove_vertices,
    unique_cycle,
)
from .inverse import (
    inverse_bipartite_upm,
    inverse_entry_general,
    orient_nonmatching,
)
from .matching import (
    Matching,
    bipartition,
    co_augmenting_paths,
    ensure_class_h,
    is_unique_perfect_matching,
    unique_perfect_matching,
)
from .spectral import (
    ExactHermitianMatrix,
    det_leibniz,
    det_via_elementary,
    enumerate_spanning_elementary,
    h_alpha_matrix,
    numeric_inverse,
    walk_value,
)
from .unicyclic import (
    DiagonalSigns,
    NotSimilar,
    Obstruction,
    PegInfo,
    Similar,
    check_her,
    classify_gamma_similarity,
    exhaustive_diag_similarity,
    f_walk,
    peg_info,
    sign_assignment,
    two_peg_entry,
)

__version__ = "0.1.0"

# every name imported above is public, and nothing else is
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
