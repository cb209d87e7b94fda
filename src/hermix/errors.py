"""Error taxonomy: each graph, document and parameter condition the library
rejects has its own HermixError subclass. Misused arithmetic and matrix types
raise builtins instead: ValueError (cyclotomic_polynomial, CyclotomicContext,
the CyclotomicNumber and ExactHermitianMatrix constructors,
conjugated_by_signs) and ZeroDivisionError (CyclotomicNumber.inv)."""


class HermixError(Exception):
    """Base class of this package's own errors, not of the builtins above."""


# graph construction / lookup

class BadVertexId(HermixError):
    pass


class SelfLoop(HermixError):
    pass


class DuplicateEdge(HermixError):
    """Same unordered pair used twice (digon+digon, digon+arc, or arc both ways)."""


class SameVertex(HermixError):
    """Operation needs two distinct vertices."""


class NotUnicyclic(HermixError):
    pass


class NotAWalk(HermixError):
    """A step of the walk is not an edge of the host graph."""


# cyclotomic contexts

class ContextMismatch(HermixError):
    """Operands live in cyclotomic fields of different orders."""


# matchings / class membership

class NotBipartite(HermixError):
    pass


class NotPerfect(HermixError):
    """The supplied matching does not cover every vertex."""


class NotInClassH(HermixError):
    """Graph is not bipartite with a unique perfect matching."""


class HasArcs(HermixError):
    """Operation needs an all-digon graph."""


# linear algebra

class DimensionTooLarge(HermixError):
    pass


class NumericallySingular(HermixError):
    """The floating inverse is singular or misses its residual tolerance."""


class SingularMatrix(HermixError):
    """Exact determinant is zero."""


# sign assignments / similarity

class OddCycleParity(HermixError):
    """Some cycle has an odd number of unmatched edges; walk signs are ill-defined."""


class Disconnected(HermixError):
    pass


class NotTwoPegs(HermixError):
    pass


class NoDoublePath(HermixError):
    """The vertex pair is not joined by exactly two co-augmenting paths."""


# I/O and generation

class ParseError(HermixError):
    pass


class InvalidParameter(HermixError):
    pass


class GenerationFailed(HermixError):
    pass


class InternalCheckFailed(HermixError):
    """An always-verified certificate failed its check; indicates a bug."""
