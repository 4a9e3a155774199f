"""Structured error types shared by every module of the package.

Each error is a `FlagFlowsError`, which the CLI turns into a JSON
diagnostic with exit status 2.  Numerical bounds are not configured
here: each is a module constant next to the code that reads it
(`projective.RANK_TOL`, `reps.LOXODROMY_GAP`, `limitcurve.ROOT_TOL`
and so on).
"""


class FlagFlowsError(Exception):
    """Base class for all structured errors raised by this package."""


# projective core
class DimensionOverflow(FlagFlowsError): pass
class DegenerateSum(FlagFlowsError): pass
class DegenerateMeet(FlagFlowsError): pass
class EmptyIntersection(FlagFlowsError): pass
class PointOutsideDomain(FlagFlowsError): pass

# words / representations
class ResourceLimit(FlagFlowsError): pass
class NonLoxodromicCurve(FlagFlowsError): pass
class NotLoxodromic(FlagFlowsError): pass
class EigenFailure(FlagFlowsError): pass
class IndexOrder(FlagFlowsError): pass

# limit curve / developing maps
class InsufficientSamples(FlagFlowsError): pass
class NoSecondIntersection(FlagFlowsError): pass
class AmbiguousBracket(FlagFlowsError): pass
class UnclassifiedLine(FlagFlowsError): pass

# flows
class PointOutsideSegment(FlagFlowsError): pass
class RootFindFailure(FlagFlowsError): pass
class NotDefinedHere(FlagFlowsError): pass
class InsufficientResolution(FlagFlowsError): pass
