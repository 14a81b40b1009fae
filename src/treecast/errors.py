"""Exception hierarchy shared by every treecast module.

All errors derive from :class:`TreecastError` so callers can catch the
package's failures with a single except clause while still distinguishing
validation problems (bad inputs), resource problems (state-space blowup),
and numerical problems (limits that do not exist).  An inconclusive
reconstruction decision is not an error: it is the ``"inconclusive"``
verdict of a :class:`~treecast.threshold.Decision`.
"""


class TreecastError(Exception):
    """Base class for every error raised by this package."""


class DegenerateChannel(TreecastError):
    """The transition matrix has no usable stationary law or a required
    denominator vanishes (for example both off-diagonal entries are 0)."""


class InvalidParameter(TreecastError):
    """An argument is outside the domain of the requested operation."""


class UndefinedLimit(TreecastError):
    """An extended-real evaluation has no finite or infinite limit, such as
    the log-likelihood update at -inf when the second row is deterministic."""


class AtomExplosion(TreecastError):
    """Exact density evolution exceeded the configured atom or pair budget.

    Carries ``count``, whose meaning depends on the guard that fired: for
    the atom cap it is the atom count of the merged law; for the pair
    budget it is the number of atom pairs the next convolution fold would
    have formed, raised before that fold allocates anything (it can exceed
    the size of the finished law by orders of magnitude).  The usual
    remedy is the population engine or ``deep_policy()``.
    """

    def __init__(self, message: str, count: int = 0):
        super().__init__(message)
        self.count = count


class DominanceViolation(TreecastError):
    """A conditional pair violates the one-sided weight ordering that the
    coupling construction relies on; signals an upstream bug."""


class PreconditionViolation(TreecastError):
    """A structural precondition of a verifier failed (for example the
    conditioning event is not a union of partition cells)."""


class DegenerateEvent(TreecastError):
    """A conditioning event has probability 0 or 1."""


class NotInterior(TreecastError):
    """The requested tree node lacks the full neighborhood (parent plus all
    children) needed for a single-site conditional check."""


class ResourceLimit(TreecastError):
    """An enumeration or simulation would exceed a configured size cap."""


class BadBracket(TreecastError):
    """Both bisection endpoints produced the same verdict."""
