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
    """A density-evolution fold would exceed the pair budget ``PAIR_BUDGET``.

    Carries ``count``, the number of atom pairs the fold would have formed,
    raised before that fold allocates anything (it can exceed the size of
    the finished law by orders of magnitude).  The exact step checks each
    fold before forming its weights: the first adds the ``m``-atom child
    law to itself, ``m(m+1)/2`` unordered pairs; the second is sized from
    the first fold's sums alone (``run_count``); each later fold forms
    ``m`` pairs per atom of the partial sum.  The lattice step checks its
    last and largest fold, ``((k-1)*(L-1) + 1) * L`` pairs for an
    ``L``-point lattice vector, before the first.  The usual remedy is
    ``deep_policy()``: its lattice step (width ``LATTICE_WIDTH``) returns
    an upper law whose TV is at least the exact one.
    When even the lattice folds are over the pair budget
    (near-deterministic channels, whose contributions span more cells
    than the budget allows), the population engine remains.
    """

    def __init__(self, message: str, count: int = 0):
        super().__init__(message)
        self.count = count


class PreconditionViolation(TreecastError):
    """A structural precondition of a verifier failed (for example the
    conditioning event is not a union of partition cells)."""


class DegenerateEvent(TreecastError):
    """A conditioning event has probability 0 or 1."""


class ResourceLimit(TreecastError):
    """A simulation would exceed a configured size cap, or holds too few
    samples to answer.

    Carries ``count``, the size a cap refused (raised before anything of
    that size is allocated), or 0 when the samples were too few.
    """

    def __init__(self, message: str, count: int = 0):
        super().__init__(message)
        self.count = count


class BadBracket(TreecastError):
    """Both bisection endpoints produced the same verdict, or a root
    finder's function has the same sign at both ends of its bracket."""
