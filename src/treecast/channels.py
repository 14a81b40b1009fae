"""Binary broadcast channels and their closed-form information bounds.

A channel is a row-stochastic 2x2 matrix: entry ``pij`` is the probability
that a child takes value ``j`` given its parent has value ``i``.  Everything
downstream (density evolution, couplings, thresholds) consumes the derived
quantities defined here: the stationary root law, the likelihood-ratio
coefficients ``c0`` and ``c1``, the hard-core parametrization, and the
closed-form bounds that decide when reconstruction of the root from deep
levels is impossible.

The hard-core family deserves a note: with occupation weight ``w`` the
matrix is ``[[1/(1+w), w/(1+w)], [1, 0]]``, i.e. an occupied parent forces
an empty child.  Its activity is ``lambda = w*(1+w)**k`` where ``k`` is the
branching number of the tree.
"""

from __future__ import annotations

import decimal
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadBracket, DegenerateChannel, InvalidParameter, UndefinedLimit

_ROW_TOL = 1e-12
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)
_TINY = np.finfo(np.float64).tiny  # smallest normal float64
# 40 digits and no exponent limits: a binomial term or an activity keeps
# its digits however small or large it is, and only its final conversion
# to float64 rounds
DECIMAL_40 = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _bisect_root(f, lo: float, hi: float) -> float:
    """Root of ``f`` in ``[lo, hi]`` by bisection down to adjacent floats.

    ``f(lo)`` and ``f(hi)`` must differ in sign.  The bracket is halved
    until its midpoint equals an endpoint; the endpoint with the smaller
    ``|f|`` is returned (``lo`` on a tie), and an exact zero as soon as one
    is met.  Any finite bracket reaches adjacent floats within about 2,100
    halvings, so there is no tolerance and no iteration cap.

    Raises
    ------
    BadBracket
        If ``f(lo)`` and ``f(hi)`` have the same sign.
    InvalidParameter
        If ``f`` returns NaN.
    """
    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise InvalidParameter(f"root finder: the function value at x={x} is NaN")
        return fx

    lo, hi = float(lo), float(hi)
    flo, fhi = call(lo), call(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise BadBracket(f"root finder: f({lo}) and f({hi}) have the same sign")
    while True:
        mid = lo / 2 + hi / 2  # lo + hi may overflow
        if mid == lo or mid == hi:
            return lo if abs(flo) <= abs(fhi) else hi
        fmid = call(mid)
        if fmid == 0:
            return mid
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid


@dataclass(frozen=True)
class BinaryChannel:
    """Row-stochastic 2x2 transition matrix with derived accessors.

    Parameters
    ----------
    p00, p01 : float
        First row: transition probabilities out of parent value 0.
    p10, p11 : float
        Second row: transition probabilities out of parent value 1.

    Raises
    ------
    InvalidParameter
        If an entry is not a real number within 1e-12 of [0, 1], or a row
        does not sum to 1.  Entries are stored as floats.
    DegenerateChannel
        If ``p01 + p10 == 0`` (the stationary law would be undefined).
    """

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        for name in ("p00", "p01", "p10", "p11"):
            v = _real(name, getattr(self, name))
            if not -_ROW_TOL <= v <= 1 + _ROW_TOL:
                raise InvalidParameter(f"{name}={v} is not a probability")
            object.__setattr__(self, name, v)
        if abs(self.p00 + self.p01 - 1.0) > _ROW_TOL:
            raise InvalidParameter(f"first row sums to {self.p00 + self.p01}, not 1")
        if abs(self.p10 + self.p11 - 1.0) > _ROW_TOL:
            raise InvalidParameter(f"second row sums to {self.p10 + self.p11}, not 1")
        if self.p01 + self.p10 <= 0.0:
            raise DegenerateChannel("p01 + p10 = 0: stationary root law undefined")

    @property
    def pi0(self) -> float:
        """Stationary probability of value 0: p10 / (p01 + p10)."""
        return self.p10 / (self.p01 + self.p10)

    @property
    def pi1(self) -> float:
        return 1.0 - self.pi0

    @property
    def c0(self) -> float:
        """p01 / p00, or +inf when p00 = 0."""
        return self.p01 / self.p00 if self.p00 > 0 else math.inf

    @property
    def c1(self) -> float:
        """p11 / p10, or +inf when p10 = 0."""
        return self.p11 / self.p10 if self.p10 > 0 else math.inf

    @property
    def log_prior_ratio(self) -> float:
        """ln(pi0 / pi1); +-inf when a stationary weight vanishes."""
        if self.pi1 == 0.0:
            return math.inf
        if self.pi0 == 0.0:
            return -math.inf
        return math.log(self.pi0 / self.pi1)


def _real(name: str, v) -> float:
    """``v`` as a float; :class:`InvalidParameter` unless it is a real number
    within the float64 range (NaN and the infinities pass)."""
    if not isinstance(v, numbers.Real):
        raise InvalidParameter(f"{name} must be a real number, got {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:
        raise InvalidParameter(f"{name} is beyond the float64 range") from None


def _count(name: str, v, least: int = 1) -> int:
    """``v`` as an int; :class:`InvalidParameter` unless it is an integer
    (a Python or numpy int, so neither 2.0 nor NaN) of at least ``least``."""
    if not (isinstance(v, (int, np.integer)) and v >= least):
        raise InvalidParameter(f"need an integer {name} >= {least}, got {name}={_shown(v)}")
    return int(v)


def _shown(v) -> str:
    """``repr(v)`` for a message, but a phrase for an int of over 100 digits:
    one of over 4,300 cannot be printed (Python's limit)."""
    if isinstance(v, int) and abs(v) > 10**100:
        return "a huge negative int" if v < 0 else "a huge int"
    return repr(v)


def _vector(name: str, x) -> np.ndarray:
    """``x`` as a float64 array; :class:`InvalidParameter` unless it is 1-d."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise InvalidParameter(f"{name} must be a 1-d array, got {a.ndim} dimensions")
    return a


def _weights(name: str, w) -> tuple[np.ndarray, float]:
    """``w`` as a 1-d float64 array (:func:`_vector`) and its total;
    :class:`InvalidParameter` unless every entry is >= 0 (NaN is not) and
    the total is finite.  Two reductions and no mask, as the exact laws
    hold millions of weights; an empty ``w`` passes, with total 0."""
    a = _vector(name, w)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        total = float(a.sum())
    if a.size and not (a.min() >= 0 and total < math.inf):  # NaN fails both
        raise InvalidParameter(f"{name} must be non-negative with a finite total, not NaN")
    return a, total


def _probabilities(name: str, w, held: float = 0.0) -> np.ndarray:
    """:func:`_weights`, and :class:`InvalidParameter` unless the total,
    with a mass ``held`` elsewhere, is 1 within 1e-10."""
    a, total = _weights(name, w)
    total += held
    if not abs(total - 1.0) <= 1e-10:
        raise InvalidParameter(f"{name} sums to {total}, not 1")
    return a


def _probability(name: str, v) -> float:
    """:func:`_real`, refusing a value outside [0, 1] (NaN included)."""
    x = _real(name, v)
    if not 0.0 <= x <= 1.0:
        raise InvalidParameter(f"{name}={x} is not a probability")
    return x


def _positive(name: str, v) -> float:
    """:func:`_real`, refusing a value that is not positive and finite."""
    x = _real(name, v)
    if not (x > 0.0 and math.isfinite(x)):
        raise InvalidParameter(f"{name} must be positive and finite, got {x}")
    return x


def make_channel(p00: float, p10: float) -> BinaryChannel:
    """Build a channel from its first column; rows completed by stochasticity.

    Parameters
    ----------
    p00 : float
        Probability a child of a 0-parent is 0.
    p10 : float
        Probability a child of a 1-parent is 0.

    Returns
    -------
    BinaryChannel
    """
    p00, p10 = _probability("p00", p00), _probability("p10", p10)
    return BinaryChannel(p00=p00, p01=1.0 - p00, p10=p10, p11=1.0 - p10)


def symmetric_channel(eps: float) -> BinaryChannel:
    """Binary symmetric channel with flip probability ``eps``."""
    eps = _probability("eps", eps)
    return make_channel(1.0 - eps, eps)


def hardcore_channel(w: float) -> BinaryChannel:
    """Hard-core channel with occupation weight ``w``.

    The channel depends on ``w`` alone; on a k-ary tree its activity is
    ``lambda_of_w(w, k)``.

    Parameters
    ----------
    w : float
        Positive occupation weight; the channel is
        ``[[1/(1+w), w/(1+w)], [1, 0]]``.

    Returns
    -------
    BinaryChannel
    """
    w = _positive("w", w)
    return BinaryChannel(p00=1.0 / (1.0 + w), p01=w / (1.0 + w), p10=1.0, p11=0.0)


def lambda_of_w(w: float, k: int) -> float:
    """Activity ``w*(1+w)**k``, evaluated in log space to avoid overflow."""
    w = _positive("w", w)
    k = _count("k", k)
    log_lam = math.log(w) + k * math.log1p(w)
    if log_lam > _LOG_FLOAT_MAX:
        raise InvalidParameter(f"activity w*(1+w)**k overflows float64 (w={w}, k={k})")
    return math.exp(log_lam)


def w_of_lambda(lam: float, k: int) -> float:
    """Invert the activity map: the unique ``w > 0`` with ``w*(1+w)**k = lam``.

    Solved by bisection in ``t = ln w`` over ``[-745, max(1, ln lam) + 1]``:
    ``t + k*ln(1 + e^t)`` rises in ``t``, lies below ``ln lam`` at -745 for
    any positive float ``lam`` and at least 1 above it at the upper end.
    That ``t`` is within ~1e-12 of the root (the rounding of ``ln lam``
    and of the sum, over a slope of at least 1), but ``e^t`` is off by
    about ``|t|`` ulps.  So a second bisection in ``w`` over
    ``e^(t -+ 1e-9)``, on ``w*(1+w)**k/lam - 1`` taken to 40 digits, ends
    on the adjacent floats across the root in ``w``.
    """
    lam = _positive("lambda", lam)
    k = _count("k", k)
    target = math.log(lam)

    def h(t: float) -> float:
        # ln(1 + e^t), written so e^t cannot overflow where it would
        soft = math.log1p(math.exp(t)) if t < 700.0 else t + math.log1p(math.exp(-t))
        return t + k * soft - target

    t = _bisect_root(h, -745.0, max(1.0, target) + 1.0)
    lam_digits = decimal.Decimal(lam)

    def g(w: float) -> float:
        with decimal.localcontext(DECIMAL_40):
            x = decimal.Decimal(w)
            return float(x * (1 + x) ** k / lam_digits - 1)

    return _bisect_root(g, math.exp(t - 1e-9), math.exp(t + 1e-9))


def mossel_peres_lhs(c: BinaryChannel) -> float:
    """Column-based impossibility statistic for a binary channel.

    Reconstruction on the k-ary tree is impossible whenever this value is
    at most ``1/k``.

    Returns
    -------
    float
        ``(p10-p00)*(p01-p11) / min(p00+p10, p01+p11)``.
    """
    denom = min(c.p00 + c.p10, c.p01 + c.p11)
    if denom <= 0.0:
        raise DegenerateChannel("both entries of a channel column are 0")
    return (c.p10 - c.p00) * (c.p01 - c.p11) / denom


def geometric_mean_bound_lhs(c: BinaryChannel) -> float:
    """Sharper impossibility statistic based on geometric row means.

    Always at most :func:`mossel_peres_lhs`; reconstruction is impossible
    whenever this value is at most ``1/k``.

    Returns
    -------
    float
        ``(sqrt(p00*p11) - sqrt(p01*p10))**2``.
    """
    return (math.sqrt(c.p00 * c.p11) - math.sqrt(c.p01 * c.p10)) ** 2


def kesten_stigum_eps_c(k: int) -> float:
    """Critical flip probability ``(1 - 1/sqrt(k))/2`` of the symmetric family."""
    k = _count("k", k)
    return 0.5 * (1.0 - 1.0 / math.sqrt(k))


def kelly_threshold(k: int) -> float:
    """Uniqueness threshold ``k**k / (k-1)**(k+1)`` of the hard-core tree model.

    Computed in log space so large ``k`` does not overflow.
    """
    k = _count("k", k, 2)
    return math.exp(k * math.log(k) - (k + 1) * math.log(k - 1))


def llr_step(c: BinaryChannel, x):
    """One-child contribution ``g(x) = ln(1 + (c0-c1)/(exp(x)+c1))`` to the
    log-likelihood-ratio recursion.

    Vectorized over ``x``; extended-real rules: ``g(+inf) = 0`` always, and
    ``g(-inf) = ln(c0/c1)`` when ``c1 > 0``.

    Raises
    ------
    UndefinedLimit
        When ``x = -inf`` and ``c1 = 0`` (the update diverges).
    InvalidParameter
        When ``p00 = 0`` or ``p10 = 0`` (the coefficients are infinite).
    DegenerateChannel
        When a value leaves float64 although ``g`` is finite there: the
        quotient overflows, to ``+inf`` where ``c0/(exp(x) + c1)`` is above
        ~1.8e308, or to ``-inf`` where ``c1/(exp(x) + c0)`` is, although
        ``c0 > 0`` keeps ``g`` above ``ln(c0/c1)``; there it would pose as
        a ``p01 = 0`` certainty.  A ratio ``c0/c1`` as small as 1e-300 is
        answered.

    For ``c0 < c1`` the step is formed as ``-ln(1 + (c1-c0)/(exp(x)+c0))``,
    so ``log1p`` never sees an argument near -1, and ``g`` keeps a few ulps
    of relative accuracy up to ``ln(c0/c1)``.
    """
    if c.p00 <= 0.0 or c.p10 <= 0.0:
        raise InvalidParameter("llr_step requires p00 > 0 and p10 > 0")
    arr = np.asarray(x, dtype=np.float64)
    if c.c1 == 0.0 and np.any(np.isneginf(arr)):
        raise UndefinedLimit("llr_step at -inf is undefined when p11 = 0")
    # exp may overflow to +inf (g -> 0).  Equal rows (c0 = c1) give g = 0,
    # also where c1 = 0 and exp(x) underflows to 0, which would make the
    # quotient 0/0.  With c0 = 0 the quotient rounds to -1 once exp(x)/c1 <
    # ~1e-16, so g = -ln(1 + c1/exp(x)) is formed directly, and as x - ln(c1)
    # - ln(1 + exp(x)/c1) where c1/exp(x) overflows (x < 0 there, hence lo)
    d = c.c0 - c.c1
    with np.errstate(over="ignore", divide="ignore"):
        if c.c0 == 0.0 and d:
            # where exp(-x) leaves the normal range it has lost digits, or
            # is 0 where c1*exp(-x) is not: u is formed there as (c1*h)*h
            # with h = exp(-x/2), which stays normal as long as u can
            e, h, lo = np.exp(-arr), np.exp(-arr / 2), np.minimum(arr, 0.0)
            u = np.where(e < _TINY, (c.c1 * h) * h, c.c1 * e)
            out = np.where(np.isfinite(u), -np.log1p(u),
                           lo - math.log(c.c1) - np.log1p(np.exp(lo) / c.c1))
        elif d > 0:
            out = np.log1p(d / (np.exp(arr) + c.c1))
        elif d < 0:
            # g = -ln((e^x + c1)/(e^x + c0)): log1p sees a non-negative
            # argument, where the forward form's nears -1 and loses digits.
            # Negated in place: one more array per call would cost the
            # population step its pages again (2.5x the page faults)
            out = np.log1p(-d / (np.exp(arr) + c.c0))
            out *= -1.0
        else:
            out = np.zeros_like(arr)
    out = np.where(np.isposinf(arr), 0.0, out)
    # g is finite at finite x, and g(-inf) = ln(c0/c1) is -inf only when c0 = 0
    if np.any(np.isposinf(out) if c.c0 == 0.0 else np.isinf(out)):
        raise DegenerateChannel(
            f"llr_step leaves float64 (c0 = {c.c0:.3g}, c1 = {c.c1:.3g}): the "
            "channel is too close to deterministic")
    return float(out) if np.ndim(x) == 0 else out


def gap_kernel(c: BinaryChannel, x):
    """Mean-gap kernel ``(p11 - p01) * g(x)`` driving the contraction analysis.

    Vectorized over ``x``; same extended-real rules and errors as
    :func:`llr_step`.
    """
    scale = c.p11 - c.p01
    if scale == 0.0:
        # rows equal in the second column: the kernel is identically 0
        out = np.zeros_like(np.asarray(x, dtype=np.float64))
        return float(out) if np.ndim(x) == 0 else out
    return scale * llr_step(c, x)


def gap_kernel_peak(c: BinaryChannel) -> tuple[float, float]:
    """Closed-form maximizer and maximum of the gap-kernel derivative.

    Returns
    -------
    (argmax, value) : tuple of float
        ``argmax = (ln(p01*p11) - ln(p00*p10)) / 2`` and the supremum of the
        derivative, which equals :func:`geometric_mean_bound_lhs`.

    Raises
    ------
    InvalidParameter
        If any entry is 0 (the argmax formula needs strict positivity).
    """
    if min(c.p00, c.p01, c.p10, c.p11) <= 0.0:
        raise InvalidParameter("gap_kernel_peak requires all entries positive")
    # a log per entry: a product of two entries may underflow to 0
    argmax = 0.5 * (math.log(c.p01) + math.log(c.p11)
                    - math.log(c.p00) - math.log(c.p10))
    return argmax, geometric_mean_bound_lhs(c)


def hardcore_contraction(w: float, k: int) -> float:
    """Contraction coefficient of the hard-core gap kernel.

    Returns
    -------
    float
        ``(w/(1+w)) * (ln(1+lam)/ln(1+w) - 1)`` with ``lam = w*(1+w)**k``;
        strictly below ``ln(1+lam)``, and below 1 whenever ``lam <= e-1``.
    """
    lam = lambda_of_w(w, k)  # refuses a w or a k out of range
    w = float(w)
    return (w / (1.0 + w)) * (math.log1p(lam) / math.log1p(w) - 1.0)


def brightwell_winkler_lower_w(k: int) -> float:
    """Comparison curve ``(ln k - ln ln k)/k`` bounding the critical weight below.

    Defined for ``k >= 3`` only (``ln ln k`` must be positive for the bound
    to carry information).
    """
    k = _count("k", k, 3)
    return (math.log(k) - math.log(math.log(k))) / k
