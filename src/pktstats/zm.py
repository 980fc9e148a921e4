"""Two-parameter modified Zipf-Mandelbrot model: evaluation, training, inference.

The model density is rho(d) = 1 / (d + delta)**alpha, normalized over
d = 1..d_max.  Training solves for the delta that makes the model's
degree-1 probability match a measured value, via bracketed Newton iteration
with a bisection fallback.  Inference sweeps a fixed alpha grid: a screen
scores every admitted alpha from cheap short-head sums with a proven error
bound, and only the alphas that can still win are trained exactly, in
lock-step so each round's model sums come from one 2-D power.  Candidates
are scored with a half-norm metric on log-pooled bins, keeping the best
(ties to the smaller alpha).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Generator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .netstats import PooledDistribution, bin_edges

# Ranges at most this long are summed term by term; longer ranges use an
# integral tail approximation after an exact head of this many terms.
EXACT_SUM_TERMS = 10**6

# Elements per 2-D block of the batched model evaluator: a block holds
# max(1, EVAL_BLOCK_ELEMENTS // d_max) rows, so memory does not grow with
# the grid size.
EVAL_BLOCK_ELEMENTS = 1 << 16

# Per-bin |log data - log model| gaps below this are float noise and score as
# an exact match; see half_norm_loss.
LOG_GAP_NOISE_FLOOR = 1e-12

# Terms the alpha screen sums exactly before each bin's Euler-Maclaurin
# tail; see _screen.
SCREEN_HEAD_TERMS = 64

_UNIT_ROUNDOFF = 2.0**-53

TRAIN_DELTA_START = 1.0
TRAIN_DELTA_BOUNDS = (0.0, 10.0)
TRAIN_STEP_TOL = 1e-3
# _screen's error bound assumes this residual tolerance.
TRAIN_RESIDUAL_TOL = 1e-9
TRAIN_MAX_ITERATIONS = 200


class InferenceError(ValueError):
    """Raised when no grid point admits a trained model."""


@dataclass(frozen=True)
class ZmParams:
    """Model parameters: exponent alpha, offset delta, support 1..d_max.

    alpha and delta are finite, and the largest density, at d = 1, is a
    positive float, so the model can be normalized and sampled.
    """

    alpha: float
    delta: float
    d_max: int

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.delta >= 0.0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        for name, value in (("alpha", self.alpha), ("delta", self.delta)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not leaf_parameter(self) > 0.0:
            raise ValueError(
                f"largest density (1 + delta)**-alpha is 0.0 at alpha {self.alpha}, "
                f"delta {self.delta}"
            )
        if type(self.d_max) is not int:
            raise ValueError(f"d_max must be an integer, got {self.d_max!r}")
        if self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")


@dataclass(frozen=True)
class DeltaTraining:
    """Result of training delta: the solution plus convergence diagnostics."""

    delta: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class ZmFit:
    """Best grid fit for one pooled distribution."""

    params: ZmParams
    loss: float
    leaf: float
    bins_used: int


@dataclass(frozen=True)
class AlphaGrid:
    """Uniform alpha search grid, endpoints inclusive; every field is finite."""

    start: float = 0.10
    stop: float = 4.00
    step: float = 0.01

    def __post_init__(self):
        if not self.start > 0.0:
            raise ValueError("grid start must be > 0")
        if not self.step > 0.0:
            raise ValueError("grid step must be > 0")
        if not math.isfinite(self.step):
            raise ValueError(f"grid step must be finite, got {self.step}")
        if self.stop < self.start:
            raise ValueError("grid stop must be >= start")
        # Training evaluates (1 + delta)**alpha up to the upper delta bound,
        # which is past the largest float for any larger alpha.
        top = math.log(sys.float_info.max) / math.log1p(TRAIN_DELTA_BOUNDS[1])
        if not self.stop <= top or self._value(self._count() - 1) > top:
            raise ValueError(f"grid stop must be <= {top:.6f}")

    def _count(self) -> int:
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def _value(self, k: int) -> float:
        return round(self.start + k * self.step, 9)

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(self._value(k) for k in range(self._count()))


DEFAULT_GRID = AlphaGrid()


def _em_tail(alpha: float, delta: float, a: int, b: int) -> float:
    """Sum of (d + delta)**-alpha for d = a..b via an integral plus endpoint
    and first-derivative corrections; accurate far from the support's start."""
    x0 = a + delta
    x1 = b + delta
    if alpha == 1.0:
        integral = math.log(x1 / x0)
    else:
        one_m = 1.0 - alpha
        # Stable through alpha -> 1: x1**c - x0**c = x0**c * expm1(c*log(x1/x0))
        integral = x0**one_m * math.expm1(one_m * math.log(x1 / x0)) / one_m
    fa = x0 ** (-alpha)
    fb = x1 ** (-alpha)
    dfa = -alpha * x0 ** (-alpha - 1.0)
    dfb = -alpha * x1 ** (-alpha - 1.0)
    return integral + 0.5 * (fa + fb) + (dfb - dfa) / 12.0


def _range_rho_sum(
    alpha: float, delta: float, lo: int, hi: int, exact_terms: int
) -> float:
    """Sum of (d + delta)**-alpha over integer d in (lo, hi]."""
    if hi - lo <= exact_terms:
        base = np.arange(lo + 1.0, hi + 1.0) + delta
        return float(np.sum(base ** (-alpha)))
    head_hi = lo + exact_terms
    base = np.arange(lo + 1.0, head_hi + 1.0) + delta
    head = float(np.sum(base ** (-alpha)))
    return head + _em_tail(alpha, delta, head_hi + 1, hi)


def _bin_ranges(d_max: int) -> List[Tuple[int, int]]:
    """(lo, hi] degree ranges of the power-of-two bins covering 1..d_max."""
    edges = bin_edges(d_max)
    return list(zip((0,) + edges[:-1], edges[:-1] + (d_max,)))


class _Sums(NamedTuple):
    """Model sums at one (alpha, delta): the normalization sums at exponents
    alpha and alpha + 1 (for Newton) and the per-bin masses.  A part left
    None was not requested."""

    s0: Optional[float]
    s1: Optional[float]
    bins: Optional[List[float]]


def _block_sums(
    alphas: np.ndarray, deltas: np.ndarray, d_max: int, bins: bool
) -> List[_Sums]:
    """The Newton sums, and the bin sums if ``bins``, for each row
    (alpha, delta) from one 2-D power.

    Row sums and bin-slice sums of the 2-D array equal the 1-D sums of the
    same terms bit for bit.
    """
    base = np.arange(1.0, d_max + 1.0) + deltas[:, None]
    powers = base ** -alphas[:, None]
    # For a scalar exponent numpy computes x ** -1.0 as 1 / x, which can
    # differ from pow() in the last bit; do the same for alpha = 1 rows.
    ones = alphas == 1.0
    if ones.any():
        powers[ones] = 1.0 / base[ones]
    s0 = powers.sum(axis=1).tolist()
    masses = [None] * len(alphas)
    if bins:
        masses = np.stack(
            [powers[:, lo:hi].sum(axis=1) for lo, hi in _bin_ranges(d_max)], axis=1
        ).tolist()
    s1 = np.divide(powers, base, out=powers).sum(axis=1).tolist()
    return [_Sums(*row) for row in zip(s0, s1, masses)]


def _head_tail_sums(alpha: float, delta: float, d_max: int, need: str) -> _Sums:
    """The requested sums when d_max exceeds EXACT_SUM_TERMS: an exact head
    plus the Euler-Maclaurin tail, one (alpha, delta) at a time."""
    terms = EXACT_SUM_TERMS
    if need == "s0":
        return _Sums(
            _range_rho_sum(alpha, delta, 0, d_max, terms),
            _range_rho_sum(alpha + 1.0, delta, 0, d_max, terms),
            None,
        )
    bins = [
        _range_rho_sum(alpha, delta, lo, hi, terms) for lo, hi in _bin_ranges(d_max)
    ]
    return _Sums(None, None, bins)


def _evaluate(
    requests: Sequence[Tuple[float, float, str]], d_max: int
) -> List[_Sums]:
    """Sums for each (alpha, delta, need) request, need being "s0" (Newton
    sums) or "bins"; for d_max up to EXACT_SUM_TERMS the Newton sums are
    always computed, and the bins of every block that holds a "bins"
    request."""
    if d_max > EXACT_SUM_TERMS:
        return [_head_tail_sums(a, delta, d_max, need) for a, delta, need in requests]
    rows = max(1, EVAL_BLOCK_ELEMENTS // d_max)
    sums: List[_Sums] = []
    for start in range(0, len(requests), rows):
        alphas, deltas, needs = zip(*requests[start : start + rows])
        sums.extend(
            _block_sums(np.array(alphas), np.array(deltas), d_max, "bins" in needs)
        )
    return sums


def _pooled(params: ZmParams, sums: Sequence[float]) -> PooledDistribution:
    """The log-pooled distribution whose per-bin model masses are sums."""
    total = math.fsum(sums)
    values = tuple(s / total for s in sums)
    edges = bin_edges(params.d_max)
    return PooledDistribution(
        bin_edges=edges,
        values=values,
        sigmas=(0.0,) * len(edges),
        n_windows=1,
        d_max=params.d_max,
    )


def model_distribution(params: ZmParams) -> PooledDistribution:
    """The model's log-pooled distribution on the bins covering 1..d_max."""
    request = (params.alpha, params.delta, "bins")
    return _pooled(params, _evaluate([request], params.d_max)[0].bins)


def leaf_parameter(params: ZmParams) -> float:
    """The model's unnormalized degree-1 density, 1 / (1 + delta)**alpha."""
    return (1.0 + params.delta) ** (-params.alpha)


def _lane_sums(memo: Dict, alpha: float, delta: float, need: str):
    """The _Sums at delta holding the part need ("s0" or "bins"), requested
    from the lane's driver unless memo already has it."""
    got = memo.get((delta, need))
    if got is None:
        got = yield alpha, delta, need
        _remember(memo, delta, got)
    return got


def _remember(memo: Dict, delta: float, got: _Sums) -> None:
    if got.s0 is not None:
        memo[delta, "s0"] = got
    if got.bins is not None:
        memo[delta, "bins"] = got


def _newton_values(d1: float, alpha: float, delta: float, s: _Sums):
    """f(delta) = d1 * (1 + delta)**alpha * S(delta) - 1 and its derivative."""
    scale = d1 * (1.0 + delta) ** alpha
    f = scale * s.s0 - 1.0
    grad = alpha * scale * (s.s0 / (1.0 + delta) - s.s1)
    return f, grad


def _lane_newton(memo: Dict, d1: float, alpha: float, delta: float):
    s = yield from _lane_sums(memo, alpha, delta, "s0")
    return _newton_values(d1, alpha, delta, s)


def _lane_gap(memo: Dict, d1: float, alpha: float, delta: float):
    """The binned model's degree-1 value at delta minus d1."""
    s = yield from _lane_sums(memo, alpha, delta, "bins")
    return s.bins[0] / math.fsum(s.bins) - d1


def _train_lane(
    d1: float,
    alpha: float,
    memo: Optional[Dict[Tuple[float, str], _Sums]] = None,
) -> Generator:
    """Delta training for one alpha as a coroutine.

    It yields (alpha, delta, need) requests, is sent the _Sums for each, and
    returns the training with the model's bin masses at the solution, or None
    when no interior root exists.  Each (delta, need) is requested once;
    memo may hold answers the lane then does not request.
    """
    memo = {} if memo is None else memo
    lo, hi = TRAIN_DELTA_BOUNDS
    f_lo, _ = yield from _lane_newton(memo, d1, alpha, lo)
    if f_lo >= 0.0:
        return None  # matching delta would sit at or below the lower bound
    f_hi, _ = yield from _lane_newton(memo, d1, alpha, hi)
    if f_hi <= 0.0:
        return None  # matching delta would sit at or beyond the upper bound

    # Newton inside the sign bracket, bisecting when a step leaves it.
    delta = TRAIN_DELTA_START
    iterations = 0
    last_step = math.inf
    fval, grad = yield from _lane_newton(memo, d1, alpha, delta)
    for _ in range(TRAIN_MAX_ITERATIONS):
        if fval < 0.0:
            lo = delta
        elif fval > 0.0:
            hi = delta
        else:
            break
        if last_step < TRAIN_STEP_TOL and abs(fval) < TRAIN_RESIDUAL_TOL:
            break
        candidate = delta - fval / grad if grad > 0.0 else 0.5 * (lo + hi)
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        last_step = abs(candidate - delta)
        delta = candidate
        iterations += 1
        fval, grad = yield from _lane_newton(memo, d1, alpha, delta)

    # Refinement: push the residual down to float noise with further Newton
    # steps (quadratic tail), keeping only strict improvements.
    for _ in range(12):
        if fval == 0.0 or grad <= 0.0:
            break
        candidate = delta - fval / grad
        if candidate == delta or not lo < candidate < hi:
            break
        new_f, new_grad = yield from _lane_newton(memo, d1, alpha, candidate)
        if abs(new_f) < abs(fval):
            delta, fval, grad = candidate, new_f, new_grad
        else:
            break

    # Walk delta by ulps so the binned model's D(1) best reproduces d1; the
    # bins are model_distribution's, so an exact float match is found
    # whenever one exists (e.g. d1 generated by the model).
    lo, hi = TRAIN_DELTA_BOUNDS
    best_delta = delta
    best_abs = math.inf
    prev_sign = None
    current = delta
    for _ in range(32):
        g = yield from _lane_gap(memo, d1, alpha, current)
        if abs(g) < best_abs:
            best_abs, best_delta = abs(g), current
        if best_abs == 0.0:
            break
        sign = g > 0.0
        if prev_sign is not None and sign != prev_sign:
            break  # crossed the root without an exact zero
        prev_sign = sign
        # D(1) decreases as delta grows, so walk toward the sign of the gap.
        nxt = math.nextafter(current, hi if g > 0.0 else lo)
        if not lo < nxt < hi or nxt == current:
            break
        current = nxt
    if best_abs == 0.0:
        # Prefer the smallest float in a zero plateau, deterministically.
        for _ in range(4):
            down = math.nextafter(best_delta, lo)
            if not lo < down < hi:
                break
            if (yield from _lane_gap(memo, d1, alpha, down)) != 0.0:
                break
            best_delta = down

    residual, _ = yield from _lane_newton(memo, d1, alpha, best_delta)
    model = yield from _lane_sums(memo, alpha, best_delta, "bins")
    training = DeltaTraining(
        delta=best_delta, iterations=iterations, residual=abs(residual)
    )
    return training, model.bins


def _run_lanes(lanes: Sequence[Generator], d_max: int) -> list:
    """Run lane coroutines in lock-step: each round answers every pending
    request with one batched evaluation.  Returns the lanes' results."""
    results: list = [None] * len(lanes)
    answers: List[Optional[_Sums]] = [None] * len(lanes)
    active = range(len(lanes))
    while active:
        requests = []
        for i in active:
            try:
                requests.append((i, lanes[i].send(answers[i])))
            except StopIteration as stop:
                results[i] = stop.value
        active = [i for i, _ in requests]
        for i, got in zip(active, _evaluate([req for _, req in requests], d_max)):
            answers[i] = got
    return results


def train_delta(d1: float, alpha: float, d_max: int) -> Optional[DeltaTraining]:
    """Solve for the delta whose model matches degree-1 probability d1.

    Root-finds f(delta) = d1 * (1 + delta)**alpha * S(delta) - 1 (strictly
    increasing in delta) by Newton steps inside a sign bracket on (0, 10),
    bisecting whenever a step leaves the bracket.  Returns None when no
    interior root exists.  After convergence, the solution is refined until
    the model's pooled degree-1 value reproduces d1 as closely as float64
    allows (exactly, when an exact match exists).
    """
    if not 0.0 < d1 < 1.0:
        raise ValueError(f"d1 must be in (0, 1), got {d1}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    lane = _train_lane(d1, alpha)
    result = _run_lanes([lane], d_max)[0]
    return None if result is None else result[0]


def admissible_bins(data: PooledDistribution) -> Tuple[int, ...]:
    """Indices of bins that may enter the loss: value above sigma and nonzero."""
    return tuple(
        i
        for i, (value, sigma) in enumerate(zip(data.values, data.sigmas))
        if value > sigma and value > 0.0
    )


def half_norm_loss(data: PooledDistribution, model: PooledDistribution) -> float:
    """Sum of sqrt(|log data - log model|) over admissible bins.

    Gaps below the noise floor count as exact matches: the square root would
    otherwise amplify sub-ulp float disagreements into spurious loss.
    """
    if data.bin_edges != model.bin_edges:
        raise ValueError("data and model bins are not aligned")
    indexes = admissible_bins(data)
    if not indexes:
        raise ValueError("no admissible bins")
    loss = 0.0
    for i in indexes:
        model_value = model.values[i]
        if model_value <= 0.0:
            return math.inf
        gap = abs(math.log(data.values[i]) - math.log(model_value))
        if gap < LOG_GAP_NOISE_FLOOR:
            gap = 0.0
        loss += math.sqrt(gap)
    return loss


def _em_tails(alphas: np.ndarray, deltas: np.ndarray, a: int, b: int) -> np.ndarray:
    """_em_tail over arrays of (alpha, delta), for one range d = a..b.

    The log ratio is taken as log1p((b - a) / x0), which keeps the integral
    accurate to a few ulps relative even for short ranges far out.
    """
    x0 = a + deltas
    x1 = b + deltas
    one_m = 1.0 - alphas
    log_ratio = np.log1p((b - a) / x0)
    ones = one_m == 0.0
    safe = np.where(ones, 1.0, one_m)
    integral = np.where(
        ones, log_ratio, x0**safe * np.expm1(safe * log_ratio) / safe
    )
    fa = x0**-alphas
    fb = x1**-alphas
    return integral + 0.5 * (fa + fb) + alphas * (fa / x0 - fb / x1) / 12.0


def _em_error(alphas: np.ndarray, a: int, b: int) -> np.ndarray:
    """Bound on |computed - true| of an _em_tail or _em_tails sum over
    d = a..b, at every delta in TRAIN_DELTA_BOUNDS, apart from the
    relative rounding that _screen's rho covers.

    Remainder: with f(x) = (x + delta)**-alpha, every even derivative is
    positive and every odd one negative.  Euler-Maclaurin to order four
    (the B4 term plus its remainder, at most 2 zeta(4) / (2 pi)**4 = 1/720
    times the integral of |f''''|) bounds what the B2 formula leaves by
    |f'''(a)| / 360 = alpha (alpha+1) (alpha+2) (a + delta)**-(alpha+3) / 360.
    Rounding: _em_tail takes log(x1 / x0) with an absolute error of at most
    (3 + 2 log(x1 / x0)) ulps, and the integral's derivative by that log is
    x1**(1 - alpha) <= x1 * x0**-alpha.  Both decrease in delta apart from
    x1, so they are taken at delta = 0 and x1 at the upper bound.
    """
    lo, hi = TRAIN_DELTA_BOUNDS
    x0 = a + lo
    x1 = b + hi
    fa = float(x0) ** -alphas
    remainder = alphas * (alphas + 1.0) * (alphas + 2.0) * fa / x0**3 / 360.0
    rounding = 16.0 * _UNIT_ROUNDOFF * (1.0 + math.log(x1 / x0)) * x1 * fa
    return remainder + rounding


def _screen_sums(
    alphas: np.ndarray, deltas: np.ndarray, d_max: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bin masses (rows by bins) and the whole-range sum at exponent
    alpha + 1, for each row (alpha, delta): the first SCREEN_HEAD_TERMS
    terms are summed exactly, each bin's remaining range by _em_tails."""
    head_terms = min(SCREEN_HEAD_TERMS, d_max)
    base = np.arange(1.0, head_terms + 1.0) + deltas[:, None]
    head = base ** -alphas[:, None]
    ranges = _bin_ranges(d_max)
    bins = np.empty((len(alphas), len(ranges)))
    for j, (lo, hi) in enumerate(ranges):
        bins[:, j] = head[:, lo : min(hi, head_terms)].sum(axis=1)
        if hi > head_terms:
            bins[:, j] += _em_tails(alphas, deltas, max(lo, head_terms) + 1, hi)
    s1 = (head / base).sum(axis=1)
    if d_max > head_terms:
        s1 += _em_tails(alphas + 1.0, deltas, head_terms + 1, d_max)
    return bins, s1


def _sum_errors(
    alphas: np.ndarray, d_max: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Absolute error bounds, valid at every delta in the bracket, of the
    screen's bin masses, of _evaluate's bin masses and of _evaluate's
    normalization sum, apart from relative rounding: the tail bounds of
    _em_error plus d_max subnormal ulps for terms that underflow."""
    exact_terms = EXACT_SUM_TERMS
    head_terms = min(SCREEN_HEAD_TERMS, d_max)
    underflow = d_max * 2.0**-1074
    ranges = _bin_ranges(d_max)
    screen = np.full((len(alphas), len(ranges)), underflow)
    exact = np.full((len(alphas), len(ranges)), underflow)
    for j, (lo, hi) in enumerate(ranges):
        if hi > head_terms:
            screen[:, j] += _em_error(alphas, max(lo, head_terms) + 1, hi)
        if d_max > exact_terms and hi - lo > exact_terms:
            exact[:, j] += _em_error(alphas, lo + exact_terms + 1, hi)
    exact_s0 = np.full(len(alphas), underflow)
    if d_max > exact_terms:
        exact_s0 += _em_error(alphas, exact_terms + 1, d_max)
    return screen, exact, exact_s0


class _Screen(NamedTuple):
    """Screened half-norm losses of the admitted alphas, each with a bound
    on its distance from the exact loss, and a verdict per alpha: 1 when
    the exact training is proven to succeed, -1 when it is proven to fail,
    0 when the screen cannot tell or cannot bound the loss (loss nan,
    bound inf)."""

    loss: np.ndarray
    bound: np.ndarray
    verdict: np.ndarray


def _screen(data: PooledDistribution, alphas: np.ndarray) -> _Screen:
    """Screen alphas that passed the exact bracket test at delta = 0.

    Notation: f(delta) = d1 (1 + delta)**alpha S(delta) - 1 is the training
    function (S the normalization sum), increasing in delta; B_i are the
    bin masses and m_i = B_i / S the model's pooled values.  The screen's
    sums (_screen_sums) and _evaluate's differ from the true sums by at
    most rho relative plus the absolute bounds of _sum_errors (ES_i, EX_i,
    EX0, with ES and EX their sums over bins), where rho = (256 + 4 alpha)
    unit roundoffs covers powers (the rounded base costs alpha ulps),
    pairwise summation depth and the tail formula.  The checks at
    delta = 10, where the masses are least, keep every such relative error
    under 1/2, where |log(1 + x)| <= 2 |x|.

    1. Training outcome.  While ES/S and EX0/S stay under 1/4, the
       screen's f and the float f that _train_lane computes differ by at
       most err_f = (1 + |f|) (8 rho + 2 (ES + 2 EX0) / S~).  The lane
       fails exactly when its f(10) <= 0, so f~(10) > err_f proves it
       trains and f~(10) < -err_f proves it fails.
    2. Where delta lands.  The trained delta_x has a float residual of at
       most 2 TRAIN_RESIDUAL_TOL: its Newton phase stops below
       TRAIN_RESIDUAL_TOL and the ulp walk moves at most 36 ulps (asserted
       in infer_parameters for each such alpha it trains).  So |f(delta_x)| <= r
       = 2 TRAIN_RESIDUAL_TOL + 4 rho + 8 EX0 / S~(10).  A Newton solve on
       the screen's f gives delta_s; when f~ - err_f at delta_s - eps is
       below -r and f~ + err_f at delta_s + eps is above r (a side beyond
       the bracket needs no test), f being increasing puts delta_x within
       eps of delta_s.
    3. Per bin.  d log B_i / d delta and d log S / d delta both lie in
       [-alpha / (1 + delta), 0], so |d log m_i / d delta| <= alpha /
       (1 + delta).  The model's log value in an admissible bin then moves
       between the screen and the exact fit by at most
       Delta_i = 8 rho + 2 ES_i / B~_i + 2 ES / S~ + 4 EX_i / B~_i(10)
       + 4 EX / S~(10) + eps alpha / (1 + delta_lo) + lambda_i,
       lambda_i = 32 ulp-units (2 + |log v_i| + |log m~_i|) covering the
       logs (at most 4 ulps each) and the subtraction.
    4. Per loss term.  With gaps a, b, |a - b| <= Delta_i, clamped to 0
       below the noise floor c: both above, |sqrt a - sqrt b| <=
       sqrt(Delta_i); one above, sqrt(a) <= sqrt(c + Delta_i).  So each
       term moves by at most sqrt(Delta_i + c), and
       E = sum_i sqrt(Delta_i + c) + 4 (n + 1) u (loss~ + that sum)
       covers the square roots and the two float sums as well.
    """
    d1 = data.values[0]
    d_max = data.d_max
    admissible = np.array(admissible_bins(data))
    log_data = np.log(np.array(data.values)[admissible])
    n = len(alphas)
    lo_bound, hi_bound = TRAIN_DELTA_BOUNDS
    loss = np.full(n, np.nan)
    bound = np.full(n, np.inf)
    verdict = np.zeros(n, dtype=np.int8)
    if not n:
        return _Screen(loss, bound, verdict)

    rho = (256.0 + 4.0 * alphas) * _UNIT_ROUNDOFF
    es, ex, ex0 = _sum_errors(alphas, d_max)
    es_total = es.sum(axis=1)
    ex_total = ex.sum(axis=1)

    def training(rows: np.ndarray, deltas: np.ndarray):
        """Bins, S~, f~, its slope and err_f for the given rows."""
        alpha = alphas[rows]
        bins, s1 = _screen_sums(alpha, deltas, d_max)
        s0 = bins.sum(axis=1)
        scale = d1 * (1.0 + deltas) ** alpha
        f = scale * s0 - 1.0
        grad = alpha * scale * (s0 / (1.0 + deltas) - s1)
        err = (1.0 + np.abs(f)) * (
            8.0 * rho[rows] + 2.0 * (es_total[rows] + 2.0 * ex0[rows]) / s0
        )
        return bins, s0, f, grad, err

    with np.errstate(all="ignore"):
        rows = np.arange(n)
        bins10, s0_10, f10, _, err10 = training(rows, np.full(n, hi_bound))
        sums_ok = rho + (es_total + ex_total + ex0) / s0_10 <= 0.25
        verdict[sums_ok & (f10 < -err10)] = -1
        bins_ok = (
            rho[:, None] + (es + ex)[:, admissible] / bins10[:, admissible] <= 0.25
        ).all(axis=1)
        rows = np.flatnonzero(sums_ok & bins_ok & (f10 > err10))
        if not len(rows):
            return _Screen(loss, bound, verdict)

        # Newton inside the sign bracket, bisecting when a step leaves it.
        lo = np.full(len(rows), lo_bound)
        hi = np.full(len(rows), hi_bound)
        delta = np.full(len(rows), TRAIN_DELTA_START)
        for _ in range(64):
            _, _, f, grad, _ = training(rows, delta)
            lo = np.where(f < 0.0, delta, lo)
            hi = np.where(f > 0.0, delta, hi)
            candidate = delta - f / grad
            inside = (grad > 0.0) & (lo < candidate) & (candidate < hi)
            candidate = np.where(inside, candidate, 0.5 * (lo + hi))
            moving = np.abs(candidate - delta) > 1e-15 * (1.0 + delta)
            delta = np.where(f != 0.0, candidate, delta)
            if not moving.any():
                break

        bins, s0, f, grad, err = training(rows, delta)
        r = (
            2.0 * TRAIN_RESIDUAL_TOL
            + 4.0 * rho[rows]
            + 8.0 * ex0[rows] / s0_10[rows]
        )
        eps = np.maximum(4.0 * (err + r) / grad, 1e-15 * (1.0 + delta))
        delta_lo = delta - eps
        delta_hi = delta + eps
        _, _, f_lo, _, err_lo = training(rows, np.maximum(delta_lo, lo_bound))
        _, _, f_hi, _, err_hi = training(rows, np.minimum(delta_hi, hi_bound))
        bracketed = (grad > 0.0) & ((delta_lo <= lo_bound) | (f_lo + err_lo < -r))
        bracketed &= (delta_hi >= hi_bound) | (f_hi - err_hi > r)

        alpha = alphas[rows]
        log_model = np.log(bins[:, admissible] / s0[:, None])
        gaps = np.abs(log_data - log_model)
        terms = np.sqrt(np.where(gaps < LOG_GAP_NOISE_FLOOR, 0.0, gaps))
        screened = terms.sum(axis=1)
        moved = (
            8.0 * rho[rows, None]
            + 2.0 * es[rows][:, admissible] / bins[:, admissible]
            + (2.0 * es_total[rows] / s0)[:, None]
            + 4.0 * ex[rows][:, admissible] / bins10[rows][:, admissible]
            + (4.0 * ex_total[rows] / s0_10[rows])[:, None]
            + (eps * alpha / (1.0 + np.maximum(delta_lo, lo_bound)))[:, None]
            + 32.0 * _UNIT_ROUNDOFF * (2.0 + np.abs(log_data) + np.abs(log_model))
        )
        spread = np.sqrt(moved + LOG_GAP_NOISE_FLOOR).sum(axis=1)
        spread += 4.0 * (len(admissible) + 1) * _UNIT_ROUNDOFF * (screened + spread)
        ok = bracketed & np.isfinite(screened) & np.isfinite(spread)
        verdict[rows[ok]] = 1
        loss[rows[ok]] = screened[ok]
        bound[rows[ok]] = spread[ok]
    return _Screen(loss, bound, verdict)


def _admitted(
    d1: float, alphas: Sequence[float], d_max: int
) -> List[Tuple[float, _Sums]]:
    """The alphas that pass _train_lane's bracket test at the lower bound,
    each with the sums that decided it.  The test rejects most grid alphas,
    so it is evaluated for the whole grid in one round."""
    lo = TRAIN_DELTA_BOUNDS[0]
    sums = _evaluate([(alpha, lo, "s0") for alpha in alphas], d_max)
    return [
        (alpha, got)
        for alpha, got in zip(alphas, sums)
        if _newton_values(d1, alpha, lo, got)[0] < 0.0
    ]


def infer_parameters(data: PooledDistribution, grid: AlphaGrid = DEFAULT_GRID) -> ZmFit:
    """Grid search over alpha with per-alpha delta training.

    Every grid alpha that can win is trained to match the data's degree-1
    value, all of them in lock-step; candidates are scored by half_norm_loss
    and the smallest loss wins, ties going to the smaller alpha.  Which
    alphas can win is settled by _screen: an alpha is trained exactly when
    the screen cannot decide it, or when its screened loss minus its bound
    is at most the least screened loss plus bound among the alphas proven
    trainable, so the exact winner is always among them.  Raises
    InferenceError when the data is degenerate or no grid point can be
    trained.
    """
    d1 = data.values[0]
    if not 0.0 < d1 < 1.0:
        raise InferenceError(f"degree-1 mass must be in (0, 1), got {d1}")
    bins_used = len(admissible_bins(data))
    if not bins_used:
        raise InferenceError("no admissible bins to fit")
    d_max = data.d_max
    admitted = _admitted(d1, grid.values, d_max)
    screen = _screen(data, np.array([alpha for alpha, _ in admitted]))
    proven = screen.verdict == 1
    best_bound = np.min(screen.loss[proven] + screen.bound[proven], initial=np.inf)
    confirm = (screen.verdict == 0) | (
        proven & (screen.loss - screen.bound <= best_bound)
    )
    lanes = []
    for k in np.flatnonzero(confirm).tolist():
        alpha, sums = admitted[k]
        memo: Dict = {}
        _remember(memo, TRAIN_DELTA_BOUNDS[0], sums)
        lanes.append((k, alpha, _train_lane(d1, alpha, memo=memo)))
    results = _run_lanes([lane for _, _, lane in lanes], d_max)
    best: Optional[ZmFit] = None
    for (k, alpha, _), result in zip(lanes, results):
        assert screen.verdict[k] != (1 if result is None else -1), alpha
        if result is None:
            continue
        trained, model_bins = result
        params = ZmParams(alpha=alpha, delta=trained.delta, d_max=d_max)
        loss = half_norm_loss(data, _pooled(params, model_bins))
        if screen.verdict[k] == 1:
            assert trained.residual <= 2.0 * TRAIN_RESIDUAL_TOL, alpha
            assert abs(loss - screen.loss[k]) <= screen.bound[k], alpha
        if best is None or loss < best.loss:
            best = ZmFit(
                params=params,
                loss=loss,
                leaf=leaf_parameter(params),
                bins_used=bins_used,
            )
    if best is None:
        raise InferenceError("no grid alpha admitted a trained delta")
    return best
