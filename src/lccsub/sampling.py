"""Subsampling estimators: uniform, case-control, weighted CC, local CC.

Each scheme accepts row i with a probability that may depend on (x_i, y_i),
then fits a weighted logistic regression whose offsets absorb the sampling
tilt, so the fitted coefficients estimate the original-population model
directly.  The equivalent two-step form (plain fit, then add the derived
`adjustment`) is exposed through the subsample and exercised in tests.

Acceptance uses the coupling z_i = 1{u_i <= prob_i} against caller-supplied
uniforms, so one shared uniform stream makes draws comparable across
schemes and pilots.  Every pilot keeps its rows by one rule, pilot_rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels as K
from .glm import FitConfig, FitResult, ModelParams, ObservationSet, fit_logistic

__all__ = [
    "Uniform",
    "CaseControl",
    "WeightedCaseControl",
    "LocalCaseControl",
    "SamplingScheme",
    "WeightedSubsample",
    "EmptySubsample",
    "TooFewCases",
    "PilotFit",
    "accept_rows",
    "scheme_adjustment",
    "acceptance_probability",
    "acceptance_probabilities",
    "draw_subsample",
    "fit_subsample",
    "estimate",
    "fit_pilot_wcc",
    "pilot_rows",
    "pilot_scan",
    "pilot_subsample",
    "thin_uniform",
    "class_balanced_scheme",
    "class_counts",
    "RateCalibration",
    "accept_pass",
    "accept_scan",
    "accept_finish",
    "ShardScan",
    "CHUNK_ROWS",
]


class EmptySubsample(Exception):
    """No rows were accepted."""


class TooFewCases(Exception):
    """A class needed by the scheme is absent from the data."""


@dataclass(frozen=True)
class Uniform:
    """Accept every row with the same rate; weights 1, no adjustment."""

    rate: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")


def _check_class_rates(scheme):
    for name in ("a0", "a1"):
        if not 0.0 < getattr(scheme, name) <= 1.0:
            raise ValueError(f"{name} must be in (0, 1]")


@dataclass(frozen=True)
class CaseControl:
    """Accept with a1 (cases) or a0 (controls); correct the intercept by
    the log-selection bias b = log(a1/a0) afterwards."""

    a0: float
    a1: float

    __post_init__ = _check_class_rates

    @property
    def bias(self) -> float:
        return float(np.log(self.a1 / self.a0))


@dataclass(frozen=True)
class WeightedCaseControl:
    """Case-control acceptance with Horvitz-Thompson weights 1/a(y);
    the weighted fit needs no correction."""

    a0: float
    a1: float

    __post_init__ = _check_class_rates


@dataclass(frozen=True)
class LocalCaseControl:
    """Accept with c*|y - ptilde(x)| clipped at 1 and weight floored at 1.

    retain_cases keeps every case (probability 1) with weight
    c*(1 - ptilde(x)) instead, preserving the expected weighted
    contribution of each row.
    """

    pilot: ModelParams
    c: float = 1.0
    retain_cases: bool = False

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be positive")


SamplingScheme = Uniform | CaseControl | WeightedCaseControl | LocalCaseControl


def accept_rows(scheme: SamplingScheme, features, labels, uniforms, eta=None):
    """One accept-reject pass over a chunk of rows: (keep, weight, offset, prob).

    Row i is kept iff uniforms[i] <= prob[i]; weight and offset are the
    row's fit weight and tilt offset.  Rows are independent, so splitting
    them into chunks does not change any output.  A local case-control
    scheme takes the pilot's linear predictors from `eta` when given.
    """
    n = labels.shape[0]
    if isinstance(scheme, LocalCaseControl):
        if eta is None:
            eta = scheme.pilot.linear_predictor(features)
        keep, weight, prob = K.lcc_accept(
            eta, labels, scheme.c, uniforms, scheme.retain_cases
        )
        return keep, weight, -eta, prob
    if isinstance(scheme, Uniform):
        prob = np.full(n, scheme.rate)
    elif isinstance(scheme, (CaseControl, WeightedCaseControl)):
        prob = np.where(labels == 1.0, scheme.a1, scheme.a0)
    else:
        raise TypeError(f"unknown scheme {type(scheme)!r}")
    weight = 1.0 / prob if isinstance(scheme, WeightedCaseControl) else np.ones(n)
    offset = np.full(n, scheme.bias if isinstance(scheme, CaseControl) else 0.0)
    return uniforms <= prob, weight, offset, prob


def scheme_adjustment(scheme: SamplingScheme, p: int) -> np.ndarray:
    """The scheme's coefficient adjustment for p features: offset_i = -adjustment'(1, x_i)."""
    if isinstance(scheme, LocalCaseControl):
        return scheme.pilot.as_array()
    adj = np.zeros(p + 1)
    if isinstance(scheme, CaseControl):
        adj[0] = -scheme.bias
    return adj


def acceptance_probabilities(scheme: SamplingScheme, features, labels, eta=None):
    """Vectorized (prob, weight) for every row."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    # uniforms are irrelevant for prob/weight; pass u=2 so keep is unused
    _, weight, _, prob = accept_rows(scheme, features, labels, np.full(labels.shape[0], 2.0), eta)
    return prob, weight


def acceptance_probability(scheme: SamplingScheme, x, y) -> tuple[float, float]:
    """Acceptance probability and fit weight for a single row."""
    prob, weight = acceptance_probabilities(
        scheme, np.atleast_2d(np.asarray(x, dtype=np.float64)), [float(y)]
    )
    return float(prob[0]), float(weight[0])


@dataclass(frozen=True)
class WeightedSubsample:
    """The rows a draw kept, in read order (a pilot's by class, then key), ready to fit.

    rows are their positions; offsets are the per-row additions that make
    the subsample fit report original-population coefficients directly.
    Equivalently the plain zero-offset fit plus `adjustment`, derived from
    the scheme, gives the same estimate, since offset_i = -adjustment'(1, x_i).
    expected_size and size_variance are the mean and variance of the size.
    """

    scheme: SamplingScheme
    rows_read: int
    expected_size: float
    size_variance: float
    rows: np.ndarray
    labels: np.ndarray
    features: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray

    @property
    def realized_size(self) -> int:
        return int(self.rows.size)

    @property
    def adjustment(self) -> np.ndarray:
        """Coefficient vector to add to a plain (offset-free) fit of the subsample."""
        return scheme_adjustment(self.scheme, self.features.shape[1])

    def to_observation_set(self) -> ObservationSet:
        """The fit input: the kept rows with their weights and offsets."""
        if self.realized_size == 0:
            raise EmptySubsample("no rows were accepted")
        return ObservationSet(
            self.features, self.labels, weights=self.weights, offsets=self.offsets
        )


_ROW_FIELDS = ("rows", "labels", "features", "weights", "offsets")  # one entry per kept row


def draw_subsample(
    data: ObservationSet, scheme: SamplingScheme, uniforms, target_size: int | None = None
) -> WeightedSubsample:
    """Accept-reject pass: row i enters iff uniforms[i] <= prob_i.

    It reads the rows in CHUNK_ROWS chunks, as `sample` reads a file, so the
    sums, and with them expected_size, match `sample`'s bit for bit.  With
    target_size (local case-control only) the pass also solves the c whose
    expected subsample size is exactly target_size; see accept_pass.  The
    subsample's weights and offsets combine the source's own with the
    scheme's.  Deterministic given (data, scheme, uniforms, target_size).
    """
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.shape != (data.n,):
        raise ValueError(f"need {data.n} uniforms, got shape {uniforms.shape}")
    spans = [slice(i, i + CHUNK_ROWS) for i in range(0, data.n, CHUNK_ROWS)]
    chunks = ((data.features[r], data.labels[r], uniforms[r]) for r in spans)
    sub = accept_pass(scheme, chunks, target_size)
    return replace(
        sub,
        weights=data.weights[sub.rows] * sub.weights,
        offsets=data.offsets[sub.rows] + sub.offsets,
    )


def fit_subsample(sub: WeightedSubsample, config: FitConfig | None = None) -> FitResult:
    """Weighted, offset-aware fit of the subsample.

    The offsets encode the sampling tilt, so the returned coefficients are
    already adjusted to the original population (no post-hoc addition).
    """
    return fit_logistic(sub.to_observation_set(), config)


def estimate(
    data: ObservationSet,
    scheme: SamplingScheme,
    rng,
    config: FitConfig | None = None,
) -> ModelParams:
    """Draw one subsample with rng-supplied uniforms and fit it."""
    sub = draw_subsample(data, scheme, rng.random(data.n))
    return fit_subsample(sub, config).params


def class_balanced_scheme(
    counts: tuple[int, int], target_size: int, weighted: bool
) -> CaseControl | WeightedCaseControl:
    """Acceptance rates giving equal expected class counts, total target_size.

    counts is (n0, n1), the numbers of controls and cases.  Expected
    per-class count is min(target_size/2, n0, n1): when one class is
    exhausted the other is matched to it (all the cases and one control
    per case) and the expected total falls short of the target.
    """
    n0, n1 = counts
    if n1 == 0 or n0 == 0:
        raise TooFewCases(f"class counts (n0={n0}, n1={n1}) cannot be balanced")
    half = min(0.5 * target_size, float(n1), float(n0))
    a1 = half / n1
    a0 = half / n0
    cls = WeightedCaseControl if weighted else CaseControl
    return cls(a0=a0, a1=a1)


def class_counts(labels) -> tuple[int, int]:
    """(n0, n1) of a 0/1 label array."""
    n1 = int(np.count_nonzero(labels))
    return labels.shape[0] - n1, n1


@dataclass(frozen=True)
class PilotFit:
    """Pilot coefficients plus the subsample that produced them.

    subsample.rows reports the consumed rows so callers can recycle them
    into the second stage or exclude them from it.
    """

    params: ModelParams
    subsample: WeightedSubsample


def pilot_rows(labels, keys, per_class: int) -> np.ndarray:
    """The one pilot rule: each class keeps its rows with the per_class
    smallest keys (all if fewer), class 0's then class 1's, in key order.
    On uniform keys, a uniform sample per class; applied to parts of the
    rows and then to their kept rows together, it keeps the same rows."""
    picked = []
    for y in (0.0, 1.0):
        rows = np.flatnonzero(labels == y)
        if rows.size > per_class:
            rows = rows[np.argpartition(keys[rows], per_class - 1)[:per_class]]
        picked.append(rows[np.argsort(keys[rows])])
    return np.concatenate(picked)


def pilot_scan(chunks, per_class: int) -> tuple:
    """pilot_rows over (rows, labels, keys, *columns) chunks, each with the rows
    kept so far: the class counts of the rows seen and the columns of the rows
    kept.  On one uniform key per row it keeps what fit_pilot_wcc keeps, and a
    scan over several scans' kept rows keeps what one scan over all would."""
    seen, kept = (0, 0), None
    for part in chunks:
        seen = tuple(map(sum, zip(seen, class_counts(part[1]))))
        if kept is not None:  # a key above every kept key of a full class cannot enter
            keys, n0 = kept[2], class_counts(kept[1])[0]
            bound0 = keys[n0 - 1] if n0 == per_class else 1.0
            bound1 = keys[-1] if keys.size - n0 == per_class else 1.0
            pick = np.flatnonzero(part[2] <= np.where(part[1] == 1.0, bound1, bound0))
            part = _join([kept, tuple(column[pick] for column in part)])
        pick = pilot_rows(part[1], part[2], per_class)
        kept = tuple(column[pick] for column in part)
    return seen, kept


def pilot_subsample(seen, rows, labels, features) -> WeightedSubsample:
    """The WeightedSubsample of the rows pilot_rows kept of seen = (n0, n1):
    wcc at the realized rates kept/seen, each row weighing seen/kept of its
    class (so computed, not as 1/a, whose last bits differ)."""
    if not (seen[0] and seen[1]):
        raise TooFewCases("pilot needs both classes present")
    kept, n = class_counts(labels), labels.shape[0]
    scheme = WeightedCaseControl(a0=kept[0] / seen[0], a1=kept[1] / seen[1])
    weights = np.repeat([seen[0] / kept[0], seen[1] / kept[1]], kept)
    return WeightedSubsample(scheme, sum(seen), float(n), 0.0, rows, labels, features, weights,
                             np.zeros(n))


def fit_pilot_wcc(
    data: ObservationSet,
    target_size: int,
    rng,
    config: FitConfig | None = None,
) -> PilotFit:
    """Pilot of target_size // 2 uniform rows per class, or all of a smaller
    class, weighted seen/kept: pilot_rows on one rng.random() key per row."""
    if 2 * (target_size // 2) < data.p + 2:
        raise ValueError("target_size too small to fit the model")
    rows = pilot_rows(data.labels, rng.random(data.n), target_size // 2)
    sub = pilot_subsample(class_counts(data.labels), rows, data.labels[rows], data.features[rows])
    sub = replace(sub, weights=data.weights[rows] * sub.weights, offsets=data.offsets[rows])
    return PilotFit(params=fit_subsample(sub, config).params, subsample=sub)


def thin_uniform(sub: WeightedSubsample, n_s: int, rng) -> WeightedSubsample:
    """Uniform without-replacement thinning to exactly n_s rows.

    Each row keeps its weight and offset; the adjustment carries through.
    """
    if n_s > sub.realized_size:
        raise ValueError(f"cannot thin {sub.realized_size} rows to {n_s}")
    pick = np.sort(rng.choice(sub.realized_size, size=n_s, replace=False))
    return replace(
        sub,
        expected_size=float(n_s),
        size_variance=0.0,
        **{name: getattr(sub, name)[pick] for name in _ROW_FIELDS},
    )


CHUNK_ROWS = 8192  # rows per chunk of every streamed pass
_BOUND_SLACK = 1e-6  # relative headroom of RateCalibration.bound() over rounding


def _in_order(values) -> float:
    """Sum left to right, as one running total over the chunks would; on
    Python 3.12+ the builtin sum() compensates and rounds otherwise."""
    total = 0.0
    for value in values:
        total += value
    return total


class RateCalibration:
    """Streaming solve of sum_i prob_i(c) = target for a local case-control c.

    prob_i(c) = min(c*a_i, 1), where a_i is row i's acceptance probability
    at c = 1; retained cases have probability 1 at every c.  The sum is
    continuous, increasing and piecewise linear in c, and at the solution
    fewer than `target` rows are capped, all among the `target` largest
    a_i.  So the state is those values, the per-chunk sums of a_i and
    a_i**2 (for the size's variance) and two counts: memory O(target)
    whatever the number of rows.  accept_scan adds CHUNK_ROWS rows at a
    time and the sums are added in chunk order, so every result depends
    on the rows alone, not on where they came from or how a pass was split.
    """

    def __init__(self, scheme: LocalCaseControl, target: int):
        self.scheme = replace(scheme, c=1.0)
        self.target = int(target)
        self.top = np.empty(0)
        self.sums = []  # (sum of a_i, sum of a_i**2) per chunk, in chunk order
        self.free = 0  # rows with a_i > 0 whose probability scales with c
        self.sure = 0  # retained cases

    def add(self, a, labels) -> None:
        """Take a chunk's acceptance probabilities at c = 1, and its labels."""
        if self.scheme.retain_cases:
            case = labels == 1.0
            self.sure += int(case.sum())
            a = a[~case]
        self.free += int(np.count_nonzero(a))
        self.sums.append((float(a.sum()), float(np.square(a).sum())))
        self._keep_top(a)

    def _keep_top(self, a) -> None:
        top = np.concatenate([self.top, a])
        if top.size > self.target:
            top = np.partition(top, top.size - self.target)[-self.target:]
        self.top = top

    @classmethod
    def merge(cls, parts):
        """One calibration over the rows of parts given in file order,
        equal bit for bit to one that took all of their chunks itself."""
        merged = cls(parts[0].scheme, parts[0].target)
        for part in parts:
            merged.sums += part.sums
            merged.free += part.free
            merged.sure += part.sure
            merged._keep_top(part.top)
        return merged

    def _total(self, k: int) -> float:
        return _in_order(sums[k] for sums in self.sums)

    def solve(self) -> float:
        """The c whose expected subsample size is exactly target."""
        need = self.target - self.sure
        if not 0 < need < self.free:
            raise ValueError(
                f"target size {self.target} is not reachable: the expected size "
                f"lies strictly between {self.sure} and {self.sure + self.free}"
            )
        # the rows capped at the solution are among the `need` largest
        a = np.sort(self.top)[::-1][:need]
        head = np.concatenate([[0.0], np.cumsum(a)])
        total = self._total(0)
        # expected size at c = 1/a[k], where the rows 0..k are capped
        size_at = np.arange(1, a.size + 1) + (total - head[1:]) / a
        k = int(np.argmax(size_at >= need))
        # between 1/a[k-1] and 1/a[k] exactly the k largest rows are capped
        return (need - k) / (total - head[k])

    def bound(self) -> float:
        """An upper bound on solve() after any further rows.

        Each row adds a term that is nonnegative and nondecreasing in c,
        so the root over the rows so far can only fall as rows arrive.
        Retained cases only add to `sure`; once they reach the target no c
        is solvable and solve() raises at the end, so any bound serves, and
        the least positive one holds no row but those cases.
        """
        need = self.target - self.sure
        if need <= 0:
            return np.finfo(np.float64).tiny
        if need >= self.free:
            return np.finfo(np.float64).max  # not reachable yet
        return self.solve() * (1.0 + _BOUND_SLACK)

    def sizes(self, c: float) -> tuple[float, float]:
        """(sum_i prob_i(c), sum_i prob_i(c)**2) over the rows so far, for c <= solve()."""
        top = np.sort(self.top)  # summed in one order however rows arrived
        capped = np.minimum(c * top, 1.0)
        rest_sq = self._total(1) - float(np.square(top).sum())
        expected = self.sure + float(capped.sum()) + c * (self._total(0) - float(top.sum()))
        return expected, self.sure + float(np.square(capped).sum()) + c * c * rest_sq


def _accept_again(scheme, rows, labels, features, weights, offsets, uniforms):
    """Accept held rows again at scheme's c, from their pilot predictors -offsets."""
    keep, weights, offsets, _ = accept_rows(scheme, features, labels, uniforms, eta=-offsets)
    return tuple(a[keep] for a in (rows, labels, features, weights, offsets, uniforms))


def _join(parts):
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


@dataclass(frozen=True)
class ShardScan:
    """What accept_scan keeps of one shard of rows, for accept_finish.

    kept holds (rows, labels, features, weights, offsets) of the kept rows,
    and their uniforms while c is calibrated: then the rows held at the
    shard's bound, to be accepted again at the final c.  sums holds each
    chunk's (sum of prob, sum of prob**2) when c is given.
    """

    scheme: SamplingScheme
    rows_read: int
    sums: list
    calibration: RateCalibration | None
    kept: tuple


def accept_scan(
    scheme: SamplingScheme, chunks, target_size: int | None = None, first: int = 0
) -> ShardScan:
    """The accept-reject scan of one shard of (features, labels, uniforms) chunks,
    each of which may carry the pilot's predictors eta last (accept_rows).

    first is the position of the shard's first row.  With target_size
    (local case-control only) each chunk is accepted at the shard's
    RateCalibration.bound(): the root over the shard's rows so far, which
    neither its later rows nor the other shards' rows can raise.  The held
    rows are pruned at the bound each time they double.
    """
    calibration = None
    if target_size is not None:
        if not isinstance(scheme, LocalCaseControl):
            raise ValueError("target_size calibrates c, so it needs local case-control")
        calibration = RateCalibration(scheme, target_size)
        scheme, bound = calibration.scheme, calibration.bound()
    rows_read, sums, held, pruned, parts = 0, [], 0, 0, []
    for features, labels, uniforms, *eta in chunks:
        keep, weights, offsets, prob = accept_rows(scheme, features, labels, uniforms, *eta)
        columns = (labels, features, weights, offsets)
        if calibration is None:
            sums.append((float(prob.sum()), float(np.square(prob).sum())))
        else:
            calibration.add(prob, labels)
            # every row kept at a c <= bound, the retained cases (prob 1) too
            keep = (uniforms <= bound * prob) | (prob == 1.0)
            columns += (uniforms,)
        rows = np.flatnonzero(keep)
        parts.append((rows + (first + rows_read), *(a.take(rows, axis=0) for a in columns)))
        rows_read += labels.shape[0]
        held += rows.size
        if calibration is not None and held > 2 * pruned:
            bound = calibration.bound()
            parts = [_accept_again(replace(scheme, c=bound), *_join(parts))]
            held = pruned = parts[0][0].size
    return ShardScan(scheme, rows_read, sums, calibration, _join(parts))


def accept_finish(scans) -> WeightedSubsample:
    """The WeightedSubsample of accept_scan's shards, given in file order.

    Sums are added in chunk order, so the result equals bit for bit that
    of one scan over all the rows.  A calibrated c is solved over every
    shard, and the held rows are accepted again at it from their pilot
    predictors -offsets.
    """
    scheme, kept = scans[0].scheme, _join([scan.kept for scan in scans])
    if scans[0].calibration is None:
        sums = [s for scan in scans for s in scan.sums]
        expected, sum_sq = (_in_order(s[k] for s in sums) for k in (0, 1))
    else:
        calibration = RateCalibration.merge([scan.calibration for scan in scans])
        scheme = replace(scheme, c=calibration.solve())
        kept = _accept_again(scheme, *kept)
        expected, sum_sq = calibration.sizes(scheme.c)
    rows_read = sum(scan.rows_read for scan in scans)
    return WeightedSubsample(scheme, rows_read, expected, expected - sum_sq, *kept[:5])


def accept_pass(scheme: SamplingScheme, chunks, target_size: int | None = None):
    """The one accept-reject pass over (features, labels, uniforms) chunks:
    the one-shard case of accept_scan and accept_finish.

    Returns the WeightedSubsample of the kept rows.  With target_size
    (local case-control only) c is solved in the same scan.
    """
    return accept_finish([accept_scan(scheme, chunks, target_size)])
