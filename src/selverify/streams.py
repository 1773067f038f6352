"""Synthetic verification environments.

Every stream hands out (weak score, latent strong label) pairs through one
small interface: `next` yields the pending item, `answer_strong_query`
reveals its label at the cost of one strong call, and `react` reports the
caller's final accept/reject so task-structured streams can redraw or
finalize. The non-reactive streams ignore `react`. They are one state
machine, `_BufferedStream`: score-law segments in order, each label drawn
as Bernoulli(link(score)). A calibrated stream is one endless segment under
the identity link, a miscalibrated one an endless segment under its link,
and a drift stream a finite list of segments under the identity link. The
best-of-n and stepwise streams use `react` to drive per-problem and
per-episode bookkeeping. Those two are one state machine, `_TaskStream`: a
best-of-n problem is a unit of one step with `budget` attempts, a stepwise
episode is a unit of `steps` steps with `retries + 1` attempts each and a
point-mass difficulty. A task stream reads its candidates off a tape that
draws each one on its first read. Fresh streams of one spec and seed whose
difficulty draws nothing (a point mass) draw the same candidates whatever
their decisions, so the rows of a sweep's repetition read one tape and
each candidate is drawn once, and a run of such a stream needs no
per-item loop: the policy runs over the tape's blocks and the stream folds
its final decisions in. An external verifier can stand in for any of
these by subclassing `VerifierStream` with `next`, `answer_strong_query`
and `spec_dict`, plus `react` and `outcome` if it is reactive. `run_one`
sends a non-reactive stream to the array kernel only if it also draws
arrays (`take`, as the built-in ones do), a task stream only if its
difficulty is a point mass, and runs any other stream item by item.

Environment randomness is always a separate generator from policy
randomness, seeded from the stream spec alone, so item sequences replay
independently of how the policy behaves (exactly, for non-reactive streams;
given the same decision sequence, for reactive ones).
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .distributions import (
    BetaDist,
    MixtureDist,
    PointMass,
    ScoreDist,
    dist_from_dict,
)
from .policy import Action, ProtocolError, _check_count, _check_number

__all__ = [
    "CHUNK",
    "StreamItem",
    "TaskOutcome",
    "VerifierStream",
    "CalibratedStream",
    "MiscalibratedStream",
    "DriftStream",
    "BestOfNStream",
    "StepwiseStream",
    "apply_link",
    "make_stream",
    "run_strong_only",
    "run_weak_only",
    "sample_items",
    "score_report",
    "preset_math_like",
    "preset_ambiguous",
    "preset_calibrated",
    "preset_drift",
    "PRESET_LEVELS",
]

# Non-reactive streams draw in fixed-size blocks so that pulling items one
# at a time and pulling them as arrays consume the generator identically.
CHUNK = 4096
# A task stream's tape blocks (`_TaskStream._blocks`) hold at least this many
# candidates, short of the run's end.
_MIN_BLOCK = 64


@dataclass
class StreamItem:
    """One candidate: weak score plus the latent strong label.

    problem_id / step_index identify the enclosing problem or episode step
    for task-structured streams and stay None otherwise.
    """

    w: float
    g_latent: int
    problem_id: Optional[int] = None
    step_index: Optional[int] = None


@dataclass(frozen=True)
class TaskOutcome:
    """Aggregate result of a finished task stream."""

    problems_total: int
    problems_correct: int
    strong_calls_per_problem: float
    weak_calls_per_problem: float

    def __post_init__(self):
        if not 0 <= self.problems_correct <= self.problems_total:
            raise ValueError(
                f"problems_correct={self.problems_correct} out of range "
                f"for problems_total={self.problems_total}"
            )
        if self.strong_calls_per_problem < 0 or self.weak_calls_per_problem < 0:
            raise ValueError("per-problem call averages must be nonnegative")

    @property
    def accuracy(self) -> float:
        if self.problems_total == 0:
            return 0.0
        return self.problems_correct / self.problems_total


class VerifierStream:
    """Interface every environment implements.

    `reactive` tells callers whether final decisions feed back into the
    stream. Non-reactive streams ignore `react`.
    """

    reactive = False

    def next(self) -> Optional[StreamItem]:
        """Pending item, or None once the stream is exhausted."""
        raise NotImplementedError

    def answer_strong_query(self) -> int:
        """Reveal the pending item's latent label, charging one strong call."""
        raise NotImplementedError

    def react(self, final: Action) -> None:
        """Report the final accept/reject for the pending item."""

    def outcome(self) -> TaskOutcome:
        raise ProtocolError("this stream does not aggregate task outcomes")

    def spec_dict(self) -> dict:
        raise NotImplementedError


def apply_link(link: dict, w: np.ndarray) -> np.ndarray:
    """Evaluate a monotone miscalibration map on scores."""
    kind = link.get("kind")
    if kind == "identity":
        return np.asarray(w, dtype=np.float64)
    if kind == "power":
        k = link["exponent"]
        _check_number("power link exponent", k, " > 0")
        return np.power(np.asarray(w, dtype=np.float64), float(k))
    raise ValueError(f"unknown link kind {kind!r}")


class _BufferedStream(VerifierStream):
    """The one non-reactive state machine: score-law segments in order, each
    label Bernoulli(link(score)).

    `segments` is a list of (score law, length); the last length may be
    None, and then the stream never ends (`total_length` is None). Blocks of
    at most CHUNK never straddle a segment, so the item sequence is a
    function of the spec alone.
    """

    def __init__(self, segments: list[tuple[ScoreDist, Optional[int]]], link: dict, seed: int):
        _check_count("seed", seed, 0)
        apply_link(link, np.array([0.5]))
        self.seed = int(seed)
        self.link = dict(link)
        self.segments = segments
        lengths = [length for _, length in segments]
        self.total_length = None if None in lengths else sum(lengths)
        self._rng = np.random.default_rng(self.seed)
        self._buf_w = np.empty(0)
        self._buf_g = np.empty(0, dtype=np.int64)
        self._pos = 0
        self._seg = 0
        self._seg_pos = 0
        self._pending: Optional[StreamItem] = None

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Advance by up to n items, returned as arrays.

        Shares the block source with `next`, so interleaving the two access
        styles never changes the item sequence.
        """
        _check_count("n", n, 0)
        ws, gs = [], []
        while n > 0:
            if self._pos == self._buf_w.size:
                if self._seg == len(self.segments):
                    break
                dist, length = self.segments[self._seg]
                k = CHUNK if length is None else min(CHUNK, length - self._seg_pos)
                self._seg_pos += k
                if self._seg_pos == length:
                    self._seg, self._seg_pos = self._seg + 1, 0
                self._buf_w = dist.sample(self._rng, k)
                u = self._rng.random(k)
                self._buf_g = (u < apply_link(self.link, self._buf_w)).astype(np.int64)
                self._pos = 0
            k = min(self._buf_w.size - self._pos, n)
            ws.append(self._buf_w[self._pos : self._pos + k])
            gs.append(self._buf_g[self._pos : self._pos + k])
            self._pos += k
            n -= k
        if not ws:
            return np.empty(0), np.empty(0, dtype=np.int64)
        return np.concatenate(ws), np.concatenate(gs)

    def next(self) -> Optional[StreamItem]:
        w, g = self.take(1)
        if w.size == 0:
            self._pending = None
            return None
        self._pending = StreamItem(w=float(w[0]), g_latent=int(g[0]))
        return self._pending

    def answer_strong_query(self) -> int:
        if self._pending is None:
            raise ProtocolError("no pending item to query")
        return self._pending.g_latent


class CalibratedStream(_BufferedStream):
    """Scores i.i.d. from score_dist, labels Bernoulli(score): one endless
    segment.

    The label draw makes Pr[g=1 | W=w] = w hold by construction.
    """

    def __init__(self, score_dist: ScoreDist, seed: int):
        super().__init__([(score_dist, None)], {"kind": "identity"}, seed)
        self.score_dist = score_dist

    def spec_dict(self) -> dict:
        return {
            "kind": "calibrated",
            "score_dist": self.score_dist.to_dict(),
            "seed": self.seed,
        }


class MiscalibratedStream(_BufferedStream):
    """Scores i.i.d. from score_dist, labels Bernoulli(link(score)): one
    endless segment."""

    def __init__(self, score_dist: ScoreDist, link: dict, seed: int):
        super().__init__([(score_dist, None)], link, seed)
        self.score_dist = score_dist

    def spec_dict(self) -> dict:
        return {
            "kind": "miscalibrated",
            "score_dist": self.score_dist.to_dict(),
            "link": dict(self.link),
            "seed": self.seed,
        }


class DriftStream(_BufferedStream):
    """Finite concatenation of calibrated segments with distinct score laws."""

    def __init__(self, segments: list[tuple[ScoreDist, int]], seed: int):
        if not segments:
            raise ValueError("drift stream needs at least one segment")
        for _, length in segments:
            _check_count("segment length", length, 1)
        super().__init__([(dist, int(length)) for dist, length in segments], {"kind": "identity"}, seed)

    def spec_dict(self) -> dict:
        return {
            "kind": "drift",
            "segments": [
                {"score_dist": dist.to_dict(), "length": length}
                for dist, length in self.segments
            ],
            "seed": self.seed,
        }


class _Tape:
    """A task stream's candidates in draw order, each drawn on its first
    read: the label, then the score. Scores sit in an array('d') and labels
    in a bytearray, so a tape costs 9 bytes a candidate.

    The generator is `default_rng(seed)`'s, a PCG64, whose double is a
    word's top 53 bits times 2**-53. So a label reads one raw word and
    tests it against `ceil(p * 2**53) << 11`, which is `rng.random() < p`
    bit for bit, and a score is one call of its law's `_sampler`: every
    value and the generator's state after each candidate are those of
    `label = rng.random() < p; w = law.sample(rng)`."""

    __slots__ = ("rng", "w", "g", "_raw", "_samplers", "_p", "_limit")

    def __init__(self, seed: int, correct_scores: ScoreDist, incorrect_scores: ScoreDist):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self._raw = self.rng.bit_generator.random_raw
        self._samplers = (incorrect_scores._sampler(self.rng), correct_scores._sampler(self.rng))
        self._p = self._limit = None
        self.w = array("d")
        self.g = bytearray()

    def draw_to(self, n: int, p: float) -> None:
        """Extend the tape to n candidates, each new one correct with
        probability p in [0, 1]; a tape that long already is left as it
        is."""
        if p != self._p:
            self._p, self._limit = p, math.ceil(p * 2.0**53) << 11
        raw, limit, samplers, w, g = self._raw, self._limit, self._samplers, self.w, self.g
        for _ in range(n - len(g)):
            label = raw() < limit
            g.append(label)
            w.append(samplers[label]())


class _TaskStream(VerifierStream):
    """Reactive base of the task streams: the one task-stream state machine.

    A unit (a problem or an episode) is `steps` steps in sequence, and each
    step allows up to `attempts` draws. The unit's success probability is
    drawn from `difficulty` once, at its first draw; each draw is correct
    with that probability, and its score comes from the correct or the
    incorrect score law. Accepting a step appends it; an accepted incorrect
    step taints the unit, which then counts as failed once it completes.
    Rejecting a step redraws it; a step that runs out of draws fails the
    unit at once. A rejection that followed a strong query redraws the same
    way and still spends a draw.

    The i-th draw reads the i-th candidate off the stream's tape, which
    draws it first if the tape holds only i. Fresh streams of one spec and
    seed whose difficulty draws nothing (a point mass) draw the same
    candidates whatever their decisions, so they may read one tape
    (`_share_tape`), and a run may read it in blocks (`_blocks`) and fold
    the decisions in afterwards (`_fold`, which `react` calls for one
    round); with any other difficulty the candidates depend on when each
    unit starts, and every stream reads its own, one candidate at a time.
    """

    reactive = True
    _indexes_steps = True

    def __init__(
        self,
        units: int,
        steps: int,
        attempts: int,
        difficulty: ScoreDist,
        correct_scores: ScoreDist,
        incorrect_scores: ScoreDist,
        seed: int,
    ):
        _check_count("seed", seed, 0)
        self.correct_scores = correct_scores
        self.incorrect_scores = incorrect_scores
        self.seed = int(seed)
        self._tape = _Tape(self.seed, correct_scores, incorrect_scores)
        self._pending: Optional[StreamItem] = None
        self._units = int(units)
        self._steps = int(steps)
        self._attempts = int(attempts)
        self._difficulty = difficulty
        # a point mass's value, read once; None where each unit draws its own
        self._fixed_p = float(difficulty.value) if isinstance(difficulty, PointMass) else None
        self._p = 0.0
        self._step = 0
        self._draws = 0
        self._tainted = False
        self._finished = 0
        self._correct = 0
        self._weak_calls = 0
        self._strong_calls = 0

    def _share_tape(self, other: Optional["_TaskStream"]) -> "_TaskStream":
        """Read the candidates off the tape of `other`, a stream of the same
        spec and seed, if there is one and the difficulty is a point mass;
        otherwise keep this stream's own tape. Returns self."""
        if other is not None and self._fixed_p is not None:
            self._tape = other._tape
        return self

    def _on_tape(self) -> bool:
        """Whether the candidates still to come are the tape's next ones
        whatever the decisions: the difficulty is a point mass and no
        candidate is pending."""
        return self._fixed_p is not None and self._pending is None

    def _unit_p(self, n: Optional[int] = None):
        """The success probability of a unit that starts now, or an array of
        those of n units. Raises ValueError on a draw outside [0, 1]."""
        if self._fixed_p is not None and n is None:
            return self._fixed_p
        p = self._difficulty.sample(self._tape.rng, n)
        if not (isinstance(p, float) and 0.0 <= p <= 1.0):  # a unit's draw, mostly
            bad = ~((np.asarray(p) >= 0.0) & (np.asarray(p) <= 1.0))  # NaN too
            if bad.any():
                raise ValueError(f"difficulty drew {np.asarray(p)[bad].tolist()[0]!r}, outside [0, 1]")
        return p

    def _blocks(self, limit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The scores and labels of the next candidates on the tape of a
        stream `_on_tape`, as `(float64, int64)` blocks, for at most `limit`
        more rounds and never past the `units × steps × attempts` draws a run
        can read. Each block is drawn when it is asked for, and the rounds
        before it must be folded by then: a block is as long as the rounds
        the unfinished units need at the least, and at least `_MIN_BLOCK`, so
        a run reads few blocks and draws few candidates past its end. The
        blocks stop once the last unit has ended."""
        tape, least = self._tape, min(self._steps, self._attempts)
        lo = self._weak_calls
        end = min(lo + limit, self._units * self._steps * self._attempts)
        while lo < end and self._finished < self._units:
            hi = min(lo + max((self._units - self._finished - 1) * least + 1, _MIN_BLOCK), end)
            tape.draw_to(hi, self._fixed_p)
            # copies: a view would keep the tape from growing
            yield (
                np.frombuffer(tape.w, np.float64, hi - lo, 8 * lo).copy(),
                np.frombuffer(tape.g, np.uint8, hi - lo, lo).astype(np.int64),
            )
            lo = hi

    def _fold(
        self, g: Sequence[int], accepted: Sequence[bool], strong: Optional[np.ndarray] = None
    ) -> int:
        """Fold the final decisions of rounds that read the next candidates
        into the unit bookkeeping: the one definition of what a decision does
        to the stream. `g` holds the rounds' latent labels and `accepted`
        whether each was accepted. `strong` flags the rounds that queried
        the strong verifier, as a boolean array; leave it out where
        `answer_strong_query` charged them. Stops at the round where the last
        unit ends and returns the number of rounds folded."""
        units, steps, attempts = self._units, self._steps, self._attempts
        finished, step, draws, tainted, correct = (
            self._finished, self._step, self._draws, self._tainted, self._correct,
        )
        n = 0
        for label, accept in zip(g, accepted):
            if finished == units:
                break
            n += 1
            if accept:
                if not label:
                    tainted = True
                step += 1
                draws = 0
                if step < steps:
                    continue
                correct += not tainted
            else:
                # a rejection redraws the step, or fails the unit once the
                # step is out of draws
                draws += 1
                if draws < attempts:
                    continue
            finished += 1
            step = draws = 0
            tainted = False
        self._finished, self._step, self._draws, self._tainted, self._correct = (
            finished, step, draws, tainted, correct,
        )
        self._weak_calls += n
        if strong is not None:
            self._strong_calls += int(np.count_nonzero(strong[:n]))
        return n

    def _sample_candidates(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n i.i.d. candidates: success probabilities, labels, then the
        correct scores, then the incorrect ones."""
        rng = self._tape.rng
        p = self._unit_p(n)
        g = (rng.random(n) < p).astype(np.int64)
        w = np.empty(n)
        n1 = int(g.sum())
        w[g == 1] = self.correct_scores.sample(rng, n1)
        w[g == 0] = self.incorrect_scores.sample(rng, n - n1)
        return w, g

    def next(self) -> Optional[StreamItem]:
        if self._pending is not None:
            raise ProtocolError("pending candidate awaits react()")
        if self._finished >= self._units:
            return None
        tape = self._tape
        if self._draws == 0 and self._step == 0:
            self._p = self._unit_p()
        i = self._weak_calls
        if i == len(tape.g):
            tape.draw_to(i + 1, self._p)
        step = self._step if self._indexes_steps else None
        self._pending = StreamItem(tape.w[i], tape.g[i], self._finished, step)
        return self._pending

    def answer_strong_query(self) -> int:
        if self._pending is None:
            raise ProtocolError("no pending candidate to query")
        self._strong_calls += 1
        return self._pending.g_latent

    def react(self, final: Action) -> None:
        if self._pending is None:
            raise ProtocolError("no pending candidate to react to")
        if final is not Action.ACCEPT and final is not Action.REJECT:
            raise ValueError(f"final decision must be accept or reject, got {final!r}")
        self._fold((self._pending.g_latent,), (final is Action.ACCEPT,))
        self._pending = None

    def outcome(self) -> TaskOutcome:
        if self._finished < self._units or self._pending is not None:
            raise ProtocolError("outcome requested before the stream finished")
        return TaskOutcome(
            problems_total=self._units,
            problems_correct=self._correct,
            strong_calls_per_problem=self._strong_calls / self._units,
            weak_calls_per_problem=self._weak_calls / self._units,
        )

    def run_weak_only(self) -> TaskOutcome:
        """Greedy baseline: never query the strong verifier. Each step
        takes the first highest-scored of `attempts` draws, and every step
        is drawn, even after a wrong one."""
        if self._weak_calls or self._finished or self._pending is not None:
            raise ProtocolError("baseline runs need a fresh stream")
        tape, per_unit = self._tape, self._steps * self._attempts
        n = self._units * per_unit
        # a point mass draws nothing at a unit's start: the units are one run
        for end in range(per_unit, n + 1, per_unit) if self._fixed_p is None else (n,):
            tape.draw_to(end, self._unit_p())
        w = np.frombuffer(tape.w, count=n).reshape(-1, self._attempts)
        g = np.frombuffer(tape.g, np.uint8, count=n).reshape(-1, self._attempts)
        best = g[np.arange(len(g)), w.argmax(axis=1)].reshape(self._units, self._steps)
        self._correct = int(np.count_nonzero(best.all(axis=1)))
        self._finished, self._weak_calls = self._units, n
        return self.outcome()


class BestOfNStream(_TaskStream):
    """Outcome-level task stream: one answer per problem, redraws on reject.

    A problem is a unit of one step with `budget` draws, its base
    correctness rate drawn from `difficulty`. Accepting finalizes the
    problem with the current candidate; once `budget` candidates are
    rejected, the problem finalizes unanswered (counted incorrect). Items
    carry no step index.
    """

    _indexes_steps = False

    def __init__(
        self,
        problems: int,
        budget: int,
        difficulty: ScoreDist,
        correct_scores: ScoreDist,
        incorrect_scores: ScoreDist,
        seed: int,
    ):
        _check_count("problems", problems, 1)
        _check_count("budget", budget, 1)
        super().__init__(problems, 1, budget, difficulty, correct_scores, incorrect_scores, seed)
        self.problems = int(problems)
        self.budget = int(budget)
        self.difficulty = difficulty

    def spec_dict(self) -> dict:
        return {
            "kind": "best_of_n",
            "problems": self.problems,
            "budget": self.budget,
            "difficulty": self.difficulty.to_dict(),
            "correct_scores": self.correct_scores.to_dict(),
            "incorrect_scores": self.incorrect_scores.to_dict(),
            "seed": self.seed,
        }


class StepwiseStream(_TaskStream):
    """Episode-level task stream: L steps in sequence, per-step retries.

    An episode is a unit of `steps` steps with `retries + 1` draws each,
    every draw correct with probability step_correct_prob (a point-mass
    difficulty, which draws no randomness). An episode is correct only if
    every accepted step was latently correct.
    """

    def __init__(
        self,
        episodes: int,
        steps: int,
        step_correct_prob: float,
        correct_scores: ScoreDist,
        incorrect_scores: ScoreDist,
        retries: int,
        seed: int,
    ):
        _check_count("episodes", episodes, 1)
        _check_count("steps", steps, 1)
        _check_count("retries", retries, 0)
        _check_number("step_correct_prob", step_correct_prob, " in [0, 1]")
        self.episodes = int(episodes)
        self.steps = int(steps)
        self.step_correct_prob = float(step_correct_prob)
        self.retries = int(retries)
        super().__init__(
            episodes, steps, self.retries + 1, PointMass(self.step_correct_prob),
            correct_scores, incorrect_scores, seed,
        )

    def spec_dict(self) -> dict:
        return {
            "kind": "stepwise",
            "episodes": self.episodes,
            "steps": self.steps,
            "step_correct_prob": self.step_correct_prob,
            "correct_scores": self.correct_scores.to_dict(),
            "incorrect_scores": self.incorrect_scores.to_dict(),
            "retries": self.retries,
            "seed": self.seed,
        }


def make_stream(spec: dict, seed: Optional[int] = None) -> VerifierStream:
    """Construct a stream from its spec dict; `seed` overrides the spec's."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("stream spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    use_seed = spec.get("seed", 0) if seed is None else seed
    try:
        if kind == "calibrated":
            return CalibratedStream(dist_from_dict(spec["score_dist"]), use_seed)
        if kind == "miscalibrated":
            return MiscalibratedStream(
                dist_from_dict(spec["score_dist"]), spec["link"], use_seed
            )
        if kind == "drift":
            segments = [
                (dist_from_dict(seg["score_dist"]), seg["length"])
                for seg in spec["segments"]
            ]
            return DriftStream(segments, use_seed)
        if kind == "best_of_n":
            return BestOfNStream(
                problems=spec["problems"],
                budget=spec["budget"],
                difficulty=dist_from_dict(spec["difficulty"]),
                correct_scores=dist_from_dict(spec["correct_scores"]),
                incorrect_scores=dist_from_dict(spec["incorrect_scores"]),
                seed=use_seed,
            )
        if kind == "stepwise":
            return StepwiseStream(
                episodes=spec["episodes"],
                steps=spec["steps"],
                step_correct_prob=spec["step_correct_prob"],
                correct_scores=dist_from_dict(spec["correct_scores"]),
                incorrect_scores=dist_from_dict(spec["incorrect_scores"]),
                retries=spec["retries"],
                seed=use_seed,
            )
    except KeyError as exc:
        raise ValueError(f"stream spec missing key {exc}") from exc
    raise ValueError(f"unknown stream kind {kind!r}")


def run_strong_only(stream: VerifierStream) -> TaskOutcome:
    """Oracle baseline: query the strong verifier on every candidate and
    accept exactly the correct ones. A task stream with a point-mass
    difficulty folds its tape's labels a block at a time; any other
    reactive stream runs one candidate at a time."""
    if not stream.reactive:
        raise ValueError("the oracle baseline needs a task stream")
    if isinstance(stream, _TaskStream) and stream._on_tape():
        # every round is escalated, and accepted exactly where correct
        for _, g in stream._blocks(sys.maxsize):
            labels = g.tolist()
            stream._fold(labels, labels, np.ones(g.size, np.bool_))
        return stream.outcome()
    while True:
        item = stream.next()
        if item is None:
            break
        g = stream.answer_strong_query()
        stream.react(Action.ACCEPT if g == 1 else Action.REJECT)
    return stream.outcome()


def run_weak_only(stream: VerifierStream) -> TaskOutcome:
    """Greedy baseline: accept the argmax-score candidate from each pool."""
    if not isinstance(stream, _TaskStream):
        raise ValueError("the greedy baseline needs a task stream")
    return stream.run_weak_only()


def sample_items(spec: dict, n: int, seed: Optional[int] = None):
    """Draw n (scores, labels) from the stream `make_stream(spec, seed)`.

    Non-reactive streams are consumed directly (drift yields at most its
    total length). Task streams are sampled i.i.d. at the candidate level.
    """
    _check_count("n", n, 0)
    stream = make_stream(spec, seed=seed)
    if isinstance(stream, _TaskStream):
        return stream._sample_candidates(n)
    return stream.take(n)


def score_report(
    spec: dict, samples: int = 10**5, bins: int = 20, seed: Optional[int] = None
) -> dict:
    """Score diagnostics: sharpness, conditional means, calibration, Brier.

    Sharpness is the spread of |w - 0.5|; separation is the gap between the
    mean score of correct and incorrect items. The calibration table splits
    [0, 1] into equal bins and compares each bin's empirical correctness
    rate with its mean score.
    """
    _check_count("samples", samples, 1)
    _check_count("bins", bins, 1)
    w, g = sample_items(spec, samples, seed=seed)
    n = int(w.size)
    if n == 0:
        raise ValueError("stream produced no items to diagnose")
    sharp = np.abs(w - 0.5)
    mu1 = float(w[g == 1].mean()) if (g == 1).any() else None
    mu0 = float(w[g == 0].mean()) if (g == 0).any() else None
    edges = np.linspace(0.0, 1.0, bins + 1)
    # np.digitize puts w == 1.0 past the last bin; fold it back in
    idx = np.clip(np.digitize(w, edges) - 1, 0, bins - 1)
    table = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        table.append(
            {
                "lo": float(edges[b]),
                "hi": float(edges[b + 1]),
                "count": count,
                "mean_score": float(w[mask].mean()) if count else None,
                "frac_correct": float(g[mask].mean()) if count else None,
            }
        )
    return {
        "kind": spec.get("kind"),
        "samples": n,
        "sharpness_mean": float(sharp.mean()),
        "sharpness_median": float(np.median(sharp)),
        "sharpness_std": float(sharp.std()),
        "mu_correct": mu1,
        "mu_incorrect": mu0,
        "separation": (mu1 - mu0) if (mu1 is not None and mu0 is not None) else None,
        "brier": float(np.mean((w - g) ** 2)),
        "calibration": table,
    }


# Conditional-score presets: beta families matched to the targeted
# conditional means at a fixed concentration, bases matched to the targeted
# per-problem accuracy. The spreads are synthetic defaults.
_PRESET_CONCENTRATION = 10.0
_PRESET_PARAMS = {
    "easy": {"mu_correct": 0.90, "mu_incorrect": 0.33, "base": 0.922},
    "medium": {"mu_correct": 0.86, "mu_incorrect": 0.32, "base": 0.827},
    "hard": {"mu_correct": 0.64, "mu_incorrect": 0.26, "base": 0.479},
}
PRESET_LEVELS = tuple(_PRESET_PARAMS)


def _beta_with_mean(mu: float) -> BetaDist:
    kappa = _PRESET_CONCENTRATION
    return BetaDist(kappa * mu, kappa * (1.0 - mu))


def _preset_entry(level: str) -> dict:
    if level not in _PRESET_PARAMS:
        raise ValueError(
            f"unknown preset level {level!r}; expected one of {PRESET_LEVELS}"
        )
    return _PRESET_PARAMS[level]


def preset_math_like(
    level: str, problems: int = 500, budget: int = 4, seed: int = 0
) -> dict:
    """Best-of-n spec with conditional score families matched to the
    targeted means (easy 0.90/0.33, medium 0.86/0.32, hard 0.64/0.26) and
    base accuracies (0.922, 0.827, 0.479)."""
    p = _preset_entry(level)
    return {
        "kind": "best_of_n",
        "problems": problems,
        "budget": budget,
        "difficulty": PointMass(p["base"]).to_dict(),
        "correct_scores": _beta_with_mean(p["mu_correct"]).to_dict(),
        "incorrect_scores": _beta_with_mean(p["mu_incorrect"]).to_dict(),
        "seed": seed,
    }


def preset_ambiguous(problems: int = 500, budget: int = 4, seed: int = 0) -> dict:
    """Best-of-n spec whose conditional score families nearly coincide, so
    weak scores carry almost no signal about correctness."""
    return {
        "kind": "best_of_n",
        "problems": problems,
        "budget": budget,
        "difficulty": PointMass(_PRESET_PARAMS["easy"]["base"]).to_dict(),
        "correct_scores": BetaDist(8.4, 7.6).to_dict(),
        "incorrect_scores": BetaDist(7.6, 8.4).to_dict(),
        "seed": seed,
    }


def preset_calibrated(level: str, seed: int = 0) -> dict:
    """Calibrated stream whose score marginal equals the candidate marginal
    of the same-level best-of-n preset."""
    p = _preset_entry(level)
    marginal = MixtureDist(
        p["base"],
        _beta_with_mean(p["mu_correct"]),
        _beta_with_mean(p["mu_incorrect"]),
    )
    return {"kind": "calibrated", "score_dist": marginal.to_dict(), "seed": seed}


def preset_drift(total_length: int = 10**5, seed: int = 0) -> dict:
    """Calibrated drift spec alternating a low-score and a high-score
    regime (segment means near 0.29 and 0.71) in four equal segments."""
    _check_count("total_length", total_length, 4)
    seg_len = total_length // 4
    lengths = [seg_len, seg_len, seg_len, total_length - 3 * seg_len]
    dists = [BetaDist(2.0, 5.0), BetaDist(5.0, 2.0)] * 2
    return {
        "kind": "drift",
        "segments": [
            {"score_dist": d.to_dict(), "length": n}
            for d, n in zip(dists, lengths)
        ],
        "seed": seed,
    }
