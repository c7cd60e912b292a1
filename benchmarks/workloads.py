"""The four benchmark workloads: their inputs, their jobs and their checks.

Every workload is a fixed job list made from the seed.  A job is a batch of
operations; an operation is one top-level sign call or one CLI job, and it
fails on a wrong answer, an unexpected exception or an unexpected exit code.
Jobs call only entry points that the planned refactors keep:
``dehornoy_sign``, ``catalog_order(..).sign``, orders parsed by
``cli.parse_order`` and ``cli.main`` (never with ``--workers``).  Functions
are looked up through their module at call time, so the tracer's wrappers
are seen.

Answers are checked against an independent oracle where one exists (handle
reduction for ``dehornoy_n`` and its conjugates, sign(w^-1) = -sign(w) for
long words) and otherwise against ``reference.json``, recorded by
``make_reference.py`` at the commit that added the benchmark: CLI outputs by
digest, stream verdicts (undecided ones included) word by word.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from time import perf_counter

HR, NT = "hr", "nt"
VERDICT = {-1: "-", 0: "0", 1: "+"}
FROM_VERDICT = {v: k for k, v in VERDICT.items()}
UNDECIDED = "u"


class Tally:
    """Operation counts of a run, and the latency samples of the current pass
    per oracle."""

    def __init__(self):
        self.samples = {HR: [], NT: []}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


def reduced_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A uniformly random freely reduced braid word of exactly this length."""
    alphabet = [k for i in range(1, n) for k in (i, -i)]
    letters: list[int] = []
    for _ in range(length):
        k = rng.choice(alphabet)
        while letters and k == -letters[-1]:
            k = rng.choice(alphabet)
        letters.append(k)
    return tuple(letters)


def ball_element(rng: random.Random, n: int, radius: int) -> tuple[int, ...]:
    """A uniformly random element of the ball of freely reduced words."""
    g = 2 * (n - 1)
    sizes = [1] + [g * (g - 1) ** (ell - 1) for ell in range(1, radius + 1)]
    length = rng.choices(range(radius + 1), weights=sizes)[0]
    return reduced_word(rng, n, length)


def ball_words(n: int, radius: int) -> list[tuple[int, ...]]:
    """The freely reduced words of length <= radius, shortest first."""
    alphabet = [k for i in range(1, n) for k in (i, -i)]
    out: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        frontier = [w + (k,) for w in frontier for k in alphabet if not w or k != -w[-1]]
        out.extend(frontier)
    return out


def word_text(letters) -> str:
    return " ".join(str(k) for k in letters)


def output_digest(rc: int, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()


def run_cli(bo, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = bo.cli.main(list(argv))
    return rc, buf.getvalue()


# --- jobs -----------------------------------------------------------------------


class Job:
    """setup() builds the orders (timed as set-up), inputs() the braid words
    (untimed), run() one pass of operations into a Tally."""

    ops = 0

    def setup(self, bo) -> None:
        pass

    def inputs(self, bo) -> None:
        pass


class CliJob(Job):
    """One in-process CLI run, checked against its recorded output digest."""

    def __init__(self, argv: list[str]):
        self.argv = list(argv) + ["--format", "json"]
        self.key = " ".join(self.argv)
        self.label = self.key
        self.ops = 1

    def run(self, bo, ref: dict, tally: Tally) -> None:
        tally.attempted += 1
        expected = ref["cli"].get(self.key)
        try:
            rc, out = run_cli(bo, self.argv)
        except Exception as exc:  # an unexpected exception is a failed operation
            tally.fail(f"{self.key}: {type(exc).__name__}: {exc}")
            return
        if expected is None or output_digest(rc, out) != expected:
            tally.fail(f"{self.key}: output differs from the reference (exit {rc})")


def timed_verdicts(sign, words, samples: list, tally: Tally, label: str, undecided=()) -> list:
    """Sign every word in one loop, timing each call.

    Verdicts are "-", "0", "+", or "u" for an expected ``undecided``
    exception; None marks a call that failed.  Every call is timed, a
    failed one too, so that the i-th sample of every pass is the same word.
    """
    out = []
    for w in words:
        tally.attempted += 1
        t0 = perf_counter()
        try:
            verdict = VERDICT[sign(w)]
        except undecided:
            verdict = UNDECIDED
        except Exception as exc:  # an unexpected exception is a failed operation
            samples.append(perf_counter() - t0)
            tally.fail(f"{label} [{w}]: {type(exc).__name__}: {exc}")
            out.append(None)
            continue
        samples.append(perf_counter() - t0)
        out.append(verdict)
    return out


def check(tally: Tally, label: str, words, got: list, expected, what: str) -> None:
    """Count each word whose verdict differs; a failed call (None) was counted already."""
    for w, g, e in zip(words, got, expected):
        if g is not None and e is not None and g != e:
            tally.fail(f"{label} [{w}]: {what} {g} != {e}")


class PairSignJob(Job):
    """Handle reduction and a ray order on the same words; they must agree.

    ``order_name`` is a catalog entry whose ray order equals handle reduction
    on every braid (the ``dehornoy_n`` rays and ``b4_a``).  Each oracle signs
    all the words in its own loop.
    """

    def __init__(self, label: str, n: int, words: list[tuple[int, ...]], order_name: str):
        self.label = label
        self.n = n
        self.letters = words
        self.order_name = order_name
        self.ops = 2 * len(words)

    def setup(self, bo) -> None:
        self.order = bo.catalog.catalog_order(self.order_name)

    def inputs(self, bo) -> None:
        self.words = [bo.braids.BraidWord(self.n, w) for w in self.letters]

    def hr_sign(self, bo):
        return bo.dehornoy.dehornoy_sign

    def run(self, bo, ref: dict, tally: Tally) -> None:
        hr = timed_verdicts(self.hr_sign(bo), self.words, tally.samples[HR], tally, self.label)
        nt = timed_verdicts(self.order.sign, self.words, tally.samples[NT], tally, self.label)
        check(tally, self.label, self.words, nt, hr, "ray sign vs handle reduction")


class ConjugatedPairJob(PairSignJob):
    """conj:dehornoy:<h> against conj:nt:dehornoy_n:<h> on the same words.

    Both orders come from the CLI's order grammar, so they follow whatever
    implementation ``conj:`` selects for each base.
    """

    def __init__(self, label: str, n: int, words, conjugator: tuple[int, ...]):
        super().__init__(label, n, words, f"dehornoy_{n}")
        self.conjugator = word_text(conjugator)

    def setup(self, bo) -> None:
        cap = bo.planar.DEFAULT_DEPTH_CAP
        self.hr_order = bo.cli.parse_order(f"conj:dehornoy:{self.conjugator}", self.n, cap)
        self.order = bo.cli.parse_order(f"conj:nt:{self.order_name}:{self.conjugator}", self.n, cap)

    def hr_sign(self, bo):
        return self.hr_order.sign


class AntisymmetryJob(Job):
    """Handle reduction alone on long words: sign(w^-1) must be -sign(w)."""

    def __init__(self, label: str, n: int, words: list[tuple[int, ...]]):
        self.label = label
        self.n = n
        self.letters = words
        self.ops = 2 * len(words)

    def inputs(self, bo) -> None:
        BraidWord = bo.braids.BraidWord
        self.words = [BraidWord(self.n, w) for w in self.letters]
        self.inverses = [BraidWord(self.n, tuple(-k for k in reversed(w))) for w in self.letters]

    def run(self, bo, ref: dict, tally: Tally) -> None:
        hr_sign, samples = bo.dehornoy.dehornoy_sign, tally.samples[HR]
        signs = timed_verdicts(hr_sign, self.words, samples, tally, self.label)
        inverse_signs = timed_verdicts(hr_sign, self.inverses, samples, tally, self.label)
        flipped = [None if v is None else VERDICT[-FROM_VERDICT[v]] for v in signs]
        check(tally, self.label, self.inverses, inverse_signs, flipped, "sign of w^-1 vs -sign(w)")


class StreamSignJob(Job):
    """Signs of an infinite-type ray order, and handle reduction, on the same
    words; both are checked word by word against the recorded verdicts."""

    def __init__(self, label: str, n: int, order_name: str, words: list[tuple[int, ...]], ref_key: str, ref_index: list[int]):
        self.label = label
        self.n = n
        self.order_name = order_name
        self.letters = words
        self.ref_key = ref_key
        self.ref_index = ref_index
        self.ops = 2 * len(words)

    def setup(self, bo) -> None:
        self.order = bo.catalog.catalog_order(self.order_name)

    def inputs(self, bo) -> None:
        self.words = [bo.braids.BraidWord(self.n, w) for w in self.letters]

    def run(self, bo, ref: dict, tally: Tally) -> None:
        record = ref["streams"][self.ref_key]
        nt = timed_verdicts(
            self.order.sign, self.words, tally.samples[NT], tally, self.label, bo.errors.UndecidedComparisonError
        )
        hr = timed_verdicts(bo.dehornoy.dehornoy_sign, self.words, tally.samples[HR], tally, self.label)
        check(tally, self.label, self.words, nt, [record["nt"][i] for i in self.ref_index], "verdict vs recorded")
        check(tally, self.label, self.words, hr, [record["hr"][i] for i in self.ref_index], "handle reduction vs recorded")


# --- workloads -------------------------------------------------------------------

WORKLOADS = ("ball_scan", "long_words", "conjugates", "streams")


def agree(n: int, order: str, other: str, length: int) -> list[str]:
    return ["agree", "--n", str(n), "--order", order, "--other", other, "--ball-length", str(length)]


def conj_agree(j: int) -> list[str]:
    return agree(3, f"conj:dehornoy:{word_text((-2,) * j + (1,))}", "dehornoy", 6)


def chain(name: str) -> list[str]:
    return ["chain", "--n", "4", "--order", f"nt:{name}", "--ball-length", "4"]


def conrad(name: str) -> list[str]:
    return ["conrad", "--n", "4", "--order", f"nt:{name}", "--k-max", "20", "--ball-length", "2"]


# ball_scan: the seed picks entries of like cost for each scan
BALL_B4_ENTRIES = ("dehornoy_4", "b4_a")
BALL_WITNESS_PAIRS = (
    (4, "nt:b4_b", "nt:b4_c", 6),
    (4, "dehornoy", "nt:b4_b", 6),
    (4, "dehornoy", "nt:b4_c", 6),
    (6, "dehornoy", "nt:b6_cx", 4),
)
CHAIN_ENTRIES = ("b4_b", "b4_c", "dehornoy_4", "b4_a")
CONRAD_ENTRIES = ("b4_b", "b4_c", "dehornoy_4")
CALIBRATE_JOBS = (
    ["calibrate", "--n", "3", "--ball-length", "6"],
    ["calibrate", "--n", "4", "--ball-length", "4"],
)
BALL_SIGN_WORDS = 5000

# long_words: ray-order costs of random words are heavy-tailed (the image of
# the ray grows exponentially, at a word-dependent rate), so the ray-signed
# words are a stratified sample: per length, a fixed pool is ranked by its fold
# work (the letters the right-to-left transport writes, recorded in
# reference.json) and cut into strata of LONG_STRATUM words, and the seed picks
# one word from each stratum.  The pool's LONG_TAIL heaviest words are always
# signed instead: they are the tail that p99 and the peak memory read, which
# would otherwise depend on the seed's draw from the top strata.  B_3 images grow fastest: at length
# 30-32 one word can take a second and set the whole run's tail, so B_3 stops
# at 28.  The words signed by handle reduction alone are drawn the same way,
# ranked by the letters handle reduction scans.
LONG_POOL_SEED = "long-pool-v1"
LONG_STRATUM = 2
LONG_TAIL = {"nt": 8, "hr": 4}
LONG_NT_LENGTHS = {3: range(1, 29), 4: range(1, 33), 6: range(1, 33)}
LONG_NT_PER_LENGTH = 12
LONG_HR_LENGTHS = range(31, 257, 25)
LONG_HR_PER_LENGTH = 5

# conjugates: the seed picks the conj:dehornoy agree conjugator.  The sign
# jobs sign whole balls under each conjugator, as approx conjugates does: the
# ray order's cost is heavy-tailed in the word, so the tail latency of a
# sample would depend on which few heavy words the seed happened to draw
CONJUGATES_JOBS = (
    ["approx", "conjugates", "--n", "3", "--order", "nt:dehornoy_3", "--range", "1:4", "--ball-length", "5"],
    ["approx", "conjugates", "--n", "4", "--order", "nt:dehornoy_4", "--range", "1:4", "--ball-length", "3"],
    ["approx", "extensions", "--n", "6", "--order", "nt:b6_cx", "--range", "2:8", "--ball-length", "3"],
    ["probe", "--kind", "limit", "--n", "6", "--order", "nt:b6_cx", "--range", "1:8", "--ball-length", "2", "--pattern", "3/4"],
)
CONJ_AGREE_J = (8, 9, 10)
CONJ_SIGN_RADIUS = {3: 4, 4: 3}
CONJ_SIGN_J = range(1, 7)

# streams: fixed balls plus a pool of random words, recorded once by
# make_reference.py.  Stream signs are heavy-tailed too (a few words of each
# pool take several times as long as any other), so each run signs a
# stratified sample: the pool is ranked by its stream work (the image letters
# the stream transport certifies, recorded in reference.json) and cut into
# strata of STREAM_STRATUM words, and the seed picks one word from each.
STREAMS_JOBS = (
    ["probe", "--kind", "totality", "--n", "3", "--order", "nt:sturmian_3", "--ball-length", "5", "--depth-target", "20"],
)
STREAM_ORDERS = (("sturmian_4", 4, 3), ("sturmian_6", 6, 2), ("mixed_4", 4, 3))
STREAM_POOL_SEED = "streams-pool-v1"
STREAM_POOL_LENGTHS = range(2, 13)
STREAM_POOL_PER_LENGTH = 80
STREAM_STRATUM = 2


def cli_variants() -> list[list[str]]:
    """Every CLI job any seed can pick; make_reference.py records them all."""
    out = [agree(3, "dehornoy", "nt:dehornoy_3", 8)]
    out += [agree(4, "dehornoy", f"nt:{name}", 6) for name in BALL_B4_ENTRIES]
    out += [agree(*pair) for pair in BALL_WITNESS_PAIRS]
    out += [chain(name) for name in CHAIN_ENTRIES]
    out += [conrad(name) for name in CONRAD_ENTRIES]
    out += CALIBRATE_JOBS
    out += CONJUGATES_JOBS
    out += [conj_agree(j) for j in CONJ_AGREE_J]
    out += STREAMS_JOBS
    return out


def long_pool(kind: str, n: int) -> list[tuple[int, ...]]:
    """The fixed pool for "nt" (ray-signed) or "hr" (handle reduction only)."""
    rng = random.Random(f"{LONG_POOL_SEED}:{kind}:{n}")
    lengths, per_length = (
        (LONG_NT_LENGTHS[n], LONG_NT_PER_LENGTH) if kind == "nt" else (LONG_HR_LENGTHS, LONG_HR_PER_LENGTH)
    )
    return [reduced_word(rng, n, L) for L in lengths for _ in range(per_length * LONG_STRATUM)]


def stratified_sample(rng: random.Random, kind: str, n: int, work: list[int]) -> list:
    """The pool's LONG_TAIL heaviest words, and one word per stratum of
    LONG_STRATUM other pool words of like work."""
    pool = long_pool(kind, n)
    cell = (LONG_NT_PER_LENGTH if kind == "nt" else LONG_HR_PER_LENGTH) * LONG_STRATUM
    tail = set(sorted(range(len(pool)), key=lambda i: (work[i], i))[-LONG_TAIL[kind] :])
    chosen = list(tail)
    for start in range(0, len(pool), cell):
        ranked = [i for i in sorted(range(start, start + cell), key=lambda i: (work[i], i)) if i not in tail]
        for s in range(0, len(ranked), LONG_STRATUM):
            chosen.append(rng.choice(ranked[s : s + LONG_STRATUM]))
    return [pool[i] for i in sorted(chosen)]


def stream_pool(n: int, name: str) -> list[tuple[int, ...]]:
    rng = random.Random(f"{STREAM_POOL_SEED}:{name}")
    return [reduced_word(rng, n, L) for L in STREAM_POOL_LENGTHS for _ in range(STREAM_POOL_PER_LENGTH)]


def build(workload: str, seed: int, ref: dict) -> tuple[list, list[str]]:
    """(jobs, catalog entries the jobs use) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list = []
    if workload == "ball_scan":
        b4 = rng.choice(BALL_B4_ENTRIES)
        jobs.append(CliJob(agree(3, "dehornoy", "nt:dehornoy_3", 8)))
        jobs.append(CliJob(agree(4, "dehornoy", f"nt:{b4}", 6)))
        jobs.append(CliJob(agree(*rng.choice(BALL_WITNESS_PAIRS))))
        jobs.append(CliJob(chain(rng.choice(CHAIN_ENTRIES))))
        jobs.append(CliJob(conrad(rng.choice(CONRAD_ENTRIES))))
        jobs.extend(CliJob(argv) for argv in CALIBRATE_JOBS)
        jobs.append(PairSignJob("ball B3 L<=8", 3, [ball_element(rng, 3, 8) for _ in range(BALL_SIGN_WORDS)], "dehornoy_3"))
        jobs.append(PairSignJob("ball B4 L<=6", 4, [ball_element(rng, 4, 6) for _ in range(BALL_SIGN_WORDS)], b4))
        return jobs, ["dehornoy_3", b4, "b4_b", "b4_c", "b6_cx"]
    if workload == "long_words":
        for n in (3, 4, 6):
            words = stratified_sample(rng, "nt", n, ref["long"][f"nt:{n}"])
            jobs.append(PairSignJob(f"long B{n} L<={LONG_NT_LENGTHS[n][-1]}", n, words, f"dehornoy_{n}"))
        for n in (3, 4, 6):
            words = stratified_sample(rng, "hr", n, ref["long"][f"hr:{n}"])
            jobs.append(AntisymmetryJob(f"long B{n} L<={LONG_HR_LENGTHS[-1]}", n, words))
        return jobs, ["dehornoy_3", "dehornoy_4", "dehornoy_6"]
    if workload == "conjugates":
        jobs.extend(CliJob(argv) for argv in CONJUGATES_JOBS)
        jobs.append(CliJob(conj_agree(rng.choice(CONJ_AGREE_J))))
        for n in (3, 4):
            for j in CONJ_SIGN_J:
                conjugator = (-(n - 1),) * j + (n - 2,)
                words = ball_words(n, CONJ_SIGN_RADIUS[n])
                jobs.append(ConjugatedPairJob(f"conj B{n} j={j}", n, words, conjugator))
        return jobs, ["dehornoy_3", "dehornoy_4", "b6_cx"]
    if workload == "streams":
        jobs.extend(CliJob(argv) for argv in STREAMS_JOBS)
        for name, n, radius in STREAM_ORDERS:
            ball = ball_words(n, radius)
            jobs.append(StreamSignJob(f"{name} ball L<={radius}", n, name, ball, f"{name}:ball", list(range(len(ball)))))
            pool = stream_pool(n, name)
            work = ref["streams"][f"{name}:pool"]["work"]
            ranked = sorted(range(len(pool)), key=lambda i: (work[i], i))
            index = sorted(rng.choice(ranked[s : s + STREAM_STRATUM]) for s in range(0, len(pool), STREAM_STRATUM))
            jobs.append(StreamSignJob(f"{name} random", n, name, [pool[i] for i in index], f"{name}:pool", index))
        return jobs, ["sturmian_3"] + [name for name, _, _ in STREAM_ORDERS]
    raise ValueError(f"unknown workload {workload!r}")
