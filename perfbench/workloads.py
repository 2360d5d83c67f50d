"""The four workloads: set-up, timed loop, output checks and summaries.

Every workload runs the large micro-zoo tier (d_model=128, 4 layers,
4 heads, vocabulary 4000: the 70B analogue) with seeded random weights;
timing does not depend on what a model has learned.  Why each workload
exists, and which layer it loads, is in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import hostspeed, inputs, layers, stats
from perfbench.inputs import RequestSpec
from perfbench.tracing import Probe, Tracer

#: Reference and program may pick different tokens only where the
#: reference's two candidates lie within this distance, relative to the
#: largest logit: float32 sums run in another order on the cached and
#: batched paths than on the reference.
TIE_TOL = 1e-4

#: serve_prefix service-level limits, fixed once (set so that about nine
#: in ten requests met them on the first recorded baseline) and never
#: re-tuned; a request that misses either does not count as goodput.
TTFT_LIMIT_MS = 250.0
ITL_LIMIT_MS = 60.0

#: train_tok_s is taken at the mean time of this many fastest steps; the
#: host is probed once per as many steps.
FASTEST_STEPS = 5

#: serve_open_loop probes the host only in idle gaps this many reference
#: probe times long, so a probe on a slow host still ends before the next
#: request is due.
PROBE_GAP = 3.0

#: The few-shot scaffold's header words, so the tokenizer covers them.
SCAFFOLD_TEXT = (
    "Question : A B C D Answer : Astrophysics and Cosmology "
    "Multiple choice questions Solution set :"
)


@dataclass(frozen=True)
class Sizes:
    """Workload sizes.  ``LARGE`` is the benchmark; ``TINY`` exists for
    the smoke test."""

    d_model: int = 128
    n_layers: int = 4
    n_heads: int = 4
    vocab: int = 4000
    max_seq_len: int = 256
    eval_facts: int = 400
    eval_articles: int = 400  # x 5 questions per article
    eval_slice: int = 250  # questions per evaluation call
    eval_shots: int = 4
    eval_batch: int = 32
    prefix_rate: float = 15.0  # requests per second
    decode_burst: int = 8
    train_batch: int = 2
    train_seq: int = 128
    n_checks: int = 16
    setup_repeats: int = 4


LARGE = Sizes()
TINY = Sizes(
    d_model=16,
    n_layers=1,
    n_heads=2,
    vocab=300,
    eval_facts=40,
    eval_articles=4,
    eval_slice=6,
    prefix_rate=60.0,
    decode_burst=3,
    train_batch=2,
    train_seq=8,
    n_checks=4,
    setup_repeats=2,
)


@dataclass
class Phase:
    """One timed region's raw results."""

    attempted: int
    failed: int
    wall_s: float
    busy_s: float  # wall time spent inside calls into the program
    data: Dict[str, Any] = field(default_factory=dict)
    probe_s: List[float] = field(default_factory=list)  # hostspeed.probe() times


@dataclass
class Check:
    name: str
    checked: int
    failed_ids: List[str]
    ties: int = 0  # mismatches excused as float near-ties (see TIE_TOL)


@dataclass
class Summary:
    """A phase's end-to-end results: the gated ``throughput`` and the
    workload's own named metrics, ``name -> (value or None, unit, note)``."""

    throughput: float
    failed: int
    named: Dict[str, Tuple[Optional[float], str, str]]


def build_model(sizes: Sizes, vocab: int, seed: int):
    from repro.model import ModelConfig, TransformerLM

    config = ModelConfig(
        vocab_size=vocab,
        d_model=sizes.d_model,
        n_layers=sizes.n_layers,
        n_heads=sizes.n_heads,
        max_seq_len=sizes.max_seq_len,
    )
    return TransformerLM(config, seed=seed)


def near_tie(logits: np.ndarray, pick: int) -> bool:
    top = float(np.max(logits))
    return float(logits[pick]) >= top - TIE_TOL * max(1.0, abs(top))


def _ms(values: Sequence[float]) -> List[float]:
    return [v * 1e3 for v in values]


def _median_entry(values: Sequence[float], unit: str) -> Tuple[Optional[float], str, str]:
    return stats.median(values), unit, f"median of {len(values)}"


def _tail_entry(values: Sequence[float], wanted: float, unit: str) -> Tuple[Optional[float], str, str]:
    p = stats.tail(values, wanted)
    if p is None:
        return None, unit, f"withheld: {len(values)} samples leave fewer than {stats.MIN_BEYOND} beyond any tail"
    return p.value, unit, f"p{p.used * 100:.4g} of {p.n}"


# ----------------------------------------------------------------------
# eval_mcq
# ----------------------------------------------------------------------
@dataclass
class EvalState:
    seed: int
    sizes: Sizes
    model: Any
    tokenizer: Any
    shots: list
    questions: list
    prefix: List[int]


class EvalMCQ:
    name = "eval_mcq"
    op = "question"

    def setup(self, seed: int, sizes: Sizes, seconds: float) -> EvalState:
        from repro.corpus import make_astro_knowledge
        from repro.mcq import build_benchmark
        from repro.tokenizer import WordTokenizer

        astro = make_astro_knowledge(n_facts=sizes.eval_facts, seed=seed)
        bench = build_benchmark(
            astro,
            n_articles=sizes.eval_articles,
            questions_per_article=5,
            facts_per_article=6,
            dev_size=sizes.eval_shots,
            seed=seed + 1,
        )
        texts = [f.statement(i) for f in astro.facts for i in range(4)] + [SCAFFOLD_TEXT]
        tok = WordTokenizer.train(texts, vocab_size=sizes.vocab, space_prefix=False)
        model = build_model(sizes, max(sizes.vocab, len(tok.vocab)), seed)
        return EvalState(
            seed, sizes, model, tok, bench.few_shot(sizes.eval_shots), list(bench.test),
            [tok.vocab.eos_id],
        )

    def _evaluator(self, s: EvalState):
        from repro.eval import TokenPredictionEvaluator

        return TokenPredictionEvaluator(
            s.model, s.tokenizer, s.shots, prefix_ids=s.prefix, batch_size=s.sizes.eval_batch
        )

    def measure(self, s: EvalState, seconds: float, tracer: Optional[Tracer]) -> Phase:
        # The question set is scored as consecutive slices, one
        # predict_many call on a fresh evaluator each, cycling until the
        # run has lasted ``seconds``.  Every call pays the scaffold
        # prefill, as every evaluation does, inside the timed region.
        n, size = len(s.questions), s.sizes.eval_slice
        preds: Dict[int, int] = {}
        rates: List[float] = []
        probes: List[float] = []
        disagree = invalid = attempted = 0
        t0 = time.perf_counter()
        while True:
            start = attempted % n
            idx = range(start, min(start + size, n))
            if tracer is not None:
                tracer.request = f"slice{len(rates)}"
            probes.append(hostspeed.probe())
            t = time.perf_counter()
            out = self._evaluator(s).predict_many([s.questions[i] for i in idx])
            rates.append(len(idx) / (time.perf_counter() - t))
            attempted += len(idx)
            for i, p in zip(idx, out):
                invalid += p not in range(4)
                disagree += preds.setdefault(i, p) != p
            if time.perf_counter() - t0 >= seconds:
                break
        wall = time.perf_counter() - t0
        return Phase(
            attempted, invalid, wall, wall,
            {"preds": preds, "disagree": disagree, "rates": rates}, probes,
        )

    def check(self, s: EvalState, phase: Phase) -> List[Check]:
        from repro.eval.prompts import format_next_token_prompt

        ev = self._evaluator(s)
        scored = sorted(phase.data["preds"])
        idx = [scored[j] for j in inputs.sample_indices(
            s.seed, "eval_mcq/check", len(scored), s.sizes.n_checks)]
        bad, ties = [], 0
        for i in idx:
            q = s.questions[i]
            got = phase.data["preds"][i]
            if got == ev.predict(q):
                continue
            prompt = s.prefix + s.tokenizer.encode(format_next_token_prompt(q, s.shots))
            logits = s.model.next_token_logits(np.asarray(prompt, dtype=np.int64))
            if near_tie(logits[ev.answer_map.letter_ids()], got):
                ties += 1
            else:
                bad.append(f"q{i}")
        return [
            Check("predict_many equals per-question predict", len(idx), bad, ties),
            Check("a question scored twice gets the same prediction", 1,
                  ["repeats"] if phase.data["disagree"] else []),
        ]

    def summarize(self, s: EvalState, phase: Phase, bad: set) -> Summary:
        rates = phase.data["rates"]
        qps = stats.median(rates)
        note = f"median over {len(rates)} calls of {s.sizes.eval_slice} questions"
        return Summary(qps, phase.failed + len(bad), {"eval_qps": (qps, "questions/s", note)})

    def probes(self, s: EvalState, tracer: Tracer) -> List[Probe]:
        return layers.eval_probes() + layers.model_probes()

    def layer_metrics(self, s: EvalState, traced: Phase, untraced: Phase) -> Dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# serving: shared open-loop load generator
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What the load generator keeps of one request once its engine is gone."""

    finished: bool
    output: List[int]
    argmax: Optional[int]  # SCORE: argmax of the final logits
    wait: Optional[float]  # seconds from submit to admission
    prompt_len: int


def _request(spec: RequestSpec, stream):
    from repro.model import GenerationConfig
    from repro.serve import InferenceRequest, RequestKind

    if spec.score:
        return InferenceRequest(spec.request_id, spec.prompt, RequestKind.SCORE, stream=stream)
    if spec.greedy:
        gen = GenerationConfig(max_new_tokens=spec.max_new_tokens, temperature=0.0)
    else:
        gen = GenerationConfig(
            max_new_tokens=spec.max_new_tokens, temperature=0.8, top_k=40, top_p=0.95,
            seed=spec.sample_seed,
        )
    return InferenceRequest(spec.request_id, spec.prompt, RequestKind.GENERATE, gen, stream=stream)


def serve_open_loop(
    model, specs: Sequence[RequestSpec], tracer: Optional[Tracer], probes: List[float]
) -> Dict[str, Any]:
    """Submit each request at its due time on a fresh ``ServeEngine`` over
    ``WallClock`` and step until drained.

    Submission happens between engine steps, so a long step delays later
    submissions; ``lag`` records by how much.  When the engine is idle
    and the next request is due more than ``PROBE_GAP`` reference probe
    times ahead, the host-speed probe runs in the gap and its time is
    appended to ``probes``.  Times are ``perf_counter``
    seconds; ``t0`` is the start of the timed region.  Only plain data is
    returned, so the engine and the states it retains are freed.
    """
    from repro.serve import (
        OversizedRequestError,
        QueueFullError,
        RequestStatus,
        ServeEngine,
        WallClock,
    )

    clock = time.perf_counter
    engine = ServeEngine(model, clock=WallClock())
    token_times: Dict[str, List[float]] = {spec.request_id: [] for spec in specs}

    def stream(rid: str, tok: int, final: bool) -> None:
        token_times[rid].append(clock())
        if tracer is not None:
            tracer.request = rid  # the decode forward that follows is this request's

    requests = [_request(spec, stream) for spec in specs]
    counters = engine.metrics.counters
    states: Dict[str, Any] = {}
    scored_at: Dict[str, float] = {}
    rejected: List[str] = []
    lag: List[float] = []
    steps: List[Tuple[float, int, int]] = []
    pending: List[Any] = []
    i, n = 0, len(specs)
    t0 = clock()
    while i < n or engine.has_work:
        now = clock() - t0
        while i < n and specs[i].due <= now:
            try:
                state = engine.submit(requests[i])
            except (QueueFullError, OversizedRequestError):
                rejected.append(specs[i].request_id)
            else:
                lag.append(clock() - t0 - specs[i].due)
                states[specs[i].request_id] = state
                if specs[i].score:
                    pending.append(state)
            i += 1
        if engine.has_work:
            prefill0 = counters["prefill_tokens"].value
            decoded0 = counters["decoded_tokens"].value
            start = clock()
            engine.step()
            end = clock()
            steps.append(
                (end - start, counters["prefill_tokens"].value - prefill0,
                 counters["decoded_tokens"].value - decoded0)
            )
            if pending:
                for state in pending:
                    if state.status is RequestStatus.FINISHED:
                        scored_at[state.request_id] = end
                pending = [st for st in pending if st.request_id not in scored_at]
        elif i < n:
            gap = specs[i].due - (clock() - t0)
            if gap > PROBE_GAP * hostspeed.REF_S:
                probes.append(hostspeed.probe())
            else:
                time.sleep(max(0.0, gap))
    wall = clock() - t0
    outcomes = {
        rid: Outcome(
            state.status is RequestStatus.FINISHED,
            list(state.output_ids),
            None if state.final_logits is None else int(np.argmax(state.final_logits)),
            None if state.admitted_at is None else state.admitted_at - state.submitted_at,
            len(state.prompt),
        )
        for rid, state in states.items()
    }
    return {
        "t0": t0, "wall": wall, "outcomes": outcomes, "metrics": engine.metrics.snapshot(),
        "scored_at": scored_at, "token_times": token_times, "rejected": rejected,
        "lag": lag, "steps": steps,
    }


def _finished(spec: RequestSpec, outcome: Optional[Outcome]) -> bool:
    if outcome is None or not outcome.finished:
        return False
    return spec.score or len(outcome.output) == spec.max_new_tokens


def _outcomes(runs: Sequence[Dict[str, Any]]) -> Dict[str, Outcome]:
    out: Dict[str, Outcome] = {}
    for run in runs:
        out.update(run["outcomes"])
    return out


def _latencies(spec: RequestSpec, run: Dict[str, Any]) -> Tuple[Optional[float], List[float]]:
    """(time to first token, inter-token gaps) in seconds for one request."""
    due = run["t0"] + spec.due
    if spec.score:
        at = run["scored_at"].get(spec.request_id)
        return (None if at is None else at - due), []
    times = run["token_times"][spec.request_id]
    if not times:
        return None, []
    return times[0] - due, [b - a for a, b in zip(times, times[1:])]


def check_serve(model, specs: Sequence[RequestSpec], runs: Sequence[Dict[str, Any]]) -> List[Check]:
    """SCORE argmax against ``prefill(prompt).last_logits``; greedy
    GENERATE against ``repro.model.sampling.generate``."""
    from repro.model import GenerationConfig, generate

    outcomes = _outcomes(runs)
    score = Check("SCORE argmax equals prefill argmax", 0, [])
    greedy = Check("greedy GENERATE equals generate()", 0, [])
    for spec in specs:
        outcome = outcomes.get(spec.request_id)
        if not _finished(spec, outcome):
            continue
        if spec.score:
            score.checked += 1
            ref = model.prefill(list(spec.prompt)).last_logits
            got = outcome.argmax
            if got != int(np.argmax(ref)):
                if near_tie(ref, got):
                    score.ties += 1
                else:
                    score.failed_ids.append(spec.request_id)
        elif spec.greedy:
            greedy.checked += 1
            out = outcome.output
            ref = generate(
                model, list(spec.prompt),
                GenerationConfig(max_new_tokens=spec.max_new_tokens, temperature=0.0),
            )
            if out == ref:
                continue
            # Accept only if every emitted token is a near-tie argmax of
            # the model run over the program's own output.
            seq = np.asarray(list(spec.prompt) + out[:-1], dtype=np.int64)
            logits = model.forward(seq)[0, len(spec.prompt) - 1 :]
            if all(near_tie(row, tok) for row, tok in zip(logits, out)):
                greedy.ties += 1
            else:
                greedy.failed_ids.append(spec.request_id)
    return [score, greedy]


def _engine_totals(runs: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for run in runs:
        snap = run["metrics"]
        for key, value in snap.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
        for key in ("queue_depth", "batch_size"):
            total[f"{key}.sum"] = total.get(f"{key}.sum", 0) + snap[key]["sum"]
            total[f"{key}.count"] = total.get(f"{key}.count", 0) + snap[key]["count"]
        total["evictions"] = total.get("evictions", 0) + snap["prefix_cache"]["evictions"]
    return total


def serve_layer_metrics(traced: Phase, untraced: Phase) -> Dict[str, float]:
    """Per-layer serving metrics read from the engine's own counters and
    request states (traced phase), the cost-model fit and the submit lag
    (untraced phase, so tracing overhead does not inflate them)."""
    runs = traced.data["runs"]
    ops = max(traced.attempted, 1)
    tot = _engine_totals(runs)
    out: Dict[str, float] = {}
    admitted = [o for o in _outcomes(runs).values() if o.wait is not None]
    prompt_tokens = sum(o.prompt_len for o in admitted)
    waits = [o.wait * 1e3 for o in admitted]
    out["kv_cache.evictions"] = tot["evictions"] / ops
    out["kv_cache.prefill_tokens"] = tot["prefill_tokens"] / ops
    if prompt_tokens:
        out["kv_cache.hit_token_frac"] = tot["prefix_hit_tokens"] / prompt_tokens
    out["kv_cache.shared_token_frac"] = traced.data["shared_token_frac"]
    if waits:
        out["admission.queue_wait_p50_ms"] = stats.median(waits)
        p90 = stats.tail(waits, 0.90)
        if p90 is not None:
            out["admission.queue_wait_p90_ms"] = p90.value
    if tot["queue_depth.count"]:
        out["admission.queue_depth_mean"] = tot["queue_depth.sum"] / tot["queue_depth.count"]
    out["admission.rejected"] = sum(len(r["rejected"]) for r in runs) / ops
    if tot["batch_size.count"]:
        out["scheduler.batch_width_mean"] = tot["batch_size.sum"] / tot["batch_size.count"]
    if tot["engine_steps"]:
        out["scheduler.admitted_per_step"] = tot["admitted"] / tot["engine_steps"]
    records = [rec for run in untraced.data["runs"] for rec in run["steps"]]
    out.update(layers.fit_step_cost(records))
    lag = [v * 1e3 for run in untraced.data["runs"] for v in run["lag"]]
    p90 = stats.tail(lag, 0.90)
    if p90 is not None:
        out["driver.lag_p90_ms"] = p90.value
    return out


def _serve_failures(specs: Sequence[RequestSpec], runs: Sequence[Dict[str, Any]]) -> int:
    outcomes = _outcomes(runs)
    return sum(1 for spec in specs if not _finished(spec, outcomes.get(spec.request_id)))


def _busy(runs: Sequence[Dict[str, Any]]) -> float:
    return sum(s for run in runs for s, _, _ in run["steps"])


# ----------------------------------------------------------------------
# serve_prefix
# ----------------------------------------------------------------------
@dataclass
class ServeState:
    seed: int
    sizes: Sizes
    model: Any
    specs: List[RequestSpec]
    owner_of_prompt: Dict[tuple, str]


class ServePrefix:
    name = "serve_prefix"
    op = "request"

    def setup(self, seed: int, sizes: Sizes, seconds: float) -> ServeState:
        model = build_model(sizes, sizes.vocab, seed)
        specs = inputs.prefix_requests(
            seed, max(1, round(seconds * sizes.prefix_rate)), sizes.prefix_rate, sizes.vocab
        )
        return ServeState(seed, sizes, model, specs, {s.prompt: s.request_id for s in specs})

    def measure(self, s: ServeState, seconds: float, tracer: Optional[Tracer]) -> Phase:
        probes = [hostspeed.probe()]
        run = serve_open_loop(s.model, s.specs, tracer, probes)
        probes.append(hostspeed.probe())
        return Phase(
            len(s.specs), _serve_failures(s.specs, [run]), run["wall"], _busy([run]),
            {"runs": [run], "shared_token_frac": inputs.shared_token_frac([[x.prompt for x in s.specs]])},
            probes,
        )

    def check(self, s: ServeState, phase: Phase) -> List[Check]:
        return check_serve(s.model, s.specs, phase.data["runs"])

    def summarize(self, s: ServeState, phase: Phase, bad: set) -> Summary:
        run = phase.data["runs"][0]
        ttft: List[float] = []
        gaps: List[float] = []
        good = 0
        for spec in s.specs:
            if not _finished(spec, run["outcomes"].get(spec.request_id)):
                continue
            first, own_gaps = _latencies(spec, run)
            ttft.append(first)
            gaps.extend(own_gaps)
            if (
                spec.request_id not in bad
                and first * 1e3 <= TTFT_LIMIT_MS
                and max(own_gaps, default=0.0) * 1e3 <= ITL_LIMIT_MS
            ):
                good += 1
        goodput = good / len(s.specs)
        failed = phase.failed + len(bad)
        # Requests served per second the engine was busy: unlike the
        # goodput share it does not saturate at the offered rate, so a
        # faster prefill or prefix cache moves it.
        busy_rps = (len(s.specs) - failed) / phase.busy_s
        named = {
            "busy_req_s": (busy_rps, "requests/s",
                           f"{len(s.specs) - failed} requests served in {phase.busy_s:.3f} s "
                           "of engine steps"),
            "ttft_p50_ms": _median_entry(_ms(ttft), "ms"),
            "ttft_p90_ms": _tail_entry(_ms(ttft), 0.90, "ms"),
            "goodput_frac": (goodput, "ratio",
                             f"TTFT <= {TTFT_LIMIT_MS:g} ms and ITL <= {ITL_LIMIT_MS:g} ms"),
            "itl_p50_ms": _median_entry(_ms(gaps), "ms"),
            "itl_p99_ms": _tail_entry(_ms(gaps), 0.99, "ms"),
        }
        return Summary(busy_rps, failed, named)

    def probes(self, s: ServeState, tracer: Tracer) -> List[Probe]:
        return layers.serve_probes(tracer, s.owner_of_prompt) + layers.model_probes()

    def layer_metrics(self, s: ServeState, traced: Phase, untraced: Phase) -> Dict[str, float]:
        return serve_layer_metrics(traced, untraced)


# ----------------------------------------------------------------------
# serve_decode
# ----------------------------------------------------------------------
class ServeDecode:
    name = "serve_decode"
    op = "request"

    def setup(self, seed: int, sizes: Sizes, seconds: float) -> ServeState:
        model = build_model(sizes, sizes.vocab, seed)
        return ServeState(seed, sizes, model, [], {})

    def measure(self, s: ServeState, seconds: float, tracer: Optional[Tracer]) -> Phase:
        # Bursts repeat until the run has lasted ``seconds``; burst k's
        # requests depend only on (seed, k), and each burst gets a fresh
        # engine so nothing is cached across bursts.
        specs: List[RequestSpec] = []
        runs: List[Dict[str, Any]] = []
        probes: List[float] = []
        start = time.perf_counter()
        while True:
            burst = inputs.decode_burst(s.seed, len(runs), s.sizes.decode_burst, s.sizes.vocab)
            specs.extend(burst)
            s.owner_of_prompt.update((x.prompt, x.request_id) for x in burst)
            probes.append(hostspeed.probe())
            runs.append(serve_open_loop(s.model, burst, tracer, probes))
            if time.perf_counter() - start >= seconds:
                break
        return Phase(
            len(specs), _serve_failures(specs, runs), sum(r["wall"] for r in runs), _busy(runs),
            {"runs": runs, "specs": specs, "shared_token_frac": inputs.shared_token_frac(
                [[x.prompt for x in specs[i : i + s.sizes.decode_burst]]
                 for i in range(0, len(specs), s.sizes.decode_burst)])},
            probes,
        )

    def check(self, s: ServeState, phase: Phase) -> List[Check]:
        return check_serve(s.model, phase.data["specs"], phase.data["runs"])

    def summarize(self, s: ServeState, phase: Phase, bad: set) -> Summary:
        runs = phase.data["runs"]
        gaps: List[float] = []
        for spec in phase.data["specs"]:
            for run in runs:
                if spec.request_id in run["token_times"]:
                    gaps.extend(_latencies(spec, run)[1])
        tok_s = stats.median([r["metrics"]["decoded_tokens"] / r["wall"] for r in runs])
        named = {
            "itl_p50_ms": _median_entry(_ms(gaps), "ms"),
            "itl_p99_ms": _tail_entry(_ms(gaps), 0.99, "ms"),
            "decode_tok_s": (tok_s, "tokens/s", f"median over {len(runs)} bursts"),
        }
        return Summary(tok_s, phase.failed + len(bad), named)

    def probes(self, s: ServeState, tracer: Tracer) -> List[Probe]:
        return layers.serve_probes(tracer, s.owner_of_prompt) + layers.model_probes()

    def layer_metrics(self, s: ServeState, traced: Phase, untraced: Phase) -> Dict[str, float]:
        return serve_layer_metrics(traced, untraced)


# ----------------------------------------------------------------------
# train_step
# ----------------------------------------------------------------------
@dataclass
class TrainState:
    seed: int
    sizes: Sizes
    model: Any
    trainer: Any
    batches: List[Tuple[np.ndarray, np.ndarray]]


class TrainStep:
    name = "train_step"
    op = "step"

    def setup(self, seed: int, sizes: Sizes, seconds: float) -> TrainState:
        from repro.train import Trainer, TrainingConfig

        model = build_model(sizes, sizes.vocab, seed)
        # one optimizer step per train() call, so the loop can stop on time
        config = TrainingConfig(
            learning_rate=1e-3, total_steps=1, warmup_ratio=0.0, schedule="constant",
            clip_norm=1.0,
        )
        batches = inputs.train_batches(seed, 8, sizes.train_batch, sizes.train_seq, sizes.vocab)
        return TrainState(seed, sizes, model, Trainer(model, config), batches)

    def measure(self, s: TrainState, seconds: float, tracer: Optional[Tracer]) -> Phase:
        losses: List[float] = []
        step_s: List[float] = []
        probes: List[float] = []
        t0 = time.perf_counter()
        while True:
            inputs_, targets = s.batches[len(losses) % len(s.batches)]
            if tracer is not None:
                tracer.request = f"step{len(losses)}"
            if len(losses) % FASTEST_STEPS == 0:
                probes.append(hostspeed.probe())
            t = time.perf_counter()
            history = s.trainer.train(lambda: iter([(inputs_, targets, None)]))
            step_s.append(time.perf_counter() - t)
            losses.extend(history.losses)
            if time.perf_counter() - t0 >= seconds:
                break
        wall = time.perf_counter() - t0
        return Phase(len(losses), 0, wall, wall, {"losses": losses, "step_s": step_s}, probes)

    def check(self, s: TrainState, phase: Phase) -> List[Check]:
        # Valid for the first timed phase only: its first step saw the
        # initial weights, which a fresh model with the same seed rebuilds.
        reference = build_model(s.sizes, s.sizes.vocab, s.seed)
        ref_loss = reference.loss_and_backward(*s.batches[0])
        first = phase.data["losses"][0]
        losses = phase.data["losses"]
        return [
            Check("every loss is finite", len(losses),
                  [f"step{i}" for i, loss in enumerate(losses) if not math.isfinite(loss)]),
            Check("first-step loss equals loss_and_backward to 1e-6", 1,
                  [] if abs(first - ref_loss) <= 1e-6 else ["step0"]),
        ]

    def summarize(self, s: TrainState, phase: Phase, bad: set) -> Summary:
        # Other tenants' memory traffic slows most steps by an amount that
        # drifts over minutes; the fastest steps are slowed least, so their
        # mean moves with the program and far less with the host.
        fastest = sorted(phase.data["step_s"])[:FASTEST_STEPS]
        tok_s = s.sizes.train_batch * s.sizes.train_seq / (sum(fastest) / len(fastest))
        named = {"train_tok_s": (tok_s, "tokens/s",
                                 f"at the mean of the {len(fastest)} fastest of "
                                 f"{len(phase.data['step_s'])} steps of "
                                 f"{s.sizes.train_batch}x{s.sizes.train_seq}")}
        return Summary(tok_s, phase.failed + len(bad), named)

    def probes(self, s: TrainState, tracer: Tracer) -> List[Probe]:
        return layers.train_probes() + layers.model_probes()

    def layer_metrics(self, s: TrainState, traced: Phase, untraced: Phase) -> Dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (EvalMCQ(), ServePrefix(), ServeDecode(), TrainStep())}
