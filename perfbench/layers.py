"""Which public calls the traced run wraps, and the per-layer metrics it
derives from the spans.

Layer names follow the ``src/repro`` modules.  Unless a name says
otherwise (``_p50``, ``_p90``, ``_p99``, ``_mean``, ``_frac``,
``_per_step``, ``gflop_s``, ``us_per_ctx``), a ``_ms`` metric is the
milliseconds spent in that layer per operation of the workload (question,
request or train step) and a count is a count per operation, so the
numbers do not depend on how much work fits in ``--seconds``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from perfbench import stats
from perfbench.tracing import Probe, Span, Tracer, exclusive_times

#: (name, unit, better) for every per-layer metric, in output order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("tokenizer.encode_ms", "ms", "lower"),
    ("tokenizer.encode_calls", "count", "lower"),
    ("token_pred.predict_many_ms", "ms", "lower"),
    ("transformer.prefill_ms", "ms", "lower"),
    ("transformer.prefill_tokens", "count", "lower"),
    ("transformer.score_many_ms", "ms", "lower"),
    ("transformer.score_rows", "count", "lower"),
    ("transformer.pad_frac", "ratio", "lower"),
    ("transformer.decode_fwd_ms_p50", "ms", "lower"),
    ("transformer.decode_fwd_us_per_ctx", "us", "lower"),
    ("transformer.self_ms", "ms", "lower"),
    ("transformer.backward_ms", "ms", "lower"),
    ("transformer.cross_entropy_ms", "ms", "lower"),
    ("attention.fwd_self_ms", "ms", "lower"),
    ("attention.bwd_ms", "ms", "lower"),
    ("mlp.fwd_ms", "ms", "lower"),
    ("mlp.bwd_ms", "ms", "lower"),
    ("norm.fwd_ms", "ms", "lower"),
    ("norm.bwd_ms", "ms", "lower"),
    ("embed.fwd_ms", "ms", "lower"),
    ("embed.bwd_ms", "ms", "lower"),
    ("linear.fwd_ms", "ms", "lower"),
    ("linear.bwd_ms", "ms", "lower"),
    ("linear.flop", "flop", "lower"),
    ("linear.gflop_s", "GFLOP/s", "higher"),
    ("kv_cache.match_ms", "ms", "lower"),
    ("kv_cache.put_ms", "ms", "lower"),
    ("kv_cache.fork_ms", "ms", "lower"),
    ("kv_cache.hits", "count", "higher"),
    ("kv_cache.misses", "count", "lower"),
    ("kv_cache.evictions", "count", "lower"),
    ("kv_cache.hit_token_frac", "ratio", "higher"),
    ("kv_cache.shared_token_frac", "ratio", "higher"),
    ("kv_cache.prefill_tokens", "count", "lower"),
    ("admission.queue_wait_p50_ms", "ms", "lower"),
    ("admission.queue_wait_p90_ms", "ms", "lower"),
    ("admission.queue_depth_mean", "count", "lower"),
    ("admission.rejected", "count", "lower"),
    ("scheduler.step_self_ms", "ms", "lower"),
    ("scheduler.batch_width_mean", "count", "higher"),
    ("scheduler.admitted_per_step", "count", "higher"),
    ("engine.step_ms_p50", "ms", "lower"),
    ("engine.step_ms_p99", "ms", "lower"),
    ("engine.busy_frac", "ratio", "lower"),
    ("engine.steps", "count", "lower"),
    ("engine.fit_base_ms", "ms", "lower"),
    ("engine.fit_prefill_us_per_token", "us", "lower"),
    ("engine.fit_decode_ms_per_row", "ms", "lower"),
    ("engine.fit_residual_ms", "ms", "lower"),
    ("trainer.step_ms_p50", "ms", "lower"),
    ("optimizer.step_ms", "ms", "lower"),
    ("optimizer.clip_ms", "ms", "lower"),
    ("driver.lag_p90_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

LINEAR_FLOP_NOTE = (
    "linear.flop and linear.gflop_s are computed from call shapes "
    "(2*rows*d_in*d_out per forward, twice that per backward), not counted "
    "by hardware; the vocab projection is counted in transformer.self_ms"
)


def _linear_shape(args, kwargs, out) -> Dict[str, int]:
    layer, x = args[0], args[1]
    return {"rows": int(x.size // x.shape[-1]), "d_in": layer.d_in, "d_out": layer.d_out}


def _forward_shape(args, kwargs, out) -> Dict[str, int]:
    from repro.model import cache_length

    tokens = args[1] if len(args) > 1 else kwargs["tokens"]
    cache = kwargs.get("cache", args[3] if len(args) > 3 else None)
    t = int(getattr(tokens, "shape", (len(tokens),))[-1])
    if cache is None:
        return {"T": t}
    return {"T": t, "ctx": cache_length(cache)}


def _score_shape(args, kwargs, out) -> Dict[str, int]:
    lengths = [len(s) for s in args[1]]
    return {"rows": len(lengths), "T": max(lengths + [1]), "real": sum(lengths)}


def model_probes() -> List[Probe]:
    """Probes for the model stack, shared by every workload."""
    from repro.model import (
        Embedding,
        Linear,
        MultiHeadAttention,
        RMSNorm,
        SwiGLU,
        TransformerLM,
    )

    return [
        Probe(TransformerLM, "prefill", "transformer.prefill",
              describe=lambda a, k, o: {"tokens": len(a[1])}),
        Probe(TransformerLM, "next_token_logits_many", "transformer.score_many",
              describe=_score_shape),
        Probe(TransformerLM, "forward", "transformer.forward", describe=_forward_shape),
        Probe(TransformerLM, "backward", "transformer.backward"),
        Probe(TransformerLM, "cross_entropy", "transformer.cross_entropy"),
        Probe(MultiHeadAttention, "forward", "attention.forward"),
        Probe(MultiHeadAttention, "backward", "attention.backward"),
        Probe(SwiGLU, "forward", "mlp.forward"),
        Probe(SwiGLU, "backward", "mlp.backward"),
        Probe(RMSNorm, "forward", "norm.forward"),
        Probe(RMSNorm, "backward", "norm.backward"),
        Probe(Embedding, "forward", "embed.forward"),
        Probe(Embedding, "backward", "embed.backward"),
        Probe(Linear, "forward", "linear.forward", describe=_linear_shape),
        Probe(Linear, "backward", "linear.backward", describe=_linear_shape),
    ]


def serve_probes(tracer: Tracer, owner_of_prompt: Dict[tuple, str]) -> List[Probe]:
    """Probes for the serving stack.  ``owner_of_prompt`` maps a prompt to
    its request id so that prefix-store spans carry the request."""
    from repro.model import PrefixCache, PrefixCacheStore
    from repro.serve import ContinuousBatchingScheduler, ServeEngine

    def set_request(rid):
        tracer.request = rid

    return [
        Probe(ServeEngine, "submit", "admission.submit",
              enter=lambda a, k: set_request(a[1].request_id)),
        Probe(ServeEngine, "step", "engine.step", enter=lambda a, k: set_request(None)),
        Probe(ContinuousBatchingScheduler, "step", "scheduler.step"),
        Probe(PrefixCacheStore, "match", "kv_cache.match",
              enter=lambda a, k: set_request(owner_of_prompt.get(tuple(a[1]))),
              describe=lambda a, k, o: {"hit": o is not None}),
        Probe(PrefixCacheStore, "put", "kv_cache.put"),
        Probe(PrefixCache, "fork", "kv_cache.fork"),
    ]


def eval_probes() -> List[Probe]:
    from repro.eval import TokenPredictionEvaluator
    from repro.tokenizer import WordTokenizer

    return [
        Probe(WordTokenizer, "encode", "tokenizer.encode"),
        Probe(TokenPredictionEvaluator, "predict_many", "token_pred.predict_many"),
    ]


def train_probes() -> List[Probe]:
    import repro.train.trainer as trainer_module
    from repro.train import AdamW, Trainer

    return [
        Probe(Trainer, "train", "trainer.train"),
        Probe(AdamW, "step", "optimizer.step"),
        # the trainer calls clip_grad_norm through its own module namespace
        Probe(trainer_module, "clip_grad_norm", "optimizer.clip"),
    ]


def span_metrics(tracer: Tracer, ops: int, wall_s: float, vocab: int) -> Dict[str, float]:
    """Per-layer metrics computed from the spans alone."""
    spans = tracer.spans
    ops = max(ops, 1)

    def is_vocab(s: Span) -> bool:
        return s.name.startswith("linear.") and vocab in (s.attrs["d_in"], s.attrs["d_out"])

    plain_self = exclusive_times(spans)
    # the transformer's own time keeps the vocab projection and glue
    model_self = exclusive_times(spans, lambda s: not is_vocab(s))
    sched_self = exclusive_times(
        spans, lambda s: s.name.startswith(("transformer.", "kv_cache."))
    )

    def pick(name: str) -> List[int]:
        return [i for i, s in enumerate(spans) if s.name == name]

    def per_op_ms(idx: Sequence[int], times: Sequence[float] = ()) -> float:
        total = sum(times[i] for i in idx) if times else sum(spans[i].duration for i in idx)
        return total * 1e3 / ops

    def attr_sum(idx: Sequence[int], key: str) -> float:
        return float(sum(spans[i].attrs[key] for i in idx))

    out: Dict[str, float] = {}
    enc = pick("tokenizer.encode")
    out["tokenizer.encode_ms"] = per_op_ms(enc)
    out["tokenizer.encode_calls"] = len(enc) / ops
    out["token_pred.predict_many_ms"] = per_op_ms(pick("token_pred.predict_many"))

    prefill = pick("transformer.prefill")
    out["transformer.prefill_ms"] = per_op_ms(prefill)
    out["transformer.prefill_tokens"] = attr_sum(prefill, "tokens") / ops
    score = pick("transformer.score_many")
    out["transformer.score_many_ms"] = per_op_ms(score)
    out["transformer.score_rows"] = attr_sum(score, "rows") / ops
    positions = sum(spans[i].attrs["rows"] * spans[i].attrs["T"] for i in score)
    if positions:
        out["transformer.pad_frac"] = 1.0 - attr_sum(score, "real") / positions

    forward = pick("transformer.forward")
    decode = [i for i in forward if spans[i].attrs.get("T") == 1 and "ctx" in spans[i].attrs]
    if decode:
        out["transformer.decode_fwd_ms_p50"] = stats.median(
            [spans[i].duration * 1e3 for i in decode]
        )
        fit = stats.linear_fit(
            [(spans[i].attrs["ctx"],) for i in decode], [spans[i].duration for i in decode]
        )
        if fit is not None:
            out["transformer.decode_fwd_us_per_ctx"] = fit[0][1] * 1e6
    backward = pick("transformer.backward")
    out["transformer.self_ms"] = per_op_ms(prefill + score + forward + backward, model_self)
    out["transformer.backward_ms"] = per_op_ms(backward)
    out["transformer.cross_entropy_ms"] = per_op_ms(pick("transformer.cross_entropy"))

    out["attention.fwd_self_ms"] = per_op_ms(pick("attention.forward"), plain_self)
    out["attention.bwd_ms"] = per_op_ms(pick("attention.backward"), plain_self)
    for layer in ("mlp", "norm", "embed"):
        out[f"{layer}.fwd_ms"] = per_op_ms(pick(f"{layer}.forward"), plain_self)
        out[f"{layer}.bwd_ms"] = per_op_ms(pick(f"{layer}.backward"), plain_self)

    flop = 0.0
    linear_s = 0.0
    for direction, factor in (("fwd", 2), ("bwd", 4)):
        idx = [i for i in pick(f"linear.{'forward' if direction == 'fwd' else 'backward'}")
               if not is_vocab(spans[i])]
        out[f"linear.{direction}_ms"] = per_op_ms(idx)
        linear_s += sum(spans[i].duration for i in idx)
        flop += sum(factor * spans[i].attrs["rows"] * spans[i].attrs["d_in"]
                    * spans[i].attrs["d_out"] for i in idx)
    out["linear.flop"] = flop / ops
    if linear_s > 0:
        out["linear.gflop_s"] = flop / linear_s / 1e9

    match = pick("kv_cache.match")
    out["kv_cache.match_ms"] = per_op_ms(match)
    out["kv_cache.put_ms"] = per_op_ms(pick("kv_cache.put"))
    out["kv_cache.fork_ms"] = per_op_ms(pick("kv_cache.fork"))
    hits = sum(1 for i in match if spans[i].attrs["hit"])
    out["kv_cache.hits"] = hits / ops
    out["kv_cache.misses"] = (len(match) - hits) / ops

    sched = pick("scheduler.step")
    if sched:
        out["scheduler.step_self_ms"] = sum(sched_self[i] for i in sched) * 1e3 / len(sched)
    steps = [spans[i].duration * 1e3 for i in pick("engine.step")]
    if steps:
        out["engine.step_ms_p50"] = stats.median(steps)
        p99 = stats.tail(steps, 0.99)
        if p99 is not None:
            out["engine.step_ms_p99"] = p99.value
        out["engine.busy_frac"] = sum(steps) / 1e3 / wall_s
        out["engine.steps"] = len(steps) / ops

    train = [spans[i].duration * 1e3 for i in pick("trainer.train")]
    if train:
        out["trainer.step_ms_p50"] = stats.median(train)
    out["optimizer.step_ms"] = per_op_ms(pick("optimizer.step"))
    out["optimizer.clip_ms"] = per_op_ms(pick("optimizer.clip"))
    return out


def fit_step_cost(records: Sequence[Tuple[float, int, int]]) -> Dict[str, float]:
    """Fit ``StepCostModel``'s form, ``step = base + a*prefill_tokens +
    b*decode_rows``, to measured ``(seconds, prefill_tokens, decode_rows)``
    engine steps."""
    fit = stats.linear_fit([(p, d) for _, p, d in records], [s for s, _, _ in records])
    if fit is None:
        return {}
    (base, per_token, per_row), resid = fit
    return {
        "engine.fit_base_ms": base * 1e3,
        "engine.fit_prefill_us_per_token": per_token * 1e6,
        "engine.fit_decode_ms_per_row": per_row * 1e3,
        "engine.fit_residual_ms": resid * 1e3,
    }
