"""Autoregressive generation with KV caching.

The full-instruct benchmarking method generates up to 512 tokens per
question; the KV cache makes that linear rather than quadratic in the
response length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.kv_cache import PrefixCache
from repro.model.layers import softmax
from repro.model.transformer import TransformerLM


@dataclass
class GenerationConfig:
    """Decoding controls.

    ``temperature == 0`` selects greedy argmax decoding (the paper sets
    temperature to 0.0 for the token-prediction benchmark and uses each
    model's default for full-instruct).
    """

    max_new_tokens: int = 64
    temperature: float = 0.0
    top_k: int = 0  # 0 -> no truncation
    top_p: float = 1.0  # 1.0 -> no nucleus truncation
    stop_token_ids: Sequence[int] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")


def _select_token(
    logits: np.ndarray, config: GenerationConfig, rng: np.random.Generator
) -> int:
    if config.temperature == 0.0:
        return int(np.argmax(logits))
    scaled = logits / config.temperature
    if config.top_k > 0 and config.top_k < scaled.shape[-1]:
        # Exactly top_k survivors even under tied logits: order by
        # (logit desc, index asc) so ties at the k-th value break
        # deterministically toward lower token ids.
        order = np.lexsort((np.arange(scaled.shape[-1]), -scaled))
        kept = order[: config.top_k]
        truncated = np.full_like(scaled, np.float32(-1e9))
        truncated[kept] = scaled[kept]
        scaled = truncated
    if config.top_p < 1.0:
        # Nucleus truncation with the same tie-breaking discipline as
        # top_k: candidates are ranked (logit desc, index asc) and the
        # smallest prefix whose probability mass reaches top_p survives,
        # so tied logits at the nucleus boundary keep lower token ids.
        order = np.lexsort((np.arange(scaled.shape[-1]), -scaled))
        ranked = softmax(scaled[order][None, :])[0].astype(np.float64)
        cumulative = np.cumsum(ranked)
        cutoff = int(np.searchsorted(cumulative, config.top_p, side="left")) + 1
        kept = order[: min(cutoff, order.size)]
        truncated = np.full_like(scaled, np.float32(-1e9))
        truncated[kept] = scaled[kept]
        scaled = truncated
    probs = softmax(scaled[None, :])[0].astype(np.float64)
    probs = probs / probs.sum()
    return int(rng.choice(probs.size, p=probs))


def clamp_prompt(
    prompt_ids: Sequence[int], max_new_tokens: int, max_ctx: int
) -> Tuple[Tuple[int, ...], int]:
    """``(prompt, decode_budget)`` fitted to a ``max_ctx`` context window.

    The budget is capped at ``max_ctx - 1`` and the prompt is truncated
    *from the left* so that prompt + budget fits (keeping the most recent
    context, as serving stacks do).
    """
    budget = min(max_new_tokens, max(0, max_ctx - 1))
    keep = max_ctx - budget
    prompt = tuple(prompt_ids)
    return (prompt[-keep:] if len(prompt) > keep else prompt), budget


def generate(
    model: TransformerLM,
    prompt_ids: Sequence[int],
    config: Optional[GenerationConfig] = None,
    logit_hook: Optional[Callable[[np.ndarray], None]] = None,
    prefix: Optional[PrefixCache] = None,
) -> List[int]:
    """Generate a continuation of ``prompt_ids``; returns only new tokens.

    The prompt is clamped to the context window by :func:`clamp_prompt`.

    ``prefix`` is an optional prefilled cache (see
    :meth:`TransformerLM.prefill`): the longest leading run of the prompt
    it covers is reused instead of re-prefilled, which turns a benchmark's
    shared chat scaffold into a one-time cost.
    """
    config = config or GenerationConfig()
    rng = np.random.default_rng(config.seed)
    max_ctx = model.config.max_seq_len
    prompt, budget = clamp_prompt(prompt_ids, config.max_new_tokens, max_ctx)
    if not prompt:
        raise ValueError("prompt must contain at least one token")

    state = model.prefill(prompt, prefix)
    cache, step_logits = state.cache, state.last_logits
    out: List[int] = []
    stop = set(config.stop_token_ids)
    pos = len(prompt)
    for _ in range(budget):
        if logit_hook is not None:
            logit_hook(step_logits)
        tok = _select_token(step_logits, config, rng)
        out.append(tok)
        if tok in stop:
            break
        if pos >= max_ctx:
            break
        logits = model.forward(
            np.asarray([[tok]], dtype=np.int64), start_pos=pos, cache=cache
        )
        step_logits = logits[0, -1]
        pos += 1
    return out


def greedy_decode(
    model: TransformerLM,
    prompt_ids: Sequence[int],
    max_new_tokens: int = 64,
    stop_token_ids: Sequence[int] = (),
) -> List[int]:
    """Convenience wrapper: temperature-0 generation."""
    return generate(
        model,
        prompt_ids,
        GenerationConfig(
            max_new_tokens=max_new_tokens,
            temperature=0.0,
            stop_token_ids=stop_token_ids,
        ),
    )
