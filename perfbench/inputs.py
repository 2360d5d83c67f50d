"""Seeded input generators.

Every workload input is a pure function of ``--seed`` (and, for the
time-bounded loops, of a repetition index or the run length), built here
with NumPy generators the benchmark owns.  The program under test only
receives the generated token ids, so a change to the program cannot
change its inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Token ids below this are the tokenizer's specials (pad, bos, eos, unk).
FIRST_ORDINARY_ID = 4
#: The document-boundary token packed training puts before every document
#: (``eos``); the eval pipeline and the serving prompts start with it.
BOUNDARY_ID = 2

# serve_prefix: each prompt is the boundary token, one of N_SCAFFOLDS
# rotating system scaffolds, then a fresh random tail, so about
# four-fifths of prompt tokens repeat an earlier prompt.
N_SCAFFOLDS = 3
SCAFFOLD_LEN = (112, 128)
TAIL_LEN = (20, 40)
#: SCORE share of requests, exact rather than drawn per request, so the
#: decode work of a run does not vary with the seed; the rest GENERATE
#: this many tokens, a GREEDY_SHARE of them greedily (checkable), the
#: others sampled.
SCORE_SHARE = 0.8
GENERATE_LEN = (16, 32)
GREEDY_SHARE = 0.25

# serve_decode: short unshared prompts and long outputs, one greedy
# request per burst for the output check.  The lengths are spread evenly
# over these bounds, the same in every burst, so a burst's work does not
# vary with the seed; the seed picks their order and every token.
DECODE_PROMPT_LEN = (8, 24)
DECODE_OUTPUT_LEN = (64, 192)
DECODE_GREEDY = 1


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, named stream)."""
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), tag])


@dataclass(frozen=True)
class RequestSpec:
    """One serving request as the load generator submits it."""

    request_id: str
    due: float  # seconds after the start of the timed region
    prompt: Tuple[int, ...]
    score: bool  # SCORE if true, else GENERATE
    max_new_tokens: int = 0
    greedy: bool = True
    sample_seed: int = 0


def _ids(rng: np.random.Generator, n: int, vocab: int) -> Tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(FIRST_ORDINARY_ID, vocab, size=n))


def _between(rng: np.random.Generator, bounds: Tuple[int, int]) -> int:
    return int(rng.integers(bounds[0], bounds[1] + 1))


def _spread(bounds: Tuple[int, int], n: int) -> List[int]:
    """``n`` whole numbers spread evenly from ``bounds[0]`` to ``bounds[1]``."""
    lo, hi = bounds
    return [lo + round((hi - lo) * i / max(n - 1, 1)) for i in range(n)]


def prefix_requests(seed: int, n_requests: int, rate: float, vocab: int) -> List[RequestSpec]:
    """``n_requests`` Poisson arrivals at ``rate`` per second."""
    rng = rng_for(seed, "serve_prefix")
    scaffolds = [_ids(rng, _between(rng, SCAFFOLD_LEN), vocab) for _ in range(N_SCAFFOLDS)]
    n_generate = round(n_requests * (1.0 - SCORE_SHARE))
    generate = set(rng.choice(n_requests, size=n_generate, replace=False).tolist())
    specs: List[RequestSpec] = []
    t = 0.0
    for i in range(n_requests):
        t += float(rng.exponential(1.0 / rate))
        tail = _ids(rng, _between(rng, TAIL_LEN), vocab)
        prompt = (BOUNDARY_ID,) + scaffolds[i % N_SCAFFOLDS] + tail
        score = i not in generate
        n_new = _between(rng, GENERATE_LEN)
        greedy = bool(rng.random() < GREEDY_SHARE)
        specs.append(
            RequestSpec(
                f"p{i}",
                t,
                prompt,
                score,
                0 if score else n_new,
                greedy,
                int(rng.integers(2**31)),
            )
        )
    return specs


def decode_burst(seed: int, burst: int, n_requests: int, vocab: int) -> List[RequestSpec]:
    """One offline burst of GENERATE requests, all due at time 0.

    First tokens are drawn without replacement, so no two prompts of a
    burst share even one token of prefix and the prefix store never hits.
    """
    rng = rng_for(seed, f"serve_decode/{burst}")
    firsts = rng.choice(np.arange(FIRST_ORDINARY_ID, vocab), size=n_requests, replace=False)
    greedy = set(rng.choice(n_requests, size=min(DECODE_GREEDY, n_requests), replace=False).tolist())
    order = rng.permutation(n_requests)
    prompt_lens = _spread(DECODE_PROMPT_LEN, n_requests)
    output_lens = _spread(DECODE_OUTPUT_LEN, n_requests)
    specs = []
    for i, k in enumerate(order):
        prompt = (int(firsts[i]),) + _ids(rng, prompt_lens[k] - 1, vocab)
        specs.append(
            RequestSpec(
                f"d{burst}.{i}",
                0.0,
                prompt,
                False,
                output_lens[k],
                i in greedy,
                int(rng.integers(2**31)),
            )
        )
    return specs


def train_batches(
    seed: int, n_batches: int, batch: int, seq_len: int, vocab: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(inputs, targets)`` next-token pairs of shape ``(batch, seq_len)``."""
    rng = rng_for(seed, "train_step")
    out = []
    for _ in range(n_batches):
        ids = rng.integers(FIRST_ORDINARY_ID, vocab, size=(batch, seq_len + 1))
        out.append((ids[:, :-1].copy(), ids[:, 1:].copy()))
    return out


def sample_indices(seed: int, stream: str, n: int, k: int) -> List[int]:
    """``k`` distinct indices below ``n`` (all of them if ``k >= n``)."""
    if k >= n:
        return list(range(n))
    return sorted(rng_for(seed, stream).choice(n, size=k, replace=False).tolist())


def shared_token_frac(groups: Sequence[Sequence[Sequence[int]]]) -> float:
    """Share of prompt tokens that lie in the longest prefix each prompt
    shares with an earlier prompt of its group (an input property; a
    perfect prefix cache living as long as the group could serve at most
    this share).  Each group is what one engine serves."""
    shared = total = 0
    for prompts in groups:
        trie: Dict[int, dict] = {}
        for prompt in prompts:
            depth, node = 0, trie
            for tok in prompt:
                if tok not in node:
                    break
                node = node[tok]
                depth += 1
            shared += depth
            total += len(prompt)
            node = trie
            for tok in prompt:
                node = node.setdefault(tok, {})
    return shared / total if total else 0.0

