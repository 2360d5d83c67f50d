"""KV-cache reuse primitives for shared-prompt evaluation.

Benchmarking 4,425 MCQs against one model re-encodes the same two-shot
prompt scaffold thousands of times.  This module makes the scaffold a
first-class, reusable artifact:

* :func:`fork_cache` — cheap (zero-copy) per-call views of a prefilled
  cache, optionally trimmed to a shorter prefix;
* :class:`PrefixCache` — a prefilled prompt prefix: the token ids, the
  per-layer K/V tensors, and the next-token logits at the prefix
  boundary;
* :class:`PrefixCacheStore` — a radix tree over token ids holding every
  stored prompt's K/V once, that finds the longest stored prefix of an
  incoming prompt in one walk.

Safety relies on one invariant of :class:`~repro.model.attention.
MultiHeadAttention`: an incremental forward *rebinds* ``cache["k"]`` /
``cache["v"]`` to freshly concatenated arrays and never writes into the
existing ones.  Forked caches may therefore share (even read-only)
views of the parent's tensors.  The store's own segments are
written once at insert and are read-only from then on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Per-layer attention cache: ``cache[layer]["k"|"v"]`` is ``(B, H, T, hd)``.
KVCache = List[Dict[str, np.ndarray]]


def debug_cache_guard_enabled() -> bool:
    """Whether the ``REPRO_DEBUG_CACHE`` runtime guard is on.

    When enabled, :func:`fork_cache` hands out *non-writeable* views, so
    any code that violates the rebind-not-mutate contract (the invariant
    ``repro.lint`` rule R1 checks statically) raises ``ValueError:
    assignment destination is read-only`` at the offending write instead
    of silently corrupting every fork sharing the storage.
    """
    return os.environ.get("REPRO_DEBUG_CACHE", "").lower() not in (
        "",
        "0",
        "false",
        "off",
    )


def cache_length(cache: KVCache) -> int:
    """Number of cached key positions (0 for a fresh cache)."""
    for layer in cache:
        if "k" in layer:
            return int(layer["k"].shape[2])
    return 0


def fork_cache(cache: KVCache, length: Optional[int] = None) -> KVCache:
    """A child cache sharing the parent's K/V storage.

    The child may be extended by further incremental forwards without
    touching the parent (attention rebinds, never mutates).  ``length``
    trims the fork to the first ``length`` positions.

    With ``REPRO_DEBUG_CACHE`` set (see :func:`debug_cache_guard_enabled`)
    the returned views are marked non-writeable, turning contract
    violations into immediate ``ValueError``\\ s.
    """
    freeze = debug_cache_guard_enabled()
    forked: KVCache = []
    for layer in cache:
        if "k" not in layer:
            forked.append({})
            continue
        k, v = layer["k"], layer["v"]
        if length is not None:
            k = k[:, :, :length, :]
            v = v[:, :, :length, :]
        if freeze:
            # fresh views so the parent's own arrays keep their flags
            k, v = k.view(), v.view()
            k.flags.writeable = False
            v.flags.writeable = False
        forked.append({"k": k, "v": v})
    return forked


def common_prefix_len(a: Sequence[int], b: Sequence[int]) -> int:
    """Length of the longest shared leading run of ``a`` and ``b``."""
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def shared_prefix(sequences: Sequence[Sequence[int]]) -> List[int]:
    """Longest token prefix shared by *all* sequences (empty list if none)."""
    if not sequences:
        return []
    shortest = min(sequences, key=len)
    n = len(shortest)
    for seq in sequences:
        n = common_prefix_len(shortest[:n], seq)
        if n == 0:
            return []
    return list(shortest[:n])


@dataclass
class PrefixCache:
    """A prefilled prompt prefix, reusable across many continuations.

    ``last_logits`` are the next-token logits *after* the final prefix
    token — callers whose whole prompt hits the cache need no forward at
    all.
    """

    token_ids: Tuple[int, ...]
    cache: KVCache
    last_logits: Optional[np.ndarray] = None

    @property
    def length(self) -> int:
        return len(self.token_ids)

    def overlap(self, token_ids: Sequence[int]) -> int:
        """How many leading tokens of ``token_ids`` this prefix covers."""
        return common_prefix_len(self.token_ids, token_ids)

    def fork(self, length: Optional[int] = None) -> KVCache:
        if length is not None and length > self.length:
            raise ValueError(f"length {length} exceeds prefix length {self.length}")
        return fork_cache(self.cache, length=length)


def _segment(cache: KVCache, start: int, stop: Optional[int] = None) -> KVCache:
    """An owned, read-only copy of positions ``start:stop`` of ``cache``."""
    out: KVCache = []
    for layer in cache:
        seg = {}
        for key in ("k", "v"):
            arr = layer[key][:, :, start:stop].copy()
            arr.flags.writeable = False
            seg[key] = arr
        out.append(seg)
    return out


class _Node:
    """One radix-tree edge: its token ids and their K/V, plus the boundary
    logits if a stored prompt ends here."""

    __slots__ = ("tokens", "kv", "logits", "children", "parent", "last_used")

    def __init__(
        self, tokens: Tuple[int, ...], kv: KVCache, parent: Optional["_Node"]
    ) -> None:
        self.tokens = tokens
        self.kv = kv
        self.logits: Optional[np.ndarray] = None
        self.children: Dict[int, _Node] = {}
        self.parent = parent
        self.last_used = 0


class PrefixCacheStore:
    """A radix tree of prefilled prompts keyed by token ids.

    Every stored prompt is a path from the root.  Each node holds its
    edge's K/V as its own contiguous, read-only copy, written once at
    insert, so evicting a leaf frees exactly that leaf's memory.
    ``match`` is one walk from the root and returns the longest stored
    prefix of an incoming prompt.  Capacity is counted in resident
    tokens; over it, the least recently used *leaf* goes first, so a
    prompt's unique tail is evicted before the scaffold it hangs from
    (SGLang RadixAttention, Zheng et al. 2024).
    """

    def __init__(self, capacity_tokens: int) -> None:
        if capacity_tokens < 1:
            raise ValueError("capacity_tokens must be >= 1")
        self.capacity_tokens = capacity_tokens
        self._root = _Node((), [], None)
        self._leaves: Dict[_Node, None] = {}  # insertion-ordered set
        self._tick = 0
        self.tokens = 0
        self.nodes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return self.nodes

    def _walk(self, ids: Tuple[int, ...]) -> Tuple[List[Tuple[_Node, int]], int]:
        """The nodes the longest stored prefix of ``ids`` passes through,
        each with how many of its edge tokens matched, and that prefix's
        length."""
        path: List[Tuple[_Node, int]] = []
        node, depth = self._root, 0
        while depth < len(ids):
            child = node.children.get(ids[depth])
            if child is None:
                break
            n = common_prefix_len(child.tokens, ids[depth : depth + len(child.tokens)])
            path.append((child, n))
            depth += n
            if n < len(child.tokens):
                break
            node = child
        return path, depth

    def _touch(self, node: _Node) -> None:
        self._tick += 1
        while node is not self._root:
            node.last_used = self._tick
            node = node.parent

    def match(self, token_ids: Sequence[int]) -> Optional[Tuple[PrefixCache, int]]:
        """``(prefix, overlap)`` for the longest stored prefix of
        ``token_ids``, or None when not even the first token is stored.

        ``prefix`` covers exactly the ``overlap`` matched tokens (its K/V
        gathered from the path's nodes, read-only) and carries boundary
        logits when a stored prompt ended exactly there.
        """
        ids = tuple(int(t) for t in token_ids)
        path, depth = self._walk(ids)
        if not depth:
            self.misses += 1
            return None
        self.hits += 1
        last, n = path[-1]
        self._touch(last)
        cache: KVCache = []
        for i in range(len(last.kv)):
            layer = {}
            for key in ("k", "v"):
                parts = [node.kv[i][key][:, :, :m] for node, m in path]
                arr = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)
                arr.flags.writeable = False
                layer[key] = arr
            cache.append(layer)
        logits = last.logits if n == len(last.tokens) else None
        return PrefixCache(ids[:depth], cache, logits), depth

    def put(self, prefix: PrefixCache) -> PrefixCache:
        """Insert ``prefix`` and return it.

        Only the K/V of tokens past the longest already-stored prefix are
        copied in; re-putting a stored prompt adds nothing and refreshes
        its recency.
        """
        ids = prefix.token_ids
        if not ids:
            return prefix
        path, depth = self._walk(ids)
        node = self._root
        if path:
            node, n = path[-1]
            if n < len(node.tokens):
                node = self._split(node, n)
        if depth < len(ids):
            child = _Node(ids[depth:], _segment(prefix.cache, depth), node)
            node.children[ids[depth]] = child
            self._leaves.pop(node, None)
            self._leaves[child] = None
            self.tokens += len(child.tokens)
            self.nodes += 1
            node = child
        if node.logits is None and prefix.last_logits is not None:
            node.logits = np.array(prefix.last_logits)
            node.logits.flags.writeable = False
        self._touch(node)
        self._evict()
        return prefix

    def _split(self, node: _Node, n: int) -> _Node:
        """Cut ``node``'s edge after ``n`` tokens; returns the upper half."""
        upper = _Node(node.tokens[:n], _segment(node.kv, 0, n), node.parent)
        upper.last_used = node.last_used
        upper.parent.children[upper.tokens[0]] = upper
        node.tokens = node.tokens[n:]
        node.kv = _segment(node.kv, n)
        node.parent = upper
        upper.children[node.tokens[0]] = node
        self.nodes += 1
        return upper

    def _evict(self) -> None:
        while self.tokens > self.capacity_tokens:
            leaf = min(self._leaves, key=lambda node: node.last_used)
            del self._leaves[leaf]
            parent = leaf.parent
            del parent.children[leaf.tokens[0]]
            self.tokens -= len(leaf.tokens)
            self.nodes -= 1
            self.evictions += 1
            if parent is not self._root and not parent.children:
                self._leaves[parent] = None

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (plain dict, e.g. for ``serve.metrics``)."""
        return {
            "tokens": self.tokens,
            "nodes": self.nodes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
