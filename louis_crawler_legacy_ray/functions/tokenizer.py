"""Deterministic tokenizer — stand-in for tiktoken cl100k_base.

tiktoken is not a dependency of this package (reference loads it at
louis/crawler/chunking.py:10). This encoder reproduces the *interface
and determinism contract* the chunker needs — ``encode(text) ->
list[int]`` with stable ids across processes/runs — using a BPE-ish
regex pre-tokenizer (GPT-2-style word/number/punct/space classes) and a
stable 31-bit hash per token string. Token *counts* differ from true
cl100k counts by a bounded factor on natural text; every bound in the
chunker (256/512/409) is expressed in these token units.

Marked stand-in: swap ``Encoder`` for tiktoken's cl100k_base when the
dependency is available; all chunker semantics are independent of the
concrete id values.
"""

from __future__ import annotations

import hashlib
import re

_PRETOKEN_RE = re.compile(
    r"'(?:[sdmt]|ll|ve|re)"  # common English contractions
    r"| ?[A-Za-z]+"           # words with optional leading space
    r"| ?[0-9]{1,3}"          # digit runs, max 3 per token (BPE-like)
    r"| ?[^\sA-Za-z0-9]+"     # punctuation runs
    r"|\s+(?!\S)"             # trailing whitespace
    r"|\s+"                   # other whitespace
)


def _token_id(tok: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(tok.encode("utf-8"), digest_size=4).digest(), "big"
    ) & 0x7FFFFFFF


class Encoder:
    """Stateful-looking encoder with a per-instance memo cache; build
    once per actor (chunker stage __init__), use per batch."""

    name = "regex-blake2b-31bit (cl100k_base stand-in)"

    def __init__(self, cache_size: int = 1 << 16):
        self._cache: dict[str, int] = {}
        self._cache_size = cache_size

    def encode(self, text: str) -> list[int]:
        cache = self._cache
        out = []
        for tok in _PRETOKEN_RE.findall(text):
            tid = cache.get(tok)
            if tid is None:
                tid = _token_id(tok)
                if len(cache) < self._cache_size:
                    cache[tok] = tid
            out.append(tid)
        return out

    def count(self, text: str) -> int:
        return len(_PRETOKEN_RE.findall(text))


_default = Encoder()


def encode(text: str) -> list[int]:
    return _default.encode(text)
