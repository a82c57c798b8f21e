"""The render memo: each served answer rendered once per corpus state.

A warm report read is a result-cache hit, but a hit still rebuilds the
report dataclass from its cached parts, re-hashes it into the
``report_digest``, re-runs the figure extractors and re-encodes the
canonical JSON: milliseconds of CPU for an answer that cannot have
changed.  :class:`RenderMemo` keeps, per route key (``(study,
backend)`` for a report, the artifact id for a figure or table), the
rendered payload *and* its encoded response body, stamped with the
corpus fingerprint it was rendered from.

The rules:

* **Keyed on the corpus fingerprint** the
  :class:`~repro.runtime.cache.ResultCache` keys on
  (:func:`context_fingerprint`).  An entry whose fingerprint no longer
  matches the corpus — after :meth:`~repro.serve.api.ServeState.ingest`
  or a :meth:`~repro.serve.warm.CacheWarmer.tail` — is a miss, and the
  next render replaces it, so the memo holds at most one entry per
  route.
* **Process memory only.**  Nothing is written to the cache
  directory; a restarted server renders each answer once more from
  its (possibly persistent) result cache.
* **Only answers.**  An error is raised before anything is stored, so
  4xx/5xx responses are never memoized.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.serve.payloads import canonical_json

__all__ = ["RenderMemo", "Rendered", "context_fingerprint", "encode_body"]

#: Every corpus domain a served run context can carry.
_DOMAINS = ("sev", "ticket", "trial")


def encode_body(payload) -> bytes:
    """The HTTP response body of ``payload``: canonical JSON + newline."""
    return canonical_json(payload).encode() + b"\n"


class Rendered(dict):
    """A payload together with its encoded response body.

    A ``dict``, so :meth:`~repro.serve.api.ServeApp.handle` keeps
    returning plain JSON-able payloads; ``body`` is
    :func:`encode_body` of the same payload, which the transport
    writes as is.  Memoized instances are shared by every request
    that reads them: treat them as read-only.
    """

    __slots__ = ("body",)

    def __init__(self, payload: dict) -> None:
        super().__init__(payload)
        self.body = encode_body(payload)


def context_fingerprint(context) -> Optional[str]:
    """The identity of every corpus ``context`` carries.

    The per-domain fingerprints the executor keys result-cache
    entries on, joined; ``None`` when the context carries no corpus
    or one that cannot be fingerprinted (then nothing is memoized,
    just as nothing is cached).
    """
    parts = []
    for domain in _DOMAINS:
        corpus = context.corpus_for(domain)
        if corpus is None:
            continue
        fingerprint = corpus.fingerprint()
        if fingerprint is None:
            return None
        parts.append(fingerprint)
    return ":".join(parts) or None


class RenderMemo:
    """Rendered answers keyed by route, valid for one corpus fingerprint.

    ``cache`` is the :class:`~repro.runtime.cache.ResultCache` the
    renders read through.  Not thread-safe on its own:
    :class:`~repro.serve.api.ServeState` calls it under its lock.
    """

    def __init__(self, cache) -> None:
        self.cache = cache
        #: route key -> (fingerprint, rendered answer, cache lookups
        #: the render made)
        self._entries: Dict[Hashable, Tuple[str, Rendered, int]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def render(self, key: Hashable, context,
               build: Callable[[], dict]) -> Rendered:
        """The answer for ``key`` over ``context``'s corpus; built on a miss.

        A hit counts, on the result cache, the hits the render it
        replaces would have counted, so the cache counters read the
        same with or without the memo.  A miss runs ``build`` (which
        does its own cache lookups) and stores the result when the
        corpus has a fingerprint.
        """
        cache = self.cache
        fingerprint = context_fingerprint(context)
        entry = self._entries.get(key)
        if (fingerprint is not None and entry is not None
                and entry[0] == fingerprint):
            self.hits += 1
            cache.count_hits(entry[2])
            return entry[1]
        self.misses += 1
        before = cache.hits + cache.misses
        rendered = Rendered(build())
        if fingerprint is not None:
            lookups = cache.hits + cache.misses - before
            self._entries[key] = (fingerprint, rendered, lookups)
        return rendered

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for ``GET /stats``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }
