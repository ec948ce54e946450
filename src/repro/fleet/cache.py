"""On-disk result cache: content-hash of a session spec → its result.

Re-runs and incremental sweeps (more sessions, a changed axis weight
that leaves most sampled specs identical) skip already-simulated
sessions entirely. Entries are one JSON file per spec digest, sharded
into two-hex-character subdirectories, written atomically (temp file +
``os.replace``) so a crashed or concurrent run never leaves a torn
entry behind.
"""

import json
import os
import pathlib
import tempfile


class CacheDigestError(RuntimeError):
    """A cached session result no longer matches a fresh simulation.

    Raised by the fleet runner's sanitizer hook: either the cache entry
    was tampered with/corrupted in a way that still parses, or the
    simulation is no longer deterministic for that spec. Both mean the
    cached fleet percentiles can no longer be trusted.
    """


class ResultCache:
    """Maps :meth:`SessionSpec.digest` keys to session-result payloads."""

    def __init__(self, cache_dir):
        self.cache_dir = pathlib.Path(cache_dir)
        if self.cache_dir.exists() and not self.cache_dir.is_dir():
            raise ValueError(
                f"cache path exists and is not a directory: {cache_dir}"
            )
        self.hits = 0
        self.misses = 0

    def _path(self, key):
        return self.cache_dir / key[:2] / f"{key}.json"

    def get(self, key):
        """The cached payload dict for ``key``, or ``None``.

        A corrupt (torn/truncated) entry counts as a miss and is
        removed so the slot can be rewritten. Eviction is safe under
        concurrent runs: a decode failure is re-read once first (an
        ``os.replace`` by a parallel writer is atomic, so its fresh
        entry parses on the second attempt instead of being evicted),
        and the unlink itself tolerates the entry already being gone
        (``missing_ok`` semantics — two runs may race to evict).
        """
        path = self._path(key)
        for attempt in (0, 1):
            try:
                with open(path) as handle:
                    payload = json.load(handle)
            except FileNotFoundError:
                self.misses += 1
                return None
            except (json.JSONDecodeError, OSError):
                if attempt == 0:
                    continue
                self.misses += 1
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
                return None
            self.hits += 1
            return payload

    def put(self, key, payload):
        """Atomically persist ``payload`` under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="w", dir=path.parent, suffix=".tmp", delete=False
        )
        try:
            with handle:
                # One write: ``json.dump`` streams many small chunks
                # through the text wrapper for the same bytes.
                handle.write(json.dumps(payload))
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path

    def __len__(self):
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("??/*.json"))
