"""On-disk persistence for the analytic caches (warm start).

The footprint table and the lattice-count cache
(:func:`~repro.lattice.memo.default_caches`) memoise values that never
change for a given canonical key.  That makes them safe to persist:
repeated CLI runs and fuzz shards over the same programs keep
recomputing identical values from scratch, so the CLI (``--cache-dir``),
``repro check`` and ``repro serve`` load a versioned JSON snapshot at
startup and merge the session's new entries back at exit.

File format (``analytic_cache.json`` in the cache directory)::

    {"schema": "repro.analytic-cache", "version": 2,
     "caches": {"footprint_table": [[key, value], ...],
                "lattice_cache":   [[key, value], ...]}}

Each section is one default cache, named as in
:func:`~repro.lattice.memo.default_caches`; its values pass that cache's
``value_ok`` check (numbers: the counts).  Keys are nested tuples of ints / strings / bytes; they are
encoded recursively with tagged objects (``{"t": [...]}`` for tuples,
``{"b": "<hex>"}`` for bytes) so the JSON roundtrip is lossless.  A file
with an unknown schema or version is ignored, never migrated: the cache
is a pure accelerator and stale data must not poison results.

Version 2 added a third section, the structure-keyed plans of a
since-retired optimizer tier, and the forward-compatibility rule that
makes sections safe to add or retire: readers *skip* cache sections
they do not recognise instead of erroring, and the merge-write
preserves unrecognised sections verbatim, so another version's entries
survive this version's save.  A plans section that an older version
wrote is therefore kept as it is, unread.  Version-1 files are still
read (they have the same two sections).
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import time
from pathlib import Path

from .memo import default_caches

__all__ = [
    "CACHE_SCHEMA",
    "CACHE_VERSION",
    "ACCEPTED_VERSIONS",
    "CACHE_FILENAME",
    "default_cache_dir",
    "encode_key",
    "decode_key",
    "load_caches",
    "save_caches",
    "exchange_caches",
]

logger = logging.getLogger("repro.lattice.persist")

CACHE_SCHEMA = "repro.analytic-cache"
CACHE_VERSION = 2
#: Versions this reader accepts.  v1 files lack the (retired) plan
#: section but are otherwise identical; anything newer is ignored
#: wholesale (stale data must not poison results).
ACCEPTED_VERSIONS = (1, 2)
CACHE_FILENAME = "analytic_cache.json"
LOCK_FILENAME = CACHE_FILENAME + ".lock"

#: How long :func:`save_caches` waits for a concurrent writer before
#: giving up, and the age past which an orphaned lockfile (a writer that
#: died between creating and removing it) is broken.
LOCK_TIMEOUT_S = 10.0
LOCK_STALE_S = 30.0


class _CacheLock:
    """O_EXCL lockfile serialising the read-merge-write in save_caches.

    ``os.replace`` makes each write atomic, but two concurrent writers
    both read the same on-disk snapshot, merge their own entries, and
    the last replace drops the first writer's keys.  Creating
    ``analytic_cache.json.lock`` with O_CREAT|O_EXCL is itself atomic on
    every platform and filesystem we care about, so holding it makes the
    whole read-merge-write critical.  Locks older than LOCK_STALE_S are
    broken (the holder died); waiting longer than the timeout raises.
    """

    def __init__(self, directory: Path, *, timeout_s: float | None = None):
        self.path = directory / LOCK_FILENAME
        # Resolved at construction so tests can shrink the module default.
        self.timeout_s = LOCK_TIMEOUT_S if timeout_s is None else timeout_s
        self._held = False

    def __enter__(self):
        deadline = time.monotonic() + self.timeout_s
        delay = 0.01
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                self._break_if_stale()
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"analytic-cache lock {self.path} held by another "
                        f"writer for over {self.timeout_s:.0f}s"
                    ) from None
                time.sleep(delay)
                delay = min(delay * 2, 0.2)
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(str(os.getpid()))
            self._held = True
            return self

    def __exit__(self, *exc):
        if self._held:
            self._held = False
            try:
                os.unlink(self.path)
            except OSError:
                pass
        return False

    def _break_if_stale(self) -> None:
        try:
            age = time.time() - os.stat(self.path).st_mtime
        except OSError:
            return  # holder released it between our open and stat
        if age > LOCK_STALE_S:
            logger.warning(
                "breaking stale analytic-cache lock %s (age %.0fs)", self.path, age
            )
            try:
                os.unlink(self.path)
            except OSError:
                pass


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


def encode_key(obj):
    """Lossless JSON encoding of a cache key (int/str/bytes/nested tuple)."""
    if isinstance(obj, bool):  # bool is an int subclass; keys never use it
        raise TypeError(f"unsupported cache key component: {obj!r}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, bytes):
        return {"b": obj.hex()}
    if isinstance(obj, tuple):
        return {"t": [encode_key(x) for x in obj]}
    raise TypeError(f"unsupported cache key component: {type(obj).__name__}")


def decode_key(obj):
    """Inverse of :func:`encode_key`."""
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        if set(obj) == {"b"}:
            return bytes.fromhex(obj["b"])
        if set(obj) == {"t"}:
            return tuple(decode_key(x) for x in obj["t"])
    raise ValueError(f"malformed cache key component: {obj!r}")


def _cache_map(overrides: dict) -> dict:
    """Section name → cache: the defaults, with ``overrides`` by section."""
    caches = {name: cache for name, (_, _, cache) in default_caches().items()}
    unknown = set(overrides) - set(caches)
    if unknown:
        raise TypeError(f"unknown analytic cache(s): {sorted(unknown)}")
    caches.update((k, v) for k, v in overrides.items() if v is not None)
    return caches


def _read_entries(path: Path, caches: dict) -> dict[str, list] | None:
    """Decoded ``{cache_name: [(key, value), ...]}`` from ``path``, or None.

    Sections with a malformed key, or a value that fails its cache's
    ``value_ok``, are skipped whole (and therefore dropped from the next
    merge-write); unknown section *names* are kept uninterpreted so
    newer writers' entries survive our saves.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        logger.warning("ignoring unreadable analytic cache %s: %s", path, exc)
        return None
    if (
        not isinstance(data, dict)
        or data.get("schema") != CACHE_SCHEMA
        or data.get("version") not in ACCEPTED_VERSIONS
        or not isinstance(data.get("caches"), dict)
    ):
        logger.warning("ignoring analytic cache %s with unknown schema/version", path)
        return None
    out: dict[str, list] = {}
    for name, pairs in data["caches"].items():
        decoded = []
        try:
            for key, value in pairs:
                if name in caches and not caches[name].value_ok(value):
                    raise TypeError(f"bad cache value for {name!r}: {value!r}")
                decoded.append((decode_key(key), value))
        except (TypeError, ValueError) as exc:
            logger.warning("ignoring malformed entries for cache %r in %s: %s", name, path, exc)
            continue
        out[name] = decoded
    return out


def load_caches(cache_dir=None, **caches) -> int:
    """Warm-start the analytic caches from ``cache_dir``.

    Returns the number of entries absorbed (also visible as the caches'
    ``loads`` counters).  Missing or invalid files load nothing.  A
    keyword named after a section (``footprint_table=``,
    ``lattice_cache=``) puts that cache in place of the
    process default; :func:`save_caches` and :func:`exchange_caches`
    take the same keywords.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    caches = _cache_map(caches)
    entries = _read_entries(directory / CACHE_FILENAME, caches)
    if not entries:
        return 0
    loaded = 0
    for name, cache in caches.items():
        loaded += cache.absorb_entries(entries.get(name, []))
    return loaded


def _encoded_pairs(items) -> list:
    """``[encode_key(k), v]`` pairs sorted by the encoded key's repr.

    This is the order of the pairs' own reprs without formatting any
    value: keys are unique, and no key's repr is a prefix of another's
    except an int's, whose pair repr goes on with ``,`` (below every
    digit).
    """
    return sorted(([encode_key(k), v] for k, v in items), key=lambda p: repr(p[0]))


def save_caches(cache_dir=None, **caches) -> int:
    """Persist the analytic caches into ``cache_dir`` (merge semantics).

    Entries already on disk are kept (union with the in-memory tables),
    so concurrent runs only ever add keys.  The whole read-merge-write
    runs under an on-disk lockfile (:class:`_CacheLock`) so concurrent
    writers serialise instead of overwriting each other's new keys, and
    the write itself is atomic (temp file + ``os.replace``).  Returns
    the total number of entries written.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / CACHE_FILENAME
    with _CacheLock(directory):
        caches = _cache_map(caches)
        on_disk = _read_entries(path, caches) or {}
        payload: dict[str, list] = {}
        written = 0
        for name, cache in caches.items():
            merged = {}
            for key, value in on_disk.get(name, []):
                merged[key] = value
            for key, value in cache.export_entries():
                merged[key] = value
            payload[name] = _encoded_pairs(merged.items())
            written += len(merged)
        # Forward compatibility: sections written by a newer version are
        # carried through the merge untouched instead of being dropped.
        for name, pairs in on_disk.items():
            if name in payload:
                continue
            payload[name] = _encoded_pairs(pairs)
            written += len(pairs)
        doc = {"schema": CACHE_SCHEMA, "version": CACHE_VERSION, "caches": payload}
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".analytic_cache.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    return written


def exchange_caches(cache_dir=None, **caches) -> tuple[int, int]:
    """One cross-process cache-exchange cycle over ``cache_dir``.

    Snapshot this process's entries into the shared file (union-merge
    under the lockfile), then absorb whatever peers have published since
    the last cycle.  This is the access pattern the multi-replica serve
    tier runs periodically: every replica both contributes its fresh
    footprint/lattice entries and warms from the others', so a cold or newly
    re-admitted replica converges on the cluster's union instead of
    recomputing from scratch.  Returns ``(written, absorbed)`` —
    entries written to disk and entries newly absorbed into memory.
    """
    written = save_caches(cache_dir, **caches)
    return written, load_caches(cache_dir, **caches)
