"""The JSONL event-trace exporter.

:class:`EventTraceWriter` is a sink for the machine's access stream
(:attr:`repro.sim.machine.Machine.observer`): every ``every``-th access is
written as one JSON object per line, so a multi-million-access simulation
can leave a bounded, replayable record::

    {"seq": 0, "proc": 2, "array": "B", "coords": [7, 3], "kind": "read", "hit": false}

``seq`` is the global access sequence number (pre-sampling), so sampled
traces remain alignable with the full run.
"""

from __future__ import annotations

import json

__all__ = ["EventTraceWriter"]


class EventTraceWriter:
    """Write every ``every``-th access event as a JSONL line.

    Parameters
    ----------
    path_or_file:
        Output path, or any object with ``write``.
    every:
        Sampling stride (1 = every access).
    limit:
        Optional hard cap on written events (``None`` = unlimited).
    """

    def __init__(self, path_or_file, *, every: int = 1, limit: int | None = None):
        if every < 1:
            raise ValueError(f"sampling stride must be >= 1, got {every}")
        if hasattr(path_or_file, "write"):
            self._fh = path_or_file
            self._owns = False
        else:
            self._fh = open(path_or_file, "w")
            self._owns = True
        self.every = every
        self.limit = limit
        self.events_seen = 0
        self.events_written = 0

    def __call__(self, proc: int, array: str, coords, kind: str, hit: bool) -> None:
        seq = self.events_seen
        self.events_seen += 1
        if seq % self.every:
            return
        if self.limit is not None and self.events_written >= self.limit:
            return
        self._fh.write(
            json.dumps(
                {
                    "seq": seq,
                    "proc": proc,
                    "array": array,
                    "coords": list(coords),
                    "kind": kind,
                    "hit": bool(hit),
                },
                separators=(",", ":"),
            )
            + "\n"
        )
        self.events_written += 1

    def close(self) -> None:
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "EventTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
