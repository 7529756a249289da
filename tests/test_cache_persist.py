"""Tests for analytic-cache persistence (repro.lattice.persist).

Covers the lossless key codec, save/load roundtrip and union-merge
semantics, the schema/version guard (unknown files are ignored, never
migrated), graceful handling of corrupt files, and the CLI's
``--cache-dir`` end-to-end warm start with the metrics wiring
(`analytic_cache_stats` / run-report ``caches`` section).
"""

from __future__ import annotations

import json

import pytest

from repro.lattice.persist import (
    CACHE_FILENAME,
    CACHE_SCHEMA,
    CACHE_VERSION,
    decode_key,
    default_cache_dir,
    encode_key,
    load_caches,
    save_caches,
)
from repro.lattice.points import FootprintTable, LatticeCountCache


class TestKeyCodec:
    @pytest.mark.parametrize(
        "key",
        [
            0,
            -17,
            "cumulative-exact",
            b"\x00\xffG",
            (1, 2, 3),
            ("k", (2, 3), b"\x01\x02", ((-4,), "x")),
            (),
        ],
    )
    def test_roundtrip(self, key):
        assert decode_key(encode_key(key)) == key

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            encode_key(True)
        with pytest.raises(TypeError):
            encode_key((1, False))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            encode_key(3.5)
        with pytest.raises(TypeError):
            encode_key([1, 2])

    def test_malformed_decode_rejected(self):
        with pytest.raises(ValueError):
            decode_key({"weird": 1})
        with pytest.raises(ValueError):
            decode_key(None)


def _populated_caches():
    ft = FootprintTable()
    lc = LatticeCountCache()
    ft.lookup([2, -1, 3], [4, 5, 6])
    ft.lookup([1, 1], [7, 0])
    lc.count_distinct_images([[1, 0], [0, 2]], [5, 5])
    lc.get_or_compute(("cumulative-exact", "tag", (3, 4)), lambda: 12.5)
    return ft, lc


class TestRoundtrip:
    def test_save_then_load(self, tmp_path):
        ft, lc = _populated_caches()
        written = save_caches(tmp_path, footprint_table=ft, lattice_cache=lc)
        assert written == len(ft) + len(lc)

        ft2, lc2 = FootprintTable(), LatticeCountCache()
        loaded = load_caches(tmp_path, footprint_table=ft2, lattice_cache=lc2)
        assert loaded == written
        assert ft2.export_entries() == ft.export_entries()
        assert lc2.export_entries() == lc.export_entries()
        assert ft2.loads == len(ft) and lc2.loads == len(lc)
        # Float values survive without truncation.
        assert lc2.get_or_compute(("cumulative-exact", "tag", (3, 4)), lambda: 0) == 12.5

    def test_merge_is_union(self, tmp_path):
        ft, lc = _populated_caches()
        save_caches(tmp_path, footprint_table=ft, lattice_cache=lc)
        # A second session with different entries merges, never clobbers.
        ft_b, lc_b = FootprintTable(), LatticeCountCache()
        ft_b.lookup([9], [9])
        save_caches(tmp_path, footprint_table=ft_b, lattice_cache=lc_b)
        ft3, lc3 = FootprintTable(), LatticeCountCache()
        assert load_caches(tmp_path, footprint_table=ft3, lattice_cache=lc3) == (
            len(ft) + len(lc) + 1
        )

    def test_load_missing_dir_is_noop(self, tmp_path):
        ft, lc = FootprintTable(), LatticeCountCache()
        assert load_caches(tmp_path / "nope", footprint_table=ft, lattice_cache=lc) == 0
        assert len(ft) == 0 and ft.loads == 0

    def test_absorb_never_overwrites(self, tmp_path):
        ft, lc = _populated_caches()
        save_caches(tmp_path, footprint_table=ft, lattice_cache=lc)
        # Pre-existing in-memory entries win over on-disk ones.
        lc2 = LatticeCountCache()
        key = ("cumulative-exact", "tag", (3, 4))
        lc2.get_or_compute(key, lambda: 99.0)
        load_caches(tmp_path, footprint_table=FootprintTable(), lattice_cache=lc2)
        assert lc2.get_or_compute(key, lambda: 0) == 99.0


class TestGuards:
    def _write(self, tmp_path, doc):
        (tmp_path / CACHE_FILENAME).write_text(json.dumps(doc))

    def test_wrong_schema_ignored(self, tmp_path):
        self._write(
            tmp_path,
            {"schema": "other", "version": CACHE_VERSION, "caches": {}},
        )
        assert load_caches(tmp_path, footprint_table=FootprintTable(), lattice_cache=LatticeCountCache()) == 0

    def test_future_version_ignored(self, tmp_path):
        self._write(
            tmp_path,
            {"schema": CACHE_SCHEMA, "version": CACHE_VERSION + 1, "caches": {}},
        )
        assert load_caches(tmp_path, footprint_table=FootprintTable(), lattice_cache=LatticeCountCache()) == 0

    def test_corrupt_json_ignored(self, tmp_path):
        (tmp_path / CACHE_FILENAME).write_text("{not json")
        assert load_caches(tmp_path, footprint_table=FootprintTable(), lattice_cache=LatticeCountCache()) == 0

    def test_non_numeric_values_ignored(self, tmp_path):
        self._write(
            tmp_path,
            {
                "schema": CACHE_SCHEMA,
                "version": CACHE_VERSION,
                "caches": {"lattice_cache": [[{"t": [1]}, "oops"]]},
            },
        )
        lc = LatticeCountCache()
        assert load_caches(tmp_path, footprint_table=FootprintTable(), lattice_cache=lc) == 0
        assert len(lc) == 0

    def test_corrupt_file_not_clobbered_until_save(self, tmp_path):
        (tmp_path / CACHE_FILENAME).write_text("{not json")
        ft, lc = _populated_caches()
        written = save_caches(tmp_path, footprint_table=ft, lattice_cache=lc)
        assert written == len(ft) + len(lc)
        data = json.loads((tmp_path / CACHE_FILENAME).read_text())
        assert data["schema"] == CACHE_SCHEMA and data["version"] == CACHE_VERSION

    def test_default_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
        assert default_cache_dir() == tmp_path / "warm"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert str(default_cache_dir()).endswith(".cache/repro")


class TestCliWarmStart:
    # B's reference matrix collapses iterations (dependent rows), which is
    # the path that actually consults the memoised DEFAULT_FOOTPRINT_TABLE
    # (full-rank references short-circuit through Theorem 5, cache-free).
    PROGRAM = """\
Doall (i, 1, 16)
  Doall (j, 1, 16)
    A(i,j) = B(i+j) + B(i+j+2)
  EndDoall
EndDoall
"""

    def _run(self, tmp_path, cache_dir, report_name):
        from repro.cli import main

        src = tmp_path / "prog.doall"
        src.write_text(self.PROGRAM)
        report = tmp_path / report_name
        rc = main(
            [
                str(src),
                "-p",
                "4",
                "--cache-dir",
                str(cache_dir),
                "--json-report",
                str(report),
            ],
            out=open(tmp_path / "out.txt", "w"),
        )
        assert rc == 0
        return json.loads(report.read_text())

    def test_cache_dir_end_to_end(self, tmp_path):
        cache_dir = tmp_path / "cache"
        r1 = self._run(tmp_path, cache_dir, "r1.json")
        assert (cache_dir / CACHE_FILENAME).exists()
        assert "caches" in r1
        stats1 = r1["caches"]
        assert set(stats1) == {"footprint_table", "lattice_cache", "plan"}
        for name, section in stats1.items():
            expected = {"entries", "hits", "misses", "loads"}
            if name == "plan":
                expected |= {"fallbacks"}
            assert set(section) == expected

        # Second run warm-starts from the persisted file.  The DEFAULT
        # caches live in-process, so isolate the child run in a fresh
        # interpreter to observe loads > 0.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = tmp_path / "prog.doall"
        report2 = tmp_path / "r2.json"
        src_root = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src_root))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                str(src),
                "-p",
                "4",
                "--cache-dir",
                str(cache_dir),
                "--json-report",
                str(report2),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        r2 = json.loads(report2.read_text())
        loads = sum(s["loads"] for s in r2["caches"].values())
        assert loads > 0, r2["caches"]


def _fixed_content():
    """Caches with keys whose reprs share prefixes (ints 1/12/120/-1,
    strings 'a'/'ab', nested tuples, bytes) and dict plan payloads."""
    from repro.core.plan import PlanCache

    ft, lc, pc = FootprintTable(), LatticeCountCache(), PlanCache()
    ft.absorb_entries([(((1, 2), (3, 4)), 6), (((1, 2), (3,)), 3), (((1,), (12,)), 13)])
    lc.absorb_entries([
        (120, 1.5), (12, 2), (1, 3), (-1, 4), ("ab", 5), ("a", 6),
        (("k", b"\x01\x02", (3, 4)), 7.25), (("k", b"\x01", (3,)), 8),
    ])
    pc.absorb_entries([
        (("plan", (2, 2), b"\xff"), {"grid": [4, 2], "cost": 1.0}),
        (("plan", (2,), b"\xff"), {"grid": [8], "cost": 2.5, "note": "z"}),
        (("plan", (12,), b""), {"grid": [1], "cost": 0.5}),
    ])
    return {"footprint_table": ft, "lattice_cache": lc, "plan_cache": pc}


class TestStableBytes:
    #: sha256 of the file the repr-of-pair sort wrote for _fixed_content().
    DIGEST = "d592769201cf8edd8e1a15b6476d48254cdc41e1130bf51ac383101488c85442"

    def test_file_bytes_are_unchanged(self, tmp_path):
        """Sorting by the encoded key alone writes the same bytes as
        sorting whole ``[key, value]`` pairs by their repr."""
        import hashlib

        save_caches(tmp_path, **_fixed_content())
        raw = (tmp_path / CACHE_FILENAME).read_bytes()
        doc = json.loads(raw)
        for name, pairs in doc["caches"].items():
            assert pairs == sorted(pairs, key=repr), name
        assert hashlib.sha256(raw).hexdigest() == self.DIGEST

    def test_export_order_is_the_pair_repr_order(self):
        for cache in _fixed_content().values():
            entries = cache.export_entries()
            assert entries == sorted(entries, key=repr)
