"""Concurrent-writer safety of the on-disk ModelCache.

The contract under test: stores are atomic write-renames, so any number
of writers racing on the same content-addressed key — serving threads in
one process, batch workers across processes — leave readers observing
only *complete* payloads (one writer's document in full, never a torn
interleaving), and failed stores never leave temp-file garbage behind.
Submissions that share functions race through one registry's function
tier: each source is analyzed once, and every result equals a cold run.
"""

import json
import os
import subprocess
import sys
import threading

from repro.core import AnalysisConfig, Pipeline
from repro.core.batch import ModelCache
from repro.serve import ModelRegistry

KEY = "ab" + "cd" * 19                     # a plausible 40-hex fingerprint


def variant_payload(i: int) -> dict:
    # Distinct but internally consistent documents: `stamp` appears twice,
    # so a torn read (bytes from two writers) is detectable as a mismatch.
    return {"ok": True, "writer": i, "stamp": f"writer-{i}",
            "blob": f"writer-{i} " * 2000, "check": f"writer-{i}"}


def assert_complete(payload: dict) -> None:
    assert payload["stamp"] == payload["check"]
    assert payload["blob"] == f"{payload['stamp']} " * 2000


def test_threaded_writers_and_readers_never_see_torn_payloads(tmp_path):
    cache = ModelCache(str(tmp_path))
    stop = threading.Event()
    seen: list[dict] = []
    failures: list[str] = []

    def writer(i: int):
        payload = variant_payload(i)
        while not stop.is_set():
            cache.put(KEY, payload)

    def reader():
        local = ModelCache(str(tmp_path))   # own stats, same directory
        while not stop.is_set():
            payload = local.get(KEY)
            if payload is None:
                continue
            try:
                assert_complete(payload)
            except AssertionError:
                failures.append(json.dumps(payload)[:200])
            seen.append(payload)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    threads += [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    timer = threading.Timer(2.0, stop.set)
    timer.start()
    for t in threads:
        t.join()
    timer.cancel()

    assert not failures, f"torn payloads observed: {failures[:3]}"
    assert len(seen) > 100                  # the readers actually read
    final = cache.get(KEY)
    assert_complete(final)


def test_process_writers_race_to_a_complete_payload(tmp_path):
    # Real multi-process contention (the batch-worker scenario): every
    # process hammers the same key; afterwards the entry is one writer's
    # complete document and no temp files remain.
    script = """
import sys
from repro.core import AnalysisConfig, Pipeline
from repro.core.batch import ModelCache
from repro.serve import ModelRegistry
cache_dir, writer = sys.argv[1], int(sys.argv[2])
payload = {"ok": True, "writer": writer, "stamp": f"writer-{writer}",
           "blob": f"writer-{writer} " * 2000, "check": f"writer-{writer}"}
cache = ModelCache(cache_dir)
for _ in range(50):
    cache.put("%s", payload)
""" % KEY
    procs = [subprocess.Popen([sys.executable, "-c", script,
                               str(tmp_path), str(i)])
             for i in range(4)]
    for p in procs:
        assert p.wait(timeout=120) == 0

    payload = ModelCache(str(tmp_path)).get(KEY)
    assert_complete(payload)
    tmp_files = [fn for _, _, fns in os.walk(tmp_path)
                 for fn in fns if fn.endswith(".tmp")]
    assert tmp_files == []


def test_failed_store_leaves_no_temp_garbage(tmp_path):
    cache = ModelCache(str(tmp_path))
    cache.put(KEY, {"unserializable": object()})   # TypeError inside _write
    assert cache.get(KEY) is None                  # degraded to a miss...
    leftovers = [fn for _, _, fns in os.walk(tmp_path) for fn in fns]
    assert leftovers == []                         # ...with no debris


def test_failed_store_keeps_the_previous_entry(tmp_path):
    cache = ModelCache(str(tmp_path))
    good = variant_payload(1)
    cache.put(KEY, good)
    cache.put(KEY, {"bad": object()})
    assert cache.get(KEY) == good           # the old entry survives intact


# main → f1 → f0 and main → f3 → f2; the second variant edits f2's body, so
# the two share the function entries of f0 and f1.
CHAIN = """\
int f0(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
int f1(int n) { int s = 0; for (int i = 0; i < n; i++) s += f0(n); return s; }
int f2(int n) { int s = 1; for (int i = 0; i < n; i++) s += 2 * i; return s; }
int f3(int n) { int s = 0; for (int i = 0; i < n; i++) s += f2(i); return s; }
int main() { return f1(10) + f3(20); }
"""
VARIANTS = (CHAIN, CHAIN.replace("s += 2 * i;", "s += 3 * i;"))


def _without_timings(result) -> dict:
    doc = result.to_dict()
    doc.pop("stage_timings")
    return doc


def test_racing_variants_share_the_function_tier(tmp_path):
    """Threads racing two variants of one program through one registry
    read and write the shared functions' entries concurrently; each
    variant is analyzed once and both equal a cold run."""
    cold = [_without_timings(Pipeline(AnalysisConfig(use_cache=False))
                             .run(v, filename="t.c")) for v in VARIANTS]
    for attempt in range(3):
        registry = ModelRegistry(
            AnalysisConfig(cache_dir=str(tmp_path / f"cache{attempt}")))
        barrier = threading.Barrier(8)
        results, errors = [], []

        def submit(i: int) -> None:
            try:
                barrier.wait()
                entry, _ = registry.submit(VARIANTS[i % 2], filename="t.c")
                results.append((i % 2, _without_timings(entry.result)))
            except Exception as exc:        # reported below, not lost
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        assert len(results) == 8
        for variant, doc in results:
            assert doc == cold[variant]
        assert registry.store.analyses == 2
